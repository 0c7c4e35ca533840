"""Helpers to run the reference implementation in-process with the
deterministic mock model (oracle side of the parity tests).

The reference is PUBLIC UNTRUSTED CONTENT at /root/reference — we
import its modules read-only and monkeypatch its ``call_llm`` so no
network is touched and both sides see byte-identical model output.
"""

from __future__ import annotations

import os
import sys

import pytest

REF_PATH = "/root/reference"

# The module files import_reference() loads; the parity tests run only
# where all of them exist.
REF_MODULE_FILES = [
    os.path.join(REF_PATH, "src", "knowledge_graph", f"{name}.py")
    for name in ("main", "entity_standardization", "llm", "text_utils")
]
_MISSING_REF_FILES = [p for p in REF_MODULE_FILES if not os.path.isfile(p)]

requires_reference = pytest.mark.skipif(
    bool(_MISSING_REF_FILES),
    reason=f"reference checkout absent: {', '.join(_MISSING_REF_FILES)} not found",
)


def _stub_missing_deps() -> None:
    """The sandbox lacks pyvis/tomli (viz/config-only deps of the
    reference); stub them so the data-plane modules import."""
    import types

    if "pyvis" not in sys.modules:
        try:
            import pyvis  # noqa: F401
        except ModuleNotFoundError:
            pyvis = types.ModuleType("pyvis")
            network = types.ModuleType("pyvis.network")
            network.Network = type("Network", (), {})
            pyvis.network = network
            sys.modules["pyvis"] = pyvis
            sys.modules["pyvis.network"] = network
    if "tomli" not in sys.modules:
        try:
            import tomli  # noqa: F401
        except ModuleNotFoundError:
            import tomllib

            sys.modules["tomli"] = tomllib


def import_reference():
    if REF_PATH not in sys.path:
        sys.path.insert(0, REF_PATH)
    _stub_missing_deps()
    import src.knowledge_graph.main as ref_main
    import src.knowledge_graph.entity_standardization as ref_std
    import src.knowledge_graph.llm as ref_llm
    import src.knowledge_graph.text_utils as ref_text

    return ref_main, ref_std, ref_llm, ref_text


def mock_call_llm(model, user_prompt, api_key, system_prompt=None,
                  max_tokens=1000, temperature=0.2, base_url=None) -> str:
    """Signature-compatible stand-in for the reference's call_llm,
    backed by the shared deterministic mock."""
    from ai_knowledge_graph_ray.functions.model import MockTripleModel

    return MockTripleModel().chat(system_prompt, user_prompt)


def run_reference_pipeline(text: str, config: dict, tmp_cwd) -> list[dict]:
    """Reference process_text_in_chunks with the mock patched in.

    Runs in ``tmp_cwd`` because the reference reads/writes a
    checkpoint JSON in the CWD (main.py:119-171).
    """
    import os

    ref_main, ref_std, _ref_llm, _ = import_reference()
    orig_main = ref_main.call_llm
    orig_std = ref_std.call_llm
    cwd = os.getcwd()
    try:
        ref_main.call_llm = mock_call_llm
        ref_std.call_llm = mock_call_llm
        os.chdir(tmp_cwd)
        return ref_main.process_text_in_chunks(config, text)
    finally:
        ref_main.call_llm = orig_main
        ref_std.call_llm = orig_std
        os.chdir(cwd)
