"""End-to-end parity: our Ray pipeline vs the reference implementation
run in-process with the same deterministic mock model (SURVEY.md §5.2
item 2; north-rule gate: triple P/R >= 0.95)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from ai_knowledge_graph_ray.functions.html_extract import wrap_html
from ai_knowledge_graph_ray.pipelines.kg import build_graph

from tests._reference import requires_reference, run_reference_pipeline

CHUNKING = {"chunk_size": 100, "overlap": 20}

REF_CONFIG = {
    "llm": {
        "model": "mock",
        "api_key": "none",
        "max_tokens": 1000,
        "temperature": 0.0,
        "base_url": "http://localhost/none",
    },
    "chunking": CHUNKING,
    "standardization": {"enabled": True, "use_llm_for_entities": False},
    "inference": {"enabled": True, "use_llm_for_inference": False},
}

OUR_CONFIG = {
    "llm": {"provider": "mock"},
    "chunking": CHUNKING,
    "standardization": {"enabled": True, "use_llm_for_entities": False},
    "inference": {"enabled": True, "use_llm_for_inference": False},
    "runtime": {"lexical_mode": "exact"},
}


def _pages_ds_from_text(text: str) -> ray.data.Dataset:
    tbl = pa.table(
        {
            "url": pa.array(["https://example.org/t/0"], pa.string()),
            "warc_ts": pa.array([0], pa.timestamp("us")),
            "html": pa.array([wrap_html(text)], pa.binary()),
            "text": pa.array([text], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    return ray.data.from_arrow(tbl)


def _spo_set(rows) -> set[tuple[str, str, str]]:
    return {(r["subject"], r["predicate"], r["object"]) for r in rows}


def _sample_texts(n: int = 3) -> list[str]:
    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
    texts = tbl.column("text").to_pylist()[1 : 1 + n]
    return [t for t in texts if t and len(t.split()) > 30]


# Alias variants are chosen with DIFFERENT string lengths: the
# reference's second-pass stem merge breaks equal-length ties by
# Python set-iteration order (entity_standardization.py:121,148-151),
# which varies across processes under hash randomization — the
# reference itself is nondeterministic there. Different lengths make
# its shorter-wins rule deterministic so parity is stable.
ALIAS_RICH_TEXT = (
    "The steam engine transformed industry across Britain. "
    "Steam engines powered the new factories and mills everywhere. "
    "Artificial intelligence guides modern analysis of industrial history. "
    "Intelligent machines and artificial intelligence research accelerate discovery. "
    "Capitalist decay threatened older markets while capitalists invested in cities. "
    "The railway network moved coal from mines to ports. "
    "Railways employed thousands of workers in dangerous conditions. "
) * 6


@requires_reference
@pytest.mark.parametrize("case", ["doc0", "doc1", "alias"])
def test_pipeline_parity(case, tmp_path):
    if case == "alias":
        text = ALIAS_RICH_TEXT
    else:
        texts = _sample_texts()
        idx = int(case[-1])
        if idx >= len(texts):
            pytest.skip("not enough sample docs")
        text = texts[idx]

    ref_triples = run_reference_pipeline(text, REF_CONFIG, tmp_path)
    ref_set = _spo_set(ref_triples)
    assert ref_set, "reference produced no triples — mock wiring broken"

    res = build_graph(_pages_ds_from_text(text), OUR_CONFIG)
    our_set = _spo_set(
        res["triples"].select_columns(["subject", "predicate", "object"]).take_all()
    )
    assert our_set, "our pipeline produced no triples"

    inter = len(ref_set & our_set)
    precision = inter / len(our_set)
    recall = inter / len(ref_set)
    assert precision >= 0.95, (
        f"precision {precision:.3f} < 0.95; ours-only: {sorted(our_set - ref_set)[:10]}"
    )
    assert recall >= 0.95, (
        f"recall {recall:.3f} < 0.95; ref-only: {sorted(ref_set - our_set)[:10]}"
    )


@requires_reference
def test_extraction_phase_only_parity(tmp_path):
    """Phase-1-only comparison (standardization+inference off) must be
    exact: chunking + mock + JSON recovery + validation + predicate
    limit are all deterministic."""
    text = _sample_texts(1)[0]
    cfg_ref = dict(REF_CONFIG)
    cfg_ref["standardization"] = {"enabled": False}
    cfg_ref["inference"] = {"enabled": False}
    ref_triples = run_reference_pipeline(text, cfg_ref, tmp_path)

    cfg_ours = dict(OUR_CONFIG)
    cfg_ours["standardization"] = {"enabled": False}
    cfg_ours["inference"] = {"enabled": False}
    res = build_graph(_pages_ds_from_text(text), cfg_ours)
    ours = res["triples"].select_columns(["subject", "predicate", "object"]).take_all()

    # Exact multiset equality on (s, p, o).
    import collections

    ref_ms = collections.Counter((t["subject"], t["predicate"], t["object"]) for t in ref_triples)
    our_ms = collections.Counter((r["subject"], r["predicate"], r["object"]) for r in ours)
    assert ref_ms == our_ms
