"""Cleaning-pipeline conformance vs the reference's
``scripts/clean_graph.py`` on a dirty synthetic corpus (FIXTURES.md F4,
SURVEY.md §5.2 item 4)."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

from ai_knowledge_graph_ray.sources.triples_io import triples_from_records
from ai_knowledge_graph_ray.stages.clean import clean_triples

DIRTY = [
    {"subject": "Steam Engine", "predicate": "powers", "object": "Factory", "chunk": 1},
    {"subject": "steam engine", "predicate": "Powers", "object": "factory", "chunk": 2},  # case dup
    {"subject": "railway", "predicate": "is", "object": "transport", "chunk": 1},
    {"subject": "coal", "predicate": "is", "object": "fuel", "chunk": 3},
    {"subject": "it", "predicate": "relates", "object": "factory", "chunk": 1},  # noise subj
    {"subject": "factory", "predicate": "uses", "object": "123", "chunk": 1},  # noise obj
    {"subject": "ab", "predicate": "near", "object": "factory", "chunk": 1},  # short subj
    {"subject": "factory", "predicate": "holds", "object": "x", "chunk": 1},  # short obj
    {"subject": "mill", "predicate": "makes", "object": None, "chunk": 2},  # null obj
    {"subject": "", "predicate": "makes", "object": "cloth", "chunk": 2},  # empty subj
    {"subject": "mill", "predicate": "", "object": "cloth", "chunk": 2},  # empty pred
    {
        "subject": "workshop",
        "predicate": "contains",
        "object": ["lathe", "forge", "it"],
        "chunk": 4,
    },  # list object (one elem is noise)
    {"subject": '  "quoted entity"  ', "predicate": "has   many", "object": "spaces\tissue", "chunk": 5},
    {"subject": "unique", "predicate": "solitary", "object": "predicate", "chunk": 6},  # singleton pred
    {"subject": "canal", "predicate": "makes", "object": "trade", "chunk": 6},
    {"subject": "port", "predicate": "make", "object": "wealth", "chunk": 7},  # merges to produces
    {"subject": "bad", "predicate2": "stray", "object2": "keys"},  # missing required keys
]


REF_CLEAN_GRAPH = "/root/reference/scripts/clean_graph.py"


def _load_reference_cleaner(tmp_path, corpus):
    path = tmp_path / "dirty.json"
    path.write_text(json.dumps(corpus))
    spec = importlib.util.spec_from_file_location("ref_clean_graph", REF_CLEAN_GRAPH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.INPUT_FILE = path
    return mod


@pytest.mark.skipif(
    not os.path.isfile(REF_CLEAN_GRAPH),
    reason=f"reference checkout absent: {REF_CLEAN_GRAPH} not found",
)
def test_clean_conformance_vs_reference(tmp_path, capsys):
    ref = _load_reference_cleaner(tmp_path, DIRTY)
    ref_clean, ref_stats = ref.clean_graph(min_pred_count=2, apply=False, verbose=False)
    capsys.readouterr()

    ds = triples_from_records(DIRTY)
    ours, stats = clean_triples(ds, min_pred_count=2)
    our_rows = {
        (r["subject"], r["predicate"], r["object"])
        for r in ours.select_columns(["subject", "predicate", "object"]).take_all()
    }
    ref_rows = {(t["subject"], t["predicate"], t["object"]) for t in ref_clean}
    assert our_rows == ref_rows

    for key in [
        "flattened_lists",
        "removed_null",
        "removed_short",
        "removed_noise",
        "merged_predicates",
        "removed_duplicate",
        "removed_singleton_pred",
        "total_final",
    ]:
        assert stats[key] == ref_stats[key], (key, stats, ref_stats)


def test_clean_handles_missing_required_keys():
    # A record with no subject/predicate/object at all is a null-drop.
    ds = triples_from_records([{"predicate2": "x"}, {"subject": "steam", "predicate": "is", "object": "power"}])
    out, stats = clean_triples(ds, min_pred_count=1)
    rows = out.take_all()
    assert len(rows) == 1
    assert rows[0]["predicate"] == "is_a"
    assert stats["removed_null"] == 1


def test_clean_empty_corpus():
    out, stats = clean_triples(triples_from_records([]), min_pred_count=2)
    assert out.count() == 0
    assert stats["total_final"] == 0


def test_singleton_gate_join_path_equals_broadcast():
    """Step 7 over the predicate-residue gate (skew_join semi-join)
    must keep exactly the rows the broadcast keep-set keeps."""
    ds = triples_from_records(DIRTY)
    broad, stats_b = clean_triples(ds)
    joined, stats_j = clean_triples(ds, residue_max_predicates=0)

    cols = ["subject", "predicate", "object", "chunk", "seq"]

    def rows(d):
        return sorted(tuple(r[c] for c in cols) for r in d.take_all())

    assert rows(broad) == rows(joined)
    assert stats_b == stats_j
