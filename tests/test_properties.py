"""Property-based tests (hypothesis) over the pure function layer.

These pin INVARIANTS rather than examples: reference parity for the
chunker on arbitrary word streams (cross-checked against the actual
reference implementation loaded from /root/reference), idempotence of
the normalizers, never-raise + valid-JSON-roundtrip for the extractor,
and union-find vs a trivial reachability oracle. No Ray involved.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ai_knowledge_graph_ray.functions.chunking import chunk_text
from ai_knowledge_graph_ray.functions.jsonx import extract_json_from_text
from ai_knowledge_graph_ray.functions.textnorm import (
    limit_predicate_length,
    normalize_entity_key,
    normalize_node_id,
    normalize_ws,
)

# deterministic CI profile: no deadline flakes under host steal
settings.register_profile("graft", deadline=None, max_examples=200)
settings.load_profile("graft")

WORD = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)
WORDS = st.lists(WORD, min_size=0, max_size=400)


REF_TEXT_UTILS = "/root/reference/src/knowledge_graph/text_utils.py"


@functools.cache
def _load_reference_chunker():
    spec = importlib.util.spec_from_file_location("ref_llm_mod", REF_TEXT_UTILS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.chunk_text


class TestChunkerProperties:
    # The reference terminates iff chunk_size >= 2 * overlap (its
    # tail-exit test can never fire otherwise) — parity holds on that
    # whole domain; outside it the reference infinite-loops and ours
    # deliberately breaks (see chunk_text docstring).
    @pytest.mark.skipif(
        not os.path.isfile(REF_TEXT_UTILS),
        reason=f"reference checkout absent: {REF_TEXT_UTILS} not found",
    )
    @given(WORDS, st.integers(2, 60), st.integers(0, 30))
    def test_parity_with_reference_on_terminating_configs(self, words, size, ov):
        ref_chunk = _load_reference_chunker()
        ov = min(ov, size // 2)
        text = " ".join(words)
        assert chunk_text(text, size, ov) == ref_chunk(text, size, ov)

    @given(WORDS, st.integers(2, 60), st.integers(0, 30))
    def test_every_word_occurrence_is_covered(self, words, size, ov):
        if ov >= size:
            ov = size - 1
        text = " ".join(words)
        chunked = " ".join(chunk_text(text, size, ov)).split()
        # every input word appears at least as often as in the input
        # (overlap re-emits words, never drops them)
        from collections import Counter

        need, got = Counter(words), Counter(chunked)
        assert all(got[w] >= c for w, c in need.items())

    @given(WORDS, st.integers(2, 60))
    def test_zero_overlap_is_exact_partition(self, words, size):
        text = " ".join(words)
        chunks = chunk_text(text, size, 0)
        assert " ".join(chunks).split() == text.split()

    @given(st.integers(3, 20), st.integers(2, 19), st.integers(5, 80))
    def test_terminates_where_reference_loops_forever(self, size, ov, n):
        # ov < size < 2*ov (and text longer than one window): the
        # reference chunker never exits its loop; ours must terminate,
        # cover the tail, and never emit a repeated window
        ov = min(ov, size - 1)
        if size >= 2 * ov:
            size = 2 * ov - 1
        if size <= ov:
            return  # degenerate after clamping (size 2 / ov 1 etc.)
        words = [f"w{i}" for i in range(max(n, size + 1))]
        chunks = chunk_text(" ".join(words), size, ov)
        assert chunks[-1].split()[-1] == words[-1]
        assert len(chunks) == len(set(chunks))

    def test_nonadvancing_config_rejected(self):
        with pytest.raises(ValueError, match="must be < chunk_size"):
            chunk_text("a b c d e", 3, 3)
        with pytest.raises(ValueError, match="must be < chunk_size"):
            chunk_text("a b c d e", 3, 4)


class TestNormalizerProperties:
    @given(st.text(max_size=80))
    def test_entity_key_idempotent(self, s):
        k = normalize_entity_key(s)
        assert normalize_entity_key(k) == k

    @given(st.text(max_size=80))
    def test_node_id_idempotent_and_shape(self, s):
        n = normalize_node_id(s)
        assert normalize_node_id(n) == n
        assert " " not in n and "-" not in n
        assert n == n.lower()

    @given(st.text(max_size=80))
    def test_ws_idempotent_no_runs(self, s):
        w = normalize_ws(s)
        assert normalize_ws(w) == w
        assert "  " not in w

    @given(st.text(max_size=120), st.integers(1, 6))
    def test_predicate_limit_bounds(self, s, k):
        out = limit_predicate_length(s, max_words=k)
        assert len(out.split()) <= k
        if len(s.split()) <= k:
            assert out == s  # short predicates untouched (reference quirk)


JSON_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


class TestJsonExtractorProperties:
    @given(JSON_VALUE)
    def test_roundtrips_valid_json(self, value):
        assert extract_json_from_text(json.dumps(value)) == value

    @given(JSON_VALUE, st.text(max_size=30))
    def test_roundtrips_fenced_json_with_prose(self, value, prose):
        if "```" in prose:
            prose = prose.replace("```", "")
        text = f"{prose}\n```json\n{json.dumps(value)}\n```\n{prose}"
        assert extract_json_from_text(text) == value

    @given(st.text(max_size=200))
    def test_never_raises(self, garbage):
        extract_json_from_text(garbage)  # None or a value; never an exception


class TestUnionFindProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60
        ).map(lambda ps: [(f"n{a}", f"n{b}") for a, b in ps])
    )
    def test_components_match_reachability(self, pairs):
        from ai_knowledge_graph_ray.stages.infer import connected_components

        labels = connected_components(pairs)
        # same label <=> connected in the undirected graph
        adj: dict[str, set[str]] = {}
        for a, b in pairs:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        def reach(start):
            seen, stack = {start}, [start]
            while stack:
                for nb in adj.get(stack.pop(), ()):  # noqa: B023
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            return seen

        nodes = sorted(adj)
        assert set(labels) == set(nodes)
        for n in nodes:
            comp = reach(n)
            want = {labels[m] for m in comp}
            assert len(want) == 1 and labels[n] in want


# ---------------------------------------------------------------------------
# Fifth-session pure kernels: BPE, RRF points, mixture copy counts
# ---------------------------------------------------------------------------

from ai_knowledge_graph_ray.functions.bpe import (  # noqa: E402
    bpe_encode_word,
    bpe_train_from_counts,
)

LOWER_WORD = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=10
)


class TestBpeProperties:
    @given(st.dictionaries(LOWER_WORD, st.integers(1, 50), min_size=1, max_size=30),
           st.integers(0, 40))
    def test_encode_reconstructs_word(self, counts, n_merges):
        merges = bpe_train_from_counts(counts, n_merges)
        ranks = {m: i for i, m in enumerate(merges)}
        for w in counts:
            toks = bpe_encode_word(w, ranks)
            assert "".join(toks) == w + "</w>"
            assert 1 <= len(toks) <= len(w)

    @given(st.dictionaries(LOWER_WORD, st.integers(1, 50), min_size=1, max_size=30))
    def test_more_merges_never_lengthen(self, counts):
        m_few = bpe_train_from_counts(counts, 3)
        m_many = bpe_train_from_counts(counts, 30)
        assert m_many[: len(m_few)] == m_few  # merge list is a prefix chain
        rf = {m: i for i, m in enumerate(m_few)}
        rm = {m: i for i, m in enumerate(m_many)}
        for w in counts:
            assert len(bpe_encode_word(w, rm)) <= len(bpe_encode_word(w, rf))


class TestLehmerSamplingProperties:
    @given(st.lists(st.integers(0, 2**62), min_size=1, max_size=200, unique=True),
           st.integers(0, 1000))
    def test_sample_is_subset_and_monotone_in_rate(self, ids, milli):
        mult, mod = 1291394886, 2147483647

        def keep(i, m):
            return ((i % mod) * mult) % mod < (m * mod) // 1000

        lo = {i for i in ids if keep(i, milli)}
        hi = {i for i in ids if keep(i, min(milli + 100, 1000))}
        assert lo <= hi  # raising the rate only ADDS rows
        if milli == 1000:
            assert lo == set(ids)

    @given(st.lists(st.integers(0, 2**62), min_size=1, max_size=200, unique=True),
           st.integers(0, 3500))
    def test_resample_copy_count_formula(self, ids, milli):
        mult, mod = 1291394886, 2147483647
        base, frac = milli // 1000, ((milli % 1000) * mod) // 1000
        total = sum(
            base + (1 if ((i % mod) * mult) % mod < frac else 0) for i in ids
        )
        # bounded between floor and ceil epochs
        assert base * len(ids) <= total <= (base + 1) * len(ids)
