"""Unit tests for the pure function layer, incl. direct parity against
the reference implementations (SURVEY.md §5.2 item 1)."""

from __future__ import annotations

import json

import pytest

from ai_knowledge_graph_ray.functions.chunking import chunk_rows, chunk_text
from ai_knowledge_graph_ray.functions.html_extract import extract_text, wrap_html
from ai_knowledge_graph_ray.functions.jsonx import extract_json_from_text
from ai_knowledge_graph_ray.functions.model import (
    MockTripleModel,
    mock_response_for_chunk,
    mock_triples_for_chunk,
)
from ai_knowledge_graph_ray.functions.textnorm import (
    is_noise_entity,
    limit_predicate_length,
    normalize_entity_key,
    normalize_node_id,
    normalize_ws,
)

from tests._reference import import_reference, requires_reference


def _make_doc(n_words: int) -> str:
    words = [f"w{i % 97}x{i % 13}" for i in range(n_words)]
    return " ".join(words)


class TestChunkText:
    def test_short_doc_verbatim(self):
        text = "hello   world\n\nwith   odd whitespace"
        assert chunk_text(text, chunk_size=100, overlap=20) == [text]

    def test_readme_layout_966_words(self):
        # README.md:115-128: 966 words @ 100/20 -> 13 chunks; last two
        # are 86 and 20 words.
        text = _make_doc(966)
        counts = [n for _, _, n in chunk_rows(text, 100, 20)]
        assert len(counts) == 13
        assert counts[:11] == [100] * 11
        assert counts[11:] == [86, 20]

    @pytest.mark.parametrize("n", [0, 1, 99, 100, 101, 150, 199, 200, 480, 966, 1234])
    @pytest.mark.parametrize("size,ov", [(100, 20), (500, 50), (200, 20), (50, 10)])
    @requires_reference
    def test_parity_with_reference(self, n, size, ov):
        _, _, _, ref_text = import_reference()
        text = _make_doc(n)
        assert chunk_text(text, size, ov) == ref_text.chunk_text(text, size, ov)

    def test_empty_doc(self):
        assert chunk_text("", 100, 20) == [""]


class TestExtractJson:
    CASES = [
        '[{"subject": "a", "predicate": "p", "object": "b"}]',
        'noise before ```json\n[{"subject": "a", "predicate": "p", "object": "b"}]\n``` after',
        'text [ {"subject": "a", "predicate": "p", "object": "b"} ] trailing',
        '[{subject: "a", predicate: "p", object: "b"}]',
        '[{"subject": "a", "predicate": "p", "object": "b"},]',
        '[{"subject": "a", "predicate": "p", "object": "b"}, {"subject": "c"',
        "no json here at all",
        "{}",
        '{"a": ["b", "c"]}',
    ]

    @pytest.mark.parametrize("text", CASES)
    @requires_reference
    def test_parity_with_reference(self, text):
        _, _, ref_llm, _ = import_reference()
        assert extract_json_from_text(text) == ref_llm.extract_json_from_text(text)

    @requires_reference
    def test_mock_responses_all_parse_consistently(self):
        # Whatever format variant the mock picks, both parsers must
        # recover the same triples.
        _, _, ref_llm, _ = import_reference()
        for i in range(100):
            chunk = _make_doc(40 + i)
            resp = mock_response_for_chunk(chunk)
            assert extract_json_from_text(resp) == ref_llm.extract_json_from_text(resp)


class TestPredicateLimit:
    @pytest.mark.parametrize(
        "pred",
        [
            "uses",
            "relates to",
            "is part of",
            "derives from the original source",
            "connected together with by",
            "one two three of",
            "a b c the",
            "",
        ],
    )
    @requires_reference
    def test_parity_with_reference(self, pred):
        _, ref_std, _, _ = import_reference()
        assert limit_predicate_length(pred) == ref_std.limit_predicate_length(pred)


class TestNormalize:
    def test_entity_key(self):
        assert normalize_entity_key("The Steam Engine") == "steam engine"
        assert normalize_entity_key("the of and") == ""
        assert normalize_entity_key("AI-powered systems") == "ai powered systems"

    def test_ws(self):
        assert normalize_ws('  "hello   world"  ') == "hello world"
        assert normalize_ws(42) == "42"

    def test_noise(self):
        for s in ["it", "The", "123", "---", "page", "this"]:
            assert is_noise_entity(s)
        for s in ["steam engine", "ai", "paris"]:
            assert not is_noise_entity(s)

    def test_node_id(self):
        assert normalize_node_id("Steam Engine-X") == "steam_engine_x"
        assert normalize_node_id(["a", "b"]) == "a,_b"


class TestHtmlRoundTrip:
    def test_byte_identity(self):
        text = "First paragraph with <angle> & amp.\n\nSecond one.\n\nThird: a sentence."
        assert extract_text(wrap_html(text)) == text

    def test_boilerplate_dropped(self):
        html = wrap_html("only the body text")
        assert b"BOILERPLATE" in html
        assert "BOILERPLATE" not in extract_text(html)
        assert "var x=1" not in extract_text(html)

    def test_deterministic(self):
        text = _make_doc(300)
        h1, h2 = wrap_html(text), wrap_html(text)
        assert h1 == h2
        assert extract_text(h1) == extract_text(h2) == text

    def test_empty(self):
        assert extract_text(b"") == ""
        assert extract_text(b"<html><body></body></html>") == ""


class TestMockModel:
    def test_deterministic(self):
        chunk = _make_doc(120)
        assert mock_response_for_chunk(chunk) == mock_response_for_chunk(chunk)
        assert mock_triples_for_chunk(chunk) == mock_triples_for_chunk(chunk)

    def test_chat_extracts_fenced_chunk(self):
        chunk = _make_doc(50)
        m = MockTripleModel()
        resp = m.chat("sys", f"some preamble\n```\n{chunk}```\n")
        assert resp == mock_response_for_chunk(chunk)

    def test_non_extraction_prompt(self):
        assert MockTripleModel().chat("sys", "no fences here") == "{}"

    def test_format_coverage(self):
        # Over many chunks the mock must hit clean/fenced/repairable/
        # garbage variants (FIXTURES.md F3 distribution).
        kinds = set()
        for i in range(200):
            resp = mock_response_for_chunk(_make_doc(30 + i))
            if resp.startswith("[") and resp.endswith("]"):
                try:
                    json.loads(resp)
                    kinds.add("clean")
                except json.JSONDecodeError:
                    kinds.add("repair")
            elif "```" in resp:
                kinds.add("fenced")
            elif "could not find" in resp:
                kinds.add("garbage")
            else:
                kinds.add("other")
        assert {"clean", "fenced", "garbage"} <= kinds


class TestModelRetryPolicy:
    """Transport retries with backoff in OpenAIChatModel (the reference
    raises on the first non-200, llm.py:61) and the semantic re-prompt
    in extract_chunk_triples (SURVEY §4.1)."""

    def _client(self, **kw):
        from ai_knowledge_graph_ray.functions.model import OpenAIChatModel

        c = OpenAIChatModel(
            model="m", api_key="k", base_url="http://x", backoff_base=0.0, **kw
        )
        return c

    class _Resp:
        def __init__(self, status, content="ok"):
            self.status_code = status
            self.text = "err"
            self._content = content

        def json(self):
            return {"choices": [{"message": {"content": self._content}}]}

    def test_transient_then_success(self):
        c = self._client(max_retries=3)
        calls = []

        class S:
            def post(s, *a, **k):
                calls.append(1)
                if len(calls) < 3:
                    raise ConnectionError("boom")
                return TestModelRetryPolicy._Resp(200, "hello")

        c.session = S()
        assert c.chat("sys", "user") == "hello"
        assert len(calls) == 3

    def test_retryable_status_then_success(self):
        c = self._client(max_retries=2)
        seq = [self._Resp(429), self._Resp(503), self._Resp(200, "done")]

        class S:
            def post(s, *a, **k):
                return seq.pop(0)

        c.session = S()
        assert c.chat(None, "user") == "done"

    def test_non_retryable_raises_immediately(self):
        import pytest

        c = self._client(max_retries=5)
        calls = []

        class S:
            def post(s, *a, **k):
                calls.append(1)
                return TestModelRetryPolicy._Resp(401)

        c.session = S()
        with pytest.raises(RuntimeError):
            c.chat(None, "user")
        assert len(calls) == 1

    def test_exhaustion_raises(self):
        import pytest

        c = self._client(max_retries=2)
        calls = []

        class S:
            def post(s, *a, **k):
                calls.append(1)
                raise TimeoutError("slow")

        c.session = S()
        with pytest.raises(RuntimeError, match="after 3 attempts"):
            c.chat(None, "user")
        assert len(calls) == 3

    def test_semantic_retry_reprompts_once(self):
        from ai_knowledge_graph_ray.stages.extract import (
            _SEMANTIC_RETRY_SUFFIX,
            extract_chunk_triples,
        )

        prompts_seen = []

        class FlakyModel:
            def chat(self, system, user):
                prompts_seen.append(user)
                if len(prompts_seen) == 1:
                    return "no triples here, sorry"
                return '[{"subject": "a", "predicate": "uses", "object": "b"}]'

        out = extract_chunk_triples(FlakyModel(), "some chunk", ("s", "u"))
        assert out == [{"subject": "a", "predicate": "uses", "object": "b"}]
        assert len(prompts_seen) == 2
        assert prompts_seen[1].endswith(_SEMANTIC_RETRY_SUFFIX)

    def test_semantic_retry_gives_up(self):
        from ai_knowledge_graph_ray.stages.extract import extract_chunk_triples

        calls = []

        class GarbageModel:
            def chat(self, system, user):
                calls.append(1)
                return "still nothing"

        assert extract_chunk_triples(GarbageModel(), "chunk", ("s", "u")) is None
        assert len(calls) == 2  # one retry, then reject
