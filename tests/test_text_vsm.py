"""Tokenizer and term-vector tests, including hand-computed cosine values."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entlink.text_vsm import context_window, cosine, term_freq, tokenize, top_terms


def terms(tokens):
    return [t.text for t in tokens]


class TestTokenize:
    def test_whitespace_split_and_casefold(self):
        assert [t.text for t in tokenize("Home Depot CEO")] == ["home", "depot", "ceo"]

    def test_empty(self):
        assert tokenize("") == []

    def test_cjk_single_character_tokens(self):
        assert [t.text for t in tokenize("李娜 wins")] == ["李", "娜", "wins"]

    def test_cjk_latin_boundary_without_space(self):
        assert [t.text for t in tokenize("李娜wins")] == ["李", "娜", "wins"]

    def test_punctuation_is_not_a_token(self):
        assert [t.text for t in tokenize("quits, (really)!")] == ["quits", "really"]

    def test_byte_offsets_address_source_slices(self):
        text = "Home Depot 李娜 wins"
        encoded = text.encode("utf-8")
        for token in tokenize(text):
            assert encoded[token.start:token.end].decode("utf-8").casefold() == token.text

    def test_offsets_strictly_increasing(self):
        offsets = [t.start for t in tokenize("a b c 李 d")]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)

    def test_deterministic(self):
        text = "Mixed 李娜 CASE text-with punct."
        assert tokenize(text) == tokenize(text)


class TestVectors:
    def test_text_vector_counts(self):
        assert term_freq(terms(tokenize("the cat and the hat"))) == {
            "the": 2.0, "cat": 1.0, "and": 1.0, "hat": 1.0,
        }

    def test_text_vector_stopwords(self):
        assert term_freq(terms(tokenize("the cat and the hat")), {"the", "and"}) == {"cat": 1.0, "hat": 1.0}

    def test_top_vector_restriction(self):
        full = term_freq(terms(tokenize("b b a a c")))
        assert top_terms(full, 10**9) == full
        # ties broken lexicographically: a and b both occur twice
        assert top_terms(full, 1) == {"a": 2.0}
        assert top_terms(full, 2) == {"a": 2.0, "b": 2.0}

    def test_context_vector_full_window_equals_text_vector(self):
        tokens = tokenize("one two three four five six")
        assert term_freq(terms(context_window(tokens, 8, 100))) == term_freq(terms(tokens))

    def test_context_vector_window_split(self):
        tokens = tokenize("a b c d e f g")
        # anchor at 'd' (byte 6), window 4: two tokens per side of the split
        assert term_freq(terms(context_window(tokens, 6, 4))) == {"b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0}

    def test_context_window_at_start(self):
        tokens = tokenize("a b c d")
        assert [t.text for t in context_window(tokens, 0, 4)] == ["a", "b"]


class TestCosine:
    def test_identity(self):
        v = {"x": 2.0, "y": 3.0}
        assert abs(cosine(v, v) - 1.0) < 1e-12

    def test_disjoint_supports(self):
        assert cosine({"x": 1.0}, {"y": 1.0}) == 0.0

    def test_hand_computed_value(self):
        # dot = 1, |a| = sqrt(2), |b| = 1
        assert abs(cosine({"x": 1.0, "y": 1.0}, {"x": 1.0}) - 1.0 / math.sqrt(2)) < 1e-12

    def test_empty_vector(self):
        assert cosine({}, {"x": 1.0}) == 0.0
        assert cosine({}, {}) == 0.0


_vectors = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    st.floats(min_value=0.01, max_value=100.0),
    max_size=6,
)


@given(_vectors, _vectors)
def test_cosine_symmetry_exact(a, b):
    assert cosine(a, b) == cosine(b, a)


@given(_vectors, _vectors, st.floats(min_value=0.01, max_value=1000.0))
def test_cosine_scale_invariance(a, b, scale):
    scaled = {k: scale * w for k, w in a.items()}
    assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-12)


@given(_vectors, _vectors)
def test_cosine_bounded(a, b):
    value = cosine(a, b)
    assert 0.0 <= value <= 1.0
