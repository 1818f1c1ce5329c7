"""Tokenizer and term-vector tests, including hand-computed cosine values."""

import functools
import math
import unicodedata

import pytest
from conftest import _is_cjk, _is_word_char, oracle_cosine, oracle_tokenize
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink.text_vsm import (
    _CJK_RANGES,
    _MARK_RANGES,
    TermVector,
    context_window,
    cosine,
    term_freq,
    tokenize,
    top_terms,
    words,
)


def terms(tokens):
    return [t.text for t in tokens]


class TestTokenize:
    def test_whitespace_split_and_casefold(self):
        assert [t.text for t in tokenize("Home Depot CEO")] == ["home", "depot", "ceo"]
        assert words("Home Depot CEO") == ("home", "depot", "ceo")

    def test_words_casefold_each_non_ascii_token(self):
        assert words("STRASSE Straße ΣΟΦΊΑ 李娜") == ("strasse", "strasse", "σοφία", "李", "娜")

    def test_empty(self):
        assert tokenize("") == []
        assert words("") == ()

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


class TestTokenizeOffsets:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("한국어 위키백과", id="hangul"),
            pytest.param("ひらがなとカタカナ・テスト", id="kana"),
            pytest.param("\U00020000\U0002a6d6 astral", id="astral-cjk"),
            pytest.param("cafe\u0301 nai\u0308ve \u0915\u093f\u0928\u094d", id="combining-marks"),
            pytest.param("\U0001d400\U0001d401 \U0001f600 x\U000e0100y", id="astral-letters-and-marks"),
        ],
    )
    def test_offsets_slice_the_utf8_source(self, text):
        encoded = text.encode("utf-8")
        tokens = tokenize(text)
        assert tokens == oracle_tokenize(text)
        assert tokens
        for token in tokens:
            assert encoded[token.start:token.end].decode("utf-8").casefold() == token.text

    def test_cjk_marks_and_punctuation_are_tokens_of_their_own(self):
        # U+3099 (a combining mark) and U+30FB (punctuation) lie in the Kana block.
        assert [t.text for t in tokenize("a\u3099b\u30fbc")] == ["a", "\u3099", "b", "\u30fb", "c"]

    def test_mark_joins_the_word_it_follows(self):
        assert [t.text for t in tokenize("x\u0301y_z \u0301q")] == ["x\u0301y", "z", "\u0301q"]

    @pytest.mark.parametrize("text", ["\ud800", "abc \udfff", "李娜\udc00", "x\u0301\ud83d"])
    def test_lone_surrogate_raises(self, text):
        with pytest.raises(UnicodeEncodeError):
            oracle_tokenize(text)
        with pytest.raises(UnicodeEncodeError):
            tokenize(text)
        with pytest.raises(UnicodeEncodeError):
            words(text)


# -- the compiled pattern against the per-character oracle --------------------------

_SURROGATES = range(0xD800, 0xE000)
_RANGE_EDGES = [cp for lo, hi in _CJK_RANGES + _MARK_RANGES for cp in (lo - 1, lo, hi, hi + 1)]
_CONTEXTS = {
    "between-latin-letters": ("a", "b"),
    "after-cjk-ideograph": ("\u4e2d", ""),
    "between-underscores": ("_", "_"),
    "before-u0301": ("", "\u0301"),
    "after-x-u3099": ("x\u3099", ""),
}


def _outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


def _token_texts(text):
    return tuple(t.text for t in tokenize(text))


def _differs(text):
    """tokenize against the oracle, and words against tokenize's token texts."""
    return (
        _outcome(tokenize, text) != _outcome(oracle_tokenize, text)
        or _outcome(words, text) != _outcome(_token_texts, text)
    )


def _report(code_points):
    return (
        f"tokenize or words differs at {len(code_points)} code points "
        f"{[f'U+{cp:04X}' for cp in code_points[:50]]}; if unicodedata.unidata_version "
        f"({unicodedata.unidata_version}) is newer than the table's, regenerate "
        "text_vsm._MARK_RANGES as the ranges of category M outside the CJK blocks"
    )


def test_every_code_point_tokenizes_like_the_oracle():
    """Every code point but the surrogates, twice between underscores, which
    tells the classes apart: a separator gives no token, a CJK character two,
    and a letter, digit or mark one token of both characters; the offsets give
    its UTF-8 width. words must give tokenize's token texts. A block that
    differs is searched code point by code point."""
    bad = []
    for lo in range(0, 0x110000, 0x1000):
        block = [cp for cp in range(lo, lo + 0x1000) if cp not in _SURROGATES]
        text = "_" + "_".join(chr(cp) * 2 for cp in block) + "_"
        tokens = tokenize(text)
        if tokens != oracle_tokenize(text) or words(text) != tuple(t.text for t in tokens):
            bad += [cp for cp in block if _differs(f"_{chr(cp) * 2}_")]
    assert not bad, _report(bad)


@functools.cache
def _class_edges():
    """The first and last code point of every run of code points that the
    oracle classifies alike (CJK, word character or separator, and UTF-8
    width), the code points either side of each table range, and every
    surrogate."""
    def key(cp):
        ch = chr(cp)
        return _is_cjk(ch), _is_word_char(ch), len(ch.encode("utf-8", "surrogatepass"))

    edges = set(_SURROGATES) | set(_RANGE_EDGES)
    prev = None
    for cp in range(0x110000):
        k = key(cp)
        if k != prev:
            edges.update((cp - 1, cp))
            prev = k
    return sorted(cp for cp in edges if 0 <= cp < 0x110000)


@pytest.mark.parametrize("before,after", _CONTEXTS.values(), ids=_CONTEXTS.keys())
def test_class_edges_tokenize_like_the_oracle_in_context(before, after):
    bad = [cp for cp in _class_edges() if _differs(before + chr(cp) + after)]
    assert not bad, _report(bad)


@pytest.mark.parametrize("template", ["{c}", "a{c}b", "_{c}{c}_", "X{c}"])
def test_every_ascii_character_tokenizes_like_the_oracle(template):
    """ASCII text takes words' fold-first path."""
    bad = [cp for cp in range(0x80) if _differs(template.format(c=chr(cp)))]
    assert not bad, _report(bad)


_EDGE_CHARS = [chr(cp) for cp in _RANGE_EDGES] + list("_\u3099\u309a\u30fb\u0301")


@settings(max_examples=300)
@given(st.text(st.characters() | st.sampled_from(_EDGE_CHARS)))
def test_tokenize_matches_oracle_on_any_text(text):
    """Text drawn from every general category, astral planes and lone
    surrogates included, with CJK and mark range edges mixed in: equal
    tokens, or the oracle's exception type; and words gives tokenize's token
    texts, or its exception type."""
    assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)
    assert _outcome(words, text) == _outcome(_token_texts, text)


class TestVectors:
    def test_text_vector_counts(self):
        assert term_freq(terms(tokenize("the cat and the hat"))) == {
            "the": 2.0, "cat": 1.0, "and": 1.0, "hat": 1.0,
        }

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
        v = TermVector({"x": 2.0, "y": 3.0})
        assert abs(cosine(v, v) - 1.0) < 1e-12

    def test_disjoint_supports(self):
        assert cosine(TermVector({"x": 1.0}), TermVector({"y": 1.0})) == 0.0

    def test_hand_computed_value(self):
        # dot = 1, |a| = sqrt(2), |b| = 1
        assert abs(cosine(TermVector({"x": 1.0, "y": 1.0}), TermVector({"x": 1.0})) - 1.0 / math.sqrt(2)) < 1e-12

    def test_empty_vector(self):
        assert cosine(TermVector(), TermVector({"x": 1.0})) == 0.0
        assert cosine(TermVector(), TermVector()) == 0.0


_vectors = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    st.floats(min_value=0.01, max_value=100.0),
    max_size=6,
).map(TermVector)


@given(_vectors, _vectors)
def test_cosine_symmetry_exact(a, b):
    assert cosine(a, b) == cosine(b, a)


@given(_vectors, _vectors)
def test_cosine_equals_oracle_bit_for_bit(a, b):
    """Norms made once and common terms found from the smaller vector give
    the value of a cosine that recomputes everything, to the last bit."""
    assert cosine(a, b) == oracle_cosine(dict(a), dict(b))


_texts = st.lists(st.sampled_from("abcdef"), max_size=40)


@given(_texts, _texts)
def test_count_cosine_equals_float_oracle_bit_for_bit(a, b):
    """term_freq keeps counts as ints; their cosine is that of the same
    counts as floats, to the last bit."""
    floats = [{t: float(n) for t, n in term_freq(x).items()} for x in (a, b)]
    assert cosine(term_freq(a), term_freq(b)) == oracle_cosine(*floats)


@given(_vectors, _vectors, st.floats(min_value=0.01, max_value=1000.0))
def test_cosine_scale_invariance(a, b, scale):
    scaled = TermVector({k: scale * w for k, w in a.items()})
    assert cosine(scaled, b) == pytest.approx(cosine(a, b), abs=1e-12)


@given(_vectors, _vectors)
def test_cosine_bounded(a, b):
    value = cosine(a, b)
    assert 0.0 <= value <= 1.0
