"""Tokenization and sparse term vectors for the text-similarity features.

`tokenize` gives each token its UTF-8 byte offsets, which only a document's
own text needs (context windows and mention distances). Every other text is
compared as its sequence of token words, which `words` gives without
offsets. Everything here is a pure function over immutable inputs, so
unrestricted parallel use is safe. Term weights are raw term frequencies; no
corpus-level statistics are involved, which keeps training and decoding
deterministic. A `TermVector` computes its norm once, when it is made, so a
page vector compared with many mentions is not re-measured for each; `cosine`
still sums the dot product over the sorted common terms, so its value is the
same, bit for bit, as one that recomputes both norms.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter
from operator import attrgetter, mul
from typing import Iterable, Mapping, NamedTuple

import numpy as np


class TermVector(dict[str, float]):
    """Sparse term -> weight map with its Euclidean norm.

    Zero-weight entries are never stored. The norm is computed once, from
    the weights in insertion order, when the vector is made; a vector is
    not changed after that.
    """

    __slots__ = ("norm",)

    def __init__(self, weights: Mapping[str, float] | Iterable[tuple[str, float]] = ()):
        super().__init__(weights)
        self.norm = math.sqrt(sum(w * w for w in self.values()))


class Token(NamedTuple):
    text: str   # casefolded surface
    start: int  # byte offset into the UTF-8 encoding of the source
    end: int


TokenStream = list[Token]

# Blocks tokenized one character at a time (no whitespace segmentation).
# Every character in them is a token of its own, even a mark or punctuation.
_CJK_RANGES = (
    (0x1100, 0x11FF),    # Hangul jamo
    (0x2E80, 0x2FDF),    # CJK radicals
    (0x3040, 0x30FF),    # Hiragana, Katakana
    (0x3130, 0x318F),    # Hangul compatibility jamo
    (0x31F0, 0x31FF),    # Katakana extensions
    (0x3400, 0x4DBF),    # CJK extension A
    (0x4E00, 0x9FFF),    # CJK unified ideographs
    (0xAC00, 0xD7AF),    # Hangul syllables
    (0xF900, 0xFAFF),    # CJK compatibility ideographs
    (0x20000, 0x2EBEF),  # CJK extensions B..F
)

# Combining marks (general category Mn, Mc, Me) outside the CJK blocks, as of
# Unicode 14.0. `re`'s \w covers letters and digits but not marks, so they are
# listed here; a literal table spares every import a scan over all code
# points. tests/test_text_vsm.py checks it on every code point.
_MARK_RANGES = (
    (0x0300, 0x036F), (0x0483, 0x0489), (0x0591, 0x05BD), (0x05BF, 0x05BF), (0x05C1, 0x05C2),
    (0x05C4, 0x05C5), (0x05C7, 0x05C7), (0x0610, 0x061A), (0x064B, 0x065F), (0x0670, 0x0670),
    (0x06D6, 0x06DC), (0x06DF, 0x06E4), (0x06E7, 0x06E8), (0x06EA, 0x06ED), (0x0711, 0x0711),
    (0x0730, 0x074A), (0x07A6, 0x07B0), (0x07EB, 0x07F3), (0x07FD, 0x07FD), (0x0816, 0x0819),
    (0x081B, 0x0823), (0x0825, 0x0827), (0x0829, 0x082D), (0x0859, 0x085B), (0x0898, 0x089F),
    (0x08CA, 0x08E1), (0x08E3, 0x0903), (0x093A, 0x093C), (0x093E, 0x094F), (0x0951, 0x0957),
    (0x0962, 0x0963), (0x0981, 0x0983), (0x09BC, 0x09BC), (0x09BE, 0x09C4), (0x09C7, 0x09C8),
    (0x09CB, 0x09CD), (0x09D7, 0x09D7), (0x09E2, 0x09E3), (0x09FE, 0x09FE), (0x0A01, 0x0A03),
    (0x0A3C, 0x0A3C), (0x0A3E, 0x0A42), (0x0A47, 0x0A48), (0x0A4B, 0x0A4D), (0x0A51, 0x0A51),
    (0x0A70, 0x0A71), (0x0A75, 0x0A75), (0x0A81, 0x0A83), (0x0ABC, 0x0ABC), (0x0ABE, 0x0AC5),
    (0x0AC7, 0x0AC9), (0x0ACB, 0x0ACD), (0x0AE2, 0x0AE3), (0x0AFA, 0x0AFF), (0x0B01, 0x0B03),
    (0x0B3C, 0x0B3C), (0x0B3E, 0x0B44), (0x0B47, 0x0B48), (0x0B4B, 0x0B4D), (0x0B55, 0x0B57),
    (0x0B62, 0x0B63), (0x0B82, 0x0B82), (0x0BBE, 0x0BC2), (0x0BC6, 0x0BC8), (0x0BCA, 0x0BCD),
    (0x0BD7, 0x0BD7), (0x0C00, 0x0C04), (0x0C3C, 0x0C3C), (0x0C3E, 0x0C44), (0x0C46, 0x0C48),
    (0x0C4A, 0x0C4D), (0x0C55, 0x0C56), (0x0C62, 0x0C63), (0x0C81, 0x0C83), (0x0CBC, 0x0CBC),
    (0x0CBE, 0x0CC4), (0x0CC6, 0x0CC8), (0x0CCA, 0x0CCD), (0x0CD5, 0x0CD6), (0x0CE2, 0x0CE3),
    (0x0D00, 0x0D03), (0x0D3B, 0x0D3C), (0x0D3E, 0x0D44), (0x0D46, 0x0D48), (0x0D4A, 0x0D4D),
    (0x0D57, 0x0D57), (0x0D62, 0x0D63), (0x0D81, 0x0D83), (0x0DCA, 0x0DCA), (0x0DCF, 0x0DD4),
    (0x0DD6, 0x0DD6), (0x0DD8, 0x0DDF), (0x0DF2, 0x0DF3), (0x0E31, 0x0E31), (0x0E34, 0x0E3A),
    (0x0E47, 0x0E4E), (0x0EB1, 0x0EB1), (0x0EB4, 0x0EBC), (0x0EC8, 0x0ECD), (0x0F18, 0x0F19),
    (0x0F35, 0x0F35), (0x0F37, 0x0F37), (0x0F39, 0x0F39), (0x0F3E, 0x0F3F), (0x0F71, 0x0F84),
    (0x0F86, 0x0F87), (0x0F8D, 0x0F97), (0x0F99, 0x0FBC), (0x0FC6, 0x0FC6), (0x102B, 0x103E),
    (0x1056, 0x1059), (0x105E, 0x1060), (0x1062, 0x1064), (0x1067, 0x106D), (0x1071, 0x1074),
    (0x1082, 0x108D), (0x108F, 0x108F), (0x109A, 0x109D), (0x135D, 0x135F), (0x1712, 0x1715),
    (0x1732, 0x1734), (0x1752, 0x1753), (0x1772, 0x1773), (0x17B4, 0x17D3), (0x17DD, 0x17DD),
    (0x180B, 0x180D), (0x180F, 0x180F), (0x1885, 0x1886), (0x18A9, 0x18A9), (0x1920, 0x192B),
    (0x1930, 0x193B), (0x1A17, 0x1A1B), (0x1A55, 0x1A5E), (0x1A60, 0x1A7C), (0x1A7F, 0x1A7F),
    (0x1AB0, 0x1ACE), (0x1B00, 0x1B04), (0x1B34, 0x1B44), (0x1B6B, 0x1B73), (0x1B80, 0x1B82),
    (0x1BA1, 0x1BAD), (0x1BE6, 0x1BF3), (0x1C24, 0x1C37), (0x1CD0, 0x1CD2), (0x1CD4, 0x1CE8),
    (0x1CED, 0x1CED), (0x1CF4, 0x1CF4), (0x1CF7, 0x1CF9), (0x1DC0, 0x1DFF), (0x20D0, 0x20F0),
    (0x2CEF, 0x2CF1), (0x2D7F, 0x2D7F), (0x2DE0, 0x2DFF), (0x302A, 0x302F), (0xA66F, 0xA672),
    (0xA674, 0xA67D), (0xA69E, 0xA69F), (0xA6F0, 0xA6F1), (0xA802, 0xA802), (0xA806, 0xA806),
    (0xA80B, 0xA80B), (0xA823, 0xA827), (0xA82C, 0xA82C), (0xA880, 0xA881), (0xA8B4, 0xA8C5),
    (0xA8E0, 0xA8F1), (0xA8FF, 0xA8FF), (0xA926, 0xA92D), (0xA947, 0xA953), (0xA980, 0xA983),
    (0xA9B3, 0xA9C0), (0xA9E5, 0xA9E5), (0xAA29, 0xAA36), (0xAA43, 0xAA43), (0xAA4C, 0xAA4D),
    (0xAA7B, 0xAA7D), (0xAAB0, 0xAAB0), (0xAAB2, 0xAAB4), (0xAAB7, 0xAAB8), (0xAABE, 0xAABF),
    (0xAAC1, 0xAAC1), (0xAAEB, 0xAAEF), (0xAAF5, 0xAAF6), (0xABE3, 0xABEA), (0xABEC, 0xABED),
    (0xFB1E, 0xFB1E), (0xFE00, 0xFE0F), (0xFE20, 0xFE2F), (0x101FD, 0x101FD), (0x102E0, 0x102E0),
    (0x10376, 0x1037A), (0x10A01, 0x10A03), (0x10A05, 0x10A06), (0x10A0C, 0x10A0F),
    (0x10A38, 0x10A3A), (0x10A3F, 0x10A3F), (0x10AE5, 0x10AE6), (0x10D24, 0x10D27),
    (0x10EAB, 0x10EAC), (0x10F46, 0x10F50), (0x10F82, 0x10F85), (0x11000, 0x11002),
    (0x11038, 0x11046), (0x11070, 0x11070), (0x11073, 0x11074), (0x1107F, 0x11082),
    (0x110B0, 0x110BA), (0x110C2, 0x110C2), (0x11100, 0x11102), (0x11127, 0x11134),
    (0x11145, 0x11146), (0x11173, 0x11173), (0x11180, 0x11182), (0x111B3, 0x111C0),
    (0x111C9, 0x111CC), (0x111CE, 0x111CF), (0x1122C, 0x11237), (0x1123E, 0x1123E),
    (0x112DF, 0x112EA), (0x11300, 0x11303), (0x1133B, 0x1133C), (0x1133E, 0x11344),
    (0x11347, 0x11348), (0x1134B, 0x1134D), (0x11357, 0x11357), (0x11362, 0x11363),
    (0x11366, 0x1136C), (0x11370, 0x11374), (0x11435, 0x11446), (0x1145E, 0x1145E),
    (0x114B0, 0x114C3), (0x115AF, 0x115B5), (0x115B8, 0x115C0), (0x115DC, 0x115DD),
    (0x11630, 0x11640), (0x116AB, 0x116B7), (0x1171D, 0x1172B), (0x1182C, 0x1183A),
    (0x11930, 0x11935), (0x11937, 0x11938), (0x1193B, 0x1193E), (0x11940, 0x11940),
    (0x11942, 0x11943), (0x119D1, 0x119D7), (0x119DA, 0x119E0), (0x119E4, 0x119E4),
    (0x11A01, 0x11A0A), (0x11A33, 0x11A39), (0x11A3B, 0x11A3E), (0x11A47, 0x11A47),
    (0x11A51, 0x11A5B), (0x11A8A, 0x11A99), (0x11C2F, 0x11C36), (0x11C38, 0x11C3F),
    (0x11C92, 0x11CA7), (0x11CA9, 0x11CB6), (0x11D31, 0x11D36), (0x11D3A, 0x11D3A),
    (0x11D3C, 0x11D3D), (0x11D3F, 0x11D45), (0x11D47, 0x11D47), (0x11D8A, 0x11D8E),
    (0x11D90, 0x11D91), (0x11D93, 0x11D97), (0x11EF3, 0x11EF6), (0x16AF0, 0x16AF4),
    (0x16B30, 0x16B36), (0x16F4F, 0x16F4F), (0x16F51, 0x16F87), (0x16F8F, 0x16F92),
    (0x16FE4, 0x16FE4), (0x16FF0, 0x16FF1), (0x1BC9D, 0x1BC9E), (0x1CF00, 0x1CF2D),
    (0x1CF30, 0x1CF46), (0x1D165, 0x1D169), (0x1D16D, 0x1D172), (0x1D17B, 0x1D182),
    (0x1D185, 0x1D18B), (0x1D1AA, 0x1D1AD), (0x1D242, 0x1D244), (0x1DA00, 0x1DA36),
    (0x1DA3B, 0x1DA6C), (0x1DA75, 0x1DA75), (0x1DA84, 0x1DA84), (0x1DA9B, 0x1DA9F),
    (0x1DAA1, 0x1DAAF), (0x1E000, 0x1E006), (0x1E008, 0x1E018), (0x1E01B, 0x1E021),
    (0x1E023, 0x1E024), (0x1E026, 0x1E02A), (0x1E130, 0x1E136), (0x1E2AE, 0x1E2AE),
    (0x1E2EC, 0x1E2EF), (0x1E8D0, 0x1E8D6), (0x1E944, 0x1E94A), (0xE0100, 0xE01EF),
)


def _char_class(ranges: tuple[tuple[int, int], ...]) -> str:
    return "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges)


_CJK = _char_class(_CJK_RANGES)
_WORD = f"[^\\W_{_CJK}]"  # letters and digits (\w minus "_") outside the CJK blocks
# Every mark lies at or above U+0300. The lookahead turns the common characters
# away before the engine compares them with each astral range of the table.
_MARK = f"(?![\\x00-\\u02ff])[{_char_class(_MARK_RANGES)}]"
# A token is one CJK character, or a maximal run of word characters and marks.
# (W+|M+)+ rather than (W|M)+ lets the engine take a run of W in one step.
_TOKEN = re.compile(f"[{_CJK}]|(?:{_WORD}+|{_MARK}+)+")
# ASCII text has no CJK character and no mark, so there a token is a run of
# letters and digits, which this simpler pattern finds about twice as fast.
_ASCII_TOKEN = re.compile("[0-9A-Za-z]+")


def tokenize(text: str) -> TokenStream:
    """Split text into casefolded tokens with byte offsets.

    Splits on whitespace, punctuation and symbol characters. Characters from
    unsegmented East Asian scripts become single-character tokens, so the
    tokenizer needs no language-specific resources. Raises
    UnicodeEncodeError on text that has no UTF-8 encoding (a lone surrogate).
    """
    if text.isascii():
        # One byte per character: character offsets are byte offsets.
        return [Token(m[0].casefold(), m.start(), m.end()) for m in _ASCII_TOKEN.finditer(text)]
    # Byte offset of every character: the positions of the UTF-8 bytes that
    # start a character (any byte but a 10xxxxxx continuation byte).
    data = text.encode("utf-8")
    at = np.flatnonzero((np.frombuffer(data, dtype=np.uint8) & 0xC0) != 0x80).tolist()
    at.append(len(data))
    return [Token(m[0].casefold(), at[m.start()], at[m.end()]) for m in _TOKEN.finditer(text)]


def words(text: str) -> tuple[str, ...]:
    """The token texts of `tokenize(text)`, without offsets.

    Raises UnicodeEncodeError on text that has no UTF-8 encoding, as
    `tokenize` does.
    """
    if text.isascii():
        return tuple(_ASCII_TOKEN.findall(text.casefold()))
    text.encode("utf-8")  # a lone surrogate raises here
    # Casefolding maps every character to characters of its own class (a CJK
    # character to one CJK character), so folding the whole text first leaves
    # the tokens as they were. tests/test_text_vsm.py checks this on every
    # code point.
    return tuple(_TOKEN.findall(text.casefold()))


def term_freq(terms: Iterable[str]) -> TermVector:
    """Term-frequency vector of an iterable of token strings.

    The weights are the counts as ints. Between two count vectors, every
    product and sum `cosine` forms is an integer far below 2**53, so it is
    exact, and the cosine is the same, bit for bit, as over float counts.
    """
    return TermVector(Counter(terms))


def top_terms(vector: TermVector, n: int) -> TermVector:
    """Restriction of a term vector to its n heaviest terms.

    Ties are broken lexicographically so the result does not depend on
    tokenization order.
    """
    if len(vector) <= n:
        return vector
    ranked = sorted(vector.items(), key=lambda kv: (-kv[1], kv[0]))
    return TermVector(ranked[:n])


def context_window(tokens: TokenStream, anchor_offset: int, window: int) -> list[Token]:
    """Tokens within window//2 positions on each side of a byte offset.

    The token containing (or starting at) the offset counts toward the right
    side, so a window covering the whole stream reproduces it exactly.
    """
    half = window // 2
    split = bisect_right(tokens, anchor_offset, key=attrgetter("end"))
    left = tokens[max(0, split - half):split]
    right = tokens[split:split + half]
    return left + right


def cosine(a: TermVector, b: TermVector) -> float:
    """Cosine similarity of two term vectors; 0.0 when either is empty.

    The common terms are found by scanning the smaller vector, and the dot
    product is summed over them in sorted order, so the result is exactly
    symmetric in its arguments for any weights. The norms are the ones the
    vectors computed when they were made.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    common = sorted(filter(large.__contains__, small))
    if not common:
        return 0.0
    dot = sum(map(mul, map(a.__getitem__, common), map(b.__getitem__, common)))
    if dot == 0.0:
        return 0.0
    return min(1.0, dot / (a.norm * b.norm))
