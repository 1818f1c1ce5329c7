"""Tokenization and sparse term vectors for the text-similarity features.

Everything here is a pure function over immutable inputs, so unrestricted
parallel use is safe. Term weights are raw term frequencies; no corpus-level
statistics are involved, which keeps training and decoding deterministic.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from typing import Iterable, NamedTuple

# Sparse term -> weight map. Zero-weight entries are never stored.
TermVector = dict[str, float]


class Token(NamedTuple):
    text: str   # casefolded surface
    start: int  # byte offset into the UTF-8 encoding of the source
    end: int


TokenStream = list[Token]

# Blocks tokenized one character at a time (no whitespace segmentation).
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


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def _is_word_char(ch: str) -> bool:
    # Letters, digits and combining marks form tokens; everything else splits.
    return unicodedata.category(ch)[0] in ("L", "N", "M")


def tokenize(text: str) -> TokenStream:
    """Split text into casefolded tokens with byte offsets.

    Splits on whitespace, punctuation and symbol characters. Characters from
    unsegmented East Asian scripts become single-character tokens, so the
    tokenizer needs no language-specific resources.
    """
    tokens: list[Token] = []
    buf: list[str] = []
    buf_start = 0
    pos = 0
    for ch in text:
        width = len(ch.encode("utf-8"))
        if _is_cjk(ch):
            if buf:
                tokens.append(Token("".join(buf).casefold(), buf_start, pos))
                buf = []
            tokens.append(Token(ch.casefold(), pos, pos + width))
        elif _is_word_char(ch):
            if not buf:
                buf_start = pos
            buf.append(ch)
        elif buf:
            tokens.append(Token("".join(buf).casefold(), buf_start, pos))
            buf = []
        pos += width
    if buf:
        tokens.append(Token("".join(buf).casefold(), buf_start, pos))
    return tokens


def term_freq(terms: Iterable[str], stopwords: frozenset[str] | set[str] = frozenset()) -> TermVector:
    """Term-frequency vector of an iterable of token strings."""
    counts = Counter(t for t in terms if t not in stopwords)
    return {term: float(n) for term, n in counts.items()}


def top_terms(vector: TermVector, n: int) -> TermVector:
    """Restriction of a term vector to its n heaviest terms.

    Ties are broken lexicographically so the result does not depend on
    tokenization order.
    """
    if len(vector) <= n:
        return vector
    ranked = sorted(vector.items(), key=lambda kv: (-kv[1], kv[0]))
    return dict(ranked[:n])


def context_window(tokens: TokenStream, anchor_offset: int, window: int) -> list[Token]:
    """Tokens within window//2 positions on each side of a byte offset.

    The token containing (or starting at) the offset counts toward the right
    side, so a window covering the whole stream reproduces it exactly.
    """
    half = window // 2
    split = 0
    while split < len(tokens) and tokens[split].end <= anchor_offset:
        split += 1
    left = tokens[max(0, split - half):split]
    right = tokens[split:split + half]
    return left + right


def cosine(a: TermVector, b: TermVector) -> float:
    """Cosine similarity of two sparse vectors; 0.0 when either is empty.

    The dot product is accumulated over sorted common terms so the result is
    exactly symmetric in its arguments.
    """
    if not a or not b:
        return 0.0
    common = sorted(a.keys() & b.keys())
    dot = sum(a[t] * b[t] for t in common)
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    return min(1.0, dot / (norm_a * norm_b))


def load_stopwords(path: str) -> frozenset[str]:
    """Read a one-token-per-line stop-word file; entries are casefolded."""
    words: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().casefold()
            if word:
                words.add(word)
    return frozenset(words)
