"""Shared fixture generators and oracles for tests. The
brute-force oracles of the program live in `entlink.selfcheck` and are
re-exported here."""

import json
import random
import struct
import unicodedata
import zlib

import numpy as np

from entlink.config import PipelineConfig
from entlink.features import ComponentChain, PmiTable, default_registry
from entlink.fixtures import doc_from_spans
from entlink import kb_store
from entlink.kb_store import INDEX_FORMAT_VERSION, KbEntry, build_index
from entlink.maxent import Model, TrainingInstance
from entlink.segmenter import MentionDocument
from entlink.selfcheck import (  # noqa: F401  (re-exported to the tests)
    closure_oracle,
    enumerate_tuples,
    fd_gradient,
    index_body_oracle,
    index_oracle,
    oracle_argmax,
    oracle_cll,
    oracle_cosine,
    oracle_features,
    oracle_log_z,
    oracle_relation_frequencies,
    oracle_states,
    subword_oracle,
)
from entlink.text_vsm import _CJK_RANGES, Token

# -- damaged index files --------------------------------------------------------------


def _invert_a_late_byte(blob: bytes) -> bytes:
    """The blob with its byte three quarters in inverted: in a later block,
    when the body spans several."""
    at = len(blob) * 3 // 4
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


# Ways to damage an index blob, each of which its reader must reject.
DAMAGE = {
    "truncated": lambda blob: blob[: len(blob) * 2 // 3],
    "checksum-cut": lambda blob: blob[:-4],
    "flipped": _invert_a_late_byte,
    "appended": lambda blob: blob + b"\0",
}


# -- index bodies, well-formed and malformed ------------------------------------------


def canonical_lines(entries):
    """The column lines of the index body of the entries, at the current
    group size, without their newlines."""
    return [
        json.dumps(column, ensure_ascii=False, separators=(",", ":"))
        for column in index_body_oracle(entries, kb_store._GROUP_SIZE)
    ]


def index_blob(lines):
    """An index file whose body is the given lines, deflated in one serial
    `zlib.compress` pass."""
    body = "".join(line + "\n" for line in lines).encode("utf-8")
    return b"ELIX" + struct.pack("<I", INDEX_FORMAT_VERSION) + zlib.compress(body, 6)


def _replaced(lines, number, column):
    """The lines with line `number` (from 1) replaced by a JSON value, or by
    raw text if `column` is a str."""
    text = column if isinstance(column, str) else json.dumps(column)
    return lines[: number - 1] + [text] + lines[number:]


def _column(lines, number):
    return json.loads(lines[number - 1])


# Ways to break the body of a KB of at least three entries cut into groups of
# two: each edits the canonical lines, and the reader must reject the result
# naming the line given and saying what the message pattern matches.
MALFORMED_BODIES = {
    "truncated": (lambda ls: _replaced(ls, 2, ls[1][:-1]), 2, "invalid JSON"),
    "no-title": (lambda ls: _replaced(ls, 2, _column(ls, 2)[:1]), 2, "the title column has 1 values for 2 ids"),
    "title-number": (lambda ls: _replaced(ls, 2, [5] + _column(ls, 2)[1:]), 2, "'title' and 'text' must be strings"),
    "array": (lambda ls: _replaced(ls, 3, {"text": "x"}), 3, "the text column must be a JSON array, not dict"),
    "category-number": (lambda ls: _replaced(ls, 4, [[5]] + _column(ls, 4)[1:]), 4, "'categories' must be a list"),
    "odd-links": (lambda ls: _replaced(ls, 6, [links + ["X"] for links in _column(ls, 6)]), 6, "links must be pairs"),
    "empty-id": (lambda ls: _replaced(ls, 7, [""] + _column(ls, 7)[1:]), 7, "id must be a non-empty string"),
    "nil-id": (lambda ls: _replaced(ls, 7, ["NIL7"] + _column(ls, 7)[1:]), 7, "'NIL7' is reserved for NIL labels"),
    "duplicate-id": (lambda ls: _replaced(ls, 7, _column(ls, 1)[:1] + _column(ls, 7)[1:]), 7, "duplicate KB id"),
    "group-cut-short": (lambda ls: ls[:10], 10, "the body ends after 4 of a group's 6 lines"),
}


# -- per-character reference tokenizer ------------------------------------------------


# Membership in _CJK_RANGES as one set lookup: scanning the ten ranges for
# every character would more than double the time of the exhaustive tests in
# test_text_vsm.py.
_CJK_CODE_POINTS = frozenset(cp for lo, hi in _CJK_RANGES for cp in range(lo, hi + 1))


def _is_cjk(ch: str) -> bool:
    return ord(ch) in _CJK_CODE_POINTS


def _is_word_char(ch: str) -> bool:
    # Letters, digits and combining marks form tokens; everything else splits.
    return unicodedata.category(ch)[0] in ("L", "N", "M")


def oracle_tokenize(text: str) -> list[Token]:
    """The per-character loop that `text_vsm.tokenize` must reproduce exactly:
    a CJK character is a token; a run of letters, digits and marks is a token;
    anything else splits. Offsets are UTF-8 byte offsets."""
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


_VOCAB = [f"v{i}" for i in range(30)]
_CATEGORIES = [f"Cat {i}" for i in range(6)]


def random_linking_kb(rng: random.Random, n_entities: int = 6, n_surfaces: int = 3):
    """Small random KB where each surface has at most 4 KB candidates."""
    entity_ids = [f"E{i}" for i in range(n_entities)]
    entries = []
    for i, eid in enumerate(entity_ids):
        words = rng.choices(_VOCAB, k=rng.randint(5, 15))
        outlinks = []
        for target in rng.sample(entity_ids, k=rng.randint(0, min(3, n_entities))):
            if target != eid:
                outlinks.append((f"link to {target}", target))
        redirects = set()
        if rng.random() < 0.4:
            redirects.add(f"alias {eid}")
        entries.append(
            KbEntry(
                id=eid,
                title=f"Title {eid}",
                text=" ".join(words),
                categories=frozenset(rng.sample(_CATEGORIES, k=rng.randint(0, 2))),
                outlinks=tuple(outlinks),
                redirects=frozenset(redirects),
            )
        )
    hub_links = []
    for s in range(n_surfaces):
        referents = rng.sample(entity_ids, k=rng.randint(1, 4))
        for target in referents:
            hub_links.extend([(f"s{s}", target)] * rng.randint(1, 3))
    entries.append(
        KbEntry(id="HUB", title="Hub page", text="surface listing", outlinks=tuple(hub_links))
    )
    return build_index(entries)


def random_linking_doc(rng: random.Random, doc_id: str, n_surfaces: int = 3):
    """Document whose mentions sit close together (one connected component)."""
    n_mentions = rng.randint(1, 3)
    picked = [f"s{rng.randrange(n_surfaces)}" for _ in range(n_mentions)]
    words = []
    spans = []
    for i, surface in enumerate(picked):
        words.append(surface)
        spans.append((f"m{i}", surface, None))
        words.append(rng.choice(_VOCAB))
    text = " ".join(words)
    doc = doc_from_spans(doc_id, text, spans)
    return doc


def random_model(rng: random.Random, scale: float = 1.0) -> Model:
    registry = default_registry()
    weights = np.array([rng.uniform(-scale, scale) for _ in range(len(registry))])
    return Model(
        weights=weights,
        registry=registry,
        pmi=PmiTable(),
        config=PipelineConfig(max_candidates=5),
    )


# -- synthetic corpus ----------------------------------------------------------------


def synthetic_kb(n_entities: int = 10, words_per_entity: int = 10) -> list[KbEntry]:
    """Entities in ambiguous surface pairs with disjoint page vocabularies.

    Surface ``name<p>`` can refer to entities 2p and 2p+1; a hub page links
    the surface three times to the even entity and twice to the odd one, so
    the link prior alone favors the even member of every pair.
    """
    entries = []
    hub_links = []
    for i in range(n_entities):
        pair = i // 2
        surface = f"name{pair}"
        vocab = [f"w{i}x{j}" for j in range(words_per_entity)]
        text = f"{surface} stands for entity {i} . " + " ".join(vocab * 3)
        entries.append(
            KbEntry(
                id=f"E{i}",
                title=f"Name{pair} ({i})",
                text=text,
                categories=frozenset({f"Group {i % 3}"}),
                outlinks=(),
                redirects=frozenset({f"name{pair} number {i}"}),
            )
        )
        weight = 3 if i % 2 == 0 else 2
        hub_links.extend([(surface, f"E{i}")] * weight)
    entries.append(
        KbEntry(
            id="HUB",
            title="Disambiguation hub",
            text="This page lists surface forms and their referents .",
            categories=frozenset(),
            outlinks=tuple(hub_links),
            redirects=frozenset(),
        )
    )
    return entries


def synthetic_corpus(
    rng: random.Random,
    n_entities: int = 10,
    n_train: int = 50,
    n_test: int = 20,
    words_per_entity: int = 10,
    context_words: int = 8,
    nil_fraction: float = 0.1,
) -> tuple[list[KbEntry], list[MentionDocument], list[MentionDocument]]:
    """KB plus labeled train/test documents whose mention contexts share most
    of their vocabulary with the gold entity's page."""
    entries = synthetic_kb(n_entities, words_per_entity)

    def make_doc(doc_id: str, serial: int) -> MentionDocument:
        if rng.random() < nil_fraction:
            pair = rng.randrange(n_entities // 2)
            surface = f"name{pair}"
            words = [f"noise{serial}x{j}" for j in range(context_words)]
            gold = "NIL"
        else:
            entity = rng.randrange(n_entities)
            pair = entity // 2
            surface = f"name{pair}"
            vocab = [f"w{entity}x{j}" for j in range(words_per_entity)]
            words = rng.sample(vocab, context_words)
            gold = f"E{entity}"
        text = f"{surface} reported " + " ".join(words)
        return doc_from_spans(doc_id, text, [("m0", surface, gold)])

    train_docs = [make_doc(f"train-{i}", i) for i in range(n_train)]
    test_docs = [make_doc(f"test-{i}", n_train + i) for i in range(n_test)]
    return entries, train_docs, test_docs


# -- random components and chains ---------------------------------------------------

_NAMES = ["Alpha", "Beta Gamma", "Delta Echo", "Foxtrot"]
_SURFACES = _NAMES + ["BG", "DE", "Zulu"]  # acronyms; a surface outside the KB


def random_boolean_kb(rng: random.Random, n_entities: int = 6):
    """Small random KB whose titles and redirects often equal the document
    surfaces (or expand their acronyms), so the boolean features fire."""
    entity_ids = [f"E{i}" for i in range(n_entities)]
    entries = []
    for eid in entity_ids:
        title = rng.choice(_NAMES) if rng.random() < 0.6 else f"Title {eid}"
        words = rng.choices(_VOCAB + [w for name in _NAMES for w in name.split()], k=rng.randint(5, 15))
        outlinks = tuple((f"link {t}", t) for t in rng.sample(entity_ids, k=rng.randint(0, 2)) if t != eid)
        entries.append(
            KbEntry(
                id=eid,
                title=title,
                text=" ".join(words),
                categories=frozenset(rng.sample(_CATEGORIES, k=rng.randint(0, 2))),
                outlinks=outlinks,
                redirects=frozenset(rng.sample(_NAMES, k=rng.randint(0, 2))),
            )
        )
    hub_links = []
    for surface in _SURFACES[:-1]:
        for target in rng.sample(entity_ids, k=rng.randint(1, 3)):
            hub_links.extend([(surface, target)] * rng.randint(1, 3))
    entries.append(KbEntry(id="HUB", title="Hub page", text="surface listing", outlinks=tuple(hub_links)))
    return build_index(entries)


def random_chain_doc(rng: random.Random, doc_id: str, n_mentions: int, index=None, k: int = 3):
    """Document of `n_mentions` surfaces one word apart (one component).
    With an index, each mention's gold is a random one of its top-k
    candidates or NIL."""
    surfaces = [rng.choice(_SURFACES) for _ in range(n_mentions)]
    gold = [None] * n_mentions
    if index is not None:
        gold = [rng.choice(index.fast_search(s, k)).entity_id for s in surfaces]
    words = []
    for surface in surfaces:
        words += [surface, rng.choice(_VOCAB)]
    spans = [(f"m{i}", s, g) for i, (s, g) in enumerate(zip(surfaces, gold))]
    return doc_from_spans(doc_id, " ".join(words), spans)



def random_chain_instance(rng, n_features=10, max_mentions=4, max_candidates=4, n_booleans=3):
    """A training instance over a random chain: normal unary and pair
    features, random boolean bits (ANDed into the first `n_booleans`
    feature columns) and a random gold assignment."""
    sizes = tuple(int(rng.integers(1, max_candidates + 1)) for _ in range(rng.integers(1, max_mentions + 1)))
    features = rng.normal(size=(sum(sizes), n_features))
    features[:, :n_booleans] = 0.0
    masks = np.arange(1 << n_booleans)
    mask_features = np.zeros((masks.size, n_features))
    mask_features[:, :n_booleans] = (masks[:, None] >> np.arange(n_booleans)) & 1
    chain = ComponentChain(
        sizes=sizes,
        features=features,
        pairs=tuple(rng.normal(size=(a, b, n_features)) for a, b in zip(sizes, sizes[1:])),
        bits=rng.integers(0, 1 << n_booleans, size=sum(sizes)),
        mask_features=mask_features,
    )
    gold = [int(rng.integers(k)) for k in sizes]
    return TrainingInstance(chain, chain.assignment_features(gold))
