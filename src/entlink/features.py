"""Language-independent feature functions over joint candidate assignments.

Every feature measures overlap between document text and KB-entry text or
structure; none reads a word list or any other lexical resource, so a model
trained on one language links another unchanged. Only a document's own text
is tokenized with byte offsets, to find each mention's context window; it is
tokenized once (`MentionDocument.tokens`), for the features and the
components alike. Page text, names and mention surfaces are compared as
sequences of token words (`text_vsm.words`). Real-valued features are summed
over the mentions (or consecutive candidate pairs) of an assignment; boolean
features combine with AND. A component's features therefore form a linear
chain (`ComponentChain`): unary rows per mention, pair blocks per consecutive
pair of mentions, and one bitmask of true booleans per candidate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import BLACKLIST_THRESHOLD, PipelineConfig
from .kb_store import NIL, AnchorIndex, Candidate, normalize_name
from .segmenter import ConnectedComponent, Mention, MentionDocument
from .text_vsm import TermVector, context_window, cosine, term_freq, top_terms, words

COSINE_FEATURES = (
    "cos_text_text",   # page text vs mention text
    "cos_text_ctx",    # page text vs mention context
    "cos_ctx_text",    # page context vs mention text
    "cos_ctx_ctx",     # page context vs mention context
    "cos_top_text",    # page top terms vs mention text
    "cos_top_ctx",     # page top terms vs mention context
)

LINK_RELATIONS = ("category", "inlink", "outlink", "redirect")

FREQUENCY_FEATURES = tuple(
    f"{relation}_freq_{side}" for relation in LINK_RELATIONS for side in ("text", "ctx")
)

TITLE_FEATURES = (
    "exact_match_redirect",  # surface is a redirect of the candidate
    "match_all_title",       # surface equals the candidate title
    "match_acronym",         # all-caps surface matches name initials
    "link_prior",
    "nil_frequency",
)

PAIR_FEATURES = (
    "outlink_overlap",
    "inlink_overlap",
    "category_pmi",
    "categorical_relation_freq",
    "title_cooccurrence",
)

# AND-aggregated across the mentions of an assignment; everything else sums.
BOOLEAN_FEATURES = frozenset({"exact_match_redirect", "match_all_title", "match_acronym"})


class FeatureRegistry:
    """Stable ordered feature-name list shared by training and decoding."""

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        # The columns of the unary features (summed over mentions), the pair
        # features (summed over consecutive mentions) and the booleans (ANDed).
        group = np.array([2 if name in BOOLEAN_FEATURES else 1 if name in PAIR_FEATURES else 0 for name in names])
        self.unary_indices, self.pair_indices, self.boolean_indices = (np.flatnonzero(group == g) for g in range(3))
        # row m: the boolean features of an assignment whose ANDed bitmask is m
        n_booleans = self.boolean_indices.size
        self.mask_matrix = (np.arange(1 << n_booleans)[:, None] >> np.arange(n_booleans)) & 1

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureRegistry) and self.names == other.names

    def index(self, name: str) -> int:
        return self._index[name]


def default_registry() -> FeatureRegistry:
    return FeatureRegistry(COSINE_FEATURES + FREQUENCY_FEATURES + TITLE_FEATURES + PAIR_FEATURES)


@dataclass
class PmiTable:
    """Pointwise mutual information over category pairs of consecutive gold
    entities, keyed by the category pair in sorted order."""

    pair_scores: dict[tuple[str, str], float] = field(default_factory=dict)

    def score(self, cat_a: str, cat_b: str) -> float:
        key = (cat_a, cat_b) if cat_a <= cat_b else (cat_b, cat_a)
        return self.pair_scores.get(key, 0.0)

    def to_payload(self) -> dict:
        return {"pairs": [[a, b, score] for (a, b), score in sorted(self.pair_scores.items())]}

    @staticmethod
    def from_payload(payload: dict) -> "PmiTable":
        return PmiTable({(a, b): float(s) for a, b, s in payload["pairs"]})


def train_pmi(
    gold_components: Iterable[Sequence[str]],
    index: AnchorIndex,
    blacklist_threshold: float = BLACKLIST_THRESHOLD,
) -> PmiTable:
    """Build the PMI table from gold entity-id sequences, one per component.

    For categories a, b the score is the number of consecutive gold pairs
    whose category sets contain a on one side and b on the other, divided by
    the product of the categories' occurrence counts over all gold entities.
    Categories attached to more than `blacklist_threshold` of the gold entity
    occurrences are removed before any counting.
    """
    sequences = [list(seq) for seq in gold_components]
    occurrences: list[frozenset[str]] = []
    for seq in sequences:
        for eid in seq:
            entry = index.entries.get(eid)
            if eid != NIL and entry is not None:
                occurrences.append(entry.categories)

    total = len(occurrences)
    raw_counts: Counter[str] = Counter()
    for cats in occurrences:
        raw_counts.update(cats)
    blacklist = frozenset(c for c, n in raw_counts.items() if n > blacklist_threshold * total)
    counts = {c: n for c, n in raw_counts.items() if c not in blacklist}

    def kept_categories(eid: str) -> frozenset[str]:
        entry = index.entries.get(eid)
        if eid == NIL or entry is None:
            return frozenset()
        return entry.categories - blacklist

    numerators: Counter[tuple[str, str]] = Counter()
    for seq in sequences:
        for left, right in zip(seq, seq[1:]):
            cats_left = kept_categories(left)
            cats_right = kept_categories(right)
            for a in cats_left:
                for b in cats_right:
                    key = (a, b) if a <= b else (b, a)
                    numerators[key] += 1

    pair_scores = {}
    for (a, b), numer in numerators.items():
        denom = counts.get(a, 0) * counts.get(b, 0)
        if denom > 0:
            pair_scores[(a, b)] = numer / denom
    return PmiTable(pair_scores)


def jaccard(a: Iterable, b: Iterable) -> float:
    sa, sb = set(a), set(b)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def contiguous_matches(needle: tuple[str, ...], haystack: tuple[str, ...]) -> Iterator[int]:
    """Start positions of `needle` as a contiguous subsequence of `haystack`."""
    n = len(needle)
    if n == 0 or n > len(haystack):
        return iter(())
    head = needle[0]  # compared first: cheaper than a slice at every position
    return (i for i in range(len(haystack) - n + 1) if haystack[i] == head and haystack[i:i + n] == needle)


def count_contiguous(needle: tuple[str, ...], haystack: tuple[str, ...]) -> int:
    """Occurrences of `needle` as a contiguous subsequence of `haystack`."""
    return sum(1 for _ in contiguous_matches(needle, haystack))


def _acronym(tokens: Sequence[str]) -> str | None:
    if len(tokens) < 2:
        return None
    return "".join(t[0] for t in tokens if t)


class _EntityData:
    """Per-entity derived data shared across feature computations."""

    __slots__ = ("words", "text_vec", "top_vec", "ctx_vecs", "norm_title", "norm_redirects", "relation_names")

    def __init__(self, extractor: "FeatureExtractor", eid: str):
        index = extractor.index
        entries = index.entries
        entry = entries[eid]
        name_words = extractor._name_words
        # Page tokens repeat within and across pages (a CJK page has one per
        # character), so the words hold the table's one object per token.
        seq = words(entry.text)
        self.words = tuple(map(extractor._page_tokens.setdefault, seq, seq))
        self.text_vec = term_freq(self.words)
        self.top_vec = top_terms(self.text_vec, extractor.top_n)
        # page context vectors, keyed by the normalized surface they centre on
        self.ctx_vecs: dict[str, TermVector] = {}
        self.norm_title = normalize_name(entry.title)
        self.norm_redirects = frozenset(normalize_name(r) for r in entry.redirects)
        categories = [name_words(c) for c in entry.categories]
        redirects = [name_words(r) for r in entry.redirects]
        inlinks = [name_words(entries[e].title) for e in index.inlinks.get(eid, ())]
        outlinks = [name_words(entries[e].title) for e in index.outlink_counts.get(eid, ())]
        # (text column, context column, words) of every name that has words,
        # relation by relation. The names only feed integer sums, so their
        # order is free.
        self.relation_names = tuple(
            (text_col, ctx_col, seq)
            for (text_col, ctx_col), seqs in zip(extractor._freq_columns, (categories, inlinks, outlinks, redirects))
            for seq in seqs
            if seq
        )


class MentionTerms(NamedTuple):
    """Tokens of a mention's surface and of its context window, with their
    term-frequency vectors, and the normalized surface."""

    text_seq: tuple[str, ...]
    ctx_seq: tuple[str, ...]
    text_vec: TermVector
    ctx_vec: TermVector
    surface_key: str


class DocumentView:
    """Per-mention terms of one document, computed once from its tokens."""

    def __init__(self, extractor: "FeatureExtractor", doc: MentionDocument):
        self.doc = doc
        self._extractor = extractor
        self._mentions: dict[str, MentionTerms] = {}

    def mention(self, mention: Mention) -> MentionTerms:
        terms = self._mentions.get(mention.id)
        if terms is None:
            text_seq = words(mention.surface)
            ctx_tokens = context_window(self.doc.tokens, mention.start, self._extractor.window)
            ctx_seq = tuple(t.text for t in ctx_tokens)
            terms = MentionTerms(
                text_seq, ctx_seq, term_freq(text_seq), term_freq(ctx_seq), normalize_name(mention.surface)
            )
            self._mentions[mention.id] = terms
        return terms


class FeatureExtractor:
    """Computes feature vectors for candidate assignments against one index.

    Its feature functions return registry-wide vectors. It caches what it
    derives from each candidate entity (page words, page vectors and their
    norms, page context windows, the words of its relation names), the words
    of each KB title, category and redirect it reads (acronyms and the
    category-title relation are computed from these where they are read),
    and each candidate pair's pair features. Its pages share one token
    table, which holds each distinct token once (a CJK page is one token
    per character) and goes with the extractor. Every cache, the
    name-words one and the token table included, is write-once per key with
    idempotent values (the table is filled by `setdefault`), so a built
    extractor may be shared by concurrent readers (`link --jobs`).
    """

    def __init__(
        self,
        index: AnchorIndex,
        pmi: PmiTable | None = None,
        registry: FeatureRegistry | None = None,
        *,
        window: int = PipelineConfig.context_window,
        top_n: int = PipelineConfig.top_n,
    ):
        self.index = index
        self.pmi = pmi if pmi is not None else PmiTable()
        self.registry = registry if registry is not None else default_registry()
        self.window = window
        self.top_n = top_n
        self._idx = {name: self.registry.index(name) for name in self.registry.names}
        # (text column, context column) of each relation, in LINK_RELATIONS order
        self._freq_columns = tuple(
            (self._idx[f"{relation}_freq_text"], self._idx[f"{relation}_freq_ctx"]) for relation in LINK_RELATIONS
        )
        self._pair_idx = {self.registry.names[i]: j for j, i in enumerate(self.registry.pair_indices)}
        self._entity_data: dict[str, _EntityData] = {}
        self._kb_name_words: dict[str, tuple[str, ...]] = {}
        self._page_tokens: dict[str, str] = {}  # each page token, the one object its pages hold
        self._pair_vectors: dict[tuple[str, str], np.ndarray] = {}

    def document_view(self, doc: MentionDocument) -> DocumentView:
        return DocumentView(self, doc)

    # -- entity-side caches ---------------------------------------------------

    def _name_words(self, name: str) -> tuple[str, ...]:
        """`words(name)` of a KB title, category or redirect, tokenized once
        per extractor."""
        seq = self._kb_name_words.get(name)
        if seq is None:
            seq = self._kb_name_words[name] = words(name)
        return seq

    def _page_context(self, data: _EntityData, terms: MentionTerms) -> TermVector:
        """Window around the first occurrence of the surface in the page text,
        falling back to the leading window of the page."""
        key = terms.surface_key
        vec = data.ctx_vecs.get(key)
        if vec is None:
            page = data.words
            first = next(contiguous_matches(terms.text_seq, page), None)
            if first is None:
                vec = term_freq(page[: self.window])
            else:
                half = self.window // 2
                vec = term_freq(page[max(0, first - half):first + half])
            data.ctx_vecs[key] = vec
        return vec

    def _data(self, eid: str) -> _EntityData:
        if eid not in self._entity_data:
            self._entity_data[eid] = _EntityData(self, eid)
        return self._entity_data[eid]

    # -- feature functions ------------------------------------------------------

    def mention_entity_features(
        self, mention: Mention, candidate: Candidate, view: DocumentView
    ) -> np.ndarray:
        """Partial feature vector for one mention/candidate pair.

        NIL candidates set only the NIL indicator; candidates without a KB
        entry keep every KB-derived feature at zero.
        """
        idx = self._idx
        vec = np.zeros(len(self.registry))
        eid = candidate.entity_id
        if eid == NIL:
            vec[idx["nil_frequency"]] = 1.0
        else:
            vec[idx["link_prior"]] = candidate.link_prior
        if eid in self.index.entries:  # never NIL: build_index rejects that id
            terms = view.mention(mention)
            data = self._data(eid)
            ctx_e = self._page_context(data, terms)
            vec[idx["cos_text_text"]] = cosine(data.text_vec, terms.text_vec)
            vec[idx["cos_text_ctx"]] = cosine(data.text_vec, terms.ctx_vec)
            vec[idx["cos_ctx_text"]] = cosine(ctx_e, terms.text_vec)
            vec[idx["cos_ctx_ctx"]] = cosine(ctx_e, terms.ctx_vec)
            vec[idx["cos_top_text"]] = cosine(data.top_vec, terms.text_vec)
            vec[idx["cos_top_ctx"]] = cosine(data.top_vec, terms.ctx_vec)

            # A name whose first word is not among a side's terms occurs
            # nowhere in that side. The counts are small integers, so the sums
            # are exact in any order.
            for text_col, ctx_col, name in data.relation_names:
                if name[0] in terms.text_vec:
                    vec[text_col] += count_contiguous(name, terms.text_seq)
                if name[0] in terms.ctx_vec:
                    vec[ctx_col] += count_contiguous(name, terms.ctx_seq)

            surface_key = terms.surface_key
            vec[idx["match_all_title"]] = 1.0 if surface_key == data.norm_title else 0.0
            vec[idx["exact_match_redirect"]] = 1.0 if surface_key in data.norm_redirects else 0.0
            entry = self.index.entries[eid]
            is_acronym = (
                mention.surface.isupper()
                and len(surface_key) >= 2
                and any(_acronym(self._name_words(name)) == surface_key for name in (entry.title, *entry.redirects))
            )
            vec[idx["match_acronym"]] = 1.0 if is_acronym else 0.0
        return vec

    def entity_entity_features(self, first: str, second: str) -> np.ndarray:
        """Partial feature vector for a consecutive candidate pair; zero outside the pair columns."""
        vec = np.zeros(len(self.registry))
        vec[self.registry.pair_indices] = self._pair_values(first, second)
        return vec

    def _pair_values(self, first: str, second: str) -> np.ndarray:
        """The pair features of a consecutive candidate pair, one per column
        of `registry.pair_indices`; cached and read-only."""
        key = (first, second)
        vec = self._pair_vectors.get(key)
        if vec is not None:
            return vec

        idx = self._pair_idx
        vec = np.zeros(len(idx))
        entries = self.index.entries
        if first in entries and second in entries:  # never NIL: build_index rejects that id
            out1 = self.index.outlink_counts.get(first, {})
            out2 = self.index.outlink_counts.get(second, {})
            vec[idx["outlink_overlap"]] = jaccard(out1, out2)
            vec[idx["inlink_overlap"]] = jaccard(self.index.inlinks.get(first, ()), self.index.inlinks.get(second, ()))

            cats1, cats2 = entries[first].categories, entries[second].categories
            vec[idx["category_pmi"]] = float(sum(self.pmi.score(a, b) for a in cats1 for b in cats2))

            # categories of either entity whose words match the other's title words
            name_words = self._name_words
            vec[idx["categorical_relation_freq"]] = float(sum(
                jaccard(name_words(category), name_words(entries[other].title)) >= 0.5
                for cats, other in ((cats1, second), (cats2, first))
                for category in cats
            ))

            vec[idx["title_cooccurrence"]] = float(out1.get(second, 0) + out2.get(first, 0))

        vec.flags.writeable = False
        self._pair_vectors[key] = vec
        return vec

    def component_chain(
        self,
        component: ConnectedComponent,
        lists: Sequence[Sequence[Candidate]],
        view: DocumentView,
    ) -> "ComponentChain":
        """Feature blocks of a component over the given per-mention
        candidate lists; they do not depend on the model weights."""
        mentions = component.mentions
        if len(lists) != len(mentions) or not all(lists):
            raise ValueError(
                f"need one non-empty candidate list per mention, got {len(lists)} "
                f"for {len(mentions)} mentions"
            )
        rows = np.stack([self.mention_entity_features(m, c, view) for m, lst in zip(mentions, lists) for c in lst])
        registry = self.registry
        bool_idx = registry.boolean_indices
        bits = (rows[:, bool_idx] != 0.0) @ (1 << np.arange(bool_idx.size))
        pairs = tuple(
            np.stack([np.stack([self._pair_values(a.entity_id, b.entity_id) for b in right]) for a in left])
            for left, right in zip(lists, lists[1:])
        )
        return ComponentChain(
            sizes=tuple(len(lst) for lst in lists),
            features=rows[:, registry.unary_indices],
            pairs=pairs,
            bits=bits.astype(np.intp),
            registry=registry,
        )


@dataclass(frozen=True, eq=False)
class ComponentChain:
    """The features of one component as a linear chain, each feature group
    held once, over only the registry columns it can fill.

    An assignment picks one candidate position per mention. Its aggregate
    feature vector sums its candidates' unary rows into the unary columns
    and the pair rows at its consecutive choices into the pair columns. Its
    boolean columns are the `mask_matrix` row at the AND of its candidates'
    `bits` (bit j set when the registry's j-th boolean feature holds), so
    each is 1.0 only when it holds at every mention.
    """

    sizes: tuple[int, ...]          # candidates per mention
    features: np.ndarray            # (sum(sizes), U) unary rows over registry.unary_indices
    pairs: tuple[np.ndarray, ...]   # (sizes[i], sizes[i + 1], P) over registry.pair_indices
    bits: np.ndarray                # (sum(sizes),) boolean bitmask per candidate
    registry: FeatureRegistry

    @property
    def offsets(self) -> np.ndarray:
        """Row of each mention's first candidate in `features` and `bits`."""
        return np.cumsum((0,) + self.sizes[:-1])

    def assignment_features(self, choice: Sequence[int]) -> np.ndarray:
        """Aggregate feature vector of one assignment (a position per mention)."""
        if len(choice) != len(self.sizes) or not all(0 <= c < k for c, k in zip(choice, self.sizes)):
            raise ValueError(f"assignment {tuple(choice)} does not fit candidate counts {self.sizes}")
        rows = self.offsets + np.asarray(choice)
        registry = self.registry
        out = np.zeros(len(registry))
        out[registry.unary_indices] = self.features[rows].sum(axis=0)
        steps = zip(self.pairs, choice, choice[1:])
        out[registry.pair_indices] = np.sum([block[a, b] for block, a, b in steps], axis=0)
        out[registry.boolean_indices] = registry.mask_matrix[np.bitwise_and.reduce(self.bits[rows])]
        return out
