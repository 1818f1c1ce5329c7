"""Language-independent feature functions over joint candidate assignments.

Every feature measures overlap between document text and KB-entry text or
structure; none consults a hard-coded word list (the optional stop-word set is
the only lexical resource). Real-valued features are summed over the mentions
(or consecutive candidate pairs) of an assignment; boolean features combine
with AND. A component's features therefore form a linear chain
(`ComponentChain`): unary rows per mention, pair blocks per consecutive pair
of mentions, and one bitmask of true booleans per candidate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .kb_store import NIL, AnchorIndex, Candidate, normalize_name
from .segmenter import ConnectedComponent, Mention, MentionDocument
from .text_vsm import TermVector, context_window, cosine, term_freq, tokenize, top_terms

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
        self.boolean_indices = np.array(
            [i for i, name in enumerate(names) if name in BOOLEAN_FEATURES], dtype=int
        )

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
    entities, with high-frequency categories blacklisted."""

    pair_scores: dict[tuple[str, str], float] = field(default_factory=dict)
    category_counts: dict[str, int] = field(default_factory=dict)
    blacklist: frozenset[str] = frozenset()

    def score(self, cat_a: str, cat_b: str) -> float:
        key = (cat_a, cat_b) if cat_a <= cat_b else (cat_b, cat_a)
        return self.pair_scores.get(key, 0.0)

    def to_payload(self) -> dict:
        return {
            "pairs": [[a, b, score] for (a, b), score in sorted(self.pair_scores.items())],
            "category_counts": dict(sorted(self.category_counts.items())),
            "blacklist": sorted(self.blacklist),
        }

    @staticmethod
    def from_payload(payload: dict) -> "PmiTable":
        return PmiTable(
            pair_scores={(a, b): float(s) for a, b, s in payload.get("pairs", [])},
            category_counts={c: int(n) for c, n in payload.get("category_counts", {}).items()},
            blacklist=frozenset(payload.get("blacklist", [])),
        )


def train_pmi(
    gold_components: Iterable[Sequence[str]],
    index: AnchorIndex,
    blacklist_threshold: float = 0.05,
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
    return PmiTable(pair_scores=pair_scores, category_counts=counts, blacklist=blacklist)


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

    __slots__ = (
        "tokens", "text_vec", "top_vec", "ctx_vecs",
        "norm_title", "norm_redirects", "acronyms", "title_tokens",
        "category_token_sets", "name_sequences",
    )

    def __init__(self, extractor: "FeatureExtractor", eid: str):
        index = extractor.index
        stop = extractor.stopwords
        entry = index.entries[eid]
        self.tokens = tokenize(entry.text)
        self.text_vec = term_freq((t.text for t in self.tokens), stop)
        self.top_vec = top_terms(self.text_vec, extractor.top_n)
        # page context vectors, keyed by the normalized surface they centre on
        self.ctx_vecs: dict[str, TermVector] = {}
        self.norm_title = normalize_name(entry.title)
        self.norm_redirects = frozenset(normalize_name(r) for r in entry.redirects)
        acronyms = set()
        for name in [entry.title, *entry.redirects]:
            initials = _acronym([t.text for t in tokenize(name)])
            if initials:
                acronyms.add(initials)
        self.acronyms = frozenset(acronyms)
        self.title_tokens = frozenset(t.text for t in tokenize(entry.title) if t.text not in stop)
        self.category_token_sets = {
            c: frozenset(t.text for t in tokenize(c) if t.text not in stop)
            for c in entry.categories
        }

        def sequences(names: Iterable[str]) -> tuple[tuple[str, ...], ...]:
            seqs = []
            for name in names:
                seq = tuple(t.text for t in tokenize(name) if t.text not in stop)
                if seq:
                    seqs.append(seq)
            return tuple(seqs)

        self.name_sequences = {
            "category": sequences(sorted(entry.categories)),
            "redirect": sequences(sorted(entry.redirects)),
            "inlink": sequences(sorted(index.titles(index.inlinks.get(eid, frozenset())))),
            "outlink": sequences(sorted(index.titles(index.outlink_counts.get(eid, {})))),
        }


class MentionTerms(NamedTuple):
    """Non-stopword tokens of a mention's surface and of its context window,
    with their term-frequency vectors."""

    text_seq: tuple[str, ...]
    ctx_seq: tuple[str, ...]
    text_vec: TermVector
    ctx_vec: TermVector


class DocumentView:
    """Tokenization and per-mention terms of one document, computed once."""

    def __init__(self, extractor: "FeatureExtractor", doc: MentionDocument):
        self.doc = doc
        self.tokens = tokenize(doc.text)
        self._extractor = extractor
        self._mentions: dict[str, MentionTerms] = {}
        self._partials: dict[tuple[str, str], np.ndarray] = {}

    def mention(self, mention: Mention) -> MentionTerms:
        terms = self._mentions.get(mention.id)
        if terms is None:
            stop = self._extractor.stopwords
            text_seq = tuple(t.text for t in tokenize(mention.surface) if t.text not in stop)
            ctx_tokens = context_window(self.tokens, mention.start, self._extractor.window)
            ctx_seq = tuple(t.text for t in ctx_tokens if t.text not in stop)
            terms = MentionTerms(text_seq, ctx_seq, term_freq(text_seq), term_freq(ctx_seq))
            self._mentions[mention.id] = terms
        return terms


class FeatureExtractor:
    """Computes feature vectors for candidate assignments against one index.

    All caches are write-once per key with idempotent values, so a built
    extractor may be shared by concurrent readers.
    """

    def __init__(
        self,
        index: AnchorIndex,
        pmi: PmiTable | None = None,
        registry: FeatureRegistry | None = None,
        *,
        stopwords: frozenset[str] | set[str] = frozenset(),
        window: int = 100,
        top_n: int = 200,
    ):
        self.index = index
        self.pmi = pmi if pmi is not None else PmiTable()
        self.registry = registry if registry is not None else default_registry()
        self.stopwords = frozenset(stopwords)
        self.window = window
        self.top_n = top_n
        self._idx = {name: self.registry.index(name) for name in self.registry.names}
        bool_idx = self.registry.boolean_indices
        masks = np.arange(1 << bool_idx.size)
        # row m: the boolean features of an assignment whose ANDed bitmask is m
        self._mask_features = np.zeros((masks.size, len(self.registry)))
        self._mask_features[:, bool_idx] = (masks[:, None] >> np.arange(bool_idx.size)) & 1
        self._entity_data: dict[str, _EntityData] = {}
        self._pair_vectors: dict[tuple[str, str], np.ndarray] = {}

    def document_view(self, doc: MentionDocument) -> DocumentView:
        return DocumentView(self, doc)

    # -- entity-side caches ---------------------------------------------------

    def _page_context(self, data: _EntityData, surface: str) -> TermVector:
        """Window around the first occurrence of the surface in the page text,
        falling back to the leading window of the page."""
        key = normalize_name(surface)
        vec = data.ctx_vecs.get(key)
        if vec is None:
            tokens = data.tokens
            needle = tuple(t.text for t in tokenize(surface))
            first = next(contiguous_matches(needle, tuple(t.text for t in tokens)), None)
            if first is None:
                window_tokens = tokens[: self.window]
            else:
                window_tokens = context_window(tokens, tokens[first].start, self.window)
            vec = term_freq((t.text for t in window_tokens), self.stopwords)
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
        return self._mention_entity(mention, candidate, view).copy()

    def _mention_entity(
        self, mention: Mention, candidate: Candidate, view: DocumentView
    ) -> np.ndarray:
        cache_key = (mention.id, candidate.entity_id)
        cached = view._partials.get(cache_key)
        if cached is not None:
            return cached

        idx = self._idx
        vec = np.zeros(len(self.registry))
        eid = candidate.entity_id
        if eid == NIL:
            vec[idx["nil_frequency"]] = 1.0
            view._partials[cache_key] = vec
            return vec

        vec[idx["link_prior"]] = candidate.link_prior
        if eid not in self.index.entries:
            view._partials[cache_key] = vec
            return vec

        terms = view.mention(mention)
        data = self._data(eid)
        ctx_e = self._page_context(data, mention.surface)
        vec[idx["cos_text_text"]] = cosine(data.text_vec, terms.text_vec)
        vec[idx["cos_text_ctx"]] = cosine(data.text_vec, terms.ctx_vec)
        vec[idx["cos_ctx_text"]] = cosine(ctx_e, terms.text_vec)
        vec[idx["cos_ctx_ctx"]] = cosine(ctx_e, terms.ctx_vec)
        vec[idx["cos_top_text"]] = cosine(data.top_vec, terms.text_vec)
        vec[idx["cos_top_ctx"]] = cosine(data.top_vec, terms.ctx_vec)

        sides = {"text": terms.text_seq, "ctx": terms.ctx_seq}
        for relation in LINK_RELATIONS:
            sequences = data.name_sequences[relation]
            for side, tokens in sides.items():
                total = sum(count_contiguous(seq, tokens) for seq in sequences)
                vec[idx[f"{relation}_freq_{side}"]] = float(total)

        surface_key = normalize_name(mention.surface)
        vec[idx["match_all_title"]] = 1.0 if surface_key == data.norm_title else 0.0
        vec[idx["exact_match_redirect"]] = 1.0 if surface_key in data.norm_redirects else 0.0
        is_acronym = (
            mention.surface.isupper()
            and len(surface_key) >= 2
            and surface_key in data.acronyms
        )
        vec[idx["match_acronym"]] = 1.0 if is_acronym else 0.0

        view._partials[cache_key] = vec
        return vec

    def entity_entity_features(self, first: str, second: str) -> np.ndarray:
        """Partial feature vector for a consecutive candidate pair."""
        return self._pair(first, second).copy()

    def _pair(self, first: str, second: str) -> np.ndarray:
        key = (first, second)
        cached = self._pair_vectors.get(key)
        if cached is not None:
            return cached

        idx = self._idx
        vec = np.zeros(len(self.registry))
        entries = self.index.entries
        if first == NIL or second == NIL or first not in entries or second not in entries:
            self._pair_vectors[key] = vec
            return vec

        out1 = self.index.outlink_counts.get(first, {})
        out2 = self.index.outlink_counts.get(second, {})
        vec[idx["outlink_overlap"]] = jaccard(out1, out2)
        vec[idx["inlink_overlap"]] = jaccard(
            self.index.inlinks.get(first, frozenset()),
            self.index.inlinks.get(second, frozenset()),
        )

        data1, data2 = self._data(first), self._data(second)
        cats1, cats2 = entries[first].categories, entries[second].categories
        vec[idx["category_pmi"]] = float(
            sum(self.pmi.score(a, b) for a in cats1 for b in cats2)
        )

        relations = 0
        for token_sets, title_tokens in (
            (data1.category_token_sets, data2.title_tokens),
            (data2.category_token_sets, data1.title_tokens),
        ):
            for cat_tokens in token_sets.values():
                if jaccard(cat_tokens, title_tokens) >= 0.5:
                    relations += 1
        vec[idx["categorical_relation_freq"]] = float(relations)

        vec[idx["title_cooccurrence"]] = float(out1.get(second, 0) + out2.get(first, 0))
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
        rows = np.stack(
            [self._mention_entity(m, c, view) for m, lst in zip(mentions, lists) for c in lst]
        )
        bool_idx = self.registry.boolean_indices
        bits = (rows[:, bool_idx] != 0.0) @ (1 << np.arange(bool_idx.size))
        rows[:, bool_idx] = 0.0
        pairs = tuple(
            np.stack([np.stack([self._pair(a.entity_id, b.entity_id) for b in right]) for a in left])
            for left, right in zip(lists, lists[1:])
        )
        return ComponentChain(
            sizes=tuple(len(lst) for lst in lists),
            features=rows,
            pairs=pairs,
            bits=bits.astype(np.intp),
            mask_features=self._mask_features,
        )


@dataclass(frozen=True, eq=False)
class ComponentChain:
    """The features of one component, laid out as a linear chain.

    An assignment picks one candidate position per mention. Its aggregate
    feature vector is the sum of its candidates' unary rows, of the pair rows
    at its consecutive choices, and of the `mask_features` row at the AND of
    its candidates' `bits` (bit j set when the j-th boolean feature of the
    registry holds). Unary rows carry zeros in the boolean columns, so each
    boolean feature is 1.0 only when it holds at every mention.
    """

    sizes: tuple[int, ...]          # candidates per mention
    features: np.ndarray            # (sum(sizes), F) unary rows, mention by mention
    pairs: tuple[np.ndarray, ...]   # (sizes[i], sizes[i + 1], F) per consecutive pair
    bits: np.ndarray                # (sum(sizes),) boolean bitmask per candidate
    mask_features: np.ndarray       # (2 ** n_booleans, F) features of each AND mask

    @property
    def offsets(self) -> np.ndarray:
        """Row of each mention's first candidate in `features` and `bits`."""
        return np.cumsum((0,) + self.sizes[:-1])

    def assignment_features(self, choice: Sequence[int]) -> np.ndarray:
        """Aggregate feature vector of one assignment (a position per mention)."""
        if len(choice) != len(self.sizes) or not all(0 <= c < k for c, k in zip(choice, self.sizes)):
            raise ValueError(f"assignment {tuple(choice)} does not fit candidate counts {self.sizes}")
        rows = self.offsets + np.asarray(choice)
        out = self.features[rows].sum(axis=0)
        for block, a, b in zip(self.pairs, choice, choice[1:]):
            out += block[a, b]
        return out + self.mask_features[np.bitwise_and.reduce(self.bits[rows])]
