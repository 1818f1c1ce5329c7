"""Shared fixture generators and oracles for randomized tests."""

import itertools
import random

import numpy as np

from entlink.config import PipelineConfig
from entlink.features import ComponentChain, PmiTable, default_registry
from entlink.fixtures import doc_from_spans
from entlink.kb_store import KbEntry, build_index
from entlink.maxent import ChainStates, Model, TrainingInstance
from entlink.segmenter import candidate_lists
from entlink.selfcheck import closure_oracle  # noqa: F401  (re-exported to the tests)

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


# -- brute-force oracle for chain inference -------------------------------------------


def enumerate_tuples(component, index, k):
    """Every joint assignment (a tuple of Candidates) over the per-mention
    candidate lists, in lexicographic order of list positions."""
    return list(itertools.product(*candidate_lists(component, index, k)))


def oracle_features(extractor, component, assignments, view):
    """Aggregate feature vector of each joint assignment, from the public
    partial-feature functions alone: mention partials summed, boolean
    features ANDed (the minimum over mentions), consecutive-pair partials
    summed. Returns an (n_assignments, n_features) array."""
    mentions = component.mentions
    bool_idx = extractor.registry.boolean_indices
    unary, pair = {}, {}
    out = np.zeros((len(assignments), len(extractor.registry)))
    for row, assignment in zip(out, assignments):
        if len(assignment) != len(mentions):
            raise ValueError(f"assignment arity {len(assignment)} != component size {len(mentions)}")
        parts = []
        for m, c in zip(mentions, assignment):
            if (m.id, c) not in unary:
                unary[m.id, c] = extractor.mention_entity_features(m, c, view)
            parts.append(unary[m.id, c])
        for part in parts:
            row += part
        row[bool_idx] = np.min([p[bool_idx] for p in parts], axis=0)
        for left, right in zip(assignment, assignment[1:]):
            key = (left.entity_id, right.entity_id)
            if key not in pair:
                pair[key] = extractor.entity_entity_features(*key)
            row += pair[key]
    return out


def oracle_argmax(assignments, scores):
    """The best-scoring assignment; exact ties go to the smallest id sequence."""
    top = max(scores)
    return min(
        tuple(c.entity_id for c in a) for a, s in zip(assignments, scores) if s == top
    )


def oracle_log_z(scores):
    top = max(scores)
    return top + float(np.log(np.sum(np.exp(np.asarray(scores) - top))))


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
    return TrainingInstance(ChainStates(chain), chain.assignment_features(gold))
