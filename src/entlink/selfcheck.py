"""Built-in invariant checks over bundled fixtures, exposed as a CLI command.

Each check recomputes its expected answer with an independent method (hand
values, finite differences, brute-force closure) rather than trusting the
code path it exercises. The brute-force oracles (finite-difference gradient,
joint-assignment enumeration and scoring, chain states by prefix
enumeration, component closure, index derivation, sub-word retrieval,
cosine, relation frequencies) are public: the test suite imports these same
ones.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import zlib

import numpy as np

from . import fixtures, kb_store
from .config import TOL, PipelineConfig
from .features import LINK_RELATIONS, FeatureExtractor, count_contiguous, default_registry, train_pmi
from .kb_store import build_index, normalize_name
from .maxent import NEAR_TIE, Model, TrainingBatch, build_training_instances, cll_objective, decode, fit_weights
from .segmenter import connected_components
from .text_vsm import TermVector, context_window, cosine, tokenize, words


def _check_cosine() -> None:
    v = TermVector({"x": 2.0, "y": 1.0})
    assert abs(cosine(v, v) - 1.0) < 1e-12
    assert cosine(TermVector({"x": 1.0}), TermVector({"y": 1.0})) == 0.0
    expected = 1.0 / 2.0 ** 0.5  # hand-computed dot/norms
    assert abs(cosine(TermVector({"x": 1.0, "y": 1.0}), TermVector({"x": 1.0})) - expected) < 1e-12


# -- brute-force oracles, shared with the test suite ---------------------------------


def fd_gradient(weights: np.ndarray, batch, sigma: float, h: float = 1e-5) -> np.ndarray:
    """Gradient of `cll_objective` over a `TrainingBatch` by central finite differences."""
    grad = np.zeros_like(weights)
    for j in range(len(weights)):
        step = np.zeros_like(weights)
        step[j] = h
        up, _ = cll_objective(weights + step, batch, sigma)
        down, _ = cll_objective(weights - step, batch, sigma)
        grad[j] = (up - down) / (2 * h)
    return grad


def enumerate_tuples(component, index, k: int) -> list[tuple]:
    """Every joint assignment (a tuple of Candidates) over the per-mention
    candidate lists, in lexicographic order of list positions."""
    return list(itertools.product(*(index.fast_search(m.surface, k) for m in component.mentions)))


def oracle_features(extractor, component, assignments, view) -> np.ndarray:
    """Aggregate feature vector of each joint assignment, from the public
    partial-feature functions alone: mention partials summed, boolean
    features ANDed (the minimum over mentions), consecutive-pair partials
    summed. Returns an (n_assignments, n_features) array."""
    mentions = component.mentions
    bool_idx = extractor.registry.boolean_indices
    out = np.zeros((len(assignments), len(extractor.registry)))
    partials = {}  # (mention position, candidate id) -> partial vector

    def partial(i, candidate):
        key = (i, candidate.entity_id)
        if key not in partials:
            partials[key] = extractor.mention_entity_features(mentions[i], candidate, view)
        return partials[key]

    for row, assignment in zip(out, assignments):
        if len(assignment) != len(mentions):
            raise ValueError(f"assignment arity {len(assignment)} != component size {len(mentions)}")
        parts = [partial(i, c) for i, c in enumerate(assignment)]
        for part in parts:
            row += part
        row[bool_idx] = np.min([p[bool_idx] for p in parts], axis=0)
        for left, right in zip(assignment, assignment[1:]):
            row += extractor.entity_entity_features(left.entity_id, right.entity_id)
    return out


def oracle_states(chain) -> tuple[list[list[tuple]], list[list[tuple]]]:
    """The state space of one `ComponentChain`, by enumerating every prefix
    assignment. A prefix (a candidate position for each of mentions 0..i)
    reaches the state (its last position, the AND of its candidates' bits).
    Returns, per mention i, the distinct states of the prefixes that end
    there, sorted; and per step from mention i to i + 1, the distinct
    (state, extended state, row in the step's pair block) of every prefix
    and its one-longer extensions, sorted."""
    sizes, offsets = chain.sizes, chain.offsets
    layers, steps = [], []
    for i in range(len(sizes)):
        states, transitions = set(), set()
        for prefix in itertools.product(*map(range, sizes[:i + 1])):
            mask = int(np.bitwise_and.reduce(chain.bits[offsets[:i + 1] + prefix]))
            states.add((prefix[-1], mask))
            for nxt in range(sizes[i + 1] if i + 1 < len(sizes) else 0):
                after = (nxt, mask & int(chain.bits[offsets[i + 1] + nxt]))
                transitions.add(((prefix[-1], mask), after, prefix[-1] * sizes[i + 1] + nxt))
        layers.append(sorted(states))
        if i + 1 < len(sizes):
            steps.append(sorted(transitions))
    return layers, steps


def oracle_cosine(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine similarity computed afresh: both norms recomputed from the weights,
    the dot product summed over the sorted common terms; 0.0 when either
    vector is empty."""
    if not a or not b:
        return 0.0
    dot = sum(a[t] * b[t] for t in sorted(a.keys() & b.keys()))
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    return min(1.0, dot / (norm_a * norm_b))


def oracle_relation_frequencies(extractor, doc, mention, entity_id: str) -> dict[str, float]:
    """The `<relation>_freq_<side>` features of a mention and a KB entity, by
    brute force: for every one of the entity's categories, redirects, inlink
    titles and outlink titles, in sorted order, the occurrences of its words
    as a contiguous sequence in the mention's words (text) and in its context
    window's (ctx), summed per relation and side."""
    index = extractor.index
    entry = index.entries[entity_id]
    names = {
        "category": sorted(entry.categories),
        "inlink": sorted(index.entries[e].title for e in index.inlinks.get(entity_id, ())),
        "outlink": sorted(index.entries[e].title for e in index.outlink_counts.get(entity_id, ())),
        "redirect": sorted(entry.redirects),
    }
    sides = {
        "text": words(mention.surface),
        "ctx": tuple(t.text for t in context_window(doc.tokens, mention.start, extractor.window)),
    }
    return {
        f"{relation}_freq_{side}": float(sum(count_contiguous(words(name), seq) for name in names[relation]))
        for relation in LINK_RELATIONS
        for side, seq in sides.items()
    }


def oracle_argmax(assignments, scores) -> tuple[str, ...]:
    """The best-scoring assignment; ties, up to `NEAR_TIE` of the best, go to
    the smallest id sequence."""
    top = max(scores)
    floor = top - NEAR_TIE * max(1.0, abs(top))
    return min(
        tuple(c.entity_id for c in a) for a, s in zip(assignments, scores) if s >= floor
    )


def oracle_log_z(scores) -> float:
    top = max(scores)
    return top + float(np.log(np.sum(np.exp(np.asarray(scores) - top))))


def oracle_cll(components, weights: np.ndarray, sigma: float) -> tuple[float, np.ndarray]:
    """`cll_objective`'s value and gradient by brute force, one component
    at a time. Each component is a pair: the (n_assignments, F) features of
    every joint assignment (`oracle_features`) and the gold assignment's row
    in it."""
    value = -sigma * float(weights @ weights)
    grad = -2.0 * sigma * weights
    for features, gold in components:
        scores = features @ weights
        log_z = oracle_log_z(scores)
        value += float(scores[gold]) - log_z
        grad = grad + features[gold] - np.exp(scores - log_z) @ features
    return value, grad


def index_oracle(entries) -> dict:
    """Everything `build_index` derives from KB entries with unique ids, by
    brute force: the redirect map by the smallest (titles before redirects,
    id) claim on each name, then a flat list of (source id, normalized
    anchor, resolved-or-raw target, resolved?) links, scanned once per
    derived key. Returns the `AnchorIndex` field values by field name."""
    by_id = {e.id: e for e in entries}
    claims = [(0, e.id, normalize_name(e.title)) for e in entries]
    claims += [(1, e.id, normalize_name(alias)) for e in entries for alias in e.redirects]
    names = {key for _, _, key in claims if key}
    redirect_map = {key: min((rank, eid) for rank, eid, k in claims if k == key)[1] for key in names}
    links = []
    for e in entries:
        for anchor, target in e.outlinks:
            resolved = target if target in by_id else redirect_map.get(normalize_name(target))
            ok = resolved is not None
            links.append((e.id, normalize_name(anchor), resolved if ok else target, ok))
    postings = {}
    for akey in {a for _, a, _, _ in links if a}:
        targets = [t for _, a, t, _ in links if a == akey]
        postings[akey] = sorted(((t, targets.count(t)) for t in set(targets)), key=lambda tc: (-tc[1], tc[0]))
    resolved_links = [(src, t) for src, _, t, ok in links if ok]
    return {
        "postings": postings,
        "inlinks": {t: frozenset(src for src, u in resolved_links if u == t) for _, t in resolved_links},
        "outlink_counts": {
            eid: {t: resolved_links.count((eid, t)) for src, t in resolved_links if src == eid} for eid in by_id
        },
        "redirect_map": redirect_map,
        "dangling_links": sum(1 for *_, ok in links if not ok),
    }


def subword_oracle(postings: dict[str, list[tuple[str, int]]], key: str) -> list[tuple[str, int]]:
    """Sub-word postings of a normalized surface `key`, by brute force: every
    anchor but `key` whose token set is non-empty and a subset or superset of
    the key's non-empty one, its counts summed per entity, sorted by
    descending count, then id."""
    query = set(words(key))
    merged: dict[str, int] = {}
    for anchor, plist in postings.items():
        tokens = set(words(anchor))
        if query and tokens and anchor != key and (tokens <= query or tokens >= query):
            for eid, count in plist:
                merged[eid] = merged.get(eid, 0) + count
    return sorted(merged.items(), key=lambda ec: (-ec[1], ec[0]))


def index_body_oracle(entries, group_size: int) -> list[list]:
    """The column lines an index body holds for KB entries, each as its JSON
    value, made from the entries' KB records: sorted by id, then for each
    group of `group_size` the ids, titles, texts, categories, redirects and
    links flattened to [anchor, target, ...]."""
    records = sorted((e.to_record() for e in entries), key=lambda r: r["id"])
    columns = []
    for start in range(0, len(records), group_size):
        group = records[start:start + group_size]
        columns += [[r[name] for r in group] for name in ("id", "title", "text", "categories", "redirects")]
        columns.append([[v for link in r["links"] for v in (link["anchor"], link["target"])] for r in group])
    return columns


def _fixture_documents():
    """The toy documents plus one four-mention component with gold labels."""
    chain_doc = fixtures.doc_from_spans(
        "doc-chain",
        "Home Depot CEO Nardelli left Atlanta for Chrysler",
        [
            ("m1", "Home Depot", "HOME_DEPOT"),
            ("m2", "Nardelli", "ROBERT_NARDELLI"),
            ("m3", "Atlanta", "ATLANTA"),
            ("m4", "Chrysler", "CHRYSLER"),
        ],
    )
    return fixtures.toy_documents() + [chain_doc]


def _fixture_batch() -> TrainingBatch:
    """The training batch of the fixture documents over the toy index."""
    index = fixtures.toy_index()
    extractor = FeatureExtractor(index)
    chains, gold_positions, _ = build_training_instances(_fixture_documents(), index, extractor, PipelineConfig())
    return TrainingBatch(chains, gold_positions)


def _check_gradient(seed: int) -> None:
    batch = _fixture_batch()
    rng = np.random.default_rng(seed)
    for _ in range(3):
        w = rng.normal(size=len(default_registry()))
        _, grad = cll_objective(w, batch, 0.5)
        fd = fd_gradient(w, batch, 0.5)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        j = int(np.argmax(rel))
        assert rel[j] < 1e-5, f"gradient mismatch at {j}: {grad[j]} vs {fd[j]}"


def _check_fit_weights() -> None:
    """The fitted weights are a stationary point by finite differences, and
    the objective never fell on the way there."""
    batch = _fixture_batch()
    weights, trace, _ = fit_weights(batch, 0.5, len(default_registry()))
    fd = fd_gradient(weights, batch, 0.5)
    j = int(np.argmax(np.abs(fd)))
    assert abs(fd[j]) <= 2 * TOL, f"finite-difference gradient {fd[j]} at {j} after fitting"
    falls = [i for i, (a, b) in enumerate(zip(trace, trace[1:]), 1) if b < a]
    assert not falls, f"objective fell at iterate {falls[0]}"


def _check_decode_brute_force(seed: int) -> None:
    """Decode against scoring every joint assignment of each component."""
    index = fixtures.toy_index()
    extractor = FeatureExtractor(index)
    registry = extractor.registry
    rng = np.random.default_rng(seed)
    config = PipelineConfig()
    for scale in (0.0, 1.0, 3.0):
        weights = rng.normal(scale=scale, size=len(registry)) if scale else np.zeros(len(registry))
        model = Model(weights, registry, extractor.pmi, config)
        for doc in _fixture_documents():
            got = {p.mention_id: (p.entity_id, p.score) for p in decode(model, doc, index, extractor=extractor)}
            view = extractor.document_view(doc)
            for comp in connected_components(doc, config.gap):
                assignments = enumerate_tuples(comp, index, config.max_candidates)
                scores = oracle_features(extractor, comp, assignments, view) @ weights
                best, best_ids = float(scores.max()), oracle_argmax(assignments, scores)
                ids = tuple(got[m.id][0] for m in comp.mentions)
                assert ids == best_ids, f"{comp.id}: decode chose {ids}, brute force {best_ids}"
                prob = float(np.exp(best - oracle_log_z(scores)))
                assert all(abs(got[m.id][1] - prob) <= 1e-9 for m in comp.mentions), (
                    f"{comp.id}: score {got[comp.mentions[0].id][1]} != joint probability {prob}"
                )


def closure_oracle(doc, gap: int) -> set[frozenset[str]]:
    """Connected components as sets of mention ids, by brute force: O(n^2)
    pairwise token distances followed by repeated-pass transitive closure,
    independent of the one-pass sweep in `connected_components`."""
    tokens = tokenize(doc.text)
    mentions = doc.mentions
    n = len(mentions)
    linked = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lo, hi = (a, b) if mentions[a].start <= mentions[b].start else (b, a)
            between = sum(
                1 for t in tokens if t.start >= mentions[lo].end and t.end <= mentions[hi].start
            )
            linked[a][b] = between <= gap
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if linked[a][b]:
                    for c in range(n):
                        if linked[b][c] and not linked[a][c]:
                            linked[a][c] = True
                            changed = True
    return {frozenset(mentions[b].id for b in range(n) if linked[a][b]) for a in range(n)}


def _check_components(seed: int) -> None:
    rng = random.Random(seed)
    for i in range(100):
        doc = fixtures.random_mention_document(rng, f"rand-{i}", max_words=40, max_mentions=20)
        gap = rng.randint(0, 6)
        got = {frozenset(m.id for m in comp.mentions) for comp in connected_components(doc, gap)}
        assert got == closure_oracle(doc, gap), f"component mismatch on doc rand-{i}, gap {gap}"


def _check_index_determinism(seed: int) -> None:
    rng = random.Random(seed)
    entries = fixtures.toy_kb_entries()
    shuffled = list(entries)
    rng.shuffle(shuffled)
    blob_a = build_index(entries).to_bytes()
    blob_b = build_index(shuffled).to_bytes()
    assert blob_a == blob_b, "serialized index depends on record order"
    # zlib's one-shot inflater and the JSON parser, not the index reader,
    # read the body back.
    lines = zlib.decompress(blob_a[8:]).decode("utf-8").split("\n")
    assert lines.pop() == "", "the index body does not end with a newline"
    columns = [json.loads(line) for line in lines]
    assert columns == index_body_oracle(entries, kb_store._GROUP_SIZE), "index body is not the canonical groups"
    index = build_index(entries)
    for name, value in index_oracle(entries).items():
        assert getattr(index, name) == value, f"index {name} differs from the brute-force oracle"
    for anchor, plist in index.postings.items():
        total = sum(c for _, c in plist)
        priors = [c / total for _, c in plist]
        assert abs(sum(priors) - 1.0) <= 1e-9, f"priors for {anchor!r} do not normalize"


def _check_end_to_end() -> None:
    index = fixtures.toy_index()
    registry = default_registry()
    config = PipelineConfig()
    weights = np.zeros(len(registry))
    weights[registry.index("title_cooccurrence")] = 1.0
    weights[registry.index("link_prior")] = 0.1
    pmi = train_pmi([], index)
    model = Model(weights=weights, registry=registry, pmi=pmi, config=config)
    doc = fixtures.home_depot_document()
    predictions = decode(model, doc, index)
    labels = [p.entity_id for p in predictions]
    assert labels == ["HOME_DEPOT", "ROBERT_NARDELLI"], f"unexpected labels {labels}"


def run_selfcheck(seed: int = 0) -> int:
    """Run all checks; print one line per check; return the failure count."""
    checks = [
        ("cosine", _check_cosine),
        ("gradient-finite-difference", lambda: _check_gradient(seed)),
        ("decode-vs-brute-force", lambda: _check_decode_brute_force(seed)),
        ("connected-components-oracle", lambda: _check_components(seed)),
        ("index-determinism", lambda: _check_index_determinism(seed)),
        ("end-to-end-toy-decode", _check_end_to_end),
        ("fit-weights-stationary", _check_fit_weights),
    ]
    failures = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # report every failing check, not just the first
            failures += 1
            print(f"selfcheck {name}: FAILED ({exc})")
        else:
            print(f"selfcheck {name}: ok")
    return failures
