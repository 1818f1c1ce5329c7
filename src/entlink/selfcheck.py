"""Built-in invariant checks over bundled fixtures, exposed as a CLI command.

Each check recomputes its expected answer with an independent method (hand
values, finite differences, brute-force closure) rather than trusting the
code path it exercises.
"""

from __future__ import annotations

import random

import numpy as np

from . import fixtures
from .config import PipelineConfig
from .features import FeatureExtractor, default_registry, train_pmi
from .kb_store import build_index
from .maxent import Model, build_training_instances, cll_objective, decode, softmax
from .segmenter import candidate_lists, connected_components
from .text_vsm import cosine, tokenize


def _check_cosine() -> None:
    v = {"x": 2.0, "y": 1.0}
    assert abs(cosine(v, v) - 1.0) < 1e-12
    assert cosine({"x": 1.0}, {"y": 1.0}) == 0.0
    expected = 1.0 / 2.0 ** 0.5  # hand-computed dot/norms
    assert abs(cosine({"x": 1.0, "y": 1.0}, {"x": 1.0}) - expected) < 1e-12


def _check_softmax(seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(20):
        scores = rng.normal(scale=50.0, size=rng.integers(1, 20))
        probs = softmax(scores)
        assert abs(float(probs.sum()) - 1.0) <= 1e-9
        assert np.all(probs >= 0.0)


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


def _check_gradient(seed: int) -> None:
    index = fixtures.toy_index()
    extractor = FeatureExtractor(index)
    instances, _ = build_training_instances(_fixture_documents(), index, extractor, PipelineConfig())
    d = len(extractor.registry)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        w = rng.normal(size=d)
        _, grad = cll_objective(w, instances, 0.5)
        h = 1e-5
        for j in range(d):
            step = np.zeros(d)
            step[j] = h
            up, _ = cll_objective(w + step, instances, 0.5)
            down, _ = cll_objective(w - step, instances, 0.5)
            fd = (up - down) / (2 * h)
            rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-8)
            assert rel < 1e-5, f"gradient mismatch at {j}: {grad[j]} vs {fd}"


def _check_decode_brute_force(seed: int) -> None:
    """Decode against scoring every joint assignment of each component."""
    index = fixtures.toy_index()
    extractor = FeatureExtractor(index)
    registry = extractor.registry
    rng = np.random.default_rng(seed)
    config = PipelineConfig()
    for scale in (0.0, 1.0, 3.0):
        weights = rng.normal(scale=scale, size=len(registry)) if scale else np.zeros(len(registry))
        model = Model(weights, 0.5, registry, extractor.pmi, config)
        for doc in _fixture_documents():
            got = {p.mention_id: (p.entity_id, p.score) for p in decode(model, doc, index, extractor=extractor)}
            view = extractor.document_view(doc)
            for comp in connected_components(doc, config.gap):
                lists = candidate_lists(comp, index, config.max_candidates)
                chain = extractor.component_chain(comp, lists, view)
                scored = sorted(
                    (-float(chain.assignment_features(choice) @ weights),
                     tuple(lst[c].entity_id for lst, c in zip(lists, choice)))
                    for choice in np.ndindex(*chain.sizes)
                )
                scores = -np.array([s for s, _ in scored])
                best, best_ids = scores[0], scored[0][1]
                ids = tuple(got[m.id][0] for m in comp.mentions)
                mine = scores[[i for _, i in scored].index(ids)]
                # an exact tie must go to the smallest ids; a near tie (equal
                # up to summation order) may go either way
                near_tie = mine != best and best - mine <= 1e-9 * max(1.0, abs(best))
                assert ids == best_ids or near_tie, f"{comp.id}: decode chose {ids}, brute force {best_ids}"
                prob = float(softmax(scores)[0])
                assert all(abs(got[m.id][1] - prob) <= 1e-9 for m in comp.mentions), (
                    f"{comp.id}: score {got[comp.mentions[0].id][1]} != joint probability {prob}"
                )


def _check_components(seed: int) -> None:
    rng = random.Random(seed)
    for i in range(10):
        doc = fixtures.random_mention_document(rng, f"rand-{i}", max_mentions=20)
        got = [
            frozenset(m.id for m in comp.mentions)
            for comp in connected_components(doc, gap=4)
        ]
        # brute-force oracle: pairwise distances, then repeated-pass closure
        tokens = tokenize(doc.text)
        mentions = doc.mentions
        n = len(mentions)
        linked = [[False] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                lo, hi = (a, b) if mentions[a].start <= mentions[b].start else (b, a)
                between = sum(
                    1
                    for t in tokens
                    if t.start >= mentions[lo].end and t.end <= mentions[hi].start
                )
                linked[a][b] = between <= 4
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
        expected = {frozenset(mentions[b].id for b in range(n) if linked[a][b]) for a in range(n)}
        assert set(got) == expected, f"component mismatch on doc rand-{i}"


def _check_index_determinism(seed: int) -> None:
    rng = random.Random(seed)
    entries = fixtures.toy_kb_entries()
    shuffled = list(entries)
    rng.shuffle(shuffled)
    blob_a = build_index(entries).to_bytes()
    blob_b = build_index(shuffled).to_bytes()
    assert blob_a == blob_b, "serialized index depends on record order"
    index = build_index(entries)
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
    model = Model(weights=weights, sigma=0.5, registry=registry, pmi=pmi, config=config)
    doc = fixtures.home_depot_document()
    predictions = decode(model, doc, index)
    labels = [p.entity_id for p in predictions]
    assert labels == ["HOME_DEPOT", "ROBERT_NARDELLI"], f"unexpected labels {labels}"


def run_selfcheck(seed: int = 0) -> int:
    """Run all checks; print one line per check; return the failure count."""
    checks = [
        ("cosine", _check_cosine),
        ("softmax-normalization", lambda: _check_softmax(seed)),
        ("gradient-finite-difference", lambda: _check_gradient(seed)),
        ("decode-vs-brute-force", lambda: _check_decode_brute_force(seed)),
        ("connected-components-oracle", lambda: _check_components(seed)),
        ("index-determinism", lambda: _check_index_determinism(seed)),
        ("end-to-end-toy-decode", _check_end_to_end),
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
