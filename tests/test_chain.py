"""Exact chain inference against brute-force enumeration of every joint
assignment, on random components with boolean features set and NIL present."""

import random
import time

import numpy as np
import pytest
from conftest import (
    enumerate_tuples,
    oracle_argmax,
    oracle_features,
    oracle_log_z,
    random_boolean_kb,
    random_chain_doc,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlink.config import PipelineConfig
from entlink.features import FeatureExtractor, PmiTable, default_registry
from entlink.fixtures import doc_from_spans, toy_index
from entlink.maxent import Model, build_training_instances, cll_objective, decode, train
from entlink.segmenter import connected_components

K = 3
CONFIG = PipelineConfig(max_candidates=K)
REGISTRY = default_registry()
# Features whose values are whole numbers: with whole weights on these alone,
# every score is exact whatever the summation order, so exact ties abound.
INTEGRAL = [
    i for i, name in enumerate(REGISTRY.names)
    if name.endswith(("_freq_text", "_freq_ctx"))
    or name in ("exact_match_redirect", "match_all_title", "match_acronym", "nil_frequency",
                "categorical_relation_freq", "title_cooccurrence")
]


def make_weights(rng: random.Random, kind: str) -> np.ndarray:
    weights = np.zeros(len(REGISTRY))
    if kind == "normal":
        weights[:] = [rng.gauss(0.0, 2.0) for _ in weights]
    elif kind == "integral":
        weights[INTEGRAL] = [rng.randint(-2, 2) for _ in INTEGRAL]
    return weights


def oracle(index, doc):
    """(component, assignments, (n_assignments, F) features) of the doc's
    single component."""
    extractor = FeatureExtractor(index, PmiTable(), REGISTRY)
    (component,) = connected_components(doc, CONFIG.gap)
    assignments = enumerate_tuples(component, index, K)
    return component, assignments, oracle_features(extractor, component, assignments, extractor.document_view(doc))


def test_random_components_set_boolean_features():
    """The generator below reaches assignments whose ANDed booleans hold."""
    hits = 0
    for seed in range(30):
        rng = random.Random(seed)
        index = random_boolean_kb(rng)
        _, _, features = oracle(index, random_chain_doc(rng, "d", rng.randint(1, 3)))
        hits += bool(np.any(features[:, REGISTRY.boolean_indices]))
    assert hits >= 5


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_mentions=st.integers(1, 6),
    kind=st.sampled_from(["normal", "integral", "zero"]),
)
# Two candidates swapped between mentions: equal feature sums whose scores
# differ in the last bit, in decode's summation order or in the oracle's.
@example(seed=118, n_mentions=5, kind="normal")
@example(seed=597, n_mentions=3, kind="normal")
def test_decode_equals_oracle_argmax(seed, n_mentions, kind):
    rng = random.Random(seed)
    index = random_boolean_kb(rng)
    doc = random_chain_doc(rng, "d", n_mentions)
    weights = make_weights(rng, kind)
    model = Model(weights, REGISTRY, PmiTable(), CONFIG)
    _, assignments, features = oracle(index, doc)
    scores = [sum(float(w) * float(f) for w, f in zip(weights, row)) for row in features]
    predictions = decode(model, doc, index)
    assert tuple(p.entity_id for p in predictions) == oracle_argmax(assignments, scores)
    probability = float(np.exp(max(scores) - oracle_log_z(scores)))
    assert all(p.score == pytest.approx(probability, rel=1e-9) for p in predictions)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_mentions=st.integers(1, 6))
def test_log_z_objective_and_gradient_equal_oracle(seed, n_mentions):
    rng = random.Random(seed)
    index = random_boolean_kb(rng)
    doc = random_chain_doc(rng, "d", n_mentions, index=index, k=K)
    weights = make_weights(rng, "normal")
    sigma = 0.5
    extractor = FeatureExtractor(index, PmiTable(), REGISTRY)
    (inst,), _ = build_training_instances([doc], index, extractor, CONFIG)
    component, assignments, features = oracle(index, doc)
    gold = [tuple(c.entity_id for c in a) for a in assignments].index(tuple(m.gold for m in component.mentions))

    scores = features @ weights
    log_z = oracle_log_z(scores)
    probs = np.exp(scores - log_z)
    value = scores[gold] - log_z - sigma * float(weights @ weights)
    grad = features[gold] - probs @ features - 2 * sigma * weights

    got_log_z, _ = inst.states.log_z_and_expectation(weights)
    got_value, got_grad = cll_objective(weights, [inst], sigma)
    assert got_log_z == pytest.approx(log_z, rel=1e-9)
    assert got_value == pytest.approx(value, rel=1e-9)
    np.testing.assert_allclose(got_grad, grad, rtol=1e-9, atol=1e-9 * max(1.0, float(np.abs(grad).max())))


def test_thirty_adjacent_mentions_decode_and_train_fast():
    """3**30 joint assignments; the chain visits 30 x 3 states."""
    index = toy_index()
    golds = ["ROBERT_NARDELLI", "STEVE_NARDELLI", "NIL"]
    spans = [(f"m{i}", "Nardelli", golds[i % 3]) for i in range(30)]
    doc = doc_from_spans("nardelli", " ".join(["Nardelli"] * 30), spans)
    (component,) = connected_components(doc, CONFIG.gap)
    assert [len(index.fast_search(m.surface, K)) for m in component.mentions] == [3] * 30

    started = time.perf_counter()
    result = train([doc], index, CONFIG)
    train_s = time.perf_counter() - started
    started = time.perf_counter()
    predictions = decode(result.model, doc, index)
    decode_s = time.perf_counter() - started
    assert [p.mention_id for p in predictions] == [m.id for m in doc.mentions]
    assert train_s < 1.0 and decode_s < 1.0, (train_s, decode_s)
