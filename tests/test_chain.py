"""Exact chain inference against brute-force enumeration of every joint
assignment, on random components with boolean features set and NIL present."""

import random
import time

import numpy as np
import pytest
from conftest import (
    SMALL_REGISTRY,
    enumerate_tuples,
    oracle_argmax,
    oracle_cll,
    oracle_features,
    oracle_log_z,
    oracle_states,
    random_boolean_kb,
    random_chain_doc,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlink.config import PipelineConfig
from entlink.features import ComponentChain, FeatureExtractor, PmiTable, default_registry
from entlink.fixtures import doc_from_spans, toy_index
from entlink.maxent import ChainBatch, Model, TrainingBatch, build_training_instances, cll_objective, decode, train
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


def gold_row(component, assignments) -> int:
    """The position of the component's gold assignment in `assignments`."""
    return [tuple(c.entity_id for c in a) for a in assignments].index(tuple(m.gold for m in component.mentions))


def multi_component_doc(rng: random.Random, n_mentions: list[int]):
    """One document holding a `random_chain_doc` component of each length,
    set apart by more than `CONFIG.gap` filler tokens."""
    parts = [random_chain_doc(rng, "part", n) for n in n_mentions]
    filler = " ".join(["filler"] * (CONFIG.gap + 1))
    spans = [(f"c{j}m{i}", m.surface, m.gold) for j, part in enumerate(parts) for i, m in enumerate(part.mentions)]
    return doc_from_spans("multi", f" {filler} ".join(part.text for part in parts), spans)


def test_random_components_set_boolean_features():
    """The generator below reaches assignments whose ANDed booleans hold."""
    hits = 0
    for seed in range(30):
        rng = random.Random(seed)
        index = random_boolean_kb(rng)
        _, _, features = oracle(index, random_chain_doc(rng, "d", rng.randint(1, 3)))
        hits += bool(np.any(features[:, REGISTRY.boolean_indices]))
    assert hits >= 5


def random_bits_chain(rng: np.random.Generator, n_mentions: int) -> ComponentChain:
    """A chain over `SMALL_REGISTRY` of 1 to 4 candidates per mention whose
    booleans each hold with probability 0.7, so ANDed masks stay varied over
    several mentions."""
    registry = SMALL_REGISTRY
    n_booleans = registry.boolean_indices.size
    sizes = tuple(int(k) for k in rng.integers(1, 5, size=n_mentions))
    bits = (rng.random((sum(sizes), n_booleans)) < 0.7) @ (1 << np.arange(n_booleans))
    return ComponentChain(
        sizes=sizes,
        features=rng.normal(size=(sum(sizes), registry.unary_indices.size)),
        pairs=tuple(rng.normal(size=(a, b, registry.pair_indices.size)) for a, b in zip(sizes, sizes[1:])),
        bits=bits.astype(np.intp),
        registry=registry,
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 6), max_size=5))
@example(seed=0, lengths=[])
def test_batch_states_equal_prefix_enumeration(seed, lengths):
    """In a batch of random chains, each chain's states in each layer are
    the distinct (candidate, AND of the prefix's bits) of its prefix
    assignments, in (candidate, mask) order, chains in batch order; each
    step's transitions join every prefix's state to its one-longer
    extensions' at the two candidates' pair row; and each chain's last
    states select the batch's mask matrix row of their own mask."""
    rng = np.random.default_rng(seed)
    chains = [random_bits_chain(rng, n) for n in lengths]
    batch = ChainBatch(chains)
    oracles = [oracle_states(chain) for chain in chains]
    bits = np.concatenate([chain.bits for chain in chains] + [np.zeros(0, np.intp)])
    unary_at = np.cumsum([0] + [len(chain.features) for chain in chains])
    pair_at = np.cumsum([0] + [block.shape[0] * block.shape[1] for chain in chains for block in chain.pairs])
    first_step = np.cumsum([0] + [len(chain.pairs) for chain in chains])  # each chain's first block in pair_at

    assert len(batch.layer_at) - 1 == max(lengths, default=0) == len(batch.backward_steps) + bool(chains)
    assert np.all(np.diff(batch.edge_src) >= 0)
    # Each state's mask: its candidate's bits in layer 0, then its
    # predecessor's mask ANDed with them, alike over every transition into it.
    mask = np.full(batch.layer_at[-1], -1)
    mask[: batch.layer_at[1] if chains else 0] = bits[batch.first_rows]
    for src, dst in zip(batch.edge_src, batch.edge_dst):
        assert mask[dst] in (-1, mask[src] & bits[batch.state_row[dst]])
        mask[dst] = mask[src] & bits[batch.state_row[dst]]
    assert np.all(mask >= 0)

    for lo, hi in zip(batch.layer_at, batch.layer_at[1:]):
        assert np.all(np.diff(batch.state_chain[lo:hi]) >= 0)
    assert batch.layer_at[-1] == sum(len(states) for layers, _ in oracles for states in layers)
    assert batch.step_at[-1] == sum(len(transitions) for _, steps in oracles for transitions in steps)
    for c, ((layers, steps), chain) in enumerate(zip(oracles, chains)):
        for i, want in enumerate(layers):
            lo, hi = batch.layer_at[i:i + 2]
            states = lo + np.flatnonzero(batch.state_chain[lo:hi] == c)
            assert [(int(batch.state_cand[s]), int(mask[s])) for s in states] == want
            assert np.array_equal(batch.state_row[states], unary_at[c] + chain.offsets[i] + batch.state_cand[states])
        for i, want in enumerate(steps):
            lo, hi = batch.step_at[i:i + 2]
            edges = lo + np.flatnonzero(batch.edge_chain[lo:hi] == c)
            src, dst = batch.edge_src[edges], batch.edge_dst[edges]
            assert np.all((batch.layer_at[i] <= src) & (src < batch.layer_at[i + 1]))
            assert np.all((batch.layer_at[i + 1] <= dst) & (dst < batch.layer_at[i + 2]))
            assert np.all(batch.state_chain[dst] == c)
            rows = batch.edge_pair[edges] - pair_at[first_step[c] + i]
            got = [
                ((int(batch.state_cand[s]), int(mask[s])), (int(batch.state_cand[d]), int(mask[d])), int(row))
                for s, d, row in zip(src, dst, rows)
            ]
            assert got == want
        assert np.array_equal(np.flatnonzero(batch.first_chain == c), np.arange(*batch.chain_at[c:c + 2]))
        lo, hi = batch.layer_at[len(layers) - 1:len(layers) + 1]
        last = lo + np.flatnonzero(batch.state_chain[lo:hi] == c)
        ends = np.flatnonzero(batch.state_chain[batch.end_states] == c)
        assert np.array_equal(batch.end_states[ends], last)
        assert np.array_equal(batch.end_rows[ends], mask[last])
    assert np.array_equal(batch.edge_unary, batch.state_row[batch.edge_dst])
    assert batch.end_states.size == sum(len(layers[-1]) for layers, _ in oracles)

    for order, sources, starts, segment, lo, hi in batch.forward_steps:
        assert np.array_equal(batch.edge_dst[order], lo + segment)
        assert np.array_equal(batch.edge_src[order], sources)
        assert np.array_equal(segment[starts], np.arange(hi - lo))


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
    (chain,), (gold_choice,), _ = build_training_instances([doc], index, extractor, CONFIG)
    component, assignments, features = oracle(index, doc)
    log_z = oracle_log_z(features @ weights)
    value, grad = oracle_cll([(features, gold_row(component, assignments))], weights, sigma)

    (got_log_z,), _ = ChainBatch([chain]).expectation(weights)
    got_value, got_grad = cll_objective(weights, TrainingBatch([chain], [gold_choice]), sigma)
    assert got_log_z == pytest.approx(log_z, rel=1e-9)
    assert got_value == pytest.approx(value, rel=1e-9)
    np.testing.assert_allclose(got_grad, grad, rtol=1e-9, atol=1e-9 * max(1.0, float(np.abs(grad).max())))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 4), max_size=5))
@example(seed=0, lengths=[])
def test_batched_objective_equals_sum_of_per_chain_oracles(seed, lengths):
    """A batch of up to five chains, each of 1 to 4 mentions with up to K
    candidates: one `cll_objective` evaluation over all of them equals the
    brute-force objective summed chain by chain, in any chain order."""
    rng = random.Random(seed)
    index = random_boolean_kb(rng)
    docs = [random_chain_doc(rng, f"d{j}", n, index=index, k=K) for j, n in enumerate(lengths)]
    weights = make_weights(rng, "normal")
    sigma = 0.5
    chains, gold_positions, _ = build_training_instances(
        docs, index, FeatureExtractor(index, PmiTable(), REGISTRY), CONFIG
    )
    components = []
    for doc in docs:
        component, assignments, features = oracle(index, doc)
        components.append((features, gold_row(component, assignments)))

    value, grad = cll_objective(weights, TrainingBatch(chains, gold_positions), sigma)
    want_value, want_grad = oracle_cll(components, weights, sigma)
    assert value == pytest.approx(want_value, rel=1e-9)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-9 * max(1.0, float(np.abs(want_grad).max())))
    shuffled = rng.sample(range(len(chains)), len(chains))
    batch = TrainingBatch([chains[i] for i in shuffled], [gold_positions[i] for i in shuffled])
    assert cll_objective(weights, batch, sigma)[0] == pytest.approx(value, rel=1e-12, abs=1e-12)
    if not chains:
        assert value == -sigma * float(weights @ weights)


def decode_alone_and_batched(chains, ids, weights):
    """Each chain decoded in a batch of its own, and all in one batch."""
    return [ChainBatch([c]).decode(weights, [i])[0] for c, i in zip(chains, ids)], ChainBatch(chains).decode(weights, ids)


def assert_same_decode(alone, batched):
    assert [choice for choice, _ in batched] == [choice for choice, _ in alone]
    for (_, got), (_, want) in zip(batched, alone):
        assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    kind=st.sampled_from(["normal", "integral", "zero"]),
)
def test_multi_component_document_decodes_as_one_batch(seed, lengths, kind):
    """`decode` runs a document's components as one batch: each component
    gets the entity ids, and a score within 1e-12, that it gets decoded
    alone."""
    rng = random.Random(seed)
    index = random_boolean_kb(rng)
    doc = multi_component_doc(rng, lengths)
    model = Model(make_weights(rng, kind), REGISTRY, PmiTable(), CONFIG)
    extractor = model.extractor(index)
    view = extractor.document_view(doc)
    components = connected_components(doc, CONFIG.gap)
    assert [len(c.mentions) for c in components] == lengths
    lists = [[index.fast_search(m.surface, K) for m in c.mentions] for c in components]
    chains = [extractor.component_chain(c, ls, view) for c, ls in zip(components, lists)]
    ids = [[[c.entity_id for c in lst] for lst in ls] for ls in lists]
    alone, batched = decode_alone_and_batched(chains, ids, model.weights)
    assert_same_decode(alone, batched)
    predictions = decode(model, doc, index, extractor=extractor)
    assert [(p.entity_id, p.score) for p in predictions] == [
        (lst[j].entity_id, score) for ls, (choice, score) in zip(lists, batched) for lst, j in zip(ls, choice)
    ]


@pytest.mark.parametrize("seed, n_mentions", [(118, 5), (597, 3)])
def test_near_ties_decode_alike_alone_and_batched(seed, n_mentions):
    """The near-tie components of `test_decode_equals_oracle_argmax`, each
    batched after a random component and before a copy of itself, keep the
    oracle's choice."""
    rng = random.Random(seed)
    index = random_boolean_kb(rng)
    doc = random_chain_doc(rng, "d", n_mentions)
    weights = make_weights(rng, "normal")
    extractor = FeatureExtractor(index, PmiTable(), REGISTRY)
    other = random_chain_doc(rng, "other", 3)
    chains, ids = [], []
    for d in (other, doc, doc):
        (component,) = connected_components(d, CONFIG.gap)
        lists = [index.fast_search(m.surface, K) for m in component.mentions]
        chains.append(extractor.component_chain(component, lists, extractor.document_view(d)))
        ids.append([[c.entity_id for c in lst] for lst in lists])
    alone, batched = decode_alone_and_batched(chains, ids, weights)
    assert_same_decode(alone, batched)
    _, assignments, features = oracle(index, doc)
    scores = [sum(float(w) * float(f) for w, f in zip(weights, row)) for row in features]
    want = oracle_argmax(assignments, scores)
    for (choice, _), chain_ids in zip(batched[1:], ids[1:]):
        assert tuple(mention[j] for mention, j in zip(chain_ids, choice)) == want


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
