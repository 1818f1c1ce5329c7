"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    closure_oracle,
    enumerate_tuples,
    oracle_argmax,
    oracle_features,
    random_chain_instance,
    random_linking_doc,
    random_linking_kb,
    random_model,
)

from entlink.config import PipelineConfig
from entlink.evaluator import b3plus_f1, bot_f1
from entlink.features import FeatureExtractor, PmiTable, default_registry
from entlink.fixtures import (
    home_depot_document,
    random_mention_document,
    synthetic_corpus,
    toy_documents,
    toy_kb_entries,
)
from entlink.kb_store import NIL, KbEntry, build_index
from entlink.maxent import (
    ChainStates,
    Model,
    build_training_instances,
    cll_objective,
    decode,
    fit_weights,
    train,
)
from entlink.segmenter import MentionDocument, candidate_lists, connected_components


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} {name}: FAIL")
        raise
    print(f"acceptance {number:02d} {name}: PASS")


def test_01_gradient_matches_finite_differences():
    with criterion(1, "gradient-vs-central-differences"):
        rng = np.random.default_rng(1)
        h = 1e-5
        started = time.perf_counter()
        for _ in range(20):
            inst = random_chain_instance(rng)
            weights = rng.normal(size=10)
            _, grad = cll_objective(weights, [inst], sigma=0.5)
            for j in range(10):
                step = np.zeros(10)
                step[j] = h
                up, _ = cll_objective(weights + step, [inst], sigma=0.5)
                down, _ = cll_objective(weights - step, [inst], sigma=0.5)
                fd = (up - down) / (2 * h)
                rel = abs(grad[j] - fd) / max(abs(grad[j]), abs(fd), 1e-8)
                assert rel < 1e-5, f"relative error {rel} at coordinate {j}"
        assert time.perf_counter() - started < 5.0


def test_02_softmax_normalization_on_random_components():
    with criterion(2, "softmax-normalization"):
        rng = random.Random(2)
        checked = 0
        while checked < 100:
            index = random_linking_kb(rng)
            model = random_model(rng, scale=3.0)
            extractor = FeatureExtractor(index, model.pmi, model.registry)
            doc = random_linking_doc(rng, f"doc{checked}")
            view = extractor.document_view(doc)
            for component in connected_components(doc, model.config.gap):
                # every assignment's exp(score - log Z), log Z from the chain
                lists = candidate_lists(component, index, 5)
                states = ChainStates(extractor.component_chain(component, lists, view))
                log_z, _ = states.log_z_and_expectation(model.weights)
                assignments = enumerate_tuples(component, index, 5)
                matrix = oracle_features(extractor, component, assignments, view)
                probs = np.exp(matrix @ model.weights - log_z)
                assert abs(float(probs.sum()) - 1.0) <= 1e-9
                assert np.all(probs > 0.0)
                checked += 1


def test_03_decode_equals_brute_force_enumeration():
    with criterion(3, "decode-vs-brute-force-argmax"):
        rng = random.Random(3)
        started = time.perf_counter()
        fixtures_checked = 0
        while fixtures_checked < 200:
            index = random_linking_kb(rng)
            model = random_model(rng)
            for d in range(5):
                doc = random_linking_doc(rng, f"doc{fixtures_checked}")
                predictions = {
                    p.mention_id: p.entity_id for p in decode(model, doc, index)
                }
                extractor = FeatureExtractor(index, model.pmi, model.registry)
                view = extractor.document_view(doc)
                expected = {}
                for component in connected_components(doc, model.config.gap):
                    assignments = enumerate_tuples(component, index, 5)
                    assert all(len(c) <= 5 for c in candidate_lists(component, index, 5))
                    matrix = oracle_features(extractor, component, assignments, view)
                    scores = [sum(float(w) * float(f) for w, f in zip(model.weights, fvec)) for fvec in matrix]
                    best_ids = oracle_argmax(assignments, scores)
                    for mention, eid in zip(component.mentions, best_ids):
                        expected[mention.id] = eid
                assert predictions == expected
                fixtures_checked += 1
        assert time.perf_counter() - started < 10.0


def test_04_training_sanity_on_synthetic_corpus():
    with criterion(4, "training-sanity"):
        rng = random.Random(4)
        entries, train_docs, test_docs = synthetic_corpus(rng, n_entities=10, n_train=50, n_test=20)
        index = build_index(entries)
        config = PipelineConfig(max_candidates=5, sigma=0.5)
        result = train(train_docs, index, config)
        for earlier, later in zip(result.objective_trace, result.objective_trace[1:]):
            assert later >= earlier - 1e-12, "objective decreased on an accepted step"
        correct = total = 0
        for doc in test_docs:
            predictions = decode(result.model, doc, index)
            for mention, prediction in zip(doc.mentions, predictions):
                if mention.gold != NIL:
                    total += 1
                    correct += prediction.entity_id == mention.gold
        assert total > 0
        accuracy = correct / total
        assert accuracy >= 0.9, f"in-KB accuracy {accuracy:.3f} below 0.9"


def test_05_regularization_behavior():
    with criterion(5, "regularization-behavior"):
        rng = random.Random(5)
        entries, train_docs, _ = synthetic_corpus(rng, n_train=20, n_test=1)
        index = build_index(entries)
        config = PipelineConfig(max_candidates=5)
        extractor = FeatureExtractor(index, PmiTable(), default_registry())
        instances, _ = build_training_instances(train_docs, index, extractor, config)
        dim = len(default_registry())
        heavy, _, _ = fit_weights(instances, sigma=1e6, dim=dim)
        assert float(np.linalg.norm(heavy)) < 1e-3
        light, _, _ = fit_weights(instances, sigma=0.01, dim=dim)
        medium, _, _ = fit_weights(instances, sigma=10.0, dim=dim)
        assert float(np.linalg.norm(light)) > float(np.linalg.norm(medium))


def test_06_metric_fixtures():
    with criterion(6, "metric-fixtures"):
        report = bot_f1({"d": ["A", "B"]}, {"d": ["A", "C"]})
        assert (report.precision, report.recall, report.f1) == (0.5, 0.5, 0.5)
        assert bot_f1({"d": ["A", "B"]}, {"d": ["A", "B"]}).f1 == 1.0
        assert bot_f1({"d": []}, {"d": ["A"]}).f1 == 0.0

        gold = {("d", "m1"): "NIL0001", ("d", "m2"): "NIL0001"}
        split = b3plus_f1({("d", "m1"): "NIL0100", ("d", "m2"): "NIL0200"}, gold)
        assert split.f1 == pytest.approx(2 / 3, abs=1e-12)
        perfect = {("d", "m1"): "E1", ("d", "m2"): "NIL0001"}
        assert b3plus_f1(dict(perfect), perfect).f1 == 1.0
        wrong = b3plus_f1({("d", "m1"): "E2"}, {("d", "m1"): "E1"})
        assert (wrong.precision, wrong.recall, wrong.f1) == (0.0, 0.0, 0.0)


def test_07_index_determinism():
    with criterion(7, "index-determinism"):
        rng = random.Random(7)
        entries = toy_kb_entries()
        reference = build_index(entries).to_bytes()
        for _ in range(10):
            shuffled = list(entries)
            rng.shuffle(shuffled)
            assert build_index(shuffled).to_bytes() == reference
        index = build_index(entries)
        for anchor, plist in index.postings.items():
            total = sum(count for _, count in plist)
            assert abs(sum(count / total for _, count in plist) - 1.0) <= 1e-9


_CYRILLIC_MAP = {}
for _i in range(26):
    _CYRILLIC_MAP[ord("a") + _i] = chr(0x0430 + _i)
    _CYRILLIC_MAP[ord("A") + _i] = chr(0x0410 + _i)
_TRANSLATION = str.maketrans(_CYRILLIC_MAP)


def _substitute(s: str) -> str:
    return s.translate(_TRANSLATION)


def _map_entry(entry: KbEntry) -> KbEntry:
    # ids stay fixed (they are identifiers, not text), all strings map
    return KbEntry(
        id=entry.id,
        title=_substitute(entry.title),
        text=_substitute(entry.text),
        categories=frozenset(_substitute(c) for c in entry.categories),
        outlinks=tuple((_substitute(anchor), target) for anchor, target in entry.outlinks),
        redirects=frozenset(_substitute(r) for r in entry.redirects),
    )


def _map_document(doc: MentionDocument) -> MentionDocument:
    new_text = _substitute(doc.text)
    old_bytes = doc.text.encode("utf-8")

    def new_offset(old_offset: int) -> int:
        chars = len(old_bytes[:old_offset].decode("utf-8"))
        return len(new_text[:chars].encode("utf-8"))

    record = {
        "doc_id": doc.doc_id,
        "text": new_text,
        "mentions": [
            {
                "id": m.id,
                "start": new_offset(m.start),
                "end": new_offset(m.end),
                **({"gold": m.gold} if m.gold is not None else {}),
            }
            for m in doc.mentions
        ],
    }
    return MentionDocument.from_record(record)


def test_08_language_independence_metamorphic():
    with criterion(8, "language-independence-metamorphic"):
        def pipeline(entries, docs):
            index = build_index(entries)
            result = train(docs, index, PipelineConfig(max_candidates=5))
            out = []
            for doc in docs:
                out.extend(decode(result.model, doc, index))
            return [(p.doc_id, p.mention_id, p.entity_id, p.score) for p in out]

        entries, docs = toy_kb_entries(), toy_documents()
        original = pipeline(entries, docs)
        mapped = pipeline([_map_entry(e) for e in entries], [_map_document(d) for d in docs])
        assert original == mapped  # identical ids and scores, zero tolerance


def test_09_connected_components_match_oracle():
    with criterion(9, "connected-components-oracle"):
        rng = random.Random(9)
        for i in range(100):
            doc = random_mention_document(rng, f"doc{i}", max_words=120, max_mentions=50)
            got = {
                frozenset(m.id for m in component.mentions)
                for component in connected_components(doc, gap=4)
            }
            assert got == closure_oracle(doc, 4)


def test_10_end_to_end_home_depot_fixture():
    with criterion(10, "end-to-end-toy-fixture"):
        entries = toy_kb_entries()
        index = build_index(entries)
        registry = default_registry()
        config = PipelineConfig()
        doc = home_depot_document()

        weights = np.zeros(len(registry))
        weights[registry.index("title_cooccurrence")] = 1.0
        weights[registry.index("link_prior")] = 0.1
        model = Model(weights, registry, PmiTable(), config)
        labels = [p.entity_id for p in decode(model, doc, index)]
        assert labels == ["HOME_DEPOT", "ROBERT_NARDELLI"]

        zero_model = Model(np.zeros(len(registry)), registry, PmiTable(), config)
        labels = [p.entity_id for p in decode(zero_model, doc, index)]
        # all scores tie, so the smallest assignment id sequence wins
        assert labels == ["HOME_DEPOT", NIL]
