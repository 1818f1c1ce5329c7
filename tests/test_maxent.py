"""Classifier tests: probabilities, objective/gradient, training, decoding."""

import dataclasses
import gc
import json
import math
import random
import re
import sys
import weakref

import numpy as np
import pytest
from conftest import (
    SMALL_REGISTRY,
    enumerate_tuples,
    fd_gradient,
    oracle_argmax,
    oracle_features,
    permuted_registry,
    random_chain_instance,
    random_linking_doc,
    random_linking_kb,
    random_model,
    synthetic_corpus,
    training_batch,
)

from entlink import text_vsm
from entlink.config import PipelineConfig
from entlink.features import (
    COSINE_FEATURES,
    ComponentChain,
    FeatureExtractor,
    FeatureRegistry,
    PmiTable,
    default_registry,
)
from entlink.fixtures import home_depot_document, toy_documents, toy_index
from entlink.kb_store import NIL, Candidate, FormatVersionError, build_index
from entlink.maxent import (
    MODEL_FORMAT_VERSION,
    ChainBatch,
    Model,
    Prediction,
    TrainingBatch,
    TrainingError,
    build_training_instances,
    cll_objective,
    decode,
    fit_weights,
    nil_cluster,
    train,
)
from entlink.segmenter import connected_components


def single_mention_chain(features):
    """A one-mention chain whose candidates have the given unary rows, over
    a registry of that many unary features."""
    features = np.asarray(features, dtype=float)
    return ComponentChain(
        sizes=(features.shape[0],),
        features=features,
        pairs=(),
        bits=np.zeros(features.shape[0], dtype=np.intp),
        registry=FeatureRegistry(COSINE_FEATURES[: features.shape[1]]),
    )


class TestSoftmax:
    """The component probability decode reports: the softmax of the best
    assignment's score over all assignments."""

    def test_tuple_probability(self):
        batch = ChainBatch([single_mention_chain([[1.0, 0.0], [0.0, 0.0]])])
        weights = np.array([1.0, 0.0])
        e = math.e
        ((choice, probability),) = batch.decode(weights, [[["A", "B"]]])
        assert choice == [0]
        assert probability == pytest.approx(e / (e + 1))


class TestObjective:
    def test_zero_weights_uniform_log_likelihood(self):
        chain = single_mention_chain(np.ones((4, 3)))
        value, _ = cll_objective(np.zeros(3), TrainingBatch([chain], [[2]]), sigma=0.5)
        assert value == pytest.approx(math.log(1 / 4), abs=1e-12)

    def test_empty_data_is_pure_regularizer(self):
        w = np.array([1.0, -2.0, 3.0])
        value, grad = cll_objective(w, TrainingBatch([], []), sigma=0.5)
        assert value == pytest.approx(-0.5 * float(w @ w))
        assert np.allclose(grad, -2 * 0.5 * w)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        batch = training_batch([random_chain_instance(rng)])
        w = rng.normal(size=10)
        _, grad = cll_objective(w, batch, sigma=0.5)
        fd = fd_gradient(w, batch, sigma=0.5)
        rel = np.abs(grad - fd) / np.maximum.reduce([np.abs(grad), np.abs(fd), np.full(10, 1e-8)])
        assert np.max(rel) < 1e-5

    def test_concavity_probe(self):
        rng = np.random.default_rng(9)
        batch = training_batch([random_chain_instance(rng) for _ in range(3)])
        w = rng.normal(size=10)
        for _ in range(10):
            direction = rng.normal(size=10)
            g = {
                alpha: cll_objective(w + alpha * direction, batch, 0.5)[0]
                for alpha in (-0.1, 0.0, 0.1)
            }
            assert g[0.0] >= (g[-0.1] + g[0.1]) / 2 - 1e-9


class TestFitWeights:
    def test_converges_and_trace_monotone(self):
        rng = np.random.default_rng(3)
        batch = training_batch([random_chain_instance(rng) for _ in range(5)])
        weights, trace, converged = fit_weights(batch, sigma=0.5, dim=10)
        assert converged
        _, grad = cll_objective(weights, batch, 0.5)
        assert np.max(np.abs(grad)) <= 1e-6
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-12

    def test_trace_reuses_the_optimizers_evaluations(self, monkeypatch):
        import entlink.maxent as maxent

        rng = np.random.default_rng(4)
        batch = training_batch([random_chain_instance(rng) for _ in range(5)])
        evaluated = []

        def counted(w, *args):
            evaluated.append(np.array(w))
            return cll_objective(w, *args)

        monkeypatch.setattr(maxent, "cll_objective", counted)
        weights, trace, _ = fit_weights(batch, sigma=0.5, dim=10)
        # one evaluation per point the optimizer asked for, none repeated
        assert not any(np.array_equal(a, b) for a, b in zip(evaluated, evaluated[1:]))
        assert len(evaluated) <= len(trace) - 1 + 5
        assert trace[0] == cll_objective(np.zeros(10), batch, 0.5)[0]
        assert trace[-1] == cll_objective(weights, batch, 0.5)[0]

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            fit_weights(TrainingBatch([], []), sigma=0.0, dim=3)

    def test_non_finite_objective_aborts(self):
        chain = single_mention_chain([[np.nan, 1.0], [0.0, 0.0]])
        with pytest.raises(TrainingError):
            fit_weights(TrainingBatch([chain], [[0]]), sigma=0.5, dim=2)

    def test_strong_regularization_shrinks_weights(self):
        rng = np.random.default_rng(12)
        batch = training_batch([random_chain_instance(rng) for _ in range(5)])
        weights, _, _ = fit_weights(batch, sigma=1e6, dim=10)
        assert np.linalg.norm(weights) < 1e-3


class TestDecode:
    def test_cooccurrence_weights_pick_gold_pair(self):
        index = toy_index()
        registry = default_registry()
        weights = np.zeros(len(registry))
        weights[registry.index("title_cooccurrence")] = 1.0
        weights[registry.index("link_prior")] = 0.1
        model = Model(weights, registry, PmiTable(), PipelineConfig())
        predictions = decode(model, home_depot_document(), index)
        assert [p.entity_id for p in predictions] == ["HOME_DEPOT", "ROBERT_NARDELLI"]
        assert all(0.0 < p.score <= 1.0 for p in predictions)

    def test_zero_weights_tie_break_lexicographic(self):
        index = toy_index()
        registry = default_registry()
        model = Model(np.zeros(len(registry)), registry, PmiTable(), PipelineConfig())
        predictions = decode(model, home_depot_document(), index)
        # all assignments tie; the smallest id sequence wins
        assert [p.entity_id for p in predictions] == ["HOME_DEPOT", NIL]

    def test_every_mention_labeled_once(self):
        rng = random.Random(77)
        index = random_linking_kb(rng)
        model = random_model(rng)
        doc = random_linking_doc(rng, "d0")
        predictions = decode(model, doc, index)
        assert [p.mention_id for p in predictions] == [m.id for m in doc.mentions]

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(101)
        for i in range(40):
            index = random_linking_kb(rng)
            model = random_model(rng)
            doc = random_linking_doc(rng, f"d{i}")
            predictions = decode(model, doc, index)
            extractor = FeatureExtractor(index, model.pmi, model.registry)
            view = extractor.document_view(doc)
            expected = {}
            for component in connected_components(doc, model.config.gap):
                assignments = enumerate_tuples(component, index, model.config.max_candidates)
                matrix = oracle_features(extractor, component, assignments, view)
                scores = [sum(float(w) * float(f) for w, f in zip(model.weights, fvec)) for fvec in matrix]
                best_ids = oracle_argmax(assignments, scores)
                for mention, eid in zip(component.mentions, best_ids):
                    expected[mention.id] = eid
            assert {p.mention_id: p.entity_id for p in predictions} == expected

    def test_constant_feature_leaves_argmax_unchanged(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            chain, _ = random_chain_instance(rng)
            ids = [sorted(rng.choice(["A", "B", "C", "D", NIL], size=k, replace=False)) for k in chain.sizes]
            weights = rng.normal(size=10)
            # a unary feature, last in the registry, equal to 1 at every
            # candidate of the first mention adds its weight to every
            # assignment's score
            constant = np.zeros(chain.features.shape[0])
            constant[: chain.sizes[0]] = 1.0
            shifted = ComponentChain(
                sizes=chain.sizes,
                features=np.column_stack([chain.features, constant]),
                pairs=chain.pairs,
                bits=chain.bits,
                registry=FeatureRegistry(SMALL_REGISTRY.names + ("cos_ctx_ctx",)),
            )
            ((before, _),) = ChainBatch([chain]).decode(weights, [ids])
            ((after, _),) = ChainBatch([shifted]).decode(np.append(weights, 3.7), [ids])
            assert before == after

    def test_cjk_documents_link_via_context(self):
        from entlink.kb_store import KbEntry
        from entlink.fixtures import doc_from_spans

        entries = [
            KbEntry(
                id="LI_NA_TENNIS",
                title="李娜 (网球运动员)",
                text="李娜 是 中国 网球 运动员 两 次 大 满贯 冠军",
            ),
            KbEntry(
                id="LI_NA_SINGER",
                title="李娜 (歌手)",
                text="李娜 是 中国 歌手 发行 多 张 唱片 专辑",
            ),
            KbEntry(
                id="HUB",
                title="消歧义",
                text="列表",
                outlinks=(("李娜", "LI_NA_TENNIS"), ("李娜", "LI_NA_SINGER")),
            ),
        ]
        index = build_index(entries)
        registry = default_registry()
        weights = np.zeros(len(registry))
        weights[registry.index("cos_text_ctx")] = 5.0
        model = Model(weights, registry, PmiTable(), PipelineConfig())
        doc = doc_from_spans("zh", "李娜 夺得 网球 大 满贯 冠军", [("m", "李娜", None)])
        (prediction,) = decode(model, doc, index)
        assert prediction.entity_id == "LI_NA_TENNIS"

    def test_registry_order_does_not_change_decode(self):
        """The toy documents decode to the same entities, with the same
        scores up to rounding, under a permuted registry with the weights
        permuted alike."""
        index = toy_index()
        registry, permuted = default_registry(), permuted_registry()
        assert permuted != registry
        weights = np.random.default_rng(1).normal(size=len(registry))
        moved = weights[[registry.index(name) for name in permuted.names]]
        for doc in toy_documents():
            want = decode(Model(weights, registry, PmiTable(), PipelineConfig()), doc, index)
            got = decode(Model(moved, permuted, PmiTable(), PipelineConfig()), doc, index)
            assert [p.entity_id for p in got] == [p.entity_id for p in want]
            assert [p.score for p in got] == pytest.approx([p.score for p in want], rel=1e-12)

    @pytest.mark.parametrize("setting", ["index", "pmi", "registry", "window", "top_n"])
    def test_mismatched_extractor_rejected(self, setting):
        index = toy_index()
        registry = default_registry()
        config = PipelineConfig()
        model = Model(np.zeros(len(registry)), registry, PmiTable({("A", "B"): 1.0}), config)
        args = dict(index=index, pmi=model.pmi, registry=registry, window=config.context_window, top_n=config.top_n)
        decode(model, home_depot_document(), index, extractor=FeatureExtractor(**args))
        args[setting] = {
            "index": toy_index(),
            "pmi": PmiTable({("A", "C"): 1.0}),
            "registry": FeatureRegistry(registry.names[::-1]),
            "window": 2,
            "top_n": 50,
        }[setting]
        with pytest.raises(ValueError, match="Model.extractor"):
            decode(model, home_depot_document(), index, extractor=FeatureExtractor(**args))


class TestNilCluster:
    def make(self, mention_id, entity_id, surface):
        return Prediction("doc", mention_id, entity_id, 0.5, surface)

    def test_case_variants_share_a_cluster(self):
        preds = nil_cluster(
            [self.make("m1", NIL, "Alex Sánchez"), self.make("m2", NIL, "alex sánchez")]
        )
        assert preds[0].nil_cluster == preds[1].nil_cluster

    def test_distinct_surfaces_distinct_clusters(self):
        preds = nil_cluster([self.make("m1", NIL, "Alpha"), self.make("m2", NIL, "Beta")])
        assert preds[0].nil_cluster != preds[1].nil_cluster

    def test_only_nil_mentions_clustered(self):
        preds = nil_cluster(
            [
                self.make("m1", "E1", "Alpha"),
                self.make("m2", NIL, "Alpha"),
                self.make("m3", "E2", "Beta"),
                self.make("m4", NIL, "Gamma"),
            ]
        )
        clusters = {p.mention_id: p.nil_cluster for p in preds}
        assert clusters["m1"] is None
        assert clusters["m3"] is None
        assert clusters["m2"] is not None
        assert clusters["m4"] is not None
        assert clusters["m2"] != clusters["m4"]

    def test_stable_across_runs(self):
        preds = [self.make("m1", NIL, "Zeta"), self.make("m2", NIL, "Alpha")]
        first = [p.nil_cluster for p in nil_cluster(preds)]
        second = [p.nil_cluster for p in nil_cluster(list(reversed(preds)))]
        assert sorted(first) == sorted(second)


class TestTraining:
    def test_gold_injection_when_retrieval_misses(self):
        index = toy_index()
        config = PipelineConfig(max_candidates=1)
        extractor = FeatureExtractor(index, PmiTable(), default_registry())
        # gold STEVE_NARDELLI ranks second for 'Nardelli', so k=1 misses it
        from entlink.fixtures import doc_from_spans

        doc = doc_from_spans("d", "Nardelli sang", [("m", "Nardelli", "STEVE_NARDELLI")])
        (chain,), (gold_choice,), stats = build_training_instances([doc], index, extractor, config)
        assert stats.injected_gold == 1
        (component,) = connected_components(doc, config.gap)
        gold = (Candidate("STEVE_NARDELLI", index.link_prior("Nardelli", "STEVE_NARDELLI")),)
        expected = oracle_features(extractor, component, [gold], extractor.document_view(doc))[0]
        assert np.array_equal(chain.assignment_features(gold_choice), expected)
        assert np.array_equal(TrainingBatch([chain], [gold_choice]).gold, expected)
        assert chain.features.shape[0] == 3  # ROBERT_NARDELLI, injected STEVE_NARDELLI, NIL

    def test_unlabeled_components_skipped(self):
        index = toy_index()
        config = PipelineConfig()
        extractor = FeatureExtractor(index, PmiTable(), default_registry())
        from entlink.fixtures import doc_from_spans

        doc = doc_from_spans("d", "Atlanta is warm", [("m", "Atlanta", None)])
        chains, gold_positions, stats = build_training_instances([doc], index, extractor, config)
        assert chains == gold_positions == []
        assert stats.skipped_unlabeled == 1

    def test_gold_index_points_at_gold_tuple(self):
        index = toy_index()
        config = PipelineConfig()
        extractor = FeatureExtractor(index, PmiTable(), default_registry())
        doc = home_depot_document()
        (chain,), (gold_choice,), _ = build_training_instances([doc], index, extractor, config)
        (component,) = connected_components(doc, config.gap)
        assignments = enumerate_tuples(component, index, config.max_candidates)
        (gold,) = [a for a in assignments if tuple(c.entity_id for c in a) == ("HOME_DEPOT", "ROBERT_NARDELLI")]
        expected = oracle_features(extractor, component, [gold], extractor.document_view(doc))[0]
        assert np.array_equal(chain.assignment_features(gold_choice), expected)

    def test_training_learns_context_disambiguation(self):
        rng = random.Random(42)
        entries, train_docs, test_docs = synthetic_corpus(rng, n_train=30, n_test=10)
        index = build_index(entries)
        result = train(train_docs, index, PipelineConfig(max_candidates=5))
        assert result.converged
        correct = total = 0
        for doc in test_docs:
            predictions = decode(result.model, doc, index)
            for mention, pred in zip(doc.mentions, predictions):
                if mention.gold != NIL:
                    total += 1
                    correct += pred.entity_id == mention.gold
        assert total > 0
        assert correct / total >= 0.9

    def test_nil_cluster_gold_trains_as_nil(self):
        index = toy_index()
        docs = toy_documents()
        relabelled = [
            dataclasses.replace(d, mentions=[dataclasses.replace(m, gold="NIL0001") if m.gold == NIL else m
                                             for m in d.mentions])
            for d in docs
        ]
        assert any(m.gold == "NIL0001" for d in relabelled for m in d.mentions)
        plain, clustered = train(docs, index), train(relabelled, index)
        assert clustered.stats.injected_gold == plain.stats.injected_gold == 0
        assert np.array_equal(clustered.model.weights, plain.model.weights)

    def test_deterministic_given_data_order(self):
        rng = random.Random(4)
        entries, train_docs, _ = synthetic_corpus(rng, n_train=12, n_test=1)
        index = build_index(entries)
        first = train(train_docs, index, PipelineConfig(max_candidates=5))
        second = train(train_docs, index, PipelineConfig(max_candidates=5))
        assert np.array_equal(first.model.weights, second.model.weights)


class TestRowsHeldOnce:
    """A batch keeps its own copy of the chains' rows, not the chains, so
    once the caller lets go of them each row is held once."""

    def chains(self):
        index = toy_index()
        extractor = FeatureExtractor(index)
        (chains, gold_positions, _) = build_training_instances(toy_documents(), index, extractor, PipelineConfig())
        assert len(chains) > 1
        return chains, gold_positions

    def test_chain_batch_keeps_no_chain(self):
        chains, _ = self.chains()
        refs = [weakref.ref(chain) for chain in chains]
        batch = ChainBatch(chains)
        del chains
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert batch.n_chains == len(refs)

    def test_training_batch_keeps_no_chain(self):
        chains, gold_positions = self.chains()
        refs = [weakref.ref(chain) for chain in chains]
        batch = TrainingBatch(chains, gold_positions)
        del chains
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert batch.chains.n_chains == len(refs)

    def test_no_training_chain_is_alive_while_the_optimizer_runs(self, monkeypatch):
        import entlink.maxent as maxent

        build, fit = FeatureExtractor.component_chain, maxent.fit_weights
        refs, alive = [], []

        def building(*args):
            chain = build(*args)
            refs.append(weakref.ref(chain))
            return chain

        def fitting(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            return fit(*args, **kwargs)

        monkeypatch.setattr(FeatureExtractor, "component_chain", building)
        monkeypatch.setattr(maxent, "fit_weights", fitting)
        train(toy_documents(), toy_index())
        assert len(refs) > 1 and alive == [0]


def test_each_document_is_tokenized_once(monkeypatch):
    """Components and features read one tokenization of a document's text,
    in training and in decoding."""
    original = text_vsm.tokenize
    calls = []

    def counting(text):
        calls.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "entlink" and getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", counting)
    index = toy_index()
    model = train([home_depot_document()], index).model
    assert calls == ["Home Depot CEO Nardelli quits"]
    calls.clear()
    decode(model, home_depot_document(), index)
    assert calls == ["Home Depot CEO Nardelli quits"]


class TestModelSerialization:
    def test_round_trip_preserves_decode(self, tmp_path):
        index = toy_index()
        registry = default_registry()
        weights = np.linspace(-1.0, 1.0, len(registry))
        model = Model(weights, registry, PmiTable({("A", "B"): 0.5}), PipelineConfig())
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = Model.load(str(path))
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.registry == model.registry
        assert loaded.pmi.pair_scores == model.pmi.pair_scores
        doc = home_depot_document()
        before = decode(model, doc, index)
        after = decode(loaded, doc, index)
        assert before == after

    def test_failed_save_keeps_the_existing_file(self, tmp_path):
        """A category with a lone surrogate has no UTF-8 encoding: saving
        raises, and the model file already there stays as it was."""
        registry = default_registry()
        path = tmp_path / "model.json"
        Model(np.zeros(len(registry)), registry, PmiTable(), PipelineConfig()).save(str(path))
        before = path.read_bytes()
        bad = Model(np.zeros(len(registry)), registry, PmiTable({("A", "\ud800"): 0.5}), PipelineConfig())
        with pytest.raises(UnicodeEncodeError):
            bad.save(str(path))
        assert path.read_bytes() == before

    def test_version_mismatch_rejected(self, tmp_path):
        index = toy_index()
        registry = default_registry()
        model = Model(np.zeros(len(registry)), registry, PmiTable(), PipelineConfig())
        path = tmp_path / "model.json"
        model.save(str(path))
        content = path.read_text().replace(
            f'"format_version": {MODEL_FORMAT_VERSION}', '"format_version": 99'
        )
        path.write_text(content)
        with pytest.raises(FormatVersionError, match=f"^{re.escape(str(path))}: model format version 99"):
            Model.load(str(path))

    def test_version_1_model_with_tuple_budget_rejected(self, tmp_path):
        registry = default_registry()
        model = Model(np.zeros(len(registry)), registry, PmiTable(), PipelineConfig())
        path = tmp_path / "model.json"
        model.save(str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = 1
        payload["config"]["tuple_budget"] = 100_000
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatVersionError, match="format version 1"):
            Model.load(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["config"].update(tuple_budget=100_000),  # unknown key
            lambda p: p["config"].pop("gap"),                    # missing key
            lambda p: p["config"].update(max_candidates=2.5),    # wrong type
            lambda p: p.update(config=[1, 2]),
            lambda p: p.pop("weights"),
            lambda p: p.update(pmi=[]),
            lambda p: p["config"].update(sigma=None),           # wrong type
            lambda p: p.update(registry=p["registry"][:-1] + ["not_a_feature"]),
        ],
    )
    def test_malformed_model_rejected(self, tmp_path, edit):
        registry = default_registry()
        model = Model(np.zeros(len(registry)), registry, PmiTable(), PipelineConfig())
        path = tmp_path / "model.json"
        model.save(str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatVersionError, match=f"^{re.escape(str(path))}: "):
            Model.load(str(path))

    def test_invalid_model_parameters(self):
        registry = default_registry()
        with pytest.raises(ValueError):
            Model(np.zeros(3), registry, PmiTable(), PipelineConfig())
        with pytest.raises(ValueError):
            Model(np.zeros(len(registry)), registry, PmiTable(), PipelineConfig(sigma=0.0))

    @pytest.mark.parametrize(
        "name,value",
        [("sigma", 0.0), ("sigma", math.inf), ("max_candidates", 0), ("gap", -1), ("context_window", 7),
         ("top_n", 0)],
    )
    def test_an_invalid_config_cannot_be_made(self, name, value):
        """An out-of-range setting raises ValueError when the config is made,
        directly or from a saved dict."""
        with pytest.raises(ValueError):
            PipelineConfig(**{name: value})
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({**PipelineConfig().to_dict(), name: value})
