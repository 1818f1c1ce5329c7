"""Metric tests against hand-evaluated fixtures."""

import random

import pytest

from entlink.evaluator import EvalError, b3plus_f1, bot_f1
from entlink.kb_store import is_nil_label


class TestNilLabels:
    def test_classification(self):
        assert is_nil_label("NIL")
        assert is_nil_label("NIL0042")
        assert not is_nil_label("HOME_DEPOT")
        assert not is_nil_label("NILE_RIVER")


class TestBotF1:
    def test_hand_computed_half(self):
        report = bot_f1({"d": ["A", "B"]}, {"d": ["A", "C"]})
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_perfect_match(self):
        report = bot_f1({"d": ["A", "B"]}, {"d": ["B", "A"]})
        assert report.f1 == 1.0

    def test_empty_prediction_against_nonempty_gold(self):
        report = bot_f1({"d": []}, {"d": ["A"]})
        assert report.f1 == 0.0

    def test_duplicates_ignored(self):
        base = bot_f1({"d": ["A", "B"]}, {"d": ["A", "C"]})
        with_dups = bot_f1({"d": ["A", "A", "B", "B", "B"]}, {"d": ["A", "C"]})
        assert with_dups.precision == base.precision
        assert with_dups.recall == base.recall

    def test_nil_labels_excluded(self):
        report = bot_f1({"d": ["A", "NIL", "NIL0007"]}, {"d": ["A", "NIL0001"]})
        assert report.f1 == 1.0

    def test_micro_average_weights_documents_by_size(self):
        predictions = {"d1": ["A", "B"], "d2": ["X"]}
        gold = {"d1": ["A", "C"], "d2": ["X"]}
        report = bot_f1(predictions, gold)
        # micro: (1 + 1) / (2 + 1)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.macro is not None
        assert report.macro["f1"] == pytest.approx((0.5 + 1.0) / 2)

    def test_document_mismatch_is_hard_error(self):
        with pytest.raises(EvalError):
            bot_f1({"d1": ["A"]}, {"d2": ["A"]})
        with pytest.raises(EvalError):
            bot_f1({"d1": ["A"], "dx": []}, {"d1": ["A"]})

    def test_order_invariance(self):
        a = bot_f1({"d1": ["A"], "d2": ["B"]}, {"d1": ["A"], "d2": ["C"]})
        b = bot_f1({"d2": ["B"], "d1": ["A"]}, {"d2": ["C"], "d1": ["A"]})
        assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)


class TestB3PlusF1:
    def test_perfect_predictions(self):
        gold = {("d", "m1"): "E1", ("d", "m2"): "E1", ("d", "m3"): "NIL0001"}
        report = b3plus_f1(dict(gold), gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_nil_cluster_split_two_thirds(self):
        # one gold NIL entity split into two predicted clusters:
        # per mention precision 1, recall 1/2 -> F1 = 2/3
        gold = {("d", "m1"): "NIL0001", ("d", "m2"): "NIL0001"}
        predictions = {("d", "m1"): "NIL0100", ("d", "m2"): "NIL0200"}
        report = b3plus_f1(predictions, gold)
        assert report.precision == pytest.approx(1.0, abs=1e-12)
        assert report.recall == pytest.approx(0.5, abs=1e-12)
        assert report.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_wrong_link_scores_zero_even_for_singletons(self):
        gold = {("d", "m1"): "E1"}
        report = b3plus_f1({("d", "m1"): "E2"}, gold)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_nil_vs_kb_disagreement_scores_zero(self):
        gold = {("d", "m1"): "E1"}
        report = b3plus_f1({("d", "m1"): "NIL0001"}, gold)
        assert report.f1 == 0.0

    def test_cluster_id_renaming_invariance(self):
        gold = {("d", f"m{i}"): "NIL0001" if i < 3 else "E9" for i in range(6)}
        predictions = {
            ("d", "m0"): "NIL0500",
            ("d", "m1"): "NIL0500",
            ("d", "m2"): "NIL0700",
            ("d", "m3"): "E9",
            ("d", "m4"): "E9",
            ("d", "m5"): "E8",
        }
        renamed = {k: v.replace("NIL0500", "NIL0001").replace("NIL0700", "NIL0002")
                   for k, v in predictions.items()}
        a = b3plus_f1(predictions, gold)
        b = b3plus_f1(renamed, gold)
        assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)

    def test_bare_nil_predictions_are_singletons(self):
        gold = {("d", "m1"): "NIL0001", ("d", "m2"): "NIL0001"}
        report = b3plus_f1({("d", "m1"): "NIL", ("d", "m2"): "NIL"}, gold)
        # two singleton predicted clusters against one gold cluster of two
        assert report.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_missing_prediction_is_hard_error(self):
        gold = {("d", "m1"): "E1", ("d", "m2"): "E2"}
        with pytest.raises(EvalError):
            b3plus_f1({("d", "m1"): "E1"}, gold)

    def test_unknown_query_is_hard_error(self):
        gold = {("d", "m1"): "E1"}
        with pytest.raises(EvalError):
            b3plus_f1({("d", "m1"): "E1", ("d", "mX"): "E1"}, gold)

    def test_perfect_iff_exact_partition_and_labels(self):
        rng = random.Random(13)
        gold = {}
        for d in range(3):
            for m in range(4):
                label = rng.choice(["E1", "E2", "NIL0001", "NIL0002"])
                gold[(f"d{d}", f"m{m}")] = label
        assert b3plus_f1(dict(gold), gold).f1 == 1.0
        # any single corruption must drop the score below 1
        key = next(iter(gold))
        corrupted = dict(gold)
        corrupted[key] = "E_other"
        assert b3plus_f1(corrupted, gold).f1 < 1.0

    def test_counts_reported(self):
        gold = {("d", "m1"): "E1", ("d", "m2"): "NIL0001"}
        report = b3plus_f1(dict(gold), gold)
        assert report.counts == {"queries": 2, "in_kb": 1, "nil": 1}

    def test_per_document_breakdown(self):
        gold = {("d1", "m1"): "E1", ("d2", "m1"): "E2"}
        predictions = {("d1", "m1"): "E1", ("d2", "m1"): "E9"}
        report = b3plus_f1(predictions, gold)
        assert report.per_document["d1"]["f1"] == 1.0
        assert report.per_document["d2"]["f1"] == 0.0
