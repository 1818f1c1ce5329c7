"""Evaluation metrics: bag-of-titles F1 and the label-aware B-cubed variant
that scores NIL clustering together with KB links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .kb_store import NIL, is_nil_label


class EvalError(ValueError):
    """Prediction/gold misalignment or malformed inputs."""


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class EvalReport:
    metric: str
    precision: float
    recall: float
    f1: float
    per_document: dict[str, dict[str, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    macro: dict[str, float] | None = None

    def to_dict(self) -> dict:
        out = {
            "metric": self.metric,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "counts": self.counts,
            "per_document": self.per_document,
        }
        if self.macro is not None:
            out["macro"] = self.macro
        return out

    def table(self) -> str:
        lines = [
            f"metric      {self.metric}",
            f"precision   {self.precision:.4f}",
            f"recall      {self.recall:.4f}",
            f"f1          {self.f1:.4f}",
        ]
        if self.macro is not None:
            lines.append(
                "macro       P={precision:.4f} R={recall:.4f} F1={f1:.4f}".format(**self.macro)
            )
        for name, value in sorted(self.counts.items()):
            lines.append(f"{name:<11} {value}")
        return "\n".join(lines)


def bot_f1(
    predictions: Mapping[str, Iterable[str]],
    gold: Mapping[str, Iterable[str]],
) -> EvalReport:
    """Per-document set comparison of predicted vs gold labels.

    Duplicates within a document are ignored and NIL labels are excluded from
    both sides. The headline number micro-averages over documents; macro
    averages are reported alongside.
    """
    pred_docs, gold_docs = set(predictions), set(gold)
    if pred_docs != gold_docs:
        missing = sorted(pred_docs ^ gold_docs)[:5]
        raise EvalError(f"prediction/gold document sets differ (e.g. {missing})")

    tp_total = pred_total = gold_total = 0
    macro_p = macro_r = macro_f = 0.0
    per_document: dict[str, dict[str, float]] = {}
    for doc_id in sorted(gold_docs):
        pred_set = {t for t in predictions[doc_id] if not is_nil_label(t)}
        gold_set = {t for t in gold[doc_id] if not is_nil_label(t)}
        tp = len(pred_set & gold_set)
        tp_total += tp
        pred_total += len(pred_set)
        gold_total += len(gold_set)
        if not pred_set and not gold_set:
            p = r = 1.0
        else:
            p = tp / len(pred_set) if pred_set else 0.0
            r = tp / len(gold_set) if gold_set else 0.0
        f = _f1(p, r)
        per_document[doc_id] = {"precision": p, "recall": r, "f1": f}
        macro_p += p
        macro_r += r
        macro_f += f

    n_docs = len(gold_docs)
    precision = tp_total / pred_total if pred_total else 0.0
    recall = tp_total / gold_total if gold_total else 0.0
    macro = None
    if n_docs:
        macro = {"precision": macro_p / n_docs, "recall": macro_r / n_docs, "f1": macro_f / n_docs}
    return EvalReport(
        metric="bot",
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        per_document=per_document,
        counts={"documents": n_docs, "predicted": pred_total, "gold": gold_total},
        macro=macro,
    )


def _class_key(query: Hashable, label: str) -> tuple:
    if not is_nil_label(label):
        return ("kb", label)
    if label == NIL:
        # bare NIL carries no cluster information: treat as a singleton
        return ("nil", query)
    return ("nil", label)


def b3plus_f1(
    predictions: Mapping[Hashable, str],
    gold: Mapping[Hashable, str],
) -> EvalReport:
    """B-cubed precision/recall over mention equivalence classes.

    Mentions group by KB id when linked and by cluster id when NIL. A
    mention's class intersection only counts when its predicted and gold
    labels agree (same KB id, or NIL on both sides), so a wrong link scores
    zero even for singleton classes. NIL cluster ids themselves are arbitrary:
    any relabeling produces the same score.
    """
    missing = set(gold) - set(predictions)
    if missing:
        raise EvalError(f"missing predictions for {len(missing)} gold queries")
    extra = set(predictions) - set(gold)
    if extra:
        raise EvalError(f"predictions for {len(extra)} unknown queries")
    if not gold:
        raise EvalError("empty gold query set")

    pred_classes: dict[tuple, set] = {}
    gold_classes: dict[tuple, set] = {}
    for query in gold:
        pred_classes.setdefault(_class_key(query, predictions[query]), set()).add(query)
        gold_classes.setdefault(_class_key(query, gold[query]), set()).add(query)

    def agree(pred_label: str, gold_label: str) -> bool:
        if is_nil_label(pred_label) != is_nil_label(gold_label):
            return False
        if is_nil_label(pred_label):
            return True
        return pred_label == gold_label

    p_sum = r_sum = 0.0
    per_doc: dict[str, list[tuple[float, float]]] = {}
    n_nil = 0
    for query in gold:
        pred_label, gold_label = predictions[query], gold[query]
        if is_nil_label(gold_label):
            n_nil += 1
        if agree(pred_label, gold_label):
            pred_class = pred_classes[_class_key(query, pred_label)]
            gold_class = gold_classes[_class_key(query, gold_label)]
            inter = len(pred_class & gold_class)
            p, r = inter / len(pred_class), inter / len(gold_class)
        else:
            p = r = 0.0
        p_sum += p
        r_sum += r
        doc_id = query[0] if isinstance(query, tuple) else str(query)
        per_doc.setdefault(doc_id, []).append((p, r))

    n = len(gold)
    precision, recall = p_sum / n, r_sum / n
    per_document = {}
    for doc_id, values in sorted(per_doc.items()):
        dp = sum(v[0] for v in values) / len(values)
        dr = sum(v[1] for v in values) / len(values)
        per_document[doc_id] = {"precision": dp, "recall": dr, "f1": _f1(dp, dr)}
    return EvalReport(
        metric="b3plus",
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        per_document=per_document,
        counts={"queries": n, "in_kb": n - n_nil, "nil": n_nil},
    )
