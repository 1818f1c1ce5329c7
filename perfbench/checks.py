"""Correctness checks computed apart from the program.

Each check recomputes an answer with a small implementation of its own, or
compares artifacts the program promises to keep identical, and returns a list
of problems (empty when the check passes) plus any counts worth reporting.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import defaultdict

import numpy as np

_NIL = re.compile(r"NIL\d*")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def gold_labels(test_records: list[dict]) -> dict[tuple[str, str], str]:
    return {(d["doc_id"], m["id"]): m["gold"] for d in test_records for m in d["mentions"]}


# -- metrics -----------------------------------------------------------------------


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def bag_of_titles_f1(pred: list[dict], gold: dict[tuple[str, str], str]) -> float:
    """Micro-averaged F1 of per-document sets of non-NIL labels."""
    pred_sets: dict[str, set] = defaultdict(set)
    gold_sets: dict[str, set] = defaultdict(set)
    for r in pred:
        if not _NIL.fullmatch(r["prediction"]):
            pred_sets[r["doc_id"]].add(r["prediction"])
    for (doc, _), label in gold.items():
        if not _NIL.fullmatch(label):
            gold_sets[doc].add(label)
    tp = sum(len(pred_sets[d] & gold_sets[d]) for d in set(pred_sets) | set(gold_sets))
    n_pred = sum(len(s) for s in pred_sets.values())
    n_gold = sum(len(s) for s in gold_sets.values())
    return _f1(tp / n_pred if n_pred else 0.0, tp / n_gold if n_gold else 0.0)


def b_cubed_plus_f1(pred: list[dict], gold: dict[tuple[str, str], str]) -> float:
    """B-cubed over mentions: classes are KB ids, or NIL cluster ids (a bare
    NIL is its own class); a mention scores only when its predicted and gold
    labels agree on the KB id, or are both NIL."""
    def cls(key, label):
        if not _NIL.fullmatch(label):
            return ("kb", label)
        return ("nil", key) if label == "NIL" else ("nil", label)

    pred_label = {}
    for r in pred:
        label = r["prediction"]
        if _NIL.fullmatch(label):
            label = r.get("nil_cluster", label)
        pred_label[(r["doc_id"], r["mention_id"])] = label
    pred_members: dict[tuple, set] = defaultdict(set)
    gold_members: dict[tuple, set] = defaultdict(set)
    for key, label in gold.items():
        pred_members[cls(key, pred_label[key])].add(key)
        gold_members[cls(key, label)].add(key)
    p_sum = r_sum = 0.0
    for key, g in gold.items():
        p = pred_label[key]
        p_nil, g_nil = bool(_NIL.fullmatch(p)), bool(_NIL.fullmatch(g))
        if p_nil != g_nil or (not p_nil and p != g):
            continue
        pc, gc = pred_members[cls(key, p)], gold_members[cls(key, g)]
        both = len(pc & gc)
        p_sum += both / len(pc)
        r_sum += both / len(gc)
    return _f1(p_sum / len(gold), r_sum / len(gold))


def check_metrics(pred, gold, bot: float, b3: float) -> list[str]:
    problems = []
    for name, reported, mine in (("bot_f1", bot, bag_of_titles_f1(pred, gold)),
                                 ("b3plus_f1", b3, b_cubed_plus_f1(pred, gold))):
        if not math.isclose(reported, mine, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{name}: program reports {reported!r}, recomputed {mine!r}")
    return problems


# -- predictions -------------------------------------------------------------------


def check_predictions(pred: list[dict], test_records: list[dict], normalize) -> list[str]:
    """Exactly one prediction per input mention; NIL cluster ids are in
    one-to-one correspondence with normalized NIL surfaces."""
    problems = []
    keys = [(r["doc_id"], r["mention_id"]) for r in pred]
    wanted = {(d["doc_id"], m["id"]) for d in test_records for m in d["mentions"]}
    if len(keys) != len(set(keys)):
        problems.append(f"{len(keys) - len(set(keys))} mentions have more than one prediction")
    if set(keys) != wanted:
        problems.append(f"predictions cover {len(set(keys) & wanted)} of {len(wanted)} mentions, "
                        f"plus {len(set(keys) - wanted)} unknown")
    surface = {}
    for d in test_records:
        raw = d["text"].encode("utf-8")
        for m in d["mentions"]:
            surface[(d["doc_id"], m["id"])] = raw[m["start"]:m["end"]].decode("utf-8")
    cluster_of: dict[str, str] = {}
    surface_of: dict[str, str] = {}
    for r in pred:
        if r["prediction"] != "NIL":
            if "nil_cluster" in r:
                problems.append(f"non-NIL prediction {r['mention_id']} carries a NIL cluster")
            continue
        key = normalize(surface[(r["doc_id"], r["mention_id"])])
        cid = r.get("nil_cluster")
        if cid is None:
            problems.append(f"NIL prediction {r['doc_id']}/{r['mention_id']} has no cluster id")
            continue
        if cluster_of.setdefault(key, cid) != cid or surface_of.setdefault(cid, key) != key:
            problems.append(f"NIL cluster {cid!r} does not follow normalized surface {key!r}")
    return problems[:10]


# -- decode ------------------------------------------------------------------------


def _oracle_scores(mentions, lists, extractor, view, weights, bool_idx) -> tuple[np.ndarray, np.ndarray]:
    """Score every joint assignment from the public partial-feature functions:
    mention partials and consecutive-pair partials summed in the documented
    order, boolean features ANDed. Returns (choice rows, scores)."""
    unary = [np.stack([extractor.mention_entity_features(m, c, view) for c in lst])
             for m, lst in zip(mentions, lists)]
    pairs = [np.stack([np.stack([extractor.entity_entity_features(a.entity_id, b.entity_id) for b in right])
                       for a in left])
             for left, right in zip(lists, lists[1:])]
    choice = np.array(list(itertools.product(*[range(len(lst)) for lst in lists])), dtype=np.intp)
    feats = np.zeros((len(choice), weights.shape[0]))
    for i, u in enumerate(unary):
        feats += u[choice[:, i]]
    if bool_idx.size:
        feats[:, bool_idx] = np.min(np.stack([u[choice[:, i]][:, bool_idx] for i, u in enumerate(unary)]), axis=0)
    for i, pr in enumerate(pairs):
        feats += pr[choice[:, i], choice[:, i + 1]]
    return choice, feats @ weights


# Largest joint-assignment count the decode oracle enumerates.
ORACLE_LIMIT = 100_000


def check_decode(pred, test_docs, index, model, extractor, segmenter) -> tuple[list[str], dict]:
    """Decode's choice is the argmax over every joint assignment, on every
    component whose full candidate product fits the tuple budget (and the
    oracle's own limit); larger components are counted, not checked."""
    by_key = {(r["doc_id"], r["mention_id"]): r["prediction"] for r in pred}
    cfg = model.config
    limit = min(ORACLE_LIMIT, getattr(cfg, "tuple_budget", ORACLE_LIMIT))
    bool_idx = model.registry.boolean_indices
    problems: list[str] = []
    checked = capped = near_ties = 0
    for doc in test_docs:
        view = extractor.document_view(doc)
        for comp in segmenter.connected_components(doc, cfg.gap):
            lists = [index.fast_search(m.surface, cfg.max_candidates) for m in comp.mentions]
            if math.prod(len(lst) for lst in lists) > limit:
                capped += 1
                continue
            checked += 1
            choice, scores = _oracle_scores(comp.mentions, lists, extractor, view, model.weights, bool_idx)
            ids = [tuple(lst[j].entity_id for lst, j in zip(lists, row)) for row in choice]
            top = scores.max()
            best = min(ids[i] for i in np.flatnonzero(scores == top))
            got = tuple(by_key.get((doc.doc_id, m.id)) for m in comp.mentions)
            if got == best:
                continue
            if got in ids and top - scores[ids.index(got)] <= 1e-9 * max(1.0, abs(top)):
                near_ties += 1  # equal up to summation order
                continue
            problems.append(f"{comp.id}: decode chose {got}, oracle argmax is {best}")
    return problems[:10], {"checked": checked, "capped": capped, "near_ties": near_ties}


# -- training ----------------------------------------------------------------------


def check_objective_trace(trace: list[float]) -> list[str]:
    drops = [(i, a, b) for i, (a, b) in enumerate(zip(trace, trace[1:])) if b < a]
    return [f"objective decreased at iterate {i + 1}: {a!r} -> {b!r}" for i, a, b in drops[:5]]


# -- index -------------------------------------------------------------------------


def postings_digest(postings: dict) -> str:
    """A digest of an index's postings that does not depend on key order."""
    return hashlib.sha256(repr(sorted(postings.items())).encode()).hexdigest()


def check_round_trip(built_digest: str, loaded_postings: dict) -> list[str]:
    if postings_digest(loaded_postings) == built_digest:
        return []
    return ["from_bytes(to_bytes(index)) changes the postings"]
