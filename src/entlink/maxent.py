"""Collective max-ent classifier: exact inference over each component's
linear chain (max-product to decode, forward-backward for log Z and the
expected features), the regularized conditional log-likelihood objective,
quasi-Newton training, and per-component decoding.

Objective and gradient sums run in a fixed instance order, so training is
bit-reproducible for a given data order. A trained Model is immutable and may
be read concurrently; decoding different documents in parallel is safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize

from .config import PipelineConfig
from .evaluator import is_nil_label
from .features import (
    ComponentChain,
    FeatureExtractor,
    FeatureRegistry,
    PmiTable,
    default_registry,
    train_pmi,
)
from .kb_store import NIL, AnchorIndex, Candidate, FormatVersionError, normalize_name
from .segmenter import MentionDocument, candidate_lists, connected_components

MODEL_FORMAT_VERSION = 3


class TrainingError(RuntimeError):
    """Optimization failed (non-finite objective, incomplete supervision)."""


@dataclass
class Model:
    """Trained feature weights plus everything needed to decode."""

    weights: np.ndarray
    registry: FeatureRegistry
    pmi: PmiTable
    config: PipelineConfig

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.registry),):
            raise ValueError("weight vector length must match the feature registry")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        self.config.validate()

    def save(self, path: str) -> None:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "registry": list(self.registry.names),
            "weights": self.weights.tolist(),
            "pmi": self.pmi.to_payload(),
            "config": self.config.to_dict(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "Model":
        """Read a saved model; a corrupt or incompatible file raises
        FormatVersionError (or ValueError for out-of-range values)."""
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            payload = json.loads(blob.decode("utf-8"))
            version = payload.get("format_version")
            if version != MODEL_FORMAT_VERSION:
                raise FormatVersionError(f"model format version {version}, expected {MODEL_FORMAT_VERSION}")
            registry = FeatureRegistry(payload["registry"])
            if set(registry.names) != set(default_registry().names):
                raise FormatVersionError("model features do not match this version's feature set")
            return Model(
                weights=np.array(payload["weights"], dtype=float),
                registry=registry,
                pmi=PmiTable.from_payload(payload["pmi"]),
                config=PipelineConfig.from_dict(payload["config"]),
            )
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise FormatVersionError(f"{path}: not a valid model file ({type(exc).__name__}: {exc})") from None


@dataclass(frozen=True, eq=False)
class TrainingInstance:
    """One gold-labeled component: its chain's states and the aggregate
    feature vector of its gold assignment."""

    states: "ChainStates"
    gold_features: np.ndarray

    @property
    def features(self) -> np.ndarray:
        """Unary rows of the chain, one per (mention, candidate)."""
        return self.states.chain.features


def softmax(scores: np.ndarray) -> np.ndarray:
    """Probabilities over assignment scores, stabilized by max subtraction."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cannot normalize an empty score set")
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def _logsumexp(a: np.ndarray, axis: int | None = None):
    top = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - top).sum(axis=axis, keepdims=True)) + top
    return out.item() if axis is None else out.squeeze(axis)


class ChainStates:
    """Inference over a `ComponentChain`, exact in time linear in its length.

    A state at mention i is a (candidate, mask) pair: the mask is the AND of
    the boolean bits of the candidates chosen at mentions 0..i, so the last
    state's mask gives the assignment's boolean features. Only reachable
    states are kept, at most 2**n_booleans per candidate. Every assignment
    is one path through the states, so max-product gives the best assignment
    and sum-product gives log Z and the marginals (Lafferty, McCallum and
    Pereira 2001, with the mask added to the state).
    """

    def __init__(self, chain: ComponentChain):
        self.chain = chain
        n_masks = chain.mask_features.shape[0]
        offsets = chain.offsets
        cand, mask = np.arange(chain.sizes[0]), chain.bits[: chain.sizes[0]]
        self.cand = [cand]  # per mention: each state's position in the candidate list
        self.rows = [cand]  # per mention: each state's row in chain.features
        self.pair_rows: list[np.ndarray] = []  # per step (S_i, S_i+1): row in pair_features
        self.blocked: list[np.ndarray] = []    # per step (S_i, S_i+1): -inf where t cannot follow s
        pair_offset = 0
        for i, k in enumerate(chain.sizes[1:], start=1):
            after = mask[:, None] & chain.bits[offsets[i]:offsets[i] + k][None, :]
            nxt_cand, nxt_mask = np.divmod(np.unique(np.arange(k) * n_masks + after), n_masks)
            self.pair_rows.append(pair_offset + cand[:, None] * k + nxt_cand[None, :])
            self.blocked.append(np.where(after[:, nxt_cand] == nxt_mask[None, :], 0.0, -np.inf))
            pair_offset += chain.sizes[i - 1] * k
            cand, mask = nxt_cand, nxt_mask
            self.cand.append(cand)
            self.rows.append(offsets[i] + cand)
        self.last_mask = mask
        n_features = chain.features.shape[1]
        self.pair_features = np.concatenate(
            [block.reshape(-1, n_features) for block in chain.pairs] or [np.zeros((0, n_features))]
        )
        self._all_rows = np.concatenate(self.rows)
        self._all_pair_rows = np.concatenate([r.ravel() for r in self.pair_rows] or [np.zeros(0, np.intp)])

    def potentials(self, weights: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """Log-potentials: the first mention's state scores, one transition
        matrix per consecutive pair (-inf where a state cannot follow), and
        the boolean features' score at each of the last mention's states."""
        unary = self.chain.features @ weights
        pair = self.pair_features @ weights
        transitions = [
            pair[rows] + unary[dst] + blocked
            for rows, dst, blocked in zip(self.pair_rows, self.rows[1:], self.blocked)
        ]
        return unary[self.rows[0]], transitions, (self.chain.mask_features @ weights)[self.last_mask]

    @staticmethod
    def backward(transitions: list[np.ndarray], end: np.ndarray, reduce) -> list[np.ndarray]:
        """Per mention, the reduced (max or log-sum) score of every way to
        finish the chain from each state."""
        beta = [end]
        for trans in reversed(transitions):
            beta.append(reduce(trans + beta[-1][None, :], axis=1))
        return beta[::-1]

    def decode(self, weights: np.ndarray, ids: Sequence[Sequence[str]]) -> tuple[list[int], float]:
        """Best assignment (candidate positions) and its probability.

        Among assignments with exactly the best score, the smallest id
        sequence wins: each mention takes the smallest id among the choices
        that still reach the best score.
        """
        start, transitions, end = self.potentials(weights)
        best_rest = self.backward(transitions, end, np.maximum.reduce)
        log_z = _logsumexp(start + self.backward(transitions, end, _logsumexp)[0])
        scores = start + best_rest[0]
        best = float(scores.max())
        choice = []
        for i, cand in enumerate(self.cand):
            tied = np.flatnonzero(scores == scores.max())
            state = min(tied, key=lambda t: ids[i][cand[t]])
            choice.append(int(cand[state]))
            if i < len(transitions):
                scores = transitions[i][state] + best_rest[i + 1]
        return choice, float(np.exp(best - log_z))

    def log_z_and_expectation(self, weights: np.ndarray) -> tuple[float, np.ndarray]:
        """log Z and the expected aggregate feature vector E_P[f]."""
        chain = self.chain
        start, transitions, end = self.potentials(weights)
        beta = self.backward(transitions, end, _logsumexp)
        alpha = [start]
        for trans in transitions:
            alpha.append(_logsumexp(alpha[-1][:, None] + trans, axis=0))
        log_z = _logsumexp(start + beta[0])
        states = np.exp(np.concatenate(alpha) + np.concatenate(beta) - log_z)
        expected = np.bincount(self._all_rows, states, minlength=len(chain.features)) @ chain.features
        if transitions:
            joint = np.concatenate([
                (a[:, None] + trans + b[None, :]).ravel() for a, trans, b in zip(alpha, transitions, beta[1:])
            ])
            pairs = np.bincount(self._all_pair_rows, np.exp(joint - log_z), minlength=len(self.pair_features))
            expected += pairs @ self.pair_features
        last = states[states.size - self.last_mask.size:]
        expected += np.bincount(self.last_mask, last, minlength=len(chain.mask_features)) @ chain.mask_features
        return log_z, expected


def cll_objective(
    weights: np.ndarray, instances: Sequence[TrainingInstance], sigma: float
) -> tuple[float, np.ndarray]:
    """L2-regularized conditional log-likelihood and its gradient.

    value    = sum_i log P(gold_i) - sigma * ||w||^2
    gradient = sum_i (f(gold_i) - E_P[f]) - 2 * sigma * w
    """
    weights = np.asarray(weights, dtype=float)
    value = -sigma * float(weights @ weights)
    grad = -2.0 * sigma * weights
    for inst in instances:
        log_z, expected = inst.states.log_z_and_expectation(weights)
        value += float(inst.gold_features @ weights) - log_z
        grad = grad + (inst.gold_features - expected)
    return value, grad


def fit_weights(
    instances: Sequence[TrainingInstance],
    sigma: float,
    dim: int,
    *,
    tol: float = 1e-6,
    max_iter: int = 500,
    history: int = 10,
) -> tuple[np.ndarray, list[float], bool]:
    """Maximize the objective with L-BFGS from a zero start.

    Returns (weights, per-iterate objective trace, converged). The objective
    is concave, so any stationary point is the global optimum; accepted steps
    never decrease the objective. The trace and the convergence test reuse
    the optimizer's own evaluation at each accepted iterate.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    last: list = []  # [w, value, grad] of the latest evaluation

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        if not last or not np.array_equal(w, last[0]):
            value, grad = cll_objective(w, instances, sigma)
            if not np.isfinite(value) or not np.all(np.isfinite(grad)):
                raise TrainingError("non-finite objective during line search")
            last[:] = [np.array(w, dtype=float), value, grad]
        return last[1], last[2]

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = evaluate(w)
        return -value, -grad

    trace: list[float] = []

    def record(w: np.ndarray) -> None:
        trace.append(evaluate(w)[0])

    start = np.zeros(dim)
    record(start)
    result = minimize(
        negated,
        start,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={"maxcor": history, "maxiter": max_iter, "gtol": tol, "ftol": 1e-14},
    )
    weights = np.asarray(result.x, dtype=float)
    _, grad = evaluate(weights)
    converged = bool(np.max(np.abs(grad), initial=0.0) <= tol)
    return weights, trace, converged


@dataclass
class BuildStats:
    components: int = 0
    skipped_unlabeled: int = 0
    injected_gold: int = 0


def build_training_instances(
    docs: Iterable[MentionDocument],
    index: AnchorIndex,
    extractor: FeatureExtractor,
    config: PipelineConfig,
) -> tuple[list[TrainingInstance], BuildStats]:
    """Turn gold-labeled documents into per-component training instances.

    Components containing any unlabeled mention are skipped (and counted).
    A NIL cluster label (`NIL0001`) trains as NIL. When retrieval misses a
    mention's gold entity, the gold candidate is injected into that mention's
    list so the gold assignment is one of the chain's assignments; injections
    are counted in the stats.
    """
    instances: list[TrainingInstance] = []
    stats = BuildStats()
    for doc in docs:
        view = extractor.document_view(doc)
        for component in connected_components(doc, config.gap):
            stats.components += 1
            if any(m.gold is None for m in component.mentions):
                stats.skipped_unlabeled += 1
                continue
            lists = candidate_lists(component, index, config.max_candidates)
            injected = False
            gold_choice = []
            for i, mention in enumerate(component.mentions):
                gold = NIL if is_nil_label(mention.gold) else mention.gold
                ids = [c.entity_id for c in lists[i]]
                if gold not in ids:
                    # keep NIL last so list order stays prior-ranked
                    prior = index.link_prior(mention.surface, gold)
                    lists[i] = lists[i][:-1] + [Candidate(gold, prior), lists[i][-1]]
                    ids = [c.entity_id for c in lists[i]]
                    injected = True
                gold_choice.append(ids.index(gold))
            if injected:
                stats.injected_gold += 1
            chain = extractor.component_chain(component, lists, view)
            instances.append(TrainingInstance(ChainStates(chain), chain.assignment_features(gold_choice)))
    return instances, stats


@dataclass
class TrainResult:
    model: Model
    objective_trace: list[float]
    converged: bool
    stats: BuildStats


def train(
    docs: Iterable[MentionDocument],
    index: AnchorIndex,
    config: PipelineConfig | None = None,
    *,
    stopwords: frozenset[str] | set[str] = frozenset(),
    blacklist_threshold: float = 0.05,
    tol: float = 1e-6,
    max_iter: int = 500,
    history: int = 10,
) -> TrainResult:
    """End-to-end training: PMI table from gold sequences, then weights.

    Deterministic for a fixed document order.
    """
    config = config if config is not None else PipelineConfig()
    config.validate()
    docs = list(docs)
    gold_sequences = []
    for doc in docs:
        for component in connected_components(doc, config.gap):
            if all(m.gold is not None for m in component.mentions):
                gold_sequences.append([m.gold for m in component.mentions])
    pmi = train_pmi(gold_sequences, index, blacklist_threshold)
    registry = default_registry()
    extractor = FeatureExtractor(
        index,
        pmi,
        registry,
        stopwords=stopwords,
        window=config.context_window,
        top_n=config.top_n,
    )
    instances, stats = build_training_instances(docs, index, extractor, config)
    weights, trace, converged = fit_weights(
        instances, config.sigma, len(registry), tol=tol, max_iter=max_iter, history=history
    )
    model = Model(weights=weights, registry=registry, pmi=pmi, config=config)
    return TrainResult(model=model, objective_trace=trace, converged=converged, stats=stats)


class Prediction(NamedTuple):
    doc_id: str
    mention_id: str
    entity_id: str  # KB id or NIL
    score: float
    surface: str
    nil_cluster: str | None = None


def decode(
    model: Model,
    doc: MentionDocument,
    index: AnchorIndex,
    *,
    stopwords: frozenset[str] | set[str] = frozenset(),
    extractor: FeatureExtractor | None = None,
) -> list[Prediction]:
    """Label every mention of a document with its best candidate (or NIL).

    Each connected component is decoded independently and exactly: the
    highest-scoring joint assignment over up to `max_candidates` candidates
    per mention wins, with exact ties going to the smallest id sequence. The
    reported score is that assignment's probability within its component
    (the same for all its mentions), not a per-mention confidence.
    """
    if extractor is None:
        extractor = FeatureExtractor(
            index,
            model.pmi,
            model.registry,
            stopwords=stopwords,
            window=model.config.context_window,
            top_n=model.config.top_n,
        )
    if extractor.registry != model.registry:
        raise ValueError("extractor registry does not match the model registry")

    view = extractor.document_view(doc)
    by_mention: dict[str, Prediction] = {}
    for component in connected_components(doc, model.config.gap):
        lists = candidate_lists(component, index, model.config.max_candidates)
        states = ChainStates(extractor.component_chain(component, lists, view))
        choice, score = states.decode(model.weights, [[c.entity_id for c in lst] for lst in lists])
        for mention, lst, j in zip(component.mentions, lists, choice):
            by_mention[mention.id] = Prediction(
                doc_id=doc.doc_id,
                mention_id=mention.id,
                entity_id=lst[j].entity_id,
                score=score,
                surface=mention.surface,
            )
    return [by_mention[m.id] for m in doc.mentions]


def nil_cluster(predictions: Iterable[Prediction]) -> list[Prediction]:
    """Assign cluster ids to NIL predictions by normalized surface form.

    Cluster ids are ordinals over the sorted set of normalized surfaces, so
    they are stable across runs on the same predictions.
    """
    predictions = list(predictions)
    surfaces = sorted(
        {normalize_name(p.surface) for p in predictions if p.entity_id == NIL}
    )
    cluster_of = {surface: f"NIL{i:04d}" for i, surface in enumerate(surfaces)}
    out = []
    for p in predictions:
        if p.entity_id == NIL:
            out.append(p._replace(nil_cluster=cluster_of[normalize_name(p.surface)]))
        else:
            out.append(p)
    return out


def write_predictions(predictions: Iterable[Prediction], path: str) -> None:
    """Write predictions as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in predictions:
            record = {
                "doc_id": p.doc_id,
                "mention_id": p.mention_id,
                "prediction": p.entity_id,
                "score": p.score,
            }
            if p.nil_cluster is not None:
                record["nil_cluster"] = p.nil_cluster
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def read_predictions(path: str) -> list[dict]:
    """Read prediction records written by `write_predictions`; each must be
    an object with string `doc_id` and `mention_id`, and a `prediction`."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not (
                isinstance(record, dict)
                and isinstance(record.get("doc_id"), str)
                and isinstance(record.get("mention_id"), str)
                and "prediction" in record
            ):
                raise ValueError(
                    f"{path}:{lineno}: a prediction needs string 'doc_id' and 'mention_id', and 'prediction'"
                )
            records.append(record)
    return records
