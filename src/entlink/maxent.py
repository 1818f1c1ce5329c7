"""Collective max-ent classifier: exact inference over each component's
linear chain (max-product to decode, forward-backward for log Z and the
expected features), the regularized conditional log-likelihood objective,
quasi-Newton training, and per-component decoding.

Inference runs over many chains at once, in one `ChainBatch`: training lays
out every instance in one batch, once, and each objective evaluation is one
batched forward-backward pass over it; decode runs a document's components
as one batch. A batch's states are built one layer (mention position) at a
time for all its chains together, each layer by one expansion of the layer
before, and numbered in their final order as they are built. The batch
order is fixed (chains in instance order, states layer by layer), so every
sum runs in a fixed order and training is bit-reproducible for a given data
order. A trained Model is immutable and may be read concurrently; decoding
different documents in parallel is safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import BLACKLIST_THRESHOLD, MAX_ITER, TOL, PipelineConfig
from .features import (
    ComponentChain,
    FeatureExtractor,
    FeatureRegistry,
    PmiTable,
    default_registry,
    train_pmi,
)
from .kb_store import NIL, AnchorIndex, Candidate, FormatVersionError, is_nil_label, normalize_name
from .segmenter import ConnectedComponent, MentionDocument, connected_components

MODEL_FORMAT_VERSION = 4
# Scores within NEAR_TIE * max(1, |best|) of the best are ties. Assignments
# with equal feature sums (a swap of two mentions' candidates) can differ in
# the last bits by summation order alone, and must still tie.
NEAR_TIE = 1e-9


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

    def extractor(self, index: AnchorIndex) -> FeatureExtractor:
        """The feature extractor that decodes with this model over `index`."""
        config = self.config
        return FeatureExtractor(index, self.pmi, self.registry, window=config.context_window, top_n=config.top_n)

    def save(self, path: str) -> None:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "registry": list(self.registry.names),
            "weights": self.weights.tolist(),
            "pmi": self.pmi.to_payload(),
            "config": self.config.to_dict(),
        }
        # Encoded before the file is opened: a failure leaves it as it was.
        blob = (json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(blob)

    @staticmethod
    def load(path: str) -> "Model":
        """Read a saved model; a corrupt or incompatible file raises
        FormatVersionError (or ValueError for out-of-range values), prefixed
        with the path."""
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
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, KeyError, TypeError, AttributeError) as exc:
            raise FormatVersionError(f"{path}: not a valid model file ({type(exc).__name__}: {exc})") from None
        except (FormatVersionError, ValueError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class TrainingInstance:
    """One gold-labeled component: its chain and the aggregate feature
    vector of its gold assignment."""

    chain: ComponentChain
    gold_features: np.ndarray

    @property
    def features(self) -> np.ndarray:
        """Unary rows of the chain, one per (mention, candidate)."""
        return self.chain.features


def _segment_logsumexp(values: np.ndarray, starts: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """log-sum-exp of each run of `values` that begins at one of `starts`;
    `segment` numbers each value's run."""
    top = np.maximum.reduceat(values, starts)
    return np.log(np.add.reduceat(np.exp(values - top[segment]), starts)) + top


def _segment_max(values: np.ndarray, starts: np.ndarray, segment: np.ndarray) -> np.ndarray:
    return np.maximum.reduceat(values, starts)


def _segments(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given positive lengths laid end to end: where each run
    starts, and each element's run number."""
    return np.cumsum(lengths) - lengths, np.repeat(np.arange(lengths.size), lengths)


class ChainBatch:
    """Exact inference over many `ComponentChain`s at once, in time linear
    in their total length.

    A state at mention i is a (candidate, mask) pair: the mask is the AND of
    the boolean bits of the candidates chosen at mentions 0..i, so the last
    state's mask gives the assignment's boolean features. Only reachable
    states are kept, at most 2**n_booleans per candidate. Every assignment
    is one path through the states, so max-product gives the best assignment
    and sum-product gives log Z and the marginals (Lafferty, McCallum and
    Pereira 2001, with the mask added to the state).

    The layout is built once and does not depend on the weights. The
    chains' unary, pair and mask rows are stacked in chain order. States are
    numbered layer by layer, layer i holding mention i's states of every
    chain that long, and within a layer chain by chain, then by candidate,
    then by mask. Layer 0 is every candidate of every chain's first mention;
    each later layer is built from the one before, for all chains at once, by
    one expansion of its states into the next mention's candidates. Each
    state is keyed by its unary row and mask, so sorting the keys numbers
    the new layer in that order and merges equal states. Transitions are
    numbered step by step, one contiguous run per source state in state
    order; the forward pass reads them through a stable sort by
    destination. A pass takes one segmented numpy reduction per layer,
    however many chains there are.
    """

    def __init__(self, chains: Sequence[ComponentChain]):
        self.chains = tuple(chains)
        width = self.chains[0].features.shape[1] if self.chains else 0
        no_rows, no_ints = np.zeros((0, width)), np.zeros(0, np.intp)
        self.unary = np.concatenate([chain.features for chain in self.chains] or [no_rows])
        self.pair = np.concatenate([b.reshape(-1, width) for chain in self.chains for b in chain.pairs] or [no_rows])
        self.mask = np.concatenate([chain.mask_features for chain in self.chains] or [no_rows])
        bits = np.concatenate([chain.bits for chain in self.chains] or [no_ints])
        mask_rows = np.array([len(chain.mask_features) for chain in self.chains], np.intp)
        mask_at = mask_rows.cumsum() - mask_rows  # each chain's first mask row
        n_masks = int(mask_rows.max(initial=1))

        # Per mention, chain by chain: its candidate count, the next mention's
        # in its chain (0 for the last), and whether it starts its chain.
        sizes = [chain.sizes for chain in self.chains]
        size = np.array([k for s in sizes for k in s], np.intp)
        size_next = np.array([k for s in sizes for k in s[1:] + (0,)], np.intp)
        first = np.array([i == 0 for s in sizes for i in range(len(s))], bool)
        # Per unary row: its chain, its candidate position, and the
        # transitions out of it: their count and the unary and pair rows of
        # the first (to the next mention's candidate 0).
        row_chain = (first.cumsum() - 1).repeat(size)
        row_end, pair_size = size.cumsum(), size * size_next
        cand = np.arange(row_chain.size) - (row_end - size).repeat(size)
        n_out = size_next.repeat(size)
        out_row = row_end.repeat(size)
        out_pair = (pair_size.cumsum() - pair_size).repeat(size) + cand * n_out

        # A state's key is its unary row * n_masks + its mask. Layer 0: the
        # candidates of every chain's first mention, each with its own bits.
        row = first.repeat(size).nonzero()[0]
        keys = row * n_masks + bits[row]
        layers = []  # per layer, its states' keys
        edges = [(no_ints, no_ints, no_ints)]  # per step, its (sources, destinations, pair rows)
        # Number of each layer's first state, then the state count; of each
        # step's first transition, then the transition count.
        self.layer_at, self.step_at, self.backward_steps = [0], [0], []
        while keys.size:
            layers.append(keys)
            self.layer_at.append(self.layer_at[-1] + keys.size)
            row, mask = np.divmod(keys, n_masks)
            go = n_out[row].nonzero()[0]
            if not go.size:
                break
            starts, segment = _segments(n_out[row[go]])
            src = go[segment]
            nxt = np.arange(src.size) - starts[segment]  # the candidate each transition moves to
            # t follows s only when t's mask is the AND of s's mask and the
            # bits of t's candidate.
            dst_row = out_row[row[src]] + nxt
            keys, dst = np.unique(dst_row * n_masks + (mask[src] & bits[dst_row]), return_inverse=True)
            base, lo = self.layer_at[-2], self.step_at[-1]
            self.step_at.append(lo + src.size)
            self.backward_steps.append((slice(lo, lo + src.size), base + go, starts, segment))
            edges.append((base + src, self.layer_at[-1] + dst, out_pair[row[src]] + nxt))

        self.state_row, state_mask = np.divmod(np.concatenate(layers or [no_ints]), n_masks)
        self.state_cand = cand[self.state_row]
        self.state_chain = row_chain[self.state_row]
        self.end_states = (n_out[self.state_row] == 0).nonzero()[0]
        # the last states' masks select the rows of their chain's boolean features
        self.end_rows = mask_at[self.state_chain[self.end_states]] + state_mask[self.end_states]
        n_first = self.layer_at[1] if layers else 0
        self.first_rows, self.first_chain = self.state_row[:n_first], self.state_chain[:n_first]
        # each chain's first states: chain_at[c]:chain_at[c + 1]
        self.chain_at = self.first_chain.searchsorted(np.arange(len(self.chains) + 1))
        self.edge_src, self.edge_dst, self.edge_pair = map(np.concatenate, zip(*edges))
        self.edge_chain = self.state_chain[self.edge_src]
        self.edge_unary = self.state_row[self.edge_dst]

    @cached_property
    def forward_steps(self) -> list[tuple]:
        """Per step, its transitions in a stable order by destination, their
        sources, and the runs of each destination: the forward pass's layout,
        built on first use, as only training runs that pass."""
        order = np.argsort(self.edge_dst, kind="stable")
        # every state after layer 0 has an incoming transition: one run per destination
        incoming = np.bincount(self.edge_dst, minlength=self.layer_at[-1])
        return [
            (order[lo:hi], self.edge_src[order[lo:hi]], *_segments(incoming[dst_lo:dst_hi]), dst_lo, dst_hi)
            for lo, hi, dst_lo, dst_hi in zip(self.step_at, self.step_at[1:], self.layer_at[1:], self.layer_at[2:])
        ]

    def _potentials(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log-potentials: each first-layer state's score, each transition's
        score (its pair row and its destination's unary row), and the boolean
        features' score at each chain's last-layer states."""
        unary = self.unary @ weights
        edge = (self.pair @ weights)[self.edge_pair] + unary[self.edge_unary]
        return unary[self.first_rows], edge, (self.mask @ weights)[self.end_rows]

    def _backward(self, edge: np.ndarray, end: np.ndarray, reduce) -> np.ndarray:
        """Per state, the reduced (max or log-sum) score of every way to
        finish its chain from it."""
        beta = np.empty(self.layer_at[-1])
        beta[self.end_states] = end
        for step, sources, starts, segment in reversed(self.backward_steps):
            beta[sources] = reduce(edge[step] + beta[self.edge_dst[step]], starts, segment)
        return beta

    def _log_z(self, start: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return _segment_logsumexp(start + beta[: start.size], self.chain_at[:-1], self.first_chain)

    def expectation(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log Z of each chain, and the expected aggregate feature vector
        E_P[f] summed over the chains."""
        start, edge, end = self._potentials(weights)
        beta = self._backward(edge, end, _segment_logsumexp)
        alpha = np.empty_like(beta)
        alpha[: start.size] = start
        for order, sources, starts, segment, lo, hi in self.forward_steps:
            alpha[lo:hi] = _segment_logsumexp(alpha[sources] + edge[order], starts, segment)
        log_z = self._log_z(start, beta)
        states = np.exp(alpha + beta - log_z[self.state_chain])
        edges = np.exp(alpha[self.edge_src] + edge + beta[self.edge_dst] - log_z[self.edge_chain])
        expected = (
            np.bincount(self.state_row, states, minlength=len(self.unary)) @ self.unary
            + np.bincount(self.edge_pair, edges, minlength=len(self.pair)) @ self.pair
            + np.bincount(self.end_rows, states[self.end_states], minlength=len(self.mask)) @ self.mask
        )
        return log_z, expected

    def decode(self, weights: np.ndarray, ids: Sequence[Sequence[Sequence[str]]]) -> list[tuple[list[int], float]]:
        """Per chain, the best assignment (candidate positions) and its
        probability; `ids[c][i][j]` is the id of candidate j of mention i of
        chain c.

        Among assignments tied with the best score (up to `NEAR_TIE`), the
        smallest id sequence wins: each mention takes the smallest id among
        the choices that still reach the best score.
        """
        if not self.chains:
            return []
        start, edge, end = self._potentials(weights)
        best_rest = self._backward(edge, end, _segment_max)
        log_z = self._log_z(start, self._backward(edge, end, _segment_logsumexp))
        first_scores = start + best_rest[: start.size]
        # Transitions out of state s: edge_*[out_at[s]:out_at[s + 1]].
        out_at = np.searchsorted(self.edge_src, np.arange(self.layer_at[-1] + 1))
        decoded = []
        for c, chain_ids in enumerate(ids):
            states = np.arange(self.chain_at[c], self.chain_at[c + 1])
            scores = first_scores[states]
            best = float(scores.max())
            tol = NEAR_TIE * max(1.0, abs(best))
            choice = []
            for i, mention_ids in enumerate(chain_ids):
                tied = states[scores >= scores.max() - tol]
                state = min(tied, key=lambda s: mention_ids[self.state_cand[s]])
                choice.append(int(self.state_cand[state]))
                if i + 1 < len(chain_ids):
                    out = slice(out_at[state], out_at[state + 1])
                    states, scores = self.edge_dst[out], edge[out] + best_rest[self.edge_dst[out]]
            decoded.append((choice, float(np.exp(best - log_z[c]))))
        return decoded


class TrainingBatch:
    """Training instances laid out once for `cll_objective`: their chains in
    one `ChainBatch`, in instance order, and their gold feature vectors
    summed."""

    def __init__(self, instances: Sequence[TrainingInstance]):
        self.chains = ChainBatch([inst.chain for inst in instances])
        self.gold = np.sum([inst.gold_features for inst in instances], axis=0)


def cll_objective(weights: np.ndarray, batch: TrainingBatch, sigma: float) -> tuple[float, np.ndarray]:
    """L2-regularized conditional log-likelihood and its gradient.

    value    = sum_i log P(gold_i) - sigma * ||w||^2
    gradient = sum_i (f(gold_i) - E_P[f]) - 2 * sigma * w
    """
    weights = np.asarray(weights, dtype=float)
    value = -sigma * float(weights @ weights)
    grad = -2.0 * sigma * weights
    if batch.chains.chains:
        log_z, expected = batch.chains.expectation(weights)
        value += float(batch.gold @ weights) - float(log_z.sum())
        grad = grad + (batch.gold - expected)
    return value, grad


def fit_weights(
    instances: Sequence[TrainingInstance],
    sigma: float,
    dim: int,
    *,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
) -> tuple[np.ndarray, list[float], bool]:
    """Maximize the objective with L-BFGS (memory 10) from a zero start.

    Returns (weights, per-iterate objective trace, converged). The objective
    is concave, so any stationary point is the global optimum; accepted steps
    never decrease the objective. The trace and the convergence test reuse
    the optimizer's own evaluation at each accepted iterate.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # Imported here: only training needs scipy, and it takes longer to import
    # than everything else that `entlink link` loads.
    from scipy.optimize import minimize

    batch = TrainingBatch(instances)
    last: list = []  # [w, value, grad] of the latest evaluation

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        if not last or not np.array_equal(w, last[0]):
            value, grad = cll_objective(w, batch, sigma)
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
        options={"maxcor": 10, "maxiter": max_iter, "gtol": tol, "ftol": 1e-14},
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


def _gold_labels(component: ConnectedComponent) -> list[str] | None:
    """The labels a component trains on, a NIL cluster label (`NIL0001`)
    read as NIL; None if a mention is unlabeled, as then it does not train."""
    if any(m.gold is None for m in component.mentions):
        return None
    return [NIL if is_nil_label(m.gold) else m.gold for m in component.mentions]


def build_training_instances(
    docs: Iterable[MentionDocument],
    index: AnchorIndex,
    extractor: FeatureExtractor,
    config: PipelineConfig,
) -> tuple[list[TrainingInstance], BuildStats]:
    """Turn gold-labeled documents into per-component training instances.

    Components that do not train (see `_gold_labels`) are skipped and
    counted. When retrieval misses a mention's gold entity, the gold
    candidate is injected into that mention's list so the gold assignment is
    one of the chain's assignments; injections are counted in the stats.
    """
    instances: list[TrainingInstance] = []
    stats = BuildStats()
    for doc in docs:
        view = extractor.document_view(doc)
        for component in connected_components(doc, config.gap):
            stats.components += 1
            golds = _gold_labels(component)
            if golds is None:
                stats.skipped_unlabeled += 1
                continue
            lists, gold_choice = [], []
            injected = False
            for mention, gold in zip(component.mentions, golds):
                candidates = index.fast_search(mention.surface, config.max_candidates)
                ids = [c.entity_id for c in candidates]
                if gold not in ids:
                    # keep NIL last so list order stays prior-ranked
                    candidates.insert(-1, Candidate(gold, index.link_prior(mention.surface, gold)))
                    ids.insert(-1, gold)
                    injected = True
                lists.append(candidates)
                gold_choice.append(ids.index(gold))
            stats.injected_gold += injected
            chain = extractor.component_chain(component, lists, view)
            instances.append(TrainingInstance(chain, chain.assignment_features(gold_choice)))
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
    blacklist_threshold: float = BLACKLIST_THRESHOLD,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
) -> TrainResult:
    """End-to-end training: PMI table from gold sequences, then weights.

    Deterministic for a fixed document order.
    """
    config = config if config is not None else PipelineConfig()
    config.validate()
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not 0 <= blacklist_threshold <= 1:
        raise ValueError("blacklist_threshold must be between 0 and 1")
    docs = list(docs)
    # A sweep of its own: category_pmi, a pair feature, reads the table in every chain.
    components = [c for doc in docs for c in connected_components(doc, config.gap)]
    gold_sequences = [golds for golds in map(_gold_labels, components) if golds is not None]
    pmi = train_pmi(gold_sequences, index, blacklist_threshold)
    registry = default_registry()
    extractor = FeatureExtractor(index, pmi, registry, window=config.context_window, top_n=config.top_n)
    instances, stats = build_training_instances(docs, index, extractor, config)
    weights, trace, converged = fit_weights(instances, config.sigma, len(registry), tol=tol, max_iter=max_iter)
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
    extractor: FeatureExtractor | None = None,
) -> list[Prediction]:
    """Label every mention of a document with its best candidate (or NIL),
    in the order of `doc.mentions`.

    Each connected component is decoded independently and exactly: the
    highest-scoring joint assignment over up to `max_candidates` candidates
    per mention wins, with ties going to the smallest id sequence. The
    reported score is that assignment's probability within its component
    (the same for all its mentions), not a per-mention confidence. Reuse
    one `Model.extractor(index)` across documents; without an `extractor`,
    decode builds a fresh one, and one built otherwise raises ValueError.
    """
    if extractor is None:
        extractor = model.extractor(index)
    elif not (
        extractor.index is index
        and extractor.pmi == model.pmi
        and extractor.registry == model.registry
        and extractor.window == model.config.context_window
        and extractor.top_n == model.config.top_n
    ):
        raise ValueError("the extractor was not built for this model and index; use Model.extractor(index)")

    view = extractor.document_view(doc)
    components = connected_components(doc, model.config.gap)
    lists = [[index.fast_search(m.surface, model.config.max_candidates) for m in c.mentions] for c in components]
    batch = ChainBatch([extractor.component_chain(c, ls, view) for c, ls in zip(components, lists)])
    decoded = batch.decode(model.weights, [[[c.entity_id for c in lst] for lst in ls] for ls in lists])
    predictions = []  # components are contiguous runs of doc.mentions, in order
    for component, ls, (choice, score) in zip(components, lists, decoded):
        for mention, lst, j in zip(component.mentions, ls, choice):
            predictions.append(Prediction(
                doc_id=doc.doc_id,
                mention_id=mention.id,
                entity_id=lst[j].entity_id,
                score=score,
                surface=mention.surface,
            ))
    return predictions


def nil_cluster(predictions: Iterable[Prediction]) -> list[Prediction]:
    """Assign cluster ids to NIL predictions by normalized surface form.

    Cluster ids are ordinals over the sorted set of normalized surfaces, so
    they are stable across runs on the same predictions.
    """
    predictions = list(predictions)
    keys = {i: normalize_name(p.surface) for i, p in enumerate(predictions) if p.entity_id == NIL}
    cluster_of = {surface: f"NIL{i:04d}" for i, surface in enumerate(sorted(set(keys.values())))}
    return [p._replace(nil_cluster=cluster_of[keys[i]]) if i in keys else p for i, p in enumerate(predictions)]


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
    an object with string `doc_id`, `mention_id` and `prediction`, and a
    string `nil_cluster` if it has one."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not (
                isinstance(record, dict)
                and all(isinstance(record.get(k), str) for k in ("doc_id", "mention_id", "prediction"))
                and isinstance(record.get("nil_cluster", ""), str)
            ):
                raise ValueError(
                    f"{path}:{lineno}: a prediction needs string 'doc_id', 'mention_id' and 'prediction',"
                    " and 'nil_cluster' must be a string if present"
                )
            records.append(record)
    return records
