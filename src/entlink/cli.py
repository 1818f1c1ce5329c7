"""Command-line entry point: build-index, train, link, eval, selfcheck.

Runs are reproducible: no environment variables are consulted and nothing
in the pipeline is random (only `selfcheck` draws from its --seed).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

from .config import PipelineConfig
from .evaluator import EvalError, b3plus_f1, bot_f1, is_nil_label
from .features import FeatureExtractor
from .kb_store import NIL, AnchorIndex, FormatVersionError, KbError, build_index, load_kb_jsonl
from .maxent import (
    Model,
    TrainingError,
    decode,
    nil_cluster,
    read_predictions,
    train,
    write_predictions,
)
from .segmenter import DocumentError, load_documents
from .text_vsm import load_stopwords

log = logging.getLogger("entlink")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlink",
        description="Language-independent entity linking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("build-index", help="build the anchor-title index from a KB file")
    p_index.add_argument("--kb", required=True, help="line-delimited JSON KB records")
    p_index.add_argument("--out", required=True, help="output index file")
    p_index.set_defaults(func=cmd_build_index)

    p_train = sub.add_parser("train", help="train a linking model on gold-labeled documents")
    p_train.add_argument("--kb-index", required=True, help="index built by build-index")
    p_train.add_argument("--train", required=True, dest="train_docs", help="labeled documents (JSONL)")
    p_train.add_argument("--out", required=True, help="output model file")
    p_train.add_argument("--sigma", type=float, default=0.5)
    p_train.add_argument("--max-candidates", type=int, default=40)
    p_train.add_argument("--gap", type=int, default=4)
    p_train.add_argument("--window", type=int, default=100)
    p_train.add_argument("--top-n", type=int, default=200)
    p_train.add_argument("--stopwords", default=None, help="optional one-token-per-line file")
    p_train.add_argument("--blacklist-threshold", type=float, default=0.05)
    p_train.add_argument("--tol", type=float, default=1e-6)
    p_train.add_argument("--max-iter", type=int, default=500)
    p_train.set_defaults(func=cmd_train)

    p_link = sub.add_parser("link", help="label documents with a trained model")
    p_link.add_argument("--model", required=True)
    p_link.add_argument("--index", required=True)
    p_link.add_argument("--in", required=True, dest="input", help="documents to label (JSONL)")
    p_link.add_argument("--out", required=True, help="output predictions (JSONL)")
    p_link.add_argument("--stopwords", default=None)
    p_link.add_argument("--jobs", type=int, default=1, help="documents decoded in parallel")
    p_link.set_defaults(func=cmd_link)

    p_eval = sub.add_parser("eval", help="score predictions against gold documents")
    p_eval.add_argument("--metric", choices=("bot", "b3plus"), required=True)
    p_eval.add_argument("--pred", required=True, help="predictions (JSONL)")
    p_eval.add_argument("--gold", required=True, help="gold documents (JSONL)")
    p_eval.add_argument("--out", default=None, help="optional JSON report file")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("selfcheck", help="run built-in invariant checks on bundled fixtures")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_selfcheck)

    return parser


def cmd_build_index(args: argparse.Namespace) -> int:
    log.info("config: kb=%s out=%s", args.kb, args.out)
    index = build_index(load_kb_jsonl(args.kb))
    index.save(args.out)
    log.info(
        "indexed %d entries, %d anchors, %d redirect names (%d dangling links)",
        index.entry_count,
        len(index.postings),
        len(index.redirect_map),
        index.dangling_links,
    )
    if index.dangling_links:
        log.warning("%d outlink targets did not resolve to any KB id", index.dangling_links)
    return 0


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig(
        max_candidates=args.max_candidates,
        sigma=args.sigma,
        gap=args.gap,
        context_window=args.window,
        top_n=args.top_n,
    )
    config.validate()
    return config


def cmd_train(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    log.info("config: %s", config.to_dict())
    index = AnchorIndex.load(args.kb_index)
    docs = load_documents(args.train_docs)
    stopwords = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    result = train(
        docs,
        index,
        config,
        stopwords=stopwords,
        blacklist_threshold=args.blacklist_threshold,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    result.model.save(args.out)
    log.info(
        "trained on %d components (%d skipped unlabeled, %d with injected gold)",
        result.stats.components,
        result.stats.skipped_unlabeled,
        result.stats.injected_gold,
    )
    log.info(
        "objective %.6f -> %.6f over %d iterations (converged=%s)",
        result.objective_trace[0],
        result.objective_trace[-1],
        len(result.objective_trace) - 1,
        result.converged,
    )
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    model = Model.load(args.model)
    log.info("config: %s jobs=%d", model.config.to_dict(), args.jobs)
    index = AnchorIndex.load(args.index)
    docs = load_documents(args.input)
    stopwords = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    extractor = FeatureExtractor(
        index,
        model.pmi,
        model.registry,
        stopwords=stopwords,
        window=model.config.context_window,
        top_n=model.config.top_n,
    )

    def link_one(doc):
        return decode(model, doc, index, extractor=extractor)

    if args.jobs == 1:
        per_doc = [link_one(doc) for doc in docs]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            per_doc = list(pool.map(link_one, docs))  # map keeps input order

    predictions = nil_cluster([p for preds in per_doc for p in preds])
    write_predictions(predictions, args.out)
    n_nil = sum(1 for p in predictions if p.entity_id == NIL)
    log.info("linked %d mentions in %d documents (%d NIL)", len(predictions), len(docs), n_nil)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    records = read_predictions(args.pred)
    gold_docs = load_documents(args.gold)
    pred_doc_ids = {r["doc_id"] for r in records}
    gold_doc_ids = {d.doc_id for d in gold_docs}
    if pred_doc_ids != gold_doc_ids:
        diff = sorted(pred_doc_ids ^ gold_doc_ids)[:5]
        raise EvalError(f"prediction/gold document sets differ (e.g. {diff})")

    if args.metric == "bot":
        pred_by_doc: dict[str, list[str]] = {d: [] for d in gold_doc_ids}
        for r in records:
            pred_by_doc[r["doc_id"]].append(str(r["prediction"]))
        gold_by_doc = {
            d.doc_id: [m.gold for m in d.mentions if m.gold is not None] for d in gold_docs
        }
        report = bot_f1(pred_by_doc, gold_by_doc)
    else:
        gold_map = {
            (d.doc_id, m.id): m.gold
            for d in gold_docs
            for m in d.mentions
            if m.gold is not None
        }
        pred_map = {}
        for r in records:
            key = (r["doc_id"], r["mention_id"])
            if key not in gold_map:
                continue  # unlabeled mentions are not queries
            label = str(r["prediction"])
            if is_nil_label(label):
                label = str(r.get("nil_cluster", label))
            pred_map[key] = label
        report = b3plus_f1(pred_map, gold_map)

    print(report.table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, ensure_ascii=False, sort_keys=True, indent=2)
            fh.write("\n")
        log.info("report written to %s", args.out)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from .selfcheck import run_selfcheck

    failures = run_selfcheck(args.seed)
    return 1 if failures else 0


def run(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        KbError,
        DocumentError,
        EvalError,
        FormatVersionError,
        TrainingError,
        ValueError,
        OSError,
    ) as exc:
        log.error("%s", exc)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
