"""entlink benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; entlink is imported from `src/`.
The workload's inputs are generated from the seed into a scratch directory
under perfbench/runs/, the program reads only those files, and the directory
is removed at the end.

With --trace 0 the run measures the end-to-end metrics: for --seconds it
repeats rounds of `link` set-up as a process, index build, training and a
single-thread link pass, and reports the median of each. With --trace 1 it
alternates untraced and traced in-process pipeline rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead. Either way
it then runs every correctness check of checks.py on the outputs. The last
line of standard output is the result; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread, in this process and in the ones it starts: link is
# measured single-threaded, and the machine the figures come from has two
# shared CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

CLI_MAIN = "import sys; from entlink.cli import main; main()"

# The operations of one end-to-end round. An operation much shorter than the
# others runs more than once per round, so that every timing gets enough
# samples in a run: bulk's index build and set-up take about three times as
# long as its training and link pass, and collective's small KB builds in a
# tenth of a training.
ROUNDS = {
    "bulk": ("build", "train", "link", "setup", "train", "link"),
    "collective": ("build", "train", "build", "link", "train", "build", "setup"),
}
CHILD_TIMEOUT = 120


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def import_entlink():
    """Import entlink from this checkout's src/, never from elsewhere."""
    if not (SRC / "entlink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no entlink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entlink
    from entlink import cli, evaluator, features, kb_store, maxent, segmenter, text_vsm
    from entlink.config import PipelineConfig

    if Path(entlink.__file__).resolve().parent != (SRC / "entlink").resolve():
        raise SystemExit(f"perfbench: imported entlink from {entlink.__file__}, not {SRC}")
    # The in-process CLI runs would log every eval and link to standard error.
    logging.getLogger("entlink").setLevel(logging.WARNING)
    return dict(cli=cli, evaluator=evaluator, features=features, kb_store=kb_store,
                maxent=maxent, segmenter=segmenter, text_vsm=text_vsm, PipelineConfig=PipelineConfig)


def median_or_none(values: list[float]) -> float | None:
    """The median, or None when every attempt of the operation failed."""
    return median(values) if values else None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Bench:
    """Runs one workload's rounds over its generated inputs."""

    def __init__(self, el: dict, workload: str, workdir: Path, seconds: float, min_rounds: int):
        self.el = el
        self.workload = workload
        self.dir = workdir
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.kb_files = [workdir / "kb.jsonl", workdir / "kb_shuffled.jsonl"]
        self.train_path = workdir / "train.jsonl"
        self.test_path = workdir / "test.jsonl"
        self.index_path = workdir / "index.bin"
        self.model_path = workdir / "model.json"
        self.pred_path = workdir / "pred.jsonl"
        self.empty_path = workdir / "empty.jsonl"
        self.empty_path.write_text("")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] = {}   # artifact name -> digest of its first output
        self.built_postings: str | None = None  # digest of the first build's postings
        self.round_trip_checked = False
        self.index = None
        self.model = None
        self.train_result = None
        self.traces: list[list[float]] = []
        self.test_records = checks.read_jsonl(self.test_path)
        self.mentions = sum(len(d["mentions"]) for d in self.test_records)
        self.builds = 0

    # -- artifacts ---------------------------------------------------------------

    def same_as_first(self, name: str, path: Path) -> None:
        """Every later output of an artifact must equal its first, byte for byte."""
        digest = hashlib.sha256(path.read_bytes()).digest()
        first = self.reference.setdefault(name, digest)
        if digest != first:
            self.problems.append(f"{name} differs between identical runs")

    def op(self, name: str, fn):
        """Run one operation; return what it returns, or None if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # count the failure and keep the round whole
            self.failed += 1
            log(f"{name} failed:\n{traceback.format_exc()}")
            return None

    # -- the operations ------------------------------------------------------------

    def build(self) -> float:
        kb_store = self.el["kb_store"]
        kb = self.kb_files[self.builds % 2]  # alternate record orders
        self.builds += 1
        # The loaded index is dropped first: `entlink build-index` holds one
        # index, and peak_rss_mb is to measure the program, not this harness.
        self.index = None
        start = time.perf_counter()
        index = kb_store.build_index(kb_store.load_kb_jsonl(str(kb)))
        index.save(str(self.index_path))
        elapsed = time.perf_counter() - start
        self.same_as_first("index (under shuffled KB record order)", self.index_path)
        if self.built_postings is None:
            self.built_postings = checks.postings_digest(index.postings)
        return elapsed

    def load_index(self) -> None:
        self.index = self.el["kb_store"].AnchorIndex.load(str(self.index_path))
        # Every build writes the same bytes (checked above), so one round
        # trip covers them all.
        if not self.round_trip_checked:
            self.round_trip_checked = True
            self.problems += checks.check_round_trip(self.built_postings, self.index.postings)

    def ensure_loaded(self, model: bool = False) -> None:
        """Load the index (dropped by every build) and, if asked, the model,
        each as an operation of its own."""
        if self.index is None:
            self.op("load index", self.load_index)
        if model and self.model is None:
            self.op("load model", self.load_model)

    def train(self) -> float:
        el = self.el
        start = time.perf_counter()
        docs = el["segmenter"].load_documents(str(self.train_path))
        result = el["maxent"].train(docs, self.index, el["PipelineConfig"]())
        result.model.save(str(self.model_path))
        elapsed = time.perf_counter() - start
        self.same_as_first("model", self.model_path)
        self.train_result = result
        self.traces.append(result.objective_trace)
        return elapsed

    def load_model(self) -> None:
        self.model = self.el["maxent"].Model.load(str(self.model_path))

    def new_extractor(self):
        """A fresh FeatureExtractor for the loaded model, as `entlink link` builds it."""
        model = self.model
        return self.el["features"].FeatureExtractor(
            self.index, model.pmi, model.registry,
            window=model.config.context_window, top_n=model.config.top_n,
        )

    def link(self) -> float:
        maxent = self.el["maxent"]
        start = time.perf_counter()
        docs = self.el["segmenter"].load_documents(str(self.test_path))
        extractor = self.new_extractor()
        predictions = [p for doc in docs for p in maxent.decode(self.model, doc, self.index, extractor=extractor)]
        maxent.write_predictions(maxent.nil_cluster(predictions), str(self.pred_path))
        elapsed = time.perf_counter() - start
        self.same_as_first("predictions", self.pred_path)
        return elapsed

    def setup(self) -> float:
        out = self.dir / "empty_pred.jsonl"
        cmd = [sys.executable, "-c", CLI_MAIN, "link", "--model", str(self.model_path),
               "--index", str(self.index_path), "--in", str(self.empty_path), "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"link exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        if out.read_bytes():
            raise RuntimeError("link wrote predictions for an empty document file")
        return elapsed

    def evaluate(self) -> dict[str, float]:
        """F1 through `entlink eval`, run in this process."""
        cli = self.el["cli"]
        scores = {}
        for metric in ("bot", "b3plus"):
            report = self.dir / f"eval_{metric}.json"
            argv = ["eval", "--metric", metric, "--pred", str(self.pred_path),
                    "--gold", str(self.test_path), "--out", str(report)]
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.run(argv)
            if status != 0:
                raise RuntimeError(f"eval --metric {metric} exited {status}")
            scores[f"{metric}_f1"] = json.loads(report.read_text())["f1"]
        return scores

    # -- end-to-end run --------------------------------------------------------------

    def run_end_to_end(self) -> dict:
        samples: dict[str, list[float]] = {k: [] for k in ("build", "train", "link", "setup")}
        deadline = time.perf_counter() + self.seconds
        rounds: list[float] = []
        ops = {"build": self.build, "train": self.train, "link": self.link, "setup": self.setup}
        while True:
            start = time.perf_counter()
            for name in ROUNDS[self.workload]:
                if name in ("train", "link"):
                    self.ensure_loaded(model=name == "link")
                elapsed = self.op(name, ops[name])
                if elapsed is not None:
                    samples[name].append(elapsed)
            rounds.append(time.perf_counter() - start)
            if time.perf_counter() + median(rounds) > deadline:
                break
        log(f"{len(rounds)} rounds in {sum(rounds):.1f}s")
        for name, values in samples.items():
            log(f"{name} samples (s): " + " ".join(f"{v:.3f}" for v in values))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB to MB
        scores = self.op("eval", self.evaluate) or {}
        self.run_checks(scores)
        link_s = median_or_none(samples["link"])
        return {
            "setup_s": median_or_none(samples["setup"]),
            "build_index_s": median_or_none(samples["build"]),
            "train_s": median_or_none(samples["train"]),
            "link_mentions_per_s": self.mentions / link_s if link_s else None,
            "index_mb": self.index_path.stat().st_size / 1e6 if self.index_path.exists() else None,
            "peak_rss_mb": peak_rss_mb,
            "bot_f1": scores.get("bot_f1"),
            "b3plus_f1": scores.get("b3plus_f1"),
        }

    # -- traced run ------------------------------------------------------------------

    def pipeline_round(self) -> None:
        """Every stage in this process, as the CLI commands run them."""
        self.build()
        self.load_index()
        self.train()
        self.load_model()
        self.link()
        self.evaluate()

    def trace_targets(self) -> list[Target]:
        el = self.el
        kb, seg, feat, mx = el["kb_store"], el["segmenter"], el["features"], el["maxent"]
        index_cls, extractor_cls = kb.AnchorIndex, feat.FeatureExtractor
        normalize = kb.normalize_name

        def tokenize_after(c, args, kwargs, result):
            c["tokenize_chars"] += len(args[0])

        def lookup_after(c, args, kwargs, result):
            if normalize(args[1]) not in args[0].postings:
                c["subword_fallback_lookups"] += 1

        def fast_search_after(c, args, kwargs, result):
            c["kb_candidates"] += len(result) - 1

        def components_after(c, args, kwargs, result):
            c["components"] += len(result)
            c["max_component_size"] = max([c["max_component_size"]] + [len(x.mentions) for x in result])

        def enumerate_after(c, args, kwargs, result):
            c["tuples_enumerated"] += len(result)

        def instances_after(c, args, kwargs, result):
            c["tuples_enumerated"] += sum(inst.features.shape[0] for inst in result[0])

        T = Target
        return [
            T(el["text_vsm"], "tokenize", "text_vsm.tokenize", tokenize_after, leaf=True),
            T(el["text_vsm"], "cosine", "text_vsm.cosine", leaf=True),
            T(kb, "load_kb_jsonl", "kb_store.load_kb_jsonl", leaf=True),
            T(kb, "build_index", "kb_store.build_index"),
            T(index_cls, "to_bytes", "kb_store.AnchorIndex.to_bytes"),
            T(index_cls, "from_bytes", "kb_store.AnchorIndex.from_bytes"),
            T(index_cls, "save", "kb_store.AnchorIndex.save"),
            T(index_cls, "load", "kb_store.AnchorIndex.load"),
            T(index_cls, "fast_search", "kb_store.AnchorIndex.fast_search", fast_search_after, leaf=True),
            T(index_cls, "lookup", "kb_store.AnchorIndex.lookup", lookup_after, leaf=True),
            T(seg, "load_documents", "segmenter.load_documents"),
            T(seg, "connected_components", "segmenter.connected_components", components_after, leaf=True),
            T(seg, "candidate_lists", "segmenter.candidate_lists", leaf=True),
            T(seg, "enumerate_tuples", "segmenter.enumerate_tuples", enumerate_after, leaf=True),
            T(feat, "train_pmi", "features.train_pmi"),
            T(extractor_cls, "document_view", "features.FeatureExtractor.document_view", leaf=True),
            T(extractor_cls, "tuple_features", "features.FeatureExtractor.tuple_features", leaf=True),
            T(mx, "train", "maxent.train"),
            T(mx, "build_training_instances", "maxent.build_training_instances", instances_after),
            T(mx, "fit_weights", "maxent.fit_weights"),
            T(mx, "cll_objective", "maxent.cll_objective", leaf=True),
            T(mx, "decode", "maxent.decode", keep_durations=True),
            T(mx, "nil_cluster", "maxent.nil_cluster"),
            T(mx, "write_predictions", "maxent.write_predictions"),
            T(mx.Model, "save", "maxent.Model.save"),
            T(mx.Model, "load", "maxent.Model.load"),
            T(el["evaluator"], "bot_f1", "evaluator.bot_f1"),
            T(el["evaluator"], "b3plus_f1", "evaluator.b3plus_f1"),
            T(el["cli"], "run", "cli.run"),
            T(el["cli"], "cmd_eval", "cli.cmd_eval"),
        ]

    def run_traced(self, trace_path: Path) -> dict:
        tracer = Tracer()
        targets = self.trace_targets()
        untraced: list[float] = []
        traced: list[float] = []
        per_round: list[dict[str, float]] = []
        doc_decode_ms: list[list[float]] = [[] for _ in self.test_records]
        deadline = time.perf_counter() + self.seconds
        while True:
            start = time.perf_counter()
            self.op("untraced round", self.pipeline_round)
            untraced.append(time.perf_counter() - start)
            tracer.reset()
            missing = tracer.install(targets)
            try:
                start = time.perf_counter()
                self.op("traced round", self.pipeline_round)
                traced.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
            per_round.append(self.layer_times(tracer))
            # One link pass decodes the test documents once each, in file order.
            decodes = tracer.durations.get("maxent.decode", [])
            if len(decodes) == len(doc_decode_ms):
                for times, d in zip(doc_decode_ms, decodes):
                    times.append(d * 1e3)
            else:
                self.problems.append(f"a traced round decoded {len(decodes)} times "
                                     f"for {len(doc_decode_ms)} test documents")
            enough = len(traced) >= self.min_rounds or self.failed
            if enough and time.perf_counter() + untraced[-1] + traced[-1] > deadline:
                break
        log(f"{len(traced)} traced and {len(untraced)} untraced rounds")
        if missing:
            log("not in this version of entlink, so not traced: " + ", ".join(missing))
        tracer.write(str(trace_path))
        layer = {name: median([r[name] for r in per_round]) for name in per_round[0]}
        layer.update(self.layer_counts(tracer))
        # Percentiles over distinct documents, each at its median over the
        # traced rounds: repeats of one document are not more samples. The
        # p75 leaves a quarter of the documents beyond it, five of
        # collective's 21.
        doc_ms = sorted(median(times) for times in doc_decode_ms if times)
        layer["maxent.decode_doc_p50_ms"] = median(doc_ms)
        layer["maxent.decode_doc_p75_ms"] = statistics.quantiles(doc_ms, n=4)[-1]
        layer["cli.import_s"] = self.import_seconds()
        layer["cli.link_jobs2_mentions_per_s"] = self.link_jobs2()
        layer["bench.trace_overhead_s"] = median(traced) - median(untraced)
        self.run_checks(self.op("eval", self.evaluate) or {})
        return layer

    def layer_times(self, tr: Tracer) -> dict[str, float]:
        return {
            "text_vsm.tokenize_self_s": tr.self_time("text_vsm.tokenize"),
            "text_vsm.cosine_self_s": tr.self_time("text_vsm.cosine"),
            "kb_store.load_kb_jsonl_s": tr.total("kb_store.load_kb_jsonl"),
            "kb_store.build_index_s": tr.total_outside("kb_store.build_index", "kb_store.AnchorIndex.from_bytes"),
            "kb_store.to_bytes_s": tr.total("kb_store.AnchorIndex.to_bytes"),
            "kb_store.from_bytes_s": tr.total("kb_store.AnchorIndex.from_bytes"),
            "kb_store.fast_search_self_s": tr.self_time("kb_store.AnchorIndex.fast_search"),
            "segmenter.connected_components_s": tr.total("segmenter.connected_components"),
            "features.document_view_s": tr.total("features.FeatureExtractor.document_view"),
            "features.tuple_features_self_s": tr.self_time("features.FeatureExtractor.tuple_features"),
            "maxent.build_training_instances_s": tr.total("maxent.build_training_instances"),
            "maxent.fit_weights_s": tr.total("maxent.fit_weights"),
            "maxent.cll_objective_self_s": tr.self_time("maxent.cll_objective"),
            "maxent.nil_cluster_s": tr.total("maxent.nil_cluster"),
            "maxent.model_save_s": tr.total("maxent.Model.save"),
            "maxent.model_load_s": tr.total("maxent.Model.load"),
            "evaluator.bot_f1_s": tr.total("evaluator.bot_f1"),
            "evaluator.b3plus_f1_s": tr.total("evaluator.b3plus_f1"),
        }

    def layer_counts(self, tr: Tracer) -> dict[str, float]:
        """Counts of the last traced round, plus retrieval figures computed
        over the test mentions with the untraced public API."""
        c = tr.counters
        searches = tr.calls("kb_store.AnchorIndex.fast_search")
        retrieval = self.retrieval_counts()
        return {
            "text_vsm.tokenize_calls": tr.calls("text_vsm.tokenize"),
            "text_vsm.tokenize_chars": c["tokenize_chars"],
            "text_vsm.cosine_calls": tr.calls("text_vsm.cosine"),
            "kb_store.fast_search_calls": searches,
            "kb_store.subword_fallback_lookups": c["subword_fallback_lookups"],
            "kb_store.candidates_per_mention": c["kb_candidates"] / searches if searches else 0.0,
            "kb_store.gold_recall": retrieval["gold_recall"],
            "segmenter.components": c["components"],
            "segmenter.max_component_size": c["max_component_size"],
            "segmenter.tuples_enumerated": c["tuples_enumerated"],
            "segmenter.budget_capped_components": retrieval["capped"],
            "features.tuple_features_calls": tr.calls("features.FeatureExtractor.tuple_features"),
            "features.distinct_candidate_entities": retrieval["distinct"],
            "maxent.cll_objective_calls": tr.calls("maxent.cll_objective"),
            "maxent.lbfgs_iterations": len(self.train_result.objective_trace) - 1,
            "maxent.decode_calls": tr.calls("maxent.decode"),
        }

    def retrieval_counts(self) -> dict:
        """Gold recall of retrieval, components over the tuple budget, and
        distinct KB candidates, over the test documents' components."""
        seg, cfg = self.el["segmenter"], self.model.config
        budget = getattr(cfg, "tuple_budget", math.inf)
        found = in_kb = capped = 0
        distinct: set[str] = set()
        for doc in seg.load_documents(str(self.test_path)):
            for comp in seg.connected_components(doc, cfg.gap):
                full = [self.index.fast_search(m.surface, cfg.max_candidates) for m in comp.mentions]
                if math.prod(len(lst) for lst in full) > budget:
                    capped += 1
                for m, lst in zip(comp.mentions, full):
                    ids = {c.entity_id for c in lst}
                    distinct |= ids - {"NIL"}
                    if m.gold in self.index.entries:
                        in_kb += 1
                        found += m.gold in ids
        return {"gold_recall": found / in_kb if in_kb else 0.0, "capped": capped, "distinct": len(distinct)}

    def import_seconds(self, repeats: int = 3) -> float:
        code = ("import time, sys; t = time.perf_counter(); import entlink.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t))")
        times = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                                  timeout=CHILD_TIMEOUT, check=True)
            times.append(float(proc.stdout))
        return median(times)

    def link_jobs2(self) -> float:
        """Mentions/s of `entlink link --jobs 2` in this process, net of the
        same command's run on an empty document file."""
        cli = self.el["cli"]

        def timed(path: Path, out: Path) -> float:
            argv = ["link", "--model", str(self.model_path), "--index", str(self.index_path),
                    "--in", str(path), "--out", str(out), "--jobs", "2"]
            start = time.perf_counter()
            status = cli.run(argv)
            if status != 0:
                raise RuntimeError(f"link --jobs 2 exited {status}")
            return time.perf_counter() - start

        empty = timed(self.empty_path, self.dir / "empty_pred.jsonl")
        full = timed(self.test_path, self.dir / "pred_jobs2.jsonl")
        if (self.dir / "pred_jobs2.jsonl").read_bytes() != self.pred_path.read_bytes():
            self.problems.append("link --jobs 2 predictions differ from single-thread link")
        return self.mentions / max(full - empty, 1e-9)

    # -- checks ----------------------------------------------------------------------

    def run_checks(self, scores: dict[str, float]) -> None:
        """Check the outputs; a missing output or score is a problem too."""
        el = self.el
        for trace in self.traces:
            self.problems += checks.check_objective_trace(trace)
        self.ensure_loaded(model=True)
        if not self.pred_path.exists() or self.index is None or self.model is None:
            self.problems.append("no predictions, index or model to check")
        else:
            pred = checks.read_jsonl(self.pred_path)
            self.problems += checks.check_predictions(pred, self.test_records, el["kb_store"].normalize_name)
            if "bot_f1" in scores and "b3plus_f1" in scores:
                gold = checks.gold_labels(self.test_records)
                self.problems += checks.check_metrics(pred, gold, scores["bot_f1"], scores["b3plus_f1"])
            else:
                self.problems.append("no F1 scores to check")
            docs = el["segmenter"].load_documents(str(self.test_path))
            problems, counts = checks.check_decode(pred, docs, self.index, self.model, self.new_extractor(),
                                                   el["segmenter"])
            self.problems += problems
            log(f"decode oracle: {counts['checked']} components checked, {counts['capped']} over budget, "
                f"{counts['near_ties']} near ties")
            log(f"predictions sha256 {hashlib.sha256(self.pred_path.read_bytes()).hexdigest()}")
        for problem in self.problems:
            log(f"check failed: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="entlink benchmark (one workload per run)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, to exercise every check fast")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    el = import_entlink()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    runs = HERE / "runs"
    workdir = runs / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    metrics: dict = {}
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--out", str(workdir)] + (["--smoke"] if args.smoke else []),
            check=True, timeout=CHILD_TIMEOUT,
        )
        # Per-document decode medians need a few traced rounds; the smoke
        # run only exercises the code.
        bench = Bench(el, args.workload, workdir, args.seconds, min_rounds=1 if args.smoke else 3)
        try:
            if args.trace:
                metrics = bench.run_traced(runs / f"trace-{args.workload}-s{args.seed}.jsonl")
            else:
                metrics = bench.run_end_to_end()
        except Exception:  # still print a result, with the failure in it
            bench.attempted += 1
            bench.failed += 1
            bench.problems.append("the run stopped early")
            log(f"run failed:\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
