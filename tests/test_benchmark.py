"""The benchmark in `perfbench/` drives entlink's public API: a smoke run of a
copy of it against this checkout's sources fails as soon as a change to
`src/` breaks a shape it relies on."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Spans the benchmark would trace if entlink had them; no metric reads them.
UNREAD_SPANS = {
    "segmenter.candidate_lists",
    "segmenter.enumerate_tuples",
    "features.FeatureExtractor.tuple_features",
}
# Per-layer counts that read 0 if features stop calling a traced function,
# the workload stops reaching KB candidates, training stops evaluating the
# objective through `maxent.cll_objective`, or `build_training_instances`
# stops returning, first, chains whose `features` hold one row per candidate.
MUST_COUNT = (
    "text_vsm.cosine_calls",
    "features.distinct_candidate_entities",
    "maxent.cll_objective_calls",
    "segmenter.tuples_enumerated",
)


@pytest.mark.parametrize("workload, trace", [
    pytest.param(workload, trace, id=workload if trace == "1" else f"{workload}-untraced")
    for trace in ("1", "0") for workload in ("bulk", "collective")
])
def test_benchmark_smoke_run_is_correct(tmp_path, workload, trace):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]
    assert [name for name, m in result["metrics"].items() if m["value"] is None] == []
    if trace == "0":
        return
    assert [name for name in MUST_COUNT if not result["metrics"][name]["value"] > 0] == []
    prefix = "perfbench: not in this version of entlink, so not traced: "
    untraced = [line[len(prefix):].split(", ") for line in proc.stderr.splitlines() if line.startswith(prefix)]
    assert set().union(*untraced) <= UNREAD_SPANS
