"""End-to-end CLI tests: build-index -> train -> link -> eval on tmp files."""

import argparse
import inspect
import json
import os
import random
import re
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest
from conftest import DAMAGE, MALFORMED_BODIES, canonical_lines, index_blob, synthetic_corpus
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entlink import kb_store
from entlink.cli import build_parser, run
from entlink.config import BLACKLIST_THRESHOLD, MAX_ITER, TOL, PipelineConfig
from entlink.features import train_pmi
from entlink.fixtures import toy_documents, toy_kb_entries
from entlink.kb_store import INDEX_FORMAT_VERSION, build_index
from entlink.maxent import MODEL_FORMAT_VERSION, fit_weights, read_predictions, train
from entlink.segmenter import connected_components


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def doc_record(doc):
    return {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "mentions": [
            {"id": m.id, "start": m.start, "end": m.end, **({"gold": m.gold} if m.gold else {})}
            for m in doc.mentions
        ],
    }


@pytest.fixture
def toy_paths(tmp_path):
    kb_path = tmp_path / "kb.jsonl"
    write_jsonl(kb_path, [e.to_record() for e in toy_kb_entries()])
    docs_path = tmp_path / "docs.jsonl"
    write_jsonl(docs_path, [doc_record(d) for d in toy_documents()])
    return tmp_path, str(kb_path), str(docs_path)


class TestBuildIndex:
    def test_creates_index_file(self, toy_paths):
        tmp_path, kb_path, _ = toy_paths
        out = tmp_path / "toy.idx"
        assert run(["build-index", "--kb", kb_path, "--out", str(out)]) == 0
        assert out.exists()

    def test_unreadable_kb_fails(self, tmp_path):
        out = tmp_path / "toy.idx"
        assert run(["build-index", "--kb", str(tmp_path / "missing.jsonl"), "--out", str(out)]) != 0

    def test_failed_build_keeps_the_existing_index(self, toy_paths, caplog):
        """A page text with a lone surrogate cannot be serialized, so the
        build exits 1 and the index already at --out stays as it was."""
        tmp_path, kb_path, _ = toy_paths
        out = tmp_path / "toy.idx"
        assert run(["build-index", "--kb", kb_path, "--out", str(out)]) == 0
        before = out.read_bytes()
        bad = tmp_path / "bad.jsonl"
        record = {**toy_kb_entries()[0].to_record(), "text": "x \ud800 y"}
        bad.write_text(json.dumps(record) + "\n", encoding="ascii")
        assert run(["build-index", "--kb", str(bad), "--out", str(out)]) == 1
        assert any("surrogates not allowed" in r.getMessage() for r in caplog.records)
        assert out.read_bytes() == before


class TestPipeline:
    def test_config_echoed(self, toy_paths, caplog):
        import logging

        tmp_path, kb_path, docs_path = toy_paths
        index_path = str(tmp_path / "toy.idx")
        with caplog.at_level(logging.INFO, logger="entlink"):
            assert run(["build-index", "--kb", kb_path, "--out", index_path]) == 0
            assert run(
                ["train", "--kb-index", index_path, "--train", docs_path,
                 "--out", str(tmp_path / "m.json")]
            ) == 0
        assert any(r.getMessage().startswith("config:") for r in caplog.records)

    def test_full_round(self, toy_paths, capsys):
        tmp_path, kb_path, docs_path = toy_paths
        index_path = str(tmp_path / "toy.idx")
        model_path = str(tmp_path / "model.json")
        preds_path = str(tmp_path / "preds.jsonl")
        report_path = str(tmp_path / "report.json")

        assert run(["build-index", "--kb", kb_path, "--out", index_path]) == 0
        assert run(
            ["train", "--kb-index", index_path, "--train", docs_path, "--out", model_path]
        ) == 0
        assert run(
            ["link", "--model", model_path, "--index", index_path, "--in", docs_path, "--out", preds_path]
        ) == 0

        records = read_predictions(preds_path)
        docs = toy_documents()
        assert len(records) == sum(len(d.mentions) for d in docs)
        for record in records:
            assert set(record) <= {"doc_id", "mention_id", "prediction", "score", "nil_cluster"}

        assert run(
            ["eval", "--metric", "bot", "--pred", preds_path, "--gold", docs_path, "--out", report_path]
        ) == 0
        out = capsys.readouterr().out
        assert "bot" in out
        report = json.loads(Path(report_path).read_text())
        assert 0.0 <= report["f1"] <= 1.0

        assert run(["eval", "--metric", "b3plus", "--pred", preds_path, "--gold", docs_path]) == 0

    def test_training_recovers_toy_corpus(self, toy_paths):
        # the toy corpus is small and clean: the trained model should relink it
        tmp_path, kb_path, docs_path = toy_paths
        index_path = str(tmp_path / "toy.idx")
        model_path = str(tmp_path / "model.json")
        preds_path = str(tmp_path / "preds.jsonl")
        assert run(["build-index", "--kb", kb_path, "--out", index_path]) == 0
        assert run(["train", "--kb-index", index_path, "--train", docs_path, "--out", model_path]) == 0
        assert run(
            ["link", "--model", model_path, "--index", index_path, "--in", docs_path, "--out", preds_path]
        ) == 0
        by_mention = {
            (r["doc_id"], r["mention_id"]): r["prediction"] for r in read_predictions(preds_path)
        }
        gold = {
            (d.doc_id, m.id): m.gold for d in toy_documents() for m in d.mentions
        }
        agree = sum(by_mention[k] == v for k, v in gold.items())
        assert agree / len(gold) >= 0.8

    def test_parallel_link_matches_serial(self, toy_paths):
        tmp_path, kb_path, docs_path = toy_paths
        index_path = str(tmp_path / "toy.idx")
        model_path = str(tmp_path / "model.json")
        assert run(["build-index", "--kb", kb_path, "--out", index_path]) == 0
        assert run(["train", "--kb-index", index_path, "--train", docs_path, "--out", model_path]) == 0
        serial, parallel = str(tmp_path / "p1.jsonl"), str(tmp_path / "p4.jsonl")
        assert run(
            ["link", "--model", model_path, "--index", index_path, "--in", docs_path, "--out", serial]
        ) == 0
        assert run(
            ["link", "--model", model_path, "--index", index_path, "--in", docs_path,
             "--out", parallel, "--jobs", "4"]
        ) == 0
        assert Path(serial).read_text() == Path(parallel).read_text()


class TestErrors:
    def test_sigma_zero_rejected(self, toy_paths, caplog):
        tmp_path, kb_path, docs_path = toy_paths
        index_path = str(tmp_path / "toy.idx")
        assert run(["build-index", "--kb", kb_path, "--out", index_path]) == 0
        code = run(
            ["train", "--kb-index", index_path, "--train", docs_path,
             "--out", str(tmp_path / "m.json"), "--sigma", "0"]
        )
        assert code != 0
        assert any("sigma must be positive" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "flag,value",
        [("--max-iter", "0"), ("--max-iter", "-1"), ("--tol", "nan"), ("--tol", "-1"),
         ("--blacklist-threshold", "nan"), ("--blacklist-threshold", "-2"), ("--sigma", "nan")],
    )
    def test_bad_training_setting_exits_1(self, toy_artifacts, tmp_path, flag, value):
        """An out-of-range training setting stops `train` before it fits or
        writes a model."""
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        out = tmp_path / "m.json"
        code = run(["train", "--kb-index", str(tmp_path / "toy.idx"), "--train", str(tmp_path / "docs.jsonl"),
                    "--out", str(out), f"{flag}={value}"])
        assert code == 1
        assert not out.exists()

    def test_model_with_nan_sigma_exits_1(self, toy_artifacts, tmp_path, caplog):
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        payload = json.loads(toy_artifacts["model.json"])
        payload["config"]["sigma"] = float("nan")
        (tmp_path / "model.json").write_text(json.dumps(payload))
        code = run(["link", "--model", str(tmp_path / "model.json"), "--index", str(tmp_path / "toy.idx"),
                    "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert any("sigma must be positive and finite" in r.getMessage() for r in caplog.records)
        assert not (tmp_path / "preds.jsonl").exists()

    def test_eval_mismatched_doc_ids(self, toy_paths, tmp_path):
        _, kb_path, docs_path = toy_paths
        preds = [{"doc_id": "other-doc", "mention_id": "m1", "prediction": "X", "score": 1.0}]
        preds_path = tmp_path / "preds.jsonl"
        write_jsonl(preds_path, preds)
        code = run(["eval", "--metric", "bot", "--pred", str(preds_path), "--gold", docs_path])
        assert code != 0

    def test_version_mismatched_index(self, toy_paths):
        tmp_path, kb_path, docs_path = toy_paths
        index_path = tmp_path / "toy.idx"
        assert run(["build-index", "--kb", kb_path, "--out", str(index_path)]) == 0
        blob = bytearray(index_path.read_bytes())
        blob[4] = 99
        index_path.write_bytes(bytes(blob))
        code = run(
            ["train", "--kb-index", str(index_path), "--train", docs_path,
             "--out", str(tmp_path / "m.json")]
        )
        assert code != 0

    def test_duplicate_mention_ids_exit_1(self, toy_paths, caplog):
        tmp_path, kb_path, docs_path = toy_paths
        index_path = str(tmp_path / "toy.idx")
        model_path = str(tmp_path / "m.json")
        assert run(["build-index", "--kb", kb_path, "--out", index_path]) == 0
        assert run(["train", "--kb-index", index_path, "--train", docs_path, "--out", model_path]) == 0
        both_m1 = {
            "doc_id": "d",
            "text": "Home Depot CEO Nardelli quits",
            "mentions": [{"id": "m1", "start": 0, "end": 10}, {"id": "m1", "start": 15, "end": 23}],
        }
        in_path = tmp_path / "dup.jsonl"
        write_jsonl(in_path, [both_m1])
        code = run(["link", "--model", model_path, "--index", index_path,
                    "--in", str(in_path), "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        assert any("duplicate mention id" in r.getMessage() for r in caplog.records)

    def test_duplicate_doc_ids_exit_1(self, toy_paths):
        tmp_path, kb_path, docs_path = toy_paths
        records = [doc_record(d) for d in toy_documents()]
        gold_path = tmp_path / "gold.jsonl"
        write_jsonl(gold_path, records + records[:1])
        preds_path = tmp_path / "preds.jsonl"
        write_jsonl(preds_path, [{"doc_id": r["doc_id"], "mention_id": m["id"], "prediction": "NIL",
                                  "score": 1.0} for r in records for m in r["mentions"]])
        code = run(["eval", "--metric", "bot", "--pred", str(preds_path), "--gold", str(gold_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "command,flag",
        [
            pytest.param(c, f, id=f"{c}-{f[2:]}")
            for c, f in [("train", "--budget"), ("build-index", "--max-candidates"), ("build-index", "--seed"),
                         ("train", "--seed"), ("link", "--seed"), ("eval", "--seed"),
                         ("train", "--stopwords"), ("link", "--stopwords")]
        ],
    )
    def test_removed_flags_rejected(self, command, flag):
        argv = {
            "build-index": ["build-index", "--kb", "kb.jsonl", "--out", "x.idx"],
            "train": ["train", "--kb-index", "x.idx", "--train", "d.jsonl", "--out", "m.json"],
            "link": ["link", "--model", "m.json", "--index", "x.idx", "--in", "d.jsonl", "--out", "p.jsonl"],
            "eval": ["eval", "--metric", "bot", "--pred", "p.jsonl", "--gold", "d.jsonl"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            run(argv + [flag, "1"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["build-index", "--nope"])
        assert excinfo.value.code != 0


@pytest.fixture(scope="module")
def toy_artifacts(tmp_path_factory):
    """Index, model and documents of the toy corpus, as bytes."""
    tmp = tmp_path_factory.mktemp("artifacts")
    write_jsonl(tmp / "kb.jsonl", [e.to_record() for e in toy_kb_entries()])
    write_jsonl(tmp / "docs.jsonl", [doc_record(d) for d in toy_documents()])
    assert run(["build-index", "--kb", str(tmp / "kb.jsonl"), "--out", str(tmp / "toy.idx")]) == 0
    assert run(["train", "--kb-index", str(tmp / "toy.idx"), "--train", str(tmp / "docs.jsonl"),
                "--out", str(tmp / "model.json")]) == 0
    return {name: (tmp / name).read_bytes() for name in ("toy.idx", "model.json", "docs.jsonl")}


def _corrupt(blob: bytes, cut: int | None, flips: list[tuple[int, int]]) -> bytes:
    out = bytearray(blob if cut is None else blob[: cut % len(blob)])
    for position, xor in flips:
        if out:
            out[position % len(out)] ^= xor
    return bytes(out)


class TestCorruptArtifacts:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        target=st.sampled_from(["toy.idx", "model.json"]),
        cut=st.none() | st.integers(0, 10**6),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
    )
    def test_link_succeeds_or_exits_1(self, toy_artifacts, target, cut, flips):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, blob in toy_artifacts.items():
                (tmp / name).write_bytes(_corrupt(blob, cut, flips) if name == target else blob)
            code = run(["link", "--model", str(tmp / "model.json"), "--index", str(tmp / "toy.idx"),
                        "--in", str(tmp / "docs.jsonl"), "--out", str(tmp / "preds.jsonl")])
        assert code in (0, 1)

    def test_truncated_index_exits_1(self, toy_artifacts, tmp_path):
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob[: len(blob) // 2] if name == "toy.idx" else blob)
        code = run(["link", "--model", str(tmp_path / "model.json"), "--index", str(tmp_path / "toy.idx"),
                    "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_damaged_index_exits_1(self, toy_artifacts, tmp_path, caplog, monkeypatch, damage):
        """A damaged stream, a flipped byte in a later block included, exits
        1 with a diagnostic that names the file."""
        monkeypatch.setattr(kb_store, "_GROUP_SIZE", 2)
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        index = tmp_path / "toy.idx"
        index.write_bytes(DAMAGE[damage](build_index(toy_kb_entries()).to_bytes()))
        code = run(["link", "--model", str(tmp_path / "model.json"), "--index", str(index),
                    "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert any(r.getMessage().startswith(f"{index}: corrupt anchor-index file") for r in caplog.records)

    def test_bad_index_record_names_the_file(self, toy_artifacts, tmp_path):
        """`entlink link` reports a bad group inside an index with the
        index's path and the column's line, and no traceback."""
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        lines = canonical_lines(toy_kb_entries())
        lines[1] = json.dumps(json.loads(lines[1])[1:])
        bad = tmp_path / "bad.idx"
        bad.write_bytes(index_blob(lines))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "entlink.cli", "link", "--model", str(tmp_path / "model.json"),
             "--index", str(bad), "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert f"{bad}: anchor-index body:2: the title column has 6 values for 7 ids" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", MALFORMED_BODIES)
    def test_malformed_index_body_exits_1(self, toy_artifacts, tmp_path, caplog, monkeypatch, case):
        """Each way to break an index body exits 1 with a diagnostic that
        names the file and the line."""
        monkeypatch.setattr(kb_store, "_GROUP_SIZE", 2)
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        edit, lineno, message = MALFORMED_BODIES[case]
        bad = tmp_path / "bad.idx"
        bad.write_bytes(index_blob(edit(canonical_lines(toy_kb_entries()))))
        code = run(["link", "--model", str(tmp_path / "model.json"), "--index", str(bad),
                    "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        prefix = f"{bad}: anchor-index body:{lineno}: "
        assert any(r.getMessage().startswith(prefix) and re.search(message, r.getMessage()) for r in caplog.records)

    @pytest.mark.parametrize(
        "target,version",
        [
            pytest.param("toy.idx", 1, id="toy.idx"),
            pytest.param("toy.idx", 2, id="toy.idx-format2"),
            pytest.param("toy.idx", 3, id="toy.idx-format3"),
            pytest.param("model.json", 2, id="model.json"),
            pytest.param("model.json", 3, id="model.json-format3"),
        ],
    )
    def test_previous_format_exits_1(self, toy_artifacts, tmp_path, caplog, target, version):
        """A format-1 index (with max_candidates), a format-2 index (records
        in one JSON object keyed by id), a format-3 index (one KB record line
        each), a format-2 model (with sigma beside the config) or a format-3
        model (with PMI category counts and blacklist) is rejected, not read;
        an index, with word to rebuild it."""
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        if target == "toy.idx" and version == 3:
            data = "".join(json.dumps(e.to_record(), sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"
                           for e in sorted(toy_kb_entries(), key=lambda e: e.id))
            old = b"ELIX" + struct.pack("<I", version) + zlib.compress(data.encode("utf-8"), 6)
        elif target == "toy.idx":
            payload = {"entries": {e.id: e.to_record() for e in toy_kb_entries()}}
            if version == 1:
                payload["max_candidates"] = 40
            data = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
            old = b"ELIX" + struct.pack("<I", version) + zlib.compress(data.encode("utf-8"), 6)
        else:
            payload = json.loads(toy_artifacts["model.json"])
            payload["format_version"] = version
            if version == 2:
                payload["sigma"] = 0.5
            else:
                payload["pmi"].update(category_counts={"Atlanta": 1}, blacklist=["Companies"])
            old = json.dumps(payload).encode()
        (tmp_path / target).write_bytes(old)
        code = run(["link", "--model", str(tmp_path / "model.json"), "--index", str(tmp_path / "toy.idx"),
                    "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert any(r.getMessage().startswith(f"{tmp_path / target}: ") and "format version" in r.getMessage()
                   for r in caplog.records)
        if target == "toy.idx":
            expected = (f"{tmp_path / target}: index format version {version}, expected {INDEX_FORMAT_VERSION}; "
                        "rebuild it with build-index")
            assert expected in [r.getMessage() for r in caplog.records]


def _doc(mention=None, **fields):
    """A one-mention document record, with fields or mention keys overridden."""
    return {"doc_id": "d", "text": "Home Depot", "mentions": [{"id": "m1", "start": 0, "end": 4, **(mention or {})}],
            **fields}


_BAD_DOCUMENTS = {
    "array": [1, 2],
    "string": "hello",
    "mentions-not-a-list": {"doc_id": "d", "text": "Home Depot", "mentions": 5},
    "mention-not-an-object": _doc(mentions=["m1"]),
    "doc-id-null": _doc(doc_id=None),
    "doc-id-number": _doc(doc_id=7),
    "text-number": _doc(text=12345),
    "mention-id-number": _doc({"id": 1}),
    "start-float": _doc({"start": 0.9, "end": 5.7}),
    "end-float": _doc({"end": 4.0}),
    "start-bool": _doc({"start": True}),
    "end-string": _doc({"end": "3"}),
    "gold-number": _doc({"gold": 5}),
    "gold-list": _doc({"gold": ["HOME_DEPOT"]}),
}
_BAD_PREDICTIONS = {
    "array": [1, 2],
    "string": "hello",
    "no-doc-id": {"mention_id": "m1", "prediction": "NIL"},
    "no-mention-id": {"doc_id": "doc-home-depot", "prediction": "NIL"},
    "no-prediction": {"doc_id": "doc-home-depot", "mention_id": "m1"},
    "prediction-null": {"doc_id": "doc-home-depot", "mention_id": "m1", "prediction": None},
    "prediction-number": {"doc_id": "doc-home-depot", "mention_id": "m1", "prediction": 3},
    "nil-cluster-number": {"doc_id": "doc-home-depot", "mention_id": "m1", "prediction": "NIL", "nil_cluster": 1},
    "nil-cluster-null": {"doc_id": "doc-home-depot", "mention_id": "m1", "prediction": "NIL", "nil_cluster": None},
}


class TestMalformedRecords:
    @pytest.mark.parametrize(
        "command,record",
        [pytest.param(c, r, id=f"{c}-{name}") for name, r in _BAD_DOCUMENTS.items()
         for c in ("train", "link", "eval-gold")]
        + [pytest.param("eval-pred", r, id=f"eval-pred-{name}") for name, r in _BAD_PREDICTIONS.items()],
    )
    def test_exits_1(self, toy_artifacts, tmp_path, caplog, command, record):
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        index, model, docs = (str(tmp_path / n) for n in ("toy.idx", "model.json", "docs.jsonl"))
        bad, no_preds = str(tmp_path / "bad.jsonl"), str(tmp_path / "no_preds.jsonl")
        write_jsonl(bad, [record])
        write_jsonl(no_preds, [])
        argv = {
            "train": ["train", "--kb-index", index, "--train", bad, "--out", str(tmp_path / "m.json")],
            "link": ["link", "--model", model, "--index", index, "--in", bad, "--out", str(tmp_path / "p.jsonl")],
            "eval-gold": ["eval", "--metric", "bot", "--pred", no_preds, "--gold", bad],
            "eval-pred": ["eval", "--metric", "b3plus", "--pred", bad, "--gold", docs],
        }[command]
        assert run(argv) == 1
        assert any(r.getMessage().startswith(f"{bad}:1: ") for r in caplog.records)

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param([1, 2], id="array"),
            pytest.param("hello", id="string"),
            pytest.param({"id": "A", "title": "A", "text": "a", "categories": 5}, id="categories-number"),
            pytest.param({"id": "A", "title": "A", "text": "a", "categories": "Cat"}, id="categories-string"),
            pytest.param({"id": "A", "title": "A", "text": "a", "redirects": {"B": 1}}, id="redirects-object"),
            pytest.param({"id": "A", "title": "A", "text": "a", "links": 5}, id="links-number"),
            pytest.param({"id": "NIL7", "title": "A", "text": "a"}, id="nil-cluster-id-NIL7"),
            pytest.param({"id": "NIL0001", "title": "A", "text": "a"}, id="nil-cluster-id-NIL0001"),
            pytest.param({"id": "A", "title": None, "text": "a"}, id="title-null"),
            pytest.param({"id": "A", "title": "A", "text": 12345}, id="text-number"),
            pytest.param({"id": "A", "title": "A", "text": "a", "categories": ["Cat", 5]}, id="category-number"),
            pytest.param({"id": "A", "title": "A", "text": "a", "redirects": [None]}, id="redirect-null"),
            pytest.param({"id": "A", "title": "A", "text": "a", "links": ["B"]}, id="link-string"),
            pytest.param({"id": "A", "title": "A", "text": "a", "links": [{"anchor": 1, "target": "B"}]},
                         id="anchor-number"),
            pytest.param({"id": "A", "title": "A", "text": "a", "links": [{"anchor": "b", "target": None}]},
                         id="target-null"),
        ],
    )
    def test_build_index_exits_1(self, tmp_path, caplog, record):
        kb = str(tmp_path / "kb.jsonl")
        records = [e.to_record() for e in toy_kb_entries()] + [record]
        write_jsonl(kb, records)
        assert run(["build-index", "--kb", kb, "--out", str(tmp_path / "x.idx")]) == 1
        assert not (tmp_path / "x.idx").exists()
        assert any(r.getMessage().startswith(f"{kb}:{len(records)}: ") for r in caplog.records)

    def test_duplicate_kb_id_names_its_line(self, tmp_path, caplog):
        kb = str(tmp_path / "dup.jsonl")
        write_jsonl(kb, [{"id": eid, "title": eid, "text": ""} for eid in "ABA"])
        assert run(["build-index", "--kb", kb, "--out", str(tmp_path / "x.idx")]) == 1
        assert not (tmp_path / "x.idx").exists()
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"{kb}:3: duplicate KB id 'A'"]

    @pytest.mark.parametrize("reader", ["build-index", "link-documents", "eval-predictions", "link-model"])
    def test_deeply_nested_json_exits_1(self, toy_artifacts, tmp_path, caplog, reader):
        """A line nested deeper than the JSON parser recurses is invalid JSON
        to every reader: exit 1 naming the file and line (the model file, by
        its path), not a RecursionError."""
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        index, model, docs = (str(tmp_path / n) for n in ("toy.idx", "model.json", "docs.jsonl"))
        bad = model if reader == "link-model" else str(tmp_path / "bad.jsonl")
        Path(bad).write_text("[" * 100_000 + "]" * 100_000 + "\n")
        link = ["link", "--model", model, "--index", index, "--out", str(tmp_path / "p.jsonl")]
        argv = {
            "build-index": ["build-index", "--kb", bad, "--out", str(tmp_path / "x.idx")],
            "link-documents": link + ["--in", bad],
            "eval-predictions": ["eval", "--metric", "bot", "--pred", bad, "--gold", docs],
            "link-model": link + ["--in", docs],
        }[reader]
        assert run(argv) == 1
        prefix = f"{bad}: not a valid model file" if reader == "link-model" else f"{bad}:1: invalid JSON"
        assert any(r.getMessage().startswith(prefix) for r in caplog.records)

    @pytest.mark.parametrize("metric", ["bot", "b3plus"])
    def test_eval_duplicate_prediction_exits_1(self, toy_artifacts, tmp_path, caplog, metric):
        """A second record for one (doc_id, mention_id) is rejected, even when
        the two agree, for both metrics."""
        docs = tmp_path / "docs.jsonl"
        docs.write_bytes(toy_artifacts["docs.jsonl"])
        records = [
            {"doc_id": doc["doc_id"], "mention_id": m["id"], "prediction": m.get("gold", "NIL"), "score": 1.0}
            for doc in map(json.loads, docs.read_text(encoding="utf-8").splitlines())
            for m in doc["mentions"]
        ]
        preds = str(tmp_path / "preds.jsonl")
        write_jsonl(preds, records)
        assert run(["eval", "--metric", metric, "--pred", preds, "--gold", str(docs)]) == 0
        write_jsonl(preds, records + records[:1])
        assert run(["eval", "--metric", metric, "--pred", preds, "--gold", str(docs)]) == 1
        assert any("two predictions for mention" in r.getMessage() for r in caplog.records)

    def test_link_lone_surrogate_exits_1(self, toy_artifacts, tmp_path, caplog):
        """Text with a lone surrogate has no UTF-8 encoding, so it has no byte
        offsets."""
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        bad = tmp_path / "bad.jsonl"
        record = {"doc_id": "d", "text": "Home Depot \ud800 CEO", "mentions": [{"id": "m1", "start": 0, "end": 10}]}
        bad.write_text(json.dumps(record) + "\n", encoding="ascii")
        code = run(["link", "--model", str(tmp_path / "model.json"), "--index", str(tmp_path / "toy.idx"),
                    "--in", str(bad), "--out", str(tmp_path / "p.jsonl")])
        assert code == 1
        assert any("surrogates not allowed" in r.getMessage() for r in caplog.records)


def test_readme_defaults_match_parser():
    """The README "Configuration defaults" table lists every defaulted
    `train` and `link` option, with the parser's default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration defaults", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`--"):
            table[cells[0].strip("`")] = cells[1]
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defaults = {
        action.option_strings[0]: action
        for command in ("train", "link")
        for action in subparsers.choices[command]._actions
        if action.option_strings and not action.required and action.default not in (None, argparse.SUPPRESS)
    }
    assert set(table) == set(defaults)
    for flag, action in defaults.items():
        assert action.type(table[flag]) == action.default, flag


def test_readme_names_current_formats():
    """The README "File formats" paragraph names the index and model format
    versions this code writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    assert f"index format {INDEX_FORMAT_VERSION}" in section
    assert f"model format {MODEL_FORMAT_VERSION}" in section


def test_defaults_have_one_definition():
    """The `train` parser, `maxent.train`, `maxent.fit_weights`,
    `features.train_pmi` and `segmenter.connected_components` all default to
    the definitions in `entlink.config`."""
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parser = {a.dest: a.default for a in subparsers.choices["train"]._actions}
    library = {
        "blacklist_threshold": [train_pmi, train],
        "tol": [train, fit_weights],
        "max_iter": [train, fit_weights],
        "gap": [connected_components],
    }
    constants = {
        "blacklist_threshold": BLACKLIST_THRESHOLD,
        "tol": TOL,
        "max_iter": MAX_ITER,
        "gap": PipelineConfig.gap,
    }
    for name, functions in library.items():
        assert parser[name] == constants[name], name
        for fn in functions:
            assert inspect.signature(fn).parameters[name].default == constants[name], (fn.__name__, name)


def test_cli_import_leaves_scipy_unloaded():
    """Only training imports scipy, so `link`, `eval` and `build-index` start
    without it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, entlink.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


SELFCHECKS = [
    "cosine",
    "gradient-finite-difference",
    "decode-vs-brute-force",
    "connected-components-oracle",
    "index-determinism",
    "end-to-end-toy-decode",
]


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        for seed in (0, 1, 2):
            assert run(["selfcheck", "--seed", str(seed)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines == [f"selfcheck {name}: ok" for name in SELFCHECKS]

    def test_selfcheck_catches_a_wrong_decode(self, monkeypatch, capsys):
        from entlink.maxent import ChainBatch
        from entlink.selfcheck import run_selfcheck

        decode = ChainBatch.decode

        def wrong_choice(self, weights, ids):
            # move each chain's first mention off its decoded candidate
            decoded = decode(self, weights, ids)
            for chain_ids, (choice, _) in zip(ids, decoded):
                choice[0] = (choice[0] + 1) % len(chain_ids[0])
            return decoded

        monkeypatch.setattr(ChainBatch, "decode", wrong_choice)
        assert run_selfcheck(0) >= 1
        assert "selfcheck decode-vs-brute-force: FAILED" in capsys.readouterr().out

    def test_selfcheck_catches_a_scaled_gradient(self, monkeypatch, capsys):
        import entlink.selfcheck

        objective = entlink.selfcheck.cll_objective

        def scaled(*args):
            value, grad = objective(*args)
            return value, 1.01 * grad

        monkeypatch.setattr(entlink.selfcheck, "cll_objective", scaled)
        assert entlink.selfcheck.run_selfcheck(0) >= 1
        assert "selfcheck gradient-finite-difference: FAILED" in capsys.readouterr().out

    def test_selfcheck_catches_a_final_block_mid_stream(self, monkeypatch, capsys):
        from entlink.selfcheck import run_selfcheck

        deflate_block = kb_store._deflate_block

        def finish_every_block(block, mode):
            return deflate_block(block, zlib.Z_FINISH)

        monkeypatch.setattr(kb_store, "_GROUP_SIZE", 2)
        monkeypatch.setattr(kb_store, "_deflate_block", finish_every_block)
        assert run_selfcheck(0) >= 1
        assert "selfcheck index-determinism: FAILED" in capsys.readouterr().out


class TestDeterminism:
    def test_rebuilt_index_and_model_reproduce_predictions(self, tmp_path):
        rng = random.Random(5)
        entries, train_docs, test_docs = synthetic_corpus(rng, n_train=15, n_test=5)
        kb_path = tmp_path / "kb.jsonl"
        write_jsonl(kb_path, [e.to_record() for e in entries])
        train_path = tmp_path / "train.jsonl"
        write_jsonl(train_path, [doc_record(d) for d in train_docs])
        test_path = tmp_path / "test.jsonl"
        write_jsonl(test_path, [doc_record(d) for d in test_docs])

        outputs = []
        for tag in ("a", "b"):
            index_path = str(tmp_path / f"idx-{tag}")
            model_path = str(tmp_path / f"model-{tag}")
            preds_path = str(tmp_path / f"preds-{tag}")
            assert run(["build-index", "--kb", str(kb_path), "--out", index_path]) == 0
            assert run(["train", "--kb-index", index_path, "--train", str(train_path),
                        "--out", model_path, "--max-candidates", "5"]) == 0
            assert run(["link", "--model", model_path, "--index", index_path,
                        "--in", str(test_path), "--out", preds_path]) == 0
            outputs.append(Path(preds_path).read_text())
        assert outputs[0] == outputs[1]
