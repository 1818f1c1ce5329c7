"""End-to-end CLI tests: build-index -> train -> link -> eval on tmp files."""

import json
import random
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entlink.cli import run
from entlink.fixtures import synthetic_corpus, toy_documents, toy_kb_entries
from entlink.maxent import read_predictions


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
                         ("train", "--seed"), ("link", "--seed"), ("eval", "--seed")]
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

    @pytest.mark.parametrize("target", ["toy.idx", "model.json"])
    def test_previous_format_exits_1(self, toy_artifacts, tmp_path, caplog, target):
        """A format-1 index (with max_candidates) or a format-2 model (with
        sigma beside the config) is rejected, not read."""
        for name, blob in toy_artifacts.items():
            (tmp_path / name).write_bytes(blob)
        if target == "toy.idx":
            blob = toy_artifacts["toy.idx"]
            payload = json.loads(zlib.decompress(blob[8:]))
            payload["max_candidates"] = 40
            old = blob[:4] + struct.pack("<I", 1) + zlib.compress(json.dumps(payload).encode())
        else:
            payload = json.loads(toy_artifacts["model.json"])
            payload.update(format_version=2, sigma=0.5)
            old = json.dumps(payload).encode()
        (tmp_path / target).write_bytes(old)
        code = run(["link", "--model", str(tmp_path / "model.json"), "--index", str(tmp_path / "toy.idx"),
                    "--in", str(tmp_path / "docs.jsonl"), "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert any("format version" in r.getMessage() for r in caplog.records)


_BAD_DOCUMENTS = {
    "array": [1, 2],
    "string": "hello",
    "mentions-not-a-list": {"doc_id": "d", "text": "Home Depot", "mentions": 5},
}
_BAD_PREDICTIONS = {
    "array": [1, 2],
    "string": "hello",
    "no-doc-id": {"mention_id": "m1", "prediction": "NIL"},
    "no-mention-id": {"doc_id": "doc-home-depot", "prediction": "NIL"},
    "no-prediction": {"doc_id": "doc-home-depot", "mention_id": "m1"},
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
        if command == "eval-pred":
            assert any(f"{bad}:1:" in r.getMessage() for r in caplog.records)


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert run(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out


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
