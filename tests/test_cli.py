import argparse
import gc
import io
import json
import math
import shutil
import struct
import subprocess
import sys
import weakref
from contextlib import contextmanager
from dataclasses import asdict, fields
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import pucl.pipeline
import pucl.voters
from pucl.benchmark import BENCHMARK_CONFIG, BenchmarkSpec, make_benchmark
from pucl.cli import build_parser, main
from pucl.config import MODES, config_from_dict, load_config
from pucl.corpus import Token, Vocab, read_conll, write_conll
from pucl.errors import FormatError, NumericError
from pucl.evaluation import evaluate_labels
from pucl.model import load_checkpoint
from pucl.pipeline import STAGES, run_pipeline, stages_up_to
from pucl.seeding import derive_seed
from pucl.voters import confidence_table


def read(path):
    with open(path, encoding="utf-8") as f:
        return read_conll(f)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Small generated benchmark shared by the CLI tests."""
    out = tmp_path_factory.mktemp("synth")
    code = main(
        [
            "gen-synthetic",
            "--out", str(out),
            "--sentences", "60",
            "--test-sentences", "20",
            "--valid-sentences", "5",
            "--dict-size", "10",
            "--seed", "5",
        ]
    )
    assert code == 0
    return out


def small_config(synth_dir, out_dir, mode="full", seed=11):
    return {
        "train": str(synth_dir / "train.tsv"),
        "test": str(synth_dir / "test.tsv"),
        "out": str(out_dir),
        "mode": mode,
        "seed": seed,
        "model": {"embed_dim": 8, "hidden_dim": 8},
        "voters": {"count": 2, "epochs": 1, "keep_negative_ratio": 0.5},
        "curriculum": {"tau": 0.5, "eta": 2, "stage_epochs": 1},
        "risk": {"gamma": 5.0, "loss": "ce"},
        "self_train": {"rounds": 1, "epochs": 1},
    }


def write_config(cfg: dict, path: Path) -> str:
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def listed_and_on_disk(out_dir: Path) -> tuple[set[str], set[str]]:
    """The file names the manifest lists, and those in ``out_dir`` besides the manifest."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = {Path(p).name for p in manifest["artifacts"].values()}
    return listed, {p.name for p in out_dir.iterdir()} - {"manifest.json"}


class TestSeedDerivation:
    def test_pure_function(self):
        assert derive_seed(42, "voters", 0) == derive_seed(42, "voters", 0)
        assert derive_seed(42, "voters", 0) != derive_seed(42, "voters", 1)
        assert derive_seed(42, "voters", 0) != derive_seed(43, "voters", 0)
        assert derive_seed(42, "a", 0) != derive_seed(42, "b", 0)


class TestGenSynthetic:
    def test_artifacts_exist(self, synth_dir):
        for name in ("train.tsv", "test.tsv", "valid.tsv", "dict.tsv", "config.json", "noise_report.json"):
            assert (synth_dir / name).exists()

    def test_train_has_gold_column(self, synth_dir):
        corpus = read(synth_dir / "train.tsv")
        assert corpus.has_gold()
        assert len(corpus.sentences) == 60

    def test_config_is_loadable(self, synth_dir):
        cfg = load_config(synth_dir / "config.json")
        assert cfg.curriculum.eta == 5

    def test_files_are_the_benchmark_definition(self, synth_dir):
        spec = BenchmarkSpec(n_train=60, n_test=20, n_valid=5, dict_size=10)
        train, test, valid, dictionary = make_benchmark(5, spec)
        for name, corpus in (("train", train), ("test", test), ("valid", valid)):
            expected = io.StringIO()
            write_conll(corpus, expected)
            assert (synth_dir / f"{name}.tsv").read_text(encoding="utf-8") == expected.getvalue()
        assert (synth_dir / "dict.tsv").read_text(encoding="utf-8") == "".join(
            f"{' '.join(tokens)}\t{dictionary.label_set.name_of(label)}\n"
            for tokens, label in dictionary.entries
        )
        paths = {name: str(synth_dir / f"{name}.tsv") for name in ("train", "test", "valid", "dict")}
        assert json.loads((synth_dir / "config.json").read_text(encoding="utf-8")) == {
            **BENCHMARK_CONFIG, **paths, "out": str(synth_dir / "run"), "seed": 5
        }

    def test_config_runs_from_a_sibling_directory(self, tmp_path, monkeypatch):
        # paths in a config are relative to its directory, and a relative
        # --out gives names relative to it
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert main([
            "gen-synthetic", "--out", "bench", "--sentences", "40", "--test-sentences", "10",
            "--valid-sentences", "5", "--dict-size", "10", "--seed", "3",
        ]) == 0
        config = json.loads(Path("bench/config.json").read_text(encoding="utf-8"))
        assert {key: config[key] for key in ("train", "test", "valid", "dict", "out")} == {
            "train": "train.tsv", "test": "test.tsv", "valid": "valid.tsv", "dict": "dict.tsv", "out": "run"
        }
        monkeypatch.chdir(tmp_path / "b")
        assert main(["pipeline", "--config", "../a/bench/config.json"]) == 0
        assert (tmp_path / "a" / "bench" / "run" / "report.json").exists()
        assert list((tmp_path / "b").iterdir()) == []

    def test_default_out_is_beside_the_config(self, tmp_path):
        # an omitted out reads like an explicit "out": "out"; absolute paths stay
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "config.json").write_text(json.dumps({"train": "t.tsv", "dict": str(tmp_path / "d.tsv")}))
        cfg = load_config(tmp_path / "c" / "config.json")
        assert (cfg.train, cfg.dict_path, cfg.out, cfg.test) == (
            str(tmp_path / "c" / "t.tsv"), str(tmp_path / "d.tsv"), str(tmp_path / "c" / "out"), None
        )

    @pytest.mark.parametrize("option,value", [
        ("--sentences", "-5"), ("--test-sentences", "-20"), ("--valid-sentences", "-1"),
    ])
    def test_negative_split_size_exits_2(self, tmp_path, capsys, option, value):
        out = tmp_path / "bench"
        assert main(["gen-synthetic", "--out", str(out), option, value]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestAnnotate:
    def test_round_trip_with_gold_preserved(self, synth_dir, tmp_path):
        out_file = tmp_path / "annotated.tsv"
        code = main(
            [
                "annotate",
                "--dict", str(synth_dir / "dict.tsv"),
                "--in", str(synth_dir / "test.tsv"),
                "--out", str(out_file),
            ]
        )
        assert code == 0
        corpus = read(out_file)
        assert corpus.has_gold()
        # dictionary matching on clean synthetic text recovers the entities
        d = corpus.distant_array()
        g = corpus.gold_array()
        assert np.mean(d[g > 0] > 0) > 0.95

    def test_empty_dictionary_warns_all_o(self, synth_dir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out_file = tmp_path / "annotated.tsv"
        code = main(
            ["annotate", "--dict", str(empty), "--in", str(synth_dir / "test.tsv"), "--out", str(out_file)]
        )
        assert code == 0
        assert "empty dictionary" in capsys.readouterr().err
        assert np.all(read(out_file).distant_array() == 0)

    def test_o_typed_dictionary_entry_exits_2(self, tmp_path, capsys):
        # An entry typed O would hide the entries it overlaps: `a b c` came
        # out all O, with exit 0.
        dictionary = tmp_path / "dict.tsv"
        dictionary.write_text("a b\tO\nb c\tT\n", encoding="utf-8")
        corpus = tmp_path / "in.tsv"
        corpus.write_text("a\tO\nb\tO\nc\tO\n\n", encoding="utf-8")
        out_file = tmp_path / "out.tsv"
        code = main(["annotate", "--dict", str(dictionary), "--in", str(corpus), "--out", str(out_file)])
        assert code == 2
        assert "dictionary line 1: 'a b' has no entity type" in capsys.readouterr().err
        assert not out_file.exists()

    def test_empty_label_name_exits_2_at_its_line(self, tmp_path, capsys):
        # The empty gold name on line 1 was reported without a line number.
        dictionary = tmp_path / "dict.tsv"
        dictionary.write_text("a\tT\n", encoding="utf-8")
        corpus = tmp_path / "in.tsv"
        corpus.write_text("a\tO\t\nb\tO\tO\n\n", encoding="utf-8")
        out_file = tmp_path / "out.tsv"
        assert main(["annotate", "--dict", str(dictionary), "--in", str(corpus), "--out", str(out_file)]) == 2
        assert "line 1: invalid entity type name: ''" in capsys.readouterr().err
        assert not out_file.exists()

    def test_a_long_sentence_stays_whole(self, tmp_path):
        # The input was read with the 256-token training cap: a 300-token
        # sentence came back as two, and `w255 w256` across the cut was missed.
        dictionary = tmp_path / "dict.tsv"
        dictionary.write_text("w255 w256\tT\n", encoding="utf-8")
        corpus = tmp_path / "in.tsv"
        corpus.write_text("".join(f"w{i}\tO\n" for i in range(300)) + "\n", encoding="utf-8")
        out_file = tmp_path / "out.tsv"
        assert main(["annotate", "--dict", str(dictionary), "--in", str(corpus), "--out", str(out_file)]) == 0
        lines = out_file.read_text(encoding="utf-8").split("\n")
        assert lines[-2:] == ["", ""] and "" not in lines[:-2]  # one sentence, one blank line
        assert [i for i, line in enumerate(lines[:-2]) if line.endswith("\tT")] == [255, 256]

    def test_missing_dictionary_exit_2(self, synth_dir, tmp_path):
        code = main(
            ["annotate", "--dict", str(tmp_path / "nope.tsv"), "--in", str(synth_dir / "test.tsv"), "--out", str(tmp_path / "x.tsv")]
        )
        assert code == 2


class TestPipeline:
    def test_smoke_all_artifacts(self, synth_dir, tmp_path):
        out_dir = tmp_path / "run"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        for name in (
            "model.bin", "plan.json", "difficulty.tsv", "risk_log.jsonl",
            "report.json", "manifest.json", "curriculum_analysis.csv",
            "difficulty_hist_all.csv", "voter_0.bin", "voter_1.bin",
        ):
            assert (out_dir / name).exists(), name
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert "train" in manifest["inputs"]

    @pytest.mark.parametrize("mode", ["full", "voter-ensemble"])
    def test_voters_are_freed_once_the_corpus_is_scored(self, synth_dir, tmp_path, monkeypatch, mode):
        refs = []
        train = pucl.pipeline.train_voters

        def spy(*args, **kwargs):
            ensemble = train(*args, **kwargs)
            refs.extend(weakref.ref(voter) for voter in ensemble.voters)
            return ensemble

        monkeypatch.setattr(pucl.pipeline, "train_voters", spy)
        result = run_pipeline(config_from_dict(small_config(synth_dir, tmp_path / "run", mode=mode)))
        gc.collect()
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        assert result.report is not None

    def test_voter_ensemble_report_is_the_in_memory_ensembles(self, synth_dir, tmp_path, monkeypatch):
        # the report stage loads the voter files the voters stage recorded;
        # the checkpoint round trip is exact, so the report keeps its bytes
        ensembles, loaded = [], []
        train, load = pucl.pipeline.train_voters, pucl.pipeline.load_model

        def keep(*args, **kwargs):
            ensembles.append(train(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(pucl.pipeline, "train_voters", keep)
        monkeypatch.setattr(pucl.pipeline, "load_model", lambda path: loaded.append(Path(path).name) or load(path))
        out = tmp_path / "run"
        cfg = config_from_dict(small_config(synth_dir, out, mode="voter-ensemble"))
        result = run_pipeline(cfg)
        assert loaded == ["voter_0.bin", "voter_1.bin"]
        labels = np.argmax(confidence_table(ensembles[0], result.test).distributions, axis=1)
        oracle = evaluate_labels(labels, result.test, cfg.require_type_match)
        assert (out / "report.json").read_text() == oracle.to_json() + "\n"

    def test_checkpoints_are_float32(self, trained):
        for name in ("model.bin", "voter_0.bin"):
            header, arrays = _split_checkpoint((trained / name).read_bytes())
            assert header["config"]["dtype"] == "float32", name
            # stored as float64 all the same
            assert len(arrays) == 8 * sum(math.prod(shape) for _, shape in header["arrays"])
            assert load_checkpoint(io.BytesIO((trained / name).read_bytes())).embedding.dtype == np.float32

    def test_deterministic_artifacts(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / f"{name}.json")
            assert main(["pipeline", "--config", cfg_path]) == 0
            outs.append(out_dir)
        for artifact in ("report.json", "plan.json", "model.bin", "difficulty.tsv", "risk_log.jsonl"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, artifact

    def test_phase_timings_only_in_the_manifest(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            cfg_path = write_config(small_config(synth_dir, out_dir, mode="full-st"), tmp_path / f"{name}.json")
            assert main(["pipeline", "--config", cfg_path]) == 0
            outs.append(out_dir)
        cfg_path = write_config(small_config(synth_dir, tmp_path / "plan"), tmp_path / "plan.json")
        assert main(["build-plan", "--config", cfg_path]) == 0
        for out_dir in (outs[0], tmp_path / "plan"):
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert set(manifest["phases"]) == set(manifest["stages"])
            for times in manifest["phases"].values():
                assert set(times) == {"wall_s", "cpu_s"}
                assert min(times.values()) >= 0
        assert manifest["stages"] == ["voters", "difficulty", "plan"]
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name != "manifest.json":
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_mode_validation(self, synth_dir, tmp_path):
        cfg = small_config(synth_dir, tmp_path / "x")
        cfg["mode"] = "bogus"
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 2

    def test_same_split_rejected(self, synth_dir, tmp_path):
        cfg = small_config(synth_dir, tmp_path / "x")
        cfg["valid"] = cfg["test"]
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 3
        cfg["allow_same_split"] = True
        cfg_path = write_config(cfg, tmp_path / "cfg2.json")
        assert main(["pipeline", "--config", cfg_path]) == 0

    @pytest.mark.parametrize("mode", ["no-curriculum", "no-confmpu", "voter-ensemble", "soft-label-curriculum", "full-st"])
    def test_all_modes_run(self, synth_dir, tmp_path, mode):
        out_dir = tmp_path / mode
        cfg_path = write_config(small_config(synth_dir, out_dir, mode=mode), tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        assert (out_dir / "report.json").exists()

    def test_valid_split_stage_metrics(self, synth_dir, tmp_path):
        out_dir = tmp_path / "withvalid"
        cfg = small_config(synth_dir, out_dir)
        cfg["valid"] = str(synth_dir / "valid.tsv")
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        lines = (out_dir / "valid_metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2  # one record per stage (eta=2)
        rec = json.loads(lines[0])
        assert set(rec) == {"stage", "strict_f1", "relaxed_f1"}

    def test_single_type_no_curriculum_baseline(self, tmp_path):
        # k=1 with the PU risk on all tokens is the plain confidence-PU
        # baseline configuration
        data = tmp_path / "k1"
        assert main([
            "gen-synthetic", "--out", str(data), "--sentences", "40",
            "--test-sentences", "10", "--valid-sentences", "0",
            "--types", "1", "--type-rate", "0", "--dict-size", "6", "--seed", "3",
        ]) == 0
        cfg = {
            "train": str(data / "train.tsv"),
            "test": str(data / "test.tsv"),
            "out": str(tmp_path / "k1run"),
            "mode": "no-curriculum",
            "seed": 3,
            "model": {"embed_dim": 8, "hidden_dim": 8},
            "voters": {"count": 2, "epochs": 1},
            "curriculum": {"eta": 2, "stage_epochs": 1},
        }
        cfg_path = write_config(cfg, tmp_path / "k1.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        report = json.loads((tmp_path / "k1run" / "report.json").read_text())
        assert set(report["strict_per_type"]) == {"T1"}

    def test_each_sentence_encoded_once(self, synth_dir, tmp_path, monkeypatch):
        calls: dict[int, list] = {}  # id -> [surfaces (kept alive), count]
        encode = Vocab.encode_sentence

        def counting(vocab, surfaces):
            calls.setdefault(id(surfaces), [surfaces, 0])[1] += 1
            return encode(vocab, surfaces)

        monkeypatch.setattr(Vocab, "encode_sentence", counting)
        cfg = small_config(synth_dir, tmp_path / "run", mode="full-st")
        cfg["valid"] = str(synth_dir / "valid.tsv")
        run_pipeline(config_from_dict(cfg))
        tokens = sum(read(synth_dir / f"{n}.tsv").n_tokens for n in ("train", "valid", "test"))
        assert sum(len(surfaces) for surfaces, _ in calls.values()) == tokens
        assert {count for _, count in calls.values()} == {1}

    def test_manifest_written_on_failure(self, synth_dir, tmp_path):
        out_dir = tmp_path / "fail"
        cfg = small_config(synth_dir, out_dir)
        cfg["test"] = str(tmp_path / "missing.tsv")
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 2
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["status"] == "error"


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trained")
    cfg_path = write_config(
        small_config(synth_dir, out_dir), tmp_path_factory.mktemp("cfg") / "cfg.json"
    )
    assert main(["pipeline", "--config", cfg_path]) == 0
    return out_dir


class TestEvaluateCommand:
    def test_matches_pipeline_report(self, synth_dir, tmp_path, trained):
        out_json = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--model", str(trained / "model.bin"),
                "--test", str(synth_dir / "test.tsv"),
                "--out", str(out_json),
            ]
        )
        assert code == 0
        assert out_json.read_text() == (trained / "report.json").read_text()

    def test_annotate_and_evaluate_build_no_tokens(self, synth_dir, tmp_path, trained, monkeypatch):
        # Both commands work on the corpus's columns; a Token built per
        # token (twice per token, once in each command) would show here.
        built = []
        check = Token.__post_init__
        monkeypatch.setattr(Token, "__post_init__", lambda tok: built.append(tok) or check(tok))
        Token("probe", 0)
        assert len(built) == 1
        annotated = tmp_path / "annotated.tsv"
        code = main(
            ["annotate", "--dict", str(synth_dir / "dict.tsv"), "--in", str(synth_dir / "test.tsv"),
             "--out", str(annotated)]
        )
        assert code == 0
        code = main(
            ["evaluate", "--model", str(trained / "model.bin"), "--test", str(annotated),
             "--out", str(tmp_path / "report.json")]
        )
        assert code == 0
        assert len(built) == 1

    def test_label_mismatch_exit_3(self, tmp_path, trained):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x\tZZZ\tZZZ\n\n", encoding="utf-8")
        code = main(["evaluate", "--model", str(trained / "model.bin"), "--test", str(bad)])
        assert code == 3

    def test_missing_gold_is_fine_when_two_columns_hold_labels(self, tmp_path, trained):
        # two-column file: no gold labels at all -> compatibility error
        bad = tmp_path / "nogold.tsv"
        bad.write_text("x\tT1\n\n", encoding="utf-8")
        code = main(["evaluate", "--model", str(trained / "model.bin"), "--test", str(bad)])
        assert code == 3

    def test_all_o_gold_file_reports_zeros(self, tmp_path, trained, capsys):
        allo = tmp_path / "allo.tsv"
        allo.write_text("x\tO\tO\ny\tO\tO\n\n", encoding="utf-8")
        code = main(["evaluate", "--model", str(trained / "model.bin"), "--test", str(allo)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["strict"]["f1"] == 0.0
        assert report["strict"]["gold_spans"] == 0


def _split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    """(header, array bytes) of a checkpoint: 10-byte magic, 8-byte length."""
    (length,) = struct.unpack("<Q", raw[10:18])
    return json.loads(raw[18 : 18 + length]), raw[18 + length :]


def _with_header(raw: bytes, header: bytes) -> bytes:
    _, arrays = _split_checkpoint(raw)
    return raw[:10] + struct.pack("<Q", len(header)) + header + arrays


def _edited_header(raw: bytes, edit) -> bytes:
    header, _ = _split_checkpoint(raw)
    edit(header)
    return _with_header(raw, json.dumps(header).encode("utf-8"))


def _rename_array(header: dict) -> None:
    header["arrays"][1][0] = "__class__"


def _rename_first_label(header: dict) -> None:
    header["labels"][0] = "ZZZ"  # same class count, another label set


def _transpose_embedding(header: dict) -> None:
    header["arrays"][0][1].reverse()  # same byte count, wrong shape


def _nan_weight(raw: bytes) -> bytes:
    """The checkpoint with NaN at w2[0, 0]; w2 follows embedding, w1 and b1."""
    header, arrays = _split_checkpoint(raw)
    at = len(raw) - len(arrays) + 8 * sum(math.prod(shape) for _, shape in header["arrays"][:3])
    return raw[:at] + struct.pack("<d", math.nan) + raw[at + 8 :]


MALFORMED_CHECKPOINTS = {
    "length-field-short": lambda raw: raw[:14],
    "header-truncated": lambda raw: raw[:40],
    "header-not-utf8": lambda raw: _with_header(raw, b'{"config": "\xff\xfe"}'),
    "header-not-json": lambda raw: _with_header(raw, b'{"config": '),
    "header-not-object": lambda raw: _with_header(raw, b"[1, 2]"),
    "header-missing-vocab": lambda raw: _edited_header(raw, lambda h: h.pop("vocab")),
    "config-unknown-field": lambda raw: _edited_header(raw, lambda h: h["config"].update(depth=3)),
    "array-name-unknown": lambda raw: _edited_header(raw, _rename_array),
    "array-shape-mismatch": lambda raw: _edited_header(raw, _transpose_embedding),
    "arrays-truncated": lambda raw: raw[:-8],
    "trailing-bytes": lambda raw: raw + b"garbage" * 100,
    "non-finite-weight": _nan_weight,
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_evaluate_exits_2(self, synth_dir, tmp_path, trained, capsys, case):
        raw = (trained / "model.bin").read_bytes()
        bad = tmp_path / "model.bin"
        bad.write_bytes(MALFORMED_CHECKPOINTS[case](raw))
        code = main(["evaluate", "--model", str(bad), "--test", str(synth_dir / "test.tsv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_self_train_on_a_non_finite_checkpoint_exits_2(self, synth_dir, tmp_path, trained, capsys):
        out = tmp_path / "run"
        out.mkdir()
        bad = _nan_weight((trained / "model.bin").read_bytes())
        (out / "model.bin").write_bytes(bad)
        cfg_path = write_config(small_config(synth_dir, out), tmp_path / "cfg.json")
        assert main(["self-train", "--config", cfg_path]) == 2
        assert "non-finite values in w2" in capsys.readouterr().err
        assert (out / "model.bin").read_bytes() == bad
        assert not (out / "selftrain_log.jsonl").exists()

    def test_self_train_on_another_label_set_exits_3(self, synth_dir, tmp_path, trained, capsys):
        out = tmp_path / "run"
        out.mkdir()
        renamed = _edited_header((trained / "model.bin").read_bytes(), _rename_first_label)
        (out / "model.bin").write_bytes(renamed)
        cfg_path = write_config(small_config(synth_dir, out), tmp_path / "cfg.json")
        assert main(["self-train", "--config", cfg_path]) == 3
        assert "label set" in capsys.readouterr().err
        assert (out / "model.bin").read_bytes() == renamed
        assert not (out / "selftrain_log.jsonl").exists()


class TestSweep:
    def test_voter_sweep_rows(self, synth_dir, tmp_path):
        out_dir = tmp_path / "sweep"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["sweep", "--config", cfg_path, "--vary", "voters", "--values", "2,3"]) == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,strict_f1,relaxed_f1"
        assert len(lines) == 3
        assert lines[1].startswith("voters,2,")

    def test_single_curriculum_sweep(self, synth_dir, tmp_path):
        out_dir = tmp_path / "sweep1"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["sweep", "--config", cfg_path, "--vary", "curricula", "--values", "1"]) == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_identical_rerun_identical_csv(self, synth_dir, tmp_path):
        csvs = []
        for name in ("s1", "s2"):
            out_dir = tmp_path / name
            cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / f"{name}.json")
            assert main(["sweep", "--config", cfg_path, "--vary", "curricula", "--values", "1,2"]) == 0
            csvs.append((out_dir / "sweep.csv").read_text())
        assert csvs[0] == csvs[1]

    def test_bad_values_rejected(self, synth_dir, tmp_path):
        cfg_path = write_config(small_config(synth_dir, tmp_path / "x"), tmp_path / "cfg.json")
        assert main(["sweep", "--config", cfg_path, "--vary", "voters", "--values", "2,zero"]) == 2


class TestStagedCommands:
    def test_train_voters_then_score_then_plan(self, synth_dir, tmp_path):
        out_dir = tmp_path / "staged"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["train-voters", "--config", cfg_path]) == 0
        assert (out_dir / "voter_0.bin").exists()
        assert main(["score-difficulty", "--config", cfg_path]) == 0
        assert (out_dir / "difficulty.tsv").exists()
        assert main(["build-plan", "--config", cfg_path]) == 0
        plan = json.loads((out_dir / "plan.json").read_text())
        assert plan["eta"] == 2

    def test_self_train_command(self, synth_dir, tmp_path):
        # self-train starts from model.bin, whatever the config's mode, and
        # writes the student there with its log and a manifest
        out_dir = tmp_path / "st"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        teacher = (out_dir / "model.bin").read_bytes()
        assert main(["self-train", "--config", cfg_path]) == 0
        student = (out_dir / "model.bin").read_bytes()
        assert student != teacher
        with open(out_dir / "model.bin", "rb") as f:
            load_checkpoint(f)
        assert len((out_dir / "selftrain_log.jsonl").read_text().splitlines()) == 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert (manifest["status"], manifest["stages"], manifest["config"]["mode"]) == ("ok", ["self-train"], "full-st")
        assert sorted(manifest["artifacts"]) == ["model", "selftrain_log"]
        assert main(["self-train", "--config", cfg_path]) == 0  # a second run self-trains the student
        assert (out_dir / "model.bin").read_bytes() not in (teacher, student)

    def test_self_train_without_a_model_exits_3(self, synth_dir, tmp_path, capsys):
        out_dir = tmp_path / "empty"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["self-train", "--config", cfg_path]) == 3
        assert str(out_dir / "model.bin") in capsys.readouterr().err
        assert json.loads((out_dir / "manifest.json").read_text())["status"] == "error"

    def test_self_train_in_another_mode_exits_3(self, synth_dir, tmp_path, trained, capsys):
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        shutil.copy(trained / "model.bin", out_dir / "model.bin")
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["self-train", "--config", cfg_path, "--mode", "full"]) == 3
        assert "mode full has no self-training" in capsys.readouterr().err
        assert (out_dir / "model.bin").read_bytes() == (trained / "model.bin").read_bytes()

    def test_train_then_self_train_matches_pipeline_full_st(self, synth_dir, tmp_path):
        staged_out, pipe_out = tmp_path / "staged", tmp_path / "pipe"
        staged_cfg = write_config(small_config(synth_dir, staged_out), tmp_path / "s.json")
        assert main(["train", "--config", staged_cfg]) == 0
        assert main(["self-train", "--config", staged_cfg]) == 0
        pipe_cfg = write_config(small_config(synth_dir, pipe_out), tmp_path / "p.json")
        assert main(["pipeline", "--config", pipe_cfg, "--mode", "full-st"]) == 0
        for name in ("model.bin", "selftrain_log.jsonl"):
            assert (staged_out / name).read_bytes() == (pipe_out / name).read_bytes()

    LATER = {
        "train": ("selftrain_log.jsonl", "report.json", "curriculum_analysis.csv", "noise_report.json",
                  "difficulty_hist_all.csv", "difficulty_hist_positive.csv"),
        "self-train": ("report.json", "curriculum_analysis.csv", "noise_report.json",
                       "difficulty_hist_all.csv", "difficulty_hist_positive.csv"),
    }

    @pytest.mark.parametrize("command", ["train", "self-train"])
    def test_later_stages_files_are_removed(self, synth_dir, tmp_path, command):
        # After `pipeline`, `train` left the student's log and the teacher's
        # report beside the new model.bin, and `self-train` left the
        # teacher's report; the new manifest listed neither.
        out_dir = tmp_path / "run"
        cfg = small_config(synth_dir, out_dir, mode="full-st")
        cfg["valid"] = str(synth_dir / "valid.tsv")
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        assert all((out_dir / name).exists() for name in self.LATER[command])
        assert main([command, "--config", cfg_path]) == 0
        assert not [name for name in self.LATER[command] if (out_dir / name).exists()]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        listed = {Path(p).name for p in manifest["artifacts"].values()}
        # the files of the stages from this command's on, as on disk
        first = [s.name for s in STAGES].index(manifest["stages"][0])
        patterns = [pattern for stage in STAGES[first:] for pattern in stage.writes]
        on_disk = {p.name for p in out_dir.iterdir() if any(fnmatch(p.name, pat) for pat in patterns)}
        assert listed == on_disk
        if command == "train":  # it ran from the first stage: every file is listed
            assert listed == {p.name for p in out_dir.iterdir()} - {"manifest.json"}

    def test_another_mode_leaves_only_what_its_manifest_lists(self, synth_dir, tmp_path):
        # A voter-ensemble pipeline left the full-st run's model, self-training
        # log and validation metrics beside its own files, unlisted.
        out_dir = tmp_path / "run"
        cfg = small_config(synth_dir, out_dir, mode="full-st")
        cfg["valid"] = str(synth_dir / "valid.tsv")
        cfg_path = write_config(cfg, tmp_path / "cfg.json")
        stale = ("model.bin", "selftrain_log.jsonl", "valid_metrics.jsonl")
        assert main(["pipeline", "--config", cfg_path]) == 0
        assert all((out_dir / name).exists() for name in stale)
        assert main(["pipeline", "--config", cfg_path, "--mode", "voter-ensemble"]) == 0
        assert not [name for name in stale if (out_dir / name).exists()]
        listed, on_disk = listed_and_on_disk(out_dir)
        assert listed == on_disk and "report.json" in listed

    def test_voter_ensemble_writes_no_risk_log(self, synth_dir, tmp_path):
        # The mode trains no classifier, yet it wrote and listed an empty
        # risk_log.jsonl in place of the earlier run's.
        out_dir = tmp_path / "run"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        assert (out_dir / "risk_log.jsonl").stat().st_size > 0
        assert main(["pipeline", "--config", cfg_path, "--mode", "voter-ensemble"]) == 0
        assert not (out_dir / "risk_log.jsonl").exists()
        assert "risk_log" not in json.loads((out_dir / "manifest.json").read_text())["artifacts"]
        listed, on_disk = listed_and_on_disk(out_dir)
        assert listed == on_disk

    def test_fewer_voters_leave_no_stale_voter(self, synth_dir, tmp_path):
        out_dir = tmp_path / "run"
        cfg = small_config(synth_dir, out_dir)
        cfg["voters"]["count"] = 7
        assert main(["train-voters", "--config", write_config(cfg, tmp_path / "seven.json")]) == 0
        assert (out_dir / "voter_6.bin").exists()
        cfg["voters"]["count"] = 5
        assert main(["train-voters", "--config", write_config(cfg, tmp_path / "five.json")]) == 0
        assert sorted(p.name for p in out_dir.glob("voter_*.bin")) == [f"voter_{i}.bin" for i in range(5)]
        listed, on_disk = listed_and_on_disk(out_dir)
        assert listed == on_disk

    def test_a_bad_test_path_leaves_the_previous_run_alone(self, synth_dir, tmp_path, capsys):
        # a run that fails before its inputs are read removes nothing
        out_dir = tmp_path / "run"
        cfg = small_config(synth_dir, out_dir, mode="full-st")
        assert main(["pipeline", "--config", write_config(cfg, tmp_path / "a.json")]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"}
        cfg["test"] = str(tmp_path / "missing.tsv")
        cfg_path = write_config(cfg, tmp_path / "b.json")
        assert main(["pipeline", "--config", cfg_path, "--mode", "voter-ensemble"]) == 2
        assert "test file not found" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"} == before
        assert json.loads((out_dir / "manifest.json").read_text())["status"] == "error"

    def test_analyze_command(self, synth_dir, tmp_path):
        out_dir = tmp_path / "analyze"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["analyze", "--config", cfg_path]) == 0
        assert (out_dir / "curriculum_analysis.csv").exists()
        assert (out_dir / "noise_report.json").exists()

    def test_staged_train_matches_pipeline_checkpoint(self, synth_dir, tmp_path):
        # train-voters -> build-plan -> train must reproduce the pipeline's
        # classifier bit for bit (same derived seeds, voters reloaded from
        # checkpoints exactly)
        pipe_out = tmp_path / "pipe"
        cfg_path = write_config(small_config(synth_dir, pipe_out), tmp_path / "p.json")
        assert main(["pipeline", "--config", cfg_path]) == 0

        staged_out = tmp_path / "staged"
        cfg_path2 = write_config(small_config(synth_dir, staged_out), tmp_path / "s.json")
        assert main(["train-voters", "--config", cfg_path2]) == 0
        assert main(["build-plan", "--config", cfg_path2]) == 0
        assert main(["train", "--config", cfg_path2]) == 0
        assert (pipe_out / "model.bin").read_bytes() == (staged_out / "model.bin").read_bytes()


class TestConfig:
    def test_minimal_config(self):
        cfg = config_from_dict({"train": "x.tsv"})
        assert cfg.mode == "full"
        assert cfg.curriculum.eta == 5
        assert cfg.risk.epsilon == 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError, match="unknown config keys"):
            config_from_dict({"train": "x", "trian": "y"})
        with pytest.raises(FormatError, match="voters"):
            config_from_dict({"train": "x", "voters": {"cuont": 3}})

    def test_bad_section_value(self):
        with pytest.raises(FormatError):
            config_from_dict({"train": "x", "risk": {"epsilon": 2.0}})

    def test_missing_train(self):
        with pytest.raises(FormatError, match="train"):
            config_from_dict({})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("allow_same_split", "false"),
            ("allow_same_split", 0),
            ("require_type_match", "true"),
            ("require_type_match", None),
            ("seed", 3.9),
            ("seed", "7"),
            ("seed", True),
            ("threads", 2.0),
            ("threads", "2"),
        ],
    )
    def test_top_level_values_are_not_coerced(self, key, value):
        with pytest.raises(FormatError, match=key):
            config_from_dict({"train": "x", key: value})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("voters", "epochs", 1.5),
            ("voters", "batch_size", 1.5),
            ("voters", "count", "3"),
            ("curriculum", "eta", True),
            ("curriculum", "tau", "0.5"),
            ("model", "embed_dim", "32"),
            ("model", "init_scale", None),
            ("risk", "gamma", True),
            ("risk", "loss", 3),
            ("risk", "aggregate_clamp", 1),
            ("self_train", "rounds", 2.0),
            # Out of range: rejected when the config is loaded.
            ("curriculum", "tau", 1.5),
            ("curriculum", "tau", 0.0),
            ("curriculum", "eta", 0),
            ("curriculum", "stage_epochs", 0),
            ("curriculum", "batch_size", 0),
            ("curriculum", "learning_rate", 0.0),
        ],
    )
    def test_section_values_are_not_coerced(self, section, key, value):
        with pytest.raises(FormatError, match=key):
            config_from_dict({"train": "x", section: {key: value}})

    def test_section_float_fields_take_integers(self):
        cfg = config_from_dict(
            {"train": "x", "risk": {"gamma": 5, "loss": "mae", "aggregate_clamp": True},
             "curriculum": {"learning_rate": 1, "eta": 3}}
        )
        assert (cfg.risk.gamma, cfg.risk.loss, cfg.risk.aggregate_clamp) == (5, "mae", True)
        assert (cfg.curriculum.learning_rate, cfg.curriculum.eta) == (1, 3)

    def test_float_epochs_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = small_config(synth_dir, tmp_path / "run")
        cfg["voters"]["epochs"] = 1.5
        assert main(["train-voters", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_of_range_curriculum_exits_2_before_any_voter(self, synth_dir, tmp_path, capsys):
        cfg = small_config(synth_dir, tmp_path / "run")
        cfg["curriculum"]["tau"] = 1.5
        assert main(["train-voters", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 2
        assert "tau" in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("voter_*.bin"))

    @pytest.mark.parametrize(
        "section, key, value",
        [("voters", "learning_rate", math.nan), ("model", "init_scale", math.nan), ("risk", "gamma", math.inf),
         ("curriculum", "learning_rate", math.inf), ("self_train", "sharpen", math.nan)],
    )
    def test_non_finite_value_exits_2_at_load(self, synth_dir, tmp_path, capsys, section, key, value):
        # Python's json reads NaN and Infinity; unchecked, each of these fails only mid-training (exit 4).
        cfg = small_config(synth_dir, tmp_path / "run", mode="full-st")
        cfg[section][key] = value
        assert main(["pipeline", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 2
        assert f"config section {section!r} key {key!r} must be a finite number" in capsys.readouterr().err
        assert {p.name for p in (tmp_path / "run").glob("*")} <= {"manifest.json"}

    @pytest.mark.parametrize(
        "key, value",
        [("embed_dim", 0), ("hidden_dim", 0), ("min_count", 0), ("max_sentence_len", 0), ("window", -1),
         ("init_scale", 0.0)],
    )
    def test_out_of_range_model_value_exits_2_at_load(self, synth_dir, tmp_path, capsys, key, value):
        # Unchecked, each of these gets past load, reads every corpus, and
        # fails later with a message that names neither section nor key.
        cfg = small_config(synth_dir, tmp_path / "run")
        cfg["model"][key] = value
        assert main(["pipeline", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 2
        assert f"bad config section 'model': {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # no manifest: no input was hashed

    @pytest.mark.parametrize("key", ["hidden_dim", "embed_dim", "window"])
    def test_model_too_big_to_allocate_exits_2(self, synth_dir, tmp_path, key):
        # 10**13 makes a parameter array larger than a 47-bit address space,
        # so the allocation fails at once and no memory is ever committed.
        cfg = small_config(synth_dir, tmp_path / "run")
        cfg["model"][key] = 10**13
        proc = subprocess.run(
            [sys.executable, "-m", "pucl", "pipeline", "--config", write_config(cfg, tmp_path / "cfg.json")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(pucl.pipeline.__file__).parents[1]), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert {p.name for p in (tmp_path / "run").iterdir()} == {"manifest.json"}

    def test_top_level_values_of_the_right_type(self):
        cfg = config_from_dict(
            {"train": "x", "seed": 3, "threads": 2, "allow_same_split": True,
             "require_type_match": False, "dict": None, "test": "t", "valid": None}
        )
        assert (cfg.seed, cfg.threads, cfg.allow_same_split, cfg.require_type_match) == (
            3, 2, True, False
        )
        assert (cfg.dict_path, cfg.test, cfg.valid) == (None, "t", None)

    @pytest.mark.parametrize(
        "key, value",
        [("train", 5), ("train", None), ("dict", 5), ("test", ["t.tsv"]), ("valid", 1.5),
         ("out", 7), ("out", None)],
    )
    def test_non_string_path_exits_2(self, synth_dir, tmp_path, capsys, key, value):
        cfg = small_config(synth_dir, tmp_path / "run")
        cfg[key] = value
        assert main(["pipeline", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 2
        assert f"config key {key!r} must be a JSON string" in capsys.readouterr().err


def _risk_log_stages(out_dir: Path) -> list[int]:
    lines = (out_dir / "risk_log.jsonl").read_text().splitlines()
    return sorted({json.loads(line)["stage"] for line in lines})


class TestStageReuse:
    """A stage subcommand reuses saved voters only when their fingerprint
    matches, and always rebuilds the plan."""

    def test_matching_voters_are_reused(self, synth_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg_path = write_config(small_config(synth_dir, out), tmp_path / "cfg.json")
        assert main(["train-voters", "--config", cfg_path]) == 0
        voters = [(out / f"voter_{i}.bin").read_bytes() for i in range(2)]

        def no_training(*args, **kwargs):
            raise AssertionError("voters retrained although their fingerprint matches")

        monkeypatch.setattr(pucl.pipeline, "train_voters", no_training)
        # threads change nothing in the voters' bytes, so they are no part
        # of the fingerprint
        assert main(["train", "--config", cfg_path, "--threads", "2"]) == 0
        assert json.loads((out / "manifest.json").read_text())["voters_reused"] is True
        assert [(out / f"voter_{i}.bin").read_bytes() for i in range(2)] == voters

        monkeypatch.undo()
        assert main(["pipeline", "--config", cfg_path]) == 0  # reuses nothing
        assert json.loads((out / "manifest.json").read_text())["voters_reused"] is False

    def test_voters_retrained_after_a_source_change(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(small_config(synth_dir, out), tmp_path / "cfg.json")
        assert main(["train-voters", "--config", cfg_path]) == 0
        package = tmp_path / "src" / "pucl"
        shutil.copytree(
            Path(pucl.pipeline.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
        )

        def train_reuses_voters() -> bool:
            proc = subprocess.run(
                [sys.executable, "-m", "pucl", "train", "--config", cfg_path],
                capture_output=True,
                env={"PYTHONPATH": str(package.parent), "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return json.loads((out / "manifest.json").read_text())["voters_reused"]

        assert train_reuses_voters() is True  # an identical copy of the code
        voters_py = package / "voters.py"
        voters_py.write_text(voters_py.read_text(encoding="utf-8") + "# a comment\n", encoding="utf-8")
        assert train_reuses_voters() is False

    def test_stale_voters_are_retrained(self, synth_dir, tmp_path):
        out = tmp_path / "staged"
        cfg_a = small_config(synth_dir, out)
        assert main(["train-voters", "--config", write_config(cfg_a, tmp_path / "a.json")]) == 0
        voter_a = (out / "voter_0.bin").read_bytes()

        cfg_b = small_config(synth_dir, out, seed=12)
        cfg_b["voters"]["epochs"] = 2
        assert main(["train", "--config", write_config(cfg_b, tmp_path / "b.json")]) == 0

        pipe = tmp_path / "pipe"
        cfg_pipe = small_config(synth_dir, pipe, seed=12)
        cfg_pipe["voters"]["epochs"] = 2
        assert main(["pipeline", "--config", write_config(cfg_pipe, tmp_path / "p.json")]) == 0
        assert (out / "voter_0.bin").read_bytes() == (pipe / "voter_0.bin").read_bytes() != voter_a
        assert (out / "model.bin").read_bytes() == (pipe / "model.bin").read_bytes()

    def test_voters_swapped_under_a_matching_fingerprint_exit_3(self, synth_dir, tmp_path):
        other = tmp_path / "other"
        assert main([
            "gen-synthetic", "--out", str(other), "--sentences", "40", "--test-sentences", "0",
            "--valid-sentences", "0", "--dict-size", "10", "--seed", "8",
        ]) == 0
        foreign = small_config(synth_dir, tmp_path / "foreign")
        foreign["train"] = str(other / "train.tsv")
        assert main(["train-voters", "--config", write_config(foreign, tmp_path / "f.json")]) == 0
        out = tmp_path / "run"
        cfg_path = write_config(small_config(synth_dir, out), tmp_path / "cfg.json")
        assert main(["train-voters", "--config", cfg_path]) == 0
        for i in range(2):
            (out / f"voter_{i}.bin").write_bytes((tmp_path / "foreign" / f"voter_{i}.bin").read_bytes())
        assert main(["score-difficulty", "--config", cfg_path]) == 3

    def test_stale_plan_is_rebuilt(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(synth_dir, out)
        assert main(["build-plan", "--config", write_config(cfg, tmp_path / "eta2.json")]) == 0
        assert json.loads((out / "plan.json").read_text())["eta"] == 2
        cfg["curriculum"]["eta"] = 3
        assert main(["train", "--config", write_config(cfg, tmp_path / "eta3.json")]) == 0
        assert _risk_log_stages(out) == [1, 2, 3]
        assert json.loads((out / "plan.json").read_text())["eta"] == 3

    def test_plan_from_another_corpus_is_ignored(self, tmp_path):
        for name, sentences in (("big", "300"), ("small", "50")):
            assert main([
                "gen-synthetic", "--out", str(tmp_path / name), "--sentences", sentences,
                "--test-sentences", "0", "--valid-sentences", "0", "--dict-size", "10",
                "--seed", "9",
            ]) == 0
        out = tmp_path / "run"
        cfg = {
            "train": str(tmp_path / "big" / "train.tsv"),
            "out": str(out),
            "seed": 9,
            "model": {"embed_dim": 8, "hidden_dim": 8},
            "voters": {"count": 2, "epochs": 1},
            "curriculum": {"eta": 2, "stage_epochs": 1},
        }
        assert main(["build-plan", "--config", write_config(cfg, tmp_path / "big.json")]) == 0
        cfg["train"] = str(tmp_path / "small" / "train.tsv")
        assert main(["train", "--config", write_config(cfg, tmp_path / "small.json")]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert max(s for pairs in plan["curricula"] for s, _ in pairs) < 50
        assert plan["t_u"] + plan["t_p"] == read(tmp_path / "small" / "train.tsv").n_tokens


def failing_write(filename: str):
    """``pipeline.atomic_open`` with a write of ``filename`` that raises
    once its bytes are written, before they are moved into place."""
    real = pucl.pipeline.atomic_open

    @contextmanager
    def atomic_open(path, mode="w"):
        with real(path, mode) as f:
            yield f
            if Path(path).name == filename:
                raise OSError(f"no space left writing {filename}")

    return atomic_open


class TestAtomicWrites:
    def test_failed_checkpoint_write_lists_no_model(self, synth_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", write_config(small_config(synth_dir, out), tmp_path / "a.json")]) == 0
        before = (out / "model.bin").read_bytes()
        save = pucl.pipeline.save_checkpoint

        def torn(model, stream):
            if ".model.bin." not in stream.name:
                return save(model, stream)
            stream.write(before[:100])
            raise OSError("killed while writing the checkpoint")

        monkeypatch.setattr(pucl.pipeline, "save_checkpoint", torn)
        cfg_path = write_config(small_config(synth_dir, out, seed=12), tmp_path / "b.json")
        assert main(["pipeline", "--config", cfg_path]) == 2  # an OSError is exit 2
        assert "killed while writing" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "model" not in manifest["artifacts"] and not (out / "model.bin").exists()
        assert not list(out.glob("*.tmp")) and not list(out.glob(".*"))

    @pytest.mark.parametrize("filename", ["plan.json", "risk_log.jsonl", "model.bin", "voter_0.bin", "voters.sha256"])
    def test_failed_write_is_not_listed(self, synth_dir, tmp_path, monkeypatch, capsys, filename):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", write_config(small_config(synth_dir, out), tmp_path / "a.json")]) == 0
        assert (out / filename).exists()
        monkeypatch.setattr(pucl.pipeline, "atomic_open", failing_write(filename))
        cfg_path = write_config(small_config(synth_dir, out, seed=12), tmp_path / "b.json")
        assert main(["pipeline", "--config", cfg_path]) == 2
        assert f"writing {filename}" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        listed, on_disk = listed_and_on_disk(out)
        assert filename not in listed and not (out / filename).exists()
        assert listed == on_disk

    def test_failed_self_train_keeps_the_teacher(self, synth_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(small_config(synth_dir, out), tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        teacher = (out / "model.bin").read_bytes()
        monkeypatch.setattr(pucl.pipeline, "atomic_open", failing_write("model.bin"))
        assert main(["self-train", "--config", cfg_path]) == 2
        assert "writing model.bin" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert Path(manifest["artifacts"]["model"]) == out / "model.bin"
        assert (out / "model.bin").read_bytes() == teacher

    def test_killed_runs_temp_files_are_removed(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        planted = [".model.bin.99999.tmp", ".voter_0.bin.99999.tmp", ".manifest.json.99999.tmp"]
        for name in planted + [".notes"]:
            (out / name).write_bytes(b"cut off")
        assert main(["pipeline", "--config", write_config(small_config(synth_dir, out), tmp_path / "a.json")]) == 0
        assert not any((out / name).exists() for name in planted)
        assert (out / ".notes").exists()  # not a name that a run writes

    def test_cut_voter_rewrite_is_never_reused(self, synth_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        cfg_a = write_config(small_config(synth_dir, out), tmp_path / "a.json")
        assert main(["train-voters", "--config", cfg_a]) == 0
        voters_a = [(out / f"voter_{i}.bin").read_bytes() for i in range(2)]

        save = pucl.pipeline.save_checkpoint
        saved = []

        def cut_after_first(model, stream):
            if saved:
                raise OSError("killed after voter_0")
            saved.append(stream.name)
            save(model, stream)

        monkeypatch.setattr(pucl.pipeline, "save_checkpoint", cut_after_first)
        cfg_b = write_config(small_config(synth_dir, out, seed=12), tmp_path / "b.json")
        assert main(["train-voters", "--config", cfg_b]) == 2
        assert "killed after voter_0" in capsys.readouterr().err
        monkeypatch.undo()
        # voter_0 is config B's, voter_1 still config A's, and no fingerprint
        assert (out / "voter_0.bin").read_bytes() != voters_a[0]
        assert not (out / "voters.sha256").exists()

        assert main(["score-difficulty", "--config", cfg_a]) == 0
        assert [(out / f"voter_{i}.bin").read_bytes() for i in range(2)] == voters_a
        assert json.loads((out / "manifest.json").read_text())["voters_reused"] is False

    def test_failed_voter_training_lists_no_voter(self, synth_dir, tmp_path, monkeypatch, capsys):
        train_one = pucl.voters._train_one_voter

        def fail_second(*args):
            if args[-1] == 1:  # the voter index
                raise NumericError("non-finite risk (voter 1)")
            return train_one(*args)

        monkeypatch.setattr(pucl.voters, "_train_one_voter", fail_second)
        out = tmp_path / "run"
        cfg = small_config(synth_dir, out)
        cfg["voters"]["count"] = 3
        assert main(["pipeline", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 4
        assert "voter 1" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert not [name for name in manifest["artifacts"] if name.startswith("voter")]
        assert all(Path(p).exists() for p in manifest["artifacts"].values())


class TestStageList:
    def test_subcommand_stages(self):
        names = {
            until: [s.name for s in stages_up_to(until)] for until in ("voters", "train", "self-train", "analysis")
        }
        assert names == {
            "voters": ["voters"],
            "train": ["voters", "difficulty", "plan", "train"],
            "self-train": ["self-train"],
            "analysis": ["voters", "difficulty", "plan", "analysis"],
        }
        assert [s.name for s in stages_up_to(None)] == [s.name for s in STAGES]
        with pytest.raises(ValueError):
            stages_up_to("bogus")

    def test_every_artifact_is_declared_by_its_stage(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(synth_dir, out, mode="full-st")
        cfg["valid"] = str(synth_dir / "valid.tsv")
        assert main(["pipeline", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 0
        patterns = [pattern for stage in STAGES for pattern in stage.writes]
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert all(any(fnmatch(name, pattern) for pattern in patterns) for name in written)
        assert all(any(fnmatch(name, pattern) for name in written) for pattern in patterns)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"] == [s.name for s in STAGES]
        assert sorted(Path(p).name for p in manifest["artifacts"].values()) == written

    @pytest.mark.parametrize("mode", MODES)
    def test_every_listed_artifact_matches_a_stage_pattern(self, synth_dir, tmp_path, mode):
        out = tmp_path / "run"
        cfg_path = write_config(small_config(synth_dir, out, mode=mode), tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        patterns = [pattern for stage in STAGES for pattern in stage.writes]
        listed, _ = listed_and_on_disk(out)
        assert listed and all(any(fnmatch(name, pattern) for pattern in patterns) for name in listed)

    def test_trainers_are_looked_up_when_called(self, synth_dir, tmp_path, monkeypatch):
        # a tracer replaces module-level names; the mode table must see it
        calls = []
        train = pucl.pipeline.train_baby_step

        def spy(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(pucl.pipeline, "train_baby_step", spy)
        cfg_path = write_config(small_config(synth_dir, tmp_path / "run"), tmp_path / "cfg.json")
        assert main(["train", "--config", cfg_path]) == 0
        assert calls == [1]


COMMON_OPTIONS = {"--config", "--seed", "--threads", "--out", "--mode"}
CLI_SURFACE = {
    "annotate": {"--dict", "--in", "--out"},
    "train-voters": COMMON_OPTIONS,
    "score-difficulty": COMMON_OPTIONS,
    "build-plan": COMMON_OPTIONS,
    "train": COMMON_OPTIONS,
    "self-train": COMMON_OPTIONS,
    "evaluate": {"--model", "--test", "--out"},
    "analyze": COMMON_OPTIONS,
    "pipeline": COMMON_OPTIONS,
    "sweep": COMMON_OPTIONS | {"--vary", "--values"},
    "gen-synthetic": {
        "--out", "--sentences", "--test-sentences", "--valid-sentences", "--types",
        "--dict-size", "--fn-rate", "--fp-rate", "--type-rate", "--seed",
    },
}


class TestCliSurface:
    def test_subcommands_and_options(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert len(surface) == 11
        assert surface == CLI_SURFACE

    def test_every_benchmark_spec_field_is_one_gen_synthetic_flag(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a for a in sub.choices["gen-synthetic"]._actions if a.dest not in ("help", "out", "seed")]
        assert sorted(a.dest for a in actions) == sorted(f.name for f in fields(BenchmarkSpec))
        assert all(len(a.option_strings) == 1 for a in actions)
        args = parser.parse_args(["gen-synthetic", "--out", "bench"])
        parsed = {f.name: getattr(args, f.name) for f in fields(BenchmarkSpec)}
        assert parsed == asdict(BenchmarkSpec())
        assert all(type(parsed[f.name]) is type(f.default) for f in fields(BenchmarkSpec))

    def test_train_in_voter_ensemble_mode_exit_3(self, synth_dir, tmp_path):
        cfg_path = write_config(small_config(synth_dir, tmp_path / "run"), tmp_path / "cfg.json")
        assert main(["train", "--config", cfg_path, "--mode", "voter-ensemble"]) == 3

    def test_analyze_without_gold_exit_3(self, synth_dir, tmp_path):
        lines = (synth_dir / "train.tsv").read_text().splitlines()
        no_gold = tmp_path / "train.tsv"
        no_gold.write_text("\n".join("\t".join(line.split("\t")[:2]) for line in lines) + "\n")
        cfg = small_config(synth_dir, tmp_path / "run")
        cfg["train"] = str(no_gold)
        assert main(["analyze", "--config", write_config(cfg, tmp_path / "cfg.json")]) == 3


class TestUnopenablePaths:
    """A path that exists but cannot be opened is an input error: exit 2."""

    def assert_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["pipeline", "train-voters"])
    @pytest.mark.parametrize("key", ["train", "dict"])
    def test_input_is_a_directory(self, synth_dir, tmp_path, capsys, command, key):
        cfg = small_config(synth_dir, tmp_path / "run")
        cfg["dict"] = str(synth_dir / "dict.tsv")
        cfg[key] = str(tmp_path)
        self.assert_exit_2([command, "--config", write_config(cfg, tmp_path / "cfg.json")], capsys)

    def test_evaluate_model_is_a_directory(self, synth_dir, tmp_path, capsys):
        self.assert_exit_2(
            ["evaluate", "--model", str(tmp_path), "--test", str(synth_dir / "test.tsv")], capsys
        )

    def test_evaluate_test_is_a_directory(self, tmp_path, trained, capsys):
        self.assert_exit_2(
            ["evaluate", "--model", str(trained / "model.bin"), "--test", str(tmp_path)], capsys
        )

    @pytest.mark.parametrize("option", ["--dict", "--in", "--out"])
    def test_annotate_path_is_a_directory(self, synth_dir, tmp_path, capsys, option):
        paths = {
            "--dict": str(synth_dir / "dict.tsv"),
            "--in": str(synth_dir / "test.tsv"),
            "--out": str(tmp_path / "out.tsv"),
        }
        paths[option] = str(tmp_path)
        self.assert_exit_2(["annotate", *[x for kv in paths.items() for x in kv]], capsys)

    def test_pipeline_out_is_an_existing_file(self, synth_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        cfg_path = write_config(small_config(synth_dir, taken), tmp_path / "cfg.json")
        self.assert_exit_2(["pipeline", "--config", cfg_path], capsys)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, synth_dir, tmp_path):
        env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pucl", "annotate",
             "--dict", str(synth_dir / "dict.tsv"),
             "--in", str(synth_dir / "test.tsv"),
             "--out", str(tmp_path / "out.tsv")],
            capture_output=True,
            env={**env, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert (tmp_path / "out.tsv").exists()
