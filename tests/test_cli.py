import argparse
import io
import json
import math
import shutil
import struct
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import pucl.pipeline
from pucl.benchmark import BENCHMARK_CONFIG, BenchmarkSpec, make_benchmark
from pucl.cli import build_parser, main
from pucl.config import config_from_dict, load_config
from pucl.corpus import Token, Vocab, read_conll, write_conll
from pucl.errors import FormatError
from pucl.model import load_checkpoint
from pucl.pipeline import STAGES, run_pipeline, stages_up_to
from pucl.seeding import derive_seed


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
        bad = tmp_path / "model.bin"
        bad.write_bytes(_nan_weight((trained / "model.bin").read_bytes()))
        cfg_path = write_config(small_config(synth_dir, tmp_path / "run"), tmp_path / "cfg.json")
        assert main(["self-train", "--config", cfg_path, "--model", str(bad)]) == 2
        assert "non-finite values in w2" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model_selftrained.bin").exists()


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
        out_dir = tmp_path / "st"
        cfg_path = write_config(small_config(synth_dir, out_dir), tmp_path / "cfg.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        assert main(["self-train", "--config", cfg_path]) == 0
        student_path = out_dir / "model_selftrained.bin"
        assert student_path.exists()
        with open(student_path, "rb") as f:
            load_checkpoint(f)

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


class TestAtomicWrites:
    def test_killed_checkpoint_write_keeps_the_old_model(self, synth_dir, tmp_path, monkeypatch, capsys):
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
        assert (out / "model.bin").read_bytes() == before
        assert not list(out.glob("*.tmp")) and not list(out.glob(".*"))
        assert json.loads((out / "manifest.json").read_text())["status"] == "error"

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


class TestStageList:
    def test_subcommand_stages(self):
        names = {until: [s.name for s in stages_up_to(until)] for until in ("voters", "train", "analysis")}
        assert names == {
            "voters": ["voters"],
            "train": ["voters", "difficulty", "plan", "train"],
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
    "self-train": COMMON_OPTIONS | {"--model", "--out-model"},
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
