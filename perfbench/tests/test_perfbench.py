"""Tests of the benchmark itself, at tiny corpus sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def state_dir(tmp_path, monkeypatch):
    """Keep every benchmark file of a test in its own directory."""
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    return tmp_path / "state"


@pytest.fixture
def tiny(monkeypatch):
    """Corpora a twentieth of the benchmark's size."""
    for name, n in (("N_TRAIN", 100), ("N_TEST", 25), ("N_VALID", 3), ("N_APPLY", 1000)):
        monkeypatch.setattr(inputs, name, n)


def bench(capsys, workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in inputs.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.usefixtures("tiny")
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_comes_out_with_its_unit(capsys, workload, trace):
    result, out = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= run.MIN_RUNS and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, m in result["metrics"].items():
        assert f"  {name} " in out  # printed by name, with its unit, above the JSON
    assert "fail_ratio" in out and "nproc=" in out and "loadavg_after=" in out
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0
        assert metrics["success_ratio"] == 1.0
    elif workload == "annotate-apply":
        assert metrics["distant.annotate_calls"] == inputs.N_APPLY
        assert metrics["voters.train_s"] == 0
    else:
        # train_voters is reached through pucl.pipeline's own binding of it
        assert metrics["voters.train_s"] > 0
        assert metrics["voters.corpus_passes"] == 10  # 5 voters, confidence + difficulty
        assert metrics["model.adam_steps"] == metrics["model.backward_calls"] > 0
        assert 0 < metrics["risk.pn_kept_ratio"] < 1


def _corrupt_model(run_dir: Path, proc: run.Process) -> run.Process:
    with open(run_dir / "model.bin", "ab") as f:
        f.write(b"\0")
    return proc


def _change_f1(run_dir: Path, proc: run.Process) -> run.Process:
    path = run_dir / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["strict"]["f1"] += 1e-9
    path.write_text(json.dumps(report), encoding="utf-8")
    return proc


def _exit_early(run_dir: Path, proc: run.Process) -> run.Process:
    return run.Process(exit_code=1, wall_s=1e-3, cpu_s=1e-3, peak_rss_mb=1.0)


@pytest.mark.usefixtures("tiny")
@pytest.mark.parametrize("breaks", [_corrupt_model, _change_f1, _exit_early])
def test_a_broken_output_raises_fail_ratio(capsys, monkeypatch, breaks):
    real = run.run_process

    def run_then_break(argv, log, *rest):
        proc = real(argv, log, *rest)
        if log.parent.name == "run1-logs":
            proc = breaks(log.parent.parent / "run1", proc)
        return proc

    monkeypatch.setattr(run, "run_process", run_then_break)
    result, out = bench(capsys, "paper-bench", 0)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["success_ratio"]["value"] == 1 - 1 / result["attempted"]
    assert f"1 of {result['attempted']} runs failed" in out
    assert "run 1: " in out and "FAILED" in out
    # times and F1 come from the runs that passed
    assert result["metrics"]["wall_s"]["value"] > 0.1
    assert result["metrics"]["peak_rss_mb"]["value"] > 1.0


@pytest.mark.usefixtures("tiny")
def test_later_invocations_compare_with_the_first(capsys, state_dir):
    bench(capsys, "annotate-apply", 0)
    path = next((state_dir / "refs").iterdir())
    stored = json.loads(path.read_text(encoding="utf-8"))
    [ref] = stored.values()
    ref["digests"]["annotated.tsv"] = "0" * 64
    path.write_text(json.dumps(stored), encoding="utf-8")
    result, _ = bench(capsys, "annotate-apply", 1)
    assert result["failed"] == result["attempted"]


@pytest.mark.usefixtures("tiny")
def test_an_f1_change_against_other_sources_is_flagged(capsys, state_dir):
    _, out = bench(capsys, "paper-bench", 0)
    assert "CHANGED" not in out
    path = next((state_dir / "refs").iterdir())
    stored = json.loads(path.read_text(encoding="utf-8"))
    [ref] = stored.values()
    stored["f" * 64] = {**ref, "strict_f1": ref["strict_f1"] - 0.01}
    path.write_text(json.dumps(stored), encoding="utf-8")
    result, out = bench(capsys, "paper-bench", 0)
    assert result["correct"] is True  # the other sources' run is not this code's reference
    assert f"strict_f1 CHANGED at this seed: {ref['strict_f1'] - 0.01!r} with sources ffffffffffff" in out
    record = json.loads(next((state_dir / "results").iterdir()).read_text(encoding="utf-8"))
    assert record["strict_f1_changed"] is True


def test_paper_bench_inputs_are_gen_synthetic_files(tmp_path):
    inputs.generate(inputs.WORKLOADS["paper-bench"], 42, tmp_path / "bench")
    subprocess.run(
        [sys.executable, "-m", "pucl", "gen-synthetic", "--out", str(tmp_path / "cli"), "--seed", "42"],
        check=True, env=run.child_env(), stdout=subprocess.DEVNULL,
    )
    for name in ("train.tsv", "test.tsv", "valid.tsv", "dict.tsv"):
        assert (tmp_path / "bench" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


@pytest.mark.usefixtures("tiny")
def test_wide_vocab_keeps_the_token_count(tmp_path):
    paper = inputs.generate(inputs.WORKLOADS["paper-bench"], 5, tmp_path / "p")
    wide = inputs.generate(inputs.WORKLOADS["wide-vocab"], 5, tmp_path / "w")
    assert wide.tokens == paper.tokens and wide.train_tokens == paper.train_tokens


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-bench", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _trace(spans_: list[tuple[str, int, int, int, int]]) -> dict:
    """Span file from (name, parent, start_ns, end_ns, count) tuples."""
    names = sorted({s[0] for s in spans_})
    return {
        "run": 0,
        "names": names,
        "name": [names.index(s[0]) for s in spans_],
        "parent": [s[1] for s in spans_],
        "start_ns": [s[2] for s in spans_],
        "end_ns": [s[3] for s in spans_],
        "count": [s[4] for s in spans_],
    }


def test_layer_metrics_count_nested_calls_once_and_self_time():
    ms = 1_000_000
    trace = _trace([
        ("startup", -1, 0, 100 * ms, 0),
        ("cli.main", -1, 100 * ms, 1000 * ms, 0),
        ("pipeline.run_pipeline", 1, 110 * ms, 990 * ms, 0),
        ("model.TokenClassifier.encode_corpus", 2, 120 * ms, 220 * ms, 0),
        ("corpus.Vocab.encode_sentence", 3, 130 * ms, 140 * ms, 0),
        ("voters.train_voters", 2, 300 * ms, 600 * ms, 0),
        ("model.TokenClassifier.forward_rows", 5, 310 * ms, 320 * ms, 40),
        ("voters.difficulty_scores", 2, 700 * ms, 800 * ms, 0),
        ("model.TokenClassifier.forward_rows", 7, 710 * ms, 720 * ms, 20),
    ])
    m = spans.layer_metrics([trace], train_tokens=10)
    assert m["corpus.encode_s"] == pytest.approx(0.1)  # the nested call is inside
    assert m["corpus.encode_calls"] == 2
    assert m["pipeline.self_s"] == pytest.approx(0.88 - 0.1 - 0.3 - 0.1)
    assert m["cli.self_s"] == pytest.approx(0.9 - 0.88)
    assert m["cli.startup_s"] == pytest.approx(0.1)
    assert m["trace.top_level_s"] == pytest.approx(1.0)  # kept in the run record
    assert m["model.forward_rows"] == 60 and m["model.forward_calls"] == 2
    assert m["voters.corpus_passes"] == 2  # 20 inference rows over 10 tokens
    assert m["model.forward_p50_us"] == pytest.approx(10_000)
    assert m["model.adam_p99_us"] == 0 and m["model.adam_steps"] == 0
