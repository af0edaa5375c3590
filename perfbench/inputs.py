"""Seeded inputs and commands of the three benchmark workloads.

Every input file is generated from the workload seed with pucl's own
synthetic generator (``SyntheticSpec`` + ``generate_synthetic`` +
``inject_noise``), drawing the same named random streams as
``pucl gen-synthetic``. At seed 42 the ``paper-bench`` files are therefore
byte-identical to ``pucl gen-synthetic --seed 42``. pucl itself only ever
sees the written files, through its CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# `pucl gen-synthetic` defaults: split sizes, dictionary size, noise profile.
N_TRAIN, N_TEST, N_VALID = 2000, 500, 50
DICT_SIZE = 60
FN_RATE, FP_RATE, TYPE_RATE = 0.4, 0.05, 0.05
# Extra sentences of the annotate-apply corpus, drawn after the paper splits
# in the same generator pass (about 186k tokens).
N_APPLY = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str | None  # pipeline mode; None runs annotate + evaluate instead
    filler_vocab: int = 150
    zipf_exponent: float = 1.1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-bench",
            "The paper's own setting: every phase runs, including self-training; "
            "small vocabulary, so per-step cost is matmul, scatter and Python overhead",
            mode="full-st",
        ),
        Workload(
            "wide-vocab",
            "Same token count with a long-tailed filler vocabulary (about 3,400 words), "
            "so costs that grow with vocabulary size (dense Adam, checkpoints) dominate",
            mode="full",
            filler_vocab=20_000,
            zipf_exponent=0.5,
        ),
        Workload(
            "annotate-apply",
            "Inference only: annotate and evaluate about 186k tokens with a checkpoint "
            "trained in set-up; stresses corpus reading, matching and prediction",
            mode=None,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload and the token counts metrics need."""

    dir: Path
    tokens: int  # tokens in the corpora the measured commands read
    train_tokens: int

    @property
    def config(self) -> Path:
        return self.dir / "config.json"


def generate(workload: Workload, seed: int, out: Path) -> Inputs:
    """Write the workload's corpora, dictionary and pipeline config under
    ``out``. The split sizes are read from this module's constants when
    called, so tests can shrink them."""
    from pucl.corpus import Corpus, Sentence, Token, write_conll
    from pucl.distant import SyntheticSpec, generate_synthetic, inject_noise
    from pucl.seeding import make_rng

    n_train, n_test, n_valid = N_TRAIN, N_TEST, N_VALID
    n_apply = N_APPLY if workload.mode is None else 0
    spec = SyntheticSpec(
        n_sentences=n_train + n_test + n_valid + n_apply,
        k=2,
        dict_size=DICT_SIZE,
        filler_vocab=workload.filler_vocab,
        zipf_exponent=workload.zipf_exponent,
    )
    gold, dictionary = generate_synthetic(spec, make_rng(seed, "synthetic"))
    labels = gold.label_set
    cut = [0, n_train, n_train + n_test, n_train + n_test + n_valid, spec.n_sentences]
    train, test, valid, apply = (
        Corpus(gold.sentences[a:b], labels) if b > a else None for a, b in zip(cut, cut[1:])
    )
    noisy = inject_noise(train, FN_RATE, FP_RATE, TYPE_RATE, make_rng(seed, "noise"))

    out.mkdir(parents=True, exist_ok=True)

    def write(corpus: Corpus, name: str) -> None:
        with open(out / name, "w", encoding="utf-8") as f:
            write_conll(corpus, f)

    write(noisy, "train.tsv")
    write(test, "test.tsv")
    write(valid, "valid.tsv")
    with open(out / "dict.tsv", "w", encoding="utf-8") as f:
        for tokens, label in dictionary.entries:
            f.write(f"{' '.join(tokens)}\t{labels.name_of(label)}\n")
    # The same config `pucl gen-synthetic` writes; mode, threads and output
    # directory are given on the command line.
    config = {
        "train": str(out / "train.tsv"),
        "test": str(out / "test.tsv"),
        "valid": str(out / "valid.tsv"),
        "dict": str(out / "dict.tsv"),
        "out": str(out / "run"),
        "seed": seed,
        "voters": {"count": 5, "epochs": 5, "keep_negative_ratio": 0.1},
        "curriculum": {"tau": 0.5, "eta": 5, "stage_epochs": 2},
        "risk": {"epsilon": 0.5, "gamma": 10.0, "loss": "ce"},
    }
    (out / "config.json").write_text(
        json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )

    if apply is None:
        tokens = noisy.n_tokens + test.n_tokens + valid.n_tokens
    else:
        # Gold labels kept, distant column all O: `pucl annotate` fills it in.
        unlabeled = [
            Sentence(tuple(Token(t.surface, 0, t.gold_label) for t in s.tokens))
            for s in apply.sentences
        ]
        write(Corpus(unlabeled, labels), "apply.tsv")
        tokens = apply.n_tokens
    return Inputs(out, tokens, noisy.n_tokens)


def commands(workload: Workload, inputs: Inputs, run_dir: Path) -> list[list[str]]:
    """pucl CLI arguments of the measured commands, in order."""
    if workload.mode is not None:
        return [pipeline_args(inputs, workload.mode, run_dir)]
    annotated = str(run_dir / "annotated.tsv")
    return [
        ["annotate", "--dict", str(inputs.dir / "dict.tsv"),
         "--in", str(inputs.dir / "apply.tsv"), "--out", annotated],
        ["evaluate", "--model", str(inputs.dir / "model.bin"),
         "--test", annotated, "--out", str(run_dir / "report.json")],
    ]


def pipeline_args(inputs: Inputs, mode: str, run_dir: Path) -> list[str]:
    return ["pipeline", "--config", str(inputs.config), "--mode", mode,
            "--threads", "1", "--out", str(run_dir)]


def deterministic_artifacts(workload: Workload, run_dir: Path) -> list[Path]:
    """Outputs whose bytes must repeat exactly for a fixed seed and commit."""
    if workload.mode is None:
        return [run_dir / "annotated.tsv"]
    names = sorted(p.name for p in run_dir.glob("voter_*.bin"))
    return [run_dir / n for n in (*names, "plan.json", "risk_log.jsonl", "model.bin")]
