"""Acceptance criteria 7-9 on the dtype the pipeline ships. The pipeline
trains and scores in float32 (``ModelSettings.model_config``), while the
criteria 7-9 fixture of ``test_acceptance.py`` builds its models with the
library default, float64. This module makes the fixture's library calls
again with ``dtype="float32"`` at the same seeds, and checks criterion 7's
count and criteria 8's and 9's inequalities on those runs (run with
``pytest tests/test_acceptance_float32.py -v -s`` to see the per-seed F1).
"""

import time

import numpy as np
import pytest

from oracles import spearman
from pucl.benchmark import make_benchmark
from pucl.corpus import build_vocab
from pucl.curriculum import build_plan, self_train, train_baby_step, train_no_confmpu, train_no_curriculum
from pucl.evaluation import curriculum_error_analysis, evaluate
from pucl.model import ModelConfig
from pucl.risk import estimate_priors
from pucl.voters import confidence_table, difficulty_scores, train_voters
from test_acceptance import BENCHMARK, SEEDS, BenchmarkRun, report


@pytest.fixture(scope="module")
def float32_runs():
    runs = []
    schedule = BENCHMARK.schedule()
    tau, eta = BENCHMARK.curriculum.tau, BENCHMARK.curriculum.eta
    for seed in SEEDS:
        t0 = time.time()
        train, test, _, _ = make_benchmark(seed)
        vocab = build_vocab(train)
        mc = ModelConfig(vocab_size=vocab.size, n_classes=train.label_set.n_classes, dtype="float32")
        ens = train_voters(train, mc, BENCHMARK.voters, seed, vocab=vocab)
        conf = confidence_table(ens, train)
        diff = difficulty_scores(ens, train)
        plan = build_plan(diff, train, tau, eta)
        priors = estimate_priors(train)

        analysis = curriculum_error_analysis(plan, train, diff)
        rates = [r["error_rate"] for r in analysis.rows if r["error_rate"] is not None]
        rho = spearman(range(len(rates)), rates)
        h_pos = diff.scores[train.distant_array() > 0]

        m_full = train_baby_step(train, plan, conf, priors, schedule, seed, vocab=vocab, model_config=mc)
        m_nocur = train_no_curriculum(train, conf, priors, schedule, seed,
                                      total_epochs=eta * schedule.stage_epochs, vocab=vocab, model_config=mc)
        m_nopu = train_no_confmpu(train, plan, schedule, seed, vocab=vocab, model_config=mc)
        m_st = self_train(m_full, train, BENCHMARK.self_train, seed)
        assert all(m.dtype == np.float32 for m in (m_full, m_nocur, m_nopu, m_st))

        r_full, r_nocur, r_nopu, r_st = (evaluate(m, test) for m in (m_full, m_nocur, m_nopu, m_st))
        runs.append(
            BenchmarkRun(
                rho=rho,
                long_tail=bool(h_pos.mean() > np.median(h_pos)),
                f1_full=r_full.strict.f1,
                f1_nocur=r_nocur.strict.f1,
                f1_nopu=r_nopu.strict.f1,
                recall_full=r_full.strict.recall,
                recall_nopu=r_nopu.strict.recall,
                f1_selftrain=r_st.strict.f1,
            )
        )
        print(f"  [float32 benchmark seed {seed}] rho={rho:.2f} full={r_full.strict.f1:.3f} "
              f"nocur={r_nocur.strict.f1:.3f} nopu={r_nopu.strict.f1:.3f} "
              f"st={r_st.strict.f1:.3f} ({time.time() - t0:.0f}s)", flush=True)
    return runs


def test_criterion_07_at_float32(float32_runs):
    t0 = time.time()
    good = sum(1 for r in float32_runs if r.rho > 0 and r.long_tail)
    report(7, "float32: per-curriculum error rate rises with curriculum index; "
              "difficulty is long-tailed", good >= 4, f"{good}/5 seeds", t0)


def test_criterion_08_at_float32(float32_runs):
    t0 = time.time()
    med = lambda xs: float(np.median(xs))
    f_full = med([r.f1_full for r in float32_runs])
    f_nocur = med([r.f1_nocur for r in float32_runs])
    f_nopu = med([r.f1_nopu for r in float32_runs])
    rec_full = med([r.recall_full for r in float32_runs])
    rec_nopu = med([r.recall_nopu for r in float32_runs])
    ok = f_full >= f_nocur + 0.02 and f_full >= f_nopu + 0.02 and rec_full > rec_nopu
    report(8, "float32: staged PU training beats both ablations by 2+ points, "
              "recall beats plain-loss ablation", ok,
           f"full={f_full:.3f} nocur={f_nocur:.3f} nopu={f_nopu:.3f} "
           f"recall {rec_full:.3f}>{rec_nopu:.3f}", t0)


def test_criterion_09_at_float32(float32_runs):
    t0 = time.time()
    before = float(np.median([r.f1_full for r in float32_runs]))
    after = float(np.median([r.f1_selftrain for r in float32_runs]))
    report(9, "float32: self-training does not degrade median strict F1", after >= before,
           f"after={after:.3f} >= before={before:.3f}", t0)
