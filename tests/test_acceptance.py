"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them inline). Criteria 7-9 share one set of five benchmark training runs
via a module-scoped fixture.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import (
    Span,
    count_candidates,
    extract_spans,
    fd_param_gradients,
    loop_window_rows,
    loss_mae,
    max_gradient_error,
    naive_conf_mpu,
    oracle_annotate,
    oracle_metrics,
    random_batch,
    spearman,
)
from pucl.benchmark import BENCHMARK_CONFIG, make_benchmark
from pucl.cli import main as cli_main
from pucl.config import config_from_dict
from pucl.corpus import LabelSet, Vocab, build_vocab
from pucl.curriculum import (
    build_plan,
    self_train,
    train_baby_step,
    train_no_confmpu,
    train_no_curriculum,
)
from pucl.distant import Dictionary, annotate, compile_dictionary
from pucl.evaluation import curriculum_error_analysis, evaluate, evaluate_labels
from pucl.model import ModelConfig, TokenClassifier
from pucl.risk import (
    ConfMpuConfig,
    Priors,
    ce_rows,
    conf_mpu_risk,
    kl_soft_rows,
    mae_rows,
    estimate_priors,
)
from pucl.voters import (
    DifficultyTable,
    VoterEnsemble,
    confidence_table,
    difficulty_scores,
    pairwise_disagreement,
    train_voters,
)

SEEDS = (1, 2, 3, 4, 5)
# The bundled benchmark's settings, as `gen-synthetic` writes them.
BENCHMARK = config_from_dict({"train": "train.tsv", **BENCHMARK_CONFIG})


def report(number: int, name: str, passed: bool, detail: str = "", started: float | None = None):
    elapsed = f" [{time.time() - started:.1f}s]" if started is not None else ""
    line = f"[ACCEPTANCE {number:02d}] {'PASS' if passed else 'FAIL'} {name}{elapsed}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert passed, line


# --- criterion 1: curriculum worked example ------------------------------------


def test_criterion_01_curriculum_worked_example():
    t0 = time.time()
    from pucl.corpus import Corpus, Sentence, Token

    labels = [1] * 20 + [0] * 80
    corpus = Corpus(
        [Sentence(tuple(Token(f"w{i}", lab) for i, lab in enumerate(labels)))],
        LabelSet(["T"]),
    )
    scores = np.arange(100, dtype=np.float64)
    plan = build_plan(DifficultyTable(corpus, scores), corpus, tau=0.5, eta=3)
    sizes = [len(c) for c in plan.curricula]
    c1 = set(plan.curricula[0].tolist())
    ok = (
        sizes == [90, 5, 5]
        and set(range(20, 100)) <= c1  # every unlabeled token
        and set(range(10)) <= c1  # the ten easiest positives
        and plan.positive_counts == (10, 5, 5)
    )
    report(1, "power-law curriculum worked example (90/5/5)", ok, f"sizes={sizes}", t0)


# --- criterion 2: PU risk oracle equivalence ------------------------------------


def test_criterion_02_conf_mpu_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 4))
        size = int(rng.integers(1, 65))
        probs, labels, lam, priors = random_batch(rng, k, size)
        kind = "ce" if trial % 2 == 0 else "mae"
        gamma = float(rng.random() * 10 + 0.5)
        cfg = ConfMpuConfig(epsilon=0.5, gamma=gamma, loss=kind)
        breakdown, _ = conf_mpu_risk(probs, labels, lam, priors, cfg)
        expected = naive_conf_mpu(
            [list(row) for row in probs], list(labels), list(lam),
            list(priors.pi), 0.5, gamma, kind,
        )
        worst = max(worst, abs(breakdown.total - expected))

    fixture, _ = conf_mpu_risk(
        np.array([[0.3, 0.7], [0.6, 0.4]]),
        np.array([1, 0]),
        np.array([0.8, 0.3]),
        Priors(np.array([0.5])),
        ConfMpuConfig(epsilon=0.5, gamma=1.0, loss="mae"),
    )
    fixture_ok = abs(fixture.total - 1.275) <= 1e-12
    ok = worst <= 1e-12 and fixture_ok
    report(2, "PU risk equals naive transcription and 1.275 fixture", ok,
           f"max |diff|={worst:.2e}, fixture={fixture.total}", t0)


# --- criterion 3: gradient integrity ----------------------------------------------


def test_criterion_03_gradient_integrity():
    t0 = time.time()
    worst = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        vocab = Vocab([f"w{i}" for i in range(int(rng.integers(10, 48)))])
        cfg = ModelConfig(
            vocab_size=vocab.size,
            n_classes=3,
            embed_dim=int(rng.integers(2, 8)),
            window=1,
            hidden_dim=int(rng.integers(2, 8)),
            seed=seed,
        )
        model = TokenClassifier(cfg, vocab, ["T1", "T2"])
        ids = rng.integers(0, vocab.size, size=6)
        rows = loop_window_rows(ids, model.config.window)
        targets = rng.integers(0, 3, size=6)
        soft = rng.random((6, 3)) + 0.1
        soft /= soft.sum(axis=1, keepdims=True)
        priors = Priors(np.array([0.2, 0.15]))
        mpu_cfg = ConfMpuConfig(epsilon=0.5, gamma=3.0, loss="mae")

        def clamp_margin(labels, lam):
            # distance of every positive token's inner term from the clamp
            # kink; central differences need it well above the FD step
            probs, _ = model.forward_rows(rows)
            worst_margin = np.inf
            for r in range(6):
                if labels[r] == 0:
                    continue
                li = loss_mae(probs[r], int(labels[r]))[0]
                l0 = loss_mae(probs[r], 0)[0]
                coeff = (1.0 / lam[r] if lam[r] > 0.5 else 0.0) - 1.0
                worst_margin = min(worst_margin, abs(li + coeff * l0))
            return worst_margin

        labels = rng.integers(0, 3, size=6)
        lam = rng.random(6)
        for _ in range(50):
            if clamp_margin(labels, lam) > 1e-4:
                break
            labels = rng.integers(0, 3, size=6)
            lam = rng.random(6)
        assert clamp_margin(labels, lam) > 1e-4, "no clamp-safe batch found"

        def risk_builder(kind):
            def value_of(m):
                probs, _ = m.forward_rows(rows)
                if kind == "ce":
                    return float(ce_rows(probs, targets)[0].sum())
                if kind == "mae":
                    return float(mae_rows(probs, targets)[0].sum())
                if kind == "kl":
                    return float(kl_soft_rows(probs, soft)[0].sum())
                return conf_mpu_risk(probs, labels, lam, priors, mpu_cfg)[0].total

            def grads_of(m):
                probs, cache = m.forward_rows(rows)
                if kind == "ce":
                    _, d = ce_rows(probs, targets)
                elif kind == "mae":
                    _, d = mae_rows(probs, targets)
                elif kind == "kl":
                    _, d = kl_soft_rows(probs, soft)
                else:
                    _, d = conf_mpu_risk(probs, labels, lam, priors, mpu_cfg)
                return m.backward_rows(cache, d)

            return value_of, grads_of

        for kind in ("ce", "mae", "kl", "mpu"):
            value_of, grads_of = risk_builder(kind)
            worst = max(
                worst,
                max_gradient_error(grads_of(model), fd_param_gradients(model, value_of)),
            )
    ok = worst <= 1e-8
    report(3, "analytic gradients match finite differences (<1e-5 rel)", ok,
           f"worst excess={worst:.2e}", t0)


# --- criterion 4: difficulty-score properties ---------------------------------------


def test_criterion_04_difficulty_properties():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    # symmetry + non-negativity fuzz at the pair level
    for _ in range(300):
        p = rng.random(4) + 1e-6
        p /= p.sum()
        q = rng.random(4) + 1e-6
        q /= q.sum()
        h_pq = pairwise_disagreement(p, q)
        h_qp = pairwise_disagreement(q, p)
        ok &= abs(h_pq - h_qp) < 1e-14
        ok &= h_pq >= 0.0
        ok &= pairwise_disagreement(p, p) == 0.0

    # ensemble level: zero-on-agreement and voter-permutation invariance
    from pucl.distant import SyntheticSpec, generate_synthetic

    corpus, _ = generate_synthetic(
        SyntheticSpec(n_sentences=30, k=2, dict_size=8), np.random.default_rng(3)
    )
    vocab = build_vocab(corpus)
    mc = ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=6, hidden_dim=6)
    ens = train_voters(corpus, mc, BENCHMARK.voters, 5, vocab=vocab)
    scores = difficulty_scores(ens, corpus).scores
    ok &= bool(np.all(scores >= 0.0))
    perm = VoterEnsemble([ens.voters[i] for i in (3, 1, 4, 0, 2)])
    ok &= bool(np.allclose(scores, difficulty_scores(perm, corpus).scores, atol=1e-15))
    clones = VoterEnsemble([ens.voters[0], ens.voters[0].copy(), ens.voters[0].copy()])
    ok &= bool(np.all(difficulty_scores(clones, corpus).scores == 0.0))
    report(4, "difficulty scores: symmetric, non-negative, zero on agreement, "
              "voter-permutation invariant", ok, started=t0)


# --- criterion 5: PN-reduction identity ------------------------------------------


def test_criterion_05_pn_reduction_identity():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in (1, 2, 3):
        probs, labels, _, priors = random_batch(rng, k, 64)
        lam = np.where(labels > 0, 1.0, 0.0)
        cfg = ConfMpuConfig(epsilon=0.5, gamma=4.0, loss="mae")
        breakdown, _ = conf_mpu_risk(probs, labels, lam, priors, cfg)
        expected = 0.0
        for i in range(1, k + 1):
            rows = labels == i
            if rows.any():
                vals, _ = mae_rows(probs[rows], np.full(int(rows.sum()), i))
                expected += cfg.gamma * priors.pi[i - 1] * vals.mean()
        rows0 = labels == 0
        if rows0.any():
            vals, _ = mae_rows(probs[rows0], np.zeros(int(rows0.sum()), dtype=np.int64))
            expected += vals.mean()
        worst = max(worst, abs(breakdown.total - expected))
    ok = worst <= 1e-12
    report(5, "PU risk degenerates to weighted PN risk at lambda=1/0", ok,
           f"max |diff|={worst:.2e}", t0)


# --- criterion 6: metric oracle equivalence -----------------------------------------


def test_criterion_06_metric_oracle_equivalence():
    t0 = time.time()
    from test_evaluation import random_micro_corpus

    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        corpus, pred_labels = random_micro_corpus(rng)
        rep = evaluate_labels(np.concatenate(pred_labels), corpus)
        pred_spans = [extract_spans(p) for p in pred_labels]
        gold_spans = [extract_spans(s.gold_labels()) for s in corpus.sentences]
        (sp, sr, sf), (rp, rr, rf) = oracle_metrics(pred_spans, gold_spans)
        worst = max(
            worst,
            abs(rep.strict.precision - sp), abs(rep.strict.recall - sr),
            abs(rep.strict.f1 - sf), abs(rep.relaxed.precision - rp),
            abs(rep.relaxed.recall - rr), abs(rep.relaxed.f1 - rf),
        )
    from oracles import relaxed_prf, strict_prf

    gold = [[Span(1, 2, 1)]]
    pred = [[Span(2, 3, 1)]]
    boundary_ok = strict_prf(pred, gold).f1 == 0.0 and relaxed_prf(pred, gold).f1 == 1.0
    ok = worst <= 1e-12 and boundary_ok
    report(6, "strict/relaxed metrics equal brute-force oracle on 200 corpora",
           ok, f"max |diff|={worst:.2e}, boundary case ok={boundary_ok}", t0)


# --- criteria 7-9: benchmark training runs -----------------------------------------


@dataclass
class BenchmarkRun:
    rho: float
    long_tail: bool
    f1_full: float
    f1_nocur: float
    f1_nopu: float
    recall_full: float
    recall_nopu: float
    f1_selftrain: float


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = []
    schedule = BENCHMARK.schedule()
    tau, eta = BENCHMARK.curriculum.tau, BENCHMARK.curriculum.eta
    for seed in SEEDS:
        t0 = time.time()
        train, test, _, _ = make_benchmark(seed)
        vocab = build_vocab(train)
        mc = ModelConfig(vocab_size=vocab.size, n_classes=train.label_set.n_classes)
        ens = train_voters(train, mc, BENCHMARK.voters, seed, vocab=vocab)
        conf = confidence_table(ens, train)
        diff = difficulty_scores(ens, train)
        plan = build_plan(diff, train, tau, eta)
        priors = estimate_priors(train)

        analysis = curriculum_error_analysis(plan, train, diff)
        rates = [r["error_rate"] for r in analysis.rows if r["error_rate"] is not None]
        rho = spearman(range(len(rates)), rates)
        positives = train.distant_array() > 0
        h_pos = diff.scores[positives]

        m_full = train_baby_step(train, plan, conf, priors, schedule, seed,
                                 vocab=vocab, model_config=mc)
        m_nocur = train_no_curriculum(train, conf, priors, schedule, seed,
                                      total_epochs=eta * schedule.stage_epochs,
                                      vocab=vocab, model_config=mc)
        m_nopu = train_no_confmpu(train, plan, schedule, seed, vocab=vocab, model_config=mc)
        m_st = self_train(m_full, train, BENCHMARK.self_train, seed)

        r_full = evaluate(m_full, test)
        r_nocur = evaluate(m_nocur, test)
        r_nopu = evaluate(m_nopu, test)
        r_st = evaluate(m_st, test)
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
        print(f"  [benchmark seed {seed}] rho={rho:.2f} full={r_full.strict.f1:.3f} "
              f"nocur={r_nocur.strict.f1:.3f} nopu={r_nopu.strict.f1:.3f} "
              f"st={r_st.strict.f1:.3f} ({time.time() - t0:.0f}s)", flush=True)
    return runs


def test_criterion_07_noise_difficulty_correlation(benchmark_runs):
    t0 = time.time()
    good = sum(1 for r in benchmark_runs if r.rho > 0 and r.long_tail)
    ok = good >= 4
    report(7, "per-curriculum error rate rises with curriculum index; "
              "difficulty is long-tailed", ok, f"{good}/5 seeds", t0)


def test_criterion_08_noise_robustness_direction(benchmark_runs):
    t0 = time.time()
    med = lambda xs: float(np.median(xs))
    f_full = med([r.f1_full for r in benchmark_runs])
    f_nocur = med([r.f1_nocur for r in benchmark_runs])
    f_nopu = med([r.f1_nopu for r in benchmark_runs])
    rec_full = med([r.recall_full for r in benchmark_runs])
    rec_nopu = med([r.recall_nopu for r in benchmark_runs])
    ok = (
        f_full >= f_nocur + 0.02
        and f_full >= f_nopu + 0.02
        and rec_full > rec_nopu
    )
    report(8, "staged PU training beats both ablations by 2+ points, "
              "recall beats plain-loss ablation",
           ok,
           f"full={f_full:.3f} nocur={f_nocur:.3f} nopu={f_nopu:.3f} "
           f"recall {rec_full:.3f}>{rec_nopu:.3f}", t0)


def test_criterion_09_self_training_non_degradation(benchmark_runs):
    t0 = time.time()
    before = float(np.median([r.f1_full for r in benchmark_runs]))
    after = float(np.median([r.f1_selftrain for r in benchmark_runs]))
    ok = after >= before
    report(9, "self-training does not degrade median strict F1", ok,
           f"after={after:.3f} >= before={before:.3f}", t0)


# --- criterion 10: end-to-end determinism ------------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    t0 = time.time()
    data = tmp_path / "data"
    assert cli_main([
        "gen-synthetic", "--out", str(data), "--sentences", "400",
        "--test-sentences", "100", "--valid-sentences", "0", "--seed", "9",
    ]) == 0
    outs = []
    for name in ("run_a", "run_b"):
        cfg = json.loads((data / "config.json").read_text())
        cfg["test"] = str(data / "test.tsv")
        cfg["out"] = str(tmp_path / name)
        cfg["threads"] = 1
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        outs.append(tmp_path / name)
    artifacts = ["report.json", "plan.json", "model.bin", "difficulty.tsv",
                 "risk_log.jsonl", "voter_0.bin", "curriculum_analysis.csv"]
    mismatched = [
        name for name in artifacts
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    ok = not mismatched
    report(10, "two identical pipeline runs are byte-identical", ok,
           f"checked {len(artifacts)} artifacts" + (f", mismatch: {mismatched}" if mismatched else ""), t0)


# --- criterion 11: dictionary matcher optimality -------------------------------------


def test_criterion_11_matcher_optimality():
    t0 = time.time()
    ls = LabelSet(["T", "U"])
    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(8)]
    checked = 0
    all_equal = True
    while checked < 500:
        entries = []
        for _ in range(int(rng.integers(2, 7))):
            length = int(rng.integers(1, 4))
            surface = " ".join(vocab[int(rng.integers(0, len(vocab)))] for _ in range(length))
            entries.append((surface, "T" if rng.random() < 0.5 else "U"))
        words = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(int(rng.integers(1, 11)))]
        if count_candidates(words, entries, ls) > 12:
            continue
        matcher = compile_dictionary(Dictionary.build(entries, ls))
        checked += 1
        ours = annotate(words, matcher)
        oracle = oracle_annotate(words, entries, ls)
        if sum(1 for x in ours if x) != sum(1 for x in oracle if x) or ours != oracle:
            all_equal = False
            break

    fixture = compile_dictionary(Dictionary.build(
        [("milk fat", "T"), ("fat percentage", "T"), ("milk fat percentage", "T")], ls
    ))
    fixture_ok = annotate(["milk", "fat", "percentage"], fixture) == [1, 1, 1]
    ok = all_equal and fixture_ok
    report(11, "matcher reaches exhaustive-subset optimum on 500 sentences",
           ok, f"fixture selects 3-token entry: {fixture_ok}", t0)
