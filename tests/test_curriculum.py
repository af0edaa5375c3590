import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pucl.corpus import Corpus, LabelSet, Sentence, Token, build_vocab
from pucl.curriculum import (
    SelfTrainConfig,
    StageSchedule,
    build_plan,
    self_train,
    sharpen,
    single_curriculum_plan,
    train_baby_step,
    train_no_confmpu,
    train_no_curriculum,
    train_soft_label,
    _run_stages,
)
from pucl.config import config_from_dict
from pucl.errors import FormatError, NumericError
from pucl.model import TOKEN_BLOCK_ROWS, ModelConfig, TokenClassifier
from pucl.risk import ConfMpuConfig, Priors, estimate_priors
from pucl.seeding import derive_seed, make_rng
from pucl.voters import ConfidenceTable, DifficultyTable, VoterConfig, confidence_table, train_voters
from pucl.distant import SyntheticSpec, generate_synthetic, inject_noise
from pucl.evaluation import evaluate

from oracles import loop_sentence_rows, oracle_plan_json


def corpus_with_counts(t_p, t_u, k=1):
    """One long sentence with t_p positive and t_u unlabeled tokens."""
    labels = [1 + i % k for i in range(t_p)] + [0] * t_u
    tokens = tuple(Token(f"w{i}", lab) for i, lab in enumerate(labels))
    return Corpus([Sentence(tokens)], LabelSet([f"T{i}" for i in range(1, k + 1)]))


def table_for(corpus, scores=None, seed=0):
    if scores is None:
        rng = np.random.default_rng(seed)
        scores = rng.random(corpus.n_tokens)
    return DifficultyTable(corpus, np.asarray(scores, dtype=np.float64))


class TestBuildPlan:
    def test_worked_example_90_5_5(self):
        corpus = corpus_with_counts(t_p=20, t_u=80)
        # make positives' difficulty equal their token order
        scores = np.arange(corpus.n_tokens, dtype=np.float64) / 100.0
        plan = build_plan(table_for(corpus, scores), corpus, tau=0.5, eta=3)
        assert [len(c) for c in plan.curricula] == [90, 5, 5]
        assert plan.positive_counts == (10, 5, 5)
        assert plan.t_p == 20 and plan.t_u == 80
        # C_1 = all unlabeled plus the 10 easiest positives
        c1 = set(plan.curricula[0].tolist())
        assert set(range(20, 100)) <= c1
        assert set(range(10)) <= c1

    def test_eta_one_single_curriculum(self):
        corpus = corpus_with_counts(t_p=20, t_u=80)
        plan = build_plan(table_for(corpus), corpus, tau=0.5, eta=1)
        assert plan.eta == 1
        assert len(plan.curricula) == 1
        assert len(plan.curricula[0]) == 100

    def test_floor_and_remainder(self):
        corpus = corpus_with_counts(t_p=10, t_u=4)
        plan = build_plan(table_for(corpus), corpus, tau=0.5, eta=3)
        assert plan.positive_counts == (5, 2, 3)
        assert len(plan.curricula[0]) == 9

    def test_parameter_validation(self):
        corpus = corpus_with_counts(5, 5)
        table = table_for(corpus)
        with pytest.raises(ValueError):
            build_plan(table, corpus, tau=0.0, eta=3)
        with pytest.raises(ValueError):
            build_plan(table, corpus, tau=1.0, eta=3)
        with pytest.raises(ValueError):
            build_plan(table, corpus, tau=0.5, eta=0)

    @pytest.mark.parametrize("tau,eta", [(1.5, 3), (0.0, 3), (0.5, 0)])
    def test_config_and_plan_refuse_with_one_message(self, tau, eta):
        corpus = corpus_with_counts(5, 5)
        with pytest.raises(ValueError) as from_plan:
            build_plan(table_for(corpus), corpus, tau=tau, eta=eta)
        raw = {"train": "t.tsv", "curriculum": {"tau": tau, "eta": eta}}
        with pytest.raises(FormatError) as from_config:
            config_from_dict(raw)
        assert str(from_config.value) == f"bad config section 'curriculum': {from_plan.value}"

    def test_difficulty_ordering_across_curricula(self):
        corpus = corpus_with_counts(t_p=37, t_u=13)
        table = table_for(corpus, seed=3)
        plan = build_plan(table, corpus, tau=0.6, eta=4)
        labels = corpus.distant_array()
        previous_max = -np.inf
        for idx in plan.curricula:
            pos = idx[labels[idx] > 0]
            if len(pos) == 0:
                continue
            scores = table.scores[pos]
            assert scores.min() >= previous_max - 1e-15
            previous_max = scores.max()

    @settings(max_examples=60, deadline=None)
    @given(
        t_p=st.integers(1, 60),
        t_u=st.integers(1, 60),
        tau=st.floats(0.05, 0.95),
        eta=st.integers(1, 8),
        seed=st.integers(0, 10),
    )
    def test_plan_invariants_fuzz(self, t_p, t_u, tau, eta, seed):
        corpus = corpus_with_counts(t_p, t_u)
        plan = build_plan(table_for(corpus, seed=seed), corpus, tau, eta)
        labels = corpus.distant_array()
        all_tokens = np.concatenate(plan.curricula)
        # disjoint partition covering every token
        assert len(all_tokens) == corpus.n_tokens
        assert len(np.unique(all_tokens)) == corpus.n_tokens
        # C_1 holds every unlabeled token
        c1 = set(plan.curricula[0].tolist())
        assert set(np.flatnonzero(labels == 0).tolist()) <= c1
        # positive counts add up
        assert sum(plan.positive_counts) == t_p
        assert len(plan.curricula) == eta
        if eta > 1:
            assert plan.positive_counts[0] == min(int(np.floor(tau * t_p)), t_p)

    def test_json_round_trip(self):
        corpus = corpus_with_counts(8, 7)
        plan = build_plan(table_for(corpus, seed=1), corpus, 0.5, 3)
        payload = json.loads(plan.to_json(corpus))
        assert (payload["tau"], payload["eta"]) == (plan.tau, plan.eta)
        assert len(payload["curricula"]) == len(plan.curricula)
        where = [[s, t] for s, sent in enumerate(corpus.sentences) for t in range(len(sent))]
        for pairs, flat in zip(payload["curricula"], plan.curricula):
            assert pairs == [where[i] for i in flat]

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        positive_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        tau=st.floats(0.05, 0.9),
        eta=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    def test_json_equals_the_hand_written_payload(self, lengths, positive_share, tau, eta, seed):
        rng = np.random.default_rng(seed)
        labels = (rng.random(sum(lengths)) < positive_share).astype(int).tolist()
        cuts = np.cumsum([0, *lengths]).tolist()
        sentences = [Sentence(tuple(Token(f"w{i}", labels[i]) for i in range(a, b))) for a, b in zip(cuts, cuts[1:])]
        corpus = Corpus(sentences, LabelSet(["T1"]))
        for plan in (build_plan(table_for(corpus, seed=seed), corpus, tau, eta), single_curriculum_plan(corpus, tau)):
            assert plan.to_json(corpus) == oracle_plan_json(plan, corpus)

    def test_json_of_a_plan_longer_than_a_block(self):
        # curriculum 1 spans several blocks; curricula 2 and 3 fewer than one
        rng = np.random.default_rng(3)
        labels = (rng.random(3 * TOKEN_BLOCK_ROWS + 5) < 0.2).astype(int).tolist()
        cuts = list(range(0, len(labels), 7)) + [len(labels)]
        sentences = [Sentence(tuple(Token(f"w{i % 50}", labels[i]) for i in range(a, b))) for a, b in zip(cuts, cuts[1:])]
        corpus = Corpus(sentences, LabelSet(["T1"]))
        plan = build_plan(table_for(corpus, seed=3), corpus, 0.5, 3)
        assert len(plan.curricula[0]) > 2 * TOKEN_BLOCK_ROWS > len(plan.curricula[1])
        for p in (plan, single_curriculum_plan(corpus)):
            assert p.to_json(corpus) == oracle_plan_json(p, corpus)


# --- staged training --------------------------------------------------------


def small_training_setup(seed=0, n=80, noisy=True):
    spec = SyntheticSpec(n_sentences=n, k=2, dict_size=10)
    gold, _ = generate_synthetic(spec, np.random.default_rng(seed))
    corpus = (
        inject_noise(gold, 0.3, 0.05, 0.05, np.random.default_rng(seed + 1)) if noisy else gold
    )
    vocab = build_vocab(corpus)
    mc = ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=8, hidden_dim=12)
    ens = train_voters(corpus, mc, VoterConfig(count=2, epochs=2), seed, vocab=vocab)
    conf = confidence_table(ens, corpus)
    from pucl.voters import difficulty_scores

    diff = difficulty_scores(ens, corpus)
    priors = estimate_priors(corpus)
    return corpus, vocab, mc, conf, diff, priors


class TestEpochAccounting:
    def test_token_participation_counts(self):
        corpus, vocab, mc, conf, diff, priors = small_training_setup()
        eta, stage_epochs = 3, 2
        plan = build_plan(diff, corpus, 0.5, eta)
        schedule = StageSchedule(stage_epochs=stage_epochs, conf_mpu=ConfMpuConfig(loss="mae"))
        # every sentence appears once per epoch, so per-token participation
        # counts equal the number of epochs in which the token was active
        participation_batch = np.zeros(corpus.n_tokens)

        def risk(probs, positions):
            participation_batch[positions] += 1
            return 0.0, np.zeros_like(probs), 0

        log = []
        _run_stages(corpus, plan, schedule, 0, vocab, mc, risk, log, None)
        labels = corpus.distant_array()
        cur_of = plan.curriculum_of_tokens(corpus.n_tokens)
        total_epochs = eta * stage_epochs
        for j in range(1, eta + 1):
            expected = (eta - j + 1) * stage_epochs
            members = np.flatnonzero((cur_of == j) & (labels > 0))
            assert np.all(participation_batch[members] == expected), f"curriculum {j}"
        unlabeled = np.flatnonzero(labels == 0)
        assert np.all(participation_batch[unlabeled] == total_epochs)
        assert len(log) == total_epochs
        assert [rec["stage"] for rec in log] == [1, 1, 2, 2, 3, 3]

    def test_log_active_positive_counts(self):
        corpus, vocab, mc, conf, diff, priors = small_training_setup()
        plan = build_plan(diff, corpus, 0.5, 3)
        log = []
        train_baby_step(
            corpus, plan, conf, priors, StageSchedule(stage_epochs=1, conf_mpu=ConfMpuConfig(loss="mae")), 0,
            vocab=vocab, model_config=mc, log=log,
        )
        prefix = np.cumsum(plan.positive_counts)
        assert [rec["active_positive_count"] for rec in log] == prefix.tolist()

    def test_empty_curriculum_is_legal(self):
        corpus = corpus_with_counts(t_p=2, t_u=30)
        # tau=0.9 caps selections at the remaining count, leaving C_3 empty
        plan = build_plan(table_for(corpus, seed=2), corpus, tau=0.9, eta=3)
        assert plan.positive_counts == (1, 1, 0)
        vocab = build_vocab(corpus)
        mc = ModelConfig(vocab_size=vocab.size, n_classes=2, embed_dim=4, hidden_dim=4)
        conf = ConfidenceTable(corpus, np.full((corpus.n_tokens, 2), 0.5))
        log = []
        train_baby_step(
            corpus, plan, conf, Priors(np.array([0.1])),
            StageSchedule(stage_epochs=1, conf_mpu=ConfMpuConfig(loss="mae")), 0,
            vocab=vocab, model_config=mc, log=log,
        )
        # stage 3 trains on the same token set as stage 2 and is logged as such
        assert log[1]["active_positive_count"] == log[2]["active_positive_count"] == 2


class TestReductionIdentity:
    def test_no_curriculum_equals_eta_one_baby_step(self):
        corpus, vocab, mc, conf, diff, priors = small_training_setup()
        schedule = StageSchedule(stage_epochs=2, conf_mpu=ConfMpuConfig(loss="mae"))
        plan1 = build_plan(diff, corpus, 0.5, 1)
        a = train_baby_step(corpus, plan1, conf, priors, schedule, 123, vocab=vocab, model_config=mc)
        b = train_no_curriculum(corpus, conf, priors, schedule, 123, total_epochs=2, vocab=vocab, model_config=mc)
        for (n, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb), n

    def test_epoch_budget_matching(self):
        corpus, vocab, mc, conf, diff, priors = small_training_setup()
        log = []
        train_no_curriculum(
            corpus, conf, priors, StageSchedule(stage_epochs=2, conf_mpu=ConfMpuConfig(loss="mae")), 5,
            total_epochs=6, vocab=vocab, model_config=mc, log=log,
        )
        assert len(log) == 6
        assert all(rec["stage"] == 1 for rec in log)

    def test_logged_risk_equals_direct_estimator_call(self):
        # the trainer's first logged risk must equal the risk estimator run
        # by hand on the fresh model's outputs over the same batch
        from pucl.risk import conf_mpu_risk

        corpus, vocab, mc, conf, diff, priors = small_training_setup(n=12)
        schedule = StageSchedule(
            stage_epochs=1, batch_size=len(corpus.sentences),
            conf_mpu=ConfMpuConfig(gamma=2.0, loss="mae"),
        )
        log = []
        train_no_curriculum(
            corpus, conf, priors, schedule, 31, total_epochs=1,
            vocab=vocab, model_config=mc, log=log,
        )
        # the trainer's fresh classifier: mc with the init seed derived from 31
        model = TokenClassifier(replace(mc, seed=derive_seed(31, "classifier-init")), vocab, corpus.label_set.names)
        rows = np.concatenate(loop_sentence_rows(model, corpus), axis=0)
        # single whole-corpus batch: token order within it is corpus order
        probs, _ = model.forward_rows(rows)
        breakdown, _ = conf_mpu_risk(
            probs, corpus.distant_array(), conf.lam, priors, schedule.conf_mpu
        )
        assert log[0]["risk_total"] == pytest.approx(breakdown.total, abs=1e-12)
        assert log[0]["clamped_count"] == breakdown.clamped_count


class TestTrainingBehavior:
    def test_risk_decreases_over_stages(self):
        # stage-end risk at the last stage is below stage 1, median of 5 seeds
        diffs = []
        for seed in range(5):
            corpus, vocab, mc, conf, diff, priors = small_training_setup(seed=seed, noisy=False)
            plan = build_plan(diff, corpus, 0.5, 3)
            log = []
            train_baby_step(
                corpus, plan, conf, priors,
                StageSchedule(stage_epochs=2, learning_rate=3e-3,
                              conf_mpu=ConfMpuConfig(gamma=10.0, loss="mae")),
                seed, vocab=vocab, model_config=mc, log=log,
            )
            first_stage_end = [r for r in log if r["stage"] == 1][-1]["risk_total"]
            last_stage_end = [r for r in log if r["stage"] == plan.eta][-1]["risk_total"]
            diffs.append(last_stage_end - first_stage_end)
        assert np.median(diffs) < 0

    def test_no_confmpu_reaches_high_f1_on_clean_data(self):
        spec = SyntheticSpec(n_sentences=300, k=2, dict_size=10)
        gold, _ = generate_synthetic(spec, np.random.default_rng(0))
        train = Corpus(gold.sentences[:240], gold.label_set)
        test = Corpus(gold.sentences[240:], gold.label_set)
        vocab = build_vocab(train)
        mc = ModelConfig(vocab_size=vocab.size, n_classes=3)
        plan = single_curriculum_plan(train)
        model = train_no_confmpu(
            train, plan, StageSchedule(stage_epochs=10, learning_rate=1e-3, conf_mpu=ConfMpuConfig(loss="ce")), 0,
            vocab=vocab, model_config=mc,
        )
        report = evaluate(model, test)
        assert report.strict.f1 >= 0.95

    def test_soft_label_training_runs(self):
        corpus, vocab, mc, conf, diff, priors = small_training_setup()
        plan = build_plan(diff, corpus, 0.5, 2)
        log = []
        model = train_soft_label(
            corpus, plan, conf.distributions, StageSchedule(stage_epochs=1), 0,
            vocab=vocab, model_config=mc, log=log,
        )
        assert len(log) == 2
        assert np.all(np.isfinite(model.embedding))


class TestSelfTrain:
    def test_sharpen_reference_values(self):
        out = sharpen(np.array([0.7, 0.3]), 2.0)
        assert out == pytest.approx([0.49 / 0.58, 0.09 / 0.58], abs=1e-12)

    def test_sharpen_normalizes_a_new_array(self):
        p = np.array([[0.7, 0.2, 0.1], [0.25, 0.25, 0.5]], dtype=np.float32)
        before = p.copy()
        out = sharpen(p, 3.0)
        powered = p.astype(np.float64) ** 3.0
        assert np.array_equal(out, powered / powered.sum(axis=-1, keepdims=True))
        assert out.dtype == np.float64 and np.array_equal(p, before)

    def test_sharpen_exponent_one_is_identity(self):
        p = np.array([0.2, 0.5, 0.3])
        assert np.allclose(sharpen(p, 1.0), p, atol=1e-15)

    def test_first_step_kl_zero_with_identity_sharpening(self):
        corpus, vocab, mc, conf, diff, priors = small_training_setup(n=20)
        plan = build_plan(diff, corpus, 0.5, 1)
        model = train_baby_step(
            corpus, plan, conf, priors, StageSchedule(stage_epochs=1, conf_mpu=ConfMpuConfig(loss="mae")), 0,
            vocab=vocab, model_config=mc,
        )
        # s=1: targets equal the teacher's own outputs, so the KL risk of the
        # untouched student is 0 on its first batch
        log = []
        self_train(model, corpus, SelfTrainConfig(rounds=1, epochs=1, sharpen=1.0), 0, log=log)
        assert log[0]["kl_risk"] == pytest.approx(0.0, abs=1e-9)

    def test_rounds_produce_new_models(self):
        corpus, vocab, mc, conf, diff, priors = small_training_setup(n=20)
        plan = build_plan(diff, corpus, 0.5, 1)
        model = train_baby_step(
            corpus, plan, conf, priors, StageSchedule(stage_epochs=1, conf_mpu=ConfMpuConfig(loss="mae")), 0,
            vocab=vocab, model_config=mc,
        )
        student = self_train(model, corpus, SelfTrainConfig(rounds=2, epochs=1, sharpen=2.0), 0)
        assert not np.array_equal(student.embedding, model.embedding)


def _trained(corpus, vocab, mc, conf, diff, priors):
    plan = build_plan(diff, corpus, 0.5, 1)
    return train_baby_step(
        corpus, plan, conf, priors, StageSchedule(stage_epochs=1, conf_mpu=ConfMpuConfig(loss="mae")), 0,
        vocab=vocab, model_config=mc,
    )


# Each runs one trainer on a small_training_setup.
TRAINERS = {
    "train_voters": lambda corpus, vocab, mc, conf, diff, priors: train_voters(
        corpus, mc, VoterConfig(count=2, epochs=1), 0, vocab=vocab
    ),
    "train_baby_step": lambda corpus, vocab, mc, conf, diff, priors: train_baby_step(
        corpus, build_plan(diff, corpus, 0.5, 2), conf, priors, StageSchedule(stage_epochs=1),
        0, vocab=vocab, model_config=mc,
    ),
    "train_no_confmpu": lambda corpus, vocab, mc, conf, diff, priors: train_no_confmpu(
        corpus, build_plan(diff, corpus, 0.5, 2), StageSchedule(stage_epochs=1), 0,
        vocab=vocab, model_config=mc,
    ),
    "train_soft_label": lambda corpus, vocab, mc, conf, diff, priors: train_soft_label(
        corpus, build_plan(diff, corpus, 0.5, 2), conf.distributions,
        StageSchedule(stage_epochs=1), 0, vocab=vocab, model_config=mc,
    ),
    "self_train": lambda *setup: self_train(
        _trained(*setup), setup[0], SelfTrainConfig(rounds=1, epochs=1), 0
    ),
}


class TestSharedTrainingLoop:
    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_every_trainer_steps_through_train_epoch(self, monkeypatch, trainer):
        import pucl.curriculum as curriculum_mod
        import pucl.model as model_mod
        import pucl.voters as voters_mod

        setup = small_training_setup(n=20)
        loop_steps = []
        adam_steps = []
        selects = []
        streams = []  # each generator an epoch drew from, with its state at its first epoch
        real_epoch = model_mod.train_epoch
        real_step = model_mod.adam_step

        def spy_epoch(model, adam, corpus, shuffle_rng, *args, **kwargs):
            if all(rng is not shuffle_rng for rng, _ in streams):
                streams.append((shuffle_rng, shuffle_rng.bit_generator.state))
            drawn_once = copy.deepcopy(shuffle_rng)
            drawn_once.permutation(len(corpus))
            before = adam.step
            out = real_epoch(model, adam, corpus, shuffle_rng, *args, **kwargs)
            assert shuffle_rng.bit_generator.state == drawn_once.bit_generator.state
            loop_steps.append(adam.step - before)
            selects.append(kwargs.get("select", args[3] if len(args) > 3 else None))
            return out

        def counted_step(*args):
            adam_steps.append(1)
            real_step(*args)

        monkeypatch.setattr(voters_mod, "train_epoch", spy_epoch)
        monkeypatch.setattr(curriculum_mod, "train_epoch", spy_epoch)
        monkeypatch.setattr(model_mod, "adam_step", counted_step)
        TRAINERS[trainer](*setup)
        assert sum(loop_steps) == len(adam_steps) > 0
        # Voters select their negative sample and the stages their active
        # tokens; self-training (after one staged epoch) trains on every token.
        has_select = [select is not None for select in selects]
        assert all(has_select[:-1]) and has_select[-1] == (trainer != "self_train")
        # One order per epoch, from the trainer's own named stream: one
        # voter-shuffle generator per voter, so that they share each order.
        names = {
            "train_voters": [("voter-shuffle",)] * 2,
            "self_train": [("train-shuffle",), ("selftrain-shuffle", 0)],
        }.get(trainer, [("train-shuffle",)])
        assert [state for _, state in streams] == [make_rng(0, *name).bit_generator.state for name in names]

    @pytest.mark.parametrize(
        "trainer, module, name, where",
        [
            ("train_voters", "pucl.voters", "pn_risk", "voter 0"),
            ("train_no_confmpu", "pucl.curriculum", "pn_risk", "stage 1, epoch 1"),
            ("self_train", "pucl.curriculum", "kl_soft_rows", "self-training round 1"),
        ],
    )
    def test_non_finite_risk_names_where(self, monkeypatch, trainer, module, name, where):
        import importlib

        setup = small_training_setup(n=20)

        def nan_risk(probs, *args):
            # pn_risk returns one value, the row losses one per token.
            values = np.nan if name == "pn_risk" else np.full(len(probs), np.nan)
            return values, np.zeros_like(probs)

        monkeypatch.setattr(importlib.import_module(module), name, nan_risk)
        with pytest.raises(NumericError, match=f"non-finite risk \\({where}\\)"):
            TRAINERS[trainer](*setup)

    def test_self_train_targets_are_the_sharpened_sentence_pass(self, monkeypatch):
        import pucl.curriculum as curriculum_mod

        corpus, vocab, _, conf, diff, priors = small_training_setup(n=20)
        # Default widths: there a whole-corpus forward sums in another order.
        mc = ModelConfig(vocab_size=vocab.size, n_classes=3)
        model = _trained(corpus, vocab, mc, conf, diff, priors)
        batch_targets = []
        real = curriculum_mod.kl_soft_rows

        def spy(probs, targets):
            batch_targets.append(targets)
            return real(probs, targets)

        monkeypatch.setattr(curriculum_mod, "kl_soft_rows", spy)
        cfg = SelfTrainConfig(rounds=1, epochs=1, sharpen=3.0)
        self_train(model, corpus, cfg, 7)
        order = make_rng(7, "selftrain-shuffle", 0).permutation(len(corpus))
        expected = sharpen(model.corpus_probs(corpus), cfg.sharpen)[corpus.token_positions(order)]
        assert np.array_equal(np.concatenate(batch_targets), expected)
