"""Independent reference implementations used by the test suite.

Everything here is deliberately naive (math module, token-at-a-time loops,
exhaustive enumeration) and shares no code with the package internals it
checks.
"""

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pucl.corpus import O_NAME, Corpus, LabelSet, Sentence, Token, Vocab
from pucl.distant import Dictionary
from pucl.evaluation import Metrics
from pucl.model import TokenClassifier
from pucl.risk import Priors, RiskBreakdown, ce_rows, mae_rows


# --- corpus writing: one join and one write per sentence ----------------------


def oracle_write_conll(corpus: Corpus, stream) -> None:
    """The per-sentence writer that ``write_conll``'s block writer must
    match byte for byte."""
    names = (O_NAME,) + corpus.label_set.names
    surfaces, distant, gold, offsets = corpus._columns()
    endings = [f"\t{d}\t{g}\n" if g else f"\t{d}\n" for d in names for g in ("",) + names]
    pairs = (distant * (len(names) + 1) + gold + 1).tolist()
    bounds = offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        stream.write("".join([s + endings[p] for s, p in zip(surfaces[a:b], pairs[a:b])]) + "\n")


# --- dictionary matching: exhaustive non-overlapping subset search ------------


def oracle_annotate(words, entries, label_set):
    """Enumerate every candidate match, then every non-overlapping subset;
    maximize coverage, then minimize the (start, -len, label) key sequence."""
    folded = [w.casefold() for w in words]
    candidates = []
    for surface, type_name in entries:
        toks = surface.casefold().split()
        label = label_set.id_of(type_name)
        for start in range(len(folded) - len(toks) + 1):
            if folded[start : start + len(toks)] == toks:
                candidates.append((start, len(toks), label))
    candidates = sorted(set(candidates))
    best_cov, best_key, best_subset = -1, None, []
    for r in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, r):
            spans = sorted(subset)
            ok = all(
                a_start + a_len <= b_start
                for (a_start, a_len, _), (b_start, _, _) in zip(spans, spans[1:])
            )
            if not ok:
                continue
            cov = sum(length for _, length, _ in spans)
            key = tuple((s, -length, lab) for s, length, lab in spans)
            if cov > best_cov or (cov == best_cov and key < best_key):
                best_cov, best_key, best_subset = cov, key, spans
    labels = [0] * len(words)
    for start, length, label in best_subset:
        labels[start : start + length] = [label] * length
    return labels


def count_candidates(words, entries, label_set):
    """How many distinct (start, entry) matches ``words`` holds: the
    candidates ``oracle_annotate`` enumerates subsets of."""
    folded = [w.casefold() for w in words]
    return len({
        (start, tuple(toks), label_set.id_of(type_name))
        for surface, type_name in entries
        for toks in [surface.casefold().split()]
        for start in range(len(folded) - len(toks) + 1)
        if folded[start : start + len(toks)] == toks
    })


# --- confidence-weighted PU estimator: direct transcription --------------------


def naive_loss(dist, target, kind):
    if kind == "ce":
        return -math.log(max(dist[target], 1e-12))
    return sum(abs((1.0 if j == target else 0.0) - p) for j, p in enumerate(dist))


def loss_mae(dist, target):
    """MAE value and gradient of one distribution against a class id."""
    grad = np.ones(len(dist))
    grad[target] = -1.0
    return naive_loss(dist, target, "mae"), grad


def naive_conf_mpu(dists, labels, lams, pi, eps, gamma, kind):
    k = len(pi)
    positive_total = 0.0
    for i in range(1, k + 1):
        members = [j for j, lab in enumerate(labels) if lab == i]
        if not members:
            continue
        acc = 0.0
        for j in members:
            l_i = naive_loss(dists[j], i, kind)
            l_0 = naive_loss(dists[j], 0, kind)
            term = l_i - l_0
            if lams[j] > eps:
                term += l_0 / lams[j]
            acc += max(0.0, term)
        positive_total += pi[i - 1] / len(members) * acc
    unlabeled = [j for j, lab in enumerate(labels) if lab == 0]
    u_term = 0.0
    if unlabeled:
        u_term = sum(
            naive_loss(dists[j], 0, kind) for j in unlabeled if lams[j] <= eps
        ) / len(unlabeled)
    return gamma * positive_total + u_term


def oracle_conf_mpu_risk(probs, labels, lam, priors, cfg):
    """``conf_mpu_risk`` class by class: gather each class's rows and
    evaluate its losses on them, then the gated-in unlabeled rows. The
    one-pass estimator must equal it bitwise."""
    k = priors.k
    loss_rows = ce_rows if cfg.loss == "ce" else mae_rows
    grads = np.zeros_like(probs)
    positive_terms = np.zeros(k)
    clamped = 0
    for i in range(1, k + 1):
        idx = np.flatnonzero(labels == i)
        if len(idx) == 0:
            continue
        t_i = len(idx)
        p = probs[idx]
        li_val, li_grad = loss_rows(p, np.full(t_i, i))
        l0_val, l0_grad = loss_rows(p, np.zeros(t_i, dtype=np.int64))
        lam_i = lam[idx]
        over = lam_i > cfg.epsilon
        coeff = np.where(over, np.divide(1.0, lam_i, where=over, out=np.ones_like(lam_i)), 0.0) - 1.0
        inner = li_val + coeff * l0_val
        scale = priors.pi[i - 1] / t_i
        if cfg.aggregate_clamp:
            total_i = inner.sum()
            if total_i > 0.0:
                positive_terms[i - 1] = scale * total_i
                grads[idx] += cfg.gamma * scale * (li_grad + coeff[:, None] * l0_grad)
            else:
                clamped += t_i
        else:
            active = inner > 0.0
            clamped += int((~active).sum())
            positive_terms[i - 1] = scale * inner[active].sum()
            rows = idx[active]
            grads[rows] += cfg.gamma * scale * (
                li_grad[active] + coeff[active, None] * l0_grad[active]
            )

    unlabeled_term = 0.0
    idx0 = np.flatnonzero(labels == 0)
    if len(idx0) > 0:
        t_0 = len(idx0)
        rows = idx0[lam[idx0] <= cfg.epsilon]
        if len(rows) > 0:
            l0_val, l0_grad = loss_rows(probs[rows], np.zeros(len(rows), dtype=np.int64))
            unlabeled_term = float(l0_val.sum() / t_0)
            grads[rows] += l0_grad / t_0

    total = cfg.gamma * float(positive_terms.sum()) + unlabeled_term
    breakdown = RiskBreakdown(
        total=total, positive_terms=positive_terms, unlabeled_term=unlabeled_term, clamped_count=clamped,
    )
    return breakdown, grads


def random_batch(rng, k, size):
    probs = rng.random((size, k + 1)) + 0.05
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, k + 1, size=size)
    lam = rng.random(size)
    pi = rng.random(k) * (0.8 / k) + 0.05 / k
    return probs, labels, lam, Priors(pi)


# --- spans: one sentence's span list, token at a time ------------------------------


@dataclass(frozen=True, slots=True)
class Span:
    """Contiguous entity span, inclusive on both ends."""

    start: int
    end: int
    label: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"span start {self.start} > end {self.end}")
        if self.label == 0:
            raise ValueError("span label must be an entity id, not 0")

    def overlaps(self, other: "Span") -> bool:
        return self.start <= other.end and other.start <= self.end


def extract_spans(labels: Sequence[int] | np.ndarray) -> list[Span]:
    """Maximal runs of one non-zero label id become single spans.

    Zeros break runs; adjacent runs of different non-zero ids are separate
    spans. Output is sorted by start and pairwise disjoint.
    """
    spans: list[Span] = []
    start = -1
    run_label = 0
    for i, raw in enumerate(labels):
        label = int(raw)
        if label == run_label:
            continue
        if run_label != 0:
            spans.append(Span(start, i - 1, run_label))
        start, run_label = i, label
    if run_label != 0:
        spans.append(Span(start, len(labels) - 1, run_label))
    return spans


# --- noise injection: sentence by sentence over span lists ---------------------------


def oracle_inject_noise(gold_column, offsets, k, fn_rate, fp_rate, type_rate, rng):
    """The distant column that ``inject_noise`` draws, one sentence at a
    time: each gold span's fate, then each gold-O run's false positive."""
    gold_column = list(gold_column)
    bounds = list(offsets)
    noisy = []
    for lo, hi in zip(bounds, bounds[1:]):
        gold = gold_column[lo:hi]
        distant = [0] * len(gold)
        for span in extract_spans(gold):
            u = rng.random()
            if u < fn_rate:
                label = 0
            elif u < fn_rate + type_rate:
                others = [t for t in range(1, k + 1) if t != span.label]
                label = others[int(rng.integers(0, len(others)))]
            else:
                label = span.label
            distant[span.start : span.end + 1] = [label] * (span.end - span.start + 1)
        for run in extract_spans([int(g == 0) for g in gold]):  # the maximal gold-O runs
            if rng.random() < fp_rate:
                run_len = run.end - run.start + 1
                length = int(rng.integers(1, min(3, run_len) + 1))
                start = run.start + int(rng.integers(0, run_len - length + 1))
                distant[start : start + length] = [int(rng.integers(1, k + 1))] * length
        noisy.extend(distant)
    return noisy


# --- synthetic corpora: one numpy `choice` per weighted draw ---------------------


def oracle_generate_synthetic(spec, rng):
    """``generate_synthetic`` as it was written first: every weighted draw
    is ``rng.choice`` over the whole probability vector, and every token a
    new ``Token``."""
    label_set = LabelSet([f"T{t}" for t in range(1, spec.k + 1)])
    fillers = [f"w{i:03d}" for i in range(spec.filler_vocab)]
    weights = 1.0 / np.arange(1, spec.filler_vocab + 1, dtype=np.float64) ** spec.zipf_exponent
    weights /= weights.sum()
    pools = {t: [f"x{t}{i:02d}" for i in range(spec.words_per_type)] for t in range(1, spec.k + 1)}

    entries = []
    seen = set()
    lengths = np.arange(1, len(spec.entity_len_probs) + 1)
    attempts = 0
    while len(entries) < spec.dict_size and attempts < spec.dict_size * 50:
        attempts += 1
        type_id = 1 + len(entries) % spec.k
        length = int(rng.choice(lengths, p=np.asarray(spec.entity_len_probs)))
        words = [pools[type_id][int(rng.integers(0, spec.words_per_type))] for _ in range(length)]
        surface = " ".join(words)
        if (surface, type_id) in seen:
            continue
        seen.add((surface, type_id))
        entries.append((surface, label_set.name_of(type_id)))
    dictionary = Dictionary.build(entries, label_set)

    sentences = []
    for _ in range(spec.n_sentences):
        template = spec.templates[int(rng.integers(0, len(spec.templates)))]
        tokens = []
        for slot in template:
            if slot == "{E}":
                e_tokens, e_label = dictionary.entries[int(rng.integers(0, len(dictionary.entries)))]
                tokens.extend(Token(w, e_label, e_label) for w in e_tokens)
            elif slot == "{F}":
                tokens.append(Token(fillers[int(rng.choice(spec.filler_vocab, p=weights))], 0, 0))
            else:
                tokens.append(Token(slot, 0, 0))
        sentences.append(Sentence(tuple(tokens)))
    return Corpus(sentences, label_set), dictionary


# --- span metrics: span-list references and token-at-a-time double loops --------------


# `strict_prf` and `relaxed_prf` define the two metric families on span
# lists, one list per sentence; `evaluate_labels` computes the same counts
# over flat label arrays and is tested against them.


def strict_prf(pred: Sequence[Sequence[Span]], gold: Sequence[Sequence[Span]]) -> Metrics:
    """Exact-match span metrics; a true positive agrees in start, end and
    label. 0/0 ratios are defined as 0."""
    if len(pred) != len(gold):
        raise ValueError("pred and gold must cover the same sentences")
    tp = sum(sum(map(set(g).__contains__, p)) for p, g in zip(pred, gold))
    return Metrics.from_counts(tp, tp, sum(map(len, pred)), sum(map(len, gold)))


def relaxed_prf(
    pred: Sequence[Sequence[Span]], gold: Sequence[Sequence[Span]], require_type_match: bool = True
) -> Metrics:
    """Overlap-based span metrics: a predicted span scores for precision if
    it overlaps any gold span (of the same type unless disabled); a gold
    span scores for recall if any such prediction overlaps it."""
    if len(pred) != len(gold):
        raise ValueError("pred and gold must cover the same sentences")

    def hits(spans: Sequence[Span], others: Sequence[Span]) -> int:
        return sum(
            any(a.overlaps(b) and (not require_type_match or a.label == b.label) for b in others) for a in spans
        )

    tp_p = sum(hits(p, g) for p, g in zip(pred, gold))
    tp_r = sum(hits(g, p) for p, g in zip(pred, gold))
    return Metrics.from_counts(tp_p, tp_r, sum(map(len, pred)), sum(map(len, gold)))



def oracle_metrics(pred, gold, require_type=True):
    """(strict (P,R,F1), relaxed (P,R,F1)) from span lists per sentence."""
    strict_tp = pred_n = gold_n = 0
    relaxed_tp_p = relaxed_tp_r = 0
    for p_spans, g_spans in zip(pred, gold):
        pred_n += len(p_spans)
        gold_n += len(g_spans)
        for p in p_spans:
            if any(
                p.start == g.start and p.end == g.end and p.label == g.label
                for g in g_spans
            ):
                strict_tp += 1
        for p in p_spans:
            if any(
                (set(range(p.start, p.end + 1)) & set(range(g.start, g.end + 1)))
                and (not require_type or p.label == g.label)
                for g in g_spans
            ):
                relaxed_tp_p += 1
        for g in g_spans:
            if any(
                (set(range(p.start, p.end + 1)) & set(range(g.start, g.end + 1)))
                and (not require_type or p.label == g.label)
                for p in p_spans
            ):
                relaxed_tp_r += 1

    def prf(tp_p, tp_r):
        precision = tp_p / pred_n if pred_n else 0.0
        recall = tp_r / gold_n if gold_n else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f1

    return prf(strict_tp, strict_tp), prf(relaxed_tp_p, relaxed_tp_r)


# --- output formats: every key written out by hand ---------------------------
# The package dumps its dataclasses; these name each key, as the format
# documents it, and must give the same bytes.


def oracle_metrics_dict(m: Metrics) -> dict:
    return {
        "precision": m.precision,
        "recall": m.recall,
        "f1": m.f1,
        "tp_precision": m.tp_precision,
        "tp_recall": m.tp_recall,
        "pred_spans": m.pred_spans,
        "gold_spans": m.gold_spans,
    }


def oracle_report_json(report) -> str:
    """``report.json``: the four metric families, keys sorted, indent 2."""
    payload = {
        "strict": oracle_metrics_dict(report.strict),
        "relaxed": oracle_metrics_dict(report.relaxed),
        "strict_per_type": {t: oracle_metrics_dict(m) for t, m in report.strict_per_type.items()},
        "relaxed_per_type": {t: oracle_metrics_dict(m) for t, m in report.relaxed_per_type.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def oracle_plan_json(plan, corpus: Corpus) -> str:
    """``plan.json``: each curriculum's tokens as [sentence, token] pairs,
    found by walking the sentences."""
    where = [[s, t] for s, sentence in enumerate(corpus.sentences) for t in range(len(sentence))]
    payload = {
        "tau": plan.tau,
        "eta": plan.eta,
        "t_u": plan.t_u,
        "t_p": plan.t_p,
        "positive_counts": list(plan.positive_counts),
        "curricula": [[where[i] for i in idx.tolist()] for idx in plan.curricula],
    }
    return json.dumps(payload, sort_keys=True)


# --- voter scoring: the whole-corpus stack ------------------------------------------


def oracle_voter_distributions(ensemble, corpus: Corpus) -> np.ndarray:
    """[V, n_tokens, n_classes] stack of the voters' ``corpus_probs``."""
    out = np.empty((len(ensemble.voters), corpus.n_tokens, corpus.label_set.n_classes))
    for v, voter in enumerate(ensemble.voters):
        out[v] = voter.corpus_probs(corpus)
    return out


def oracle_difficulty_scores(ensemble, corpus: Corpus):
    """(ensemble mean, lambda, difficulty) from the whole [V, n, c] stack
    of every voter's distributions at once."""
    dists = oracle_voter_distributions(ensemble, corpus)
    mean = dists.mean(axis=0)
    floored = np.maximum(dists, 1e-12, out=dists)
    logs = np.log(floored)
    v = len(ensemble.voters)
    total = np.zeros(dists.shape[1])
    for i in range(v):
        for j in range(i + 1, v):
            logratio = logs[i] - logs[j]
            kl_ij = (floored[i] * logratio).sum(axis=1)
            kl_ji = (floored[j] * -logratio).sum(axis=1)
            total += 0.5 * (kl_ij + kl_ji)
    return mean, mean[:, 1:].sum(axis=1), np.maximum(total / (v * (v - 1) / 2), 0.0)


def oracle_scores_tsv(corpus: Corpus, lam, scores) -> str:
    """``difficulty.tsv`` from whole-corpus columns of every field."""
    offsets = corpus.offsets
    sentence = np.repeat(np.arange(len(corpus)), np.diff(offsets))
    position = np.arange(corpus.n_tokens) - offsets[sentence]
    return "".join(
        f"{s}\t{t}\t{surface}\t{corpus.label_set.name_of(label)}\t{lam_t:.17g}\t{h:.17g}\n"
        for s, t, surface, label, lam_t, h in zip(
            sentence.tolist(), position.tolist(), corpus.surfaces,
            corpus.distant_array().tolist(), np.asarray(lam).tolist(), np.asarray(scores).tolist(),
        )
    )


# --- context windows: one token at a time -------------------------------------------


def loop_window_rows(ids, window):
    """The per-sentence window matrix, one token at a time."""
    return np.array(
        [
            [ids[t + j] if 0 <= t + j < len(ids) else Vocab.PAD for j in range(-window, window + 1)]
            for t in range(len(ids))
        ],
        dtype=np.int64,
    ).reshape(len(ids), 2 * window + 1)


def loop_sentence_rows(model, corpus):
    """The model's window matrix of every sentence of the corpus, in order."""
    return [
        loop_window_rows(model.vocab.encode_sentence(s.surfaces()), model.config.window)
        for s in corpus.sentences
    ]


def blocked_forward(model, rows, block):
    """``forward_rows`` over consecutive ``block``-row slices of ``rows``,
    joined in order: the blocking a corpus scoring pass is pinned to."""
    return np.concatenate([model.forward_rows(rows[lo : lo + block])[0] for lo in range(0, len(rows), block)])


def count_forward_calls(monkeypatch):
    """Patch ``TokenClassifier.forward_rows`` to record the row count of
    every call; returns the list it appends to."""
    calls = []
    forward = TokenClassifier.forward_rows

    def counting(model, rows):
        calls.append(len(rows))
        return forward(model, rows)

    monkeypatch.setattr(TokenClassifier, "forward_rows", counting)
    return calls


# --- finite differences over model parameters -----------------------------------


def fd_param_gradients(model, risk_fn, step=1e-6):
    """Central finite differences of risk_fn(model) over every parameter."""
    grads = {}
    for name, param in model.parameters():
        g = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = risk_fn(model)
            flat[i] = orig - step
            down = risk_fn(model)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def dense_gradients(grads, vocab_size):
    """(name, gradient) of every parameter of a ``Gradients``, each the
    parameter's full shape: the compact embedding gradient is put back into
    its rows of a [vocab_size, d] array of zeros of its dtype."""
    embedding = np.zeros((vocab_size, grads.embedding.shape[1]), dtype=grads.embedding.dtype)
    embedding[grads.embedding_rows] = grads.embedding
    return [("embedding", embedding)] + [(name, getattr(grads, name)) for name in ("w1", "b1", "w2", "b2")]


def max_gradient_error(analytic, numeric, rtol=1e-5):
    """Largest violation of |a - n| <= rtol * max(|a|, |n|); values at or
    below the central-difference round-off floor (~1e-9) mean a match.
    Every embedding row counts, the ones the batch does not reference
    with an analytic gradient of 0."""
    worst = 0.0
    for name, a in dense_gradients(analytic, numeric["embedding"].shape[0]):
        n = numeric[name]
        err = np.abs(a - n) - rtol * np.maximum(np.abs(a), np.abs(n))
        worst = max(worst, float(err.max()))
    return worst


# --- training step: textbook Adam and the np.add.at scatter ----------------------


def oracle_adam_step(params, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as written in Kingma & Ba (arXiv:1412.6980), Algorithm 1, on
    dicts of arrays. Returns new (params, m, v); nothing is updated in place."""
    new_p, new_m, new_v = {}, {}, {}
    for name, g in grads.items():
        new_m[name] = b1 * m[name] + (1.0 - b1) * g
        new_v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = new_m[name] / (1.0 - b1**step)
        v_hat = new_v[name] / (1.0 - b2**step)
        new_p[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_p, new_m, new_v


def oracle_lazy_adam_step(param, grad, m, v, rows, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Lazy Adam: Algorithm 1 of Kingma & Ba applied row by row to the rows
    given only, with the global step in the bias correction. Every other
    row keeps its parameter and moments. Returns new (param, m, v)."""
    new_p, new_m, new_v = param.copy(), m.copy(), v.copy()
    for r in rows:
        new_m[r] = b1 * m[r] + (1.0 - b1) * grad[r]
        new_v[r] = b2 * v[r] + (1.0 - b2) * grad[r] * grad[r]
        m_hat = new_m[r] / (1.0 - b1**step)
        v_hat = new_v[r] / (1.0 - b2**step)
        new_p[r] = param[r] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_p, new_m, new_v


def oracle_embedding_gradient(model, cache, dprobs):
    """Embedding gradient of sum_t <dprobs_t, probs_t>: the chain rule down
    to the window inputs in the model's dtype, then np.add.at of each
    window position's slice into its vocabulary row of a float64
    accumulator, rounded once to the model's dtype."""
    rows, _, hidden, probs = cache
    dprobs = dprobs.astype(probs.dtype)
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    dlogits = probs * (dprobs - inner)
    dz1 = (dlogits @ model.w2.T) * (1.0 - hidden**2)
    dflat = dz1 @ model.w1.T
    out = np.zeros(model.embedding.shape)
    np.add.at(out, rows.ravel(), dflat.reshape(-1, model.embedding.shape[1]))
    return out.astype(model.embedding.dtype)


# --- voter step: the full-batch form -------------------------------------------------


def oracle_full_batch_voter_step(model, rows, labels, keep_ratio, rng, lr):
    """One voter step from fresh Adam moments, with every row of the batch
    computed: forward all rows, draw the negative sample (one uniform per
    token, keep_ratio < 1), give each dropped row a zero gradient and each
    kept row the gradient of the mean cross-entropy over the kept rows, then
    back-propagate all rows. Returns the new parameters by name."""
    probs, cache = model.forward_rows(rows)
    uniforms = rng.random(len(labels))
    keep = [label > 0 or u < keep_ratio for label, u in zip(labels, uniforms)]
    count = sum(keep)
    dprobs = np.zeros_like(probs)
    for t, kept in enumerate(keep):
        if kept:
            dprobs[t, labels[t]] = -1.0 / max(probs[t, labels[t]], 1e-12) / count
    grads = dict(dense_gradients(model.backward_rows(cache, dprobs), model.config.vocab_size))
    params = dict(model.parameters())
    zeros = {name: np.zeros_like(p) for name, p in params.items()}
    new_params, _, _ = oracle_adam_step(params, grads, zeros, zeros, 1, lr)
    return new_params


# --- rank correlation -------------------------------------------------------------


def spearman(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty_like(v)
        r[order] = np.arange(len(v), dtype=float)
        # average ranks over ties
        for value in np.unique(v):
            mask = v == value
            r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum()) * float((ry**2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0
