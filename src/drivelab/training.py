"""Losses and training orchestration: staged pre-training by imitation,
DAgger epochs over merged data, preference-optimization epochs on fresh
takeover data, and the multi-round post-optimization loop."""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dataset as ds

LOGPROB_FLOOR = -50.0   # ln pi clamp on underflow


@dataclass
class TrainConfig:
    beta: float = 0.1
    gamma: float = 0.1
    tau_label: float = 1.0            # soft trajectory target temperature (m)
    pretrain_epochs: int = 2          # per stage
    pretrain_lr: float = 2e-4
    dagger_epochs: int = 1
    dagger_lr: float = 5e-5
    po_epochs: int = 10
    po_lr: float = 1e-6
    rounds: int = 5
    batch_size: int = 16
    takeover_weight: float = 4.0
    eps_steer: float = ds.EPS_STEER
    seed: int = 0

    def __post_init__(self):
        # Stated as what must hold, so a nan fails too.
        for f in ("beta", "gamma", "tau_label", "pretrain_lr", "dagger_lr", "po_lr"):
            if not getattr(self, f) > 0:
                raise ValueError(f"TrainConfig.{f} must be positive")
        for f in ("pretrain_epochs", "batch_size"):
            if not getattr(self, f) >= 1:
                raise ValueError(f"TrainConfig.{f} must be >= 1")
        # 0 epochs ablates a stage, 0 rounds keeps the pretrained policy and
        # a takeover weight of 0 leaves takeovers out of the DAgger data.
        for f in ("dagger_epochs", "po_epochs", "rounds", "takeover_weight"):
            if not getattr(self, f) >= 0:
                raise ValueError(f"TrainConfig.{f} must be >= 0")


def soft_trajectory_target(traj_vocab, waypoints, tau=1.0):
    """Distribution over vocabulary entries: softmax(-d_j / tau), d_j the
    mean per-waypoint L2 distance to center j; one row per trajectory of a
    (B, 6, 2) stack."""
    d = traj_vocab.waypoint_distances(waypoints)
    z = -d / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(n, idx):
    t = np.zeros(n)
    t[idx] = 1.0
    return t


def kl_loss(target, predicted):
    """Mean over rows of D_KL(target row || predicted row), with 0 ln 0 = 0.
    `target` is a (B, n) array of per-row targets (or one (n,) target) and
    `predicted` a Tensor of the same shape."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != predicted.data.shape or target.ndim not in (1, 2):
        raise ValueError(
            f"support mismatch: target {target.shape} vs predicted {predicted.data.shape}")
    target = target.reshape(-1, target.shape[-1])
    # Stated as what must hold: a nan fails every comparison, an inf the sum.
    if not (np.all(target >= 0) and np.all(np.abs(target.sum(axis=-1) - 1.0) <= 1e-9)):
        raise ValueError("target is not a distribution")
    idx = np.flatnonzero(target > 0.0)
    t = target.ravel()[idx]
    p = predicted.reshape(-1).take_rows(idx)
    if np.any(p.data <= 0.0):
        raise ValueError("support mismatch: predicted has zero mass where target > 0")
    entropy_term = float((t * np.log(t)).sum())
    cross = (p.log() * t).sum()
    return (cross * -1.0 + entropy_term) * (1.0 / target.shape[0])


def _log_prob(dist, idx, flags=None):
    """ln dist[r, idx[r]] for each row r of a distribution Tensor (one index
    for one (n,) distribution), as a (B,) Tensor. An underflowing entry is
    clamped to the floor, a constant with no gradient, and its index is
    appended to `flags`: the ln pi floor rule, for every loss and margin."""
    idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
    p = dist.reshape(-1).take_rows(np.arange(len(idx)) * dist.shape[-1] + idx)
    under = p.data < math.exp(LOGPROB_FLOOR)
    if not under.any():
        return p.log()
    if flags is not None:
        flags.extend(idx[under].tolist())
    # ln(p * 0 + 1) + floor = floor on a clamped entry, and no gradient
    # reaches p there; a kept entry is ln(p * 1 + 0) + 0 = ln p exactly.
    clamped = under.astype(np.float64)
    return (p * (1.0 - clamped) + clamped).log() + LOGPROB_FLOOR * clamped


def _log_sigmoid_const(x):
    """ln sigma(x) for a python float, through the same fp ops the Tensor
    path uses so the compensation constant cancels exactly."""
    return float(np.log(ad.sigmoid(np.array([x]))).item())


def _margin(dist, y_w, y_l, beta, flags=None):
    """The preference margin beta (ln pi(y_w) - ln pi(y_l)) per row of a
    (B, n) distribution Tensor with per-row index arrays y_w and y_l, as a
    (B,) Tensor; one (n,) distribution with two indices is a batch of one."""
    return (_log_prob(dist, y_w, flags) - _log_prob(dist, y_l, flags)) * beta


def simpo_from_dist(dist, y_w, y_l, beta, gamma, flags=None):
    """Reference-free preference loss -ln sigma(margin - gamma) per row (see
    `_margin`), as a (B,) Tensor."""
    z = _margin(dist, y_w, y_l, beta, flags) - gamma
    return z.sigmoid().log() * -1.0


def po_from_dist(dist, y_w, y_l, beta, gamma, flags=None):
    """Compensated preference loss per row: simpo + ln sigma(-gamma), so a
    row whose y_l is the argmax is zero-floored by construction."""
    return simpo_from_dist(dist, y_w, y_l, beta, gamma, flags) + _log_sigmoid_const(-gamma)


def _sum(terms):
    """Left-to-right sum of loss Tensors."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _mean(terms):
    """_sum times 1/len: every batch and pair mean adds in the same order."""
    return _sum(terms) * (1.0 / len(terms))


def _row_mean(rows):
    """Mean of a (B,) Tensor of per-row losses."""
    return rows.sum() * (1.0 / rows.shape[0])


# -- imitation ----------------------------------------------------------------


def _batch_loss(policy, samples, cfg, want_traj=True, want_ctrl=True):
    """Mean imitation loss of a batch of demonstration samples, from one
    forward pass: the trajectory KL plus the summed control KL, either of
    them optional."""
    out = policy.forward(samples)
    terms = []
    if want_traj:
        targets = soft_trajectory_target(
            policy.traj_vocab, np.stack([s.traj_waypoints for s in samples]), cfg.tau_label)
        terms.append(kl_loss(targets, out["d_traj"]))
    if want_ctrl:
        sizes = policy.ctrl_vocab.group_sizes
        terms.append(_sum([
            kl_loss(np.stack([one_hot(size, s.ctrl_indices[j]) for s in samples]), dist)
            for j, (size, dist) in enumerate(zip(sizes, out["d_ctrl"]))]))
    return _sum(terms)


def _run_epoch(policy, samples, order, cfg, opt, batch_loss, trainable=None, tag=""):
    """One pass over `samples` in `order`: per batch, batch_loss(batch) ->
    backward -> Adam step on `trainable` (all parameters if None). Returns
    the mean batch loss."""
    losses = []
    for b, start in enumerate(range(0, len(order), cfg.batch_size)):
        batch = [samples[i] for i in order[start:start + cfg.batch_size]]
        try:
            loss = batch_loss(batch)
            ad.backward(loss, policy.params)
            opt.step(trainable=trainable)
        except ad.NonFiniteError as e:
            raise ad.NonFiniteError(f"{tag} batch {b}: {e}")
        losses.append(loss.data.item())
    return float(np.mean(losses))


PRETRAIN_STAGES = ("trajectory", "control", "joint")


def pretrain(policy, demo, cfg, progress=None):
    """Three-stage imitation pre-training; returns the per-epoch loss history
    {stage: [loss, ...]}. Stage 1: encoder + trajectory branch; stage 2:
    control branch with everything else frozen; stage 3: joint fine-tune."""
    rng = np.random.default_rng(cfg.seed)
    samples = demo.samples
    if not samples:
        raise ValueError("empty demonstration dataset")
    stage_spec = {
        "trajectory": (policy.param_names(policy.ENCODER_PREFIXES + policy.TRAJ_PREFIXES),
                       True, False),
        "control": (policy.param_names(policy.CTRL_PREFIXES), False, True),
        "joint": (None, True, True),
    }
    history = {}
    for stage in PRETRAIN_STAGES:
        trainable, want_traj, want_ctrl = stage_spec[stage]
        steps = cfg.pretrain_epochs * math.ceil(len(samples) / cfg.batch_size)
        opt = ad.Adam(policy.params, lr=cfg.pretrain_lr,
                      schedule="cosine", total_steps=steps)
        history[stage] = []
        for epoch in range(cfg.pretrain_epochs):
            order = rng.permutation(len(samples))
            mean = _run_epoch(
                policy, samples, order, cfg, opt,
                lambda batch: _batch_loss(policy, batch, cfg, want_traj, want_ctrl),
                trainable, tag=f"pretrain/{stage}")
            history[stage].append(mean)
            if progress:
                progress(f"pretrain {stage} epoch {epoch}: loss {mean:.4f}")
    return history


def dagger_epoch(policy, merged, cfg, rng):
    """One imitation pass over the merged dataset (takeovers oversampled)."""
    order = merged.epoch_indices(rng)
    opt = ad.Adam(policy.params, lr=cfg.dagger_lr)
    return _run_epoch(policy, merged.samples, order, cfg, opt,
                      lambda batch: _batch_loss(policy, batch, cfg), tag="dagger")


# -- preference optimization --------------------------------------------------


def _winners(policy, samples):
    """The expert's pick y_w in each preference group of each takeover
    sample, one row per sample: trajectory, throttle, brake, steer."""
    traj = policy.traj_vocab.nearest_index(np.stack([s.traj_waypoints for s in samples]))
    return np.column_stack([traj, [s.ctrl_indices for s in samples]])


def _preference_pairs(policy, samples):
    """(distribution, y_w, y_l) per preference group (trajectory, throttle,
    brake, steer) of a batch of takeover samples, from one forward pass;
    y_l is each row's live argmax."""
    out = policy.forward(samples)
    y_w = _winners(policy, samples)
    return [(dist, y_w[:, g], np.argmax(dist.data, axis=-1))
            for g, dist in enumerate((out["d_traj"], *out["d_ctrl"]))]


def _pair_losses(policy, samples, cfg, flags=None):
    """Mean compensated preference loss of a batch of takeover samples over
    the four per-group pairs."""
    return _mean([_row_mean(po_from_dist(dist, y_w, y_l, cfg.beta, cfg.gamma, flags))
                  for dist, y_w, y_l in _preference_pairs(policy, samples)])


def mean_margin(policy, samples, cfg):
    """Mean preference margin over all pairs of all samples, from the
    preference loss's pass over batches of cfg.batch_size. Always <= 0;
    larger is better."""
    if not samples:
        return 0.0
    margins = []
    for start in range(0, len(samples), cfg.batch_size):
        pairs = _preference_pairs(policy, samples[start:start + cfg.batch_size])
        margins.append(np.column_stack([_margin(*pair, cfg.beta).data for pair in pairs]))
    return float(np.mean(np.concatenate(margins).ravel()))


def po_epoch(policy, samples, cfg, opt):
    """One preference epoch over the round's takeover samples; returns the
    mean batch loss and the number of underflow clamps."""
    rng = np.random.default_rng(cfg.seed + 7919 + opt.step_count)
    flags = []
    mean = _run_epoch(
        policy, samples, rng.permutation(len(samples)), cfg, opt,
        lambda batch: _pair_losses(policy, batch, cfg, flags),
        tag="po")
    return mean, len(flags)


# -- the multi-round loop ------------------------------------------------------


def post_optimize(policy, demo, suite, expert_cfg, cfg, out_dir,
                  evaluate=None, progress=None, jobs=1):
    """Iterative takeover collection + DAgger + preference optimization.

    Per round: shadow-collect takeovers with the current policy, filter them,
    merge with the demonstrations and all previous rounds, run the DAgger
    epochs, then the preference epochs on this round's data only. Checkpoints
    land under round_<i>/; returns (policy, reports). Shadow collection
    drives its episodes across `jobs` processes."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(cfg.seed + 1)
    rounds_kept = []
    reports = []
    for i in range(1, cfg.rounds + 1):
        rdir = os.path.join(out_dir, f"round_{i}")
        os.makedirs(rdir, exist_ok=True)
        raw = ds.run_shadow_collection(policy, suite, expert_cfg, round_index=i,
                                       eps_steer=cfg.eps_steer, jobs=jobs)
        kept = ds.filter_takeovers(raw)
        ds.persist(kept, os.path.join(rdir, "takeover.jsonl"))
        rounds_kept.append(kept)

        merged = ds.MergedDataset(demo, rounds_kept,
                                  takeover_weight=cfg.takeover_weight)
        dagger_losses = [dagger_epoch(policy, merged, cfg, rng)
                         for _ in range(cfg.dagger_epochs)]

        report = {
            "round": i,
            "takeover_raw": len(raw),
            "takeover_kept": len(kept),
            "triggers": raw.manifest["triggers"],
            "filter_stats": kept.manifest["filter_stats"],
            "dagger_losses": dagger_losses,
        }
        if len(kept) == 0:
            report["po_skipped"] = "no takeover data this round"
            if progress:
                progress(f"round {i}: empty takeover set, preference epochs skipped")
        else:
            margin_before = mean_margin(policy, kept.samples, cfg)
            opt = ad.Adam(policy.params, lr=cfg.po_lr)
            po_losses = []
            underflows = 0
            for _ in range(cfg.po_epochs):
                mean, n_flag = po_epoch(policy, kept.samples, cfg, opt)
                po_losses.append(mean)
                underflows += n_flag
            report["po_losses"] = po_losses
            report["po_underflow_clamps"] = underflows
            report["margin_before"] = margin_before
            report["margin_after"] = mean_margin(policy, kept.samples, cfg)

        if evaluate is not None:
            report["validation"] = evaluate(policy)
        policy.save(os.path.join(rdir, "policy.ckpt"), extra_meta={"round": i})
        with open(os.path.join(rdir, "report.json"), "w") as f:
            json.dump(report, f, indent=2)
        reports.append(report)
        if progress:
            progress(f"round {i}: kept {len(kept)} takeover samples"
                     + (f", dagger loss {dagger_losses[-1]:.4f}" if dagger_losses else ""))
    return policy, reports
