"""Counterexample search inside the perturbation box.

Two attacks share one objective, the runner-up margin
max_{j != t}(Y_j - Y_t): a witness exists exactly when the margin is
non-negative somewhere in the box.  `random_attack` samples the box,
`greedy_attack` walks pixels to their bound extremes, and `falsify`
wraps both behind the engine verdict vocabulary.  Neither attack can
prove robustness; no witness means "unknown".

Sampling starts at one image and doubles its batch up to the byte
budget of `images_per_batch`, because most witnesses are the first
sample.  Exhaustive enumeration (`verify.brute`) keeps full batches: an
`unsat` grid visits every point, so a ramp there only adds calls.

When the first sample is no witness, `random_attack` takes the interval
trace of its sampling box once and draws every later batch through
`verify.intervals.phase_forward`, which skips the activation signs that
the trace fixes.  Its logits equal `network_forward_batch`'s bit for
bit, so draws, witnesses and verdicts do not change; a trace that fixes
nothing to skip keeps `network_forward_batch`.  Witness checks and the
greedy walk keep the full forward.
"""

from dataclasses import dataclass

import numpy as np

from .network import images_per_batch, margin, network_forward, network_forward_batch
from .vnnlib import (
    RobustnessProperty,
    Witness,
    check_property_shapes,
    check_witness,
    witness_from_flat,
)
from .verify.brute import integer_grid_bounds
from .verify.intervals import IntervalTensor, ibp_trace, phase_forward
from .verify.verdict import FALSIFIED, TIMEOUT, UNKNOWN, Deadline, Verdict


@dataclass(frozen=True)
class AttackConfig:
    max_samples: int = 10_000
    seed: int = 0
    greedy_passes: int = 5
    integer_grid: bool = True

    def __post_init__(self):
        if self.max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {self.max_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be unsigned, got {self.seed}")
        if self.greedy_passes < 0:
            raise ValueError(f"greedy_passes must be >= 0, got {self.greedy_passes}")


def _checked(net, prop, flat, logits) -> Witness:
    w = witness_from_flat(flat, logits=logits)
    if not check_witness(net, prop, w):
        raise RuntimeError("internal error: attack produced an invalid witness")
    return w


def random_attack(net, prop: RobustnessProperty, cfg: AttackConfig = AttackConfig(),
                  deadline=None):
    """Uniform sampling of the box; first witness by sample index, or None.

    Integer-grid mode draws whole-valued pixels only.  Deterministic for a
    fixed seed.  The first batch is one image and each later batch is as
    large as all the batches before it (1, 2, 4, ...) up to
    `images_per_batch(net)`, so a witness at sample 0 costs one forward
    and a witness-free search at most ceil(log2(cap)) extra calls.  The
    batches split one stream of draws, so the witness does not depend on
    their sizes; `deadline` (a `Deadline`, or None for no limit) stops
    the search before a batch once it has expired.

    After a witness-free first batch the `ibp_trace` of the sampling box
    (the integer grid's box in integer-grid mode) is taken once, and
    later batches run through its `phase_forward` when it has phases to
    skip.  Its logits equal `network_forward_batch`'s bit for bit.
    """
    check_property_shapes(net, prop)
    lo, hi = prop.bounds_arrays()
    if cfg.integer_grid:
        lo, hi = integer_grid_bounds(prop)  # the box the draws fill
        g_lo, g_end = lo.astype(np.int64), hi.astype(np.int64) + 1
    rng = np.random.default_rng(cfg.seed)
    t = prop.target_label
    cap = images_per_batch(net)
    forward = None
    drawn = 0
    while drawn < cfg.max_samples:
        if deadline is not None and deadline.expired():
            return None
        batch = min(cap, cfg.max_samples - drawn, drawn + 1)
        if cfg.integer_grid:
            points = rng.integers(g_lo, g_end, size=(batch, lo.size)).astype(np.float64)
        else:
            points = rng.uniform(lo, hi, size=(batch, lo.size))
        images = points.reshape((-1,) + net.input_shape)
        if forward is None:
            logits = network_forward_batch(net, images)
        else:
            logits = forward(images)
        bad = margin(logits, logits, t) >= 0.0
        if np.any(bad):
            first = int(np.argmax(bad))
            return _checked(net, prop, points[first], logits[first])
        drawn += batch
        if drawn == 1 and drawn < cfg.max_samples:  # after the one-image first batch
            box = IntervalTensor(lo.reshape(net.input_shape), hi.reshape(net.input_shape))
            forward = phase_forward(net, ibp_trace(net, box))
    return None


def greedy_attack(net, prop: RobustnessProperty, cfg: AttackConfig = AttackConfig(),
                  deadline=None):
    """Coordinate descent on the runner-up margin, start at the box centre.

    Each pass sweeps the pixels in index order and moves a pixel to
    whichever of its bound extremes strictly raises the margin, so the
    objective never decreases across accepted moves.  Stops at a witness,
    after `greedy_passes` sweeps, when a sweep accepts nothing, or at a
    pixel once `deadline` (a `Deadline`, or None for no limit) expires.
    """
    check_property_shapes(net, prop)
    lo, hi = prop.bounds_arrays()
    t = prop.target_label
    x = (lo + hi) * 0.5
    if cfg.integer_grid:
        lo, hi = integer_grid_bounds(prop)  # moves go to the grid's extremes
        x = np.clip(np.floor(x + 0.5), lo, hi)  # snap centre to the grid

    logits = network_forward(net, x.reshape(net.input_shape))
    current = float(margin(logits, logits, t))
    if current >= 0.0:
        return _checked(net, prop, x, logits)

    n = x.size
    for _ in range(cfg.greedy_passes):
        improved = False
        for d in range(n):
            if deadline is not None and deadline.expired():
                return None
            cands = [v for v in (lo[d], hi[d]) if v != x[d]]
            if not cands:
                continue
            trial = np.repeat(x[None, :], len(cands), axis=0)
            trial[:, d] = cands
            out = network_forward_batch(net, trial.reshape((-1,) + net.input_shape))
            margins = margin(out, out, t)
            best = int(np.argmax(margins))
            if margins[best] > current:
                x[d] = cands[best]
                current = float(margins[best])
                improved = True
                if current >= 0.0:
                    return _checked(net, prop, x, out[best])
        if not improved:
            break
    return None


def falsify(net, prop: RobustnessProperty, cfg: AttackConfig = AttackConfig(),
            deadline=None) -> Verdict:
    """Greedy then random search, reported in the engine verdict vocabulary.

    Found witness -> falsified.  Budgets exhausted -> unknown, never
    verified.  ``deadline`` (None: no limit) is tested before the attacks
    and within them; expired with no witness -> timeout.  Bad input is
    refused before the first test: a property of the wrong size, and in
    integer-grid mode a box with no integer point.
    """
    deadline = Deadline() if deadline is None else deadline
    check_property_shapes(net, prop)
    if cfg.integer_grid:
        integer_grid_bounds(prop)
    if deadline.expired():
        return deadline.verdict(TIMEOUT)
    w = greedy_attack(net, prop, cfg, deadline=deadline)
    if w is None:
        w = random_attack(net, prop, cfg, deadline=deadline)
    if w is not None:
        return deadline.verdict(FALSIFIED, w)
    return deadline.verdict(TIMEOUT if deadline.expired() else UNKNOWN)
