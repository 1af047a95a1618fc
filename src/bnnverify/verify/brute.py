"""Exhaustive integer-grid enumeration: the ground-truth oracle.

Every other engine is judged against this one on instances small enough to
enumerate.  Beyond the point budget it refuses outright instead of
degrading into sampling.
"""

import time

import numpy as np

from ..errors import EngineDeclinedError, EnumerationBudgetError
from ..network import images_per_batch, margin, network_forward_batch
from ..vnnlib import check_property_shapes, check_witness, witness_from_flat
from .verdict import FALSIFIED, TIMEOUT, VERIFIED, Verdict, check_timeout

__all__ = ["DEFAULT_ENUMERATION_BUDGET", "integer_grid_bounds", "brute_force_verify"]

DEFAULT_ENUMERATION_BUDGET = 10_000_000


def integer_grid_bounds(prop):
    """Integer endpoints of the box: (ceil(lo), floor(hi)) as float arrays.

    Raises EngineDeclinedError (a ValueError) when some dimension holds no
    integer at all, which cannot happen for integer-centred integer-radius
    benchmark properties.
    """
    lo, hi = prop.bounds_arrays()
    g_lo = np.ceil(lo)
    g_hi = np.floor(hi)
    bad = g_lo > g_hi
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EngineDeclinedError(f"input box contains no integer point in dimension {i}")
    return g_lo, g_hi


def brute_force_verify(net, prop, budget=DEFAULT_ENUMERATION_BUDGET, timeout=None):
    """Enumerate every integer point of the box in lexicographic order.

    Falsified with the first counterexample in that order, else Verified.
    Boxes larger than ``budget`` points raise EnumerationBudgetError: a
    refusal, deliberately distinct from an Unknown verdict.  Points are
    forwarded ``images_per_batch(net)`` at a time.
    ``timeout`` is in wall-clock seconds, checked before each batch: once
    it has passed the answer is Timeout, with ``nodes`` the points done;
    a NaN timeout is a ValueError.
    """
    start = time.perf_counter()
    check_timeout(timeout)
    check_property_shapes(net, prop)
    batch_size = images_per_batch(net)
    g_lo, g_hi = integer_grid_bounds(prop)
    counts = (g_hi - g_lo + 1.0).astype(np.int64)
    total = 1
    for n in counts:
        total *= int(n)
    if total > budget:
        raise EnumerationBudgetError(points=total, budget=budget)

    # mixed-radix decode of point index -> coordinates; dimension 0 is the
    # most significant digit, matching lexicographic tuple order
    p = counts.size
    suffix = np.ones(p, dtype=np.int64)
    for k in range(p - 2, -1, -1):
        suffix[k] = suffix[k + 1] * counts[k + 1]

    t = prop.target_label
    for chunk_start in range(0, total, batch_size):
        if timeout is not None and time.perf_counter() - start >= timeout:
            return Verdict(TIMEOUT, nodes=chunk_start,
                           seconds=time.perf_counter() - start)
        idx = np.arange(chunk_start, min(chunk_start + batch_size, total), dtype=np.int64)
        digits = (idx[:, None] // suffix[None, :]) % counts[None, :]
        points = g_lo[None, :] + digits.astype(np.float64)
        images = points.reshape((-1,) + net.input_shape)
        logits = network_forward_batch(net, images)
        bad = margin(logits, logits, t) >= 0
        if np.any(bad):
            first = int(np.argmax(bad))
            w = witness_from_flat(points[first], logits=logits[first])
            if not check_witness(net, prop, w):
                raise RuntimeError("internal error: enumerated witness failed its own check")
            return Verdict(
                FALSIFIED,
                witness=w,
                nodes=chunk_start + first + 1,
                seconds=time.perf_counter() - start,
            )
    return Verdict(VERIFIED, nodes=total, seconds=time.perf_counter() - start)
