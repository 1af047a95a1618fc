"""Best-first branch-and-bound over input sub-boxes of one root box.

A node is pruned when interval propagation proves strict target
dominance on its box, falsified when the concrete forward pass at its
centre violates the property, and split otherwise along the widest input
dimension.  In integer-grid mode (the benchmark default) every box
eventually shrinks to single grid points, so the search is complete;
verdicts then coincide with brute-force enumeration.

A node holds only its splits, one ``(flat index, lo, hi)`` per input
where its box differs from the root's: a split replaces its coordinate's
entry, and the children share the rest.  So the frontier grows by bytes
per node, not by a copy of the input; a popped node's box is the root's
with its splits written in.

The root is bounded with a full interval trace, kept for the whole call;
every later node is bounded relative to it (``ibp_propagate`` with
``base``), so a node pays only for the layer regions its split pixels
reach.  A split bounds both children in one such call, as a batch of
two boxes, and the call stops at the first layer that reads only signs
when neither child changes a sign there.  Each child counts as one
node, and the lower child is pushed first.  On integer boxes those
bounds are bit-identical to a full trace of each child.

Probes work the same way on points.  A point box carries one array, and
its trace is the forward.  Before the loop, ``network_forward`` runs on
the root's centre, and its layer outputs are kept as the point trace;
every probe, the root's included, is a delta forward from it, since its
centre differs from the root's only in the pixels split so far.  On the
integer grid a delta probe is exactly ``network_forward``.
Off it, a slice of the first layer's sums may round apart from the full
forward, so each witness is confirmed by ``check_witness``, whose forward
is the oracle; a probe that the forward does not confirm is split like a
passing one (on the grid that is an internal error).  The witness's
logits are the probe's.

Nodes are expanded one at a time in a deterministic priority order
(largest IBP violation margin first, FIFO among ties), which makes the
verdict and any witness independent of timing.
"""

import heapq
import itertools

import numpy as np

from ..network import margin, network_forward
from ..vnnlib import check_property_shapes, check_witness, witness_from_flat
from .brute import integer_grid_bounds
from .intervals import IntervalTensor, ibp_propagate, ibp_trace
from .verdict import FALSIFIED, TIMEOUT, UNKNOWN, VERIFIED, Deadline

__all__ = ["bab_verify"]


def bab_verify(net, prop, deadline=None, max_nodes=None, integer_grid=True):
    """Branch-and-bound verification.

    deadline     a ``Deadline`` (None: a fresh one with no limit); tested
                 after the input checks, before the root and between
                 nodes, so a node in flight always completes, and an
                 expired one answers Timeout
    max_nodes    bound on boxes bounded before answering Unknown
    integer_grid restrict the search to integer inputs (benchmark mode);
                 continuous mode splits at real midpoints and may answer
                 Unknown when boxes stop shrinking
    """
    deadline = Deadline() if deadline is None else deadline
    check_property_shapes(net, prop)
    if integer_grid:
        root_lo, root_hi = integer_grid_bounds(prop)
    else:
        root_lo, root_hi = prop.bounds_arrays()
    if deadline.expired():
        return deadline.verdict(TIMEOUT)
    target = prop.target_label
    root = IntervalTensor(root_lo.reshape(net.input_shape), root_hi.reshape(net.input_shape))

    def centre(lo, hi):
        # the probe point of a box: its lower-middle grid point, or its midpoint
        return lo + np.floor((hi - lo) * 0.5) if integer_grid else (lo + hi) * 0.5

    root_trace = ibp_trace(net, root)
    nodes = 1
    root_margin = float(margin(root_trace[-1].hi, root_trace[-1].lo, target))
    if root_margin < 0:
        return deadline.verdict(VERIFIED, nodes=nodes)
    probe_trace = [IntervalTensor.point(v)
                   for v in network_forward(net, centre(root.lo, root.hi), trace=True)]

    tiebreak = itertools.count()
    heap = [(-root_margin, next(tiebreak), ())]
    stuck = False

    while heap:
        if deadline.expired():
            return deadline.verdict(TIMEOUT, nodes=nodes)
        if max_nodes is not None and nodes >= max_nodes:
            return deadline.verdict(UNKNOWN, nodes=nodes)
        _, _, splits = heapq.heappop(heap)
        lo, hi = root.lo.copy(), root.hi.copy()
        flat_lo, flat_hi = lo.reshape(-1), hi.reshape(-1)
        for d, a, b in splits:
            flat_lo[d], flat_hi[d] = a, b

        point = centre(lo, hi)
        logits = ibp_propagate(net, IntervalTensor.point(point), base=probe_trace).lo
        if margin(logits, logits, target) >= 0:
            w = witness_from_flat(point.reshape(-1), logits=logits)
            if check_witness(net, prop, w):
                return deadline.verdict(FALSIFIED, w, nodes)
            if integer_grid:
                raise RuntimeError("internal error: probe witness failed its own check")
            # off the grid the delta's first-layer sums may round apart
            # from the forward's; the forward passes, so split as a pass

        widths = flat_hi - flat_lo
        d = int(np.argmax(widths))
        if widths[d] <= 0:
            continue  # single point, and its probe just passed: proven
        if integer_grid:
            mid = np.floor((flat_lo[d] + flat_hi[d]) * 0.5)
            upper_lo = mid + 1.0
        else:
            mid = (flat_lo[d] + flat_hi[d]) * 0.5
            if not (flat_lo[d] < mid < flat_hi[d]):
                stuck = True  # float resolution exhausted; box not a point
                continue
            upper_lo = mid
        # the children [lo, mid] and [upper_lo, hi] along d, as one batch of two
        child_lo, child_hi = np.stack((lo, lo)), np.stack((hi, hi))
        child_hi.reshape(2, -1)[0, d] = mid
        child_lo.reshape(2, -1)[1, d] = upper_lo
        out = ibp_propagate(net, IntervalTensor(child_lo, child_hi), base=root_trace)
        nodes += 2
        # a change that dies out for both gives the root's unbatched logits
        margins = np.broadcast_to(margin(out.hi, out.lo, target), 2)
        kept = tuple(s for s in splits if s[0] != d)
        for m, split in zip(margins, ((d, flat_lo[d], mid), (d, upper_lo, flat_hi[d]))):
            if m >= 0:
                heapq.heappush(heap, (-float(m), next(tiebreak), kept + (split,)))

    return deadline.verdict(UNKNOWN if stuck else VERIFIED, nodes=nodes)
