"""Best-first branch-and-bound over input sub-boxes.

Each node carries one sub-box.  A node is pruned when interval propagation
proves strict target dominance on it, falsified when the concrete forward
pass at its centre violates the property, and split otherwise along the
widest input dimension.  In integer-grid mode (the benchmark default)
every box eventually shrinks to single grid points, so the search is
complete; verdicts then coincide with brute-force enumeration.

The root is bounded with a full interval trace, kept for the whole call;
every later node is bounded relative to it (``ibp_propagate`` with
``base``), so a node pays only for the layer regions its split pixels
reach.  A split bounds both children in one such call, as a batch of
two boxes, and the call stops at the first layer that reads only signs
when neither child changes a sign there.  Each child counts as one
node, and the lower child is pushed first.  On integer boxes those
bounds are bit-identical to a full trace of each child.

Probes work the same way on points.  A point box carries one array, and
its trace is the forward.  The first probe, at the root's centre, is
``network_forward``, and its layer outputs are kept for the call as the
point trace; every later probe is a delta forward from it, since its
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

from ..network import image_from_flat, margin, network_forward
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
    shape = net.input_shape
    nodes = 0

    def box(lo, hi):
        # flat bounds, with any leading batch dims, as image bounds
        return IntervalTensor(lo.reshape(lo.shape[:-1] + shape),
                              hi.reshape(hi.shape[:-1] + shape))

    def node_margins(out, count):
        # IBP margins of ``count`` bounded boxes, each counted as a node;
        # < 0 proves a box
        nonlocal nodes
        nodes += count
        return margin(out.hi, out.lo, target)

    root_trace = ibp_trace(net, box(root_lo, root_hi))
    root_margin = float(node_margins(root_trace[-1], 1))
    if root_margin < 0:
        return deadline.verdict(VERIFIED, nodes=nodes)

    tiebreak = itertools.count()
    heap = [(-root_margin, next(tiebreak), root_lo, root_hi)]
    stuck = False
    probe_trace = None  # the first probe's point trace

    while heap:
        if deadline.expired():
            return deadline.verdict(TIMEOUT, nodes=nodes)
        if max_nodes is not None and nodes >= max_nodes:
            return deadline.verdict(UNKNOWN, nodes=nodes)
        _, _, lo, hi = heapq.heappop(heap)

        widths = hi - lo
        if integer_grid:
            centre = lo + np.floor(widths * 0.5)
        else:
            centre = (lo + hi) * 0.5
        image = image_from_flat(centre, shape)
        if probe_trace is None:
            outputs = network_forward(net, image, trace=True)
            probe_trace = [IntervalTensor.point(v) for v in outputs]
            logits = outputs[-1]
        else:
            logits = ibp_propagate(net, IntervalTensor.point(image), base=probe_trace).lo
        if margin(logits, logits, target) >= 0:
            w = witness_from_flat(centre, logits=logits)
            if check_witness(net, prop, w):
                return deadline.verdict(FALSIFIED, w, nodes)
            if integer_grid:
                raise RuntimeError("internal error: probe witness failed its own check")
            # off the grid the delta's first-layer sums may round apart
            # from the forward's; the forward passes, so split as a pass

        d = int(np.argmax(widths))
        if widths[d] <= 0:
            continue  # single point, and its probe just passed: proven
        if integer_grid:
            mid = np.floor((lo[d] + hi[d]) * 0.5)
            upper_lo = mid + 1.0
        else:
            mid = (lo[d] + hi[d]) * 0.5
            if not (lo[d] < mid < hi[d]):
                stuck = True  # float resolution exhausted; box not a point
                continue
            upper_lo = mid
        # the children [lo, mid] and [upper_lo, hi] along d, bounded as one
        # batch of two; bounds are never written after a split, so each
        # child shares the parent's array that it does not change
        split_hi = hi.copy()
        split_hi[d] = mid
        split_lo = lo.copy()
        split_lo[d] = upper_lo
        children = ((lo, split_hi), (split_lo, hi))
        out = ibp_propagate(net, box(np.stack((lo, split_lo)), np.stack((split_hi, hi))),
                            base=root_trace)
        # a change that dies out for both gives the root's unbatched logits
        margins = np.broadcast_to(node_margins(out, 2), 2)
        for m, (child_lo, child_hi) in zip(margins, children):
            if m >= 0:
                heapq.heappush(heap, (-float(m), next(tiebreak), child_lo, child_hi))

    return deadline.verdict(UNKNOWN if stuck else VERIFIED, nodes=nodes)
