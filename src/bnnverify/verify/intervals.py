"""Interval bound propagation.

A ``QConv`` or ``QDense`` layer is bounded in centre/radius form: with
``mid = (lo + hi) / 2`` and ``rad = (hi - lo) / 2`` the output lies in
``mid @ W -+ rad @ |W|``.  The centre goes through the same contraction as
exact inference, and since every weight is +-1, ``rad @ |W|`` is a plain
window or vector sum of ``rad`` shared by all output channels.  On a
layer that sign-quantizes its input, ``mid`` and ``rad`` are float32 with
values in {-1, 0, 1}, so both terms are integer sums within the fan-in
and exact in float32 (:mod:`bnnverify.layers` caps such a fan-in at
``2**24``); the box comes back as float64.

Soundness contract: on integer boxes (more generally, on any box whose
bounds lie on a binary grid coarse enough that every partial sum is exact)
the bounds are the exact extremes, equal to the textbook
``lo @ W+ + hi @ W-``, and a zero-width box propagates to exactly the
``network_forward`` logits.  Off that grid the radius of an unquantized
layer is widened by a float64 forward-error bound, so the bounds still
contain the float64 forward of every point in the box.  Max-pool,
batch-norm, sign and flatten are monotone in float64, so they need no
widening: their bounds are the exact forward (``layer_forward``) of the
two corners, ordered entrywise.

Batches: a box may carry leading batch dims in front of the network's
input shape, and every layer bounds each item as it would bound that
item alone, bit for bit on the grid, where every sum is exact.  The
rounding margin below is decided per item, so an off-grid item does not
widen its on-grid siblings.

Bounding relative to a reference trace: ``ibp_propagate(net, box,
base=trace)`` recomputes only what ``box`` changes against the box
``trace`` was made from; the trace is of one box, with no batch dims.
Through the image layers it tracks the rectangle (rows x cols, all
channels, the union over the batch) where the layer input differs from
the reference: a ``QConv`` widens it by its kernel, ``MaxPool`` halves
it, an image ``BatchNorm`` keeps it.  A ``QConv`` that sign-quantizes
its input reads only the signs of both corners, so there the rectangle
first shrinks to where the sign of ``lo`` or ``hi`` differs from the
reference's; when no sign differs, the change has died out.  Each layer
runs the same :func:`_layer_bounds` on the input slice those outputs
read, taken from the reference with the changed entries written in, and
the rectangle then shrinks to where the result differs from the
reference output.  Every output entry depends only on its own window,
so on integer boxes the bounds are bit-identical to :func:`ibp_trace`.
A slice of an on-grid box is on the grid, so no entry is widened that
the full trace would not widen; off the grid the slice may skip a
widening, and its bounds are then tighter and still sound.  At
``Flatten`` the rectangle is written into the reference image once, and
every vector layer from there on recomputes in full.  A change that
dies out before ``Flatten`` returns the reference logits as they are.

Points: ``IntervalTensor.point`` holds one read-only array as both
``lo`` and ``hi``.  Every layer then computes the point once, by its
``layer_forward``, with no radius, no second corner and no rounding
margin, so ``ibp_trace`` of a point is exactly ``network_forward``.
Relative to a point trace, ``ibp_propagate`` of a point is a delta
forward: it recomputes only the changed windows, and its logits equal
``network_forward`` on the integer grid, where every sum is exact.  Off
the grid they may differ in the last bits, since a slice of the first
layer's float64 sums may round in another order than the full forward.

Phases: :func:`stable_phases` reads off a box the signs it fixes, and
:func:`phase_forward` runs a batch of points of a traced box with the
fixed signs of every quantizing layer's input as constants.  Its logits
equal ``network_forward_batch``'s bit for bit, on the grid and off it.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatchError
from ..layers import (
    BatchNorm,
    Flatten,
    MaxPool,
    QConv,
    QDense,
    _product,
    contract,
    conv_windows,
    layer_forward,
    sign_quantize,
)
from ..network import image_from_flat, margin
from ..vnnlib import check_property_shapes
from .verdict import TIMEOUT, UNKNOWN, VERIFIED, Deadline

__all__ = [
    "IntervalTensor",
    "property_box",
    "ibp_trace",
    "ibp_propagate",
    "stable_phases",
    "phase_forward",
    "verify_ibp",
]


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass(frozen=True)
class IntervalTensor:
    """Entrywise box: every concrete tensor t with lo <= t <= hi."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=np.float64)
        hi = np.array(self.hi, dtype=np.float64)
        if lo.shape != hi.shape:
            raise ShapeMismatchError(
                "interval bounds differ in shape", expected=lo.shape, actual=hi.shape
            )
        if np.any(lo > hi):
            raise ValueError("interval has lo > hi somewhere")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _frozen(cls, lo, hi):
        """Box over float64 arrays the caller owns, already ordered and of
        one shape (the layer bounds below); freezes them, no copy or scan."""
        lo.flags.writeable = False
        hi.flags.writeable = False
        box = object.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

    @classmethod
    def point(cls, values):
        """Zero-width box around one concrete tensor: one private read-only
        array serves as both ``lo`` and ``hi``, so the layers below give
        it one forward instead of two corners."""
        v = np.array(values, dtype=np.float64)
        return cls._frozen(v, v)

    @property
    def shape(self):
        return self.lo.shape

    def width(self):
        return self.hi - self.lo

    def contains(self, values):
        v = np.asarray(values, dtype=np.float64)
        return (
            v.shape == self.shape
            and bool(np.all(self.lo <= v))
            and bool(np.all(v <= self.hi))
        )


def _fan_in_sum(t, layer):
    """``t @ |W|``, the sum of ``t`` over each output's receptive field."""
    if isinstance(layer, QConv):
        channels = t.sum(axis=-1, keepdims=True)
        windows = conv_windows(channels, layer.kernel_h, layer.kernel_w)
        return windows.sum(axis=(-3, -2))
    return t.sum(axis=-1, keepdims=True)


def _on_grid(fan_in, *arrays):
    """True when every entry of ``arrays`` is a multiple of a power of two
    ``step`` with fan_in * max|entry| <= 2**51 * step; integer boxes and
    points of pixel size always are.  Every partial sum over a fan-in is
    then exact in float64, whatever the summation order.  For box bounds
    the centre/radius bounds are then the exact extremes; rounding is
    monotone, so they also hold the float forward of every real point in
    the box."""
    top = max(max(a.max(), -a.min()) for a in arrays)
    step = np.ldexp(1.0, int(np.frexp(top * fan_in)[1]) - 51)
    for a in arrays:
        q = a / step
        if not np.array_equal(q, np.rint(q)):
            return False
    return True


def _rounding_margin(mid, rad, layer, fan_in):
    """Slack that keeps off-grid bounds sound under float64 rounding.

    A sum of n terms in any order is off by at most gamma_n * sum|term|
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).
    That bounds the error of the centre, of the radius sum and of the
    forward of any point p in the box, where sum|p| <= sum(|mid| + rad).
    Together with the roundings of mid, rad and the endpoints this stays
    below 4 * gamma_(n+2) * sum(|mid| + rad).
    """
    n = fan_in + 2
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return 4.0 * gamma * _fan_in_sum(np.abs(mid) + rad, layer)


def _off_grid(fan_in, lo, hi, item_ndim):
    """Per item of the leading batch dims of ``lo`` and ``hi``, each item
    their trailing ``item_ndim`` axes: True where :func:`_on_grid` fails."""
    item = lo.shape[lo.ndim - item_ndim:]
    pairs = zip(lo.reshape((-1,) + item), hi.reshape((-1,) + item))
    off = [not _on_grid(fan_in, a, b) for a, b in pairs]
    return np.array(off).reshape(lo.shape[:lo.ndim - item_ndim] + (1,) * item_ndim)


def _linear_bounds(box, layer):
    lo, hi = box.lo, box.hi
    if layer.quantize_input:
        # sign is monotone, so quantizing both corners is exact; float32
        # +-1, and mid, rad and both sums below stay exact in float32
        lo = sign_quantize(lo)
        hi = sign_quantize(hi)
    mid = (lo + hi) * 0.5
    rad = (hi - lo) * 0.5
    centre = contract(mid, layer)
    spread = _fan_in_sum(rad, layer)
    fan_in = layer.weights.size // layer.weights.shape[-1]
    # after sign quantization the box is +-1, so always on the grid; off
    # it, each batch item is widened on its own, not for its siblings
    if not layer.quantize_input:
        off = _off_grid(fan_in, lo, hi, 3 if isinstance(layer, QConv) else 1)
        if off.any():
            margin = _rounding_margin(mid, rad, layer, fan_in)
            spread = np.where(off, spread + margin, spread)
    return IntervalTensor._frozen(centre - spread, centre + spread)


def _layer_bounds(box, layer, layer_index):
    if box.lo is box.hi:
        # a point: its one forward, with no radius and no rounding margin
        v = layer_forward(box.lo, layer, layer_index)
        return IntervalTensor._frozen(v, v)
    if isinstance(layer, (QConv, QDense)):
        return _linear_bounds(box, layer)
    # every other layer is monotone in each input; a negative batch-norm
    # gamma flips its interval, and min/max handles both slopes
    a = layer_forward(box.lo, layer, layer_index)
    b = layer_forward(box.hi, layer, layer_index)
    return IntervalTensor._frozen(np.minimum(a, b), np.maximum(a, b))


def _check_input(net, box):
    if box.shape[-3:] != net.input_shape:
        raise ShapeMismatchError(
            "box shape does not match network input",
            expected=net.input_shape,
            actual=box.shape,
        )


def ibp_trace(net, box):
    """Boxes before each layer plus the final logit box (len(layers)+1).

    ``box`` may carry leading batch dims in front of ``net.input_shape``;
    each item of the trace is then that item's own trace, bit for bit on
    the grid (off it a product may round apart with the batch's size).
    """
    _check_input(net, box)
    trace = [box]
    for i, layer in enumerate(net.layers):
        trace.append(_layer_bounds(trace[-1], layer, i))
    return trace


def ibp_propagate(net, box, base=None):
    """Sound logit bounds for every concrete input inside ``box``, with
    one exception: a point against a point trace.

    ``box`` may carry leading batch dims, as in :func:`ibp_trace`.
    ``base``, when given, is the :func:`ibp_trace` of one box of the
    network's input shape, with no batch dims.  Only the region of each
    image layer where some item's inputs differ from ``base``'s is then
    recomputed, and every vector layer from ``Flatten`` on recomputes in
    full; when the change dies out before ``Flatten`` for every item, the
    result is ``base[-1]`` itself, with no batch dims.  A point against a
    point trace is a delta forward, not an enclosure: on the integer grid
    it is ``network_forward`` bit for bit, but off it the first layer's
    sums over a slice may round apart from the full forward's, and the
    result carries no rounding margin.
    """
    if base is None:
        return ibp_trace(net, box)[-1]
    _check_input(net, box)
    if base[0].shape != box.shape[-3:]:
        raise ShapeMismatchError(
            "base trace is of another input shape",
            expected=box.shape[-3:],
            actual=base[0].shape,
        )
    patch = _changed(box.lo, box.hi, base[0], 0, 0)
    # image layers only up to the Flatten that every Network has
    for i, layer in enumerate(net.layers):
        if patch is None:
            return base[-1]
        if isinstance(layer, Flatten):
            break
        patch = _patch_bounds(base[i], base[i + 1], patch, layer, i)
    h, w = base[i].shape[:2]
    box = _written(base[i], slice(0, h), slice(0, w), patch)
    for j in range(i, len(net.layers)):
        box = _layer_bounds(box, net.layers[j], j)
    return box


def _changed(lo, hi, ref, r0, c0, signs=False):
    """The patch ``(r0, c0, lo, hi)``, image bounds with any leading batch
    dims placed at row ``r0`` and column ``c0`` of ``ref``, cropped to the
    rows and columns where some item differs from ``ref``, or with
    ``signs`` where the sign (``>= 0``) of one of its corners does; None
    when no item differs anywhere."""
    def differs(a, b):
        return (a >= 0) != (b >= 0) if signs else a != b

    h, w, c = lo.shape[-3:]
    rows, cols = slice(r0, r0 + h), slice(c0, c0 + w)
    diff = differs(lo, ref.lo[rows, cols])
    if not (lo is hi and ref.lo is ref.hi):
        diff |= differs(hi, ref.hi[rows, cols])
    # one (H, W*C) map for every item: columns come from the first and
    # last changed entry, with no reduction over the channel axis
    diff = diff.reshape(-1, h, w * c)
    diff = diff[0] if len(diff) == 1 else diff.any(axis=0)
    r = np.flatnonzero(diff.any(axis=1))
    if r.size == 0:
        return None
    e = np.flatnonzero(diff[r[0]:r[-1] + 1].any(axis=0))
    keep = (..., slice(r[0], r[-1] + 1), slice(e[0] // c, e[-1] // c + 1), slice(None))
    lo_kept = lo[keep]
    return r0 + r[0], c0 + e[0] // c, lo_kept, lo_kept if hi is lo else hi[keep]


def _reach(layer, axis, a0, a1, size):
    """Along image axis ``axis`` (0 rows, 1 columns) of an input of
    ``size``: the outputs ``[o0, o1)`` of ``layer`` that read inputs
    ``[a0, a1)``, empty when o0 >= o1, and the inputs ``[i0, i1)`` that
    those outputs read."""
    if isinstance(layer, QConv):
        k = (layer.kernel_h, layer.kernel_w)[axis]
        o0, o1 = max(a0 - k + 1, 0), min(a1, size - k + 1)
        return o0, o1, o0, o1 + k - 1
    if isinstance(layer, MaxPool):
        # an odd trailing row or column is dropped, as in the forward
        o0, o1 = a0 // 2, min(-(-a1 // 2), size // 2)
        return o0, o1, 2 * o0, 2 * o1
    return a0, a1, a0, a1  # BatchNorm


def _patch_bounds(ref_in, ref_out, patch, layer, layer_index):
    """Bounds of image ``layer`` on ``ref_in`` with ``patch`` written in,
    as a patch against the layer's reference output ``ref_out``; None when
    the output does not change."""
    if isinstance(layer, QConv) and layer.quantize_input:
        # the layer reads only the signs of both corners: what changes no
        # sign is cut off here, and a change that flips none has died out
        r0, c0, lo, hi = patch
        patch = _changed(lo, hi, ref_in, r0, c0, signs=True)
        if patch is None:
            return None
    r0, c0, lo, hi = patch
    (o_r0, o_r1, i_r0, i_r1), (o_c0, o_c1, i_c0, i_c1) = (
        _reach(layer, axis, a0, a0 + lo.shape[axis - 3], ref_in.shape[axis])
        for axis, a0 in ((0, r0), (1, c0))
    )
    if o_r0 >= o_r1 or o_c0 >= o_c1:
        return None  # the change sits only in a row or column the pool drops
    box = _written(ref_in, slice(i_r0, i_r1), slice(i_c0, i_c1), patch)
    out = _layer_bounds(box, layer, layer_index)
    return _changed(out.lo, out.hi, ref_out, o_r0, o_c0)


def _written(ref, rows, cols, patch):
    """The box ``ref[rows, cols]`` with ``patch``, which starts inside it,
    written in, with the patch's leading batch dims; a pool's input slice
    may end before the patch does."""
    r0, c0, lo, hi = patch
    n_r = min(lo.shape[-3], rows.stop - r0)
    n_c = min(lo.shape[-2], cols.stop - c0)
    inside = (..., slice(r0 - rows.start, r0 - rows.start + n_r),
              slice(c0 - cols.start, c0 - cols.start + n_c), slice(None))
    kept = (..., slice(n_r), slice(n_c), slice(None))

    def write(ref_bounds, bounds):
        part = ref_bounds[rows, cols]
        out = np.empty(bounds.shape[:-3] + part.shape)
        out[...] = part
        out[inside] = bounds[kept]
        return out

    box_lo = write(ref.lo, lo)
    if lo is hi and ref.lo is ref.hi:
        return IntervalTensor._frozen(box_lo, box_lo)
    return IntervalTensor._frozen(box_lo, write(ref.hi, hi))


def stable_phases(box):
    """The sign that ``box`` fixes at each entry, as int8 of the box's
    shape: +1 where ``lo >= 0``, -1 where ``hi < 0``, and 0 where the sign
    is free.  ``sign(0) = +1``, as in :func:`sign_quantize`."""
    phases = (box.lo >= 0).astype(np.int8)
    phases -= box.hi < 0
    return phases


def phase_forward(net, trace):
    """A batched forward, ``(N, H, W, C)`` images to ``(N, classes)``
    logits, for images inside the box that ``trace`` (an :func:`ibp_trace`)
    was made from.  None when the trace fixes no phase that it could skip.

    At the input of each quantizing layer, a boundary, the signs that the
    trace fixes (:func:`stable_phases`) are constants of every image, and
    only the free entries are computed:

    * a ``QDense`` that reads a boundary adds the +-1 rows of its free
      inputs to the float32 sum of its fixed ones, computed once;
    * a linear layer whose output reaches a boundary only through
      ``BatchNorm`` and ``Flatten`` computes only that boundary's free
      entries.  A quantized ``QConv`` gathers them from its float32
      product.  The unquantized ``QConv`` takes one window dot per free
      entry when :func:`_on_grid` shows that every sum of the batch is
      exact, and otherwise runs in full and gathers them;
    * every other layer, a layer behind a ``MaxPool`` for one, runs its
      ``layer_forward``.

    Every sum is then an exact integer or the full forward's own float64
    arithmetic, so the logits equal ``network_forward_batch``'s bit for
    bit.  There is something to skip when a boundary with a fixed phase
    is read by a ``QDense`` or reached by such a linear layer.
    """
    layers = net.layers
    phases, free = {}, {}
    for j, layer in enumerate(layers):
        if isinstance(layer, (QConv, QDense)) and layer.quantize_input:
            p = stable_phases(trace[j]).reshape(-1)
            if p.any():
                phases[j], free[j] = p, np.flatnonzero(p == 0)

    def reached(i):
        k = i + 1
        while k < len(layers) and isinstance(layers[k], (BatchNorm, Flatten)):
            k += 1
        return k if k in phases else None

    steps = []
    skips = False
    into = None  # the boundary whose free entries the batch holds
    for i, layer in enumerate(layers):
        if into is not None and i < into:  # a BatchNorm or Flatten on the way
            if isinstance(layer, BatchNorm):
                steps.append(_gathered_batch_norm(layer, free[into]))
            continue
        j = reached(i) if isinstance(layer, (QConv, QDense)) else None
        if j is None and into != i and not (i in phases and isinstance(layer, QDense)):
            steps.append(lambda t, layer=layer, i=i: layer_forward(t, layer, i))
        else:
            skips = True
            steps.append(_phase_linear(layer, i, trace[i].shape, phases.get(i),
                                       free.get(i), into == i, free.get(j)))
        into = j
    if not skips:
        return None

    def forward(images):
        t = np.asarray(images, dtype=np.float64)
        for step in steps:
            t = step(t)
        return t

    return forward


def _phase_linear(layer, i, shape_in, phases, free, gathered, free_out):
    """The phase forward's step for the ``QConv`` or ``QDense`` at ``i``.

    ``phases`` holds the fixed signs of the layer's flat input and
    ``free`` the indices of the others (both None when its input has no
    fixed sign), and ``gathered`` says that the batch holds only those
    free entries.  The step returns the entries ``free_out`` of the flat
    output, or all of it when ``free_out`` is None.
    """
    if not layer.quantize_input:  # so free_out is given
        if isinstance(layer, QConv):
            return _window_dots(layer, i, shape_in, free_out)
        return lambda t: _take(layer_forward(t, layer, i), free_out)
    if isinstance(layer, QDense):
        w = layer.weights if free_out is None else layer.weights[:, free_out]
        const = None
        if phases is not None:
            const = phases.astype(np.float32) @ w  # integer sums, exact
            w = w[free]

        def dense(t):
            if phases is not None and not gathered:
                t = _take(t, free)
            out = sign_quantize(t) @ w
            if const is not None:
                out += const
            return out.astype(np.float64)
        return dense

    def conv(t):
        if gathered:
            s = np.empty((len(t), phases.size), dtype=np.float32)
            s[:] = phases
            s[:, free] = sign_quantize(t)
            t = s.reshape((len(t),) + shape_in)
        else:
            t = sign_quantize(t)
        out = _product(t, layer)
        return (out if free_out is None else _take(out, free_out)).astype(np.float64)
    return conv


def _window_dots(layer, i, shape_in, free_out):
    """The unquantized ``QConv`` at ``i``, only at the flat output entries
    ``free_out``: one dot of its window with its weight column each."""
    kh, kw, c, out = layer.weights.shape
    w = shape_in[1]
    unit, channel = np.divmod(free_out, out)
    row, col = np.divmod(unit, w - kw + 1)
    # flat input index of each window entry, in the (kh, kw, C) weight order
    offsets = np.arange(kh)[:, None, None] * w + np.arange(kw)[:, None]
    offsets = (offsets * c + np.arange(c)).reshape(-1)
    reads = ((row * w + col) * c)[:, None] + offsets
    columns = layer.weights.reshape(-1, out)[:, channel].T.astype(np.float64)

    def dots(t):
        x = t.reshape(len(t), -1)
        if not _on_grid(columns.shape[1], x):
            return _take(layer_forward(t, layer, i), free_out)
        return np.einsum("nuk,uk->nu", np.take(x, reads, axis=1), columns)
    return dots


def _take(t, flat):
    """The entries ``flat`` of each image of the batch ``t``, flattened."""
    return np.take(t.reshape(len(t), -1), flat, axis=1)


def _gathered_batch_norm(layer, flat):
    """``layer_forward`` of the ``BatchNorm`` ``layer`` on only the flat
    entries ``flat`` of each image: a ``BatchNorm`` whose channels are
    theirs, which computes every entry as ``layer`` does."""
    c = flat % layer.channels
    gathered = BatchNorm(layer.gamma[c], layer.beta[c], layer.moving_mean[c],
                         layer.moving_variance[c], layer.eps)
    return lambda t: layer_forward(t, gathered)


def property_box(net, prop):
    """Input box of a robustness property, reshaped to the image layout."""
    check_property_shapes(net, prop)
    lo, hi = prop.bounds_arrays()
    return IntervalTensor(
        image_from_flat(lo, net.input_shape), image_from_flat(hi, net.input_shape)
    )


def verify_ibp(net, prop, deadline=None):
    """One-shot interval verification.

    Verified iff the target's lower bound strictly exceeds every rival's
    upper bound; ties are counterexamples under the >=-disjunction, so
    anything weaker stays Unknown.  An expired ``deadline`` (None: no
    limit) before the trace answers Timeout.
    """
    deadline = Deadline() if deadline is None else deadline
    box = property_box(net, prop)
    if deadline.expired():
        return deadline.verdict(TIMEOUT)
    out = ibp_propagate(net, box)
    proven = margin(out.hi, out.lo, prop.target_label) < 0
    return deadline.verdict(VERIFIED if proven else UNKNOWN, nodes=1)
