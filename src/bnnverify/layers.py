"""Layer types and exact forward semantics for binarized networks.

Activations are float64; each +-1 weight tensor is stored once, as a
read-only float32 array, where +-1 is exact.  Image activations are
channel-last ``(H, W, C)``; flattening therefore enumerates entries in
the order ``(row * W + col) * C + channel``, which is also the
pixel-variable order used by the property format.  The forward accepts
arbitrary leading batch dimensions in front of the documented trailing
shape.

:func:`layer_forward` is the one forward for every layer type, and
:func:`output_shape` the one statement of each layer's input contract:
the forward checks its input only by calling it.  Each layer's
constructor is the one check of its parameters, for a network built in
code and one read from a file alike: a layer's shapes are read off its
weights, and a batch norm without a finite slope is refused.

Conventions baked into the semantics:

* ``sign(0) = +1``
* convolutions use valid padding and stride 1, no bias
* max pooling is 2x2 with stride 2; an odd trailing row/column is dropped
* batch normalization runs in inference mode on the stored moving statistics

A layer that sign-quantizes its input multiplies +-1 by +-1, so every
partial sum is an integer no larger than the fan-in.  float32 holds such
sums exactly in any summation order up to ``2**24``, the largest fan-in
such a layer may have; :func:`contract` therefore runs it as one float32
matrix product, bit-identical to float64.  The unquantized first layer
multiplies float64 pixels and keeps float64 arithmetic.
"""

from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidModelError, ShapeMismatchError

__all__ = [
    "QConv",
    "MaxPool",
    "BatchNorm",
    "Flatten",
    "QDense",
    "Layer",
    "DEFAULT_BN_EPS",
    "sign_quantize",
    "conv_windows",
    "contract",
    "layer_forward",
    "output_shape",
]

# Training-framework default (1e-3), held at 32-bit float precision because
# that is how the interchange format stores it; model files may override.
DEFAULT_BN_EPS = float(np.float32(1e-3))

# Integers up to 2**24 are exact in float32, so a sum of at most this many
# +-1 products is too.
_MAX_QUANTIZED_FAN_IN = 2**24


def _frozen_array(values, dtype=np.float64):
    """A private read-only copy, so no caller's array is frozen or aliased."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def _binary_weights(w, what, fan_in, quantize_input):
    """The private float32 copy of checked +-1 weights ``w``.

    Both checks run on the values as given, before the cast: the fan-in
    from the shape alone, and +-1 on the source values, so that a float64
    ``1 + 2**-40`` is rejected rather than rounded to 1 by the cast.
    """
    if quantize_input and fan_in > _MAX_QUANTIZED_FAN_IN:
        raise InvalidModelError(
            f"{what} fan-in {fan_in} exceeds 2**24, beyond which float32 "
            "sums of +-1 products are not exact"
        )
    _check_signed_binary(w, what)
    return _frozen_array(w, np.float32)


def _check_signed_binary(w, what):
    # boolean masks only, and freed before the copy: a float |w| temporary
    # would double the bytes a model load touches
    ok = w == 1.0
    ok |= w == -1.0
    if not ok.all():
        raise InvalidModelError(
            f"{what} weights must be +1/-1; found value {w[~ok].flat[0]!r} "
            "outside {-1, +1}"
        )


def _fields_equal(self, other):
    """Equality by value of every field, arrays included; the ``__eq__``
    of each layer with array fields."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name))
        for f in fields(self)
    )


@dataclass(frozen=True)
class QConv:
    """Binarized convolution.

    ``weights`` has shape ``(kh, kw, in_channels, out_channels)`` with
    entries in {-1, +1}, stored as read-only float32; the kernel and
    channel counts are read off it.  When ``quantize_input`` is set the
    input is sign-quantized before the cross-correlation, and the fan-in
    ``kh * kw * in_channels`` may not exceed ``2**24``.
    """

    weights: np.ndarray
    quantize_input: bool

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 4:
            raise InvalidModelError(
                f"QConv weights shape {w.shape} is not (kh, kw, in, out)"
            )
        fan_in = w.shape[0] * w.shape[1] * w.shape[2]
        w = _binary_weights(w, "QConv", fan_in, self.quantize_input)
        object.__setattr__(self, "weights", w)

    @property
    def kernel_h(self):
        return self.weights.shape[0]

    @property
    def kernel_w(self):
        return self.weights.shape[1]

    @property
    def in_channels(self):
        return self.weights.shape[2]

    @property
    def out_channels(self):
        return self.weights.shape[3]

    __eq__ = _fields_equal


@dataclass(frozen=True)
class MaxPool:
    """2x2 max pooling with stride 2 (the only pooling the networks use)."""


@dataclass(frozen=True)
class BatchNorm:
    """Per-channel affine normalization using moving statistics.

    Every entry, ``eps`` and each channel's ``slope``, ``gamma /
    sqrt(moving_variance + eps)``, must be finite.  An infinite slope
    computes ``0 * inf = NaN`` at the mean, and a sign reads NaN as a
    phase that interval bounds call stable.  The slope is computed once,
    here, and the forward reads it.
    """

    gamma: np.ndarray
    beta: np.ndarray
    moving_mean: np.ndarray
    moving_variance: np.ndarray
    eps: float = DEFAULT_BN_EPS

    def __post_init__(self):
        vectors = {}
        for name in ("gamma", "beta", "moving_mean", "moving_variance"):
            v = _frozen_array(getattr(self, name))
            if v.ndim != 1:
                raise InvalidModelError(f"BatchNorm {name} must be a vector")
            vectors[name] = v
        lengths = {v.shape[0] for v in vectors.values()}
        if len(lengths) != 1:
            raise InvalidModelError(
                f"BatchNorm parameter vectors disagree on length: {sorted(lengths)}"
            )
        if np.any(vectors["moving_variance"] < 0):
            raise InvalidModelError("BatchNorm moving_variance has negative entries")
        if not np.isfinite(self.eps):
            raise InvalidModelError(f"epsilon {self.eps!r} is not finite")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = vectors["gamma"] / np.sqrt(vectors["moving_variance"] + self.eps)
        bad = ~np.isfinite([*vectors.values(), slope]).all(axis=0)
        if bad.any():
            raise InvalidModelError(
                f"channel {np.argmax(bad)} is not finite or has no finite "
                "slope gamma / sqrt(variance + epsilon)"
            )
        slope.flags.writeable = False
        for name, v in {**vectors, "slope": slope}.items():
            object.__setattr__(self, name, v)

    @property
    def channels(self):
        return self.gamma.shape[0]

    __eq__ = _fields_equal


@dataclass(frozen=True)
class Flatten:
    """Reshape (H, W, C) activations to a vector in row-major channel-last order."""


@dataclass(frozen=True)
class QDense:
    """Binarized dense layer.  ``weights`` has shape ``(in, out)``, entries
    in {-1, +1} stored as read-only float32; no bias.  A quantized-input
    layer may have at most ``2**24`` inputs."""

    weights: np.ndarray
    quantize_input: bool = field(default=True)

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 2:
            raise InvalidModelError(f"QDense weights shape {w.shape} is not (in, out)")
        w = _binary_weights(w, "QDense", w.shape[0], self.quantize_input)
        object.__setattr__(self, "weights", w)

    @property
    def in_features(self):
        return self.weights.shape[0]

    @property
    def out_features(self):
        return self.weights.shape[1]

    __eq__ = _fields_equal


Layer = QConv | MaxPool | BatchNorm | Flatten | QDense


def sign_quantize(t):
    """Binarize to float32 {-1, +1}; zero maps to +1."""
    # 2 * (t >= 0) - 1 in place: np.where with scalar branches is ~9x slower
    s = (np.asarray(t) >= 0).astype(np.float32)
    s *= 2.0
    s -= 1.0
    return s


def conv_windows(t, kh, kw):
    """Read-only view ``(..., H-kh+1, W-kw+1, kh, kw, C)`` of every
    ``kh x kw`` window of the ``(..., H, W, C)`` array ``t``, in the
    ``(kh, kw, C)`` order of ``weights.reshape(-1, out)``.

    The same windows as ``sliding_window_view`` followed by a
    ``moveaxis``, built as one strided view without their per-call
    argument handling, which dominates small convolutions.  The shape
    check guards the strides, which could otherwise reach past ``t``'s
    memory.
    """
    *lead, h, w, c = t.shape
    if h < kh or w < kw:
        raise ShapeMismatchError(
            "input smaller than window", expected=f">= {kh}x{kw}", actual=f"{h}x{w}"
        )
    *s_lead, s_h, s_w, s_c = t.strides
    return as_strided(
        t,
        shape=(*lead, h - kh + 1, w - kw + 1, kh, kw, c),
        strides=(*s_lead, s_h, s_w, s_h, s_w, s_c),
        writeable=False,
    )


def _pool_windows(t):
    """The four stride-2 slices that a 2x2 max pool compares, over the
    trailing ``(H, W, C)`` axes of ``t``, in (0,0), (0,1), (1,0), (1,1)
    order; an odd trailing row or column is dropped."""
    h, w = t.shape[-3:-1]
    t = t[..., : h - h % 2, : w - w % 2, :]
    return (t[..., 0::2, 0::2, :], t[..., 0::2, 1::2, :],
            t[..., 1::2, 0::2, :], t[..., 1::2, 1::2, :])


def contract(t, layer):
    """Apply the +-1 weights of a QConv or QDense to ``t``, unquantized;
    returns float64.

    A convolution becomes one matrix product over its im2col matrix, whose
    rows are the :func:`conv_windows` of ``t``.  float32 ``t`` (the +-1
    output of :func:`sign_quantize`) gives a float32 product, exact up to
    the ``2**24`` fan-in limit; float64 ``t`` promotes the weights and
    keeps float64 arithmetic.
    """
    return _product(t, layer).astype(np.float64, copy=False)


def _product(t, layer):
    """The product of :func:`contract` before its float64 cast: float32
    for float32 ``t``."""
    w = layer.weights
    if isinstance(layer, QConv):
        kh, kw, c, out = w.shape
        # the reshape copies the windows into the im2col matrix
        windows = conv_windows(t, kh, kw)
        t = windows.reshape(windows.shape[:-3] + (kh * kw * c,))
        w = w.reshape(-1, out)
    lead = t.shape[:-1]
    product = t.reshape(-1, t.shape[-1]) @ w
    return product.reshape(lead + (w.shape[1],))


def layer_forward(t, layer, layer_index=None):
    """Exact forward of ``layer`` on ``t``.  :func:`output_shape` checks
    the trailing dims: (H, W, C), or the last axis for ``BatchNorm`` and
    ``QDense``."""
    t = np.asarray(t, dtype=np.float64)
    k = 1 if isinstance(layer, (BatchNorm, QDense)) else 3
    output_shape(layer, t.shape[-k:], layer_index)
    if isinstance(layer, (QConv, QDense)):
        return contract(sign_quantize(t) if layer.quantize_input else t, layer)
    if isinstance(layer, MaxPool):
        a, b, c, d = _pool_windows(t)
        return np.maximum(np.maximum(a, b), np.maximum(c, d))
    if isinstance(layer, BatchNorm):
        # gamma * (x - mean) / sqrt(var + eps) + beta, per trailing channel
        return layer.slope * (t - layer.moving_mean) + layer.beta
    # Flatten; the explicit size keeps an empty batch reshapable
    h, w, c = t.shape[-3:]
    return t.reshape(t.shape[:-3] + (h * w * c,))


def output_shape(layer, in_shape, layer_index=None):
    """Shape produced by ``layer`` on an input of shape ``in_shape``
    (trailing dims only, no batch); raises ShapeMismatchError when the
    input breaks the layer's contract and TypeError for an unknown layer."""
    if isinstance(layer, QConv):
        if len(in_shape) != 3:
            raise ShapeMismatchError(
                "QConv expects an image input",
                layer_index=layer_index, expected="(H, W, C)", actual=in_shape,
            )
        h, w, c = in_shape
        if c != layer.in_channels:
            raise ShapeMismatchError(
                "QConv channel mismatch",
                layer_index=layer_index, expected=layer.in_channels, actual=c,
            )
        if h < layer.kernel_h or w < layer.kernel_w:
            raise ShapeMismatchError(
                "QConv input smaller than kernel",
                layer_index=layer_index,
                expected=f">= {layer.kernel_h}x{layer.kernel_w}",
                actual=f"{h}x{w}",
            )
        return (h - layer.kernel_h + 1, w - layer.kernel_w + 1, layer.out_channels)
    if isinstance(layer, MaxPool):
        if len(in_shape) != 3 or in_shape[0] < 2 or in_shape[1] < 2:
            raise ShapeMismatchError(
                "MaxPool input needs spatial dims >= 2",
                layer_index=layer_index, expected="(H>=2, W>=2, C)", actual=in_shape,
            )
        return (in_shape[0] // 2, in_shape[1] // 2, in_shape[2])
    if isinstance(layer, BatchNorm):
        if tuple(in_shape[-1:]) != (layer.channels,):
            raise ShapeMismatchError(
                "BatchNorm channel mismatch",
                layer_index=layer_index, expected=layer.channels, actual=in_shape[-1:],
            )
        return tuple(in_shape)
    if isinstance(layer, Flatten):
        if len(in_shape) != 3:
            raise ShapeMismatchError(
                "Flatten expects an image input",
                layer_index=layer_index, expected="(H, W, C)", actual=in_shape,
            )
        return (in_shape[0] * in_shape[1] * in_shape[2],)
    if isinstance(layer, QDense):
        if len(in_shape) != 1 or in_shape[0] != layer.in_features:
            raise ShapeMismatchError(
                "QDense input length mismatch",
                layer_index=layer_index, expected=(layer.in_features,), actual=in_shape,
            )
        return (layer.out_features,)
    raise TypeError(f"unknown layer type {type(layer).__name__}")
