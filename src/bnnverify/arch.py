"""Builders for the three benchmark architectures and for desk-scale test
networks.

The builders create placeholder weights (all +1) and identity batch-norm
statistics; :func:`with_random_weights` swaps in seeded random parameters.
The first layer never quantizes its input; every later binarized layer
does.
"""

import numpy as np

from .layers import (
    DEFAULT_BN_EPS,
    BatchNorm,
    Flatten,
    MaxPool,
    QConv,
    QDense,
    layer_forward,
    output_shape,
)
from .network import Network

__all__ = [
    "build_arch_a",
    "build_arch_b",
    "build_arch_xnor",
    "with_random_weights",
    "random_tiny_network",
]

GTSRB_CLASSES = 43


def _qconv(out_channels, kernel, in_channels, quantize_input):
    w = np.ones((kernel, kernel, in_channels, out_channels))
    return QConv(
        out_channels=out_channels,
        kernel_h=kernel,
        kernel_w=kernel,
        weights=w,
        quantize_input=quantize_input,
    )


def _qdense(out_features, in_features, quantize_input=True):
    return QDense(
        out_features=out_features,
        weights=np.ones((in_features, out_features)),
        quantize_input=quantize_input,
    )


def _bn(channels):
    return BatchNorm(
        gamma=np.ones(channels),
        beta=np.zeros(channels),
        moving_mean=np.zeros(channels),
        moving_variance=np.ones(channels),
        eps=DEFAULT_BN_EPS,
    )


def _flat_size(input_shape, body):
    """Length of the vector that ``Flatten`` makes after the image layers
    ``body`` on ``input_shape``."""
    shape = input_shape
    for layer in (*body, Flatten()):
        shape = output_shape(layer, shape)
    return shape[0]


def build_arch_a(h, w, num_classes=GTSRB_CLASSES):
    """Three conv blocks with pooling, a 1024-unit dense block, 43 logits.

    The benchmark uses 64x64 RGB inputs.
    """
    body = (
        _qconv(32, 5, 3, quantize_input=False),
        MaxPool(),
        _bn(32),
        _qconv(64, 5, 32, quantize_input=True),
        MaxPool(),
        _bn(64),
        _qconv(64, 3, 64, quantize_input=True),
        MaxPool(),
        _bn(64),
    )
    layers = body + (
        Flatten(),
        _qdense(1024, _flat_size((h, w, 3), body)),
        _bn(1024),
        _qdense(num_classes, 1024),
    )
    return Network(input_shape=(h, w, 3), layers=layers, num_classes=num_classes)


def build_arch_b(h, w, num_classes=GTSRB_CLASSES):
    """Like arch A but the third block keeps its spatial extent (no pool)
    and the dense block is 256 units wide.  The benchmark uses 48x48 inputs.
    """
    body = (
        _qconv(32, 5, 3, quantize_input=False),
        MaxPool(),
        _bn(32),
        _qconv(64, 5, 32, quantize_input=True),
        MaxPool(),
        _bn(64),
        _qconv(64, 3, 64, quantize_input=True),
        _bn(64),
    )
    layers = body + (
        Flatten(),
        _qdense(256, _flat_size((h, w, 3), body)),
        _bn(256),
        _qdense(num_classes, 256),
    )
    return Network(input_shape=(h, w, 3), layers=layers, num_classes=num_classes)


def build_arch_xnor(h, w, num_classes=GTSRB_CLASSES):
    """Purely binary stack: two convolutions straight into the output
    block, no pooling or normalization.  The benchmark uses 30x30 inputs.
    """
    body = (
        _qconv(16, 3, 3, quantize_input=False),
        _qconv(32, 2, 16, quantize_input=True),
    )
    layers = body + (
        Flatten(),
        _qdense(num_classes, _flat_size((h, w, 3), body), quantize_input=True),
    )
    return Network(input_shape=(h, w, 3), layers=layers, num_classes=num_classes)


def _calibrated_bn(rng, acts):
    """Random batch-norm stats centered on the observed activations so the
    following sign stays mixed instead of saturating."""
    channels = acts.shape[-1]
    flat = acts.reshape(-1, channels)
    mean = flat.mean(axis=0)
    std = np.maximum(flat.std(axis=0), 1e-3)
    gamma = rng.uniform(0.5, 1.5, channels)
    gamma[rng.random(channels) < 0.1] *= -1.0

    def f32(v):
        # keep stats exactly representable at interchange precision
        return np.asarray(v, dtype=np.float32).astype(np.float64)

    return BatchNorm(
        gamma=f32(gamma),
        beta=f32(rng.normal(0.0, 0.5, channels)),
        moving_mean=f32(mean + rng.normal(0.0, 0.3, channels) * std),
        moving_variance=f32((std * rng.uniform(0.7, 1.4, channels)) ** 2),
        eps=DEFAULT_BN_EPS,
    )


def with_random_weights(net, rng, pixel_max=255):
    """Copy of ``net`` with seeded random +-1 weights.

    Batch-norm statistics are calibrated against a few probe images drawn
    from the pixel range, keeping the binarized activations balanced.
    """
    probes = rng.integers(0, pixel_max + 1, size=(4,) + net.input_shape).astype(float)
    layers = []
    for layer in net.layers:
        if isinstance(layer, QConv):
            w = rng.choice([-1.0, 1.0], size=layer.weights.shape)
            layer = QConv(layer.out_channels, layer.kernel_h, layer.kernel_w, w,
                          layer.quantize_input)
        elif isinstance(layer, QDense):
            w = rng.choice([-1.0, 1.0], size=layer.weights.shape)
            layer = QDense(layer.out_features, w, layer.quantize_input)
        elif isinstance(layer, BatchNorm):
            layer = _calibrated_bn(rng, probes)
        layers.append(layer)
        probes = layer_forward(probes, layer)
    return Network(net.input_shape, tuple(layers), net.num_classes)


def random_tiny_network(rng, max_side=4, channels=1, num_classes=3, pixel_max=8):
    """Small random network for oracle suites: input at most
    ``max_side x max_side x channels``, at most two internal blocks with a
    random mix of conv/pool/norm, binarized output block.
    """
    h = int(rng.integers(2, max_side + 1))
    w = int(rng.integers(2, max_side + 1))
    shape = (h, w, channels)
    probes = rng.integers(0, pixel_max + 1, size=(16,) + shape).astype(float)
    layers = []
    quantize = False  # first linear layer sees raw pixels
    for _ in range(int(rng.integers(1, 3))):
        rows, cols, in_ch = probes.shape[1:]
        kernel = int(rng.integers(1, min(rows, cols, 2) + 1))
        out_ch = int(rng.integers(1, 3))
        w_conv = rng.choice([-1.0, 1.0], size=(kernel, kernel, in_ch, out_ch))
        conv = QConv(out_ch, kernel, kernel, w_conv, quantize)
        layers.append(conv)
        probes = layer_forward(probes, conv)
        quantize = True
        if probes.shape[1] >= 2 and probes.shape[2] >= 2 and rng.random() < 0.4:
            layers.append(MaxPool())
            probes = layer_forward(probes, layers[-1])
        if rng.random() < 0.6:
            layers.append(_calibrated_bn(rng, probes))
            probes = layer_forward(probes, layers[-1])
    layers.append(Flatten())
    flat = int(np.prod(probes.shape[1:]))
    w_out = rng.choice([-1.0, 1.0], size=(flat, num_classes))
    layers.append(QDense(num_classes, w_out, quantize_input=quantize))
    return Network(input_shape=shape, layers=tuple(layers), num_classes=num_classes)
