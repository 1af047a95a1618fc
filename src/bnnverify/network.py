"""Network container, exact inference, and parameter accounting."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError, ShapeMismatchError
from .layers import (
    BatchNorm,
    Flatten,
    Layer,
    MaxPool,
    QConv,
    QDense,
    layer_forward,
    output_shape,
)

__all__ = [
    "Network",
    "ParamCount",
    "BATCH_BYTES",
    "images_per_batch",
    "network_forward",
    "network_forward_batch",
    "predict",
    "margin",
    "count_params",
    "flatten_image",
    "image_from_flat",
]


@dataclass(frozen=True)
class Network:
    """An ordered layer chain from an (H, W, 3) image to class logits.

    Immutable after construction; shapes are validated eagerly so that a
    constructed network is always runnable.
    """

    input_shape: tuple
    layers: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3:
            raise InvalidModelError(f"input shape must be (H, W, C), got {self.input_shape}")
        if not self.layers:
            raise InvalidModelError("network has no layers")
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            shapes.append(output_shape(layer, shapes[-1], layer_index=i))
        final = self.layers[-1]
        if not isinstance(final, QDense):
            raise InvalidModelError(
                f"final layer must be QDense, got {type(final).__name__}"
            )
        if shapes[-1] != (self.num_classes,):
            raise InvalidModelError(
                f"network ends in shape {shapes[-1]}, expected ({self.num_classes},)"
            )
        object.__setattr__(self, "_shapes", tuple(shapes))

    def layer_shapes(self):
        """Activation shape before each layer plus the final output shape."""
        return self._shapes

    @property
    def num_inputs(self):
        h, w, c = self.input_shape
        return h * w * c


# Working-set budget of one batched forward.  Batches are sized from it
# rather than counted, so that one batch of a large network stays well
# inside the memory of a small machine.
BATCH_BYTES = 64 * 2**20


def images_per_batch(net):
    """Images per batched forward that keep its working set within
    :data:`BATCH_BYTES`, and at least 1.

    An image's working set is what is live, per image, at the layer where
    that peaks: the float64 batch, which the caller holds throughout, the
    layer's float64 input and output, and its temporaries, each at its
    real item size.  A ``QConv`` or ``QDense`` holds the
    float32 sign copy of a quantized input and the float32 product before
    its float64 cast, and a ``QConv`` its im2col matrix (one row of
    ``kh * kw * C`` window entries per output position) at the item size
    of what it reads.  A ``MaxPool`` holds two partial maxima and a
    ``BatchNorm`` its centred input, each of the output's size; a
    ``Flatten`` is a view.
    """
    shapes = net.layer_shapes()
    per_image = 0
    for i, (layer, shape_in, shape_out) in enumerate(zip(net.layers, shapes, shapes[1:])):
        if isinstance(layer, Flatten):
            continue  # a view of its input
        n_in, n_out = int(np.prod(shape_in)), int(np.prod(shape_out))
        live = 8 * (net.num_inputs + n_out + (n_in if i else 0))
        if isinstance(layer, (QConv, QDense)) and layer.quantize_input:
            live += 4 * (n_in + n_out)
        if isinstance(layer, QConv):
            fan_in = layer.kernel_h * layer.kernel_w * layer.in_channels
            item = 4 if layer.quantize_input else 8
            live += item * shape_out[0] * shape_out[1] * fan_in
        elif isinstance(layer, MaxPool):
            live += 16 * n_out
        elif isinstance(layer, BatchNorm):
            live += 8 * n_out
        per_image = max(per_image, live)
    return max(1, BATCH_BYTES // per_image)


def _check_image(net, image, batched):
    image = np.asarray(image, dtype=np.float64)
    want = net.input_shape
    got = image.shape[-3:] if batched else image.shape
    if got != want or (batched and image.ndim < 4):
        raise ShapeMismatchError("image shape mismatch", expected=want, actual=image.shape)
    return image


def _forward(net, t, outputs=None):
    for i, layer in enumerate(net.layers):
        t = layer_forward(t, layer, layer_index=i)
        if outputs is not None:
            outputs.append(t)
    return t


def network_forward(net, image, trace=False):
    """Run one image through the chain; returns the logits vector, or with
    ``trace`` the list of the float64 image and every layer's output."""
    image = _check_image(net, image, batched=False)
    if not trace:
        return _forward(net, image)
    outputs = [image]
    _forward(net, image, outputs)
    return outputs


def network_forward_batch(net, images):
    """Run a batch shaped (N, H, W, C); returns (N, num_classes) logits."""
    return _forward(net, _check_image(net, images, batched=True))


def predict(net, image):
    """Predicted label: argmax of the logits, ties broken by lowest index."""
    return int(np.argmax(network_forward(net, image)))


def margin(upper, lower, target):
    """Worst rival minus the target: max_{j != t} upper[..., j] - lower[..., t].

    The one definition of "the label is beaten".  For a point, pass the
    logits as both bounds: ``>= 0`` means beaten, ties included, as in the
    property's >= disjunction.  For interval bounds, ``< 0`` proves the
    box.  A network without rivals is never beaten (the margin is -inf).
    """
    rivals = np.delete(upper, target, axis=-1)
    return np.max(rivals, axis=-1, initial=-np.inf) - lower[..., target]


@dataclass(frozen=True)
class ParamCount:
    """Trainable-parameter tally: +-1 weights vs real batch-norm scales."""

    binary: int
    real: int

    @property
    def total(self):
        return self.binary + self.real


def count_params(net):
    """Count +-1 weights and real (gamma, beta) parameters.

    Moving statistics are not trainable and are excluded from the real
    count.
    """
    binary = 0
    real = 0
    for layer in net.layers:
        if isinstance(layer, QConv):
            kh, kw, cin, cout = layer.weights.shape
            binary += kh * kw * cin * cout
        elif isinstance(layer, QDense):
            fin, fout = layer.weights.shape
            binary += fin * fout
        elif isinstance(layer, BatchNorm):
            real += 2 * layer.channels
    return ParamCount(binary=binary, real=real)


def flatten_image(image):
    """Flatten (H, W, C) to the pixel-variable order (row*W + col)*C + ch."""
    return np.asarray(image, dtype=np.float64).reshape(-1)


def image_from_flat(values, shape):
    """Inverse of :func:`flatten_image` for a known image shape."""
    values = np.asarray(values, dtype=np.float64)
    h, w, c = shape
    if values.size != h * w * c:
        raise ShapeMismatchError(
            "flat pixel vector has wrong length", expected=h * w * c, actual=values.size
        )
    return values.reshape(h, w, c)
