"""A seeded set of ``export_cnf`` formulas, for byte-identity checks.

Each case is a network, a robustness property and a phase vector; its
text is the formula's DIMACS followed by its varmap.  The cases are tiny
random networks (``random_tiny_network``) and hand-built blocks: a raw
conv, a quantizing conv, then a pool and a batch norm in either order (or
one of them alone), with negative and zero gamma, saturated channels and
some ``eps=0`` layers.  Every network is taken under all-free, half-pinned
and fully pinned phases.

Run as a script to print the sha256 of the full set (2,400 formulas):

    PYTHONPATH=src python tests/cnf_formula_set.py
"""

import hashlib

import numpy as np

from bnnverify.arch import random_tiny_network
from bnnverify.layers import BatchNorm, Flatten, MaxPool, QConv, QDense, \
    layer_forward, sign_quantize
from bnnverify.network import Network, network_forward
from bnnverify.verify import export_cnf, format_varmap
from bnnverify.verify.cnf import first_quantize_index
from bnnverify.vnnlib import make_property


def prefix_phases(net, image):
    """Signs of the pre-boundary activations for one concrete image."""
    t = np.asarray(image, dtype=np.float64)
    for i in range(first_quantize_index(net)):
        t = layer_forward(t, net.layers[i], i)
    return [int(v) for v in sign_quantize(t).reshape(-1)]


def hand_built_network(rng):
    """Raw conv, quantizing conv, then a pool/batch-norm block."""
    side = int(rng.integers(3, 6))
    c0, c1 = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    k0 = int(rng.integers(1, 3))
    layers = [QConv(rng.choice([-1.0, 1.0], size=(k0, k0, 1, c0)),
                    quantize_input=False),
              QConv(rng.choice([-1.0, 1.0], size=(1, 1, c0, c1)),
                    quantize_input=True)]
    gamma = rng.normal(0, 2, c1)
    gamma[rng.random(c1) < 0.2] = 0.0
    variance = np.abs(rng.normal(0, 2, c1))
    eps = 0.0 if rng.random() < 0.3 else float(np.float32(1e-3))
    if eps == 0.0:
        rng.random(c1)  # unused; keeps the later draws of the stream in place
    beta = rng.normal(0, 2, c1)
    beta[rng.random(c1) < 0.2] *= 50.0  # a channel that passes everywhere or nowhere
    bn = BatchNorm(gamma=gamma, beta=beta, moving_mean=rng.normal(0, 1.5, c1),
                   moving_variance=variance, eps=eps)
    block = [[MaxPool(), bn], [bn, MaxPool()], [bn], [MaxPool()]][int(rng.integers(4))]
    layers += block
    rows = side - k0 + 1
    rows = rows // 2 if any(isinstance(layer, MaxPool) for layer in block) else rows
    layers += [Flatten(), QDense(rng.choice([-1.0, 1.0], size=(rows * rows * c1, 3)))]
    return Network(input_shape=(side, side, 1), layers=tuple(layers))


def cases(seeds, sides, hand_built):
    """(net, prop, phases) for every tiny net of ``seeds`` x ``sides`` and
    ``hand_built`` hand-built blocks, each under three phase vectors."""
    nets = [(seed, random_tiny_network(np.random.default_rng(seed), max_side=side))
            for seed in seeds for side in sides]
    nets += [(10_000 + k, hand_built_network(np.random.default_rng(10_000 + k)))
             for k in range(hand_built)]
    for seed, net in nets:
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        label = int(np.argmax(network_forward(net, img)))
        prop = make_property(img, epsilon=1, label=label, num_outputs=net.num_classes)
        pinned = prefix_phases(net, img)
        half = [p if keep else None for p, keep in zip(pinned, rng.random(len(pinned)) < 0.5)]
        for phases in ([None] * len(pinned), half, pinned):
            yield net, prop, phases


def formula_text(net, prop, phases):
    formula, names = export_cnf(net, prop, phases)
    return formula.to_dimacs() + format_varmap(formula, names)


def digest(seeds, sides, hand_built):
    """sha256 of every case's text, in order, and the number of cases."""
    h = hashlib.sha256()
    count = 0
    for case in cases(seeds, sides, hand_built):
        h.update(formula_text(*case).encode("ascii"))
        count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    sha, count = digest(range(1, 301), (3, 4), 200)
    print(f"{count} formulas sha256 {sha}")
