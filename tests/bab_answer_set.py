"""A seeded set of ``bab_verify`` queries, for answer-identity checks.

Each query's answer is ``(status, nodes, witness)``, with the witness as
its input and output values.  The queries are tiny random networks
(``random_tiny_network``), each with an eps=1 patch on two inputs
(uncapped, so the answer is final) and the full eps=1 box under a node
cap on the integer grid and off it, plus capped full boxes on small
builds of arch A, B and XNOR.  Any change to BaB's node order, split
rule, probe centres or counting shows in the digest.

Run as a script to print the sha256 of the full set (3,024 queries):

    PYTHONPATH=src python tests/bab_answer_set.py
"""

import hashlib

import numpy as np

from bnnverify.arch import build_arch_a, build_arch_b, build_arch_xnor, \
    random_tiny_network, with_random_weights
from bnnverify.network import network_forward
from bnnverify.verify import bab_verify
from bnnverify.vnnlib import RobustnessProperty, make_property

TINY_CAP = 40  # nodes for a tiny network's full box
ARCH_CAP = 12  # nodes for an arch's full box
ARCHS = ((build_arch_a, 28), (build_arch_b, 24), (build_arch_xnor, 12))


def patch_property(image, pixels, label, num_outputs):
    """eps=1 on the given flat entries of ``image``, a point elsewhere."""
    lo = image.reshape(-1).copy()
    hi = lo.copy()
    lo[pixels] -= 1.0
    hi[pixels] += 1.0
    return RobustnessProperty(lo.size, num_outputs, np.column_stack((lo, hi)), label)


def queries(tiny_seeds, arch_images):
    """(net, prop, max_nodes, integer_grid) for three queries on each tiny
    network of ``tiny_seeds`` and ``arch_images`` full boxes per arch."""
    for seed in tiny_seeds:
        rng = np.random.default_rng(seed)
        net = random_tiny_network(rng, max_side=int(rng.integers(2, 6)),
                                  channels=int(rng.integers(1, 3)))
        image = rng.integers(0, 9, size=net.input_shape).astype(np.float64)
        label = int(np.argmax(network_forward(net, image)))
        pixels = rng.choice(net.num_inputs, size=min(2, net.num_inputs), replace=False)
        full = make_property(image, 1, label, num_outputs=net.num_classes)
        yield net, patch_property(image, pixels, label, net.num_classes), None, True
        yield net, full, TINY_CAP, True
        yield net, full, TINY_CAP, False
    rng = np.random.default_rng(0)
    for build, side in ARCHS:
        net = with_random_weights(build(side, side, num_classes=10), rng)
        for _ in range(arch_images):
            image = rng.integers(0, 256, size=net.input_shape).astype(np.float64)
            label = int(np.argmax(network_forward(net, image)))
            prop = make_property(image, 1, label, num_outputs=net.num_classes)
            yield net, prop, ARCH_CAP, True


def answer(net, prop, max_nodes, integer_grid):
    v = bab_verify(net, prop, max_nodes=max_nodes, integer_grid=integer_grid)
    w = None if v.witness is None else (v.witness.input_values, v.witness.output_values)
    return v.status, v.nodes, w


def digest(tiny_seeds, arch_images):
    """sha256 of every query's answer, in order, and the number of queries."""
    h = hashlib.sha256()
    count = 0
    for query in queries(tiny_seeds, arch_images):
        h.update(repr(answer(*query)).encode("ascii"))
        count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    sha, count = digest(range(1, 1001), 8)
    print(f"{count} queries sha256 {sha}")
