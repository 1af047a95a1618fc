"""
Finding counterexamples: random sampling and greedy pixel walks
===============================================================

The competition results were dominated by falsified answers, so the
attack side matters.  Both attacks only ever return witnesses that pass
the independent check; no witness means "unknown", never "verified".
"""

import numpy as np

from bnnverify.falsify import AttackConfig, falsify, greedy_attack, random_attack
from bnnverify.layers import Flatten, QDense
from bnnverify.network import Network
from bnnverify.vnnlib import check_witness, make_property

# the brittle 4-pixel toy: label 2 wins at the image but loses one
# integer step away
W = np.array([[1.0, 1.0, -1.0],
              [-1.0, 1.0, 1.0],
              [1.0, -1.0, 1.0],
              [-1.0, -1.0, 1.0]])
net = Network(input_shape=(1, 4, 1),
              layers=(Flatten(), QDense(W, quantize_input=False)))
image = np.array([1.0, 1.0, 3.0, 3.0]).reshape(1, 4, 1)
prop = make_property(image, epsilon=1, label=2, num_outputs=3)

w = random_attack(net, prop, AttackConfig(max_samples=5000, seed=7))
print(f"random attack witness: {w.input_values}")
print(f"passes the independent check: {check_witness(net, prop, w)}")

# same seed, same witness
w2 = random_attack(net, prop, AttackConfig(max_samples=5000, seed=7))
print(f"deterministic under the seed: {w.input_values == w2.input_values}")

# greedy walks one pixel at a time toward whichever bound extreme raises
# the runner-up margin most; the objective never decreases
vertex_w = np.array([[1.0, -1.0, -1.0]] * 6)
vertex_net = Network(input_shape=(1, 6, 1),
                     layers=(Flatten(), QDense(vertex_w, False)))
vertex_prop = make_property(np.ones((1, 6, 1)), epsilon=1, label=0,
                            num_outputs=3)
w3 = greedy_attack(vertex_net, vertex_prop, AttackConfig())
print(f"greedy reaches the falsifying vertex: {w3.input_values}")

# the engine wrapper speaks the competition vocabulary
verdict = falsify(net, prop, AttackConfig(seed=0))
print(f"engine verdict: {verdict.result_string()} "
      f"(status {verdict.status}, {verdict.seconds:.3f}s)")

# a robust point instance yields unknown, not a robustness claim
robust = make_property(image, epsilon=0, label=2, num_outputs=3)
print(f"nothing found at eps=0: "
      f"{falsify(net, robust, AttackConfig(max_samples=200)).result_string()}")
