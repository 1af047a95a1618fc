"""
Robustness properties on disk and counterexamples that check out
=================================================================

A local-robustness query is an L-infinity ball around one image plus a
disjunction saying some rival logit reaches the target's.  The text
format is the SMT-LIB subset the verification competition uses; a
witness is just a concrete input inside the ball that satisfies the
disjunction.
"""

import numpy as np

from bnnverify.layers import Flatten, QDense
from bnnverify.network import Network
from bnnverify.vnnlib import (
    check_witness,
    generate_property,
    parse_property,
    property_filename,
    witness_from_flat,
)

# a pixel of value 24 with radius 10 gives bounds [14, 34]
image = np.full((30, 30, 3), 128.0)
image[29, 29, 2] = 24.0
text = generate_property(image, epsilon=10, label=38, num_outputs=43)

lines = text.splitlines()
target = [l for l in lines if "X_2699" in l]
print("bounds for flat index 2699:")
for line in target:
    print(f"  {line}")
print(f"file name: {property_filename(30, 0, 10)}")

prop = parse_property(text)
print(f"parsed back: {prop.num_inputs} inputs, target Y_{prop.target_label}")

# a witness must sit inside the ball AND flip (or tie) the argmax.
# this 4-pixel toy classifier loses its label one step away from the image
W = np.array([[1.0, 1.0, -1.0],
              [-1.0, 1.0, 1.0],
              [1.0, -1.0, 1.0],
              [-1.0, -1.0, 1.0]])
toy = Network(input_shape=(1, 4, 1),
              layers=(Flatten(), QDense(W, quantize_input=False)))
toy_prop = parse_property(
    generate_property(np.array([1.0, 1.0, 3.0, 3.0]).reshape(1, 4, 1),
                      epsilon=1, label=2, num_outputs=3)
)

good = witness_from_flat([2.0, 0.0, 2.0, 2.0])
outside = witness_from_flat([9.0, 0.0, 2.0, 2.0])
print(f"in-ball flip accepted:   {check_witness(toy, toy_prop, good)}")
print(f"out-of-ball rejected:    {check_witness(toy, toy_prop, outside)}")

# ties count: equality with the target logit already falsifies
tie_net = Network(input_shape=(1, 2, 1),
                  layers=(Flatten(), QDense(np.ones((2, 2)), False)))
tie_prop = parse_property(
    generate_property(np.ones((1, 2, 1)), epsilon=0, label=0, num_outputs=2)
)
print(f"exact tie falsifies:     "
      f"{check_witness(tie_net, tie_prop, witness_from_flat([1.0, 1.0]))}")
