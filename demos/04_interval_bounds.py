"""
Interval bound propagation
==========================

IBP pushes a box through the network layer by layer.  The output box is
sound: every input in the box lands inside it.  On a zero-width box it
degenerates to exact inference.
"""

import numpy as np

from bnnverify.arch import random_tiny_network
from bnnverify.network import network_forward, network_forward_batch
from bnnverify.verify import (
    IntervalTensor,
    ibp_propagate,
    verify_ibp,
)
from bnnverify.vnnlib import make_property
from bnnverify.verify import property_box

# a network and image whose bounds widen at every eps and whose own label
# wins strictly at the image, so the eps=0 box is proven
rng = np.random.default_rng(10)
net = random_tiny_network(rng, max_side=4)
image = rng.integers(0, 9, size=net.input_shape).astype(np.float64)

# point box: bounds collapse onto the exact logits
point = IntervalTensor(image, image)
out = ibp_propagate(net, point)
exact = network_forward(net, image)
print(f"point box is exact: {np.array_equal(out.lo, exact) and np.array_equal(out.hi, exact)}")

# widen the box and watch the output bounds widen too, never unsoundly
for eps in (1, 2, 4):
    box = IntervalTensor(image - eps, image + eps)
    out = ibp_propagate(net, box)
    samples = rng.uniform(box.lo, box.hi, size=(2000,) + net.input_shape)
    logits = network_forward_batch(net, samples)
    ok = np.all(logits >= out.lo) and np.all(logits <= out.hi)
    spread = float(np.max(out.hi - out.lo))
    print(f"eps={eps}: max logit spread {spread:.0f}, 2000 samples inside: {ok}")

# when the target's lower bound clears every rival's upper bound the
# instance is verified outright
prop = make_property(image, epsilon=0, label=int(np.argmax(exact)),
                     num_outputs=net.num_classes)
print(f"eps=0 verdict: {verify_ibp(net, prop).status}")
print(f"property_box shape: {property_box(net, prop).shape}")
