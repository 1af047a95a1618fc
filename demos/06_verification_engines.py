"""
Proving robustness: branch and bound, brute force, and CNF export
=================================================================

Three complete engines for desk-scale instances.  Brute force is the
ground truth (it refuses grids past its point budget rather than
guessing).  Branch and bound splits boxes best-first on IBP margins.
The CNF path encodes the binarized suffix as cardinality constraints
for any DIMACS-speaking SAT solver; a toy DPLL is included.
"""

import numpy as np

from bnnverify.arch import random_tiny_network
from bnnverify.network import predict
from bnnverify.vnnlib import make_property
from bnnverify.verify import (
    bab_verify,
    brute_force_verify,
    dpll_satisfiable,
    export_cnf,
    format_varmap,
    stable_phases_from_box,
)

rng = np.random.default_rng(42)

# the two complete engines agree instance by instance
agree = 0
for seed in range(12):
    net = random_tiny_network(np.random.default_rng(seed), max_side=3)
    img = np.random.default_rng(100 + seed).integers(
        0, 9, size=net.input_shape).astype(float)
    prop = make_property(img, epsilon=1, label=predict(net, img),
                         num_outputs=net.num_classes)
    ground = brute_force_verify(net, prop)
    answer = bab_verify(net, prop)
    agree += answer.status == ground.status
    print(f"seed {seed}: brute={ground.status:<9} bab={answer.status:<9} "
          f"nodes={answer.nodes}")
print(f"agreement: {agree}/12\n")

# budget refusal: a 4x4 grid at eps=1 is 3^16 = 43 million points
from bnnverify.errors import EnumerationBudgetError
from bnnverify.layers import Flatten, QDense
from bnnverify.network import Network

wide = Network(input_shape=(4, 4, 1),
               layers=(Flatten(),
                       QDense(rng.choice([-1.0, 1.0], size=(16, 3)), False)))
wide_prop = make_property(np.full((4, 4, 1), 4.0), epsilon=1, label=0,
                          num_outputs=3)
try:
    brute_force_verify(wide, wide_prop)
except EnumerationBudgetError as exc:
    print(f"refused honestly: {exc}\n")

# CNF: fix the input-stable phases from the box, free the rest, ask SAT
net = random_tiny_network(np.random.default_rng(3), max_side=3)
img = np.random.default_rng(9).integers(0, 9, size=net.input_shape).astype(float)
prop = make_property(img, epsilon=1, label=predict(net, img),
                     num_outputs=net.num_classes)
phases = stable_phases_from_box(net, prop)
free = sum(p is None for p in phases)
print(f"boundary phases: {len(phases)} total, {free} unstable in the box")
formula, names = export_cnf(net, prop, phases)
print(f"formula: {formula.num_vars} vars, {len(formula.clauses)} clauses")
print("first varmap lines:")
for line in format_varmap(formula, names).splitlines()[:4]:
    print(f"  {line}")
model = dpll_satisfiable(formula)
print(f"dpll: {'sat, phases admit a rival' if model else 'unsat over phase relaxation'}")
if model is None:
    print(f"cross-check, brute force says: {brute_force_verify(net, prop).status}")
