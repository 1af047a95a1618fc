"""The package names that perfbench's traced run wraps.

``perfbench/run.py --trace 1`` replaces package attributes in place
(``traced.instrument``).  A refactor that drops or renames one of them
breaks only that traced run, so installing the hooks here, and running one
tiny CNF query and one tiny BaB query through them, keeps the surface
under tier-1.  A BaB that stops calling through those names would leave
the traced ``ibp.*`` metrics empty.
"""

import os
import sys

import numpy as np
import pytest

from bnnverify import verify
from bnnverify.arch import random_tiny_network
from bnnverify.network import network_forward
from bnnverify.vnnlib import make_property

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import harness
        import traced

        t = harness.Tracer()
        try:
            traced.instrument(t)  # every hooked attribute must exist
            yield t
        finally:
            t.unpatch()
    finally:
        sys.path.remove(PERFBENCH)


def test_cnf_query_records_the_traced_spans(tracer):
    rng = np.random.default_rng(3)
    net = random_tiny_network(rng, max_side=3)
    img = rng.integers(0, 9, size=net.input_shape).astype(float)
    label = int(np.argmax(network_forward(net, img)))
    prop = make_property(img, epsilon=1, label=label, num_outputs=net.num_classes)

    phases = verify.stable_phases_from_box(net, prop)
    formula, _ = verify.export_cnf(net, prop, phases)
    verify.dpll_satisfiable(formula)

    names = [span[0] for span in tracer.spans]
    assert {"ibp", "cnf.export", "cnf.dpll"} <= set(names)
    export = tracer.spans[names.index("cnf.export")]
    assert export[5]["clauses"] == len(formula.clauses)


def test_bab_query_records_ibp_and_forward_under_bab(tracer):
    rng = np.random.default_rng(35)  # verified after 15 nodes
    net = random_tiny_network(rng, max_side=3)
    img = rng.integers(0, 9, size=net.input_shape).astype(float)
    label = int(np.argmax(network_forward(net, img)))
    prop = make_property(img, epsilon=1, label=label, num_outputs=net.num_classes)

    v = verify.bab_verify(net, prop)
    assert (v.status, v.nodes) == ("verified", 15)

    names = [span[0] for span in tracer.spans]
    bab = names.index("bab")
    assert tracer.spans[bab][5]["nodes"] == 15
    under = [span[0] for span in tracer.spans if span[3] == bab]
    assert under.count("network.forward") == 1  # the first probe
    assert under.count("ibp") >= 7  # one per split, and the later probes


def test_hooks_are_removed_after_the_run(tracer):
    patched = verify.export_cnf
    tracer.unpatch()
    assert verify.export_cnf is not patched
    assert verify.export_cnf.__module__ == "bnnverify.verify.cnf"
