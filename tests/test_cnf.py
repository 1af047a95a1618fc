"""CNF export, sequential counters, and the toy DPLL, all oracle-checked."""

import itertools
import re

import numpy as np
import pytest

from bnnverify.arch import random_tiny_network
from bnnverify.errors import EncodingError, ShapeMismatchError
from bnnverify.layers import (
    BatchNorm,
    Flatten,
    MaxPool,
    QConv,
    QDense,
    layer_forward,
    sign_quantize,
)
from bnnverify.network import Network, network_forward
from bnnverify.vnnlib import make_property
from bnnverify.verify import (
    CnfBuilder,
    CnfFormula,
    brute_force_verify,
    dpll_satisfiable,
    export_cnf,
    format_varmap,
    ibp_trace,
    property_box,
    stable_phases_from_box,
)
from bnnverify.verify.cnf import (
    binary_suffix_forward,
    counter_geq,
    first_quantize_index,
    require_geq,
)


def exhaustive_sat(formula):
    """Independent satisfiability oracle: try all assignments."""
    for bits in itertools.product([False, True], repeat=formula.num_vars):
        assign = {v: bits[v - 1] for v in range(1, formula.num_vars + 1)}
        if all(
            any(assign[abs(lit)] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            return assign
    return None


def satisfies(formula, model):
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in formula.clauses
    )


def suffix_violations_exist(net, prop, phases):
    """Enumerate free phases; True when some completion beats the target."""
    t = prop.target_label
    free = [i for i, p in enumerate(phases) if p is None]
    base = np.array([0.0 if p is None else float(p) for p in phases])
    for bits in itertools.product((-1.0, 1.0), repeat=len(free)):
        vec = base.copy()
        vec[free] = bits
        logits = binary_suffix_forward(net, vec)
        if np.any(np.delete(logits, t) >= logits[t]):
            return True
    return False


class TestCounterEncoding:
    def test_at_least_one_is_a_plain_clause(self):
        b = CnfBuilder()
        x = b.new_var()
        y = b.new_var()
        require_geq(b, [x, y], 1)
        assert b.clauses[-1] == (x, y)

    def test_counter_matches_counting_exhaustively(self):
        # every n <= 6, every k, every input assignment, both polarities
        for n in range(1, 7):
            for k in range(0, n + 2):
                b = CnfBuilder()
                xs = [b.new_var() for _ in range(n)]
                result = counter_geq(b, xs, k)
                formula = b.build()
                for bits in itertools.product([False, True], repeat=n):
                    units = [x if bit else -x for x, bit in zip(xs, bits)]
                    want = sum(bits) >= k
                    sat_pos = dpll_satisfiable(formula, assumptions=units + [result])
                    sat_neg = dpll_satisfiable(formula, assumptions=units + [-result])
                    assert (sat_pos is not None) == want
                    assert (sat_neg is not None) == (not want)

    def test_aux_variable_count_is_n_times_k(self):
        for n, k in [(2, 1), (4, 2), (5, 5), (6, 3)]:
            b = CnfBuilder()
            xs = [b.new_var() for _ in range(n)]
            b.true_lit()
            before = b.num_vars
            counter_geq(b, xs, k)
            assert b.num_vars - before == n * k

    def test_out_of_range_k_is_constant(self):
        b = CnfBuilder()
        xs = [b.new_var() for _ in range(3)]
        t = b.true_lit()
        assert counter_geq(b, xs, 0) == t
        assert counter_geq(b, xs, -2) == t
        assert counter_geq(b, xs, 4) == -t


class TestCnfFormula:
    def test_rejects_literal_zero(self):
        with pytest.raises(ValueError, match="literal 0"):
            CnfFormula(2, ((1, 0),))

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError, match="exceeds"):
            CnfFormula(2, ((3,),))

    @pytest.mark.parametrize("clauses, message", [
        (((1, 0),), "literal 0 is the DIMACS terminator, not a literal"),
        (((1, -2), (3,)), "literal 3 exceeds num_vars=2"),
        (((-3, 0),), "literal -3 exceeds num_vars=2"),  # the first offender
        (((0, 3),), "literal 0 is the DIMACS terminator, not a literal"),
        (((np.int64(2), 1.0), (-5,)), "literal -5 exceeds num_vars=2"),
    ])
    def test_rejection_messages(self, clauses, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CnfFormula(2, clauses)

    def test_literals_converted_to_int(self):
        f = CnfFormula(3, ((np.int64(1), -2.0), [3], ()))
        assert f.clauses == ((1, -2), (3,), ())
        assert all(type(lit) is int for c in f.clauses for lit in c)

    def test_builder_rejects_literal_zero(self):
        with pytest.raises(ValueError, match="^clause may not contain literal 0$"):
            CnfBuilder().add([1, np.int64(0)])

    def test_builder_checks_literals_at_build(self):
        b = CnfBuilder()
        x = b.new_var()
        b.add([np.int64(x), -x])
        b.add([-2, x])  # variable 2 is never allocated
        with pytest.raises(ValueError, match="^literal -2 exceeds num_vars=1$"):
            b.build()
        b.new_var()
        f = b.build()
        assert f == CnfFormula(2, ((1, -1), (-2, 1)))
        assert all(type(lit) is int for c in f.clauses for lit in c)

    def test_empty_clause_is_allowed_and_unsat(self):
        f = CnfFormula(1, ((), (1,)))
        assert dpll_satisfiable(f) is None

    def test_dimacs_layout(self):
        f = CnfFormula(3, ((1, -2), (3,), ()))
        text = f.to_dimacs()
        lines = text.splitlines()
        assert lines[0] == "p cnf 3 3"
        assert lines[1] == "1 -2 0"
        assert lines[2] == "3 0"
        assert lines[3] == "0"
        assert text.endswith("\n")


class TestDpll:
    def test_simple_sat_and_unsat(self):
        f = CnfFormula(2, ((1, 2), (-1, 2), (1, -2)))
        model = dpll_satisfiable(f)
        assert model is not None and satisfies(f, model)
        g = CnfFormula(1, ((1,), (-1,)))
        assert dpll_satisfiable(g) is None

    def test_matches_exhaustive_oracle_on_random_formulas(self):
        rng = np.random.default_rng(11)
        agreements = {True: 0, False: 0}
        for _ in range(120):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, 4 * n))
            clauses = []
            for _ in range(m):
                width = int(rng.integers(1, min(4, n + 1)))
                lits = rng.choice(np.arange(1, n + 1), size=width, replace=False)
                signs = rng.choice([-1, 1], size=width)
                clauses.append(tuple(int(l * s) for l, s in zip(lits, signs)))
            f = CnfFormula(n, tuple(clauses))
            model = dpll_satisfiable(f)
            want = exhaustive_sat(f)
            assert (model is None) == (want is None)
            if model is not None:
                assert satisfies(f, model)
            agreements[model is not None] += 1
        assert agreements[True] > 10
        assert agreements[False] > 10

    def test_assumptions(self):
        f = CnfFormula(2, ((1, 2),))
        assert dpll_satisfiable(f, assumptions=[-1, -2]) is None
        model = dpll_satisfiable(f, assumptions=[-1])
        assert model is not None and model[2] is True
        with pytest.raises(ValueError):
            dpll_satisfiable(f, assumptions=[0])
        with pytest.raises(ValueError):
            dpll_satisfiable(f, assumptions=[9])


def prefix_phases(net, image):
    """Signs of the pre-boundary activations for one concrete image."""
    q = first_quantize_index(net)
    t = np.asarray(image, dtype=np.float64)
    for i in range(q):
        t = layer_forward(t, net.layers[i], i)
    return [int(v) for v in sign_quantize(t).reshape(-1)]


class TestExportCnf:
    def tiny_case(self, seed, max_side=3):
        rng = np.random.default_rng(seed)
        net = random_tiny_network(rng, max_side=max_side)
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        label = int(np.argmax(network_forward(net, img)))
        prop = make_property(img, epsilon=1, label=label, num_outputs=net.num_classes)
        return rng, net, img, prop

    def test_satisfiability_matches_phase_enumeration(self):
        outcomes = {True: 0, False: 0}
        cases = 0
        seed = 0
        while cases < 30:
            seed += 1
            rng, net, img, prop = self.tiny_case(seed)
            n = int(np.prod(net.layer_shapes()[first_quantize_index(net)]))
            if n > 12:
                continue
            # free some phases, pin the rest to the honest prefix signs
            pinned = prefix_phases(net, img)
            mask = rng.random(n) < 0.5
            phases = [p if m else None for p, m in zip(pinned, mask)]
            formula, _ = export_cnf(net, prop, phases)
            got = dpll_satisfiable(formula) is not None
            want = suffix_violations_exist(net, prop, phases)
            assert got == want, f"seed {seed}"
            outcomes[got] += 1
            cases += 1
        assert outcomes[True] > 0
        assert outcomes[False] > 0

    def test_fully_fixed_phases_mirror_concrete_forward(self):
        for seed in (3, 9, 21, 40):
            _, net, img, prop = self.tiny_case(seed)
            phases = prefix_phases(net, img)
            formula, _ = export_cnf(net, prop, phases)
            logits = binary_suffix_forward(net, np.array(phases, dtype=float))
            t = prop.target_label
            want = bool(np.any(np.delete(logits, t) >= logits[t]))
            assert (dpll_satisfiable(formula) is not None) == want

    def test_negative_gamma_pooling_becomes_and(self):
        # hand-built block: conv, quantizing conv, maxpool, then a batch
        # norm with one negative channel; the fold must AND that channel's
        # window and OR the positive one
        rng = np.random.default_rng(77)
        w0 = rng.choice([-1.0, 1.0], size=(2, 2, 1, 2))
        w1 = rng.choice([-1.0, 1.0], size=(1, 1, 2, 2))
        wd = rng.choice([-1.0, 1.0], size=(8, 3))
        bn = BatchNorm(
            gamma=np.array([-1.3, 0.8]),
            beta=np.array([0.4, -0.2]),
            moving_mean=np.array([0.5, -1.0]),
            moving_variance=np.array([1.2, 0.7]),
            eps=float(np.float32(1e-3)),
        )
        net = Network(
            input_shape=(5, 5, 1),
            layers=(
                QConv(2, 2, 2, w0, quantize_input=False),
                QConv(2, 1, 1, w1, quantize_input=True),
                MaxPool(),
                bn,
                Flatten(),
                QDense(3, wd, quantize_input=True),
            ),
            num_classes=3,
        )
        img = rng.integers(0, 9, size=(5, 5, 1)).astype(float)
        label = int(np.argmax(network_forward(net, img)))
        prop = make_property(img, epsilon=1, label=label, num_outputs=3)
        pinned = prefix_phases(net, img)  # 32 boundary units
        free = list(rng.choice(32, size=6, replace=False))
        phases = [None if i in free else pinned[i] for i in range(32)]
        formula, _ = export_cnf(net, prop, phases)
        got = dpll_satisfiable(formula) is not None
        want = suffix_violations_exist(net, prop, phases)
        assert got == want

    def test_export_is_deterministic(self):
        _, net, img, prop = self.tiny_case(5)
        n = int(np.prod(net.layer_shapes()[first_quantize_index(net)]))
        phases = [None] * n
        f1, names1 = export_cnf(net, prop, phases)
        f2, names2 = export_cnf(net, prop, phases)
        assert f1 == f2
        assert names1 == names2

    def test_varmap_covers_every_variable(self):
        _, net, img, prop = self.tiny_case(5)
        n = int(np.prod(net.layer_shapes()[first_quantize_index(net)]))
        formula, names = export_cnf(net, prop, [None] * n)
        text = format_varmap(formula, names)
        lines = text.splitlines()
        assert len(lines) == formula.num_vars
        assert lines[0] == "1 const-true"
        assert any("phase" in line for line in lines)
        assert any("rival" in line for line in lines)
        assert any(line.endswith(" aux") for line in lines)

    def test_unfixed_phases_rejected(self):
        _, net, img, prop = self.tiny_case(5)
        with pytest.raises(EncodingError, match="unfixed"):
            export_cnf(net, prop, None)

    def test_wrong_phase_count_rejected(self):
        _, net, img, prop = self.tiny_case(5)
        with pytest.raises(EncodingError, match="phase entries"):
            export_cnf(net, prop, [1, -1])

    def test_non_sign_phase_rejected(self):
        _, net, img, prop = self.tiny_case(5)
        n = int(np.prod(net.layer_shapes()[first_quantize_index(net)]))
        phases = [None] * n
        phases[0] = 0.5
        with pytest.raises(EncodingError, match="must be \\+-1"):
            export_cnf(net, prop, phases)

    def test_network_without_boundary_rejected(self):
        net = Network(
            input_shape=(1, 2, 1),
            layers=(Flatten(), QDense(2, np.ones((2, 2)), quantize_input=False)),
            num_classes=2,
        )
        prop = make_property(np.zeros((1, 2, 1)), epsilon=0, label=0, num_outputs=2)
        with pytest.raises(EncodingError, match="binarization boundary"):
            export_cnf(net, prop, [1, 1])

    def test_real_valued_suffix_rejected(self):
        # quantizing conv followed by a dense over raw integer sums
        rng = np.random.default_rng(3)
        net = Network(
            input_shape=(2, 2, 1),
            layers=(
                QConv(2, 1, 1, rng.choice([-1.0, 1.0], size=(1, 1, 1, 2)), False),
                QConv(2, 1, 1, rng.choice([-1.0, 1.0], size=(1, 1, 2, 2)), True),
                Flatten(),
                QDense(2, rng.choice([-1.0, 1.0], size=(8, 2)), quantize_input=False),
            ),
            num_classes=2,
        )
        prop = make_property(np.zeros((2, 2, 1)), epsilon=0, label=0, num_outputs=2)
        with pytest.raises(EncodingError, match="real values"):
            export_cnf(net, prop, [1] * 8)


    @pytest.mark.parametrize("block,message", [
        (("bn", "bn"), "two batch-norm layers in one block are not foldable"),
        (("pool", "bn", "pool"), "batch-norm sandwiched between poolings is not foldable"),
    ], ids=["two-batch-norms", "batch-norm-between-pools"])
    def test_unfoldable_block_rejected(self, block, message):
        rng = np.random.default_rng(8)
        norm = dict(gamma=np.array([0.7, -1.1]), beta=np.zeros(2),
                    moving_mean=np.zeros(2), moving_variance=np.ones(2))
        layers = [QConv(1, 1, 1, np.ones((1, 1, 1, 1)), quantize_input=False),
                  QConv(2, 1, 1, rng.choice([-1.0, 1.0], size=(1, 1, 1, 2)), True)]
        layers += [MaxPool() if name == "pool" else BatchNorm(**norm) for name in block]
        side = 4 // 2 ** block.count("pool")
        layers += [Flatten(), QDense(2, rng.choice([-1.0, 1.0], size=(side * side * 2, 2)))]
        net = Network(input_shape=(4, 4, 1), layers=tuple(layers), num_classes=2)
        prop = make_property(np.zeros((4, 4, 1)), epsilon=1, label=0, num_outputs=2)
        with pytest.raises(EncodingError) as err:
            export_cnf(net, prop, [None] * 16)
        assert str(err.value) == message

class TestSuffixForward:
    def test_matches_full_forward_past_the_boundary(self):
        for seed in range(8):
            rng = np.random.default_rng(50 + seed)
            net = random_tiny_network(rng)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            phases = prefix_phases(net, img)
            want = network_forward(net, img)
            got = binary_suffix_forward(net, np.array(phases, dtype=float))
            assert np.array_equal(got, want)

    def test_rejects_bad_phases(self):
        rng = np.random.default_rng(1)
        net = random_tiny_network(rng)
        q = first_quantize_index(net)
        n = int(np.prod(net.layer_shapes()[q]))
        with pytest.raises(ShapeMismatchError):
            binary_suffix_forward(net, np.ones(n + 1))
        with pytest.raises(ValueError, match="\\+-1"):
            binary_suffix_forward(net, np.zeros(n))


def loop_stable_phases(box):
    """Per-entry restatement of the stable-phase rule."""
    out = []
    for lo, hi in zip(box.lo.reshape(-1), box.hi.reshape(-1)):
        if lo >= 0:
            out.append(1)
        elif hi < 0:
            out.append(-1)
        else:
            out.append(None)
    return out


class TestStablePhases:
    def test_matches_the_per_entry_rule(self):
        for seed in range(60):
            rng = np.random.default_rng(700 + seed)
            net = random_tiny_network(rng, max_side=4)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            for eps in (0, 0.5, 1, 3):
                prop = make_property(img, epsilon=eps, label=0,
                                     num_outputs=net.num_classes)
                box = ibp_trace(net, property_box(net, prop))[first_quantize_index(net)]
                phases = stable_phases_from_box(net, prop)
                assert phases == loop_stable_phases(box)
                assert all(p is None or type(p) is int for p in phases)

    def test_point_box_pins_every_phase(self):
        for seed in range(6):
            rng = np.random.default_rng(80 + seed)
            net = random_tiny_network(rng)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            prop = make_property(img, epsilon=0, label=0, num_outputs=net.num_classes)
            phases = stable_phases_from_box(net, prop)
            assert phases == prefix_phases(net, img)

    def test_unsat_under_stable_phases_implies_verified(self):
        confirmed = 0
        for seed in range(40):
            rng = np.random.default_rng(500 + seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            label = int(np.argmax(network_forward(net, img)))
            prop = make_property(
                img, epsilon=1, label=label, num_outputs=net.num_classes
            )
            phases = stable_phases_from_box(net, prop)
            if sum(p is None for p in phases) > 14:
                continue
            formula, _ = export_cnf(net, prop, phases)
            if dpll_satisfiable(formula) is None:
                # sound direction: no phase completion violates, so no
                # concrete input can either
                assert brute_force_verify(net, prop).status == "verified"
                confirmed += 1
        assert confirmed > 0
