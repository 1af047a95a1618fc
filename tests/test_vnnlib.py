import dataclasses
import re

import numpy as np
import pytest

from bnnverify.arch import random_tiny_network
from bnnverify.errors import (
    PropertyFormatError,
    ShapeMismatchError,
    WitnessFormatError,
)
from bnnverify import vnnlib
from bnnverify.layers import Flatten, QDense
from bnnverify.network import Network, image_from_flat, margin, network_forward
from bnnverify.vnnlib import (
    RobustnessProperty,
    Witness,
    check_witness,
    format_witness,
    generate_property,
    make_property,
    parse_property,
    parse_witness,
    property_filename,
    witness_from_flat,
)


def gtsrb_image_with_pixel(flat_index, value, side=30):
    img = np.full((side, side, 3), 100.0)
    flat = img.reshape(-1)
    flat[flat_index] = value
    return img


def small_dense_net(num_inputs, columns):
    """Single dense layer; columns is a (num_inputs, L) sign matrix."""
    w = np.asarray(columns, dtype=np.float64)
    side = int(round(num_inputs ** 0.5))
    assert side * side == num_inputs
    return Network(
        input_shape=(side, side, 1),
        layers=(
            Flatten(),
            QDense(weights=w, quantize_input=False),
        ),
    )


class TestGenerate:
    def test_published_example_lines(self):
        # pixel 2699 at value 24, radius 10, target class 38
        img = gtsrb_image_with_pixel(2699, 24.0)
        text = generate_property(img, 10, 38)
        lines = text.split("\n")
        assert "(assert (<= X_2699 34.00000000))" in lines
        assert "(assert (>= X_2699 14.00000000))" in lines
        up = lines.index("(assert (<= X_2699 34.00000000))")
        assert lines[up + 1] == "(assert (>= X_2699 14.00000000))"

    def test_disjunction_block_shape(self):
        img = gtsrb_image_with_pixel(2699, 24.0)
        text = generate_property(img, 10, 38)
        disjuncts = [ln for ln in text.split("\n") if ">= Y_" in ln]
        assert len(disjuncts) == 42
        assert disjuncts[0] == "(assert (or (>= Y_0 Y_38)"
        assert disjuncts[-1].endswith("(>= Y_42 Y_38)))")
        assert all(ln.strip().endswith("Y_38)") or ln.endswith("Y_38)))")
                   for ln in disjuncts)
        assert not any("(>= Y_38 Y_38)" in ln for ln in disjuncts)
        # continuation lines align under the first disjunct
        assert disjuncts[1].startswith(" " * len("(assert (or "))

    def test_declaration_and_bound_counts(self):
        img = np.arange(4 * 4 * 3, dtype=float).reshape(4, 4, 3)
        text = generate_property(img, 3, 5, num_outputs=7)
        lines = text.split("\n")
        assert sum(ln.startswith("(declare-const X_") for ln in lines) == 48
        assert sum(ln.startswith("(declare-const Y_") for ln in lines) == 7
        assert sum(ln.startswith("(assert (<= X_") for ln in lines) == 48
        assert sum(ln.startswith("(assert (>= X_") for ln in lines) == 48

    def test_zero_epsilon_point_query(self):
        img = np.full((2, 2, 1), 17.0)
        prop = make_property(img, 0, 1, num_outputs=3)
        assert all(lo == hi == 17.0 for lo, hi in prop.input_bounds)

    def test_clip_flag(self):
        img = np.array([[[250.0, 2.0, 100.0]]])
        free = make_property(img, 10, 0, num_outputs=2)
        assert free.input_bounds[0] == (240.0, 260.0)
        assert free.input_bounds[1] == (-8.0, 12.0)
        clipped = make_property(img, 10, 0, num_outputs=2, clip=True)
        assert clipped.input_bounds[0] == (240.0, 255.0)
        assert clipped.input_bounds[1] == (0.0, 12.0)

    def test_matches_per_pixel_loop(self):
        # the vectorised bounds against the per-pixel loop they replaced
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(5, 4, 3)).astype(float)
        for eps in (0, 1, 2.5, 0.1):
            for clip in (False, True):
                want = []
                for v in img.reshape(-1):
                    lo, hi = float(v) - eps, float(v) + eps
                    if clip:
                        lo, hi = max(lo, 0.0), min(hi, 255.0)
                    want.append((lo, hi))
                prop = make_property(img, eps, 0, num_outputs=2, clip=clip)
                assert prop.input_bounds == tuple(want)

    def test_label_out_of_range(self):
        img = np.zeros((2, 2, 1))
        with pytest.raises(ValueError):
            make_property(img, 1, 43, num_outputs=43)
        with pytest.raises(ValueError):
            make_property(img, 1, -1, num_outputs=43)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            make_property(np.zeros((2, 2, 1)), -1, 0, num_outputs=2)

    def test_one_class_property_cannot_be_rendered(self):
        # with no rival label the disjunction would be empty, and an empty
        # `or` cannot name the target label
        img = np.zeros((1, 2, 1))
        with pytest.raises(ValueError, match="one output class"):
            generate_property(img, 1, 0, num_outputs=1)

    def test_filename_convention(self):
        assert property_filename(30, 1678, 1) == "model_30_idx_1678_eps_1.00000.vnnlib"
        assert property_filename(48, 7, 15) == "model_48_idx_7_eps_15.00000.vnnlib"
        assert property_filename(64, 0, 0.5) == "model_64_idx_0_eps_0.50000.vnnlib"


class TestParse:
    def test_round_trip_small(self):
        rng = np.random.default_rng(7)
        for eps in (1, 3, 5, 10, 15):
            img = rng.integers(0, 256, size=(4, 4, 3)).astype(float)
            label = int(rng.integers(0, 43))
            text = generate_property(img, eps, label)
            prop = parse_property(text)
            ref = make_property(img, eps, label)
            assert prop.target_label == label
            assert prop.num_inputs == ref.num_inputs
            assert prop.num_outputs == 43
            got = np.asarray(prop.input_bounds)
            want = np.asarray(ref.input_bounds)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_round_trip_full_size(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(30, 30, 3)).astype(float)
        prop = parse_property(generate_property(img, 10, 38))
        assert prop.num_inputs == 2700
        assert prop.target_label == 38
        assert prop.input_bounds[2699][1] - prop.input_bounds[2699][0] == 20.0

    def test_whitespace_reformat_parses_identically(self):
        img = np.arange(12, dtype=float).reshape(2, 2, 3)
        text = generate_property(img, 2, 1, num_outputs=4)
        ref = parse_property(text)
        # drop comments, squeeze everything onto a handful of long lines
        kept = [ln for ln in text.split("\n") if not ln.startswith(";")]
        mangled = "  ".join(p.strip() for p in kept if p.strip())
        mangled = mangled.replace("(assert", "\n\n  (assert")
        assert parse_property(mangled) == ref

    def test_comments_ignored(self):
        img = np.zeros((1, 1, 1))
        text = generate_property(img, 1, 0, num_outputs=2)
        noisy = "; leading chatter\n" + text.replace(
            "(declare-const Y_0 Real)",
            "(declare-const Y_0 Real) ; trailing note"
        )
        assert parse_property(noisy) == parse_property(text)

    def test_mixed_targets_rejected(self):
        text = (
            "(declare-const X_0 Real)"
            "(declare-const Y_0 Real)(declare-const Y_1 Real)"
            "(declare-const Y_5 Real)(declare-const Y_2 Real)"
            "(declare-const Y_3 Real)(declare-const Y_4 Real)"
            "(assert (<= X_0 1.0))(assert (>= X_0 0.0))"
            "(assert (or (>= Y_0 Y_3) (>= Y_1 Y_5)))"
        )
        with pytest.raises(PropertyFormatError, match="mixed targets"):
            parse_property(text)

    def test_missing_bound_rejected(self):
        img = np.zeros((2, 1, 1))
        text = generate_property(img, 1, 0, num_outputs=2)
        broken = text.replace("(assert (>= X_1 -1.00000000))\n", "")
        with pytest.raises(PropertyFormatError, match="missing lower bound for X_1"):
            parse_property(broken)

    def test_bound_on_undeclared_input_rejected(self):
        img = np.zeros((3, 1, 1))
        text = generate_property(img, 1, 0, num_outputs=2)
        broken = text.replace("(declare-const X_2 Real)\n", "")
        with pytest.raises(PropertyFormatError, match="undeclared X_2"):
            parse_property(broken)

    def test_unknown_construct_rejected(self):
        img = np.zeros((1, 1, 1))
        text = generate_property(img, 1, 0, num_outputs=2)
        with pytest.raises(PropertyFormatError):
            parse_property(text + "\n(check-sat)\n")
        with pytest.raises(PropertyFormatError):
            parse_property(text.replace("(assert (<= X_0", "(assert (< X_0"))

    def test_duplicate_bound_rejected(self):
        img = np.zeros((1, 1, 1))
        text = generate_property(img, 1, 0, num_outputs=2)
        doubled = text + "\n(assert (<= X_0 9.00000000))\n"
        with pytest.raises(PropertyFormatError, match="duplicate bound"):
            parse_property(doubled)

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(PropertyFormatError):
            parse_property("(declare-const X_0 Real")

    def test_self_comparing_disjunct_rejected(self):
        text = (
            "(declare-const X_0 Real)"
            "(declare-const Y_0 Real)(declare-const Y_1 Real)"
            "(assert (<= X_0 1.0))(assert (>= X_0 0.0))"
            "(assert (or (>= Y_1 Y_1)))"
        )
        with pytest.raises(PropertyFormatError):
            parse_property(text)


    def test_empty_disjunction_rejected(self):
        text = (
            "(declare-const X_0 Real)"
            "(declare-const Y_0 Real)(declare-const Y_1 Real)"
            "(assert (<= X_0 1.0))(assert (>= X_0 0.0))"
            "(assert (or))"
        )
        with pytest.raises(PropertyFormatError, match="empty output disjunction"):
            parse_property(text)

    @pytest.mark.parametrize("bound", ["(>= X_0 nan)", "(<= X_0 nan)",
                                       "(>= X_0 -nan)", "(<= X_0 NaN)"])
    def test_nan_bound_rejected(self, bound):
        text = generate_property(np.zeros((1, 2, 1)), 1, 0, num_outputs=2)
        written = {"<=": "(<= X_0 1.00000000)", ">=": "(>= X_0 -1.00000000)"}
        old = written[bound[1:3]]
        assert old in text
        with pytest.raises(PropertyFormatError, match="NaN bound for X_0"):
            parse_property(text.replace(old, bound))

    @pytest.mark.parametrize("bound", ["(<= X_0 inf)", "(>= X_0 -inf)",
                                       "(<= X_0 Infinity)", "(>= X_0 -1e999)"])
    def test_infinite_bound_rejected(self, bound):
        text = generate_property(np.zeros((1, 2, 1)), 1, 0, num_outputs=2)
        written = {"<=": "(<= X_0 1.00000000)", ">=": "(>= X_0 -1.00000000)"}
        old = written[bound[1:3]]
        assert old in text
        with pytest.raises(PropertyFormatError, match="infinite bound for X_0"):
            parse_property(text.replace(old, bound))

    @pytest.mark.parametrize("seed", [31, 37, 43])
    def test_infinite_bound_cannot_reach_an_engine(self, seed):
        # On these tiny networks, whose first layer sees raw pixels, an
        # upper bound of inf on X_0 made IBP compute inf - inf = NaN, which
        # the next sign read as a definite phase: ibp and bab answered
        # unsat although X_0 = 1000 is a checked counterexample.
        net = random_tiny_network(np.random.default_rng(seed))
        image = np.random.default_rng(seed).integers(0, 9, size=net.input_shape)
        label = int(np.argmax(network_forward(net, image.astype(float))))
        text = generate_property(image, 1, label, num_outputs=net.num_classes)
        old = f"(assert (<= X_0 {image.flat[0] + 1:.8f}))"
        assert old in text
        with pytest.raises(PropertyFormatError, match="infinite bound for X_0"):
            parse_property(text.replace(old, "(assert (<= X_0 inf))"))
        lo = image.reshape(-1) - 1.0
        hi = image.reshape(-1) + 1.0
        hi[0] = np.inf
        with pytest.raises(ValueError, match="infinite bound for X_0"):
            RobustnessProperty(net.num_inputs, net.num_classes,
                               np.column_stack((lo, hi)), label)

    def test_duplicate_declaration_named(self):
        img = np.zeros((1, 2, 1))
        text = generate_property(img, 1, 0, num_outputs=2)
        doubled = text.replace("(declare-const X_1 Real)",
                               "(declare-const X_1 Real)(declare-const X_1 Real)")
        with pytest.raises(PropertyFormatError, match="duplicate declaration of X_1"):
            parse_property(doubled)

    def test_non_ascii_digit_index_rejected(self):
        # '\u00b2'.isdigit() holds but int() refuses it
        text = generate_property(np.zeros((1, 1, 1)), 1, 0, num_outputs=2)
        with pytest.raises(PropertyFormatError, match="X_\u00b2"):
            parse_property(text.replace("X_0", "X_\u00b2"))


class TestIndexWidth:
    """Variable indices are read in bulk as int64, and an index past 64
    bits is refused by name rather than saturated to 2**63 - 1."""

    BASE = generate_property(np.zeros((1, 8, 1)), 1, 0, num_outputs=3)
    TOO_WIDE = "X variable index does not fit in 64 bits"
    WIDE = pytest.mark.parametrize("index", [str(2**63), "9" * 20, "9" * 5000],
                                   ids=["2**63", "20 digits", "5000 digits"])

    def edit(self, old, new):
        assert old in self.BASE
        return self.BASE.replace(old, new, 1)

    @WIDE
    def test_declaration_past_64_bits_refused(self, index):
        text = self.edit("(declare-const X_1 Real)", f"(declare-const X_{index} Real)")
        with pytest.raises(PropertyFormatError, match=self.TOO_WIDE):
            parse_property(text)

    @WIDE
    @pytest.mark.parametrize("side", ["<=", ">="])
    def test_bound_past_64_bits_refused(self, side, index):
        text = self.edit(f"(assert ({side} X_1 ", f"(assert ({side} X_{index} ")
        with pytest.raises(PropertyFormatError, match=self.TOO_WIDE):
            parse_property(text)

    def test_declaration_at_64_bits_is_a_gap(self):
        text = self.edit("(declare-const X_1 Real)", f"(declare-const X_{2**63 - 1} Real)")
        with pytest.raises(PropertyFormatError, match="not contiguous from 0"):
            parse_property(text)

    @pytest.mark.parametrize("side, name", [("<=", "upper"), (">=", "lower")])
    def test_bound_at_64_bits_is_undeclared(self, side, name):
        text = self.edit(f"(assert ({side} X_1 ", f"(assert ({side} X_{2**63 - 1} ")
        with pytest.raises(PropertyFormatError,
                           match=f"{name} bound on undeclared X_{2**63 - 1}"):
            parse_property(text)

    @WIDE
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_output_index_past_64_bits_refused(self, side, index):
        new = f"(>= Y_{index} Y_0)" if side == "left" else f"(>= Y_1 Y_{index})"
        text = self.edit("(>= Y_1 Y_0)", new)
        with pytest.raises(PropertyFormatError,
                           match="Y variable index does not fit in 64 bits"):
            parse_property(text)

    @WIDE
    @pytest.mark.parametrize("prefix", ["X", "Y"])
    def test_witness_index_past_64_bits_refused(self, prefix, index):
        text = f"(X_0 1.0)\n({prefix}_{index} 1.0)"
        with pytest.raises(WitnessFormatError,
                           match=f"{prefix} variable index does not fit in 64 bits"):
            parse_witness(text)

    def test_witness_index_at_64_bits_is_a_gap(self):
        with pytest.raises(WitnessFormatError, match="not contiguous from 0"):
            parse_witness(f"(X_0 1.0)\n(X_{2**63 - 1} 1.0)")

    def test_witness_leading_zeros_name_the_same_variable(self):
        text = "(X_0 1.0)\n(X_" + "0" * 5000 + "1 2.0)"
        assert parse_witness(text).input_values == (1.0, 2.0)

    def test_leading_zeros_name_the_same_variable(self):
        text = self.BASE.replace("X_7 ", "X_007 ")
        text = text.replace("X_1 ", "X_" + "0" * 30 + "1 ")
        assert text.count("X_007") == 3
        assert parse_property(text) == parse_property(self.BASE)


def test_patterns_compile_on_python_3_10():
    """pyproject allows Python 3.10, whose ``re`` has no possessive
    quantifiers (``*+``, ``++``, ``?+``, ``{m,n}+``) or atomic groups."""
    patterns = [v.pattern for v in vars(vnnlib).values() if isinstance(v, re.Pattern)]
    assert len(patterns) >= 5
    for pattern in patterns:
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern


class TestCheckWitness:
    def net_with_strict_winner(self):
        # column 0 all +1, column 1 all -1: positive input sums favor class 0
        cols = np.array([[1.0, -1.0]] * 4)
        return small_dense_net(4, cols)

    def test_center_of_correct_instance_fails(self):
        net = self.net_with_strict_winner()
        img = np.full((2, 2, 1), 10.0)
        prop = make_property(img, 5, 0, num_outputs=2)
        w = witness_from_flat(img.reshape(-1))
        assert check_witness(net, prop, w) is False

    def test_out_of_bounds_fails_regardless_of_outputs(self):
        net = self.net_with_strict_winner()
        img = np.full((2, 2, 1), 10.0)
        prop = make_property(img, 1, 1, num_outputs=2)  # class 1 loses everywhere
        w = witness_from_flat([10.0, 10.0, 10.0, 99.0])
        assert check_witness(net, prop, w) is False

    def test_ties_count_as_violations(self):
        cols = np.ones((4, 3))  # all logits identical
        net = small_dense_net(4, cols)
        img = np.full((2, 2, 1), 3.0)
        prop = make_property(img, 1, 0, num_outputs=3)
        w = witness_from_flat(img.reshape(-1))
        assert check_witness(net, prop, w) is True

    def test_boundary_values_are_inside(self):
        net = self.net_with_strict_winner()
        img = np.full((2, 2, 1), 10.0)
        prop = make_property(img, 5, 0, num_outputs=2)
        # low extreme 5.0 keeps sums positive: class 0 still wins, no violation
        assert check_witness(net, prop, witness_from_flat([5.0] * 4)) is False
        # a wider ball reaches negative pixels where class 1 overtakes class 0
        deep = make_property(np.full((2, 2, 1), 1.0), 3, 0, num_outputs=2)
        assert check_witness(net, deep, witness_from_flat([-2.0] * 4)) is True

    def test_nan_inputs_are_outside_the_box(self):
        # sign(NaN) quantizes to -1, so a NaN input gives finite logits;
        # the target is their lowest logit, so only the box test can
        # reject the witness
        for seed in range(8):
            net = random_tiny_network(np.random.default_rng(seed))
            nan = np.full(net.input_shape, np.nan)
            logits = network_forward(net, nan)
            target = int(np.argmin(logits))
            assert margin(logits, logits, target) >= 0
            prop = make_property(np.full(net.input_shape, 4.0), 255, target,
                                 num_outputs=net.num_classes)
            assert check_witness(net, prop, witness_from_flat(nan.ravel())) is False
            one = np.full(net.num_inputs, 4.0)
            one[-1] = np.nan
            assert check_witness(net, prop, witness_from_flat(one)) is False

    def test_length_mismatch_raises(self):
        net = self.net_with_strict_winner()
        prop = make_property(np.full((2, 2, 1), 10.0), 5, 0, num_outputs=2)
        with pytest.raises(WitnessFormatError):
            check_witness(net, prop, witness_from_flat([1.0, 2.0]))

    def test_network_property_shape_mismatch_raises(self):
        net = self.net_with_strict_winner()
        prop = make_property(np.full((3, 3, 1), 10.0), 5, 0, num_outputs=2)
        with pytest.raises(ShapeMismatchError):
            check_witness(net, prop, witness_from_flat([10.0] * 9))

    def test_shape_check_is_the_engines_check(self):
        net = self.net_with_strict_winner()
        prop = make_property(np.full((3, 3, 1), 10.0), 5, 0, num_outputs=2)
        with pytest.raises(ShapeMismatchError) as engine_error:
            vnnlib.check_property_shapes(net, prop)
        with pytest.raises(ShapeMismatchError) as witness_error:
            check_witness(net, prop, witness_from_flat([10.0] * 9))
        assert str(witness_error.value) == str(engine_error.value)
        assert "disagree on dimensions" in str(engine_error.value)


def per_value_text(value):
    """The per-value number rule the one-call formatter must reproduce."""
    s = f"{float(value):.8f}"
    return "0.00000000" if s == "-0.00000000" else s


# negative zero, both sides of the rounding to -0.00000000, a value past
# the float64 integer grid, and one that is a binary tie at the 8th decimal
EDGE_VALUES = (-0.0, 0.0, 5e-9, -5e-9, -4.9999999e-9, 1e16, 123.456789125)


class TestNumberText:
    def per_line_property(self, prop):
        t = prop.target_label
        lines = [f"; robustness query: {prop.num_inputs} inputs, "
                 f"{prop.num_outputs} outputs, target label {t}"]
        if prop.source is not None:
            idx, eps = prop.source
            lines.append(f"; image index {idx}, epsilon {per_value_text(eps)}")
        lines.append("")
        lines += [f"(declare-const X_{i} Real)" for i in range(prop.num_inputs)]
        lines += [f"(declare-const Y_{j} Real)" for j in range(prop.num_outputs)]
        lines.append("")
        for i, (lo, hi) in enumerate(prop.input_bounds):
            lines.append(f"(assert (<= X_{i} {per_value_text(hi)}))")
            lines.append(f"(assert (>= X_{i} {per_value_text(lo)}))")
        lines.append("")
        head = "(assert (or "
        parts = [f"(>= Y_{j} Y_{t})" for j in range(prop.num_outputs) if j != t]
        lines += [head + parts[0]] + [" " * len(head) + p for p in parts[1:]]
        lines[-1] += "))"
        lines.append("")
        return "\n".join(lines)

    @pytest.mark.parametrize("source", [None, (7, -0.0), (7, -4.9999999e-9), (7, 3.0)])
    def test_property_text_matches_the_per_value_rule(self, source):
        values = np.array(EDGE_VALUES)
        pairs = np.column_stack((np.minimum(values, -values), np.maximum(values, -values)))
        pairs = np.vstack((pairs, np.column_stack((values, values))))
        prop = RobustnessProperty(len(pairs), 4, pairs, 2, source=source)
        text = vnnlib.render_property(prop)
        assert text == self.per_line_property(prop)
        assert "-0.00000000" not in text

    @pytest.mark.parametrize("outputs", [None, (), EDGE_VALUES + (float("nan"),)])
    def test_witness_text_matches_the_per_value_rule(self, outputs):
        inputs = EDGE_VALUES + (float("nan"), float("-nan"), -1e16, -123.456789125)
        want = [f"(X_{i} {per_value_text(v)})" for i, v in enumerate(inputs)]
        if outputs is not None:
            want += [f"(Y_{j} {per_value_text(v)})" for j, v in enumerate(outputs)]
        text = format_witness(Witness(inputs, outputs))
        assert text == "\n".join(want + [""])
        assert "(X_7 nan)" in text and "-0.00000000" not in text

    def test_empty_witness_text(self):
        assert format_witness(Witness((), None)) == ""


class TestWitnessFiles:
    def test_round_trip_with_outputs(self):
        w = Witness(input_values=(1.0, 2.5, 255.0), output_values=(-4.0, 4.0))
        assert parse_witness(format_witness(w)) == w

    def test_round_trip_inputs_only(self):
        w = witness_from_flat(np.arange(6, dtype=float))
        text = format_witness(w)
        assert "(X_5 5.00000000)" in text
        assert "Y_" not in text
        assert parse_witness(text) == w

    @pytest.mark.parametrize("values", [
        [0, 3, -7, 255],
        np.array([0.1, -0.0, 1e-30, 3.5, 255.0], dtype=np.float32),
        np.array([0.1, -0.0, 1e300, -2.5, np.pi]),
        [-0.0, 0.0, np.float32(-0.0), np.int64(-4)],
    ])
    def test_from_flat_matches_per_value_float(self, values):
        w = witness_from_flat(values, logits=values)
        want = [repr(float(v)) for v in values]  # repr tells -0.0 and int apart
        assert [repr(v) for v in w.input_values] == want
        assert [repr(v) for v in w.output_values] == want

    def test_single_expression_convention_accepted(self):
        text = "((X_0 1.0) (X_1 2.0) (Y_0 -3.0))"
        w = parse_witness(text)
        assert w.input_values == (1.0, 2.0)
        assert w.output_values == (-3.0,)

    def test_gap_in_indices_rejected(self):
        with pytest.raises(WitnessFormatError):
            parse_witness("(X_0 1.0)\n(X_2 2.0)\n")

    def test_duplicate_entry_rejected(self):
        with pytest.raises(WitnessFormatError):
            parse_witness("(X_0 1.0)\n(X_0 2.0)\n")

    def test_non_ascii_digit_index_rejected(self):
        with pytest.raises(WitnessFormatError, match="malformed variable"):
            parse_witness("(X_\u00b2 1.0)\n")

    def test_junk_rejected(self):
        with pytest.raises(WitnessFormatError):
            parse_witness("(Z_0 1.0)\n")
        with pytest.raises(WitnessFormatError):
            parse_witness("(X_0 banana)\n")


class TestPropertyType:
    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            RobustnessProperty(
                num_inputs=1, num_outputs=2,
                input_bounds=((3.0, 1.0),), target_label=0,
            )

    def test_bounds_kept_as_arrays_only(self):
        pairs = ((1.0, 2.5), (-3.0, 0.0), (4.0, 4.0))
        prop = RobustnessProperty(3, 2, pairs, 1)
        from_array = RobustnessProperty(3, 2, np.array(pairs), 1)
        assert prop == from_array and hash(prop) == hash(from_array)
        assert prop.input_bounds == pairs
        assert prop != RobustnessProperty(3, 2, pairs, 0)
        assert prop != RobustnessProperty(3, 2, ((1.0, 2.5), (-3.0, 0.5),
                                                 (4.0, 4.0)), 1)
        assert hash(RobustnessProperty(1, 2, ((-0.0, 0.0),), 0)) == hash(
            RobustnessProperty(1, 2, ((0.0, 0.0),), 0))
        assert "input_bounds" not in vars(prop)
        with pytest.raises(AttributeError):
            prop.input_bounds = pairs
        with pytest.raises(dataclasses.FrozenInstanceError):
            prop.target_label = 0
        with pytest.raises(ValueError):
            prop.lo[0] = 0.0
        with pytest.raises(ValueError, match="expected 3 bound pairs"):
            RobustnessProperty(3, 2, pairs[:2], 1)

    def test_bounds_copied_from_the_callers_array(self):
        pairs = np.array([[1.0, 2.5], [-3.0, 0.0]])
        prop = RobustnessProperty(2, 2, pairs, 1)
        pairs[:] = 7.0
        assert prop.input_bounds == ((1.0, 2.5), (-3.0, 0.0))

    def test_parse_checks_bounds_once(self, monkeypatch):
        text = generate_property(np.zeros((1, 2, 1)), 1, 0, num_outputs=2)
        calls = []
        check = vnnlib._check_bounds
        monkeypatch.setattr(vnnlib, "_check_bounds",
                            lambda *args: calls.append(args) or check(*args))
        parse_property(text)
        assert len(calls) == 1
        with pytest.raises(PropertyFormatError, match="crossed bounds for X_0"):
            parse_property(text.replace("(>= X_0 -1.00000000)",
                                        "(>= X_0 2.00000000)"))
        assert len(calls) == 2

    def test_bounds_arrays_round_trip(self):
        prop = make_property(np.full((2, 2, 1), 9.0), 4, 1, num_outputs=2)
        lo, hi = prop.bounds_arrays()
        assert lo.tolist() == [5.0] * 4
        assert hi.tolist() == [13.0] * 4

    def test_image_flat_index_convention(self):
        # X index = (row*W + col)*C + channel
        img = np.zeros((3, 5, 3))
        img[2, 3, 1] = 77.0
        prop = make_property(img, 0, 0, num_outputs=2)
        flat_index = (2 * 5 + 3) * 3 + 1
        assert prop.input_bounds[flat_index] == (77.0, 77.0)
        back = image_from_flat(prop.bounds_arrays()[0], (3, 5, 3))
        assert back[2, 3, 1] == 77.0
