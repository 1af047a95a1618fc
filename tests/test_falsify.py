"""Attack determinism, witness soundness, and greedy sweep semantics."""

import itertools

import numpy as np
import pytest

from bnnverify.arch import (
    build_arch_a,
    build_arch_xnor,
    random_tiny_network,
    with_random_weights,
)
from bnnverify.errors import ShapeMismatchError
from bnnverify.falsify import AttackConfig, falsify, greedy_attack, random_attack
from bnnverify.layers import Flatten, QDense
from bnnverify.network import (
    Network,
    images_per_batch,
    margin,
    network_forward,
    network_forward_batch,
    predict,
)
from bnnverify.vnnlib import RobustnessProperty, check_witness, make_property
from bnnverify.verify import brute_force_verify, integer_grid_bounds
from bnnverify.verify.intervals import phase_forward


# 4-pixel toy that flips its argmax inside the eps=1 ball (rediscovered
# from scratch below before any attack runs against it)
BRITTLE_W = [[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]]
BRITTLE_IMG = [1.0, 1.0, 3.0, 3.0]
BRITTLE_LABEL = 2


def toy(weights):
    w = np.asarray(weights, dtype=np.float64)
    return Network(
        input_shape=(1, w.shape[0], 1),
        layers=(Flatten(), QDense(w.shape[1], w, quantize_input=False)),
        num_classes=w.shape[1],
    )


def toy_prop(weights, image, epsilon, label):
    return make_property(
        np.asarray(image).reshape(1, -1, 1),
        epsilon=epsilon,
        label=label,
        num_outputs=np.asarray(weights).shape[1],
    )


def grid_witnesses(net, prop):
    """Exhaustive ball scan: all integer points whose margin is >= 0."""
    g_lo, g_hi = integer_grid_bounds(prop)
    t = prop.target_label
    found = []
    ranges = [range(int(a), int(b) + 1) for a, b in zip(g_lo, g_hi)]
    for point in itertools.product(*ranges):
        x = np.array(point, dtype=np.float64)
        logits = network_forward(net, x.reshape(net.input_shape))
        if np.max(np.delete(logits, t)) >= logits[t]:
            found.append(point)
    return found


class TestRandomAttack:
    def test_zero_epsilon_correct_label_finds_nothing(self):
        checked = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            logits = network_forward(net, img)
            label = int(np.argmax(logits))
            if np.max(np.delete(logits, label)) >= logits[label]:
                continue  # tie at the centre would itself be a witness
            prop = make_property(img, epsilon=0, label=label,
                                 num_outputs=net.num_classes)
            cfg = AttackConfig(max_samples=50, seed=seed)
            assert random_attack(net, prop, cfg) is None
            assert greedy_attack(net, prop, cfg) is None
            checked += 1
        assert checked >= 8

    def test_brittle_toy_yields_checked_witness(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 1, BRITTLE_LABEL)
        assert grid_witnesses(net, prop)  # the ball provably contains one
        w = random_attack(net, prop, AttackConfig(max_samples=5000, seed=7))
        assert w is not None
        assert check_witness(net, prop, w)
        assert tuple(w.input_values) in set(grid_witnesses(net, prop))

    def test_same_seed_same_witness(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 1, BRITTLE_LABEL)
        cfg = AttackConfig(max_samples=5000, seed=3)
        a = random_attack(net, prop, cfg)
        b = random_attack(net, prop, cfg)
        assert a is not None
        assert a.input_values == b.input_values
        assert a.output_values == b.output_values

    def test_budget_extension_keeps_early_witness(self):
        # found inside the shared batch prefix, so a larger budget must
        # return the identical sample
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 2, BRITTLE_LABEL)
        small = random_attack(net, prop, AttackConfig(max_samples=5000, seed=1))
        large = random_attack(net, prop, AttackConfig(max_samples=10000, seed=1))
        assert small is not None
        assert small.input_values == large.input_values

    def test_continuous_mode_samples_floats_in_bounds(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 2, BRITTLE_LABEL)
        cfg = AttackConfig(max_samples=10000, seed=5, integer_grid=False)
        w = random_attack(net, prop, cfg)
        assert w is not None
        assert check_witness(net, prop, w)
        assert any(v != int(v) for v in w.input_values)

    def test_integer_grid_samples_are_integral(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 1, BRITTLE_LABEL)
        w = random_attack(net, prop, AttackConfig(max_samples=5000, seed=7))
        assert all(v == int(v) for v in w.input_values)

    def test_shape_mismatch_rejected(self):
        net = toy(BRITTLE_W)
        bad = make_property(np.zeros((1, 3, 1)), epsilon=1, label=0, num_outputs=3)
        with pytest.raises(ShapeMismatchError):
            random_attack(net, bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(max_samples=0)
        with pytest.raises(ValueError):
            AttackConfig(seed=-1)
        with pytest.raises(ValueError):
            AttackConfig(greedy_passes=-1)


# 6-pixel linear toy: two rival columns are the exact negation of the
# target column, so every margin is -2 * sum(x) and the one falsifying
# point is the all-lower-bound vertex
VERTEX_W = [
    [1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0],
]
VERTEX_IMG = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def sweep_oracle(net, prop, passes):
    """Plain-loop restatement of the greedy sweep; returns (point, margins)."""
    g_lo, g_hi = integer_grid_bounds(prop)
    lo, hi = prop.bounds_arrays()
    t = prop.target_label

    def margin_at(x):
        logits = network_forward(net, x.reshape(net.input_shape))
        return float(np.max(np.delete(logits, t)) - logits[t])

    x = np.clip(np.floor((lo + hi) * 0.5 + 0.5), g_lo, g_hi)
    margins = [margin_at(x)]
    if margins[-1] >= 0:
        return x, margins
    for _ in range(passes):
        improved = False
        for d in range(x.size):
            cands = [v for v in (float(g_lo[d]), float(g_hi[d])) if v != x[d]]
            scores = []
            for v in cands:
                y = x.copy()
                y[d] = v
                scores.append(margin_at(y))
            if scores and max(scores) > margins[-1]:
                x[d] = cands[int(np.argmax(scores))]
                margins.append(max(scores))
                improved = True
                if margins[-1] >= 0:
                    return x, margins
        if not improved:
            break
    return None, margins


class TestGreedyAttack:
    def test_vertex_toy_found_within_pixel_count_moves(self):
        net = toy(VERTEX_W)
        prop = toy_prop(VERTEX_W, VERTEX_IMG, 1, 0)
        vertices = [
            p for p in grid_witnesses(net, prop)
            if all(v in (0, 2) for v in p)
        ]
        assert vertices == [(0, 0, 0, 0, 0, 0)]  # vertex witness exists
        oracle_point, oracle_margins = sweep_oracle(net, prop, passes=5)
        assert oracle_point is not None
        assert len(oracle_margins) - 1 <= 6  # moves bounded by pixel count
        w = greedy_attack(net, prop, AttackConfig())
        assert w is not None
        assert check_witness(net, prop, w)
        assert np.array_equal(w.input_values, oracle_point)

    def test_objective_non_decreasing_and_matches_oracle(self):
        agree_hit = agree_miss = 0
        for seed in range(25):
            rng = np.random.default_rng(900 + seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            prop = make_property(img, epsilon=1, label=predict(net, img),
                                 num_outputs=net.num_classes)
            point, margins = sweep_oracle(net, prop, passes=5)
            assert margins == sorted(margins)  # accepted moves never regress
            w = greedy_attack(net, prop, AttackConfig())
            if point is None:
                assert w is None
                agree_miss += 1
            else:
                assert w is not None
                assert np.array_equal(w.input_values, point)
                agree_hit += 1
        assert agree_hit > 0
        assert agree_miss > 0

    def test_robust_instance_yields_none(self):
        verified = 0
        for seed in range(30):
            rng = np.random.default_rng(40 + seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            prop = make_property(img, epsilon=1, label=predict(net, img),
                                 num_outputs=net.num_classes)
            if not brute_force_verify(net, prop).is_verified:
                continue
            assert greedy_attack(net, prop, AttackConfig()) is None
            verified += 1
            if verified >= 5:
                break
        assert verified >= 5

    def test_centre_tie_is_an_immediate_witness(self):
        w = np.ones((4, 2))
        net = toy(w)
        prop = toy_prop(w, [2.0, 2.0, 2.0, 2.0], 0, 0)
        got = greedy_attack(net, prop, AttackConfig())
        assert got is not None
        assert got.input_values == (2.0, 2.0, 2.0, 2.0)


class TestFalsifyVerdicts:
    def test_falsifiable_reports_sat(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 1, BRITTLE_LABEL)
        v = falsify(net, prop, AttackConfig(max_samples=5000, seed=2))
        assert v.status == "falsified"
        assert v.result_string() == "sat"
        assert check_witness(net, prop, v.witness)

    def test_exhausted_budget_reports_unknown_not_verified(self):
        found = 0
        for seed in range(30):
            rng = np.random.default_rng(200 + seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            prop = make_property(img, epsilon=1, label=predict(net, img),
                                 num_outputs=net.num_classes)
            if not brute_force_verify(net, prop).is_verified:
                continue
            v = falsify(net, prop, AttackConfig(max_samples=200, seed=seed))
            assert v.status == "unknown"
            assert v.result_string() == "unknown"
            found += 1
            if found >= 3:
                break
        assert found >= 3

    def test_zero_timeout(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 1, BRITTLE_LABEL)
        v = falsify(net, prop, AttackConfig(), timeout=0)
        assert v.status == "timeout"
        assert v.result_string() == "timeout"

    def test_nan_timeout_is_refused(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 1, BRITTLE_LABEL)
        with pytest.raises(ValueError, match="timeout"):
            falsify(net, prop, AttackConfig(), timeout=float("nan"))

    def test_deterministic_wrapper(self):
        net = toy(BRITTLE_W)
        prop = toy_prop(BRITTLE_W, BRITTLE_IMG, 1, BRITTLE_LABEL)
        cfg = AttackConfig(max_samples=5000, seed=11)
        a = falsify(net, prop, cfg)
        b = falsify(net, prop, cfg)
        assert a.status == b.status == "falsified"
        assert a.witness.input_values == b.witness.input_values


def reference_first_witness(net, prop, cfg):
    """Draw all ``max_samples`` rows in one call, as one batch would, and
    return the first row whose margin is >= 0 (None when there is none)."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.integer_grid:
        g_lo, g_hi = integer_grid_bounds(prop)
        rows = rng.integers(g_lo.astype(np.int64), g_hi.astype(np.int64) + 1,
                            size=(cfg.max_samples, g_lo.size)).astype(np.float64)
    else:
        lo, hi = prop.bounds_arrays()
        rows = rng.uniform(lo, hi, size=(cfg.max_samples, lo.size))
    for start in range(0, len(rows), 64):
        chunk = rows[start:start + 64]
        logits = network_forward_batch(net, chunk.reshape((-1,) + net.input_shape))
        bad = margin(logits, logits, prop.target_label) >= 0
        if bad.any():
            return tuple(chunk[int(np.argmax(bad))])
    return None


def forward_recorder(monkeypatch, module, cap):
    """Wrap ``module.network_forward_batch`` and, where ``module`` builds
    them, the forwards of ``phase_forward``; a call of more than ``cap``
    images fails before it allocates anything."""
    sizes = []

    def record(images):
        sizes.append(len(images))
        assert len(images) <= cap, f"one forward of {len(images)} images, cap {cap}"

    def recording(net, images):
        record(images)
        return network_forward_batch(net, images)

    def recording_phase_forward(net, trace):
        forward = phase_forward(net, trace)
        if forward is None:
            return None

        def recorded(images):
            record(images)
            return forward(images)
        return recorded

    monkeypatch.setattr(f"{module}.network_forward_batch", recording)
    if module == "bnnverify.falsify":
        monkeypatch.setattr(f"{module}.phase_forward", recording_phase_forward)
    return sizes


class TestBatchBudget:
    @pytest.fixture(scope="class")
    def arch_a(self):
        net = with_random_weights(build_arch_a(64, 64), np.random.default_rng(11))
        img = np.random.default_rng(100).integers(0, 256, size=net.input_shape)
        return net, img.astype(np.float64)

    def test_random_attack_batches_stay_within_the_byte_budget(self, arch_a, monkeypatch):
        net, img = arch_a
        cap = images_per_batch(net)
        assert 1 <= cap < 1024
        sizes = forward_recorder(monkeypatch, "bnnverify.falsify", cap)
        prop = make_property(img, epsilon=3, label=predict(net, img))
        random_attack(net, prop, AttackConfig(max_samples=1024, seed=0))
        assert sizes and max(sizes) <= cap

    def test_brute_default_batch_stays_within_the_byte_budget(self, arch_a, monkeypatch):
        net, img = arch_a
        cap = images_per_batch(net)
        sizes = forward_recorder(monkeypatch, "bnnverify.verify.brute", cap)
        lo = img.reshape(-1).copy()
        hi = lo.copy()
        lo[:3] -= 1.0
        hi[:3] += 1.0  # 27 grid points, more than one batch
        prop = RobustnessProperty(lo.size, net.num_classes, np.column_stack((lo, hi)),
                                  predict(net, img))
        brute_force_verify(net, prop)
        assert sizes and max(sizes) <= cap

    @pytest.mark.parametrize("cap", [1, 7, 64, 1024])
    @pytest.mark.parametrize("integer_grid", [True, False])
    def test_tiny_witness_does_not_depend_on_the_batch(self, cap, integer_grid, monkeypatch):
        monkeypatch.setattr("bnnverify.falsify.images_per_batch", lambda net: cap)
        found = 0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            net = random_tiny_network(rng, max_side=3)
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            prop = make_property(img, epsilon=2, label=predict(net, img),
                                 num_outputs=net.num_classes)
            cfg = AttackConfig(max_samples=300, seed=seed, integer_grid=integer_grid)
            w = random_attack(net, prop, cfg)
            want = reference_first_witness(net, prop, cfg)
            assert (None if w is None else w.input_values) == want
            found += want is not None
        assert found >= 5

    @pytest.mark.parametrize("cap", [None, 14, 29])
    def test_xnor_witness_does_not_depend_on_the_batch(self, cap, monkeypatch):
        net = with_random_weights(build_arch_xnor(30, 30), np.random.default_rng(11))
        if cap is None:
            cap = images_per_batch(net)  # the default budget's batch
        else:
            monkeypatch.setattr("bnnverify.falsify.images_per_batch", lambda net: cap)
        img = np.random.default_rng(101).integers(0, 256, size=net.input_shape)
        prop = make_property(img.astype(np.float64), epsilon=3,
                             label=predict(net, img.astype(np.float64)))
        cfg = AttackConfig(max_samples=1024, seed=0)
        want = reference_first_witness(net, prop, cfg)
        assert want is not None
        w = random_attack(net, prop, cfg)
        assert w is not None and w.input_values == want


class _TickingClock:
    """Stands in for the ``time`` module: each reading is one second later."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


class TestBatchRamp:
    @pytest.fixture(scope="class")
    def xnor_free(self):
        """A witness-free eps=1 ball: the highest-margin image of a seeded
        XNOR pool, checked against the one-draw reference."""
        net = with_random_weights(build_arch_xnor(30, 30), np.random.default_rng(11))
        imgs = np.random.default_rng(101).integers(0, 256, size=(32,) + net.input_shape)
        imgs = imgs.astype(np.float64)
        logits = network_forward_batch(net, imgs)
        labels = np.argmax(logits, axis=1)
        k = int(np.argmin([margin(row, row, t) for row, t in zip(logits, labels)]))
        prop = make_property(imgs[k], epsilon=1, label=int(labels[k]))
        assert reference_first_witness(net, prop, AttackConfig(max_samples=1024)) is None
        return net, prop

    def test_witness_at_the_first_sample_costs_one_image(self, monkeypatch):
        net = with_random_weights(build_arch_a(64, 64), np.random.default_rng(11))
        img = np.random.default_rng(100).integers(0, 256, size=net.input_shape)
        img = img.astype(np.float64)
        cfg = AttackConfig(max_samples=1024, seed=0)
        g_lo, g_hi = integer_grid_bounds(make_property(img, epsilon=3, label=0))
        first = np.random.default_rng(cfg.seed).integers(
            g_lo.astype(np.int64), g_hi.astype(np.int64) + 1, size=(1, g_lo.size))
        out = network_forward(net, first.astype(np.float64).reshape(net.input_shape))
        # a label that the first sample beats, so sample 0 is the witness
        prop = make_property(img, epsilon=3, label=int(np.argmin(out)))
        sizes = forward_recorder(monkeypatch, "bnnverify.falsify", images_per_batch(net))
        w = random_attack(net, prop, cfg)
        assert sizes == [1]
        assert w is not None and w.input_values == tuple(first[0].astype(np.float64))

    def test_witness_free_batches_double_up_to_the_cap(self, xnor_free, monkeypatch):
        net, prop = xnor_free
        cap = images_per_batch(net)
        assert 64 < cap < 128  # the ramp reaches 64, then one step hits the cap
        sizes = forward_recorder(monkeypatch, "bnnverify.falsify", cap)
        assert random_attack(net, prop, AttackConfig(max_samples=1024, seed=0)) is None
        ramp = [1, 2, 4, 8, 16, 32, 64]
        full, rest = divmod(1024 - sum(ramp), cap)
        assert sizes == ramp + [cap] * full + ([rest] if rest else [])
        assert sum(sizes) == 1024

    def test_deadline_is_checked_before_every_batch(self, xnor_free, monkeypatch):
        net, prop = xnor_free
        sizes = forward_recorder(monkeypatch, "bnnverify.falsify", images_per_batch(net))
        monkeypatch.setattr("bnnverify.falsify.time", _TickingClock())
        # readings 1, 2, 3 come before batches one, two, three
        assert random_attack(net, prop, AttackConfig(max_samples=1024), deadline=3.0) is None
        assert sizes == [1, 2]

    def test_batches_after_a_witness_free_first_sample_skip_fixed_phases(
            self, xnor_free, monkeypatch):
        net, prop = xnor_free
        calls = []

        def full(net, images):
            calls.append(("full", len(images)))
            return network_forward_batch(net, images)

        def built(net, trace):
            forward = phase_forward(net, trace)
            assert forward is not None  # the XNOR ball fixes most phases

            def phased(images):
                calls.append(("phase", len(images)))
                return forward(images)
            return phased

        monkeypatch.setattr("bnnverify.falsify.network_forward_batch", full)
        monkeypatch.setattr("bnnverify.falsify.phase_forward", built)
        assert random_attack(net, prop, AttackConfig(max_samples=64, seed=0)) is None
        assert calls == [("full", 1)] + [("phase", n) for n in (2, 4, 8, 16, 32, 1)]
        calls.clear()
        # a one-sample budget never takes the trace
        assert random_attack(net, prop, AttackConfig(max_samples=1, seed=0)) is None
        assert calls == [("full", 1)]
