"""The engine registry, the shared margin, and the CLI and runner paths
that every engine goes through."""

import io
import logging
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from bnnverify.bench import ENGINES, generate_benchmark, run_instances
from bnnverify.bench import runner as runner_mod
from bnnverify.cli import build_parser, main
from bnnverify.falsify import AttackConfig
from bnnverify.layers import Flatten, QDense
from bnnverify.network import Network, margin, predict
from bnnverify.onnx_io import serialize_model
from bnnverify.vnnlib import Witness, check_witness, generate_property, \
    make_property

BRITTLE_W = [[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]]
BRITTLE_IMG = [1.0, 1.0, 3.0, 3.0]
BRITTLE_LABEL = 2  # eps=1 admits a flip


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_instance(tmp_path, net, image, epsilon, label):
    model = tmp_path / "net.onnx"
    model.write_bytes(serialize_model(net))
    prop = tmp_path / "net.vnnlib"
    prop.write_text(generate_property(
        np.asarray(image, dtype=float).reshape(net.input_shape), epsilon, label,
        num_outputs=net.num_classes,
    ))
    return str(model), str(prop)


def brittle_net():
    return Network((1, 4, 1), (Flatten(), QDense(3, np.array(BRITTLE_W),
                                                 quantize_input=False)), 3)


def engine_choices(parser, command):
    sub = next(a for a in parser._actions if a.dest == "command")
    return next(a.choices for a in sub.choices[command]._actions
                if "--engine" in a.option_strings)


class TestMargin:
    def test_tie_beats_a_point(self):
        logits = np.array([3.0, 3.0, 1.0])
        assert margin(logits, logits, 0) == 0.0  # >= 0: beaten
        assert margin(logits, logits, 2) == 2.0

    def test_box_needs_strict_gap(self):
        lo = np.array([3.0, -5.0, 0.0])
        assert margin(np.array([9.0, 3.0, 2.0]), lo, 0) == 0.0  # not proven
        assert margin(np.array([9.0, 2.5, 2.0]), lo, 0) < 0.0  # proven

    def test_batched_rows(self):
        logits = np.array([[1.0, 2.0, 0.0], [5.0, 2.0, 0.0]])
        assert margin(logits, logits, 0).tolist() == [1.0, -3.0]

    def test_no_rival_is_never_beaten(self):
        logits = np.array([[7.0], [-7.0]])
        assert margin(logits, logits, 0).tolist() == [-np.inf, -np.inf]


class TestOneClassNetwork:
    net = Network((1, 2, 1), (Flatten(), QDense(1, np.ones((2, 1)))), 1)
    prop = make_property(np.array([1.0, 2.0]).reshape(1, 2, 1), 1, 0,
                         num_outputs=1)

    @pytest.mark.parametrize("engine", ["ibp", "bab", "brute"])
    def test_complete_engines_verify(self, engine):
        verdict = ENGINES[engine](self.net, self.prop, None, AttackConfig())
        assert verdict.status == "verified"

    def test_falsify_finds_nothing(self):
        # the attack never claims verified; without a rival it has no witness
        verdict = ENGINES["falsify"](self.net, self.prop, None, AttackConfig())
        assert verdict.status == "unknown"

    def test_no_point_is_a_witness(self):
        assert not check_witness(self.net, self.prop, Witness((1.0, 2.0)))


class TestRegistry:
    def test_engine_choices_are_the_registry(self):
        parser = build_parser()
        assert engine_choices(parser, "verify") == tuple(ENGINES)
        assert engine_choices(parser, "run") == tuple(ENGINES)

    def test_falsify_is_verify_engine_falsify(self, tmp_path):
        model, prop = write_instance(tmp_path, brittle_net(), BRITTLE_IMG, 1,
                                     BRITTLE_LABEL)
        out = str(tmp_path / "w")
        witness = os.path.join(out, "net.witness.txt")
        a = run_cli("falsify", model, prop, "--seed", "5", "--out", out)
        wa = open(witness, "rb").read()
        os.remove(witness)
        b = run_cli("verify", model, prop, "--engine", "falsify",
                    "--seed", "5", "--out", out)
        wb = open(witness, "rb").read()
        assert a[0] == b[0] == 1
        assert a[1] == b[1]
        assert wa == wb


class TestCliNoAnswer:
    def test_internal_error_is_unknown_not_falsified(self, tmp_path,
                                                     monkeypatch):
        def broken(net, prop, timeout=None):
            raise RuntimeError("internal error: probe witness failed its "
                               "own check")

        monkeypatch.setattr(runner_mod, "bab_verify", broken)
        model, prop = write_instance(tmp_path, brittle_net(), BRITTLE_IMG, 1,
                                     BRITTLE_LABEL)
        code, out, err = run_cli("verify", model, prop, "--engine", "bab")
        assert code == 2
        assert out.splitlines()[0] == "unknown"
        assert "bnnverify: internal error: probe witness" in err

    def test_brute_budget_refusal_is_unknown(self, tmp_path):
        # 4x4 grid at eps 2 is 5^16 points, far past the refusal budget
        rng = np.random.default_rng(0)
        net = Network((4, 4, 1), (Flatten(), QDense(
            3, rng.choice([-1.0, 1.0], size=(16, 3)), quantize_input=False)), 3)
        img = rng.integers(0, 9, size=(4, 4, 1)).astype(float)
        model, prop = write_instance(tmp_path, net, img, 2, predict(net, img))
        code, out, err = run_cli("verify", model, prop, "--engine", "brute")
        assert code == 2
        assert out.splitlines() == ["unknown"]
        assert "budget" in err


def two_model_suite(tmp_path):
    rng = np.random.default_rng(2)
    models, pool = [], []
    for name in ("m0", "m1"):
        net = Network((2, 2, 1), (Flatten(), QDense(
            3, rng.choice([-1.0, 1.0], size=(4, 3)), quantize_input=False)), 3)
        models.append((name, net))
        for _ in range(2):
            img = rng.integers(0, 9, size=(2, 2, 1)).astype(float)
            pool.append((img, len(pool), predict(net, img)))
    generate_benchmark(models, pool, epsilons=(0, 2), out_dir=str(tmp_path),
                       images_per_model=2, timeout=60.0, seed=2)
    return os.path.join(str(tmp_path), "instances.csv")


class TestRunnerKeepsGoing:
    def test_unexpected_exception_is_error_row(self, tmp_path, monkeypatch,
                                               caplog):
        csv_path = two_model_suite(tmp_path)
        real = runner_mod.bab_verify
        calls = []

        def oom_second_call(net, prop, timeout=None):
            calls.append(prop)
            if len(calls) == 2:
                raise MemoryError("batch too large")
            return real(net, prop, timeout=timeout)

        monkeypatch.setattr(runner_mod, "bab_verify", oom_second_call)
        with caplog.at_level(logging.WARNING, logger="bnnverify.bench"):
            records = run_instances(csv_path, engine="bab")
        brute = run_instances(csv_path, engine="brute")
        assert len(records) == len(brute) > 2
        assert records[1].verdict == "error"
        assert not records[1].penalty
        assert "batch too large" in records[1].detail
        assert "batch too large" in caplog.text
        rest = [i for i in range(len(records)) if i != 1]
        assert [records[i].verdict for i in rest] == \
            [brute[i].verdict for i in rest]
