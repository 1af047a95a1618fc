"""The engine registry, the shared margin, and the CLI and runner paths
that every engine goes through."""

import ast
import io
import logging
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import bnnverify
from bnnverify.bench import ENGINES, generate_benchmark, run_instances
from bnnverify.bench import runner as runner_mod
from bnnverify.cli import build_parser, main
from bnnverify.errors import EngineDeclinedError
from bnnverify.falsify import AttackConfig
from bnnverify.layers import Flatten, QDense
from bnnverify.network import Network, margin, predict
from bnnverify.onnx_io import serialize_model
from bnnverify.verify import FALSIFIED, VERIFIED, Deadline, Verdict
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
        wa = Path(witness).read_bytes()
        os.remove(witness)
        b = run_cli("verify", model, prop, "--engine", "falsify",
                    "--seed", "5", "--out", out)
        wb = Path(witness).read_bytes()
        assert a[0] == b[0] == 1
        assert a[1] == b[1]
        assert wa == wb


class TestCliNoAnswer:
    def test_internal_error_is_unknown_not_falsified(self, tmp_path,
                                                     monkeypatch):
        def broken(net, prop, deadline=None):
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


# The function each registry entry calls, by its name in the runner module.
ENGINE_FUNCTIONS = {"ibp": "verify_ibp", "bab": "bab_verify",
                    "falsify": "falsify", "brute": "brute_force_verify"}


def bad_witness(*args, **kwargs):
    # the image itself keeps its label, so this "counterexample" is wrong
    return Verdict(FALSIFIED, witness=Witness(tuple(BRITTLE_IMG)))


def raising(exc):
    def engine(*args, **kwargs):
        raise exc
    return engine


# failure -> (engine stand-in, run's (verdict, penalty, detail))
FAILURES = {
    "declined": (raising(EngineDeclinedError("grid past the test's budget")),
                 ("unknown", False, "grid past the test's budget")),
    "internal": (raising(RuntimeError("internal error: self-check failed")),
                 ("error", True, "internal error: self-check failed")),
    "unexpected": (raising(MemoryError("batch too large")),
                   ("error", False, "batch too large")),
    "bad-witness": (bad_witness, ("error", True, "witness failed re-check")),
}


class TestEngineContract:
    """Whatever an engine does wrong, ``verify`` answers ``unknown`` with
    exit 2 and the reason on stderr, and ``run`` records the matching row:
    both go through one engine-call path."""

    def test_every_engine_is_swept(self):
        assert set(ENGINE_FUNCTIONS) == set(ENGINES)

    @pytest.mark.parametrize("failure", list(FAILURES))
    @pytest.mark.parametrize("engine", list(ENGINE_FUNCTIONS))
    def test_failure_is_no_answer(self, tmp_path, monkeypatch, engine, failure):
        stand_in, row = FAILURES[failure]
        monkeypatch.setattr(runner_mod, ENGINE_FUNCTIONS[engine], stand_in)
        model, prop = write_instance(tmp_path, brittle_net(), BRITTLE_IMG, 1,
                                     BRITTLE_LABEL)
        out_dir = tmp_path / "witness"
        code, out, err = run_cli("verify", model, prop, "--engine", engine,
                                 "--out", str(out_dir))
        assert (code, out) == (2, "unknown\n")
        assert err == f"bnnverify: {row[2]}\n"
        assert not out_dir.exists()

        csv_path = tmp_path / "instances.csv"
        csv_path.write_text(f"{model},{prop},60\n")
        [record] = run_instances(str(csv_path), engine=engine)
        assert (record.verdict, record.penalty, record.detail) == row

    @pytest.mark.parametrize("engine", list(ENGINE_FUNCTIONS))
    def test_zero_timeout_is_timeout(self, tmp_path, engine):
        # the instance has a witness at eps=1, so only the deadline stops
        # an engine that could answer sat
        model, prop = write_instance(tmp_path, brittle_net(), BRITTLE_IMG, 1,
                                     BRITTLE_LABEL)
        out_dir = tmp_path / "witness"
        code, out, err = run_cli("verify", model, prop, "--engine", engine,
                                 "--timeout", "0", "--out", str(out_dir))
        assert (code, out, err) == (2, "timeout\n", "")
        assert not out_dir.exists()

    def test_the_deadline_counts_the_load(self, tmp_path, monkeypatch):
        """The instance's deadline starts before its files are read, so a
        load that takes the whole timeout leaves the engine none."""
        class StillClock:  # time moves only when the load says so
            now = 0.0

            def monotonic(self):
                return self.now

        clock = StillClock()
        real_load, real_bab = runner_mod.load_property, runner_mod.bab_verify
        expired = []

        def slow_load(path):
            clock.now += 60.0
            return real_load(path)

        def spy(net, prop, deadline=None):
            expired.append(deadline.expired())
            return real_bab(net, prop, deadline=deadline)

        monkeypatch.setattr("bnnverify.verify.verdict.time", clock)
        monkeypatch.setattr(runner_mod, "load_property", slow_load)
        monkeypatch.setattr(runner_mod, "bab_verify", spy)
        model, prop = write_instance(tmp_path, brittle_net(), BRITTLE_IMG, 1,
                                     BRITTLE_LABEL)
        csv_path = tmp_path / "instances.csv"
        csv_path.write_text(f"{model},{prop},60\n")
        [record] = run_instances(str(csv_path), engine="bab")
        assert expired == [True]
        assert (record.verdict, record.seconds) == ("timeout", 60.0)

    @pytest.mark.parametrize("failure", [None] + list(FAILURES))
    def test_only_a_late_answer_becomes_a_timeout(self, tmp_path, monkeypatch,
                                                  failure):
        """``run`` scores an answer past the instance's budget as a timeout,
        a wrong witness included; a decline or a raise keeps its row."""
        class TickingClock:  # each reading one second after the last
            now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now

        if failure is None:
            stand_in, row = (lambda *args, **kwargs: Verdict(VERIFIED)), None
        else:
            stand_in, row = FAILURES[failure]
        if failure in (None, "bad-witness"):
            row = ("timeout", False, "")
        monkeypatch.setattr(runner_mod, "bab_verify", stand_in)
        monkeypatch.setattr("bnnverify.verify.verdict.time", TickingClock())
        model, prop = write_instance(tmp_path, brittle_net(), BRITTLE_IMG, 1,
                                     BRITTLE_LABEL)
        csv_path = tmp_path / "instances.csv"
        csv_path.write_text(f"{model},{prop},0.5\n")
        [record] = run_instances(str(csv_path), engine="bab")
        assert (record.verdict, record.penalty, record.detail) == row
        assert record.seconds >= 1.0


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

        def oom_second_call(net, prop, deadline=None):
            calls.append(prop)
            if len(calls) == 2:
                raise MemoryError("batch too large")
            return real(net, prop, deadline=deadline)

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


def test_only_the_deadline_reads_a_clock():
    """Every engine and the runner time themselves through
    ``verify.verdict.Deadline``; no other module imports ``time`` or reads
    a clock of its own."""
    package = Path(bnnverify.__file__).parent
    readers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                hit = any(a.name.split(".")[0] == "time" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "time"
            else:
                hit = (getattr(node, "attr", None) or getattr(node, "id", None)) in (
                    "monotonic", "perf_counter")
            if hit:
                readers.add(path.relative_to(package).as_posix())
    assert readers == {"verify/verdict.py"}
