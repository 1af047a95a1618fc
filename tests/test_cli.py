"""Exit codes, verdict lines, and cross-command pipelines."""

import io
import logging
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import bnnverify
from bnnverify.arch import build_arch_a, build_arch_b, random_tiny_network, \
    with_random_weights
from bnnverify.bench import runner as runner_mod
from bnnverify.bench import save_ppm
from bnnverify.cli import main, _configure_logging
from bnnverify.layers import BatchNorm, Flatten, QConv, QDense
from bnnverify.network import Network, predict
from bnnverify.onnx_io import serialize_model
from bnnverify.vnnlib import (
    RobustnessProperty,
    generate_property,
    parse_property,
    render_property,
)

BRITTLE_W = [[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]]
BRITTLE_IMG = [1.0, 1.0, 3.0, 3.0]
BRITTLE_LABEL = 2  # argmax at the image itself; eps=1 admits a flip


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def write_toy(tmp_path, epsilon=1):
    net = Network(
        input_shape=(1, 4, 1),
        layers=(Flatten(), QDense(3, np.array(BRITTLE_W), quantize_input=False)),
        num_classes=3,
    )
    model = tmp_path / "toy.onnx"
    model.write_bytes(serialize_model(net))
    prop = tmp_path / "toy.vnnlib"
    prop.write_text(generate_property(
        np.array(BRITTLE_IMG).reshape(1, 4, 1), epsilon, BRITTLE_LABEL,
        num_outputs=3,
    ))
    return str(model), str(prop)


class TestInspect:
    def test_arch_a_param_line(self, tmp_path):
        rng = np.random.default_rng(0)
        net = with_random_weights(build_arch_a(64, 64), rng)
        path = tmp_path / "a.onnx"
        path.write_bytes(serialize_model(net))
        code, out = run_cli("inspect", str(path))
        assert code == 0
        assert "binary=1772896 real=2368 total=1775264" in out

    def test_arch_b_param_line(self, tmp_path):
        rng = np.random.default_rng(0)
        net = with_random_weights(build_arch_b(48, 48), rng)
        path = tmp_path / "b.onnx"
        path.write_bytes(serialize_model(net))
        code, out = run_cli("inspect", str(path))
        assert code == 0
        assert "total=905120" in out

    def test_truncated_model_exits_65(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = serialize_model(random_tiny_network(rng))
        path = tmp_path / "half.onnx"
        path.write_bytes(data[: len(data) // 2])
        code, _ = run_cli("inspect", str(path))
        assert code == 65
        assert "byte offset" in capsys.readouterr().err

    def test_missing_file_exits_65(self, tmp_path):
        code, _ = run_cli("inspect", str(tmp_path / "nope.onnx"))
        assert code == 65


class TestVerifyCommand:
    def test_point_ball_verifies_with_exit_0(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=0)
        code, out = run_cli("verify", model, prop, "--engine", "brute")
        assert out.splitlines()[0] == "unsat"
        assert code == 0

    def test_falsified_writes_witness_and_exits_1(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        code, out = run_cli("verify", model, prop, "--engine", "bab",
                            "--out", str(tmp_path))
        lines = out.splitlines()
        assert lines[0] == "sat"
        assert code == 1
        assert lines[1].startswith("witness ")
        assert os.path.exists(lines[1].split(" ", 1)[1])

    def test_unknown_exits_2(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=0)
        code, out = run_cli("verify", model, prop, "--engine", "falsify")
        # a point ball around the true label has nothing to falsify
        assert out.splitlines()[0] == "unknown"
        assert code == 2

    def test_timeout_exits_2(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        code, out = run_cli("verify", model, prop, "--engine", "bab",
                            "--timeout", "0")
        assert out.splitlines()[0] == "timeout"
        assert code == 2

    def test_brute_timeout_exits_2(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        code, out = run_cli("verify", model, prop, "--engine", "brute",
                            "--timeout", "0", "--out", str(tmp_path))
        assert out.splitlines()[0] == "timeout"
        assert code == 2

    def test_infinite_bound_exits_65_without_a_verdict(self, tmp_path, capsys):
        model, prop = write_toy(tmp_path, epsilon=1)
        text = Path(prop).read_text()
        old = "(assert (<= X_0 2.00000000))"
        assert old in text
        with open(prop, "w") as fh:
            fh.write(text.replace(old, "(assert (<= X_0 inf))"))
        code, out = run_cli("verify", model, prop, "--engine", "ibp")
        assert code == 65
        assert out == ""
        assert "infinite bound for X_0" in capsys.readouterr().err

    def test_empty_disjunction_exits_65_without_a_verdict(self, tmp_path, capsys):
        model, prop = write_toy(tmp_path, epsilon=1)
        text = Path(prop).read_text()
        start = text.index("(assert (or ")
        with open(prop, "w") as fh:
            fh.write(text[:start] + "(assert (or))\n")
        code, out = run_cli("verify", model, prop, "--engine", "falsify")
        assert code == 65
        assert out == ""
        assert "empty output disjunction" in capsys.readouterr().err

    def test_usage_error_is_64(self):
        code, _ = run_cli("verify")
        assert code == 64
        code, _ = run_cli("frobnicate")
        assert code == 64


class TestFalsifyPipeline:
    def test_falsify_then_check(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        code, out = run_cli("falsify", model, prop, "--out", str(tmp_path))
        lines = out.splitlines()
        assert lines[0] == "sat"
        assert code == 1
        witness_path = lines[1].split(" ", 1)[1]
        code, out = run_cli("check", model, prop, witness_path)
        assert out.splitlines()[0] == "valid"
        assert code == 0

    def test_commands_read_through_the_runner_loaders(self, tmp_path,
                                                      monkeypatch):
        read = []
        for name in ("parse_model", "parse_property"):
            real = getattr(runner_mod, name)
            monkeypatch.setattr(runner_mod, name, lambda data, real=real, name=name:
                                read.append(name) or real(data))
        model, prop = write_toy(tmp_path, epsilon=1)
        code, out = run_cli("falsify", model, prop, "--out", str(tmp_path))
        assert (code, read) == (1, ["parse_model", "parse_property"])
        assert out.splitlines()[1] == f"witness {tmp_path / 'toy.witness.txt'}"

    def test_check_rejects_out_of_ball_witness(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        bad = tmp_path / "bad.witness.txt"
        bad.write_text("(X_0 9001)\n(X_1 1)\n(X_2 3)\n(X_3 3)\n")
        code, out = run_cli("check", model, prop, str(bad))
        assert out.splitlines()[0] == "invalid"
        assert code == 1

    def test_check_rejects_nan_witness(self, tmp_path):
        # the dense layer quantizes, and sign(NaN) = -1 gives logits
        # (0, 0, -2), which beat label 2: only the box test rejects NaN
        net = Network(
            input_shape=(1, 4, 1),
            layers=(Flatten(), QDense(3, np.array(BRITTLE_W),
                                      quantize_input=True)),
            num_classes=3,
        )
        model = tmp_path / "quantized.onnx"
        model.write_bytes(serialize_model(net))
        prop = tmp_path / "quantized.vnnlib"
        prop.write_text(generate_property(
            np.array(BRITTLE_IMG).reshape(1, 4, 1), 1, BRITTLE_LABEL,
            num_outputs=3,
        ))
        bad = tmp_path / "nan.witness.txt"
        bad.write_text("".join(f"(X_{i} nan)\n" for i in range(4)))
        code, out = run_cli("check", str(model), str(prop), str(bad))
        assert out.splitlines()[0] == "invalid"
        assert code == 1

    def test_determinism_under_seed(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        a = run_cli("falsify", model, prop, "--seed", "5",
                    "--out", str(tmp_path / "a"))
        b = run_cli("falsify", model, prop, "--seed", "5",
                    "--out", str(tmp_path / "b"))
        assert a[0] == b[0] == 1
        wa = Path(a[1].splitlines()[1].split(" ", 1)[1]).read_text()
        wb = Path(b[1].splitlines()[1].split(" ", 1)[1]).read_text()
        assert wa == wb


def hide_behind_lone_cr(path, line):
    """Follow ``line`` in the file at ``path`` with a comment that ends in a
    lone carriage return, then ``line`` again.  Only a newline ends a
    comment, so the repeat is commented out; a reader that turns the
    carriage return into a newline reads ``line`` twice."""
    text = Path(path).read_text(encoding="utf-8")
    assert line in text
    Path(path).write_bytes(
        text.replace(line, f"{line} ; caf\u00e9\r{line}", 1).encode("utf-8"))


class TestLoneCarriageReturn:
    """Property and witness files are read as written: a lone ``\\r`` does
    not end a ``;`` comment, in the library or through any command."""

    def test_verify(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=0)
        hide_behind_lone_cr(prop, "(assert (>= X_0 1.00000000))")
        code, out = run_cli("verify", model, prop, "--engine", "brute")
        assert (code, out.splitlines()[0]) == (0, "unsat")

    def test_run(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=0)
        hide_behind_lone_cr(prop, "(assert (>= X_0 1.00000000))")
        csv_path = tmp_path / "instances.csv"
        csv_path.write_text(f"{model},{prop},30\n")
        code, out = run_cli("run", str(csv_path), "--engine", "brute",
                            "--out", str(tmp_path / "results"))
        assert code == 0
        assert out.splitlines()[0].startswith("verified=1 ")

    def test_check(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        code, out = run_cli("falsify", model, prop, "--out", str(tmp_path))
        assert code == 1
        witness = out.splitlines()[1].split(" ", 1)[1]
        hide_behind_lone_cr(prop, "(assert (>= X_0 0.00000000))")
        hide_behind_lone_cr(witness, Path(witness).read_text().splitlines()[0])
        assert run_cli("check", model, prop, witness) == (0, "valid\n")


class TestGenerateCommand:
    def test_property_file_round_trips(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_tiny_network(rng, max_side=3, channels=3)
        model = tmp_path / "m.onnx"
        model.write_bytes(serialize_model(net))
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        ppm = tmp_path / "img.ppm"
        ppm.write_bytes(save_ppm(img))
        code, out = run_cli("generate", str(model), str(ppm),
                            "--epsilon", "2", "--index", "7",
                            "--out", str(tmp_path))
        assert code == 0
        path = out.strip()
        assert os.path.basename(path) == "model_3_idx_7_eps_2.00000.vnnlib"
        prop = parse_property(Path(path).read_text())
        assert prop.target_label == predict(net, img)
        lo, hi = prop.bounds_arrays()
        assert np.array_equal(hi - lo, np.full(img.size, 4.0))

    def test_label_and_clip_flags(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_tiny_network(rng, max_side=3, channels=3)
        model = tmp_path / "m.onnx"
        model.write_bytes(serialize_model(net))
        img = np.zeros(net.input_shape)
        ppm = tmp_path / "img.ppm"
        ppm.write_bytes(save_ppm(img))
        code, out = run_cli("generate", str(model), str(ppm),
                            "--epsilon", "5", "--label", "1", "--clip",
                            "--out", str(tmp_path))
        assert code == 0
        prop = parse_property(Path(out.strip()).read_text())
        assert prop.target_label == 1
        lo, hi = prop.bounds_arrays()
        assert np.all(lo == 0.0)  # clipped at the pixel floor
        assert np.all(hi == 5.0)

    def test_one_class_model_exits_65(self, tmp_path, capsys):
        net = Network((1, 2, 3), (Flatten(), QDense(1, np.ones((6, 1)))), 1)
        model = tmp_path / "one.onnx"
        model.write_bytes(serialize_model(net))
        ppm = tmp_path / "img.ppm"
        ppm.write_bytes(save_ppm(np.zeros((1, 2, 3))))
        code, out = run_cli("generate", str(model), str(ppm), "--epsilon", "1",
                            "--out", str(tmp_path))
        assert code == 65
        assert out == ""
        assert "one output class" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.vnnlib"))


def rgb_benchmark_dirs(tmp_path):
    rng = np.random.default_rng(1)
    models_dir = tmp_path / "models"
    images_dir = tmp_path / "images"
    models_dir.mkdir()
    images_dir.mkdir()
    net = random_tiny_network(rng, max_side=3, channels=3)
    (models_dir / "tiny.onnx").write_bytes(serialize_model(net))
    for i in range(4):
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        label = predict(net, img)
        (images_dir / f"{label}_img{i}.ppm").write_bytes(save_ppm(img))
    return models_dir, images_dir


class TestBenchAndRun:
    def test_bench_then_run(self, tmp_path):
        models_dir, images_dir = rgb_benchmark_dirs(tmp_path)
        out_dir = tmp_path / "bench"
        code, out = run_cli("bench", "--models", str(models_dir),
                            "--images", str(images_dir),
                            "--epsilons", "0,1", "--timeout", "30",
                            "--out", str(out_dir))
        assert code == 0
        assert "6 instances" in out
        csv_path = out_dir / "instances.csv"
        assert csv_path.exists()
        results_dir = tmp_path / "results"
        code, out = run_cli("run", str(csv_path), "--engine", "brute",
                            "--out", str(results_dir))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("verified=")
        results_csv = results_dir / "results.csv"
        assert results_csv.exists()
        body = results_csv.read_text().splitlines()
        assert body[0] == "instance,verdict,seconds,witness_path"
        assert len(body) == 7

    def test_bench_requires_both_dirs(self, tmp_path):
        code, _ = run_cli("bench", "--models", str(tmp_path))
        assert code == 64

    def test_bench_rejects_unlabeled_images(self, tmp_path):
        models_dir, images_dir = rgb_benchmark_dirs(tmp_path)
        (images_dir / "unlabeled.ppm").write_bytes(
            (images_dir / os.listdir(images_dir)[0]).read_bytes()
        )
        code, _ = run_cli("bench", "--models", str(models_dir),
                          "--images", str(images_dir),
                          "--out", str(tmp_path / "x"))
        assert code == 65


class TestCsvEncoding:
    """The instance and results CSVs are UTF-8 under any locale, and a
    path in them names the file with those bytes."""

    def run_in_c_locale(self, *argv, cwd):
        src = str(Path(bnnverify.__file__).resolve().parent.parent)
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        done = subprocess.run([sys.executable, "-m", "bnnverify.cli", *argv],
                              cwd=cwd, env=env, capture_output=True)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    def test_run_in_the_c_locale(self, tmp_path):
        model, prop = write_toy(tmp_path, epsilon=1)
        os.rename(model, tmp_path / "mod\u00e8le.onnx")
        os.rename(prop, tmp_path / "propri\u00e9t\u00e9.vnnlib")
        (tmp_path / "instances.csv").write_bytes(
            "mod\u00e8le.onnx,propri\u00e9t\u00e9.vnnlib,30\n".encode("utf-8"))
        code, out, err = self.run_in_c_locale(
            "run", "instances.csv", "--out", "results", cwd=tmp_path)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].startswith("verified=0 falsified=1 ")
        rows = (tmp_path / "results" / "results.csv").read_bytes()
        witness = "results/propri\u00e9t\u00e9.witness.txt"
        assert rows.decode("utf-8").splitlines()[1].split(",")[::3] == [
            "propri\u00e9t\u00e9.vnnlib", witness]
        assert (tmp_path / witness).exists()

    def test_bench_models_in_the_c_locale(self, tmp_path):
        # the model's file name reaches the generator as surrogate escapes
        models_dir, _ = rgb_benchmark_dirs(tmp_path)
        os.rename(models_dir / "tiny.onnx", models_dir / "mod\u00e8le.onnx")
        code, out, err = self.run_in_c_locale(
            "bench", "--models", "models", "--images", "images",
            "--epsilons", "1", "--out", "bench", cwd=tmp_path)
        assert (code, err) == (0, "")
        model = (tmp_path / "bench" / "mod\u00e8le.onnx").read_bytes()
        assert "mod\u00e8le".encode("utf-8") in model  # the graph name
        rows = (tmp_path / "bench" / "instances.csv").read_bytes().decode("utf-8")
        assert rows.startswith("mod\u00e8le.onnx,")


class TestBadOptionValues:
    """Option values the parser rejects: a usage error, and nothing written."""

    def test_run_jobs_zero_is_usage_error(self, tmp_path):
        model, prop = write_toy(tmp_path)
        csv_path = tmp_path / "instances.csv"
        csv_path.write_text(f"{model},{prop},60\n")
        out_dir = tmp_path / "results"
        code, out = run_cli("run", str(csv_path), "--jobs", "0", "--out", str(out_dir))
        assert (code, out) == (64, "")
        assert not out_dir.exists()

    @pytest.mark.parametrize("epsilons", ["1,x", "1,-1"])
    def test_bench_bad_epsilon_is_usage_error(self, tmp_path, epsilons):
        out_dir = tmp_path / "bench"
        code, out = run_cli("bench", "--epsilons", epsilons, "--out", str(out_dir))
        assert (code, out) == (64, "")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["verify", "falsify"])
    def test_nan_timeout_is_usage_error(self, tmp_path, command):
        model, prop = write_toy(tmp_path, epsilon=1)
        code, out = run_cli(command, model, prop, "--timeout", "nan",
                            "--out", str(tmp_path / "witness"))
        assert (code, out) == (64, "")
        assert not (tmp_path / "witness").exists()

    def test_bench_timeout_zero_is_usage_error(self, tmp_path):
        out_dir = tmp_path / "bench"
        code, out = run_cli("bench", "--timeout", "0", "--out", str(out_dir))
        assert (code, out) == (64, "")
        assert not out_dir.exists()


class TestScoreCommand:
    def test_table4_counts(self):
        code, out = run_cli(
            "score",
            "Marabou:0:18:0:1", "PyRAT:0:7:0:1",
            "NeuralSAT:0:31:0:4", "alpha-beta-CROWN:0:39:0:3",
        )
        assert code == 0
        lines = out.splitlines()
        assert "Marabou" in lines[1] and " 30" in lines[1] and "100%" in lines[1]
        assert lines[1].lstrip().startswith("1")
        assert any("NeuralSAT" in l and "-290" in l and "0%" in l for l in lines)
        assert any("PyRAT" in l and "-80" in l for l in lines)
        assert any("alpha-beta-CROWN" in l and "-60" in l for l in lines)

    def test_malformed_spec_is_usage_error(self):
        code, _ = run_cli("score", "Marabou:1:2")
        assert code == 64


class TestLogging:
    def test_bogus_level_warns_and_continues(self, monkeypatch, caplog):
        monkeypatch.setenv("BNNVERIFY_LOG", "NOISY")
        with caplog.at_level(logging.WARNING, logger="bnnverify.cli"):
            _configure_logging()
        assert any("NOISY" in r.message for r in caplog.records)

    def test_level_applies(self, monkeypatch):
        monkeypatch.setenv("BNNVERIFY_LOG", "debug")
        _configure_logging()  # must not raise


def write_window_model(tmp_path):
    """One pixel X_0 in [0, 1], where class 1 wins only for 0.25 <= X_0 <= 0.75.

    A 1x1 conv copies the pixel to three channels, and the batch norm folds
    them to sign(X_0 - 0.25), sign(0.75 - X_0) and a constant +1.  Both
    integer points, 0 and 1, are classified 0, so the property's only
    counterexamples lie between the grid points.
    """
    net = Network(
        input_shape=(1, 1, 1),
        layers=(
            QConv(3, 1, 1, np.ones((1, 1, 1, 3)), quantize_input=False),
            BatchNorm(gamma=[1.0, -1.0, 0.0], beta=[0.0, 0.0, 1.0],
                      moving_mean=[0.25, 0.75, 0.0], moving_variance=[1.0, 1.0, 1.0]),
            Flatten(),
            QDense(2, np.array([[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])),
        ),
        num_classes=2,
    )
    model = tmp_path / "window.onnx"
    model.write_bytes(serialize_model(net))
    prop = tmp_path / "window.vnnlib"
    prop.write_text(render_property(RobustnessProperty(1, 2, ((0.0, 1.0),), 0)))
    return str(model), str(prop)


def write_gridless_model(tmp_path):
    """Two pixels, X_0 in [0.2, 0.8] and X_1 in [1, 2]: a valid box with no
    integer point in dimension 0, so the grid engines have nothing to
    search."""
    net = Network(
        input_shape=(1, 2, 1),
        layers=(Flatten(), QDense(2, np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                  quantize_input=False)),
        num_classes=2,
    )
    model = tmp_path / "gridless.onnx"
    model.write_bytes(serialize_model(net))
    prop = tmp_path / "gridless.vnnlib"
    prop.write_text(render_property(
        RobustnessProperty(2, 2, ((0.2, 0.8), (1.0, 2.0)), 0)))
    return str(model), str(prop)


class TestGridlessBox:
    @pytest.mark.parametrize("engine", ["bab", "brute", "falsify"])
    def test_grid_engines_decline_with_unknown(self, tmp_path, capsys, engine):
        model, prop = write_gridless_model(tmp_path)
        code, out = run_cli("verify", model, prop, "--engine", engine,
                            "--out", str(tmp_path))
        assert (code, out.splitlines()[0]) == (2, "unknown")
        assert "no integer point in dimension 0" in capsys.readouterr().err


class TestOffGridCounterexample:
    def test_witness_between_grid_points_is_valid(self, tmp_path):
        model, prop = write_window_model(tmp_path)
        witness = tmp_path / "half.witness.txt"
        witness.write_text("(X_0 0.5)\n")
        assert run_cli("check", model, prop, str(witness)) == (0, "valid\n")
        for x in ("0", "1"):
            witness.write_text(f"(X_0 {x})\n")
            assert run_cli("check", model, prop, str(witness))[1] == "invalid\n"

    def test_ibp_does_not_prove_the_box(self, tmp_path):
        model, prop = write_window_model(tmp_path)
        code, out = run_cli("verify", model, prop, "--engine", "ibp")
        assert (code, out.splitlines()[0]) == (2, "unknown")

    # Known defect: bab and brute search only the integer points of the box,
    # so their unsat does not cover X_0 = 0.5.  Which semantics the CLI
    # should give is open (ROADMAP item 8); until then this fails.
    @pytest.mark.xfail(strict=True, reason="bab and brute decide the integer grid only")
    @pytest.mark.parametrize("engine", ["bab", "brute"])
    def test_complete_engines_do_not_prove_a_falsifiable_box(self, tmp_path, engine):
        model, prop = write_window_model(tmp_path)
        code, out = run_cli("verify", model, prop, "--engine", engine,
                            "--out", str(tmp_path))
        assert out.splitlines()[0] != "unsat"
