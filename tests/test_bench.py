"""Benchmark generation, the instance runner, scoring, and the PPM codec."""

import io
import logging
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bnnverify.arch import random_tiny_network
from bnnverify.bench import (
    BenchmarkInstance,
    VerdictRecord,
    format_score_table,
    generate_benchmark,
    load_ppm,
    read_instances,
    render_instances_csv,
    render_results_csv,
    run_instances,
    save_ppm,
    score_results,
    summarize_records,
    synthetic_benchmark,
)
from bnnverify.bench import runner as runner_mod
from bnnverify.cli import main
from bnnverify.errors import PpmFormatError, ShapeMismatchError
from bnnverify.falsify import AttackConfig
from bnnverify.layers import Flatten, QDense
from bnnverify.network import Network, predict
from bnnverify.onnx_io import serialize_model
from bnnverify.vnnlib import (
    RobustnessProperty,
    check_witness,
    parse_property,
    parse_witness,
    render_property,
)

TABLE4_COUNTS = [
    ("Marabou", 0, 18, 0, 1),
    ("PyRAT", 0, 7, 0, 1),
    ("NeuralSAT", 0, 31, 0, 4),
    ("alpha-beta-CROWN", 0, 39, 0, 3),
]


class TestPpm:
    def test_single_red_pixel(self):
        data = b"P6\n1 1\n255\n" + bytes([255, 0, 0])
        img = load_ppm(data)
        assert img.shape == (1, 1, 3)
        assert img.tolist() == [[[255.0, 0.0, 0.0]]]

    def test_truncated_raster(self):
        data = b"P6\n2 2\n255\n" + bytes(11)
        with pytest.raises(PpmFormatError, match="truncated"):
            load_ppm(data)

    def test_round_trip_random_images(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h, w = rng.integers(1, 9, size=2)
            img = rng.integers(0, 256, size=(h, w, 3)).astype(float)
            assert np.array_equal(load_ppm(save_ppm(img)), img)

    def test_header_comments_are_skipped(self):
        data = b"P6 # created by hand\n# comment line\n2 1 # w h\n255\n" + bytes(6)
        assert load_ppm(data).shape == (1, 2, 3)

    def test_bad_magic(self):
        with pytest.raises(PpmFormatError, match="magic"):
            load_ppm(b"P5\n1 1\n255\n\x00")

    def test_wrong_maxval(self):
        with pytest.raises(PpmFormatError, match="maxval"):
            load_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")

    def test_short_header(self):
        with pytest.raises(PpmFormatError, match="header"):
            load_ppm(b"P6\n1")

    def test_trailing_bytes_rejected(self):
        data = b"P6\n1 1\n255\n" + bytes(4)
        with pytest.raises(PpmFormatError, match="trailing"):
            load_ppm(data)

    def test_save_rejects_bad_values(self):
        with pytest.raises(ValueError):
            save_ppm(np.full((1, 1, 3), 256.0))
        with pytest.raises(ValueError):
            save_ppm(np.full((1, 1, 3), 0.5))
        with pytest.raises(ValueError):
            save_ppm(np.zeros((2, 2)))


def tiny_with_side(side, rng):
    while True:
        net = random_tiny_network(rng, max_side=side)
        if net.input_shape[0] == net.input_shape[1] == side:
            return net


def tiny_suite(tmp_path, epsilons=(0, 2), timeout=60.0, seed=1):
    """Two tiny models, two correctly-labeled images each."""
    rng = np.random.default_rng(seed)
    models = [("m2", tiny_with_side(2, rng)), ("m3", tiny_with_side(3, rng))]
    pool = []
    idx = 0
    for _, net in models:
        for _ in range(2):
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            pool.append((img, idx, predict(net, img)))
            idx += 1
    generate_benchmark(models, pool, epsilons=epsilons, out_dir=str(tmp_path),
                       images_per_model=2, timeout=timeout, seed=seed)
    return os.path.join(str(tmp_path), "instances.csv")


class TestGenerate:
    def test_default_shape_counts_and_budget(self, tmp_path):
        rng = np.random.default_rng(3)
        models = [(f"m{s}", tiny_with_side(s, rng)) for s in (2, 3, 4)]
        pool = []
        idx = 0
        for _, net in models:
            for _ in range(3):
                img = rng.integers(0, 9, size=net.input_shape).astype(float)
                pool.append((img, idx, predict(net, img)))
                idx += 1
        instances = generate_benchmark(models, pool, out_dir=str(tmp_path))
        assert len(instances) == 3 * 3 * 5 == 45
        assert all(i.timeout_seconds == 480.0 for i in instances)
        assert sum(i.timeout_seconds for i in instances) == 21600.0  # 6 h
        assert len(set((i.model_path, i.property_path) for i in instances)) == 45
        for inst in instances:
            assert os.path.exists(os.path.join(str(tmp_path), inst.model_path))
            assert os.path.exists(os.path.join(str(tmp_path), inst.property_path))

    def test_single_point_instance(self, tmp_path):
        rng = np.random.default_rng(0)
        net = tiny_with_side(3, rng)
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        pool = [(img, 0, predict(net, img))]
        instances = generate_benchmark([("m", net)], pool, epsilons=(0,),
                                       out_dir=str(tmp_path),
                                       images_per_model=1)
        assert len(instances) == 1
        prop = parse_property(
            Path(tmp_path, instances[0].property_path).read_text()
        )
        lo, hi = prop.bounds_arrays()
        assert np.array_equal(lo, hi)

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        dirs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            tiny_suite(d, seed=9)
            dirs.append(d)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name

    def test_filenames_follow_convention(self, tmp_path):
        csv_path = tiny_suite(tmp_path, epsilons=(0, 2))
        for inst in read_instances(csv_path):
            base = os.path.basename(inst.property_path)
            assert base.startswith("model_")
            assert base.endswith(".vnnlib")
            assert "_idx_" in base and "_eps_" in base

    def test_misclassified_image_is_skipped_with_warning(self, tmp_path, caplog):
        rng = np.random.default_rng(2)
        net = tiny_with_side(2, rng)
        good = []
        while len(good) < 2:
            img = rng.integers(0, 9, size=net.input_shape).astype(float)
            good.append((img, len(good), predict(net, img)))
        bad_img = rng.integers(0, 9, size=net.input_shape).astype(float)
        wrong = (predict(net, bad_img) + 1) % net.num_classes
        pool = [(bad_img, 99, wrong)] + good
        with caplog.at_level(logging.WARNING, logger="bnnverify.bench"):
            instances = generate_benchmark([("m", net)], pool, epsilons=(0,),
                                           out_dir=str(tmp_path),
                                           images_per_model=2, seed=0)
        picked = {os.path.basename(i.property_path) for i in instances}
        assert not any("idx_99_" in p for p in picked)
        assert any("misclassified" in r.message for r in caplog.records)

    def test_insufficient_pool_raises(self, tmp_path):
        rng = np.random.default_rng(2)
        net = tiny_with_side(2, rng)
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        pool = [(img, 0, predict(net, img))]
        with pytest.raises(ValueError, match="correctly-classified"):
            generate_benchmark([("m", net)], pool, epsilons=(0,),
                               out_dir=str(tmp_path), images_per_model=2)

    def test_model_that_cannot_be_encoded_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(net, graph_name):
            raise UnicodeEncodeError("utf-8", graph_name, 0, 1, "refused")
        monkeypatch.setattr("bnnverify.bench.generate.serialize_model", refuse)
        rng = np.random.default_rng(2)
        net = tiny_with_side(2, rng)
        img = rng.integers(0, 9, size=net.input_shape).astype(float)
        with pytest.raises(UnicodeEncodeError):
            generate_benchmark([("m", net)], [(img, 0, predict(net, img))],
                               epsilons=(0,), out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_no_shape_match_raises(self, tmp_path):
        rng = np.random.default_rng(2)
        net = tiny_with_side(2, rng)
        pool = [(np.zeros((9, 9, 1)), 0, 0)]
        with pytest.raises(ShapeMismatchError):
            generate_benchmark([("m", net)], pool, epsilons=(0,),
                               out_dir=str(tmp_path), images_per_model=1)

    def test_instance_csv_round_trip(self, tmp_path):
        csv_path = tiny_suite(tmp_path, timeout=30.0)
        text = Path(csv_path).read_text()
        assert "model_path" not in text  # no header
        first = text.splitlines()[0].split(",")
        assert len(first) == 3
        assert first[2] == "30"
        back = read_instances(csv_path)
        assert all(i.timeout_seconds == 30.0 for i in back)
        assert all(os.path.isabs(i.model_path) for i in back)

    def test_invalid_rows(self, tmp_path):
        bad = tmp_path / "instances.csv"
        bad.write_text("a.onnx,b.vnnlib\n")
        with pytest.raises(ValueError, match="3 fields"):
            read_instances(str(bad))
        with pytest.raises(ValueError, match="positive"):
            BenchmarkInstance("a", "b", 0.0)

    def test_render_instances_csv(self):
        text = render_instances_csv(
            [BenchmarkInstance("m.onnx", "p.vnnlib", 480.0)]
        )
        assert text == "m.onnx,p.vnnlib,480\n"


class TestBenchCommand:
    @pytest.mark.parametrize("spelling", ["1e3", "1.0e3", "1E+3"])
    def test_exponent_epsilon_parses_like_its_integer(self, tmp_path, spelling):
        def bench(epsilons, name):
            out_dir = tmp_path / name
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["bench", "--epsilons", epsilons, "--out", str(out_dir)])
            return code, {p.name: p.read_bytes() for p in out_dir.glob("*")}

        code, files = bench(spelling, "exponent")
        assert code == 0
        assert (code, files) == bench("1000", "integer")


class TestRunner:
    def test_bab_and_brute_verdicts_agree(self, tmp_path):
        csv_path = tiny_suite(tmp_path)
        brute = run_instances(csv_path, engine="brute")
        bab = run_instances(csv_path, engine="bab")
        assert [r.verdict for r in brute] == [r.verdict for r in bab]
        got = {r.verdict for r in brute}
        assert got == {"sat", "unsat"}  # suite exercises both outcomes

    def test_parallelism_does_not_change_verdicts(self, tmp_path):
        csv_path = tiny_suite(tmp_path)
        one = run_instances(csv_path, engine="falsify", parallelism=1)
        many = run_instances(csv_path, engine="falsify", parallelism=4)
        assert [r.verdict for r in one] == [r.verdict for r in many]
        assert [r.instance for r in one] == [r.instance for r in many]

    def test_tiny_timeout_records_timeout(self, tmp_path):
        csv_path = tiny_suite(tmp_path, epsilons=(2,), timeout=1e-6)
        records = run_instances(csv_path, engine="bab")
        assert all(r.verdict == "timeout" for r in records)

    def test_witness_files_written_and_valid(self, tmp_path):
        csv_path = tiny_suite(tmp_path)
        out = tmp_path / "results"
        records = run_instances(csv_path, engine="brute", out_dir=str(out))
        sats = [r for r in records if r.verdict == "sat"]
        assert sats
        from bnnverify.onnx_io import parse_model
        for r in sats:
            assert r.witness_path and os.path.exists(r.witness_path)
            w = parse_witness(Path(r.witness_path).read_text())
            inst = next(i for i in read_instances(csv_path)
                        if i.property_path == r.instance)
            net = parse_model(Path(inst.model_path).read_bytes())
            prop = parse_property(Path(inst.property_path).read_text())
            assert check_witness(net, prop, w)
        for r in records:
            if r.verdict != "sat":
                assert r.witness_path == ""

    def test_models_sharing_a_property_get_their_own_witness_files(self, tmp_path):
        # X_2 is pinned at 2, so each model's only counterexample in the
        # box is the other's robust point: a at (2, 0, 2), b at (0, 2, 2)
        def toy(rows):
            return Network(input_shape=(1, 3, 1),
                           layers=(Flatten(), QDense(rows, quantize_input=False)))
        nets = {"a.onnx": toy([[-1, 1], [1, -1], [1, -1]]),
                "b.onnx": toy([[1, -1], [-1, 1], [1, -1]])}
        for name, net in nets.items():
            (tmp_path / name).write_bytes(serialize_model(net))
        box = RobustnessProperty(3, 2, [(0, 2), (0, 2), (2, 2)], 0)
        for name in ("shared.vnnlib", "own.vnnlib"):
            (tmp_path / name).write_text(render_property(box))
        (tmp_path / "instances.csv").write_text(
            "a.onnx,shared.vnnlib,30\nb.onnx,shared.vnnlib,30\n"
            "b.onnx,own.vnnlib,30\n")
        out = tmp_path / "results"
        records = run_instances(str(tmp_path / "instances.csv"), engine="brute",
                                out_dir=str(out))
        assert [r.verdict for r in records] == ["sat"] * 3
        for r, model in zip(records, ("a.onnx", "b.onnx", "b.onnx")):
            w = parse_witness(Path(r.witness_path).read_text())
            assert check_witness(nets[model], box, w)
            other = nets["b.onnx" if model == "a.onnx" else "a.onnx"]
            assert not check_witness(other, box, w)
        # a property stem unique in the run keeps the plain name
        assert [os.path.basename(r.witness_path) for r in records] == [
            "a.shared.witness.txt", "b.shared.witness.txt", "own.witness.txt"]

    def test_unreadable_instance_is_error_row_and_run_continues(self, tmp_path):
        csv_path = tiny_suite(tmp_path, epsilons=(0,))
        with open(csv_path) as fh:
            rows = fh.read().splitlines()
        rows.insert(1, "missing.onnx,missing.vnnlib,60")
        with open(csv_path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        records = run_instances(csv_path, engine="ibp")
        assert records[1].verdict == "error"
        assert records[1].detail
        others = [r for r in records if r is not records[1]]
        assert all(r.verdict in ("unsat", "unknown") for r in others)

    def test_corrupt_model_is_error_row(self, tmp_path):
        csv_path = tiny_suite(tmp_path, epsilons=(0,))
        inst = read_instances(csv_path)[0]
        with open(inst.model_path, "wb") as fh:
            fh.write(b"not a model")
        records = run_instances(csv_path, engine="ibp")
        assert records[0].verdict == "error"

    def test_brute_budget_refusal_becomes_unknown(self, tmp_path):
        # 4x4 grid at eps 2 is 5^16 points, far past the refusal budget
        rng = np.random.default_rng(0)
        net = Network(
            input_shape=(4, 4, 1),
            layers=(Flatten(),
                    QDense(rng.choice([-1.0, 1.0], size=(16, 3)),
                           quantize_input=False)),
        )
        img = rng.integers(0, 9, size=(4, 4, 1)).astype(float)
        pool = [(img, 0, predict(net, img))]
        generate_benchmark([("wide", net)], pool, epsilons=(2,),
                           out_dir=str(tmp_path), images_per_model=1)
        records = run_instances(str(tmp_path / "instances.csv"), engine="brute")
        assert records[0].verdict == "unknown"
        assert "budget" in records[0].detail

    @pytest.mark.parametrize("engine", ["bab", "brute", "falsify"])
    def test_gridless_box_declined_as_unknown(self, tmp_path, engine):
        # X_0 in [0.2, 0.8] holds no integer, so the grid engines decline
        net = Network(
            input_shape=(1, 2, 1),
            layers=(Flatten(), QDense(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                      quantize_input=False)),
        )
        (tmp_path / "net.onnx").write_bytes(serialize_model(net))
        (tmp_path / "box.vnnlib").write_text(render_property(
            RobustnessProperty(2, 2, ((0.2, 0.8), (1.0, 2.0)), 0)))
        (tmp_path / "instances.csv").write_text("net.onnx,box.vnnlib,60\n")
        records = run_instances(str(tmp_path / "instances.csv"), engine=engine)
        assert records[0].verdict == "unknown"
        assert not records[0].penalty
        assert "no integer point in dimension 0" in records[0].detail

    def test_each_model_file_is_parsed_once_per_run(self, tmp_path,
                                                     monkeypatch):
        synthetic_benchmark(str(tmp_path), seed=0)
        csv_path = str(tmp_path / "instances.csv")
        real = runner_mod.parse_model
        calls = []

        def counting(data):
            calls.append(len(data))
            return real(data)

        monkeypatch.setattr(runner_mod, "parse_model", counting)
        # one sample per query: a mix of sat and unknown, in about 3 s
        attack = AttackConfig(max_samples=1, greedy_passes=0)
        records = run_instances(csv_path, engine="falsify", parallelism=1,
                                attack=attack)
        assert len(records) == 45
        assert len(calls) == 3
        assert {r.verdict for r in records} == {"sat", "unknown"}

        # rows naming a missing model file get error rows, and only they;
        # every other row keeps its verdict and witness
        missing = [i % 4 == 0 for i in range(len(records))]
        broken = [replace(inst, model_path="missing.onnx") if gone else inst
                  for inst, gone in zip(read_instances(csv_path), missing)]
        (tmp_path / "broken.csv").write_text(render_instances_csv(broken))
        calls.clear()
        again = run_instances(str(tmp_path / "broken.csv"), engine="falsify",
                              parallelism=1, attack=attack)
        assert len(calls) == 3
        assert [r.verdict == "error" for r in again] == missing
        for before, after, gone in zip(records, again, missing):
            if not gone:
                assert (after.verdict, after.detail) == (before.verdict,
                                                         before.detail)

    def test_failed_witness_check_is_self_policed(self, tmp_path, monkeypatch):
        csv_path = tiny_suite(tmp_path)
        monkeypatch.setattr(runner_mod, "check_witness",
                            lambda net, prop, w: False)
        records = run_instances(csv_path, engine="brute")
        downgraded = [r for r in records if r.penalty]
        assert downgraded
        assert all(r.verdict == "error" for r in downgraded)
        assert not any(r.verdict == "sat" for r in records)
        counts = summarize_records(records)
        assert counts["penalty"] == len(downgraded)
        assert counts["falsified"] == 0

    def test_engine_internal_error_is_penalty_row_and_run_continues(
            self, tmp_path, monkeypatch):
        csv_path = tiny_suite(tmp_path)
        real = runner_mod.bab_verify
        calls = []

        def failing_second_call(net, prop, deadline=None):
            calls.append(prop)
            if len(calls) == 2:
                raise RuntimeError(
                    "internal error: probe witness failed its own check")
            return real(net, prop, deadline=deadline)

        monkeypatch.setattr(runner_mod, "bab_verify", failing_second_call)
        records = run_instances(csv_path, engine="bab")
        brute = run_instances(csv_path, engine="brute")
        assert len(records) == len(brute)
        assert records[1].verdict == "error"
        assert records[1].penalty
        assert "internal error" in records[1].detail
        rest = [i for i in range(len(records)) if i != 1]
        assert [records[i].verdict for i in rest] == \
            [brute[i].verdict for i in rest]
        assert summarize_records(records)["penalty"] == 1

    def test_ibp_and_falsify_stay_in_their_lanes(self, tmp_path):
        csv_path = tiny_suite(tmp_path)
        ibp = run_instances(csv_path, engine="ibp")
        fals = run_instances(csv_path, engine="falsify")
        brute = run_instances(csv_path, engine="brute")
        for i, r in enumerate(ibp):
            assert r.verdict in ("unsat", "unknown")
            if r.verdict == "unsat":  # sound: the oracle must agree
                assert brute[i].verdict == "unsat"
        for i, r in enumerate(fals):
            assert r.verdict in ("sat", "unknown", "timeout")
            if r.verdict == "sat":
                assert brute[i].verdict == "sat"

    def test_engine_and_parallelism_validation(self, tmp_path):
        csv_path = tiny_suite(tmp_path, epsilons=(0,))
        with pytest.raises(ValueError, match="engine"):
            run_instances(csv_path, engine="magic")
        with pytest.raises(ValueError, match="parallelism"):
            run_instances(csv_path, parallelism=0)

    def test_results_csv_format(self):
        records = [
            VerdictRecord("dir/p1.vnnlib", "sat", 0.25, witness_path="w.txt"),
            VerdictRecord("p2.vnnlib", "unsat", 1.5),
        ]
        lines = render_results_csv(records).splitlines()
        assert lines[0] == "instance,verdict,seconds,witness_path"
        assert lines[1] == "p1.vnnlib,sat,0.250,w.txt"
        assert lines[2] == "p2.vnnlib,unsat,1.500,"

    def test_record_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="verdict"):
            VerdictRecord("p", "verified", 0.0)

    def test_summarize_records(self):
        records = [
            VerdictRecord("a", "unsat", 0.1),
            VerdictRecord("b", "sat", 0.1),
            VerdictRecord("c", "sat", 0.1),
            VerdictRecord("d", "timeout", 0.1),
            VerdictRecord("e", "error", 0.1, penalty=True),
        ]
        counts = summarize_records(records)
        assert counts == {"verified": 1, "falsified": 2, "unknown": 0,
                          "timeout": 1, "error": 1, "penalty": 1}


class TestScoring:
    def test_competition_table_reproduced(self):
        rows = score_results(TABLE4_COUNTS)
        by_name = {r.tool_name: r for r in rows}
        assert by_name["Marabou"].score == 30
        assert by_name["Marabou"].percent == 100.0
        assert by_name["PyRAT"].score == -80
        assert by_name["NeuralSAT"].score == -290
        assert by_name["alpha-beta-CROWN"].score == -60
        for name in ("PyRAT", "NeuralSAT", "alpha-beta-CROWN"):
            assert by_name[name].percent == 0.0
        assert [r.tool_name for r in rows] == [
            "Marabou", "alpha-beta-CROWN", "PyRAT", "NeuralSAT",
        ]

    def test_score_formula_and_row_invariant(self):
        (row,) = score_results([("t", 2, 3, 1, 1)])
        assert row.score == 10 * 5 - 150

    def test_fastest_does_not_affect_score(self):
        a = score_results([("t", 0, 5, 0, 0)])[0]
        b = score_results([("t", 0, 5, 5, 0)])[0]
        assert a.score == b.score == 50

    def test_all_negative_scores_give_zero_percent(self):
        rows = score_results([("a", 0, 0, 0, 1), ("b", 0, 1, 0, 2)])
        assert all(r.percent == 0.0 for r in rows)

    def test_validation(self):
        with pytest.raises(ValueError, match="no tool"):
            score_results([])
        with pytest.raises(ValueError, match="non-negative"):
            score_results([("t", -1, 0, 0, 0)])

    def test_table_rendering(self):
        rows = score_results(TABLE4_COUNTS)
        text = format_score_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == list(
            ("rank", "tool", "verified", "falsified", "fastest", "penalty",
             "score", "percent")
        )
        assert lines[1].startswith("1")
        assert "Marabou" in lines[1] and "100%" in lines[1]
