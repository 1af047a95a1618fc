"""The four benchmark workloads, built from a seed through public entry points.

Every query has a fixed work budget (sample count, greedy passes, BaB node
cap), never a wall-clock one, so verdicts and work counts repeat exactly
for a seed and only time varies.  Each workload object is created by
``setup(out_dir, seed)``: that call is what ``setup_s`` times.  Queries are
run one at a time, in list order, by the closed loop in ``run.py``.

Calls into the package go through module attributes (``verify.bab_verify``,
not a local name), so the traced run can wrap them in place.
"""

import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bnnverify import arch, bench, falsify, network, onnx_io, verify, vnnlib
from bnnverify.falsify import AttackConfig

NUM_CLASSES = 43
# (tag, model stem, build function, side) in the order bench.synthetic_benchmark uses
FULL_SIZE = (
    ("A", "model_64", arch.build_arch_a, 64),
    ("B", "model_48", arch.build_arch_b, 48),
    ("XNOR", "model_30", arch.build_arch_xnor, 30),
)
# Generous per-instance budget written into every CSV: fixed-work queries
# finish far inside it, so the runner never relabels one as a timeout.
CSV_TIMEOUT = 480.0


@dataclass(frozen=True)
class Outcome:
    """What one query answered.  ``key`` must repeat exactly for a seed."""

    verdict: str
    failed: bool
    key: tuple
    data: object = None


@dataclass
class Query:
    qid: str
    arch: str
    kind: str
    run: Callable[[], Outcome]


@dataclass
class Prepared:
    """A set-up workload: its queries in closed-loop order plus what the
    post-run checks need."""

    queries: list
    check: Callable[[dict], list]


def margin(logits, label):
    """Target logit minus the best rival; > 0 means correctly classified."""
    logits = np.asarray(logits, dtype=np.float64)
    return float(logits[label] - np.max(np.delete(logits, label)))


def full_size_models(rng):
    return [(tag, stem, arch.with_random_weights(build(side, side), rng))
            for tag, stem, build, side in FULL_SIZE]


def box_property(image, eps, label, pixels, num_outputs=NUM_CLASSES):
    """eps-ball on the listed flat pixel indices, every other pixel fixed."""
    flat = network.flatten_image(image)
    lo = flat.copy()
    hi = flat.copy()
    idx = np.asarray(sorted(pixels), dtype=np.int64)
    lo[idx] -= eps
    hi[idx] += eps
    return vnnlib.RobustnessProperty(
        num_inputs=flat.size, num_outputs=num_outputs,
        input_bounds=tuple(zip(lo.tolist(), hi.tolist())), target_label=int(label))


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode, **({} if mode == "wb" else {"newline": "\n"})) as fh:
        fh.write(data)


def _instance_csv(out_dir, qid, model_file, prop_file):
    path = os.path.join(out_dir, f"{qid}.csv")
    inst = bench.BenchmarkInstance(model_file, prop_file, CSV_TIMEOUT)
    _write(path, bench.render_instances_csv([inst]))
    return path


def _high_margin_images(net, rng, pool_size, count):
    """The `count` highest-margin images of a seeded random pool, each with
    its predicted label."""
    images = rng.integers(0, 256, size=(pool_size,) + net.input_shape).astype(np.float64)
    logits = network.network_forward_batch(net, images)
    labels = np.argmax(logits, axis=1)
    margins = [margin(row, int(lab)) for row, lab in zip(logits, labels)]
    order = np.argsort(margins, kind="stable")[::-1][:count]
    return [(images[k], int(labels[k])) for k in order]


def _runner_query(qid, tag, kind, csv_path, attack):
    def run():
        rec = bench.run_instances(csv_path, engine="falsify", parallelism=1,
                                  seed=0, attack=attack)[0]
        failed = rec.penalty or rec.verdict in ("error", "timeout")
        return Outcome(rec.verdict, failed, (rec.verdict, rec.detail), rec.detail)
    return Query(qid, tag, kind, run)


_WITNESS_X = re.compile(r"^\(X_(\d+) (\S+)\)$", re.MULTILINE)


def witness_values(text):
    """Input values of a witness file, read here rather than with the
    package's parser, so the re-check does not share its code."""
    pairs = _WITNESS_X.findall(text)
    values = np.empty(len(pairs))
    for index, value in pairs:
        values[int(index)] = float(value)
    return values


def _witness_errors(outcomes, inputs):
    """Independent re-check of every sat witness with check_witness: the
    property is rebuilt in memory (not parsed) and the network is the
    in-memory original, not the ONNX round trip.  ``inputs[qid]`` returns
    (network, property)."""
    errors = []
    for qid, out in sorted(outcomes.items()):
        if out.verdict != "sat":
            continue
        net, prop = inputs[qid]()
        w = vnnlib.witness_from_flat(witness_values(out.data))
        if not vnnlib.check_witness(net, prop, w):
            errors.append(f"{qid}: sat witness fails check_witness")
    return errors


def _interleave(groups):
    """Round-robin over the groups, so every window sees the same mix."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# ---------------------------------------------------------------------------
# sample: the synthetic competition set, random sampling only

SAMPLE_BUDGET = 16  # samples per competition query: one small batch
SAMPLE_WITNESS_FREE_BUDGET = 1024  # one full-size runner batch on XNOR
SAMPLE_WITNESS_FREE_COUNT = 3
SAMPLE_WITNESS_FREE_POOL = 32
_PROP_NAME = re.compile(r"model_(\d+)_idx_(\d+)_eps_([0-9.]+)\.vnnlib$")


def setup_sample(out_dir, seed):
    """bench.synthetic_benchmark's set (same seed, same models and files),
    built through bench.generate_benchmark so the pool images stay in
    hand for the independent witness check; plus witness-free XNOR
    eps-ball queries on the highest-margin images of a seeded pool."""
    rng = np.random.default_rng(seed)
    models = full_size_models(rng)
    pool = []
    for _, _, net in models:
        for _ in range(bench.generate.IMAGES_PER_MODEL):
            image = rng.integers(0, 256, size=net.input_shape).astype(np.float64)
            pool.append((image, len(pool), network.predict(net, image)))
    instances = bench.generate_benchmark(
        [(stem, net) for _, stem, net in models], pool, out_dir=out_dir,
        seed=seed, timeout=CSV_TIMEOUT)

    by_size = {net.input_shape[0]: (tag, net) for tag, _, net in models}
    # the harness keeps arrays, not properties: a large live object graph
    # would slow every garbage collection inside the measured program
    inputs = {}
    groups = {tag: [] for tag, _, _ in models}
    dense = AttackConfig(max_samples=SAMPLE_BUDGET, greedy_passes=0, seed=0)
    for k, inst in enumerate(instances):
        size, idx, eps = _PROP_NAME.search(inst.property_path).groups()
        tag, net = by_size[int(size)]
        image, _, label = pool[int(idx)]
        qid = f"s{k:02d}-{tag}"
        inputs[qid] = _make_property_later(net, image, float(eps), label)
        csv_path = _instance_csv(out_dir, qid, inst.model_path, inst.property_path)
        groups[tag].append(_runner_query(qid, tag, "dense", csv_path, dense))

    xnor_tag, xnor_stem, xnor = models[2]
    free = AttackConfig(max_samples=SAMPLE_WITNESS_FREE_BUDGET, greedy_passes=0, seed=0)
    free_queries = []
    picked = _high_margin_images(xnor, rng, SAMPLE_WITNESS_FREE_POOL,
                                 SAMPLE_WITNESS_FREE_COUNT)
    for j, (image, label) in enumerate(picked):
        qid = f"w{j}-{xnor_tag}"
        prop_file = f"{qid}.vnnlib"
        _write(os.path.join(out_dir, prop_file),
               vnnlib.generate_property(image, 1, label, num_outputs=NUM_CLASSES))
        inputs[qid] = _make_property_later(xnor, image, 1, label)
        csv_path = _instance_csv(out_dir, qid, f"{xnor_stem}.onnx", prop_file)
        free_queries.append(_runner_query(qid, xnor_tag, "witness-free", csv_path, free))

    # one witness-free query after every five A/B/XNOR triples
    triples = _interleave([groups["A"], groups["B"], groups["XNOR"]])
    queries = []
    for i in range(0, len(triples), 15):
        queries.extend(triples[i:i + 15])
        if free_queries:
            queries.append(free_queries.pop(0))
    queries.extend(free_queries)

    return Prepared(queries, lambda outcomes: _witness_errors(outcomes, inputs))


def _make_property_later(net, image, eps, label):
    return lambda: (net, vnnlib.make_property(image, eps, label, NUM_CLASSES))


# ---------------------------------------------------------------------------
# greedy: one greedy pass per query, on in-memory properties

GREEDY_EPS = 1
# Band widths in flat pixels.  A query costs about one batch-2 forward per
# band pixel, so the five groups cost about 0.18 (XNOR 64), 0.35 (B 24),
# 0.37 (A 12), 0.42 (XNOR 160) and 0.6 s (B 48) on a 2-core VM.  With
# five equal groups, p50 falls among the B 24 and A 12 queries and p75
# among the XNOR 160 ones, not on the edge between two groups.
GREEDY_BANDS = {"A": (12,), "B": (24, 48), "XNOR": (64, 160)}
GREEDY_IMAGES = 10  # per arch and band
GREEDY_POOL = 16


def _band(rng, num_inputs, width):
    start = int(rng.integers(0, num_inputs - width + 1))
    return range(start, start + width)


def setup_greedy(out_dir, seed):
    """eps=1 boxes restricted to a band of consecutive pixels around the
    highest-margin images of a seeded pool, on every arch.  From such
    images most passes run to the end without a witness, so the work per
    query depends little on the seed.  Queries call ``falsify.falsify``,
    the function the runner calls, on the ONNX round trip of each model
    and on the in-memory property, so per-query parsing (measured by
    ``sample``) does not hide the pass."""
    rng = np.random.default_rng(seed)
    attack = AttackConfig(max_samples=1, greedy_passes=1, seed=0)
    groups = []
    for tag, stem, built in full_size_models(rng):
        data = onnx_io.serialize_model(built, graph_name=stem)
        _write(os.path.join(out_dir, f"{stem}.onnx"), data)
        net = onnx_io.parse_model(data)
        picked = _high_margin_images(net, rng, GREEDY_POOL, GREEDY_IMAGES)
        for width in GREEDY_BANDS[tag]:
            group = []
            for i, (image, label) in enumerate(picked):
                qid = f"g{width}-{i}-{tag}"
                prop = box_property(image, GREEDY_EPS, label,
                                    _band(rng, net.num_inputs, width))
                _write(os.path.join(out_dir, f"{qid}.vnnlib"), vnnlib.render_property(prop))

                def run(net=net, prop=prop, built=built):
                    v = falsify.falsify(net, prop, attack)
                    wkey = None if v.witness is None else v.witness.input_values
                    return Outcome(v.result_string(), v.status == verify.TIMEOUT,
                                   (v.status, wkey), (built, prop, v))
                group.append(Query(qid, tag, f"band{width}", run))
            groups.append(group)

    def check(outcomes):
        # the in-memory original network, not the ONNX round trip
        return [f"{qid}: sat witness fails check_witness"
                for qid, out in sorted(outcomes.items())
                if out.data[2].is_falsified
                and not vnnlib.check_witness(out.data[0], out.data[1], out.data[2].witness)]

    return Prepared(_interleave(groups), check)


# ---------------------------------------------------------------------------
# bab: branch and bound on narrow patches and on wide boxes

BAB_PATCH_PIXELS = 2  # eps=1 on 2 pixels: 9 grid points, brute checks it
BAB_FULL_MAX_NODES = 8
# (patches, full boxes) per arch.  Patch cost is bimodal and depends on
# the seed: about half settle at the root, the rest branch up to 15 nodes.
# Capped full boxes cost the same for every seed (0.1, 0.26 and 0.45 s on
# XNOR, B and A on a 2-core VM).  These counts put p50 among the XNOR full
# boxes and p75 among the B full boxes, clear of the patches either way;
# arch A gets few patches because its branching ones cost the most.  Full
# boxes make up most of a pass (about 11 of 12.5 s), so how many patches
# branch for a seed moves instances_per_s by about 5%, not 15%.
BAB_COUNTS = {"A": (4, 8), "B": (8, 20), "XNOR": (8, 40)}
BAB_POOL = 48  # full boxes go around the highest-margin images of this pool


def _bab_outcome(v):
    wkey = None if v.witness is None else v.witness.input_values
    return Outcome(v.result_string(), v.status == verify.TIMEOUT,
                   (v.status, v.nodes, wkey), v)


def setup_bab(out_dir, seed):
    """Per arch: patch queries (eps=1 on a few pixels, so IBP is tight and
    BaB finishes) around random images, and full eps=1 boxes under a node
    cap (IBP never prunes there) around high-margin images, where the
    first probes rarely find a witness and nearly every query reaches the
    cap.  The models go through the ONNX codec; properties are written
    as VNN-LIB and the in-memory objects are the ones queried."""
    rng = np.random.default_rng(seed)
    props = {}
    nets = {}
    groups = []
    for tag, stem, built in full_size_models(rng):
        data = onnx_io.serialize_model(built, graph_name=stem)
        _write(os.path.join(out_dir, f"{stem}.onnx"), data)
        net = onnx_io.parse_model(data)
        patch = []
        patches, fulls = BAB_COUNTS[tag]
        for _ in range(patches):
            image = rng.integers(0, 256, size=net.input_shape).astype(np.float64)
            pixels = rng.choice(net.num_inputs, size=BAB_PATCH_PIXELS, replace=False)
            patch.append(("patch", box_property(image, 1, network.predict(net, image),
                                                pixels), None))
        wide = [("full", vnnlib.make_property(image, 1, label, NUM_CLASSES),
                 BAB_FULL_MAX_NODES)
                for image, label in _high_margin_images(net, rng, BAB_POOL, fulls)]
        for bucket in (patch, wide):
            group = []
            for i, (kind, prop, cap) in enumerate(bucket):
                qid = f"{kind[0]}{i}-{tag}"
                _write(os.path.join(out_dir, f"{qid}.vnnlib"), vnnlib.render_property(prop))
                props[qid] = prop
                nets[qid] = net

                def run(net=net, prop=prop, cap=cap):
                    return _bab_outcome(verify.bab_verify(net, prop, max_nodes=cap))
                group.append(Query(qid, tag, kind, run))
            groups.append(group)
    queries = _interleave(groups)
    kinds = {q.qid: q.kind for q in queries}

    def check(outcomes):
        errors = []
        for qid, out in sorted(outcomes.items()):
            v = out.data
            net, prop = nets[qid], props[qid]
            if kinds[qid] == "patch":
                errors.extend(_oracle_errors(qid, net, prop, verify.brute_force_verify(net, prop),
                                             bab=v, ibp=verify.verify_ibp(net, prop)))
            elif v.is_falsified and not vnnlib.check_witness(net, prop, v.witness):
                errors.append(f"{qid}: bab witness fails check_witness")
        return errors

    return Prepared(queries, check)


def _oracle_errors(qid, net, prop, brute, bab, ibp, cnf_sat=None):
    """Disagreements with the brute-force oracle, and witnesses that fail
    check_witness."""
    errors = [f"{qid}: {name} witness fails check_witness"
              for name, v in (("brute", brute), ("bab", bab))
              if v.is_falsified and not vnnlib.check_witness(net, prop, v.witness)]
    if bab.status in (verify.VERIFIED, verify.FALSIFIED) and bab.status != brute.status:
        errors.append(f"{qid}: bab says {bab.status}, brute says {brute.status}")
    if ibp.is_verified and not brute.is_verified:
        errors.append(f"{qid}: ibp verified a box brute falsifies")
    if cnf_sat is False and not brute.is_verified:
        errors.append(f"{qid}: cnf unsat on a box brute falsifies")
    return errors


# ---------------------------------------------------------------------------
# oracle: tiny networks through every engine

# The tail is p95 of a smooth cost distribution, so its spread across
# seeds falls only with the list length: 800 queries leave 40 beyond it.
ORACLE_QUERIES = 800
# eps=1 on 2 pixels: 9 grid points per box.  Wider boxes make uncapped
# BaB cost so heavy-tailed that the mix of the list moves the mean.
ORACLE_PIXELS = 2
ORACLE_MAX_FREE_PHASES = 14  # export_cnf and DPLL only up to this many


def setup_oracle(out_dir, seed):
    """Seeded random_tiny_network queries small enough for brute; each runs
    verify_ibp, bab_verify, brute_force_verify and, when few first-layer
    phases are free, export_cnf plus DPLL."""
    rng = np.random.default_rng(seed)
    queries = []
    for i in range(ORACLE_QUERIES):
        built = arch.random_tiny_network(rng)
        qid = f"o{i:03d}-tiny"
        data = onnx_io.serialize_model(built, graph_name=qid)
        _write(os.path.join(out_dir, f"{qid}.onnx"), data)
        net = onnx_io.parse_model(data)
        image = rng.integers(0, 9, size=net.input_shape).astype(np.float64)
        label = network.predict(net, image)
        pixels = rng.choice(net.num_inputs, size=ORACLE_PIXELS, replace=False)
        prop = box_property(image, 1, label, pixels, num_outputs=net.num_classes)
        _write(os.path.join(out_dir, f"{qid}.vnnlib"), vnnlib.render_property(prop))

        def run(net=net, prop=prop):
            ibp = verify.verify_ibp(net, prop)
            bab = verify.bab_verify(net, prop)
            brute = verify.brute_force_verify(net, prop)
            cnf_sat = clauses = None
            phases = verify.stable_phases_from_box(net, prop)
            if sum(p is None for p in phases) <= ORACLE_MAX_FREE_PHASES:
                formula, _ = verify.export_cnf(net, prop, phases)
                clauses = len(formula.clauses)
                cnf_sat = verify.dpll_satisfiable(formula) is not None
            wkey = None if brute.witness is None else brute.witness.input_values
            key = (ibp.status, bab.status, bab.nodes, brute.status, brute.nodes,
                   wkey, cnf_sat, clauses)
            return Outcome(brute.result_string(), False, key,
                           (net, prop, ibp, bab, brute, cnf_sat))
        queries.append(Query(qid, "tiny", "oracle", run))

    def check(outcomes):
        errors = []
        for qid, out in sorted(outcomes.items()):
            net, prop, ibp, bab, brute, cnf_sat = out.data
            if bab.status not in (verify.VERIFIED, verify.FALSIFIED):
                # uncapped integer-grid BaB is complete
                errors.append(f"{qid}: uncapped bab answered {bab.status}")
            errors.extend(_oracle_errors(qid, net, prop, brute, bab, ibp, cnf_sat))
        return errors

    return Prepared(queries, check)


SETUPS = {
    "sample": setup_sample,
    "greedy": setup_greedy,
    "bab": setup_bab,
    "oracle": setup_oracle,
}
