"""The traced run: spans around the package's public functions, the
per-layer metrics derived from them, and the per-layer kernel table.

Functions are wrapped at the names their callers import (for example
``bnnverify.falsify.network_forward_batch``), so no package file changes.
Spans inside the package (per-layer IBP, which lives in the private
``_layer_bounds``) wait for in-program instrumentation.
"""

import statistics
import time
from collections import defaultdict

import numpy as np

import bnnverify
import bnnverify.bench.generate
import bnnverify.bench.runner
import bnnverify.falsify
import bnnverify.verify.bab
import bnnverify.verify.brute
import bnnverify.verify.cnf
import bnnverify.verify.intervals
from bnnverify import arch, layers, network, onnx_io, verify, vnnlib

import harness
import workloads

DIGEST_SEED = 20231003
KERNEL_BATCHES = (1, 256)
KERNEL_REPEATS = {1: 7, 256: 1}

# Which workload's spans each module metric is taken from: the workload
# whose end-to-end metric the module should move.
SOURCE = {
    "falsify.random": "sample",
    "falsify.greedy": "greedy",
    "onnx": "sample",
    "vnnlib": "sample",
    "bab": "bab",
    "brute": "oracle",
    "cnf": "oracle",
}


def _images(x):
    return {"images": int(np.asarray(x).shape[0])}


def _one_image(*args, **kwargs):
    return {"images": 1}


def instrument(tracer):
    """Wrap every boundary the per-layer metrics need."""
    F = bnnverify.falsify
    last_batch = {}

    def sampled(net, x):
        last_batch["x"] = x
        return _images(x)

    def random_hit(witness, attrs):
        # position of the witness in the last batch drawn, for useful_ratio
        if witness is not None:
            x = np.asarray(last_batch["x"]).reshape(len(last_batch["x"]), -1)
            row = np.asarray(witness.input_values, dtype=np.float64)
            attrs["last_batch"] = x.shape[0]
            attrs["hit_index"] = int(np.argmax(np.all(x == row, axis=1)))

    def nodes(v, attrs):
        attrs["nodes"] = v.nodes

    def clauses(result, attrs):
        attrs["clauses"] = len(result[0].clauses)

    patches = [
        (F, "network_forward_batch", "network.forward", sampled, None),
        (F, "network_forward", "network.forward", _one_image, None),
        (F, "random_attack", "falsify.random", None, random_hit),
        (F, "greedy_attack", "falsify.greedy", None, None),
        (F, "check_witness", "vnnlib.check_witness", None, None),
        (bnnverify.verify.bab, "network_forward", "network.forward", _one_image, None),
        (bnnverify.verify.bab, "ibp_propagate", "ibp", None, None),
        (bnnverify.verify.bab, "check_witness", "vnnlib.check_witness", None, None),
        (bnnverify.verify.brute, "network_forward_batch", "network.forward",
         lambda net, x: _images(x), None),
        (bnnverify.verify.brute, "check_witness", "vnnlib.check_witness", None, None),
        (bnnverify.verify.intervals, "ibp_propagate", "ibp", None, None),
        (bnnverify.verify.cnf, "ibp_trace", "ibp", None, None),
        (vnnlib, "network_forward", "network.forward", _one_image, None),
        (bnnverify.bench.runner, "read_instances", "runner.read_instances", None, None),
        (bnnverify.bench.runner, "parse_model", "onnx.parse", None, None),
        (bnnverify.bench.runner, "parse_property", "vnnlib.parse", None, None),
        (bnnverify.bench.runner, "falsify", "falsify", None, None),
        (bnnverify.bench.runner, "check_witness", "vnnlib.check_witness", None, None),
        (bnnverify.bench.runner, "format_witness", "vnnlib.format_witness", None, None),
        (bnnverify.bench, "run_instances", "runner.run_instances", None, None),
        (bnnverify.bench.generate, "serialize_model", "onnx.serialize", None, None),
        (onnx_io, "serialize_model", "onnx.serialize", None, None),
        (onnx_io, "parse_model", "onnx.parse", None, None),
        (vnnlib, "render_property", "vnnlib.render", None, None),
        (verify, "verify_ibp", "verify.ibp", None, None),
        (verify, "bab_verify", "bab", None, nodes),
        (verify, "brute_force_verify", "brute", None, nodes),
        (verify, "export_cnf", "cnf.export", None, clauses),
        (verify, "dpll_satisfiable", "cnf.dpll", None, None),
    ]
    for module, attr, name, attrs_fn, result_fn in patches:
        tracer.patch(module, attr, name, attrs_fn, result_fn)


def span_metrics(spans, query_workload, query_arch):
    """Per-layer metrics from the recorded spans.

    ``query_workload`` and ``query_arch`` map query ids to their workload
    and arch; spans outside any query count as set-up.
    """
    selfs = harness.self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    wl = [query_workload.get(s[4], "setup") for s in spans]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)

    def of(name, workload=None, parent=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (workload is None or wl[i] == workload)
                and (parent is None or (s[3] is not None and spans[s[3]][0] == parent))]

    def total(idx):
        return sum(dur[i] for i in idx)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else float("nan")

    def mean_ms(idx):
        return ratio(total(idx), len(idx), 1000.0)

    def attr_sum(idx, key):
        return sum(spans[i][5][key] for i in idx)

    m = {}
    for name in ("sample", "greedy", "bab", "oracle"):
        fwd = of("network.forward", name)
        images = attr_sum(fwd, "images")
        m[f"network.forward.calls.{name}"] = (len(fwd), "count")
        m[f"network.forward.images.{name}"] = (images, "count")
        m[f"network.forward.ms_per_image.{name}"] = (ratio(total(fwd), images, 1000.0), "ms")

    useful = drawn_hit = 0
    for i in of("falsify.random", SOURCE["falsify.random"]):
        attrs = spans[i][5]
        if "hit_index" in attrs:
            drawn = attr_sum([c for c in children[i]
                              if spans[c][0] == "network.forward"], "images")
            useful += drawn - attrs["last_batch"] + attrs["hit_index"] + 1
            drawn_hit += drawn
    rnd_fwd = of("network.forward", SOURCE["falsify.random"], parent="falsify.random")
    m["falsify.random.samples"] = (attr_sum(rnd_fwd, "images"), "count")
    m["falsify.random.useful_ratio"] = (ratio(useful, drawn_hit), "ratio")
    src = SOURCE["falsify.greedy"]
    steps = of("network.forward", src, parent="falsify.greedy")
    m["falsify.greedy.steps"] = (len(steps), "count")
    m["falsify.greedy.ms_per_step"] = (
        ratio(total(of("falsify.greedy", src)), len(steps), 1000.0), "ms")

    for tag in ("A", "B", "XNOR", "tiny"):
        ibp = [i for i in of("ibp") if query_arch.get(spans[i][4]) == tag]
        m[f"ibp.calls.{tag}"] = (len(ibp), "count")
        m[f"ibp.ms_per_call.{tag}"] = (mean_ms(ibp), "ms")

    bab = of("bab", SOURCE["bab"])
    nodes = attr_sum(bab, "nodes")
    m["bab.nodes"] = (nodes, "count")
    m["bab.nodes_per_s"] = (ratio(nodes, total(bab)), "1/s")
    m["bab.probes"] = (len(of("network.forward", SOURCE["bab"], parent="bab")), "count")
    m["bab.self_ms_per_node"] = (ratio(sum(selfs[i] for i in bab), nodes, 1000.0), "ms")

    brute = of("brute", SOURCE["brute"])
    points = attr_sum(brute, "nodes")
    m["brute.points"] = (points, "count")
    m["brute.points_per_s"] = (ratio(points, total(brute)), "1/s")
    export = of("cnf.export", SOURCE["cnf"])
    m["cnf.export_ms"] = (mean_ms(export), "ms")
    m["cnf.clauses"] = (ratio(attr_sum(export, "clauses"), len(export)), "count")
    m["cnf.dpll_ms"] = (mean_ms(of("cnf.dpll", SOURCE["cnf"])), "ms")

    for tag in ("A", "B", "XNOR"):
        for name in ("onnx.parse", "vnnlib.parse"):
            idx = [i for i in of(name, SOURCE[name.split(".")[0]])
                   if query_arch.get(spans[i][4]) == tag]
            m[f"{name}_ms.{tag}"] = (mean_ms(idx), "ms")
    m["vnnlib.check_witness_ms"] = (mean_ms(
        of("vnnlib.check_witness", SOURCE["vnnlib"], parent="runner.run_instances")), "ms")
    m["onnx.serialize_ms"] = (mean_ms(of("onnx.serialize", "setup")), "ms")
    m["vnnlib.render_ms"] = (mean_ms(of("vnnlib.render", "setup")), "ms")
    runs = of("runner.run_instances", "sample")
    m["runner.self_ms_per_query"] = (ratio(sum(selfs[i] for i in runs), len(runs), 1000.0), "ms")
    return m


def digest_networks():
    """Seeded full-size networks and integer-pixel batches for the logits
    digest gate; fixed, independent of the workload seed."""
    rng = np.random.default_rng(DIGEST_SEED)
    out = {}
    for tag, _, build, side in workloads.FULL_SIZE:
        net = arch.with_random_weights(build(side, side), rng)
        images = rng.integers(0, 256, size=(4,) + net.input_shape).astype(np.float64)
        out[tag] = (net, images)
    return out


def logits_digests(nets):
    return {tag: harness.logits_digest(network.network_forward_batch(net, images))
            for tag, (net, images) in nets.items()}


def kernel_table(nets, seed):
    """ms per image of ``layers.layer_forward`` at batch 1 and 256 on
    activations recorded from a seeded integer batch, plus output MiB."""
    rng = np.random.default_rng(seed)
    m = {}
    for tag, (net, _) in nets.items():
        for batch in KERNEL_BATCHES:
            t = rng.integers(0, 256, size=(batch,) + net.input_shape).astype(np.float64)
            for i, layer in enumerate(net.layers):
                times = []
                for _ in range(KERNEL_REPEATS[batch]):
                    start = time.perf_counter()
                    out = layers.layer_forward(t, layer, layer_index=i)
                    times.append(time.perf_counter() - start)
                if not isinstance(layer, layers.Flatten):
                    key = f"layers.{tag}.L{i}-{type(layer).__name__}.b{batch}"
                    m[f"{key}.fwd_ms_per_image"] = (
                        1000.0 * statistics.median(times) / batch, "ms")
                    if batch == max(KERNEL_BATCHES):
                        m[f"{key}.out_mb"] = (out.nbytes / 2.0 ** 20, "MiB")
                t = out
            del t
    return m
