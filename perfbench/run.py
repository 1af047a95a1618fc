"""Benchmark entry point.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  Each invocation runs one workload in this single process: the
runner's sequential path, closed loop, one query at a time, for at least
``--seconds`` seconds and until every query of the workload has run once.
With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a separate traced run.  A failed correctness gate prints ``correct: false``
and exits 1.  Generated inputs and results go to ``.perfbench_work/``.
"""

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 3
# Queries replayed outside the timed window to prove that verdicts repeat.
REPLAY = 2
# Traced slice of each workload other than the named one, so that every
# module metric is measured in every traced run.
SLICE_SECONDS = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sample", "greedy", "bab", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bnnverify", "__init__.py")):
        sys.exit(f"perfbench: no bnnverify package under {src}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, src)


def timed_setups(setup, name, seed, repeats):
    """Run the workload's set-up `repeats` times into fresh directories;
    returns (seconds per repeat, last prepared workload)."""
    times = []
    prepared = None
    for rep in range(repeats):
        out_dir = os.path.join(WORK, name, f"setup{rep}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        prepared = None
        gc.collect()
        start = time.perf_counter()
        prepared = setup(out_dir, seed)
        times.append(time.perf_counter() - start)
    return times, prepared


def closed_loop(queries, seconds, tracer=None, cover=None):
    """One query at a time, in order, cycling, until `seconds` have passed
    and every value of `cover(query)` has run once; the query in flight at
    the deadline completes and counts."""
    from workloads import Outcome

    done = []
    unseen = {cover(q) for q in queries} if cover is not None else set()
    start = time.perf_counter()
    i = 0
    while True:
        q = queries[i % len(queries)]
        i += 1
        if tracer is not None:
            tracer.query = q.qid
        t0 = time.perf_counter()
        try:
            out = q.run()
        except Exception:  # one bad query must not end the run
            out = Outcome("error", True, ("error",), traceback.format_exc())
            print(f"perfbench: {q.qid} raised\n{out.data}", file=sys.stderr)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.query = None
        done.append((q, out, t1 - t0))
        if cover is not None:
            unseen.discard(cover(q))
        if t1 - start >= seconds and not unseen:
            return done, t1 - start


def check_repeats(done, queries):
    """Verdict keys must repeat exactly within the run: a query met twice
    in the window, and a replay of the first queries after it."""
    errors = []
    keys = {}
    for q, out, _ in done:
        if keys.setdefault(q.qid, out.key) != out.key:
            errors.append(f"{q.qid}: answer changed between two runs of the query")
    for q in queries[:REPLAY]:
        if q.qid in keys and q.run().key != keys[q.qid]:
            errors.append(f"{q.qid}: replay answered differently")
    return errors


def digest_gate(harness, traced):
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    nets = traced.digest_networks()
    actual = traced.logits_digests(nets)
    bad = [f"logits digest of arch {k} differs from {os.path.basename(DIGESTS)}"
           for k in harness.check_digests(actual, recorded)]
    return nets, bad


def end_to_end(args, prepared, setup_times):
    import harness

    # every query runs at least once, so the tail level is fixed by the
    # list length rather than by how fast the machine was during the window
    done, elapsed = closed_loop(prepared.queries, args.seconds, cover=lambda q: q.qid)
    times = {}
    for q, _, seconds in done:
        times.setdefault(q.qid, []).append(seconds)
    lat = harness.summarize_latency(times)
    failed = sum(out.failed for _, out, _ in done)
    metrics = {
        "instances_per_s": (lat["per_s"], "1/s"),
        "query_s.p50": (lat["p50"], "s"),
        "query_s.tail": (lat["tail"], "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "instances_per_s": (f"n={lat['n']} queries at their median times "
                            f"({lat['runs']} runs in {elapsed:.1f} s)"),
        "query_s.p50": f"n={lat['n']} queries ({lat['runs']} runs)",
        "query_s.tail": (f"{harness.level_name(lat['tail_level'])} of n={lat['n']} "
                         f"queries ({lat['runs']} runs)"),
        "setup_s": f"median of {len(setup_times)}",
        "failed_ratio": f"{failed}/{len(done)}",
    }
    return done, failed, metrics, notes


def per_layer(args, nets):
    """The traced run: the named workload untraced and then traced for half
    the window each (their ratio is the tracing overhead), a short traced
    slice of every other workload so that each module metric is measured,
    and the per-layer kernel table."""
    import harness
    import traced
    import workloads

    tracer = harness.Tracer()
    traced.instrument(tracer)
    try:
        prepared = {}
        for name, fn in workloads.SETUPS.items():
            out_dir = os.path.join(WORK, name, "traced")
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            prepared[name] = fn(out_dir, args.seed)
        half = args.seconds / 2.0
        tracer.unpatch()
        plain, plain_s = closed_loop(prepared[args.workload].queries, half)
        traced.instrument(tracer)
        done, done_s = closed_loop(prepared[args.workload].queries, half, tracer)
        slices = {args.workload: done}
        for name, prep in prepared.items():
            if name != args.workload:
                slices[name], _ = closed_loop(prep.queries, SLICE_SECONDS, tracer,
                                              cover=lambda q: (q.arch, q.kind))
    finally:
        tracer.unpatch()
    tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    query_workload = {}
    query_arch = {}
    for name, ran in slices.items():
        for q, _, _ in ran:
            query_workload[q.qid] = name
            query_arch[q.qid] = q.arch
    metrics = traced.span_metrics(tracer.spans, query_workload, query_arch)
    metrics["trace.instances_per_s_ratio"] = (
        (len(done) / done_s) / (len(plain) / plain_s), "ratio")
    metrics.update(traced.kernel_table(nets, args.seed))
    errors = [f"metric {k} is not finite: no traced query reached it"
              for k, (v, _) in metrics.items() if not math.isfinite(v)]
    all_done = [d for ran in slices.values() for d in ran] + plain
    failed = sum(out.failed for _, out, _ in all_done)
    for name, ran in slices.items():
        errors.extend(prepared[name].check({q.qid: out for q, out, _ in ran}))
    return all_done, failed, metrics, errors


def main(argv=None):
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, HERE)
    import harness
    import traced
    import workloads

    env = harness.environment(args.seed, args.workload)
    os.makedirs(WORK, exist_ok=True)
    nets, errors = digest_gate(harness, traced)
    if args.trace:
        done, failed, metrics, check_errors = per_layer(args, nets)
        notes = {}
    else:
        del nets
        setup_times, prepared = timed_setups(workloads.SETUPS[args.workload],
                                             args.workload, args.seed, SETUP_REPEATS)
        gc.collect()
        done, failed, metrics, notes = end_to_end(args, prepared, setup_times)
        outcomes = {q.qid: out for q, out, _ in done}
        check_errors = prepared.check(outcomes)
        check_errors += check_repeats(done, prepared.queries)
    errors += check_errors
    env["threads"] = harness.os_threads()
    if env["threads"] is not None and env["threads"] > env["nproc"]:
        errors.append(f"{env['threads']} threads on {env['nproc']} cores")

    for key, value in sorted(env.items()):
        print(f"env {key} = {value}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{args.workload} {name} = {value:.6g} {unit} {note}".rstrip())
    if not args.trace:
        print(f"{args.workload} failed_ratio = {failed / len(done):.6g} "
              f"({notes['failed_ratio']})")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    result = {
        "correct": not errors,
        "attempted": len(done),
        "failed": failed,
        # a non-finite value already failed a gate above; null keeps the JSON valid
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"environment": env, "errors": errors, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
