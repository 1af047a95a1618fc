"""Measurement primitives for the benchmark: percentiles, spans, digests,
process statistics.  Nothing here imports bnnverify, so the self-tests
run without the package."""

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

# Percentile levels the tail is chosen from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(values, level):
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), level))


def tail_level(n):
    """Highest ladder level with at least TAIL_MIN_BEYOND of n samples above
    it, or None when even the median has fewer."""
    best = None
    for level in TAIL_LADDER:
        # n * (1 - level/100) >= 10, in exact integer arithmetic
        if n * (1000 - int(round(level * 10))) >= TAIL_MIN_BEYOND * 1000:
            best = level
    return best


def summarize_latency(times_by_query):
    """Throughput, median and tail of per-query times, with the level and
    sample count.

    ``times_by_query`` maps each distinct query to the times of its runs in
    the window.  A query that ran more than once counts once, at its median
    time: repeats of identical work are not new samples of the workload,
    and a tail drawn from a few queries met many times would measure those
    few queries.  With fewer than 2 * TAIL_MIN_BEYOND queries the tail
    falls back to the maximum and says so through level None.  Throughput
    is queries per second over one pass of the list, each query at its
    median time, so a window that ends part way through a second pass
    does not weight the queries at the head of the list twice.
    """
    per_query = [statistics.median(times) for times in times_by_query.values()]
    n = len(per_query)
    level = tail_level(n)
    tail = percentile(per_query, level) if level is not None else max(per_query)
    return {"n": n, "runs": sum(len(t) for t in times_by_query.values()),
            "per_s": n / sum(per_query),
            "p50": percentile(per_query, 50.0), "tail": tail, "tail_level": level}


def level_name(level):
    if level is None:
        return "max"
    return "p" + (str(int(level)) if float(level).is_integer() else str(level))


# ---------------------------------------------------------------------------
# spans

class Tracer:
    """In-memory span recorder.

    A span is (name, start, end, parent index, query id, attrs).  Spans are
    opened and closed on one thread in stack order; ``patch`` wraps a
    module attribute so that every call through that name becomes a span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []
        self.query = None

    def open(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.query, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close in stack order")
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def patch(self, module, attr, name, attrs_fn=None, result_fn=None):
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``attrs_fn(*args, **kwargs)`` supplies the span's attributes and
        ``result_fn(result, attrs)`` may add more from the return value.
        """
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn is not None else {}
            index = self.open(name, **attrs)
            try:
                result = inner(*args, **kwargs)
                if result_fn is not None:
                    result_fn(result, self.spans[index][5])
                return result
            finally:
                self.close(index)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, inner))

    def unpatch(self):
        while self._patches:
            module, attr, inner = self._patches.pop()
            setattr(module, attr, inner)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, query, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "query": query, "attrs": attrs}) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its direct children's.
    Spans close in stack order on one thread, so children never overlap
    and never outlive their parent."""
    out = [end - start for _, start, end, *_rest in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            out[span[3]] -= span[2] - span[1]
    return out


# ---------------------------------------------------------------------------
# logits digest

def logits_digest(logits):
    """sha256 of float64 logits with -0.0 folded into +0.0.

    On integer inputs the logits are exact integers, so any correct forward
    yields the same bytes; signed zero is the one harmless difference.
    """
    arr = np.ascontiguousarray(np.asarray(logits, dtype=np.float64) + 0.0)
    return hashlib.sha256(arr.tobytes()).hexdigest()


def check_digests(actual, recorded):
    """Names whose digest differs from (or is missing in) the record."""
    return sorted(k for k in actual if recorded.get(k) != actual[k])


# ---------------------------------------------------------------------------
# process statistics

def peak_rss_mb():
    """Maximum resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def os_threads():
    """Threads of this process, from /proc (None where unavailable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed, workload):
    """Machine and library facts recorded beside every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    thread_env = {k: os.environ[k] for k in
                  ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                  if k in os.environ}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_thread_env": thread_env,
        "machine": platform.machine(),
    }
