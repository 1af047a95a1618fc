"""Instance runner: engines over an instance CSV with per-instance budgets.

Every falsified answer is re-checked against the network before it is
recorded; a witness that fails its own check is downgraded to an error
row and counted as a penalty, so the harness can never claim "sat"
without a valid counterexample in hand.  An engine that raises its own
internal-error ``RuntimeError`` gets the same penalty row; any other
exception becomes a plain error row.  Either way the run goes on with the
next instance.
"""

import csv
import functools
import io
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import EngineDeclinedError
from ..falsify import AttackConfig, falsify
from ..onnx_io import parse_model
from ..vnnlib import check_witness, format_witness, parse_property
from ..verify import bab_verify, brute_force_verify, verify_ibp
from .generate import read_instances

log = logging.getLogger("bnnverify.bench")

# The engine registry: name -> run(net, prop, timeout, attack) -> Verdict.
# Each entry names its engine function at call time, so replacing that
# function in this module's namespace reaches every caller.
ENGINES = {
    "ibp": lambda net, prop, timeout, attack: verify_ibp(net, prop),
    "bab": lambda net, prop, timeout, attack: bab_verify(net, prop,
                                                         timeout=timeout),
    "falsify": lambda net, prop, timeout, attack: falsify(net, prop, attack,
                                                          timeout=timeout),
    "brute": lambda net, prop, timeout, attack: brute_force_verify(net, prop,
                                                                   timeout=timeout),
}
RESULT_VOCAB = ("unsat", "sat", "unknown", "timeout", "error")


@dataclass(frozen=True)
class VerdictRecord:
    instance: str  # property path as named in the CSV
    verdict: str  # unsat | sat | unknown | timeout | error
    seconds: float
    witness_path: str = ""
    penalty: bool = False  # witness failed re-checking, or engine self-check
    detail: str = ""

    def __post_init__(self):
        if self.verdict not in RESULT_VOCAB:
            raise ValueError(f"verdict {self.verdict!r} not in {RESULT_VOCAB}")


def load_model(path):
    with open(path, "rb") as fh:
        return parse_model(fh.read())


def load_property(path):
    """Read a property file as UTF-8 text, with no newline translation."""
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_property(fh.read())


def write_witness(out_dir, instance, text) -> str:
    """Write ``text`` as <instance-stem>.witness.txt under ``out_dir``;
    return its path."""
    stem = os.path.splitext(os.path.basename(instance))[0]
    path = os.path.join(out_dir, f"{stem}.witness.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def run_one(inst, engine, seed=0, attack=None) -> VerdictRecord:
    """Run a single instance; never raises, records a failure instead.

    `attack` overrides the falsify engine's sample/pass budget, for runs
    where the default desk-scale budget is wrong for the model size.
    """
    return _run_one(inst, engine, seed, attack, load_model)


def _run_one(inst, engine, seed, attack, load):
    name = inst.property_path
    if attack is None:
        attack = AttackConfig(seed=seed)
    start = time.monotonic()
    try:
        net = load(inst.model_path)
        prop = load_property(inst.property_path)
        verdict = ENGINES[engine](net, prop, inst.timeout_seconds, attack)
    except EngineDeclinedError as exc:
        # an engine that cannot search the instance (an oversized or
        # empty grid) declines it: no answer, not a crash
        return VerdictRecord(name, "unknown", time.monotonic() - start,
                             detail=str(exc))
    except RuntimeError as exc:
        # an engine's self-check failed (e.g. a witness it built did not
        # re-check): the engine is at fault, so the row carries a penalty
        log.error("internal error on %s: %s", name, exc)
        return VerdictRecord(name, "error", time.monotonic() - start,
                             penalty=True, detail=str(exc))
    except Exception as exc:
        # bad input, or a failure such as MemoryError that claims nothing
        # wrong: no answer and no penalty, and the run goes on
        log.warning("error on %s: %r", name, exc, exc_info=True)
        return VerdictRecord(name, "error", time.monotonic() - start,
                             detail=str(exc))
    elapsed = time.monotonic() - start
    if elapsed > inst.timeout_seconds:
        # budget discipline: a late answer scores as a timeout even when
        # the engine lacks its own deadline support
        return VerdictRecord(name, "timeout", elapsed)
    if verdict.is_falsified:
        if not check_witness(net, prop, verdict.witness):
            log.error("witness for %s failed re-checking", name)
            return VerdictRecord(name, "error", elapsed, penalty=True,
                                 detail="witness failed re-check")
        return VerdictRecord(name, "sat", elapsed,
                             detail=format_witness(verdict.witness))
    return VerdictRecord(name, verdict.result_string(), elapsed)


def run_instances(csv_path, engine="falsify", parallelism=1, seed=0,
                  out_dir: Optional[str] = None, attack=None) -> list:
    """Run every instance in the CSV; results ordered by instance index.

    Each model file is parsed once per call (a ``Network`` is immutable,
    so its instances share it); a file that fails to load gives an error
    row for every instance that names it.  With out_dir set, each valid
    witness is written there as <instance-stem>.witness.txt and
    referenced from its record.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {tuple(ENGINES)}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    instances = read_instances(csv_path)
    # lru_cache keeps no exception, so a failed load is retried per instance
    cached_load = functools.lru_cache(maxsize=None)(load_model)
    if parallelism == 1:
        records = [_run_one(inst, engine, seed, attack, cached_load)
                   for inst in instances]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(_run_one, inst, engine, seed, attack,
                                   cached_load)
                       for inst in instances]
            records = [f.result() for f in futures]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        records = [replace(r, witness_path=write_witness(out_dir, r.instance,
                                                         r.detail), detail="")
                   if r.verdict == "sat" else r for r in records]
    return records


def render_results_csv(records) -> str:
    """Header + one row per instance: instance, verdict, seconds, witness."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["instance", "verdict", "seconds", "witness_path"])
    for r in records:
        writer.writerow([os.path.basename(r.instance), r.verdict,
                         f"{r.seconds:.3f}", r.witness_path])
    return out.getvalue()


def summarize_records(records) -> dict:
    """Counts in the scoring vocabulary: verified/falsified/penalty etc."""
    counts = {
        "verified": 0, "falsified": 0, "unknown": 0,
        "timeout": 0, "error": 0, "penalty": 0,
    }
    for r in records:
        if r.verdict == "unsat":
            counts["verified"] += 1
        elif r.verdict == "sat":
            counts["falsified"] += 1
        else:
            counts[r.verdict] += 1
        if r.penalty:
            counts["penalty"] += 1
    return counts
