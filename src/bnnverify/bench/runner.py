"""Instance runner: engines over an instance CSV with per-instance budgets.

``answer`` is the one engine-call path: ``run`` reaches it through
``run_instances``, and ``verify`` and ``falsify`` call it directly.  It
re-checks every falsified answer against the network, so a witness that
fails its own check becomes an error row with a penalty, and no caller can
claim "sat" without a valid counterexample in hand.  An engine's
internal-error ``RuntimeError`` gets the same penalty row; any other
exception becomes a plain error row, and a declined instance is
``unknown`` with the reason.  A run goes on with the next instance.
"""

import csv
import functools
import io
import logging
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import EngineDeclinedError
from ..falsify import AttackConfig, falsify
from ..onnx_io import parse_model
from ..vnnlib import check_witness, format_witness, parse_property
from ..verify import Deadline, bab_verify, brute_force_verify, verify_ibp
from .generate import read_instances

log = logging.getLogger("bnnverify.bench")

# The engine registry: name -> run(net, prop, deadline, attack) -> Verdict.
# Each entry names its engine function at call time, so replacing that
# function in this module's namespace reaches every caller.
ENGINES = {
    "ibp": lambda net, prop, deadline, attack: verify_ibp(net, prop, deadline),
    "bab": lambda net, prop, deadline, attack: bab_verify(net, prop, deadline),
    "falsify": lambda net, prop, deadline, attack: falsify(net, prop, attack, deadline),
    "brute": lambda net, prop, deadline, attack: brute_force_verify(net, prop, deadline),
}
RESULT_VOCAB = ("unsat", "sat", "unknown", "timeout", "error")
RECHECK_FAILED = "witness failed re-check"


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


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def write_witness(out_dir, stem, text) -> str:
    """Write ``text`` as <stem>.witness.txt under ``out_dir``; return its
    path."""
    path = os.path.join(out_dir, f"{stem}.witness.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def answer(net, prop, engine, deadline, attack) -> VerdictRecord:
    """Run ``ENGINES[engine]`` on a loaded instance under ``deadline``;
    never raises, records a failure instead.  The record names no instance;
    its seconds are ``deadline.elapsed()`` at the engine's return or raise,
    and its detail holds a sat witness's text or the reason for no answer."""
    try:
        verdict = ENGINES[engine](net, prop, deadline, attack)
    except EngineDeclinedError as exc:
        # the engine cannot search the instance (an oversized or empty
        # grid): no answer, not a crash
        return VerdictRecord("", "unknown", deadline.elapsed(), detail=str(exc))
    except Exception as exc:
        # a RuntimeError is an engine's failed self-check (e.g. a witness it
        # built did not re-check), so the row carries a penalty; anything
        # else, bad input or a MemoryError, claims nothing wrong
        log.debug("engine %s raised", engine, exc_info=True)
        return VerdictRecord("", "error", deadline.elapsed(),
                             penalty=isinstance(exc, RuntimeError),
                             detail=str(exc) or repr(exc))
    seconds = deadline.elapsed()
    if not verdict.is_falsified:
        return VerdictRecord("", verdict.result_string(), seconds)
    if not check_witness(net, prop, verdict.witness):
        return VerdictRecord("", "error", seconds, penalty=True, detail=RECHECK_FAILED)
    return VerdictRecord("", "sat", seconds, detail=format_witness(verdict.witness))


def _witness_stems(instances):
    """Each instance's witness file stem: its property's stem, or, where
    that stem repeats in the run, ``<model-stem>.<property-stem>``, since
    two models can share one property file."""
    props = [_stem(inst.property_path) for inst in instances]
    repeats = Counter(props)
    return [f"{_stem(inst.model_path)}.{p}" if repeats[p] > 1 else p
            for inst, p in zip(instances, props)]


def _run_one(inst, engine, attack, load, out_dir, stem):
    """Load one instance and answer it, writing a sat row's witness as
    ``<stem>.witness.txt`` under ``out_dir`` when that is set; raises
    only if that write fails."""
    name = inst.property_path
    deadline = Deadline(inst.timeout_seconds)  # the load counts against it
    try:
        net = load(inst.model_path)
        prop = load_property(inst.property_path)
    except Exception as exc:
        log.warning("error on %s: %r", name, exc, exc_info=True)
        return VerdictRecord(name, "error", deadline.elapsed(),
                             detail=str(exc) or repr(exc))
    record = answer(net, prop, engine, deadline, attack)
    # a decline or a raise, whose row always gives a reason, is no answer
    # and keeps its row
    raised = (record.verdict in ("unknown", "error")
              and record.detail not in ("", RECHECK_FAILED))
    if record.seconds > inst.timeout_seconds and not raised:
        # an answer past the deadline (a node or batch in flight, not the
        # witness re-check) scores as a timeout
        return VerdictRecord(name, "timeout", record.seconds)
    if record.verdict == "error":
        log.log(logging.ERROR if record.penalty else logging.WARNING,
                "error on %s: %s", name, record.detail)
    if record.verdict == "sat" and out_dir is not None:
        record = replace(record, detail="",
                         witness_path=write_witness(out_dir, stem, record.detail))
    return replace(record, instance=name)


def run_instances(csv_path, engine="falsify", parallelism=1, seed=0,
                  out_dir: Optional[str] = None, attack=None) -> list:
    """Run every instance in the CSV; results ordered by instance index.

    Each model file is parsed once per call (a ``Network`` is immutable,
    so its instances share it); a file that fails to load gives an error
    row for every instance that names it.  ``attack`` overrides the
    falsify engine's sample/pass budget (default ``AttackConfig(seed=seed)``).
    With out_dir set, each valid witness is written there when its row is
    answered, as <property-stem>.witness.txt, or as
    <model-stem>.<property-stem>.witness.txt where property stems repeat
    in the CSV, and is referenced from its record.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {tuple(ENGINES)}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if attack is None:
        attack = AttackConfig(seed=seed)
    instances = read_instances(csv_path)
    stems = [None] * len(instances)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stems = _witness_stems(instances)
    # lru_cache keeps no exception, so a failed load is retried per instance
    cached_load = functools.lru_cache(maxsize=None)(load_model)
    if parallelism == 1:
        return [_run_one(inst, engine, attack, cached_load, out_dir, stem)
                for inst, stem in zip(instances, stems)]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(_run_one, inst, engine, attack, cached_load,
                               out_dir, stem)
                   for inst, stem in zip(instances, stems)]
        return [f.result() for f in futures]


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
