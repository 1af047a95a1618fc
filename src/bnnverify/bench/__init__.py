"""Benchmark tooling: image codec, instance generation, running, scoring."""

from .generate import (
    DEFAULT_EPSILONS,
    DEFAULT_TIMEOUT,
    BenchmarkInstance,
    generate_benchmark,
    read_instances,
    render_instances_csv,
    synthetic_benchmark,
)
from .ppm import load_ppm, save_ppm
from .runner import (
    ENGINES,
    VerdictRecord,
    load_model,
    load_property,
    render_results_csv,
    run_instances,
    run_one,
    summarize_records,
    write_witness,
)
from .scoring import ScoreRow, format_score_table, render_score_csv, score_results

__all__ = [
    "DEFAULT_EPSILONS",
    "DEFAULT_TIMEOUT",
    "ENGINES",
    "BenchmarkInstance",
    "ScoreRow",
    "VerdictRecord",
    "format_score_table",
    "generate_benchmark",
    "load_model",
    "load_ppm",
    "load_property",
    "read_instances",
    "render_instances_csv",
    "render_results_csv",
    "render_score_csv",
    "run_instances",
    "run_one",
    "save_ppm",
    "score_results",
    "summarize_records",
    "synthetic_benchmark",
    "write_witness",
]
