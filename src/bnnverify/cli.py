"""Command-line front end.

Exit codes are stable: 0 success or verified, 1 falsified (witness
written), 2 unknown or timeout, 64 usage error, 65 unreadable or
malformed input.  The first stdout line of verify/falsify is exactly one
of "unsat", "sat", "unknown", "timeout".
"""

import argparse
import enum
import logging
import math
import os
import sys

from .bench import (
    ENGINES,
    answer,
    format_score_table,
    generate_benchmark,
    load_model,
    load_ppm,
    load_property,
    render_results_csv,
    run_instances,
    score_results,
    summarize_records,
    synthetic_benchmark,
    write_witness,
)
from .bench.generate import CSV_TEXT
from .errors import BnnVerifyError
from .falsify import AttackConfig
from .layers import BatchNorm, Flatten, MaxPool, QConv
from .network import count_params, predict
from .verify import Deadline
from .vnnlib import (
    check_property_shapes,
    check_witness,
    generate_property,
    parse_witness,
    property_filename,
)

log = logging.getLogger("bnnverify.cli")


class ExitStatus(enum.IntEnum):
    OK = 0
    FALSIFIED = 1
    UNKNOWN = 2
    USAGE = 64
    INPUT_FORMAT = 65


_VERDICT_EXIT = {
    "unsat": ExitStatus.OK,
    "sat": ExitStatus.FALSIFIED,
    "unknown": ExitStatus.UNKNOWN,
    "timeout": ExitStatus.UNKNOWN,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on bad usage instead of the default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(int(ExitStatus.USAGE))


def _read_image(path):
    with open(path, "rb") as fh:
        return load_ppm(fh.read())


def _describe(layer):
    if isinstance(layer, QConv):
        return (f"QConv {layer.kernel_h}x{layer.kernel_w} -> "
                f"{layer.out_channels} channels "
                f"quantize_input={layer.quantize_input}")
    if isinstance(layer, MaxPool):
        return "MaxPool 2x2 stride 2"
    if isinstance(layer, BatchNorm):
        return f"BatchNorm {layer.gamma.size} channels"
    if isinstance(layer, Flatten):
        return "Flatten"
    return (f"QDense -> {layer.out_features} "
            f"quantize_input={layer.quantize_input}")


def cmd_inspect(args):
    net = load_model(args.model)
    shapes = net.layer_shapes()
    print(f"input {shapes[0]}")
    for i, layer in enumerate(net.layers):
        print(f"  {i:2d} {_describe(layer)} -> {shapes[i + 1]}")
    counts = count_params(net)
    print(f"binary={counts.binary} real={counts.real} total={counts.total}")
    return ExitStatus.OK


def cmd_generate(args):
    net = load_model(args.model)
    image = _read_image(args.image)
    label = args.label if args.label is not None else predict(net, image)
    text = generate_property(image, args.epsilon, label, clip=args.clip,
                             num_outputs=net.num_classes,
                             source=(args.index, args.epsilon))
    os.makedirs(args.out, exist_ok=True)
    name = property_filename(net.input_shape[0], args.index, args.epsilon)
    path = os.path.join(args.out, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    print(path)
    return ExitStatus.OK


def _image_pool(images_dir):
    """PPM files named <label>_*.ppm; the prefix is the class label."""
    pool = []
    names = sorted(n for n in os.listdir(images_dir)
                   if n.lower().endswith(".ppm"))
    for index, name in enumerate(names):
        head = name.split("_", 1)[0]
        try:
            label = int(head)
        except ValueError:
            raise BnnVerifyError(
                f"image {name!r}: expected a <label>_*.ppm filename"
            ) from None
        pool.append((_read_image(os.path.join(images_dir, name)), index, label))
    if not pool:
        raise BnnVerifyError(f"no .ppm images under {images_dir}")
    return pool


def cmd_bench(args):
    if (args.models is None) != (args.images is None):
        sys.stderr.write("bnnverify bench: --models and --images go together\n")
        raise SystemExit(int(ExitStatus.USAGE))
    if args.models is None:
        instances = synthetic_benchmark(args.out, seed=args.seed,
                                        epsilons=args.epsilons,
                                        timeout=args.timeout)
    else:
        names = sorted(n for n in os.listdir(args.models)
                       if n.endswith(".onnx"))
        if not names:
            raise BnnVerifyError(f"no .onnx models under {args.models}")
        models = [(os.path.splitext(n)[0],
                   load_model(os.path.join(args.models, n))) for n in names]
        pool = _image_pool(args.images)
        instances = generate_benchmark(models, pool, epsilons=args.epsilons,
                                       out_dir=args.out, seed=args.seed,
                                       timeout=args.timeout)
    print(f"{len(instances)} instances -> "
          f"{os.path.join(args.out, 'instances.csv')}")
    return ExitStatus.OK


def cmd_verify(args):
    deadline = Deadline(args.timeout)  # reading the files counts against it
    net = load_model(args.model)
    prop = load_property(args.property)
    check_property_shapes(net, prop)  # a mismatched pair is bad input
    record = answer(net, prop, args.engine, deadline, AttackConfig(seed=args.seed))
    if record.verdict in ("unknown", "error") and record.detail:
        # a declined instance or a failed engine: no answer, and the reason
        sys.stderr.write(f"bnnverify: {record.detail}\n")
    verdict = "unknown" if record.verdict == "error" else record.verdict
    print(verdict)
    if verdict == "sat":
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.property))[0]
        print(f"witness {write_witness(args.out, stem, record.detail)}")
    return _VERDICT_EXIT[verdict]


def cmd_check(args):
    net = load_model(args.model)
    prop = load_property(args.property)
    with open(args.witness, encoding="utf-8", newline="") as fh:
        witness = parse_witness(fh.read())
    if check_witness(net, prop, witness):
        print("valid")
        return ExitStatus.OK
    print("invalid")
    return ExitStatus.FALSIFIED


def cmd_run(args):
    records = run_instances(args.csv, engine=args.engine,
                            parallelism=args.jobs, seed=args.seed,
                            out_dir=args.out)
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, "results.csv")
    with open(results_path, "w", **CSV_TEXT) as fh:
        fh.write(render_results_csv(records))
    counts = summarize_records(records)
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    print(results_path)
    return ExitStatus.OK


def _counts_spec(text):
    parts = text.split(":")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected NAME:VERIFIED:FALSIFIED:FASTEST:PENALTY"
        )
    try:
        return (parts[0],) + tuple(_non_negative_int(p) for p in parts[1:])
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: counts must be non-negative integers"
        ) from None


def _number(kind, accept, expected):
    """An argparse ``type=`` that parses ``kind`` and refuses a value that
    ``accept`` rejects, as a usage error that says what was ``expected``."""
    def parse(text):
        try:
            value = kind(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r}: expected {expected}")
    return parse


def _finite_non_negative(value):
    return value >= 0 and math.isfinite(value)


_positive_int = _number(int, lambda v: v > 0, "a positive int")
# bench's --timeout, written into the instance CSV as a number of seconds
_positive_float = _number(float, lambda v: v > 0 and math.isfinite(v),
                          "a finite positive float")
_non_negative_int = _number(int, lambda v: v >= 0, "a non-negative int")
_epsilon = _number(float, _finite_non_negative, "a finite non-negative number")
# a float reads "1e3" as 1000, and a number past float as inf
_epsilon_list = _number(
    lambda text: tuple(float(e) for e in text.split(",")),
    lambda eps: all(map(_finite_non_negative, eps)),
    "comma-separated finite non-negative numbers")
# an engine --timeout, counted from before the files are read: any float
# but NaN, which no elapsed time reaches; 0 or less times out at once
_timeout = _number(float, lambda v: not math.isnan(v), "a number of seconds")


def cmd_score(args):
    rows = score_results(args.counts)
    sys.stdout.write(format_score_table(rows))
    return ExitStatus.OK


def build_parser():
    parser = _Parser(prog="bnnverify",
                     description="Local-robustness tools for binarized "
                                 "traffic-sign classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", parents=[], help="print layer chain and "
                       "parameter counts")
    p.add_argument("model")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("generate", help="write a robustness property for "
                       "one image")
    p.add_argument("model")
    p.add_argument("image", help="PPM (P6) image file")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--label", type=_non_negative_int, default=None,
                   help="target label (default: the model's prediction)")
    p.add_argument("--index", type=_non_negative_int, default=0,
                   help="image index used in the property filename")
    p.add_argument("--clip", action="store_true",
                   help="clip bounds to the [0, 255] pixel range")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="generate a benchmark set "
                       "(synthetic models unless --models/--images given)")
    p.add_argument("--models", default=None, help="directory of .onnx models")
    p.add_argument("--images", default=None,
                   help="directory of <label>_*.ppm images")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--epsilons", type=_epsilon_list, default="1,3,5,10,15")
    p.add_argument("--timeout", type=_positive_float, default=480.0)
    p.add_argument("--out", default="benchmark")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="decide one instance")
    p.add_argument("model")
    p.add_argument("property")
    p.add_argument("--engine", choices=tuple(ENGINES), default="bab")
    p.add_argument("--timeout", type=_timeout, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default=".",
                   help="directory for the witness file on sat")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("falsify", help="search for a counterexample")
    p.add_argument("model")
    p.add_argument("property")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--timeout", type=_timeout, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_verify, engine="falsify")

    p = sub.add_parser("check", help="validate a witness against an instance")
    p.add_argument("model")
    p.add_argument("property")
    p.add_argument("witness")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="run an engine over an instance CSV")
    p.add_argument("csv")
    p.add_argument("--engine", choices=tuple(ENGINES), default="falsify")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", help="rank tools by competition score")
    p.add_argument("counts", nargs="+", type=_counts_spec,
                   metavar="NAME:VERIFIED:FALSIFIED:FASTEST:PENALTY")
    p.set_defaults(func=cmd_score)

    return parser


def _configure_logging():
    level_name = os.environ.get("BNNVERIFY_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if not isinstance(level, int):
            log.warning("BNNVERIFY_LOG=%r is not a log level", level_name)
            level = logging.INFO
        logging.basicConfig(level=level)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit(0) for --help
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (BnnVerifyError, OSError, ValueError) as exc:
        sys.stderr.write(f"bnnverify: {exc}\n")
        return int(ExitStatus.INPUT_FORMAT)


if __name__ == "__main__":
    sys.exit(main())
