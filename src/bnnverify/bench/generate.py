"""Benchmark-set generation: models, images, property files, instance CSV.

The default configuration mirrors the released traffic-sign set: three
models, three correctly-classified images each, perturbation radii
{1, 3, 5, 10, 15}, one 480-second budget per instance, 45 instances.
"""

import csv
import io
import logging
import os
from dataclasses import dataclass

import numpy as np

from ..arch import build_arch_a, build_arch_b, build_arch_xnor, with_random_weights
from ..errors import ShapeMismatchError
from ..network import predict
from ..onnx_io import serialize_model
from ..vnnlib import generate_property, property_filename

log = logging.getLogger("bnnverify.bench")

# The instance and results CSVs are UTF-8 under any locale.  A path in
# them names the file with those bytes: ``_file_name`` maps it to the name
# that ``open`` takes, and a name that is not UTF-8 travels both ways as
# surrogate escapes.
CSV_TEXT = {"encoding": "utf-8", "errors": "surrogateescape", "newline": ""}

DEFAULT_EPSILONS = (1, 3, 5, 10, 15)
DEFAULT_TIMEOUT = 480.0
IMAGES_PER_MODEL = 3


@dataclass(frozen=True)
class BenchmarkInstance:
    model_path: str
    property_path: str
    timeout_seconds: float

    def __post_init__(self):
        if not self.timeout_seconds > 0:
            raise ValueError(
                f"instance timeout must be positive, got {self.timeout_seconds}"
            )


def _fmt_timeout(t: float) -> str:
    return str(int(t)) if float(t) == int(t) else repr(float(t))


def render_instances_csv(instances) -> str:
    """Three comma-separated fields per line, no header."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for inst in instances:
        writer.writerow(
            [inst.model_path, inst.property_path, _fmt_timeout(inst.timeout_seconds)]
        )
    return out.getvalue()


def read_instances(csv_path) -> list:
    """Parse an instance CSV; relative paths resolve against the CSV's dir."""
    base = os.path.dirname(os.path.abspath(csv_path))
    instances = []
    with open(csv_path, **CSV_TEXT) as fh:
        for row in csv.reader(fh):
            if not row or all(not field.strip() for field in row):
                continue
            if len(row) != 3:
                raise ValueError(
                    f"{csv_path}: expected 3 fields per row, got {len(row)}: {row!r}"
                )
            model, prop, timeout = (field.strip() for field in row)
            instances.append(
                BenchmarkInstance(
                    model_path=os.path.join(base, _file_name(model)),
                    property_path=os.path.join(base, _file_name(prop)),
                    timeout_seconds=float(timeout),
                )
            )
    return instances


def _file_name(text):
    """The file name whose bytes are ``text`` in UTF-8, in the form that
    ``open`` takes under the locale's file-name encoding."""
    return os.fsdecode(text.encode("utf-8", "surrogateescape"))


def _select_images(net, pool, rng, count):
    """Seeded selection of `count` distinct pool entries the net classifies
    correctly.  Misclassified or wrongly-shaped candidates are skipped with
    a log line and the draw continues down the shuffled order."""
    order = rng.permutation(len(pool))
    picked = []
    any_shape_match = False
    for k in order:
        image, index, label = pool[int(k)]
        if np.asarray(image).shape != net.input_shape:
            continue
        any_shape_match = True
        if predict(net, image) != label:
            log.warning(
                "image idx %s misclassified by the model; resampling", index
            )
            continue
        picked.append((image, index, label))
        if len(picked) == count:
            return picked
    if not any_shape_match:
        raise ShapeMismatchError(
            "no candidate image matches the model input",
            expected=net.input_shape,
        )
    raise ValueError(
        f"pool has only {len(picked)} correctly-classified images, need {count}"
    )


def generate_benchmark(models, images, epsilons=DEFAULT_EPSILONS, out_dir=".",
                       images_per_model=IMAGES_PER_MODEL,
                       timeout=DEFAULT_TIMEOUT, seed=0, clip=False) -> list:
    """Write model files, property files, and instances.csv under out_dir.

    models: (name, network) pairs; images: (tensor, index, label) pool.
    Returns the instance list, |models| x images_per_model x |epsilons|
    long.  Fixed seed means byte-identical output files.
    """
    epsilons = tuple(epsilons)
    if not models or not epsilons or images_per_model < 1:
        raise ValueError("need at least one model, image and epsilon")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    instances = []
    seen_pairs = set()
    for name, net in models:
        model_file = f"{name}.onnx"
        # encoded before the file opens, so a failure leaves no file; the
        # graph name is the file name's UTF-8 text, since a name read under
        # a non-UTF-8 locale carries surrogate escapes
        model = serialize_model(net, graph_name=os.fsencode(name).decode("utf-8", "replace"))
        with open(os.path.join(out_dir, model_file), "wb") as fh:
            fh.write(model)
        size = net.input_shape[0]
        for image, index, label in _select_images(net, images, rng,
                                                  images_per_model):
            for eps in epsilons:
                prop_file = property_filename(size, index, eps)
                # a property file is a pure function of its pool entry, so
                # two models sharing an image rewrite identical bytes; only
                # the (model, property) pair must be unique
                if (model_file, prop_file) in seen_pairs:
                    raise ValueError(f"duplicate instance {model_file},{prop_file}")
                seen_pairs.add((model_file, prop_file))
                text = generate_property(
                    image, eps, label, clip=clip,
                    num_outputs=net.num_classes, source=(index, eps),
                )
                with open(os.path.join(out_dir, prop_file), "w",
                          newline="\n") as fh:
                    fh.write(text)
                instances.append(
                    BenchmarkInstance(model_file, prop_file, float(timeout))
                )
    with open(os.path.join(out_dir, "instances.csv"), "w", **CSV_TEXT) as fh:
        fh.write(render_instances_csv(instances))
    return instances


def synthetic_benchmark(out_dir, seed=0, epsilons=DEFAULT_EPSILONS,
                        timeout=DEFAULT_TIMEOUT) -> list:
    """Self-contained default set: three full-size architectures with
    random signs and calibrated norm layers, plus random images labeled by
    each model's own prediction (so the correct-classification filter is
    satisfied by construction)."""
    rng = np.random.default_rng(seed)
    models = [
        ("model_64", with_random_weights(build_arch_a(64, 64), rng)),
        ("model_48", with_random_weights(build_arch_b(48, 48), rng)),
        ("model_30", with_random_weights(build_arch_xnor(30, 30), rng)),
    ]
    pool = []
    idx = 0
    for _, net in models:
        for _ in range(IMAGES_PER_MODEL):
            image = rng.integers(0, 256, size=net.input_shape).astype(np.float64)
            pool.append((image, idx, predict(net, image)))
            idx += 1
    return generate_benchmark(models, pool, epsilons=epsilons, out_dir=out_dir,
                              timeout=timeout, seed=seed)
