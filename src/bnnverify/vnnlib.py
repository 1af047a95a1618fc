"""Local-robustness property files: generation, parsing, witness checking.

A property file declares one Real variable per input pixel (``X_0`` ..
``X_{P-1}``, flat index ``(row*W + col)*C + channel``) and one per class
logit (``Y_0`` .. ``Y_{L-1}``), bounds every pixel inside the epsilon
ball, and asserts the negation of "the classifier answers the target
label": a disjunction of ``(>= Y_j Y_target)`` over all other labels.
A satisfying assignment is therefore a counterexample to robustness.

Property and witness files are read by one reader, ``_read_runs``.  It
matches runs of forms of one fixed shape (declarations, bounds, the
output constraint, witness entries) and reads their indices and numbers
in bulk; a form of any other shape is refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import PropertyFormatError, ShapeMismatchError, WitnessFormatError
from .network import Network, flatten_image, image_from_flat, margin, network_forward

PIXEL_MIN = 0.0
PIXEL_MAX = 255.0


def _fill(template: str, *columns) -> str:
    """``template`` once per row, all rows filled in one ``%`` call.

    Row r takes element r of each column in order: an index for a ``%d``,
    a float for a ``%.8f``.  Every ``%.8f`` follows a space in the
    template, so a value printed as -0.00000000 is found by that text and
    written 0.00000000, which keeps files reproducible.
    """
    rows = np.empty((len(columns[0]), len(columns)), dtype=object)
    for k, column in enumerate(columns):
        rows[:, k] = column
    text = (template * len(rows)) % tuple(rows.ravel().tolist())
    return text.replace(" -0.00000000", " 0.00000000")


def _check_bounds(lo, hi):
    """Raise ValueError naming the first X_i whose bounds are NaN,
    infinite or crossed.  An infinite bound is refused because interval
    arithmetic on it gives ``inf - inf = NaN``, which a sign then reads as
    a definite phase."""
    bad = ~((lo <= hi) & np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        i = int(np.argmax(bad))
        if np.isnan(lo[i]) or np.isnan(hi[i]):
            raise ValueError(f"NaN bound for X_{i}: [{lo[i]}, {hi[i]}]")
        if np.isinf(lo[i]) or np.isinf(hi[i]):
            raise ValueError(f"infinite bound for X_{i}: [{lo[i]}, {hi[i]}]")
        raise ValueError(f"crossed bounds for X_{i}: [{lo[i]}, {hi[i]}]")


@dataclass(frozen=True, init=False, eq=False)
class RobustnessProperty:
    """One untargeted local-robustness query around a single image.

    The box is kept only as ``lo`` and ``hi``, read-only float64 vectors
    of length ``num_inputs``.  The constructor takes it as
    ``input_bounds``: a tuple of ``(lo, hi)`` pairs or any
    ``(num_inputs, 2)`` array-like.  The ``input_bounds`` property gives
    it back as that tuple of float pairs.  Equality is by value.
    """

    num_inputs: int
    num_outputs: int
    target_label: int
    source: Optional[tuple]  # (image_index, epsilon) when known
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)

    def __init__(self, num_inputs, num_outputs, input_bounds, target_label,
                 source=None):
        pairs = np.asarray(input_bounds, dtype=np.float64)
        if len(pairs) != num_inputs:
            raise ValueError(
                f"expected {num_inputs} bound pairs, got {len(pairs)}")
        if not 0 <= target_label < num_outputs:
            raise ValueError(
                f"target label {target_label} outside [0, {num_outputs})")
        pairs = pairs.reshape(num_inputs, 2)
        lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
        _check_bounds(lo, hi)
        lo.flags.writeable = hi.flags.writeable = False
        for name, value in dict(num_inputs=num_inputs, num_outputs=num_outputs,
                                target_label=target_label, source=source,
                                lo=lo, hi=hi).items():
            object.__setattr__(self, name, value)

    @property
    def input_bounds(self) -> tuple:
        """``((lo, hi), ...)`` as Python floats, one pair per input."""
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    def _key(self):
        # bounds are never NaN, and adding 0.0 turns -0.0 into 0.0, so
        # equal bytes mean equal values
        return (self.num_inputs, self.num_outputs, self.target_label,
                self.source, (self.lo + 0.0).tobytes(),
                (self.hi + 0.0).tobytes())

    def __eq__(self, other):
        if not isinstance(other, RobustnessProperty):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def bounds_arrays(self) -> tuple:
        """Lower and upper bound vectors as writable float64 arrays."""
        return self.lo.copy(), self.hi.copy()


def check_property_shapes(net: Network, prop: RobustnessProperty) -> None:
    """Raise ShapeMismatchError unless ``net`` and ``prop`` agree on the
    input and class counts."""
    if net.num_inputs != prop.num_inputs or net.num_classes != prop.num_outputs:
        raise ShapeMismatchError(
            "network and property disagree on dimensions",
            expected=(net.num_inputs, net.num_classes),
            actual=(prop.num_inputs, prop.num_outputs),
        )


@dataclass(frozen=True)
class Witness:
    """Candidate counterexample: a flat input vector, optionally with logits."""

    input_values: tuple
    output_values: Optional[tuple] = None


def make_property(image, epsilon, label, num_outputs=43, clip=False,
                  source=None) -> RobustnessProperty:
    """Build the epsilon-ball robustness query around one raw-pixel image."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    flat = flatten_image(np.asarray(image, dtype=np.float64))
    if not 0 <= label < num_outputs:
        raise ValueError(f"label {label} outside [0, {num_outputs})")
    lo, hi = flat - float(epsilon), flat + float(epsilon)
    if clip:
        lo, hi = np.maximum(lo, PIXEL_MIN), np.minimum(hi, PIXEL_MAX)
    return RobustnessProperty(
        num_inputs=flat.size,
        num_outputs=int(num_outputs),
        input_bounds=np.column_stack((lo, hi)),
        target_label=int(label),
        source=source,
    )


def render_property(prop: RobustnessProperty) -> str:
    """Serialize a query in the SMT-LIB subset used by the benchmark files."""
    others = [j for j in range(prop.num_outputs) if j != prop.target_label]
    if not others:
        raise ValueError(
            "a property with one output class has no rival label, and the "
            "file format cannot state it: an empty disjunction loses the "
            "target label"
        )
    n, t = prop.num_inputs, prop.target_label
    text = (f"; robustness query: {n} inputs, {prop.num_outputs} outputs, "
            f"target label {t}\n")
    if prop.source is not None:
        idx, eps = prop.source
        text += f"; image index {idx}, epsilon" + _fill(" %.8f\n", [float(eps)])
    head = "(assert (or "
    rivals = ("\n" + " " * len(head)).join(f"(>= Y_{j} Y_{t})" for j in others)
    return (text + "\n"
            + _fill("(declare-const X_%d Real)\n", range(n))
            + _fill("(declare-const Y_%d Real)\n", range(prop.num_outputs)) + "\n"
            + _fill("(assert (<= X_%d %.8f))\n(assert (>= X_%d %.8f))\n",
                    range(n), prop.hi, range(n), prop.lo) + "\n"
            + head + rivals + "))\n")


def generate_property(image, epsilon, label, clip=False, num_outputs=43,
                      source=None) -> str:
    return render_property(
        make_property(image, epsilon, label, num_outputs=num_outputs,
                      clip=clip, source=source)
    )


def property_filename(size: int, image_index: int, epsilon: float) -> str:
    return f"model_{size}_idx_{image_index}_eps_{epsilon:.5f}.vnnlib"


# ---------------------------------------------------------------------------
# parsing

_COMMENT = re.compile(r";[^\n]*")
_TOKEN = re.compile(r"[()]|[^\s();]+")
_VARIABLE = re.compile(r"[XY]_[0-9]+")
_PARENS = str.maketrans("()", "  ")


def _run(form):
    """The pattern of a run of ``form``, which must hold no capturing
    group.  The regex engine keeps a record per repeat until a match
    ends: a run stops at 1024 forms to bound it."""
    return re.compile(r"(?:\s*%s){1,1024}" % form)


# Both file kinds are almost entirely forms of a few fixed shapes, each
# read in runs of one shape and split into atoms at a fixed stride.
_DISJUNCT = r"\(\s*>=\s+Y_[0-9]+\s+Y_[0-9]+\s*\)"
_X_DECLS, _Y_DECLS = (_run(r"\(\s*declare-const\s+%s_[0-9]+\s+Real\s*\)" % prefix)
                      for prefix in "XY")
_BOUNDS = _run(r"\(\s*assert\s*\(\s*[<>]=\s+X_[0-9]+\s+[^\s();]+\s*\)\s*\)")
_OUTPUT = _run(r"\(\s*assert\s*(?:\(\s*or(?:\s*%s)*\s*\)|%s)\s*\)"
               % (_DISJUNCT, _DISJUNCT))
_X_ENTRIES, _Y_ENTRIES = (_run(r"\(\s*%s_[0-9]+\s+[^\s();]+\s*\)" % prefix)
                          for prefix in "XY")
_WRAPPED = re.compile(r"\s*\((\s*\(.*\)\s*)\)\s*", re.S)

# Per run pattern: the atoms in one form, the positions of the atoms kept
# as text, and the position of the number, if the form holds one.
_SHAPES = {
    _X_DECLS: (3, (1,), None),  # declare-const X_i Real
    _Y_DECLS: (3, (1,), None),
    _BOUNDS: (4, (1, 2), 3),  # assert <= X_i v
    _OUTPUT: (1, (0,), None),  # assert [or] >= Y_j Y_t ...
    _X_ENTRIES: (2, (0,), 1),  # X_i v
    _Y_ENTRIES: (2, (0,), 1),
}


def _read_runs(text, runs, error_cls):
    """Read comment-free ``text`` as runs of the forms that the patterns
    ``runs`` match, split as ``_SHAPES`` says.

    Returns, per pattern, its text columns and its numbers.  A text column
    holds the atoms at one kept position of every form the pattern
    matched, in text order, as one string joined by spaces.  The numbers
    are one float64 array, empty for forms that hold none.  Runs start
    only at depth 0, so a form nested in another is read as written, a
    token at a time.  Any form that no run takes is refused with
    ``error_cls``, which names it.
    """
    columns = {run: ([[] for _ in _SHAPES[run][1]], [np.empty(0)]) for run in runs}
    rest = []
    pos = depth = 0
    while m := (not depth and next(filter(None, (run.match(text, pos) for run in runs)), None)
                or _TOKEN.search(text, pos)):
        pos = m.end()
        if m.re is _TOKEN:
            rest.append(m.group())
            depth += (rest[-1] == "(") - (rest[-1] == ")")
            continue
        atoms = m.group().translate(_PARENS).split()
        stride, kept, number = _SHAPES[m.re]
        texts, numbers = columns[m.re]
        for j, column in zip(kept, texts):
            column.append(" ".join(atoms[j::stride]))
        if number is not None:
            numbers.append(_float_array(atoms[number::stride], error_cls))
    if rest:
        depths = np.cumsum([(t == "(") - (t == ")") for t in rest])
        if depths.min() < 0 or depths[-1]:
            raise error_cls("unbalanced parentheses")
        bad = [t for t in rest if t[:2] in ("X_", "Y_") and not _VARIABLE.fullmatch(t)]
        if bad:
            raise error_cls(f"malformed variable name {bad[0]!r}")
        raise error_cls(f"unsupported form {' '.join(rest[:np.argmin(depths) + 1])!r}")
    return [([" ".join(column) for column in columns[run][0]], np.concatenate(columns[run][1]))
            for run in runs]


_INT64_MAX = np.iinfo(np.int64).max


def _indices(names, prefix, error_cls):
    """The int64 indices of ``names``, ``prefix_<digits>`` names in a row."""
    digits = names.replace(prefix + "_", " ")
    idx = np.fromstring(digits, dtype=np.int64, sep=" ")
    if idx.size and idx.max() == _INT64_MAX:
        # fromstring saturates there without a word: read each exactly
        try:
            idx = np.array(digits.split(), dtype=np.int64)
        except (OverflowError, ValueError):
            raise error_cls(
                f"{prefix} variable index does not fit in 64 bits") from None
    return idx


def _float_array(atoms, error_cls):
    """``atoms`` as float64, each read as ``float()`` reads it."""
    try:
        return np.array(atoms, dtype=np.float64)
    except ValueError:
        for atom in atoms:  # only to name the atom that is not a number
            try:
                float(atom)
            except ValueError:
                raise error_cls(
                    f"expected a numeric constant, got {atom!r}") from None
        raise


def _ranked(idx, repeat, error_cls):
    """``idx`` sorted; a repeated index ``i`` is refused as ``repeat + i``."""
    ranked = np.sort(idx)
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    if repeated.size:
        raise error_cls(f"{repeat}{repeated[0]}")
    return ranked


def _contiguous(names, prefix, repeat, error_cls):
    """The indices of ``names``, ``prefix_<digits>`` names in a row, which
    must be 0 upwards with no gap; a repeat is refused as in ``_ranked``."""
    idx = _indices(names, prefix, error_cls)
    if not np.array_equal(_ranked(idx, repeat, error_cls), np.arange(idx.size)):
        raise error_cls(f"{prefix} variable indices are not contiguous from 0")
    return idx


def _bound_vector(idx, values, n, side):
    """The ``side`` bound of X_0 .. X_{n-1}, each bounded exactly once."""
    ranked = _ranked(idx, "duplicate bound for X_", PropertyFormatError)
    if ranked.size and ranked[-1] >= n:
        raise PropertyFormatError(
            f"{side} bound on undeclared X_{ranked[ranked >= n][0]}")
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if not seen.all():
        raise PropertyFormatError(
            f"missing {side} bound for X_{np.argmin(seen)}")
    vec = np.empty(n)
    vec[idx] = values
    return vec


def _target_label(output, num_outputs):
    """The target ``t`` of the one output constraint, whose atoms are
    ``output``: ``assert``, maybe ``or``, then ``>= Y_j Y_t`` per disjunct."""
    E = PropertyFormatError
    if output.count("assert") != 1:
        raise E(f"expected one output constraint, found {output.count('assert')}")
    disjuncts = output[2:] if output[1] == "or" else output[1:]
    if not disjuncts:
        raise E("empty output disjunction")
    rivals = _indices("".join(disjuncts[1::3]), "Y", E)
    targets = _indices("".join(disjuncts[2::3]), "Y", E)
    t = targets[0]
    if (targets != t).any():
        raise E(f"mixed targets in disjunction: Y_{t} and Y_{targets[targets != t][0]}")
    if (rivals == t).any():
        raise E(f"disjunct compares Y_{t} with itself")
    _ranked(rivals, "duplicate disjunct for Y_", E)
    if max(rivals.max(), t) >= num_outputs:
        raise E("disjunct references an undeclared Y variable")
    return int(t)


def parse_property(text: str) -> RobustnessProperty:
    """Parse the generated subset back into a structured query.

    Accepts arbitrary whitespace and ';' comments.  Rejects anything
    outside the subset: unknown declarations or operators, X variables
    missing a bound, bounds on undeclared X variables, NaN or crossed
    bounds, and output disjunctions that are empty or mix target labels.
    """
    E = PropertyFormatError
    ((xs,), _), ((ys,), _), ((sides, names), values), ((output,), _) = _read_runs(
        _COMMENT.sub("", text), (_X_DECLS, _Y_DECLS, _BOUNDS, _OUTPUT), E)
    num_inputs = _contiguous(xs, "X", "duplicate declaration of X_", E).size
    num_outputs = _contiguous(ys, "Y", "duplicate declaration of Y_", E).size
    target = _target_label(output.split(), num_outputs)

    idx = _indices(names, "X", E)
    upper = np.frombuffer(sides.encode(), dtype=np.uint8)[::3] == ord("<")
    lo = _bound_vector(idx[~upper], values[~upper], num_inputs, "lower")
    hi = _bound_vector(idx[upper], values[upper], num_inputs, "upper")
    try:
        return RobustnessProperty(num_inputs, num_outputs,
                                  np.column_stack((lo, hi)), target)
    except ValueError as exc:
        # the counts and the target are checked above, so this is the
        # constructor's bounds check
        raise PropertyFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# witnesses

def check_witness(net: Network, prop: RobustnessProperty, w: Witness) -> bool:
    """True iff ``w`` is a genuine counterexample for ``prop`` under ``net``.

    Requires every input inside its bounds (inclusive; NaN is outside)
    and some non-target logit at least the target logit.  Ties count as
    violations, matching the >= comparisons of the property text.  Output
    values carried by the witness are ignored; the network is always
    re-evaluated.
    """
    check_property_shapes(net, prop)
    if len(w.input_values) != prop.num_inputs:
        raise WitnessFormatError(
            f"witness carries {len(w.input_values)} input values, "
            f"property declares {prop.num_inputs}"
        )
    if w.output_values is not None and len(w.output_values) != prop.num_outputs:
        raise WitnessFormatError(
            f"witness carries {len(w.output_values)} output values, "
            f"property declares {prop.num_outputs}"
        )
    values = np.asarray(w.input_values, dtype=np.float64)
    if not np.all((values >= prop.lo) & (values <= prop.hi)):
        return False
    logits = network_forward(net, image_from_flat(values, net.input_shape))
    return bool(margin(logits, logits, prop.target_label) >= 0)


def format_witness(w: Witness) -> str:
    """One ``(X_i value)`` line per input, then ``(Y_j value)`` if present."""
    xs = np.asarray(w.input_values, dtype=np.float64)
    text = _fill("(X_%d %.8f)\n", range(xs.size), xs)
    if w.output_values is not None:
        ys = np.asarray(w.output_values, dtype=np.float64)
        text += _fill("(Y_%d %.8f)\n", range(ys.size), ys)
    return text


def parse_witness(text: str) -> Witness:
    """Read a witness file: ``(X_i v)`` and ``(Y_j v)`` entries in any
    order, optionally all wrapped in one pair of parens."""
    text = _COMMENT.sub("", text)
    if wrapped := _WRAPPED.fullmatch(text):
        text = wrapped.group(1)
    ((x_names,), xs), ((y_names,), ys) = _read_runs(
        text, (_X_ENTRIES, _Y_ENTRIES), WitnessFormatError)
    if not xs.size:
        raise WitnessFormatError("witness has no input values")
    return Witness(input_values=_in_index_order(x_names, xs, "X"),
                   output_values=_in_index_order(y_names, ys, "Y") if ys.size else None)


def _in_index_order(names, values, prefix):
    """``values`` as a tuple in the order of the indices of ``names``,
    ``prefix_<digits>`` names in a row, one per value."""
    idx = _contiguous(names, prefix, f"duplicate entry for {prefix}_", WitnessFormatError)
    ordered = np.empty(idx.size)
    ordered[idx] = values
    return tuple(ordered.tolist())


def witness_from_flat(values: Sequence[float], logits=None) -> Witness:
    out = None if logits is None else _floats(logits)
    return Witness(input_values=_floats(values), output_values=out)


def _floats(values):
    """The values as a tuple of Python floats, the same as float() on each."""
    return tuple(np.asarray(values, dtype=np.float64).tolist())
