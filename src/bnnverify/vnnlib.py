"""Local-robustness property files: generation, parsing, witness checking.

A property file declares one Real variable per input pixel (``X_0`` ..
``X_{P-1}``, flat index ``(row*W + col)*C + channel``) and one per class
logit (``Y_0`` .. ``Y_{L-1}``), bounds every pixel inside the epsilon
ball, and asserts the negation of "the classifier answers the target
label": a disjunction of ``(>= Y_j Y_target)`` over all other labels.
A satisfying assignment is therefore a counterexample to robustness.
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


def _check_bounds(lo, hi, error_cls):
    """Raise ``error_cls`` naming the first X_i whose bounds are NaN,
    infinite or crossed.  An infinite bound is refused because interval
    arithmetic on it gives ``inf - inf = NaN``, which a sign then reads as
    a definite phase."""
    bad = ~((lo <= hi) & np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        i = int(np.argmax(bad))
        if np.isnan(lo[i]) or np.isnan(hi[i]):
            raise error_cls(f"NaN bound for X_{i}: [{lo[i]}, {hi[i]}]")
        if np.isinf(lo[i]) or np.isinf(hi[i]):
            raise error_cls(f"infinite bound for X_{i}: [{lo[i]}, {hi[i]}]")
        raise error_cls(f"crossed bounds for X_{i}: [{lo[i]}, {hi[i]}]")


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
        _check_bounds(lo, hi, ValueError)
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
# A property file is almost entirely declarations and pixel bounds, so
# those two forms are matched whole; every other token comes one at a time
# (last group) and is nested by ``_read_forms``.
_FORM = re.compile(r"""
    \(\s*declare-const\s+([XY])_([0-9]+)\s+Real\s*\)
  | \(\s*assert\s*\(\s*([<>])=\s+X_([0-9]+)\s+([^\s();]+)\s*\)\s*\)
  | ([()]|[^\s();]+)
""", re.VERBOSE)


def _tokenize(text):
    """Parens and atoms of ``text``, with ``;`` comments dropped."""
    return _TOKEN.findall(_COMMENT.sub("", text))


def _read_forms(tokens, error_cls):
    """Nest a flat token stream into lists, one per top-level expression."""
    forms = []
    stack = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise error_cls("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                forms.append(done)
        else:
            if not stack:
                raise error_cls(f"atom {tok!r} outside any expression")
            stack[-1].append(tok)
    if stack:
        raise error_cls("unbalanced '('")
    return forms


def _var_index(token, prefix, error_cls):
    if not isinstance(token, str) or not token.startswith(prefix + "_"):
        raise error_cls(f"expected {prefix} variable, got {token!r}")
    tail = token[len(prefix) + 1:]
    if not (tail.isascii() and tail.isdigit()):
        raise error_cls(f"malformed variable name {token!r}")
    return int(tail)


def _number(token, error_cls):
    try:
        return float(token)
    except (TypeError, ValueError):
        raise error_cls(f"expected a numeric constant, got {token!r}") from None


def _indices(digits, prefix):
    try:
        return np.array(list(map(int, digits)), dtype=np.int64)
    except OverflowError:
        raise PropertyFormatError(
            f"{prefix} variable index does not fit in 64 bits") from None


def _declared(digits, prefix):
    """Number of declared ``prefix`` variables, which must be ``prefix_0``
    upwards with no gap and no repeat."""
    idx = np.sort(_indices(digits, prefix))
    repeated = idx[1:][idx[1:] == idx[:-1]]
    if repeated.size:
        raise PropertyFormatError(
            f"duplicate declaration of {prefix}_{repeated[0]}")
    if not np.array_equal(idx, np.arange(idx.size)):
        raise PropertyFormatError(
            f"{prefix} variable indices are not contiguous from 0")
    return idx.size


def _bound_vector(idx, values, n, side):
    """The ``side`` bound of X_0 .. X_{n-1}, each bounded exactly once."""
    ranked = np.sort(idx)
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    if repeated.size:
        raise PropertyFormatError(f"duplicate bound for X_{repeated[0]}")
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


def _output_disjuncts(forms):
    """The disjuncts of the one output constraint among ``forms``.

    Every well-formed declaration and pixel bound is matched by ``_FORM``,
    so any other top-level form must be the output constraint.
    """
    disjunction = None
    for form in forms:
        expr = form[1] if len(form) == 2 and form[0] == "assert" else None
        if not (isinstance(expr, list) and expr and (
                expr[0] == "or" or (expr[0] == ">=" and len(expr) == 3
                                    and isinstance(expr[1], str)
                                    and expr[1].startswith("Y_")))):
            raise PropertyFormatError(f"unsupported form {form!r}")
        if disjunction is not None:
            raise PropertyFormatError("more than one output constraint")
        disjunction = expr[1:] if expr[0] == "or" else [expr]
    if disjunction is None:
        raise PropertyFormatError("no output constraint found")
    if not disjunction:
        raise PropertyFormatError("empty output disjunction")
    return disjunction


def _target_label(disjunction, num_outputs):
    target = None
    seen_left = set()
    for d in disjunction:
        if not (isinstance(d, list) and len(d) == 3 and d[0] == ">="):
            raise PropertyFormatError(f"unsupported disjunct {d!r}")
        j = _var_index(d[1], "Y", PropertyFormatError)
        t = _var_index(d[2], "Y", PropertyFormatError)
        if target is None:
            target = t
        elif t != target:
            raise PropertyFormatError(
                f"mixed targets in disjunction: Y_{target} and Y_{t}"
            )
        if j == t:
            raise PropertyFormatError(f"disjunct compares Y_{j} with itself")
        if j in seen_left:
            raise PropertyFormatError(f"duplicate disjunct for Y_{j}")
        if j >= num_outputs or t >= num_outputs:
            raise PropertyFormatError("disjunct references an undeclared Y variable")
        seen_left.add(j)
    return target


def parse_property(text: str) -> RobustnessProperty:
    """Parse the generated subset back into a structured query.

    Accepts arbitrary whitespace and ';' comments.  Rejects anything
    outside the subset: unknown declarations or operators, X variables
    missing a bound, bounds on undeclared X variables, NaN or crossed
    bounds, and output disjunctions that are empty or mix target labels.
    """
    x_decl, y_decl, sides, bound_idx, bound_val, rest = [], [], [], [], [], []
    depth = 0
    for var, decl, side, idx, value, tok in _FORM.findall(_COMMENT.sub("", text)):
        if tok:
            rest.append(tok)
            depth += (tok == "(") - (tok == ")")
        elif depth:
            # a whole form inside another one: give its tokens back, so the
            # enclosing form is read (and rejected) as written
            rest += (["(", "declare-const", f"{var}_{decl}", "Real", ")"] if var
                     else ["(", "assert", "(", side + "=", f"X_{idx}", value, ")", ")"])
        elif var == "X":
            x_decl.append(decl)
        elif var:
            y_decl.append(decl)
        else:
            sides.append(side)
            bound_idx.append(idx)
            bound_val.append(value)
    disjunction = _output_disjuncts(_read_forms(rest, PropertyFormatError))
    num_inputs = _declared(x_decl, "X")
    num_outputs = _declared(y_decl, "Y")
    target = _target_label(disjunction, num_outputs)

    idx = _indices(bound_idx, "X")
    try:
        values = np.array(list(map(float, bound_val)))
    except ValueError:
        for v in bound_val:
            _number(v, PropertyFormatError)
        raise
    upper = np.frombuffer("".join(sides).encode(), dtype=np.uint8) == ord("<")
    lo = _bound_vector(idx[~upper], values[~upper], num_inputs, "lower")
    hi = _bound_vector(idx[upper], values[upper], num_inputs, "upper")
    try:
        return RobustnessProperty(
            num_inputs=num_inputs,
            num_outputs=num_outputs,
            input_bounds=np.column_stack((lo, hi)),
            target_label=target,
        )
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
    forms = _read_forms(_tokenize(text), WitnessFormatError)
    # tolerate the single-expression convention ((X_0 v) (X_1 v) ...)
    if len(forms) == 1 and forms[0] and all(isinstance(f, list) for f in forms[0]):
        forms = forms[0]
    xs = {}
    ys = {}
    for form in forms:
        if not (isinstance(form, list) and len(form) == 2):
            raise WitnessFormatError(f"malformed witness entry {form!r}")
        name, raw = form
        value = _number(raw, WitnessFormatError)
        if isinstance(name, str) and name.startswith("X_"):
            idx = _var_index(name, "X", WitnessFormatError)
            if idx in xs:
                raise WitnessFormatError(f"duplicate entry for X_{idx}")
            xs[idx] = value
        elif isinstance(name, str) and name.startswith("Y_"):
            idx = _var_index(name, "Y", WitnessFormatError)
            if idx in ys:
                raise WitnessFormatError(f"duplicate entry for Y_{idx}")
            ys[idx] = value
        else:
            raise WitnessFormatError(f"unknown witness variable {name!r}")
    if not xs:
        raise WitnessFormatError("witness has no input values")
    if set(xs) != set(range(len(xs))):
        raise WitnessFormatError("X indices are not contiguous from 0")
    outputs = None
    if ys:
        if set(ys) != set(range(len(ys))):
            raise WitnessFormatError("Y indices are not contiguous from 0")
        outputs = tuple(ys[j] for j in range(len(ys)))
    return Witness(
        input_values=tuple(xs[i] for i in range(len(xs))),
        output_values=outputs,
    )


def witness_from_flat(values: Sequence[float], logits=None) -> Witness:
    out = None if logits is None else _floats(logits)
    return Witness(input_values=_floats(values), output_values=out)


def _floats(values):
    """The values as a tuple of Python floats, the same as float() on each."""
    return tuple(np.asarray(values, dtype=np.float64).tolist())
