"""CNF export of pure-binary suffixes, plus a toy DPLL solver.

Past the first binarization the network is boolean: activations are +-1,
every linear layer computes integer sums of +-1 terms, and batch-norm
followed by sign folds into a per-channel threshold.  This module encodes
that suffix, under caller-fixed phases for the first binarization, as CNF:
thresholds become cardinality constraints (bidirectional sequential
counter), binary maxpool becomes OR (AND under a negative fold direction),
and the negated robustness property becomes a disjunction over rival
classes.  The formula is satisfiable exactly when some completion of the
free phases produces a counterexample.

Each unit's terms come from the forward's own windows (``conv_windows``
and the max pool's four slices), in the order inference sums them.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import EncodingError, ShapeMismatchError
from ..layers import (
    BatchNorm,
    MaxPool,
    QConv,
    QDense,
    _pool_windows,
    conv_windows,
    layer_forward,
)
from ..vnnlib import check_property_shapes
from .intervals import FoldedSign, fold_bn_sign, ibp_trace, property_box, stable_phases

__all__ = [
    "CnfFormula",
    "CnfBuilder",
    "counter_geq",
    "require_geq",
    "export_cnf",
    "format_varmap",
    "dpll_satisfiable",
    "binary_suffix_forward",
    "first_quantize_index",
    "stable_phases_from_box",
]


@dataclass(frozen=True)
class CnfFormula:
    """Propositional formula in conjunctive normal form, DIMACS semantics."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars cannot be negative")
        clauses = tuple(tuple(map(int, c)) for c in self.clauses)
        _check_literals(clauses, self.num_vars)
        object.__setattr__(self, "clauses", clauses)

    def to_dimacs(self):
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join([str(lit) for lit in clause] + ["0"]))
        return "\n".join(lines) + "\n"


def _check_literals(clauses, num_vars):
    """Raise for the first literal of ``clauses`` that is 0 or past
    ``num_vars``.  The flattened literals are scanned in bulk and walked
    one by one only when they fail, to name the first offender."""
    flat = list(chain.from_iterable(clauses))
    if 0 in flat or max(flat, default=0) > num_vars or min(flat, default=0) < -num_vars:
        for lit in flat:
            if lit == 0:
                raise ValueError("literal 0 is the DIMACS terminator, not a literal")
            if abs(lit) > num_vars:
                raise ValueError(f"literal {lit} exceeds num_vars={num_vars}")


class CnfBuilder:
    """Mutable clause accumulator with named variables."""

    def __init__(self):
        self.num_vars = 0
        self.clauses = []
        self.names = {}
        self._true = None

    def new_var(self, name=None):
        self.num_vars += 1
        if name is not None:
            self.names[self.num_vars] = name
        return self.num_vars

    def add(self, clause):
        # Literals are converted to int once, when the formula is built.
        c = tuple(clause)
        if 0 in c:
            raise ValueError("clause may not contain literal 0")
        self.clauses.append(c)

    def true_lit(self):
        """Literal pinned true; constants are phrased through it."""
        if self._true is None:
            self._true = self.new_var("const-true")
            self.add([self._true])
        return self._true

    def const_lit(self, value):
        t = self.true_lit()
        return t if value > 0 else -t

    def build(self):
        return CnfFormula(self.num_vars, tuple(self.clauses))


def counter_geq(builder, lits, k):
    """Literal equivalent to "at least k of ``lits`` are true".

    Bidirectional sequential counter: registers s[i][j] <-> (at least j+1
    true among the first i+1 inputs).  For 1 <= k <= n this allocates
    exactly n*k auxiliary variables; out-of-range k collapses to a
    constant literal.
    """
    n = len(lits)
    if k <= 0:
        return builder.true_lit()
    if k > n:
        return -builder.true_lit()
    true = builder.true_lit()
    false = -true
    regs = [[builder.new_var() for _ in range(k)] for _ in range(n)]
    for i in range(n):
        x = int(lits[i])
        for j in range(k):
            s = regs[i][j]
            a = regs[i - 1][j] if i >= 1 else false
            if j == 0:
                c = true
            elif i >= 1:
                c = regs[i - 1][j - 1]
            else:
                c = false
            # s <-> a or (x and c)
            builder.add([-s, a, x])
            builder.add([-s, a, c])
            builder.add([-a, s])
            builder.add([-x, -c, s])
    return regs[n - 1][k - 1]


def require_geq(builder, lits, k):
    """Assert at-least-k of ``lits`` directly (no indicator literal).

    k == 1 is a plain disjunction clause; larger k goes through the
    counter; impossible k yields the empty clause.
    """
    n = len(lits)
    if k <= 0:
        return
    if k > n:
        builder.add([])
    elif k == 1:
        builder.add(list(lits))
    else:
        builder.add([counter_geq(builder, lits, k)])


def _or_literal(builder, lits):
    v = builder.new_var()
    builder.add([-v] + [int(l) for l in lits])
    for l in lits:
        builder.add([-int(l), v])
    return v


def _and_literal(builder, lits):
    v = builder.new_var()
    builder.add([v] + [-int(l) for l in lits])
    for l in lits:
        builder.add([-v, int(l)])
    return v


def _sum_geq_lit(builder, lits, c):
    # sum of +-1 terms >= c, with m terms: #true >= ceil((c+m)/2)
    m = len(lits)
    return counter_geq(builder, list(lits), -((-(c + m)) // 2))


def _sum_leq_lit(builder, lits, c):
    # sum <= c is the negation of sum >= c+1 over integers
    m = len(lits)
    return -counter_geq(builder, list(lits), (c + m) // 2 + 1)


def first_quantize_index(net):
    """Index of the first layer that binarizes its input."""
    for i, layer in enumerate(net.layers):
        if isinstance(layer, (QConv, QDense)) and layer.quantize_input:
            return i
    raise EncodingError("network has no binarization boundary (no quantizing layer)")


def _normalize_phases(phases, n):
    if phases is None:
        raise EncodingError(
            "first-layer phases are unfixed; pass a length-"
            f"{n} sequence of +-1 (fixed) or None (free)"
        )
    try:
        seq = list(phases)
    except TypeError:
        raise EncodingError("phases must be a sequence of +-1/None entries") from None
    if len(seq) != n:
        raise EncodingError(f"expected {n} phase entries, got {len(seq)}")
    out = []
    for i, p in enumerate(seq):
        if p is None:
            out.append(None)
            continue
        try:
            v = float(p)
        except (TypeError, ValueError):
            raise EncodingError(f"phase {i} is not numeric: {p!r}") from None
        if math.isnan(v) or v == 0.0:
            out.append(None)
        elif v in (1.0, -1.0):
            out.append(int(v))
        else:
            raise EncodingError(f"phase {i} must be +-1 or free, got {p!r}")
    return out


def _signed_sums(acts, lin):
    """Signed literals ``(..., out, fan_in)``: one +-1 term per weight.

    A conv reads the rows of :func:`conv_windows`, in the ``(kh, kw, C)``
    order of ``weights.reshape(-1, out)`` that :func:`contract` uses.
    """
    w = lin.weights
    if isinstance(lin, QConv):
        windows = conv_windows(acts, lin.kernel_h, lin.kernel_w)
        acts = windows.reshape(windows.shape[:-3] + (-1,))
        w = w.reshape(-1, lin.out_channels)
    return acts[..., None, :] * w.T.astype(np.int64)


def _element_literal(builder, members, direction, threshold, conjoin, name):
    """Boolean literal for sign(post-chain(sums)) of one output unit.

    ``members`` holds the window's rows of signed terms (one row when no
    pooling).  A member passes when its sum reaches ``threshold``
    (``direction`` +1) or stays at or below it (-1); the unit fires when
    any member passes, or every one when ``conjoin``.
    """
    if math.isinf(threshold):
        member_lits = [builder.const_lit(-direction * threshold)] * len(members)
    elif direction > 0:
        c = math.ceil(threshold)
        member_lits = [_sum_geq_lit(builder, mem, c) for mem in members]
    else:
        c = math.floor(threshold)
        member_lits = [_sum_leq_lit(builder, mem, c) for mem in members]
    if len(member_lits) == 1:
        lit = member_lits[0]
    elif conjoin:
        lit = _and_literal(builder, member_lits)
    else:
        lit = _or_literal(builder, member_lits)
    if lit > 0 and lit not in builder.names:
        builder.names[lit] = name
    return lit


# sign(x) itself: +1 iff x >= 0, the rule of a block without a batch norm
_PLAIN_SIGN = FoldedSign(direction=[1], threshold=[0.0], constant=[np.nan])


def _post_chain_to_bools(builder, sums, post, layer_tag):
    """Fold [MaxPool|BatchNorm|Flatten]* plus the next sign into literals.

    ``members`` holds ``sums`` as (window member, term, *unit shape): a
    pool concatenates the forward's four windows on the members axis.
    ``chan`` gives each unit its channel in the batch norm's fold.
    """
    members = np.moveaxis(sums, -1, 0)[None]
    chan = np.zeros(sums.shape[:-1], dtype=np.intp)
    fold = None
    pooled_before = pooled_after = False
    for layer in post:
        if isinstance(layer, MaxPool):
            if fold is None:
                pooled_before = True
            else:
                pooled_after = True
            members = np.concatenate(_pool_windows(members))
            chan = _pool_windows(chan)[0]
        elif isinstance(layer, BatchNorm):
            if fold is not None:
                raise EncodingError("two batch-norm layers in one block are not foldable")
            fold = fold_bn_sign(layer)
            chan = np.broadcast_to(np.arange(fold.channels), chan.shape)
        else:  # Flatten
            members = members.reshape(members.shape[:2] + (-1,))
            chan = chan.reshape(-1)
    if pooled_before and pooled_after:
        raise EncodingError("batch-norm sandwiched between poolings is not foldable")

    rule = fold or _PLAIN_SIGN
    direction = rule.direction[chan].ravel().tolist()
    threshold = rule.threshold[chan].ravel().tolist()
    constant = rule.constant[chan].ravel().tolist()
    rows = np.moveaxis(members.reshape(members.shape[:2] + (-1,)), -1, 0).tolist()
    lits = np.empty(len(rows), dtype=np.int64)
    for k, idx in enumerate(np.ndindex(chan.shape)):
        if direction[k] == 0:
            lits[k] = builder.const_lit(constant[k])
            continue
        name = f"act L{layer_tag} " + ",".join(map(str, idx))
        # sign(bn(max(..))) with a negative slope fires only when every
        # window member is at or below the threshold
        conjoin = pooled_before and direction[k] < 0
        lits[k] = _element_literal(
            builder, rows[k], direction[k], threshold[k], conjoin, name
        )
    return lits.reshape(chan.shape)


def _encode_property(builder, sums, lin, prop):
    """Clause: some rival logit reaches the target logit (negated property)."""
    t = prop.target_label
    w = lin.weights
    rival_lits = []
    for j in range(prop.num_outputs):
        if j == t:
            continue
        # z_j - z_t collapses to twice the sum of the terms where the
        # columns disagree, read with class-j signs
        terms = sums[j][w[:, j] != w[:, t]].tolist()
        if not terms:
            lit = builder.true_lit()  # identical columns: a tie is guaranteed
        else:
            lit = _sum_geq_lit(builder, terms, 0)
            if lit > 0 and lit not in builder.names:
                builder.names[lit] = f"rival Y{j}>=Y{t}"
        rival_lits.append(lit)
    require_geq(builder, rival_lits, 1)


def export_cnf(net, prop, fixed_first_layer_phases):
    """Encode the binary suffix of ``net`` under fixed/free phases.

    Returns (CnfFormula, names) where names maps variable ids to their
    meaning (phases, block activations, rival indicators).  The formula is
    satisfiable iff some assignment of the free phases makes a rival logit
    reach the target logit.
    """
    check_property_shapes(net, prop)
    q = first_quantize_index(net)
    boundary_shape = net.layer_shapes()[q]
    phases = _normalize_phases(fixed_first_layer_phases, int(np.prod(boundary_shape)))

    builder = CnfBuilder()
    builder.true_lit()  # var 1 is always the pinned constant
    lits = []
    for p, coords in zip(phases, np.ndindex(boundary_shape)):
        if p is None:
            lits.append(builder.new_var("phase " + ",".join(map(str, coords))))
        else:
            lits.append(builder.const_lit(p))
    acts = np.array(lits, dtype=np.int64).reshape(boundary_shape)

    # a constructed Network ends in a QDense, and every block between two
    # linear layers is MaxPool/BatchNorm/Flatten in a shape-checked chain
    layers = net.layers
    linear = [i for i in range(q, len(layers)) if isinstance(layers[i], (QConv, QDense))]
    for i, j in zip(linear, linear[1:] + [None]):
        if not layers[i].quantize_input:
            raise EncodingError(
                f"layer {i} consumes real values; the suffix is not pure-binary"
            )
        sums = _signed_sums(acts, layers[i])
        if j is not None:
            acts = _post_chain_to_bools(builder, sums, layers[i + 1 : j], layer_tag=i)
    _encode_property(builder, sums, layers[-1], prop)
    return builder.build(), dict(builder.names)


def format_varmap(formula, names):
    """Sidecar text: one "<var> <meaning>" line per variable."""
    lines = []
    for v in range(1, formula.num_vars + 1):
        lines.append(f"{v} {names.get(v, 'aux')}")
    return "\n".join(lines) + "\n"


def _propagate(clauses, assign):
    """Unit propagation; None on conflict, else (open clauses, assignment)."""
    assign = dict(assign)
    while True:
        changed = False
        remaining = []
        for clause in clauses:
            open_lits = []
            satisfied = False
            for lit in clause:
                v = abs(lit)
                if v in assign:
                    if assign[v] == (lit > 0):
                        satisfied = True
                        break
                else:
                    open_lits.append(lit)
            if satisfied:
                continue
            if not open_lits:
                return None
            if len(open_lits) == 1:
                lit = open_lits[0]
                assign[abs(lit)] = lit > 0
                changed = True
            else:
                remaining.append(open_lits)
        clauses = remaining
        if not changed:
            return clauses, assign


def dpll_satisfiable(formula, assumptions=()):
    """Toy DPLL: a full {var: bool} model on SAT, None on UNSAT.

    Intended for the exported formulas' scale (unit propagation resolves
    all counter registers once the phases are decided), not for general
    SAT workloads.  ``assumptions`` are extra unit literals.
    """
    base = [tuple(c) for c in formula.clauses]
    for lit in assumptions:
        lit = int(lit)
        if lit == 0 or abs(lit) > formula.num_vars:
            raise ValueError(f"bad assumption literal {lit}")
        base.append((lit,))
    stack = [(base, {})]
    while stack:
        clauses, assign = stack.pop()
        result = _propagate(clauses, assign)
        if result is None:
            continue
        clauses, assign = result
        if not clauses:
            return {v: assign.get(v, False) for v in range(1, formula.num_vars + 1)}
        branch = min(abs(lit) for clause in clauses for lit in clause)
        stack.append((clauses + [(-branch,)], assign))
        stack.append((clauses + [(branch,)], assign))
    return None


def binary_suffix_forward(net, phases):
    """Logits of the binary suffix for one concrete +-1 phase vector.

    The phase vector stands in for the sign of the pre-boundary
    activations; the prefix of the network is bypassed entirely.
    """
    q = first_quantize_index(net)
    shape = net.layer_shapes()[q]
    arr = np.asarray(phases, dtype=np.float64)
    if arr.size != int(np.prod(shape)):
        raise ShapeMismatchError(
            "phase vector length mismatch", expected=int(np.prod(shape)), actual=arr.size
        )
    arr = arr.reshape(shape)
    if not np.all(np.abs(arr) == 1.0):
        raise ValueError("phases must be +-1")
    t = arr
    for i in range(q, len(net.layers)):
        t = layer_forward(t, net.layers[i], i)
    return t


def stable_phases_from_box(net, prop):
    """Phases forced by interval propagation over the property box.

    Entries are +1/-1 where the pre-boundary sign is stable across the
    whole box and None where it straddles zero.  Fixing these and freeing
    the rest over-approximates the reachable phase set, so an UNSAT
    exported formula soundly verifies the box while SAT may be spurious.
    """
    q = first_quantize_index(net)
    trace = ibp_trace(net, property_box(net, prop))
    return [p or None for p in stable_phases(trace[q]).reshape(-1).tolist()]
