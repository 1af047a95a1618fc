"""The regex property reader against the character-loop reader it replaced.

The oracles below are the tokenizer, form reader and parsers that walked
the text one character at a time; they live only here.  On every drawn or
mutated text the package must return an equal property (or witness), or
both must reject the text with the format error.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnnverify.errors import PropertyFormatError, WitnessFormatError
from bnnverify.vnnlib import (
    RobustnessProperty,
    Witness,
    _COMMENT,
    _TOKEN,
    format_witness,
    make_property,
    parse_property,
    parse_witness,
    render_property,
    witness_from_flat,
)


def oracle_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def oracle_read_forms(tokens, error_cls):
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


def oracle_var_index(token, prefix, error_cls):
    if not isinstance(token, str) or not token.startswith(prefix + "_"):
        raise error_cls(f"expected {prefix} variable, got {token!r}")
    tail = token[len(prefix) + 1:]
    if not tail.isdigit():
        raise error_cls(f"malformed variable name {token!r}")
    return int(tail)


def oracle_number(token, error_cls):
    try:
        return float(token)
    except (TypeError, ValueError):
        raise error_cls(f"expected a numeric constant, got {token!r}") from None


def oracle_parse_property(text):
    E = PropertyFormatError
    forms = oracle_read_forms(oracle_tokenize(text), E)
    declared_x = set()
    declared_y = set()
    lower = {}
    upper = {}
    disjunction = None
    for form in forms:
        if not form:
            raise E("empty expression")
        head = form[0]
        if head == "declare-const":
            if len(form) != 3 or form[2] != "Real":
                raise E(f"unsupported declaration {form!r}")
            name = form[1]
            if isinstance(name, str) and name.startswith("X_"):
                idx = oracle_var_index(name, "X", E)
                if idx in declared_x:
                    raise E(f"duplicate declaration of {name}")
                declared_x.add(idx)
            elif isinstance(name, str) and name.startswith("Y_"):
                idx = oracle_var_index(name, "Y", E)
                if idx in declared_y:
                    raise E(f"duplicate declaration of {name}")
                declared_y.add(idx)
            else:
                raise E(f"unknown variable {name!r}")
        elif head == "assert":
            if len(form) != 2 or not isinstance(form[1], list):
                raise E(f"malformed assert {form!r}")
            expr = form[1]
            op = expr[0] if expr else None
            if op in ("<=", ">=") and len(expr) == 3 and isinstance(expr[1], str) \
                    and expr[1].startswith("X_"):
                idx = oracle_var_index(expr[1], "X", E)
                value = oracle_number(expr[2], E)
                table = upper if op == "<=" else lower
                if idx in table:
                    raise E(f"duplicate bound for X_{idx}")
                table[idx] = value
            elif op == "or" or (op == ">=" and len(expr) == 3
                                and isinstance(expr[1], str)
                                and expr[1].startswith("Y_")):
                if disjunction is not None:
                    raise E("more than one output constraint")
                disjunction = expr[1:] if op == "or" else [expr]
            else:
                raise E(f"unknown construct {expr!r}")
        else:
            raise E(f"unknown construct {form!r}")

    num_inputs = len(declared_x)
    num_outputs = len(declared_y)
    if declared_x != set(range(num_inputs)):
        raise E("X variable indices are not contiguous from 0")
    if declared_y != set(range(num_outputs)):
        raise E("Y variable indices are not contiguous from 0")
    if disjunction is None:
        raise E("no output constraint found")

    target = None
    seen_left = set()
    for d in disjunction:
        if not (isinstance(d, list) and len(d) == 3 and d[0] == ">="):
            raise E(f"unsupported disjunct {d!r}")
        j = oracle_var_index(d[1], "Y", E)
        t = oracle_var_index(d[2], "Y", E)
        if target is None:
            target = t
        elif t != target:
            raise E(f"mixed targets in disjunction: Y_{target} and Y_{t}")
        if j == t:
            raise E(f"disjunct compares Y_{j} with itself")
        if j in seen_left:
            raise E(f"duplicate disjunct for Y_{j}")
        if j >= num_outputs or t >= num_outputs:
            raise E("disjunct references an undeclared Y variable")
        seen_left.add(j)

    bounds = []
    for i in range(num_inputs):
        if i not in upper:
            raise E(f"missing upper bound for X_{i}")
        if i not in lower:
            raise E(f"missing lower bound for X_{i}")
        lo, hi = lower[i], upper[i]
        if lo > hi:
            raise E(f"crossed bounds for X_{i}: [{lo}, {hi}]")
        bounds.append((lo, hi))

    return RobustnessProperty(
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        input_bounds=tuple(bounds),
        target_label=target,
    )


def oracle_parse_witness(text):
    E = WitnessFormatError
    forms = oracle_read_forms(oracle_tokenize(text), E)
    if len(forms) == 1 and forms[0] and all(isinstance(f, list) for f in forms[0]):
        forms = forms[0]
    xs = {}
    ys = {}
    for form in forms:
        if not (isinstance(form, list) and len(form) == 2):
            raise E(f"malformed witness entry {form!r}")
        name, raw = form
        value = oracle_number(raw, E)
        if isinstance(name, str) and name.startswith("X_"):
            idx = oracle_var_index(name, "X", E)
            if idx in xs:
                raise E(f"duplicate entry for X_{idx}")
            xs[idx] = value
        elif isinstance(name, str) and name.startswith("Y_"):
            idx = oracle_var_index(name, "Y", E)
            if idx in ys:
                raise E(f"duplicate entry for Y_{idx}")
            ys[idx] = value
        else:
            raise E(f"unknown witness variable {name!r}")
    if not xs:
        raise E("witness has no input values")
    if set(xs) != set(range(len(xs))):
        raise E("X indices are not contiguous from 0")
    outputs = None
    if ys:
        if set(ys) != set(range(len(ys))):
            raise E("Y indices are not contiguous from 0")
        outputs = tuple(ys[j] for j in range(len(ys)))
    return Witness(
        input_values=tuple(xs[i] for i in range(len(xs))),
        output_values=outputs,
    )


def outcome(parse, text, error_cls=PropertyFormatError):
    """The parsed value, or the error class when the text is rejected."""
    try:
        return parse(text)
    except error_cls:
        return error_cls


def oracle_bounded_x(text):
    """Indices of the X variables that ``text`` bounds, per the old reader."""
    return [
        oracle_var_index(form[1][1], "X", PropertyFormatError)
        for form in oracle_read_forms(oracle_tokenize(text), PropertyFormatError)
        if form[0] == "assert" and form[1][0] in ("<=", ">=")
        and isinstance(form[1][1], str) and form[1][1].startswith("X_")
    ]


def oracle_outcome(text):
    """``outcome`` of the old reader, with its three known faults mapped to
    the rejection the reader gives: it let a NaN bound through to
    ``RobustnessProperty``, which rejected it with ValueError, it let an
    empty disjunction through with no target, which the same constructor
    failed on with TypeError, and it ignored a bound on an undeclared X
    variable."""
    try:
        got = outcome(oracle_parse_property, text)
    except ValueError as exc:
        assert "nan" in str(exc)
        return PropertyFormatError
    except TypeError:
        assert re.search(r"\(\s*or\s*\)", text)
        return PropertyFormatError
    if got is not PropertyFormatError and any(
            i >= got.num_inputs for i in oracle_bounded_x(text)):
        return PropertyFormatError
    return got


# --------------------------------------------------------------------------
# drawn texts

# whitespace that str.isspace() accepts, ASCII and not
SPACES = [" ", "  ", "\n", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003"]
COMMENT_TEXT = st.text(alphabet="abc ()X_0;<=>.-", max_size=8)
VALUES = st.sampled_from([0.0, 1.0, 2.5, -3.0, 17.0, 254.5, 1e-3, -0.0])


@st.composite
def properties(draw):
    n = draw(st.integers(1, 5))
    outputs = draw(st.integers(2, 5))
    bounds = []
    for _ in range(n):
        a, b = draw(VALUES), draw(VALUES)
        bounds.append((min(a, b), max(a, b)))
    return RobustnessProperty(
        num_inputs=n, num_outputs=outputs, input_bounds=tuple(bounds),
        target_label=draw(st.integers(0, outputs - 1)))


def top_level_forms(tokens):
    """Split a balanced token list into its top-level forms."""
    forms, depth, start = [], 0, 0
    for k, tok in enumerate(tokens):
        depth += (tok == "(") - (tok == ")")
        if depth == 0:
            forms.append(tokens[start:k + 1])
            start = k + 1
    return forms


@st.composite
def respaced(draw, tokens):
    """Join tokens with drawn whitespace and ';' comments.  Two atoms are
    never joined, so the respaced text holds the same tokens."""
    out = []
    for k, tok in enumerate(tokens):
        out.append(tok)
        if k + 1 == len(tokens):
            break
        glue = draw(st.sampled_from(SPACES + ["", "", "comment"]))
        if glue == "comment":
            glue = f" ;{draw(COMMENT_TEXT)}\n"
        elif glue == "" and tok not in "()" and tokens[k + 1] not in "()":
            glue = " "
        out.append(glue)
    return "".join(out)


def mutate(draw, forms):
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "swap", "cross", "unbalance", "nest", "corrupt"]))
    k = draw(st.integers(0, len(forms) - 1))
    form = list(forms[k])
    if kind == "drop":
        return forms[:k] + forms[k + 1:]
    if kind == "duplicate":
        return forms[:k + 1] + [form] + forms[k + 1:]
    if kind == "swap":
        ops = [i for i, t in enumerate(form) if t in ("<=", ">=")]
        if ops:
            i = draw(st.sampled_from(ops))
            form[i] = draw(st.sampled_from(["<=", ">=", "<", "="]))
    elif kind == "cross":
        # move an upper bound below the lower bound, or the other way round
        if "<=" in form and form[4].startswith("X_"):
            form[5] = "-1000.0"
        elif ">=" in form and form[4].startswith("X_"):
            form[5] = "1000.0"
    elif kind == "unbalance":
        i = draw(st.integers(0, len(form) - 1))
        form = form[:i] + [draw(st.sampled_from(["(", ")"]))] + form[i:]
    elif kind == "nest":
        j = draw(st.integers(0, len(forms) - 1))
        if j != k:
            inner = forms[j]
            nested = form[:-1] + list(inner) + form[-1:]
            rest = [f for i, f in enumerate(forms) if i not in (j, k)]
            return rest + [nested]
    elif kind == "corrupt":
        atoms = [i for i, t in enumerate(form) if t not in "()"]
        i = draw(st.sampled_from(atoms))
        if draw(st.booleans()):
            form[i] += draw(st.sampled_from(["x", "0", "_", ".", "e1"]))
        else:
            form[i] = draw(st.sampled_from(
                ["X_a", "Y_", "Z_0", "abc", "nan1", "1e", "X_00", "Y_9", "Real", "or"]))
    return forms[:k] + [form] + forms[k + 1:]


def is_bound(form):
    return (len(form) > 4 and form[1] == "assert" and form[3] in ("<=", ">=")
            and form[4].startswith("X_"))


@st.composite
def reordered(draw, forms):
    """``forms`` in a drawn order that changes kind often: shuffled, bounds
    before declarations, the other forms (the output constraint) first or
    between two bounds, or declarations and bounds alternating."""
    decls = draw(st.permutations([f for f in forms if f[1:2] == ["declare-const"]]))
    bounds = draw(st.permutations([f for f in forms if is_bound(f)]))
    rest = [f for f in forms if f[1:2] != ["declare-const"] and not is_bound(f)]
    scheme = draw(st.sampled_from(
        ["shuffle", "bounds first", "rest first", "rest among bounds", "alternate"]))
    if scheme == "shuffle":
        return draw(st.permutations(forms))
    if scheme == "bounds first":
        return bounds + decls + rest
    if scheme == "rest first":
        return rest + decls + bounds
    if scheme == "rest among bounds":
        k = draw(st.integers(0, len(bounds)))
        return decls + bounds[:k] + rest + bounds[k:]
    alternating = [f for pair in zip(decls, bounds) for f in pair]
    n = min(len(decls), len(bounds))
    return alternating + decls[n:] + bounds[n:] + rest


def reader_tokens(text):
    """The tokens the reader reads ``text`` as, by its comment and token rules."""
    return _TOKEN.findall(_COMMENT.sub("", text))


class TestTokenizer:
    @given(st.text(alphabet="();ab_X0.- \n\t\r\x0b\x1c\xa0\u2003\u2028", max_size=80))
    @settings(max_examples=300)
    def test_equal_to_char_loop(self, text):
        assert reader_tokens(text) == oracle_tokenize(text)

    def test_comment_ends_only_at_newline(self):
        text = "(a ; b ) \r c\n d)"
        assert reader_tokens(text) == oracle_tokenize(text) == ["(", "a", "d", ")"]


class TestDifferential:
    @given(properties(), st.data())
    @settings(max_examples=150)
    def test_respaced_property_parses_equal(self, prop, data):
        tokens = oracle_tokenize(render_property(prop))
        text = data.draw(respaced(tokens))
        assert parse_property(text) == oracle_parse_property(text) == prop

    @given(properties(), st.data())
    @settings(max_examples=400)
    def test_mutated_property_parses_equal_or_both_reject(self, prop, data):
        forms = top_level_forms(oracle_tokenize(render_property(prop)))
        forms = mutate(data.draw, forms)
        text = data.draw(respaced([t for f in forms for t in f]))
        assert outcome(parse_property, text) == oracle_outcome(text)

    @given(properties(), st.booleans(), st.data())
    @settings(max_examples=300)
    def test_reordered_property_parses_equal_or_both_reject(self, prop, mutated, data):
        forms = top_level_forms(oracle_tokenize(render_property(prop)))
        if mutated:
            forms = mutate(data.draw, forms)
        forms = data.draw(reordered(forms))
        text = data.draw(respaced([t for f in forms for t in f]))
        got = outcome(parse_property, text)
        assert got == oracle_outcome(text)
        assert mutated or got == prop

    SMALL = RobustnessProperty(num_inputs=2, num_outputs=3,
                               input_bounds=((1.0, 2.5), (-3.0, 0.0)),
                               target_label=1)

    def test_every_single_token_edit(self):
        tokens = oracle_tokenize(render_property(self.SMALL))
        edits = ["x", "0", "_", "(", ")", "", "X_a", "Y_", "nan", "Real", "or",
                 "<=", ">=", "assert", "declare-const", "X_99999999999999999999"]
        accepted = 0
        for i, tok in enumerate(tokens):
            # each edit of this token, and this token glued to the next
            texts = [" ".join(tokens[:i] + [new] + tokens[i + 1:])
                     for edit in edits for new in (tok + edit, edit)]
            texts.append(" ".join(tokens[:i] + [tok + "".join(tokens[i + 1:i + 2])]
                                  + tokens[i + 2:]))
            for text in texts:
                got = outcome(parse_property, text)
                assert got == oracle_outcome(text), text
                accepted += got is not PropertyFormatError
        assert accepted > len(tokens)  # the unchanged token is among the edits

    def test_every_form_nested_in_every_other(self):
        forms = top_level_forms(oracle_tokenize(render_property(self.SMALL)))
        for j, inner in enumerate(forms):
            rest = forms[:j] + forms[j + 1:]
            for k, outer in enumerate(rest):
                for at in range(1, len(outer)):
                    nested = outer[:at] + inner + outer[at:]
                    tokens = [t for f in rest[:k] + [nested] + rest[k + 1:] for t in f]
                    text = " ".join(tokens)
                    assert outcome(parse_property, text) == oracle_outcome(text), text

    @pytest.mark.parametrize("shape", [(64, 64, 3), (48, 48, 3), (30, 30, 3)],
                             ids=["A", "B", "XNOR"])
    def test_full_size_property(self, shape):
        rng = np.random.default_rng(shape[0])
        image = rng.integers(0, 256, size=shape).astype(float)
        prop = make_property(image, 3, 38, num_outputs=43)
        text = render_property(prop)
        assert parse_property(text) == oracle_parse_property(text) == prop

    def test_full_size_witness(self):
        rng = np.random.default_rng(64)
        image = rng.integers(0, 256, size=(64, 64, 3)).astype(float) + 0.25
        w = witness_from_flat(image.reshape(-1), rng.normal(size=43))
        text = format_witness(w)
        assert parse_witness(text) == oracle_parse_witness(text)
        assert parse_witness(text).input_values == w.input_values

    @pytest.mark.parametrize("output", [
        "(assert (or (>= Y_1 Y_0)))",
        "(assert (>= Y_1 Y_0))",
        "(assert (or))",
        "(assert (or (>= Y_1 Y_0) ; a comment\n(>= Y_2 Y_0)))",
        "(assert (or\n\n(>= Y_2 Y_0)\n  (>= Y_1 Y_0)\n))",
        "(assert(or(>= Y_1 Y_2)(>= Y_0 Y_2)))",
        "( assert ( >= Y_2 Y_1 ) )",
        "(assert (or (>= Y_1 Y_0)))(assert (>= Y_2 Y_0))",
        "(assert (or (>= Y_1 Y_0) (>= Y_1 Y_0)))",
        "(assert (or (>= Y_1 Y_0) (>= Y_2 Y_1)))",
        "(assert (>= Y_0 Y_0))",
        "(assert (>= Y_3 Y_0))",
        "(assert (or (>= Y_1 X_0)))",
        "(assert (>= Y_1 1.0))",
        "(assert (or (<= Y_1 Y_0)))",
        "(assert (and (>= Y_1 Y_0)))",
        "(assert (or (>= Y_1 Y_0 Y_2)))",
        "(assert (or ((>= Y_1 Y_0))))",
        "(assert ((>= Y_1 Y_0)))",
        "(assert (>= Y_1 Y_0) (>= Y_2 Y_0))",
        "(assert (or (>= Y_1 Y_0)) (>= Y_2 Y_0))",
        "(assert (or (>= Y_a Y_0)))",
        "(assert (or (>= Y_1 Y_0)",
        "",
    ])
    def test_output_constraint_spellings(self, output):
        text = render_property(self.SMALL)
        text = text[:text.index("(assert (or")] + output
        assert outcome(parse_property, text) == oracle_outcome(text), text

    @pytest.mark.parametrize("text", [
        "(X_0 1.0) (X_1 2.0)",
        "((X_0 1.0) (Y_0 -3.0))",
        "(X_0 1.0) ; note\n(Y_0 2)",
        "(X_1 1.0)",
        "(X_0 1.0) (X_0 1.0)",
        "(X_0 (1.0))",
        "(X_0 1.0",
        "X_0 1.0",
    ])
    def test_witness_texts(self, text):
        assert outcome(parse_witness, text, WitnessFormatError) == \
            outcome(oracle_parse_witness, text, WitnessFormatError)


# --------------------------------------------------------------------------
# witnesses


def same_witness_outcome(text):
    """The package and the oracle give equal witnesses, compared by repr so
    that NaN and -0.0 values count, or both reject ``text``."""
    got = outcome(parse_witness, text, WitnessFormatError)
    want = outcome(oracle_parse_witness, text, WitnessFormatError)
    assert repr(got) == repr(want), text
    return got


@st.composite
def witnesses(draw):
    n = draw(st.integers(1, 5))
    outputs = draw(st.none() | st.lists(VALUES, min_size=1, max_size=4))
    return Witness(tuple(draw(st.lists(VALUES, min_size=n, max_size=n))),
                   None if outputs is None else tuple(outputs))


class TestWitnessDifferential:
    @given(witnesses(), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_respaced_witness_parses_equal(self, w, wrapped, data):
        # X and Y entries interleaved in a drawn order
        forms = data.draw(st.permutations(
            top_level_forms(oracle_tokenize(format_witness(w)))))
        tokens = [t for f in forms for t in f]
        if wrapped:
            tokens = ["("] + tokens + [")"]
        text = data.draw(respaced(tokens))
        assert same_witness_outcome(text) == w

    @given(witnesses(), st.booleans(), st.data())
    @settings(max_examples=400)
    def test_mutated_witness_parses_equal_or_both_reject(self, w, wrapped, data):
        forms = top_level_forms(oracle_tokenize(format_witness(w)))
        forms = mutate(data.draw, data.draw(st.permutations(forms)))
        tokens = [t for f in forms for t in f]
        if wrapped:
            tokens = ["("] + tokens + [")"]
        same_witness_outcome(data.draw(respaced(tokens)))

    @given(st.lists(st.sampled_from(["(", ")", "((", "))", "X_0 1", "Y_0 2",
                                     "X_1 -3", "(X_0 1)", "(Y_0 2)", "(X_1 -3)",
                                     "X_1", "4", "Y_1 nan"]), max_size=10),
           st.data())
    @settings(max_examples=300)
    def test_drawn_pieces_parse_equal_or_both_reject(self, pieces, data):
        same_witness_outcome(data.draw(respaced(pieces)))

    SMALL = Witness((1.0, -2.5), (3.0,))

    def test_every_single_token_edit(self):
        tokens = oracle_tokenize(format_witness(self.SMALL))
        edits = ["x", "0", "1", "_", "(", ")", "", "X_a", "X_", "Y_", "Z_0",
                 "X_1", "Y_0", "Y_1", "nan", "1e", "-0.0", "inf", "Real",
                 "X_99999999999999999999", "(X_0 1.0)"]
        accepted = 0
        for i, tok in enumerate(tokens):
            texts = [" ".join(tokens[:i] + [new] + tokens[i + 1:])
                     for edit in edits for new in (tok + edit, edit)]
            texts.append(" ".join(tokens[:i] + [tok + "".join(tokens[i + 1:i + 2])]
                                  + tokens[i + 2:]))
            for text in texts:
                for wrapped in (text, f"({text})"):
                    accepted += same_witness_outcome(wrapped) is not WitnessFormatError
        assert accepted > 2 * len(tokens)  # the unchanged token is among the edits
