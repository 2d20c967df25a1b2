"""Expression DSL for coordinate metrics, plus the metric file format.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | func '(' expr ')' | '(' expr ')' | '-' base
    func   in  exp log sin cos sinh cosh sqrt smoothbump
    ident  in  x1 .. x6

``smoothbump(u, u0, u1)`` is the one extension beyond the unary functions:
a C^3 radial cutoff in the scalar u, identically 1 for u <= u0 and 0 for
u >= u1, joined by a degree-7 spline.  Its last two arguments must be
number literals.  Perturbed metrics use it to stay serializable.

Metric files are plain text: a `dim = n` header, optional `name = "..."`
and `chart = "..."` lines, then `g<i><j> = <expression>` entries with
1-based indices.  `#` starts a comment.  Unspecified off-diagonal entries
default to 0; diagonal entries must be given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, SingularMetric
from .jets import (
    Jet3,
    jet_constant,
    jet_cos,
    jet_cosh,
    jet_exp,
    jet_lift,
    jet_log,
    jet_sin,
    jet_sinh,
    jet_sqrt,
)

UNARY_FUNCS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")


# --- expression trees -------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Add:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Sub:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Mul:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Div:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    a: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple

Expr = (Num, Var, Add, Sub, Mul, Div, Pow, Neg, Call)

ZERO = Num(0.0)
ONE = Num(1.0)


def max_var_index(e) -> int:
    """Largest 0-based variable index used, or -1 for constants."""
    if isinstance(e, Num):
        return -1
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(max_var_index(e.a), max_var_index(e.b))
    if isinstance(e, Pow):
        return max_var_index(e.base)
    if isinstance(e, Neg):
        return max_var_index(e.a)
    if isinstance(e, Call):
        return max((max_var_index(a) for a in e.args), default=-1)
    raise TypeError(f"not an expression node: {e!r}")


def used_vars(e) -> set:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, (Add, Sub, Mul, Div)):
        return used_vars(e.a) | used_vars(e.b)
    if isinstance(e, Pow):
        return used_vars(e.base)
    if isinstance(e, Neg):
        return used_vars(e.a)
    if isinstance(e, Call):
        out = set()
        for a in e.args:
            out |= used_vars(a)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e, mapping):
    """Replace Var(i) by mapping[i] (an Expr) wherever it appears."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, Add):
        return Add(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Sub):
        return Sub(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Mul):
        return Mul(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Div):
        return Div(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Neg):
        return Neg(substitute(e.a, mapping))
    if isinstance(e, Call):
        return Call(e.func, tuple(substitute(a, mapping) for a in e.args))
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation -------------------------------------------------------------

_JET_FUNCS = {
    "exp": jet_exp,
    "log": jet_log,
    "sin": jet_sin,
    "cos": jet_cos,
    "sinh": jet_sinh,
    "cosh": jet_cosh,
    "sqrt": jet_sqrt,
}

_NUM_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
}


def _smoothstep_down(t):
    """Degree-7 step: 1 at t=0, 0 at t=1, zero 1st-3rd derivatives at both."""
    return 1.0 - t**4 * (35.0 + t * (-84.0 + t * (70.0 - t * 20.0)))


def eval_expr(e, point) -> Jet3:
    """Jet of the expression at ``point``, exact to order 3.

    Shared subtrees (expression DAGs produced by substitution) are
    evaluated once per call.
    """
    point = np.asarray(point, dtype=float)
    dim = len(point)
    lifted = [jet_lift(point, k) for k in range(dim)]
    return _eval_jet(e, lifted, dim, {})


def _eval_jet(e, lifted, dim, memo) -> Jet3:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Num):
        out = jet_constant(e.value, dim)
    elif isinstance(e, Var):
        if e.index >= dim:
            raise DomainError(f"variable x{e.index + 1} out of range for dim {dim}")
        out = lifted[e.index]
    elif isinstance(e, Add):
        out = _eval_jet(e.a, lifted, dim, memo) + _eval_jet(e.b, lifted, dim, memo)
    elif isinstance(e, Sub):
        out = _eval_jet(e.a, lifted, dim, memo) - _eval_jet(e.b, lifted, dim, memo)
    elif isinstance(e, Mul):
        out = _eval_jet(e.a, lifted, dim, memo) * _eval_jet(e.b, lifted, dim, memo)
    elif isinstance(e, Div):
        out = _eval_jet(e.a, lifted, dim, memo) / _eval_jet(e.b, lifted, dim, memo)
    elif isinstance(e, Pow):
        out = _eval_jet(e.base, lifted, dim, memo) ** e.exponent
    elif isinstance(e, Neg):
        out = -_eval_jet(e.a, lifted, dim, memo)
    elif isinstance(e, Call):
        if e.func == "smoothbump":
            out = _smoothbump_jet(e, lifted, dim, memo)
        else:
            out = _JET_FUNCS[e.func](_eval_jet(e.args[0], lifted, dim, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = out
    return out


def _smoothbump_jet(e, lifted, dim, memo) -> Jet3:
    u = _eval_jet(e.args[0], lifted, dim, memo)
    u0 = e.args[1].value
    u1 = e.args[2].value
    uc = u.value
    if uc <= u0:
        # flat plateau: the C^3 junction makes the order-3 jet constant there
        return jet_constant(1.0, dim)
    if uc >= u1:
        return jet_constant(0.0, dim)
    t = (u - u0) / (u1 - u0)
    return 1.0 - t**4 * (35.0 + t * (-84.0 + t * (70.0 - t * 20.0)))


def eval_num(e, point) -> float:
    """Plain numeric evaluation (used for grid scans; cheaper than jets)."""
    out = eval_num_many(e, np.asarray(point, dtype=float)[None, :])
    return float(out[0])


def eval_num_many(e, points) -> np.ndarray:
    """Vectorized numeric evaluation at an (N, dim) array of points.

    One tree walk for the whole batch; shared subtrees evaluate once.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    return _eval_num_many(e, points, n, {})


def _eval_num_many(e, points, n, memo):
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Num):
        out = np.full(n, e.value)
    elif isinstance(e, Var):
        if e.index >= points.shape[1]:
            raise DomainError(f"variable x{e.index + 1} out of range")
        out = points[:, e.index]
    elif isinstance(e, Add):
        out = _eval_num_many(e.a, points, n, memo) + _eval_num_many(e.b, points, n, memo)
    elif isinstance(e, Sub):
        out = _eval_num_many(e.a, points, n, memo) - _eval_num_many(e.b, points, n, memo)
    elif isinstance(e, Mul):
        out = _eval_num_many(e.a, points, n, memo) * _eval_num_many(e.b, points, n, memo)
    elif isinstance(e, Div):
        d = _eval_num_many(e.b, points, n, memo)
        if np.any(d == 0.0):
            raise DomainError("division by zero")
        out = _eval_num_many(e.a, points, n, memo) / d
    elif isinstance(e, Pow):
        out = _eval_num_many(e.base, points, n, memo) ** e.exponent
    elif isinstance(e, Neg):
        out = -_eval_num_many(e.a, points, n, memo)
    elif isinstance(e, Call):
        if e.func == "smoothbump":
            u = _eval_num_many(e.args[0], points, n, memo)
            u0, u1 = e.args[1].value, e.args[2].value
            t = np.clip((u - u0) / (u1 - u0), 0.0, 1.0)
            out = _smoothstep_down(t)
        else:
            x = _eval_num_many(e.args[0], points, n, memo)
            if e.func in ("log", "sqrt") and np.any(x <= 0.0):
                raise DomainError(f"{e.func} of nonpositive value")
            out = _NUM_FUNCS[e.func](x)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = out
    return out


# --- tokenizer / parser -----------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text, line=1, col_offset=0):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(
                f"unexpected character {rest[0]!r}", line, pos + 1 + col_offset
            )
        pos = m.end()
        col = m.start(m.lastgroup) + 1 + col_offset
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), line, col))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group("ident"), line, col))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), line, col))
    tokens.append(_Token("end", "", line, len(text) + 1 + col_offset))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of expression'!r}",
                tok.line,
                tok.column,
            )
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            node = Mul(node, rhs) if op.kind == "*" else Div(node, rhs)
        return node

    def parse_factor(self):
        node = self.parse_base()
        if self.peek().kind == "^":
            self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            tok = self.expect("num")
            try:
                exponent = int(tok.text)
            except ValueError:
                raise ParseError("exponent must be an integer", tok.line, tok.column)
            node = Pow(node, sign * exponent)
        return node

    def parse_base(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "-":
            return Neg(self.parse_base())
        if tok.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            name = tok.text
            m = re.fullmatch(r"x([1-6])", name)
            if m:
                return Var(int(m.group(1)) - 1)
            if name in UNARY_FUNCS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Call(name, (arg,))
            if name == "smoothbump":
                self.expect("(")
                arg = self.parse_expr()
                self.expect(",")
                u0 = self._const_arg()
                self.expect(",")
                u1 = self._const_arg()
                self.expect(")")
                return Call(name, (arg, u0, u1))
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.column)
        raise ParseError(
            f"unexpected {tok.text or 'end of expression'!r}", tok.line, tok.column
        )

    def _const_arg(self):
        sign = 1.0
        if self.peek().kind == "-":
            self.next()
            sign = -1.0
        tok = self.expect("num")
        return Num(sign * float(tok.text))


def parse_expr(text, line=1) -> object:
    """Parse a single expression string into an Expr tree."""
    parser = _Parser(_tokenize(text, line=line))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node


# --- printing ---------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_number(x):
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _print(e):
    """Return (text, precedence)."""
    if isinstance(e, Num):
        if e.value < 0:
            return f"-{_fmt_number(-e.value)}", _PREC_NEG
        return _fmt_number(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return f"x{e.index + 1}", _PREC_ATOM
    if isinstance(e, Add):
        return f"{_wrap(e.a, _PREC_ADD)} + {_wrap(e.b, _PREC_ADD)}", _PREC_ADD
    if isinstance(e, Sub):
        return f"{_wrap(e.a, _PREC_ADD)} - {_wrap(e.b, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _PREC_MUL)}*{_wrap(e.b, _PREC_MUL)}", _PREC_MUL
    if isinstance(e, Div):
        return f"{_wrap(e.a, _PREC_MUL)}/{_wrap(e.b, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Neg):
        # wrap all non-atoms: the grammar binds '^' outside unary '-', so
        # printing -x1^2 for Neg(Pow(x1, 2)) would reparse differently
        return f"-{_wrap(e.a, _PREC_ATOM)}", _PREC_NEG
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_POW + 1)}^{e.exponent}", _PREC_POW
    if isinstance(e, Call):
        args = ", ".join(_print(a)[0] for a in e.args)
        return f"{e.func}({args})", _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e, min_prec):
    text, prec = _print(e)
    if prec < min_prec:
        return f"({text})"
    return text


def expr_to_text(e) -> str:
    return _print(e)[0]


# --- metric definitions -----------------------------------------------------


@dataclass(frozen=True)
class MetricDef:
    """A coordinate metric: dim x dim symmetric array of expressions."""

    dim: int
    components: tuple  # tuple of tuples of Expr, symmetric
    name: str = ""
    chart: str = ""

    def component(self, i, j):
        return self.components[i][j]

    def eval_matrix(self, point) -> np.ndarray:
        """Numeric metric matrix at ``point``."""
        return self.eval_matrix_many(np.asarray(point, dtype=float)[None, :])[0]

    def eval_matrix_many(self, points) -> np.ndarray:
        """(N, dim, dim) numeric metric matrices at an (N, dim) batch of
        points, with subexpressions shared across components evaluated
        once."""
        points = np.asarray(points, dtype=float)
        npts = points.shape[0]
        g = np.empty((npts, self.dim, self.dim))
        memo = {}
        for i in range(self.dim):
            for j in range(i, self.dim):
                vals = _eval_num_many(self.components[i][j], points, npts, memo)
                g[:, i, j] = vals
                g[:, j, i] = vals
        return g

    def eval_jets(self, point):
        """dim x dim list-of-lists of Jet3 (shared upper/lower entries)."""
        point = np.asarray(point, dtype=float)
        lifted = [jet_lift(point, k) for k in range(self.dim)]
        memo = {}
        out = [[None] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                jet = _eval_jet(self.components[i][j], lifted, self.dim, memo)
                out[i][j] = jet
                out[j][i] = jet
        return out

    def check_point(self, point, cond_limit=1e12) -> np.ndarray:
        """Return g(point) after verifying it is usable: finite (else
        DomainError), SPD and well conditioned (else SingularMetric)."""
        g = self.eval_matrix(point)
        if not np.isfinite(g).all():
            raise DomainError(f"metric not finite at {np.asarray(point).tolist()}")
        w = np.linalg.eigvalsh(g)
        if w[0] <= 0.0:
            raise SingularMetric(
                f"metric not positive definite at {list(point)} (min eigenvalue {w[0]:g})"
            )
        if w[-1] / w[0] > cond_limit:
            raise SingularMetric(
                f"metric too ill-conditioned at {list(point)} (cond {w[-1] / w[0]:g})"
            )
        return g


def metric_from_components(components, name="", chart="") -> MetricDef:
    """Build a MetricDef from a square (possibly upper-triangular) list of
    Expr entries; None entries mirror across the diagonal."""
    dim = len(components)
    full = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            e = components[i][j]
            if e is not None:
                full[i][j] = e
    for i in range(dim):
        for j in range(dim):
            if full[i][j] is None and full[j][i] is not None:
                full[i][j] = full[j][i]
            elif full[i][j] is None:
                full[i][j] = ZERO
    for i in range(dim):
        for j in range(dim):
            if full[i][j] != full[j][i]:
                raise ParseError(f"asymmetric entries g{i+1}{j+1} vs g{j+1}{i+1}")
    comp = tuple(tuple(row) for row in full)
    m = MetricDef(dim=dim, components=comp, name=name, chart=chart)
    _check_var_range(m)
    return m


def _check_var_range(m):
    for i in range(m.dim):
        for j in range(m.dim):
            k = max_var_index(m.components[i][j])
            if k >= m.dim:
                raise ParseError(
                    f"entry g{i+1}{j+1} uses x{k+1} but dim = {m.dim}"
                )


_HEADER_RE = re.compile(r"^\s*(dim|name|chart|g([1-6])([1-6]))\s*=\s*(.*?)\s*$")


def parse_metric(text) -> MetricDef:
    """Parse a metric definition file.  See the module docstring."""
    dim = None
    name = ""
    chart = ""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _HEADER_RE.match(line)
        if m is None:
            raise ParseError(f"cannot parse line {raw.strip()!r}", lineno, 1)
        key, gi, gj, rhs = m.group(1), m.group(2), m.group(3), m.group(4)
        if key == "dim":
            if dim is not None:
                raise ParseError("duplicate dim line", lineno, 1)
            try:
                dim = int(rhs)
            except ValueError:
                raise ParseError(f"dim must be an integer, got {rhs!r}", lineno, 1)
            if not 2 <= dim <= 6:
                raise ParseError(f"dim must be between 2 and 6, got {dim}", lineno, 1)
            continue
        if key in ("name", "chart"):
            value = rhs.strip()
            if value.startswith('"') and value.endswith('"') and len(value) >= 2:
                value = value[1:-1]
            if key == "name":
                name = value
            else:
                chart = value
            continue
        if dim is None:
            raise ParseError("metric entries before the dim = n header", lineno, 1)
        i, j = int(gi), int(gj)
        if i > dim or j > dim:
            raise ParseError(
                f"entry g{i}{j} out of range for dim = {dim}", lineno, 1
            )
        expr = parse_expr(rhs, line=lineno)
        k = max_var_index(expr)
        if k >= dim:
            raise ParseError(f"entry g{i}{j} uses x{k+1} but dim = {dim}", lineno, 1)
        if (i, j) in entries:
            raise ParseError(f"duplicate entry g{i}{j}", lineno, 1)
        entries[(i, j)] = expr
    if dim is None:
        raise ParseError("missing dim = n header", 1, 1)

    comp = [[None] * dim for _ in range(dim)]
    for (i, j), expr in entries.items():
        if comp[i - 1][j - 1] is not None and comp[i - 1][j - 1] != expr:
            raise ParseError(f"asymmetric explicit entries g{i}{j} vs g{j}{i}")
        comp[i - 1][j - 1] = expr
        if comp[j - 1][i - 1] is None:
            comp[j - 1][i - 1] = expr
        elif comp[j - 1][i - 1] != expr:
            raise ParseError(f"asymmetric explicit entries g{i}{j} vs g{j}{i}")
    for d in range(dim):
        if comp[d][d] is None:
            raise ParseError(f"missing diagonal entry g{d+1}{d+1}")
        for j in range(dim):
            if comp[d][j] is None:
                comp[d][j] = ZERO
    return MetricDef(
        dim=dim,
        components=tuple(tuple(row) for row in comp),
        name=name,
        chart=chart,
    )


def metric_to_text(m: MetricDef) -> str:
    """Serialize back to the metric file format (parse round-trips)."""
    lines = [f"dim = {m.dim}"]
    if m.name:
        lines.append(f'name = "{m.name}"')
    if m.chart:
        lines.append(f'chart = "{m.chart}"')
    for i in range(m.dim):
        for j in range(i, m.dim):
            e = m.components[i][j]
            if i != j and e == ZERO:
                continue
            lines.append(f"g{i+1}{j+1} = {expr_to_text(e)}")
    return "\n".join(lines) + "\n"
