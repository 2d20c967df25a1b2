"""Expression DSL for coordinate metrics, plus the metric file format.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | func '(' expr ')' | '(' expr ')' | '-' base
    func   in  exp log sin cos sinh cosh sqrt smoothbump
    ident  in  x1 .. x6, or a name bound by a let line (metric files)

``smoothbump(u, u0, u1)`` is the one extension beyond the unary functions:
a C^3 radial cutoff in the scalar u, identically 1 for u <= u0 and 0 for
u >= u1, joined by a degree-7 spline.  Its last two arguments must be
number literals.  Perturbed metrics use it to stay serializable.

Every walk over an expression (variable scans, substitution, printing,
evaluation) is iterative, so nesting depth is limited by memory, not by the
Python stack; only the parser recurses, and it reports nesting past the
recursion limit as a ParseError.  Evaluation makes one pass over the DAG of
all requested expressions (shared subtrees once) for a whole batch of
points, either numerically or as order-3 jets.

Metric files are plain text: a `dim = n` header, optional `name = "..."`
and `chart = "..."` lines, then `g<i><j> = <expression>` entries with
1-based indices.  `#` starts a comment.  Unspecified off-diagonal entries
default to 0; diagonal entries must be given.

After the header, ``let NAME = <expression>`` binds a name that later
expressions (entries and other lets) may use as an identifier.  A name
must be bound before it is used and only once, and may not be a reserved
word (``dim``, ``name``, ``chart``, ``let``, a function name, ``x<k>`` or
``g<ij>``).  Every use of a name is the same expression object, so a
shared subexpression stays shared: ``metric_to_text`` writes one ``let``
for each subexpression that the metric reaches more than once and whose
text is longer than ``LET_MIN_CHARS``, which keeps the files of perturbed
metrics (whose chart map appears in every entry) small.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .jets import Jet3, jet_add, jet_apply, jet_inverse, jet_mul, jet_power, jet_space

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

_BINARY = (Add, Sub, Mul, Div)


_CHILDREN_DONE = object()  # stack marker: the node below it has its children listed


def _walk(roots):
    """The distinct nodes (by identity) of the DAG under ``roots``, each
    after all of its children.  Iterative: depth is not limited by the
    Python stack."""
    order, seen = [], set()
    stack = list(roots)[::-1]
    pop, push, listed, mark = stack.pop, stack.extend, order.append, seen.add
    while stack:
        e = pop()
        if e is _CHILDREN_DONE:
            listed(pop())
            continue
        key = id(e)
        if key in seen:
            continue
        mark(key)
        t = type(e)
        if t is Num or t is Var:
            listed(e)
        elif t in _BINARY:
            push((e, _CHILDREN_DONE, e.b, e.a))
        elif t is Pow:
            push((e, _CHILDREN_DONE, e.base))
        elif t is Neg:
            push((e, _CHILDREN_DONE, e.a))
        elif t is Call:
            push((e, _CHILDREN_DONE, *reversed(e.args)))
        else:
            raise TypeError(f"not an expression node: {e!r}")
    return order


def max_var_index(e) -> int:
    """Largest 0-based variable index used, or -1 for constants."""
    return max((n.index for n in _walk([e]) if type(n) is Var), default=-1)


def used_vars(e) -> set:
    return {n.index for n in _walk([e]) if type(n) is Var}


def substitute(e, mapping):
    """Replace Var(i) by mapping[i] (an Expr) wherever it appears; shared
    subtrees stay shared."""
    new = {}
    for n in _walk([e]):
        t = type(n)
        if t is Var:
            out = mapping.get(n.index, n)
        elif t is Num:
            out = n
        elif t is Pow:
            out = Pow(new[id(n.base)], n.exponent)
        elif t is Neg:
            out = Neg(new[id(n.a)])
        elif t is Call:
            out = Call(n.func, tuple(new[id(a)] for a in n.args))
        else:
            out = t(new[id(n.a)], new[id(n.b)])
        new[id(n)] = out
    return new[id(e)]


# --- evaluation -------------------------------------------------------------


def _smoothstep_down(t):
    """Degree-7 step: 1 at t=0, 0 at t=1, zero 1st-3rd derivatives at both."""
    return 1.0 - t**4 * (35.0 + t * (-84.0 + t * (70.0 - t * 20.0)))


def _jet_array(v, shape):
    """A jet value as a coefficient array of ``shape`` (constants are floats)."""
    if not isinstance(v, float):
        return v
    out = np.zeros(shape)
    out[..., 0] = v
    return out


def _smoothbump_jet(space, u, u0, u1):
    uc = u[:, 0]
    out = np.zeros_like(u)
    # flat plateau: the C^3 junction makes the order-3 jet constant there
    out[uc <= u0, 0] = 1.0
    ramp = ~(uc <= u0) & ~(uc >= u1)
    if ramp.any():
        out[ramp] = _smoothstep_down(Jet3(space, jet_add(u[ramp], -u0) / (u1 - u0))).c
    return out


def _evaluate(roots, points, jets):
    """Values of the expressions ``roots`` at the (N, dim) ``points``, in one
    pass over their shared DAG: arrays (N,) of numbers, or with ``jets``
    order-3 jets (floats for constants, else coefficient arrays (N, size))."""
    npts, dim = points.shape
    if jets:
        space = jet_space(dim)
        lifted = space.lift(points)
    values = {}
    for e in _walk(roots):
        t = type(e)
        if t is Num:
            v = float(e.value) if jets else np.full(npts, e.value)
        elif t is Var:
            if e.index >= dim:
                raise DomainError(f"variable x{e.index + 1} out of range for dim {dim}")
            v = lifted[e.index] if jets else points[:, e.index]
        elif t in _BINARY:
            a, b = values[id(e.a)], values[id(e.b)]
            if t is Add:
                v = jet_add(a, b) if jets else a + b
            elif t is Sub:
                v = jet_add(a, -b) if jets else a - b
            elif t is Mul:
                v = jet_mul(space, a, b) if jets else a * b
            elif jets:
                v = jet_mul(space, a, jet_inverse(space, b))
            elif np.any(b == 0.0):
                raise DomainError("division by zero")
            else:
                v = a / b
        elif t is Pow:
            a = values[id(e.base)]
            v = jet_power(space, a, e.exponent) if jets else a**e.exponent
        elif t is Neg:
            v = -values[id(e.a)]
        elif e.func == "smoothbump":
            u, u0, u1 = values[id(e.args[0])], e.args[1].value, e.args[2].value
            if jets:
                v = _smoothbump_jet(space, _jet_array(u, lifted.shape[1:]), u0, u1)
            else:
                v = _smoothstep_down(np.clip((u - u0) / (u1 - u0), 0.0, 1.0))
        elif jets:
            v = jet_apply(space, e.func, values[id(e.args[0])])
        else:
            x = values[id(e.args[0])]
            if e.func in ("log", "sqrt") and np.any(x <= 0.0):
                raise DomainError(f"{e.func} of nonpositive value")
            v = getattr(np, e.func)(x)
        values[id(e)] = v
    return [values[id(r)] for r in roots]


def eval_expr(e, point) -> Jet3:
    """Jet of the expression at ``point``, exact to order 3."""
    return Jet3(jet_space(len(point)), eval_expr_many([e], np.asarray(point, dtype=float)[None])[0, 0])


def eval_expr_many(exprs, points) -> np.ndarray:
    """Order-3 jets of every expression at an (N, dim) batch of points, as
    an array (len(exprs), N, size) of Taylor coefficients."""
    points = np.asarray(points, dtype=float)
    shape = (len(points), jet_space(points.shape[1]).size)
    values = _evaluate(exprs, points, jets=True)
    return np.array([_jet_array(v, shape) for v in values]).reshape(len(exprs), *shape)


def eval_num(e, point) -> float:
    """Plain numeric evaluation (used for grid scans; cheaper than jets)."""
    return float(eval_num_many(e, np.asarray(point, dtype=float)[None, :])[0])


def eval_num_many(e, points) -> np.ndarray:
    """Vectorized numeric evaluation at an (N, dim) array of points.

    One pass for the whole batch; shared subtrees evaluate once.
    """
    return _evaluate([e], np.asarray(points, dtype=float), jets=False)[0]


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


def _number(tok, sign=1.0):
    """Num of a number literal.  One beyond float range is rejected: it
    would parse to inf, which no literal prints back."""
    x = float(tok.text)
    if not math.isfinite(x):
        raise ParseError(f"number {tok.text!r} is out of range", tok.line, tok.column)
    return Num(sign * x)


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.names = names  # let-bound name -> Expr
        self.max_var = -1  # largest variable index in the tokens read

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
            return _number(tok)
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
                index = int(m.group(1)) - 1
                self.max_var = max(self.max_var, index)
                return Var(index)
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
            if name in self.names:
                return self.names[name]
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.column)
        raise ParseError(
            f"unexpected {tok.text or 'end of expression'!r}", tok.line, tok.column
        )

    def _const_arg(self):
        sign = 1.0
        if self.peek().kind == "-":
            self.next()
            sign = -1.0
        return _number(self.expect("num"), sign)


def _parse(text, line, names):
    """(Expr, largest variable index written in ``text``, or -1)."""
    parser = _Parser(_tokenize(text, line=line), names)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", line, 1) from None
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node, parser.max_var


def parse_expr(text, line=1) -> object:
    """Parse a single expression string into an Expr tree."""
    return _parse(text, line, {})[0]


# --- printing ---------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_number(x):
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# operator text, precedence, and how much tighter the right operand binds
_INFIX = {Add: (" + ", _PREC_ADD, 0), Sub: (" - ", _PREC_ADD, 1), Mul: ("*", _PREC_MUL, 0), Div: ("/", _PREC_MUL, 1)}


def _layout(e):
    """(parts, precedence) of a node: parts are text, or (child, the least
    precedence the child may print at without parentheses)."""
    t = type(e)
    if t is Num:
        if e.value < 0:
            return [f"-{_fmt_number(-e.value)}"], _PREC_NEG
        return [_fmt_number(e.value)], _PREC_ATOM
    if t is Var:
        return [f"x{e.index + 1}"], _PREC_ATOM
    if t in _INFIX:
        op, prec, right = _INFIX[t]
        return [(e.a, prec), op, (e.b, prec + right)], prec
    if t is Neg:
        # wrap all non-atoms: the grammar binds '^' outside unary '-', so
        # printing -x1^2 for Neg(Pow(x1, 2)) would reparse differently
        return ["-", (e.a, _PREC_ATOM)], _PREC_NEG
    if t is Pow:
        return [(e.base, _PREC_POW + 1), f"^{e.exponent}"], _PREC_POW
    if t is Call:
        parts = [f"{e.func}("]
        for k, a in enumerate(e.args):
            parts += [", "] * (k > 0) + [(a, 0)]
        return parts + [")"], _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def expr_to_text(e, names=None) -> str:
    """Text that parses back to ``e``; tokens go onto one list from an
    explicit stack, so the time is linear in the length of the text.
    Subexpressions below ``e`` whose id is in ``names`` print as that
    name."""
    out = []
    stack = list(reversed(_layout(e)[0]))
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if names and id(item[0]) in names:
            out.append(names[id(item[0])])
            continue
        parts, prec = _layout(item[0])
        if prec < item[1]:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


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
        points, in one pass over the components' shared DAG."""
        points = np.asarray(points, dtype=float)
        pairs = _upper(self.dim)
        values = _evaluate([self.components[i][j] for i, j in pairs], points, jets=False)
        g = np.empty((points.shape[0], self.dim, self.dim))
        for (i, j), v in zip(pairs, values):
            g[:, i, j] = g[:, j, i] = v
        return g

    def eval_jets(self, point):
        """dim x dim list-of-lists of Jet3 (shared upper/lower entries)."""
        point = np.asarray(point, dtype=float)
        pairs = _upper(self.dim)
        coeffs = eval_expr_many([self.components[i][j] for i, j in pairs], point[None])
        space = jet_space(len(point))
        out = [[None] * self.dim for _ in range(self.dim)]
        for (i, j), c in zip(pairs, coeffs):
            out[i][j] = out[j][i] = Jet3(space, c[0])
        return out


def _upper(dim):
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _same(a, b):
    """Equal expressions, compared without recursion."""
    return a is b or expr_to_text(a) == expr_to_text(b)


def metric_from_components(components, name="", chart="") -> MetricDef:
    """Build a MetricDef from a square (possibly upper-triangular) list of
    Expr entries; None entries mirror across the diagonal."""
    dim = len(components)
    full = [[components[i][j] or components[j][i] or ZERO for j in range(dim)] for i in range(dim)]
    for i, j in _upper(dim):
        if not _same(full[i][j], full[j][i]):
            raise ParseError(f"asymmetric entries g{i+1}{j+1} vs g{j+1}{i+1}")
    # one walk over all entries (they may share subexpressions); the
    # per-entry walks only name the culprit
    if any(type(e) is Var and e.index >= dim for e in _walk([full[i][j] for i, j in _upper(dim)])):
        for i, j in _upper(dim):
            k = max_var_index(full[i][j])
            if k >= dim:
                raise ParseError(f"entry g{i+1}{j+1} uses x{k+1} but dim = {dim}")
    return MetricDef(dim=dim, components=tuple(tuple(row) for row in full), name=name, chart=chart)


_HEADER_RE = re.compile(r"^\s*(dim|name|chart|g([1-6])([1-6]))\s*=\s*(.*?)\s*$")
_LET_RE = re.compile(r"^\s*let\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*?)\s*$")
_RESERVED_RE = re.compile(r"dim|name|chart|let|smoothbump|x\d+|g\d\d|" + "|".join(UNARY_FUNCS))

LET_MIN_CHARS = 30


def parse_metric(text) -> MetricDef:
    """Parse a metric definition file.  See the module docstring."""
    dim = None
    name = ""
    chart = ""
    entries = {}
    names = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _LET_RE.match(line)
        if m is not None:
            let, rhs = m.groups()
            if dim is None:
                raise ParseError("let before the dim = n header", lineno, 1)
            if _RESERVED_RE.fullmatch(let):
                raise ParseError(f"{let!r} is reserved and cannot be bound", lineno, 1)
            if let in names:
                raise ParseError(f"duplicate let {let!r}", lineno, 1)
            # a let's own text is checked here, so no walk of the names it uses
            names[let], k = _parse(rhs, lineno, names)
            if k >= dim:
                raise ParseError(f"let {let} uses x{k+1} but dim = {dim}", lineno, 1)
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
        expr, k = _parse(rhs, lineno, names)
        if k >= dim:
            raise ParseError(f"entry g{i}{j} uses x{k+1} but dim = {dim}", lineno, 1)
        if (i, j) in entries:
            raise ParseError(f"duplicate entry g{i}{j}", lineno, 1)
        entries[(i, j)] = expr
    if dim is None:
        raise ParseError("missing dim = n header", 1, 1)

    for d in range(1, dim + 1):
        if (d, d) not in entries:
            raise ParseError(f"missing diagonal entry g{d}{d}")
    comp = [[entries.get((i, j)) for j in range(1, dim + 1)] for i in range(1, dim + 1)]
    return metric_from_components(comp, name=name, chart=chart)


def _let_names(roots):
    """Names (by node id) for the nodes that the roots reach more than
    once and whose text, with the names chosen below them, is longer than
    LET_MIN_CHARS; and those nodes, each after the ones it uses."""
    order = _walk(roots)
    layouts = [_layout(e) for e in order]
    refs = dict.fromkeys(map(id, order), 0)
    for e in roots:
        refs[id(e)] += 1
    for parts, _ in layouts:
        for part in parts:
            if not isinstance(part, str):
                refs[id(part[0])] += 1
    names, bound, length, prec = {}, [], {}, {}
    for e, (parts, p) in zip(order, layouts):
        size = 0
        for part in parts:
            if isinstance(part, str):
                size += len(part)
            else:
                child = id(part[0])
                size += length[child] + 2 * (prec[child] < part[1])
        key = id(e)
        if refs[key] > 1 and size > LET_MIN_CHARS and type(e) not in (Num, Var):
            names[key] = f"s{len(bound) + 1}"
            bound.append(e)
            size, p = len(names[key]), _PREC_ATOM
        length[key], prec[key] = size, p
    return names, bound


def metric_to_text(m: MetricDef) -> str:
    """Serialize back to the metric file format (parse round-trips), with
    a ``let`` for each large shared subexpression."""
    lines = [f"dim = {m.dim}"]
    if m.name:
        lines.append(f'name = "{m.name}"')
    if m.chart:
        lines.append(f'chart = "{m.chart}"')
    entries = [
        (f"g{i+1}{j+1}", m.components[i][j])
        for i, j in _upper(m.dim)
        if i == j or m.components[i][j] != ZERO
    ]
    names, bound = _let_names([e for _, e in entries])
    lines += [f"let {names[id(e)]} = {expr_to_text(e, names)}" for e in bound]
    lines += [f"{key} = {names.get(id(e)) or expr_to_text(e, names)}" for key, e in entries]
    return "\n".join(lines) + "\n"
