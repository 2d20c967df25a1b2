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
compilation) is iterative, so nesting depth is limited by memory, not by
the Python stack; only the parser recurses, and it reports nesting past
the recursion limit as a ParseError.

Evaluation compiles the DAG of the requested expressions (shared subtrees
once) into a program, then runs it on a batch of points as jets of a given
order, 0 to 3 (the program does not depend on it): an order-0 jet is the
value, so numbers are order-0 jets.  Compiling folds every constant
subtree the way a jet run computes it (a constant a / b is a * (1 / b)),
gives each coordinate x_k one buffer slot, and groups the other nodes by
depth and by operation.  A run makes one numpy call per group over a
(nodes, points, coefficients) buffer: one ``JetSpace.mul`` for every
product of two jets of a depth (a bare x_k is a jet too), one
``jet_apply`` per function, and so on.  A group reads its operands as a
slice of the buffer where their slots are contiguous (always so for a
group of one node, as in a long chain of sums), else through an int32
array of operand slots; its constant operands are a slice of constant
columns built at compile time.  A ``MetricDef`` compiles its entries on
first evaluation and keeps the program on the instance, outside the
fields, for every later call; a ``PulledBackMetric`` evaluates through its
base's program.  The program holds a few ints per group, the operand and
constant arrays, and no expression nodes.

The bits are those of evaluating the nodes one by one: each node runs the
same floating-point operations on the same operands, only many nodes at
a time, and a jet product sums each slot in a fixed order whatever the
batch.  A constant operand enters as the node-by-node evaluation had it:
a float, which shifts or scales.

An expression with two evaluation errors (say a log of a negative constant
and a division by a jet that vanishes at the point) raises one
DomainError, in fold-then-depth order, not walk order: an error from
folding a constant or from a zero constant divisor first, else the first
failing group by depth.  The message may name the other error than a
node-by-node walk would; the exit code is the same.

Metric files are plain text: a `dim = n` header, `name = "..."` and
`chart = "..."` lines if wanted, then `g<i><j> = <expression>` entries with
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
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ParseError
from .jets import jet_add, jet_apply, jet_inverse, jet_mul, jet_power, jet_space

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


def _smoothbump_jet(space, u, u0, u1):
    """smoothbump of the jets ``u`` (N, size)."""
    uc = u[:, 0]
    out = np.zeros_like(u)
    # flat plateau: the C^3 junction makes the order-3 jet constant there
    out[uc <= u0, 0] = 1.0
    ramp = ~(uc <= u0) & ~(uc >= u1)
    if ramp.any():
        # the degree-7 step 1 - t^4 (35 + t (-84 + t (70 - 20 t))), which is
        # 1 at t = 0, 0 at t = 1 and has zero 1st-3rd derivatives at both
        t = jet_add(u[ramp], -u0) / (u1 - u0)
        poly = jet_add(70.0, -(t * 20.0))
        poly = jet_add(jet_mul(space, t, poly), -84.0)
        poly = jet_add(jet_mul(space, t, poly), 35.0)
        out[ramp] = jet_add(1.0, -jet_mul(space, jet_power(space, t, 4), poly))
    return out


# operations of a compiled program: "s" operands are buffer slots, "c" ones
# constants
(
    _ADD,  # s + s
    _SUB,  # s - s
    _ADDC,  # s + c
    _CSUB,  # c - s
    _NEG,  # -s
    _SCALE,  # s * c, and s / c as s * (1 / c)
    _MUL,  # s * s
    _DIV,  # s / s
    _CDIV,  # c / s
    _POW,  # s ^ param
    _CALL,  # param(s), param in UNARY_FUNCS
    _BUMP,  # smoothbump(s, *param)
    _LIFT,  # c, as a slot
) = range(13)
_NOPS = _LIFT + 1

_SLOT_PAIRS = (_ADD, _SUB, _MUL, _DIV)  # two slot operands
_SLOT_PAIR = dict(zip(_BINARY, _SLOT_PAIRS))
_LEFT_CONST = {Add: _ADDC, Sub: _CSUB, Mul: _SCALE, Div: _CDIV}
_RIGHT_CONST = {Add: _ADDC, Mul: _SCALE, Div: _SCALE}
_CONST_OPS = (_ADDC, _CSUB, _SCALE, _CDIV, _LIFT)  # a constant operand
_JET_CUBE = (_SCALE, _CDIV)  # whose constant scales every jet coefficient


def _fold(e, args):
    """Value (a float) of the constant node ``e`` from its children's
    values ``args``, as a jet run computes it."""
    t, a = type(e), args[0]
    if t is Add:
        return a + args[1]
    if t is Sub:
        return a - args[1]
    if t is Mul:
        return a * args[1]
    if t is Neg:
        return -a
    if t is Div:
        return a * jet_inverse(None, args[1])
    return jet_power(None, a, e.exponent) if t is Pow else jet_apply(None, e.func, a)


class _Program:
    """The expressions ``roots`` compiled for evaluation at batches of
    points, as jets of any order (see the module docstring).

    The buffer holds the coordinates ``vars`` in its first slots, then
    one slot per node computed at run time, ``size`` in all.  ``steps``
    has a row (op, param, lo, hi, a, b, c) per group of nodes of one
    depth and one operation: the group writes slots lo..hi-1 from its
    operands ``a`` and ``b``, each the first of hi - lo contiguous slots
    or -1, where the group reads them through ``gather`` (the int32
    operand slots of every slot) at lo..hi-1; its constant operands are
    ``consts`` from row ``c`` on (as a column and as a cube; a divisor is
    held as its reciprocal).  ``error`` holds the DomainError message, if
    any, that every run raises (from folding a constant or from a zero
    constant divisor), ``roots`` the slot of each root and ``width`` the
    least point width that covers ``vars``."""

    __slots__ = ("vars", "width", "size", "steps", "gather", "consts", "roots", "error")

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a fold may overflow; the run gives inf or nan
    def __init__(self, roots):
        # by node id: its slot (an int) or, for a constant, its folded
        # value (a float); by coordinate index: its slot
        value, var_slot = {}, {}
        # per provisional slot: depth (-1 for a coordinate), kind (the op,
        # or for an op with a parameter its index in ``pairs`` past the
        # ops; a coordinate's own index) and operands (slots, or constants
        # as ~index)
        levels, kinds, first, second = [], [], [], []
        kind_of, pairs = {}, []  # (op, param) -> kind; kind - _NOPS -> (op, param)
        consts, errors = [], []

        def fold(e, args):
            try:
                return _fold(e, args)
            except DomainError as exc:  # raised when the program runs
                errors.append(str(exc))
                return math.nan

        def lift(c):  # a constant as a slot, for a root or a smoothbump
            consts.append(c)
            levels.append(0)
            kinds.append(_LIFT)
            first.append(0)
            second.append(-len(consts))
            return len(levels) - 1

        for e in _walk(roots):
            t = type(e)
            if t is Num:
                value[id(e)] = float(e.value)
                continue
            if t is Var:
                if e.index not in var_slot:
                    var_slot[e.index] = len(levels)
                    levels.append(-1)
                    kinds.append(e.index)
                    first.append(0)
                    second.append(0)
                value[id(e)] = var_slot[e.index]
                continue
            if t in _BINARY:
                a, b = value[id(e.a)], value[id(e.b)]
                if isinstance(a, float):
                    if isinstance(b, float):
                        value[id(e)] = fold(e, (a, b))
                        continue
                    consts.append(a)
                    kind, a, b, level = _LEFT_CONST[t], b, -len(consts), levels[b] + 1
                elif isinstance(b, float):
                    if t is Sub:
                        t, b = Add, -b  # a - c as a + (-c): the same bits
                    elif t is Div:  # a run multiplies by the reciprocal
                        if b == 0.0:  # every run divides by it
                            errors.append("division by a jet with zero constant term")
                        b = 1.0 / b if b != 0.0 else math.nan
                    consts.append(b)
                    kind, b, level = _RIGHT_CONST[t], -len(consts), levels[a] + 1
                else:
                    kind, level = _SLOT_PAIR[t], max(levels[a], levels[b]) + 1
            else:
                if t is Call and e.func == "smoothbump":
                    # never folded: evaluation makes its jet an array, as
                    # it does for every node that depends on the point
                    a = value[id(e.args[0])]
                    op, param = _BUMP, (float(e.args[1].value), float(e.args[2].value))
                    if isinstance(a, float):
                        a = lift(a)
                else:
                    a = value[id(e.base if t is Pow else e.a if t is Neg else e.args[0])]
                    if t is Pow and e.exponent == 0:
                        value[id(e)] = 1.0  # x^0 is the constant 1
                        continue
                    if isinstance(a, float):
                        value[id(e)] = fold(e, (a,))
                        continue
                    op, param = (_POW, e.exponent) if t is Pow else (_NEG, None) if t is Neg else (_CALL, e.func)
                kind, b, level = op, 0, levels[a] + 1
                if param is not None:
                    kind = kind_of.get((op, param))
                    if kind is None:
                        kind = kind_of[op, param] = _NOPS + len(pairs)
                        pairs.append((op, param))
            value[id(e)] = len(levels)
            levels.append(level)
            kinds.append(kind)
            first.append(a)
            second.append(b)
        root_slots = [lift(v) if isinstance(v, float) else v for v in (value[id(r)] for r in roots)]

        # lay out: the coordinates by index, then the groups by depth
        n, nv = len(levels), len(var_slot)
        span = _NOPS + len(pairs) + max(var_slot, default=0) + 1
        keys = [level * span + kind for level, kind in zip(levels, kinds)]  # below 0 for coordinates
        order = sorted(range(n), key=keys.__getitem__)
        final = [0] * n + list(range(-len(consts), 0))  # provisional slot -> slot; a constant's ~index is kept
        for new, old in enumerate(order):
            final[old] = new
        keys = [keys[i] for i in order]
        a, b = [final[first[i]] for i in order], [final[second[i]] for i in order]
        starts = [lo for lo in range(nv, n) if lo == nv or keys[lo] != keys[lo - 1]]
        # the constant operands (b < 0) in slot order, as a column and as a
        # cube (for an op that scales every coefficient)
        column = np.array([consts[~x] for x in b if x < 0], dtype=float).reshape(-1, 1)
        self.consts = (column, column[..., None])

        def operand(x, lo, hi):
            """The first of the slots x[lo:hi] where they are contiguous,
            else -1: the group gathers them."""
            if hi - lo == 1 or x[lo:hi] == list(range(x[lo], x[lo] + hi - lo)):
                return x[lo]
            return -1

        # one column per field (a group is a row) and no array views: small
        # to keep, and nothing the garbage collector tracks, even for a long chain
        steps = ops, params, los, his, a_col, b_col, c_col = [], [], [], [], [], [], []
        at = 0
        for lo, hi in zip(starts, [*starts[1:], n]):
            kind = keys[lo] % span
            op, param = pairs[kind - _NOPS] if kind >= _NOPS else (kind, None)
            ops.append(op)
            params.append(param)
            los.append(lo)
            his.append(hi)
            a_col.append(None if op == _LIFT else operand(a, lo, hi))
            b_col.append(operand(b, lo, hi) if op in _SLOT_PAIRS else None)
            c_col.append(at if op in _CONST_OPS else None)
            if op in _CONST_OPS:
                at += hi - lo
        self.steps = steps
        self.gather = [np.array(x, dtype=np.int32) for x in (a, b)] if -1 in a_col or -1 in b_col else None
        self.size = n
        self.roots = np.array([final[r] for r in root_slots], dtype=np.intp)
        self.vars = np.array(sorted(var_slot), dtype=np.intp)
        self.width = max(var_slot, default=-1) + 1
        self.error = errors[0] if errors else None

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # inf or nan; every caller checks finiteness
    def run(self, points, order=3):
        """Jets (roots, N, size) of ``order`` of the roots at the (N, width)
        ``points``; at order 0, size is 1 and the jets are the values."""
        npts, width = points.shape
        space = jet_space(width, order)
        if self.width > width:
            raise DomainError(f"variable x{self.width} out of range for dim {width}")
        if self.error:
            raise DomainError(self.error)
        nv = len(self.vars)
        buf = np.empty((self.size, npts, space.size))
        buf[:nv] = space.coordinates[self.vars, None]
        buf[:nv, :, 0] = points.T[self.vars]
        gather_a, gather_b = self.gather or (None, None)
        for op, param, lo, hi, a, b, c in zip(*self.steps):
            out = buf[lo:hi]
            if c is not None:
                c = self.consts[op in _JET_CUBE][c : c + hi - lo]
            if op == _LIFT:
                out[...] = 0.0
                out[..., 0] = c
                continue
            u = buf[a : a + hi - lo] if a >= 0 else buf[gather_a[lo:hi]]
            if b is not None:
                v = buf[b : b + hi - lo] if b >= 0 else buf[gather_b[lo:hi]]
            if op == _ADD:
                np.add(u, v, out=out)
            elif op == _SUB:
                np.subtract(u, v, out=out)
            elif op == _ADDC or op == _CSUB:  # the constant shifts the constant term only
                np.negative(u, out=out) if op == _CSUB else np.copyto(out, u)
                out[..., 0] += c
            elif op == _NEG:
                np.negative(u, out=out)
            elif op == _SCALE:
                np.multiply(u, c, out=out)
            elif op == _MUL:
                out[...] = space.mul(u, v)
            elif op == _DIV:
                out[...] = space.mul(u, jet_inverse(space, v))
            elif op == _CDIV:
                out[...] = c * jet_inverse(space, u)
            elif op == _POW:
                out[...] = jet_power(space, u, param)
            elif op == _CALL:
                out[...] = jet_apply(space, param, u)
            else:  # _BUMP
                out[...] = _smoothbump_jet(space, u.reshape(-1, space.size), *param).reshape(u.shape)
        return buf[self.roots]


def eval_expr(e, point) -> np.ndarray:
    """Order-3 jet of the expression at ``point``: its (size,) Taylor
    coefficients in the slot order of ``jet_space(len(point))``."""
    return eval_expr_many([e], np.asarray(point, dtype=float)[None])[0, 0]


def eval_expr_many(exprs, points) -> np.ndarray:
    """Order-3 jets of every expression at an (N, dim) batch of points, as
    an array (len(exprs), N, size) of Taylor coefficients."""
    return _Program(exprs).run(np.asarray(points, dtype=float))


def eval_num(e, point) -> float:
    """Value of the expression at ``point``."""
    return float(eval_num_many(e, np.asarray(point, dtype=float)[None, :])[0])


def eval_num_many(e, points) -> np.ndarray:
    """Values (N,) of the expression at an (N, dim) batch of points: its
    order-0 jets."""
    return _Program([e]).run(np.asarray(points, dtype=float), 0)[0, :, 0]


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
        """Metric matrix at ``point``."""
        return self.eval_matrix_many(np.asarray(point, dtype=float)[None, :])[0]

    @cached_property
    def _program(self):
        """The upper entries compiled once; kept on the instance, outside
        the fields, so ``==``, ``hash`` and ``repr`` do not see it."""
        return _Program([self.components[i][j] for i, j in _upper(self.dim)])

    def __getstate__(self):
        """The fields only: a copy compiles its own program when used."""
        return {k: v for k, v in self.__dict__.items() if k != "_program"}

    def _jets(self, points, order):
        """Jets (N, dim, dim, size) of ``order`` of the entries at the (N,
        dim) ``points``; at order 0 they are the values."""
        return self._program.run(points, order).transpose(1, 0, 2)[:, _pair_index(self.dim)]

    def eval_matrix_many(self, points) -> np.ndarray:
        """(N, dim, dim) metric matrices at an (N, dim) batch of points,
        from the order-0 jets of the entries."""
        return self._jets(np.asarray(points, dtype=float), 0)[..., 0]

    def eval_jets(self, point, order=3):
        """(dim, dim, size) Taylor coefficients of ``order`` of the entries
        at ``point``."""
        return self._jets(np.asarray(point, dtype=float)[None], order)[0]


def _upper(dim):
    return [(i, j) for i in range(dim) for j in range(i, dim)]


@lru_cache(maxsize=None)
def _pair_index(dim):
    """(dim, dim) array: the position of (i, j) among the upper pairs."""
    out = np.empty((dim, dim), dtype=int)
    for p, (i, j) in enumerate(_upper(dim)):
        out[i, j] = out[j, i] = p
    return out


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
