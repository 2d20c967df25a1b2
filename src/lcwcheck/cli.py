"""Command-line front end.

Commands: ``catalog``, ``tensors``, ``check``, ``perturb``, ``weyl-space``.
Metric sources are either a catalog entry name or a path to a metric file
in the format documented in the dsl module.  A catalog name that is also a
file in the working directory is ambiguous and exits 2; write ``./nil``
for the file.

Each command builds one document (a dict, or a list of rows for
``catalog``) and ``_emit`` prints it as JSON or as a table rendered from
that JSON.  ``check`` decides by the metric's dimension: the Cotton-York
test in dim 3, the Weyl eigenflag test in dim >= 4.

Exit codes of ``check`` (and ``weyl-space sample/phi``): 0 when the
necessary condition for a limiting Carleman weight passes, 10 when it
fails (no weight exists near the point), 11 when the result is in the
inconclusive band.  Parse errors exit 2, evaluation/domain errors exit 3
(``check`` on a metric of dim < 3 too), positivity failures of ``perturb``
exit 4.  A document holding a number that is not finite (a ``perturb``
target whose norm overflows, for instance) is an evaluation error in
either format: exit 3 with nothing on stdout.

Identical (command, seed) pairs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import click
import numpy as np

from . import catalog as cat
from .bivectors import (
    CurvatureOperator,
    _require_weyl,
    dimension_report,
    operator_to_0_4,
    phi_map,
    random_weyl_operator,
    sample_eigenflag_params,
)
from .dsl import metric_to_text, parse_metric
from .errors import DimensionError, LcwError, NotPositiveDefinite, ParseError, UnknownEntry
from .obstructions import ObstructionConfig, _frame_weyl, auto_test, eigenflag_test
from .perturbation import algebraic_part, chart_cotton_york, chart_riemann, normal_coordinates, prescribe_cotton_york_in, prescribe_curvature_in
from .pipeline import TENSOR_FIELDS, compute_snapshot, format_json, snapshot_to_dict

EXIT_PASSES = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_POSITIVITY = 4
EXIT_FAILS = 10
EXIT_INCONCLUSIVE = 11


class _FiniteFloat(click.FloatRange):
    """A finite number, with a lower bound if one is given (click exits 2 otherwise);
    a plain range lets NaN through."""

    def __init__(self, min=-sys.float_info.max, min_open=False):
        super().__init__(min=min, min_open=min_open, max=sys.float_info.max)

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if math.isnan(x):
            self.fail(f"{value!r} is not a number", param, ctx)
        return x


_POSITIVE = _FiniteFloat(min=0.0, min_open=True)

_VERDICT_EXIT = {"passes_necessary": EXIT_PASSES, "fails_lcw_necessary": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}


def _parse_point(text, dim):
    if not text:
        return np.zeros(dim)
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"cannot parse point {text!r}; expected a,b,c")
    if not np.isfinite(vals).all():
        raise ParseError(f"point {text!r} has a non-finite coordinate")
    if len(vals) != dim:
        raise ParseError(f"point has {len(vals)} coordinates, metric dim is {dim}")
    return np.array(vals)


def _load_source(source):
    """Catalog entry name or metric file path -> MetricDef."""
    path = pathlib.Path(source)
    if path.exists():
        if path.name == source and source in cat.list_catalog():
            raise ParseError(f"{source!r} is both a catalog entry and a file here; write ./{source} for the file")
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read metric file {source!r}: {exc}")
        return parse_metric(text)
    try:
        return cat.get_entry(source).metric
    except UnknownEntry:
        raise ParseError(f"{source!r} is neither a readable file nor a catalog entry")


def _load_target(target, n):
    """The ``cy`` matrix (dim 3) or the ``weyl`` operator (lex pairs) of a
    ``--target`` file: a ParseError if the file cannot be read as one, a
    ConstraintViolation if the operator is not a Weyl operator."""
    key = "cy" if n == 3 else "weyl"
    try:
        mat = np.array(json.loads(pathlib.Path(target).read_text())[key])
    except (OSError, UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:  # ValueError: not JSON, or ragged
        raise ParseError(f"--target {target!r} is not 'same', 'random' or a JSON file with a {key!r} array ({exc!r})")
    if mat.dtype.kind not in "iuf" or not np.isfinite(mat).all():
        raise ParseError(f"the {key!r} entry of {target!r} is not an array of finite numbers")
    if n == 3:
        return mat.astype(float)
    op = CurvatureOperator(dim=n, mat=mat)
    _require_weyl(op, "the weyl target")
    return op


def _cell(x):
    """A JSON scalar in a table: a float at 6 significant digits, a string
    as it is, anything else as JSON spells it."""
    if isinstance(x, float):
        return f"{x:.6g}"
    return x if isinstance(x, str) else json.dumps(x)


def _table_lines(key, v):
    """``key = value`` lines of one entry of a JSON document: a dict as
    ``key.sub`` entries, a vector on one line, a matrix one row per line,
    and a larger array as its shape and Frobenius norm."""
    if isinstance(v, dict):
        for k, x in v.items():
            yield from _table_lines(f"{key}.{k}" if key else k, x)
    elif not isinstance(v, list):
        yield f"{key} = {_cell(v)}"
    elif np.ndim(v) == 1:
        yield f"{key} = " + ", ".join(map(_cell, v))
    elif np.ndim(v) == 2:
        yield f"{key} ="
        for row in v:
            yield "  " + " ".join(f"{_cell(x):>12}" for x in row)
    else:
        a = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):  # inf past the float range
            yield f"{key} = {' x '.join(map(str, a.shape))} array, frobenius norm {_cell(float(np.linalg.norm(a)))}"


def _emit(doc, fmt, out=None):
    """Print the document ``doc`` as JSON or as a table rendered from that
    JSON (a list of rows as columns).  Either way a number that is not
    finite is refused (exit 3) before anything is printed, and before the
    metric ``out`` = (path, metric) is written."""
    text = format_json(doc)
    if out:
        pathlib.Path(out[0]).write_text(metric_to_text(out[1]))
    if fmt == "table":
        doc = json.loads(text)
        if isinstance(doc, list):
            cols = [[k, *(_cell(row[k]) for row in doc)] for k in doc[0]]
            widths = [max(map(len, col)) for col in cols]
            text = "\n".join(" ".join(c[i].ljust(w) for c, w in zip(cols, widths)).rstrip() for i in range(len(doc) + 1))
        else:
            text = "\n".join(_table_lines("", doc))
    click.echo(text)


class _Group(click.Group):
    """The commands' one error boundary: an LcwError is one line on stderr
    and exit 2 (parse), 4 (positivity) or 3 (any other)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except LcwError as e:
            click.echo(f"error: {e}", err=True)
            code = EXIT_PARSE if isinstance(e, ParseError) else EXIT_MATH
            sys.exit(EXIT_POSITIVITY if isinstance(e, NotPositiveDefinite) else code)


@click.group(cls=_Group)
def main():
    """Curvature tensors and limiting-Carleman-weight obstructions for
    coordinate metrics."""


@main.command("catalog")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
def cmd_catalog(fmt):
    """List built-in geometries."""
    entries = map(cat.get_entry, cat.list_catalog())
    _emit([{"name": e.name, "dim": e.dim, "lcw": e.expected["lcw"]} for e in entries], fmt)


@main.command("tensors")
@click.option("--metric", "source", required=True, help="catalog name or metric file")
@click.option("--point", default="", help="evaluation point a,b,c (default: origin)")
@click.option("--which", default="", help="comma list of tensors (default: all)")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
def cmd_tensors(source, point, which, fmt):
    """Evaluate curvature tensors of a metric at a point."""
    metric = _load_source(source)
    wanted = [w.strip() for w in which.split(",") if w.strip()] or list(TENSOR_FIELDS)
    for w in wanted:
        if w not in TENSOR_FIELDS:
            raise ParseError(f"unknown tensor {w!r}; choose from {', '.join(TENSOR_FIELDS)}")
    doc = snapshot_to_dict(compute_snapshot(metric, _parse_point(point, metric.dim)))
    _emit({k: v for k, v in doc.items() if k in ("dim", "point") or k in wanted}, fmt)


@main.command("check")
@click.option("--metric", "source", required=True, help="catalog name or metric file")
@click.option("--point", default="", help="evaluation point (default: origin)")
@click.option("--tol", type=_POSITIVE, default=ObstructionConfig.tol_rel, help="relative tolerance (default 1e-8)")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="seed for the multi-start search (dims 5 and 6)")
@click.option("--starts", type=click.IntRange(min=0, max=100_000), default=64, help="random starts of the multi-start search (dims 5 and 6)")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
def cmd_check(source, point, tol, seed, starts, fmt):
    """Decide the necessary condition for a limiting Carleman weight: the
    Cotton-York test in dim 3, the Weyl eigenflag test in dim >= 4.

    Exit code 0: passes (no obstruction found); 10: fails (no LCW exists
    near the point); 11: inconclusive."""
    metric = _load_source(source)
    report = auto_test(metric, _parse_point(point, metric.dim), ObstructionConfig(tol_rel=tol, starts=starts, seed=seed))
    _emit(report.to_json_dict(), fmt)
    sys.exit(_VERDICT_EXIT[report.verdict_string])


@main.command("perturb")
@click.option("--metric", "source", required=True, help="catalog name or metric file")
@click.option("--point", default="", help="center of the bump (default: origin)")
@click.option(
    "--target",
    default="same",
    help="'same', 'random', or a JSON file with {'cy': [[..]]} (dim 3) / "
    "{'weyl': [[..]]} (dim 4, lex-pair operator matrix)",
)
@click.option("--radius", type=_POSITIVE, default=1.0)
@click.option("--amplitude", type=_FiniteFloat(), default=1e-2, help="size of a random target shift")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
def cmd_perturb(source, point, target, radius, amplitude, seed, out_path, fmt):
    """Bump a metric so the curvature (dim >= 4) or Cotton-York tensor
    (dim 3) at the point takes a prescribed value; writes the new metric
    file.  The output metric is expressed in normal coordinates centered at
    the point; evaluate it at the origin."""
    metric = _load_source(source)
    p = _parse_point(point, metric.dim)
    n = metric.dim
    rng = np.random.default_rng(seed)

    if target == "same":
        # identity prescription: the metric itself already has the
        # requested tensors, so the output is the input
        _emit({"unchanged": True, "target_error": 0.0, "evaluation_point": p, "out": str(out_path)}, fmt, (out_path, metric))
        return

    if n < 3:
        raise DimensionError("perturb needs dim >= 3")
    wanted = None if target == "random" else _load_target(target, n)
    chart = normal_coordinates(metric, p, radius, 3 if n == 3 else 2)
    if n == 3:
        cy = chart_cotton_york(chart)
        if wanted is None:
            d = rng.standard_normal((3, 3))
            d = (d + d.T) / 2.0
            d -= np.trace(d) / 3.0 * np.eye(3)
            wanted = algebraic_part(cy) + amplitude * (d / np.linalg.norm(d))  # amplitude * d alone can overflow
        res = prescribe_cotton_york_in(chart, wanted, cy)
    else:
        r = chart_riemann(chart)
        cur = algebraic_part(r)
        if wanted is None:  # a random Weyl shift
            r0 = cur + amplitude * operator_to_0_4(random_weyl_operator(n, rng))
        else:
            r0 = cur - operator_to_0_4(_frame_weyl(cur, np.zeros(n))) + operator_to_0_4(wanted)
        res = prescribe_curvature_in(chart, r0, r)
    _emit({"unchanged": res.unchanged, "target_error": res.target_error, "shift_norm": res.shift_norm,
           "ck_norm_ratio": res.norm_ratio, "evaluation_point": res.evaluation_point, "out": str(out_path),
           "note": "output metric uses normal coordinates centered at the bump point"}, fmt, (out_path, res.metric))


@main.command("weyl-space")
@click.option("--dim", "n", type=int, required=True)
@click.argument("subcommand", type=click.Choice(["dims", "sample", "phi"]))
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--tol", type=_POSITIVE, default=ObstructionConfig.tol_rel)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
def cmd_weyl_space(n, subcommand, seed, tol, fmt):
    """Dimension arithmetic and random sampling in the space of algebraic
    Weyl operators."""
    if subcommand == "dims":
        _emit(dimension_report(n), fmt)
        return
    kind = {"sample": "random-weyl-sphere-sample", "phi": "flag-parametrization-sample"}[subcommand]
    doc = {"dim": n, "kind": kind, "seed": seed}
    rng = np.random.default_rng(seed)
    if subcommand == "sample":
        op = random_weyl_operator(n, rng)
    else:
        params = sample_eigenflag_params(n, rng)
        op = phi_map(params)
        doc["witness_direction"] = params.rotation[:, 0]
    report = eigenflag_test(op, ObstructionConfig(tol_rel=tol, seed=seed))
    _emit({**doc, "operator": op.to_json_dict(), "report": report.to_json_dict()}, fmt)
    sys.exit(_VERDICT_EXIT[report.verdict_string])


if __name__ == "__main__":
    main()
