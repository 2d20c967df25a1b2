"""Command-line front end.

Commands: ``catalog``, ``tensors``, ``check``, ``perturb``, ``weyl-space``.
Metric sources are either a catalog entry name or a path to a metric file
in the format documented in the dsl module.  A catalog name that is also a
file in the working directory is ambiguous and exits 2; write ``./nil``
for the file.

Exit codes of ``check`` (and ``weyl-space sample/phi``): 0 when the
necessary condition for a limiting Carleman weight passes, 10 when it
fails (no weight exists near the point), 11 when the result is in the
inconclusive band.  Parse errors exit 2, evaluation/domain errors exit 3,
positivity failures of ``perturb`` exit 4.  A result holding a number that
is not finite (a ``perturb`` target whose norm overflows, for instance) is
an evaluation error: exit 3 with nothing on stdout.

Identical (command, seed) pairs produce byte-identical JSON.
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
    bianchi_project,
    dimension_report,
    operator_to_0_4,
    phi_map,
    random_weyl_operator,
    ricci_contract,
    sample_eigenflag_params,
)
from .dsl import metric_to_text, parse_metric
from .errors import (
    ConstraintViolation,
    DimensionError,
    LcwError,
    NotPositiveDefinite,
    ParseError,
    UnknownEntry,
)
from .obstructions import ObstructionConfig, auto_test, cotton_york_test, eigenflag_test
from .perturbation import normal_coordinates, prescribe_cotton_york_in, prescribe_curvature_in
from .pipeline import TENSOR_FIELDS, JetPipeline, compute_snapshot, format_json, snapshot_to_dict

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
            raise ParseError(
                f"{source!r} is both a catalog entry and a file here; "
                f"write ./{source} for the file"
            )
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read metric file {source!r}: {exc}")
        return parse_metric(text)
    try:
        return cat.get_entry(source).metric
    except UnknownEntry:
        raise ParseError(
            f"{source!r} is neither a readable file nor a catalog entry"
        )


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
    with np.errstate(over="ignore", invalid="ignore"):  # a huge operator's norms overflow; the prescription refuses it
        off = max(np.linalg.norm(ricci_contract(op)), np.linalg.norm(bianchi_project(op).mat))
        if off > 1e-10 * max(op.norm(), 1.0):
            raise ConstraintViolation("the weyl target is not a Weyl operator: its Ricci contraction or Bianchi part is not 0")
    return op


def _echo_json(doc):
    click.echo(format_json(doc))


def _fmt_table_value(x):
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _echo_matrix(name, mat):
    mat = np.asarray(mat)
    click.echo(f"{name}:")
    if mat.ndim <= 2:
        for row in np.atleast_2d(mat):
            click.echo("  " + "  ".join(f"{v:12.6g}" for v in np.atleast_1d(row)))
    else:
        flat_header = " x ".join(str(s) for s in mat.shape)
        click.echo(f"  ({flat_header} array; use --format json for full output)")
        with np.errstate(over="ignore"):  # inf past the float range
            norm = float(np.linalg.norm(mat))
        click.echo(f"  frobenius norm = {norm:.6g}")


def _run(fn):
    try:
        fn()
    except LcwError as e:
        click.echo(f"error: {e}", err=True)
        code = EXIT_PARSE if isinstance(e, ParseError) else EXIT_MATH
        sys.exit(EXIT_POSITIVITY if isinstance(e, NotPositiveDefinite) else code)


@click.group()
def main():
    """Curvature tensors and limiting-Carleman-weight obstructions for
    coordinate metrics."""


@main.command("catalog")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
def cmd_catalog(fmt):
    """List built-in geometries."""

    def go():
        rows = []
        for name in cat.list_catalog():
            e = cat.get_entry(name)
            rows.append({"name": e.name, "dim": e.dim, "lcw": e.expected["lcw"]})
        if fmt == "json":
            _echo_json(rows)
        else:
            click.echo(f"{'name':<18} {'dim':<4} lcw")
            for r in rows:
                click.echo(f"{r['name']:<18} {r['dim']:<4} {r['lcw']}")

    _run(go)


@main.command("tensors")
@click.option("--metric", "source", required=True, help="catalog name or metric file")
@click.option("--point", default="", help="evaluation point a,b,c (default: origin)")
@click.option("--which", default="", help="comma list of tensors (default: all)")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
def cmd_tensors(source, point, which, fmt):
    """Evaluate curvature tensors of a metric at a point."""

    def go():
        metric = _load_source(source)
        wanted = [w.strip() for w in which.split(",") if w.strip()] or list(TENSOR_FIELDS)
        for w in wanted:
            if w not in TENSOR_FIELDS:
                raise ParseError(f"unknown tensor {w!r}; choose from {', '.join(TENSOR_FIELDS)}")
        doc = snapshot_to_dict(compute_snapshot(metric, _parse_point(point, metric.dim)))
        out = {k: v for k, v in doc.items() if k in ("dim", "point") or k in wanted}
        text = format_json(out)  # refuses a number that is not finite, in either format
        if fmt == "json":
            click.echo(text)
        else:
            click.echo(f"dim = {out['dim']}")
            click.echo("point = " + ", ".join(f"{v:.6g}" for v in out["point"]))
            for k in wanted:
                v = out.get(k)
                if v is None:
                    click.echo(f"{k}: (not defined in this dimension)")
                elif np.isscalar(v):
                    click.echo(f"{k} = {_fmt_table_value(float(v))}")
                else:
                    _echo_matrix(k, v)

    _run(go)


@main.command("check")
@click.option("--metric", "source", required=True, help="catalog name or metric file")
@click.option("--point", default="", help="evaluation point (default: origin)")
@click.option(
    "--test",
    "which_test",
    type=click.Choice(["auto", "eigenflag", "cotton-york"]),
    default="auto",
)
@click.option("--tol", type=_POSITIVE, default=None, help="relative tolerance (default 1e-8)")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="seed for the multi-start search")
@click.option("--starts", type=click.IntRange(min=0, max=100_000), default=64)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
def cmd_check(source, point, which_test, tol, seed, starts, fmt):
    """Decide the necessary condition for a limiting Carleman weight.

    Exit code 0: passes (no obstruction found); 10: fails (no LCW exists
    near the point); 11: inconclusive."""

    def go():
        config = ObstructionConfig(seed=seed, starts=starts)
        if tol is not None:
            config.tol_rel = tol
        metric = _load_source(source)
        p = _parse_point(point, metric.dim)
        if which_test == "eigenflag" and metric.dim < 4:
            raise DimensionError("eigenflag test needs dim >= 4")
        if which_test == "cotton-york":
            report = cotton_york_test(metric, p, config)
        else:
            report = auto_test(metric, p, config)
        text = report.to_json()  # refuses a number that is not finite, in either format
        if fmt == "json":
            click.echo(text)
        else:
            click.echo(f"test      : {report.test}")
            click.echo(f"verdict   : {report.verdict_string}")
            if report.residual is not None:
                click.echo(f"residual  : {report.residual:.6g}")
            if report.det_cy is not None:
                click.echo(f"det CY    : {report.det_cy:.6g}")
            if report.witness is not None:
                click.echo(
                    "witness   : " + ", ".join(f"{v:.6g}" for v in report.witness)
                )
            click.echo(f"note      : {report.note}")
        sys.exit(_VERDICT_EXIT[report.verdict_string])

    _run(go)


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

    def go():
        metric = _load_source(source)
        p = _parse_point(point, metric.dim)
        n = metric.dim
        rng = np.random.default_rng(seed)

        if target == "same":
            # identity prescription: the metric itself already has the
            # requested tensors, so the output is the input
            pathlib.Path(out_path).write_text(metric_to_text(metric))
            _emit_perturb({"unchanged": True, "target_error": 0.0, "evaluation_point": p, "out": str(out_path)}, fmt)
            return

        wanted = None if target == "random" else _load_target(target, n)
        order = 3 if n == 3 else 2
        pl = JetPipeline(normal_coordinates(metric, p, radius, order), np.zeros(n), order)
        if n == 3:
            if wanted is None:
                d = rng.standard_normal((3, 3))
                d = (d + d.T) / 2.0
                d -= np.trace(d) / 3.0 * np.eye(3)
                wanted = pl.cotton_york() + amplitude * (d / np.linalg.norm(d))  # amplitude * d alone can overflow
            res = prescribe_cotton_york_in(pl, wanted)
        else:
            if wanted is None:
                # random Weyl shift on top of the current curvature
                r0 = pl.riemann() + amplitude * operator_to_0_4(random_weyl_operator(n, rng))
            else:
                r0 = pl.riemann() - pl.weyl() + operator_to_0_4(wanted)
            res = prescribe_curvature_in(pl, r0)
        pathlib.Path(out_path).write_text(metric_to_text(res.metric))
        result_doc = {
            "unchanged": res.unchanged,
            "target_error": res.target_error,
            "shift_norm": res.shift_norm,
            "ck_norm_ratio": res.norm_ratio,
            "evaluation_point": res.evaluation_point,
            "out": str(out_path),
            "note": "output metric uses normal coordinates centered at the bump point",
        }
        _emit_perturb(result_doc, fmt)

    _run(go)


def _emit_perturb(doc, fmt):
    if fmt == "json":
        _echo_json(doc)
    else:
        for k, v in doc.items():
            if isinstance(v, np.ndarray):
                v = ", ".join(f"{x:.6g}" for x in v)
            click.echo(f"{k}: {v}")


@main.command("weyl-space")
@click.option("--dim", "n", type=int, required=True)
@click.argument("subcommand", type=click.Choice(["dims", "sample", "phi"]))
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--tol", type=_POSITIVE, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json")
def cmd_weyl_space(n, subcommand, seed, tol, fmt):
    """Dimension arithmetic and random sampling in the space of algebraic
    Weyl operators."""

    def go():
        config = ObstructionConfig(seed=seed)
        if tol is not None:
            config.tol_rel = tol
        if subcommand == "dims":
            doc = dimension_report(n)
            if fmt == "json":
                _echo_json(doc)
            else:
                for k, v in doc.items():
                    click.echo(f"{k}: {_fmt_table_value(v)}")
            return
        rng = np.random.default_rng(seed)
        if subcommand == "sample":
            op = random_weyl_operator(n, rng)
            report = eigenflag_test(op, config)
            doc = {
                "dim": n,
                "kind": "random-weyl-sphere-sample",
                "seed": seed,
                "operator": op.to_json_dict(),
                "report": report.to_json_dict(),
            }
        else:
            params = sample_eigenflag_params(n, rng)
            op = phi_map(params)
            report = eigenflag_test(op, config)
            doc = {
                "dim": n,
                "kind": "flag-parametrization-sample",
                "seed": seed,
                "witness_direction": params.rotation[:, 0],
                "operator": op.to_json_dict(),
                "report": report.to_json_dict(),
            }
        if fmt == "json":
            _echo_json(doc)
        else:
            click.echo(f"verdict: {doc['report']['verdict']}")
        sys.exit(_VERDICT_EXIT[report.verdict_string])

    _run(go)


if __name__ == "__main__":
    main()
