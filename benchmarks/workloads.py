"""The four workloads: inputs made from a seed, one call per item, and a
reference check for every output.

The references are never lcwcheck's own pipeline: catalog ground truth,
closed-form tensors, verdicts that hold by construction (a product with a
line has the line as a flag; a rank-2 traceless Cotton-York target has
zero determinant), tensor identities checked here with numpy, and the
genericity of "fails" for random metrics (Liimatainen & Salo, Inverse
Probl. Imaging 2012).

Every call into lcwcheck goes through a module attribute at call time, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

import lcwcheck
import lcwcheck.catalog
import lcwcheck.cli

from harness import child_env, round_robin, strict_json_loads

PASSES = "passes_necessary"
FAILS = "fails_lcw_necessary"
VERDICT_OF_LCW = {"exists": PASSES, "none": FAILS}
EXIT_OF_VERDICT = {PASSES: 0, FAILS: 10}
CLI_TIMEOUT_S = 120


@dataclass
class Item:
    label: str
    data: dict = field(default_factory=dict)


def check_verdict(got, want):
    return None if got == want else f"verdict {got}, expected {want}"


# -- tensor references ------------------------------------------------------------

EPS3 = np.zeros((3, 3, 3))
EPS3[0, 1, 2] = EPS3[1, 2, 0] = EPS3[2, 0, 1] = 1.0
EPS3[0, 2, 1] = EPS3[2, 1, 0] = EPS3[1, 0, 2] = -1.0

TENSOR_KEYS = (
    "dim", "point", "g", "gamma", "riemann", "ricci", "scalar",
    "schouten", "weyl", "cotton", "cotton_york", "div_weyl",
)


def _kulkarni_nomizu(a, b):
    return (
        np.einsum("ik,jl->ijkl", a, b)
        + np.einsum("ik,jl->ijkl", b, a)
        - np.einsum("il,jk->ijkl", a, b)
        - np.einsum("jk,il->ijkl", a, b)
    )


def _close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.abs(b).max(initial=0.0)), 1.0)
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


def tensor_identity_error(doc, rtol=1e-9, div_rtol=1e-7):
    """First identity that a ``tensors --format json`` document breaks, or
    None.  The algebraic identities are those of
    TensorSnapshot.check_invariants at ``rtol``; the divergence identity
    div W = (n-3) C holds to ``div_rtol`` relative to the Cotton scale."""
    missing = [k for k in TENSOR_KEYS if k not in doc]
    if missing:
        return f"missing keys {missing}"
    n = doc["dim"]
    g = np.array(doc["g"], dtype=float)
    gamma = np.array(doc["gamma"], dtype=float)
    r = np.array(doc["riemann"], dtype=float)
    ric = np.array(doc["ricci"], dtype=float)
    s = float(doc["scalar"])
    sch = np.array(doc["schouten"], dtype=float)
    w = np.array(doc["weyl"], dtype=float)
    c = np.array(doc["cotton"], dtype=float)
    if g.shape != (n, n) or r.shape != (n,) * 4 or c.shape != (n,) * 3:
        return "tensor shapes do not match dim"
    ginv = np.linalg.inv(g)
    checks = [
        ("g symmetric", g, g.T),
        ("gamma symmetric in its lower indices", gamma, gamma.transpose(0, 2, 1)),
        ("R antisymmetric in (i,j)", r, -r.transpose(1, 0, 2, 3)),
        ("R antisymmetric in (k,l)", r, -r.transpose(0, 1, 3, 2)),
        ("R pair symmetric", r, r.transpose(2, 3, 0, 1)),
        ("first Bianchi identity", r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3), 0 * r),
        ("Ricci is the trace of R", ric, np.einsum("ab,akbm->km", ginv, r)),
        ("scalar is the trace of Ricci", s, np.einsum("km,km->", ginv, ric)),
        ("Schouten", sch, (ric - s / (2 * (n - 1)) * g) / (n - 2)),
        ("Weyl is R minus S o g", w, r - _kulkarni_nomizu(sch, g)),
        ("Cotton antisymmetric", c, -c.transpose(1, 0, 2)),
        ("Cotton cyclic sum", c + c.transpose(1, 2, 0) + c.transpose(2, 0, 1), 0 * c),
        ("Cotton g^{ij}-trace", np.einsum("ij,ijk->k", ginv, c), np.zeros(n)),
        ("Cotton g^{ik}-trace", np.einsum("ik,ijk->j", ginv, c), np.zeros(n)),
    ]
    if n == 3:
        if doc["cotton_york"] is None or doc["div_weyl"] is not None:
            return "dim 3 needs cotton_york and no div_weyl"
        cy = np.array(doc["cotton_york"], dtype=float)
        from_c = 0.5 * np.einsum("kli,jm,klm->ij", c, g, EPS3) / np.sqrt(np.linalg.det(g))
        checks += [
            ("Cotton-York symmetric", cy, cy.T),
            ("Cotton-York traceless", np.einsum("ij,ij->", ginv, cy), 0.0),
            ("Cotton-York is the dual of Cotton", cy, from_c),
        ]
    else:
        if doc["cotton_york"] is not None or doc["div_weyl"] is None:
            return "dim >= 4 needs div_weyl and no cotton_york"
    for what, got, want in checks:
        if not _close(got, want, rtol):
            return f"{what} fails at {rtol:g}"
    if n >= 4:
        divw = np.array(doc["div_weyl"], dtype=float)
        scale = max(float(np.abs(c).max()), 1e-30)
        if divw.shape != c.shape or np.abs(divw - (n - 3) * c).max() > div_rtol * scale:
            return f"div W = (n-3) C fails at {div_rtol:g}"
    return None


def closed_form_error(doc, expected, rtol=1e-7):
    for key in ("ricci", "scalar", "schouten", "cotton_york"):
        if not _close(doc[key], expected[key], rtol):
            return f"{key} differs from the closed form at {rtol:g}"
    return None


# -- verdict3d ------------------------------------------------------------------------


class Workload:
    """``setup`` makes the items (and sets ``cycle``, the number of item
    classes taken in turn); ``run`` is the timed call; ``check`` compares
    its output with the reference; ``run_traced`` is what a traced run
    times, the same call unless the workload leaves the process."""

    def run_traced(self, item):
        return self.run(item)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Verdict3d(Workload):
    """auto_test at seeded points of the eight Thurston geometries and
    r_cross_surface; the reference is the catalog's ``expected["lcw"]``."""

    name = "verdict3d"
    names = lcwcheck.catalog.THURSTON_NAMES + ("r_cross_surface",)
    per_class = 700

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        columns = []
        for name in self.names:
            entry = lcwcheck.get_entry(name)
            want = VERDICT_OF_LCW[entry.expected["lcw"]]
            columns.append(
                [
                    Item(name, {"metric": entry.metric, "point": p, "want": want})
                    for p in entry.sample_points(rng, self.per_class)
                ]
            )
        self.cycle = len(columns)
        return round_robin(columns)

    def run(self, item):
        return lcwcheck.auto_test(item.data["metric"], item.data["point"]).verdict_string

    def check(self, item, verdict):
        return check_verdict(verdict, item.data["want"])


# -- verdicthd ------------------------------------------------------------------------


def near_flat_metric(n, kind, rng):
    """A random near-flat metric ("fails": no flag, by genericity) or the
    product of a line with one of dimension n-1 ("passes": the line is a
    flag by construction)."""
    if kind == "fails":
        return lcwcheck.random_metric_near_flat(n, rng)
    return lcwcheck.catalog.product_with_line(lcwcheck.random_metric_near_flat(n - 1, rng))


class VerdictHd(Verdict3d):
    """auto_test in dims 4, 5 and 6, half random metrics and half products
    with a line.

    Each cycle of 12 items holds 4 per dimension and 6 "fails" in all, but
    splits fails:passes 2:2, 1:3 and 3:1 in dims 4, 5 and 6.  Sorted by
    cost (dim 4 < dim-5 passes < dim-5 fails < dim-6 passes < dim-6
    fails), p50 then falls inside the dim-5 passes and p90 inside the
    dim-6 fails.  An even split in every dimension puts p50 exactly on the
    gap between dim-5 passes and dim-5 fails, where it reads as whichever
    extreme item lands there."""

    name = "verdicthd"
    mix = ((4, "fails", 2), (4, "passes", 2), (5, "fails", 1), (5, "passes", 3), (6, "fails", 3), (6, "passes", 1))
    per_column = 20

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        columns = []
        for n, kind, count in self.mix:
            for _ in range(count):
                column = []
                for _ in range(self.per_column):
                    column.append(Item(f"d{n}.{kind}", {
                        "metric": near_flat_metric(n, kind, rng),
                        "point": rng.uniform(-0.2, 0.2, n),
                        "want": FAILS if kind == "fails" else PASSES,
                    }))
                columns.append(column)
        self.cycle = len(columns)
        return round_robin(columns)


# -- perturb ---------------------------------------------------------------------------


def unit_operator(op):
    return lcwcheck.CurvatureOperator(dim=op.dim, mat=op.mat / np.linalg.norm(op.mat))


def cy_target(rng, kind, scale=0.01):
    """Symmetric traceless 3x3 target: eigenvalues (a, b, -(a+b)) with
    a, b in [0.5, 1.5] for "fails" (determinant bounded away from 0), or
    (l, -l, 0) for "passes" (determinant exactly 0), in a random frame."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if kind == "fails":
        a, b = rng.uniform(0.5, 1.5, 2)
        ev = [a, b, -(a + b)]
    else:
        lam = rng.uniform(0.5, 1.5)
        ev = [lam, -lam, 0.0]
    d = q @ np.diag(ev) @ q.T
    return scale * d / np.linalg.norm(d)


def weyl_target(rng, kind, scale=0.01):
    """Curvature target in dim 4: a random unit Weyl operator ("fails" by
    genericity) or a unit phi_map image ("passes": flag by construction),
    scaled, as a (0,4) tensor."""
    if kind == "fails":
        op = lcwcheck.random_weyl_operator(4, rng)
    else:
        op = lcwcheck.phi_map(lcwcheck.sample_eigenflag_params(4, rng))
    return scale * lcwcheck.bivectors.operator_to_0_4(unit_operator(op))


class Perturb(Workload):
    """Curvature prescription in dim 4 and Cotton-York prescription in
    dim 3 (bases sol, nil, sl2r), each followed by auto_test of the output
    metric at its evaluation point.

    A cycle of 6 items holds 2 dim-4 and 4 dim-3 items, each half "fails"
    and half "passes".  A dim-4 item costs about twice a dim-3 one, so with
    equal numbers p50 would sit on the gap between the two; at 2:4 p50
    falls inside the dim-3 items and p90 inside the dim-4 ones."""

    name = "perturb"
    per_column = 25
    max_target_error = 1e-6

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        bases3 = [lcwcheck.get_entry(b).metric for b in ("sol", "nil", "sl2r")]
        columns = [[] for _ in range(6)]
        for k in range(self.per_column):
            for c, kind in enumerate(("fails", "passes")):
                base = lcwcheck.random_metric_near_flat(4, rng, amplitude=0.03)
                columns[c].append(
                    Item(f"curv.{kind}", {
                        "prescription": lcwcheck.CurvaturePrescription(
                            base=base, point=rng.uniform(-0.1, 0.1, 4), target_r4=weyl_target(rng, kind)),
                        "want": FAILS if kind == "fails" else PASSES,
                    })
                )
            for c, kind in enumerate(("fails", "passes", "fails", "passes"), start=2):
                base = bases3[(2 * k + c // 4) % 3]
                columns[c].append(
                    Item(f"cy.{kind}.{base.name}", {
                        "prescription": lcwcheck.CottonPrescription(
                            base=base, point=rng.uniform(-0.1, 0.1, 3), target_cy=cy_target(rng, kind)),
                        "want": FAILS if kind == "fails" else PASSES,
                    })
                )
        self.cycle = len(columns)
        return round_robin(columns)

    def run(self, item):
        cp = item.data["prescription"]
        if isinstance(cp, lcwcheck.CurvaturePrescription):
            res = lcwcheck.prescribe_curvature(cp)
        else:
            res = lcwcheck.prescribe_cotton_york(cp)
        return res.target_error, lcwcheck.auto_test(res.metric, res.evaluation_point).verdict_string

    def check(self, item, output):
        target_error, verdict = output
        if not target_error <= self.max_target_error:
            return f"target_error {target_error:g} > {self.max_target_error:g}"
        return check_verdict(verdict, item.data["want"])


# -- cli -------------------------------------------------------------------------------


def run_cli_process(args, cwd):
    """``python -m lcwcheck.cli ARGS`` in a fresh interpreter.  Returns
    (exit code, stdout text, max RSS in KiB of the child)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "lcwcheck.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env(),
        cwd=cwd,
    )
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    return proc.returncode, out.decode("utf-8", errors="replace"), usage.ru_maxrss


def run_cli_inprocess(args):
    """The same command through click in this process; (exit code, stdout)."""
    from click.testing import CliRunner

    result = CliRunner().invoke(lcwcheck.cli.main, list(args))
    return result.exit_code, result.stdout


def check_cli_output(item, output):
    code, stdout = output[0], output[1]
    if code != item.data["exit"]:
        return f"exit code {code}, expected {item.data['exit']}"
    try:
        doc = strict_json_loads(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if item.data["command"] == "check":
        want = item.data["want"]
        return check_verdict(doc.get("verdict"), want)
    err = tensor_identity_error(doc)
    if err is None and item.data.get("closed_form") is not None:
        err = closed_form_error(doc, item.data["closed_form"])
    return err


def _point_arg(point):
    return "--point=" + ",".join(repr(float(x)) for x in point)


class Cli(Workload):
    """Fresh ``python -m lcwcheck.cli`` processes running ``tensors`` and
    ``check`` with ``--format json``, on metric files written at set-up
    (dims 3 to 6, a random metric and a product with a line in each) and on
    the catalog entries nil and sl2r."""

    name = "cli"
    files_per_class = 3

    def __init__(self):
        self.max_child_rss_kib = 0
        self.workdir = None

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = str(workdir)
        columns = []
        for n in (3, 4, 5, 6):
            for kind in ("fails", "passes"):
                for command in ("tensors", "check"):
                    columns.append([])
                for k in range(self.files_per_class):
                    metric = near_flat_metric(n, kind, rng)
                    path = os.path.join(self.workdir, f"d{n}-{kind}-{k}.metric")
                    with open(path, "w") as fh:
                        fh.write(lcwcheck.metric_to_text(metric))
                    point = _point_arg(rng.uniform(-0.2, 0.2, n))
                    want = FAILS if kind == "fails" else PASSES
                    columns[-2].append(Item(f"tensors.d{n}.{kind}", {
                        "args": ("tensors", "--metric", path, point, "--format", "json"),
                        "command": "tensors", "exit": 0}))
                    columns[-1].append(Item(f"check.d{n}.{kind}", {
                        "args": ("check", "--metric", path, point, "--format", "json"),
                        "command": "check", "exit": EXIT_OF_VERDICT[want], "want": want}))
        closed_forms = {"nil": lcwcheck.catalog.nil_expected_tensors, "sl2r": lcwcheck.catalog.sl2r_full_tensors}
        for name, closed_form in closed_forms.items():
            entry = lcwcheck.get_entry(name)
            want = VERDICT_OF_LCW[entry.expected["lcw"]]
            tensors, checks = [], []
            for p in entry.sample_points(rng, self.files_per_class):
                tensors.append(Item(f"tensors.{name}", {
                    "args": ("tensors", "--metric", name, _point_arg(p), "--format", "json"),
                    "command": "tensors", "exit": 0, "closed_form": closed_form(p)}))
                checks.append(Item(f"check.{name}", {
                    "args": ("check", "--metric", name, _point_arg(p), "--format", "json"),
                    "command": "check", "exit": EXIT_OF_VERDICT[want], "want": want}))
            columns += [tensors, checks]
        self.cycle = len(columns)
        return round_robin(columns)

    def run(self, item):
        code, out, rss = run_cli_process(item.data["args"], self.workdir)
        self.max_child_rss_kib = max(self.max_child_rss_kib, rss)
        return code, out

    def run_traced(self, item):
        return run_cli_inprocess(item.data["args"])

    def check(self, item, output):
        return check_cli_output(item, output)

    def peak_rss_mb(self):
        return self.max_child_rss_kib / 1024.0


WORKLOADS = {w.name: w for w in (Verdict3d, VerdictHd, Perturb, Cli)}
