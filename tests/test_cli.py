"""Command-line interface: exit codes, output formats, determinism."""

import dataclasses
import json
import math
import os
import pathlib
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from lcwcheck.cli import main

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_catalog_listing():
    res = invoke("catalog")
    assert res.exit_code == 0
    for name in ("nil", "sl2r", "sol", "cp2_chart"):
        assert name in res.output
    assert res.output.split("\n")[0].split() == ["name", "dim", "lcw"]


def test_catalog_json():
    res = invoke("catalog", "--format", "json")
    doc = json.loads(res.output)
    names = {row["name"] for row in doc}
    assert "nil" in names and "h2xr" in names
    assert all(set(row) == {"name", "dim", "lcw"} for row in doc)


def test_tensors_nil_table():
    res = invoke("tensors", "--metric", "nil", "--point", "0,0,0", "--which", "ricci,scalar")
    assert res.exit_code == 0
    assert "scalar = -0.5" in res.output


def test_tensors_nil_json():
    res = invoke(
        "tensors", "--metric", "nil", "--point", "0,0,0",
        "--which", "ricci,scalar", "--format", "json",
    )
    doc = json.loads(res.output)
    assert doc["scalar"] == -0.5
    assert np.allclose(doc["ricci"], [[-0.5, 0, 0], [0, -0.5, 0], [0, 0, 0.5]])


def test_tensors_euclidean_all_zero():
    res = invoke("tensors", "--metric", "euclidean3", "--point", "1,2,3", "--format", "json")
    doc = json.loads(res.output)
    for key in ("riemann", "ricci", "cotton", "cotton_york"):
        assert np.abs(np.array(doc[key])).max() == 0.0


def test_tensors_sl2r_cotton_york():
    res = invoke(
        "tensors", "--metric", "sl2r", "--point", "0,0,0",
        "--which", "cotton_york", "--format", "json",
    )
    doc = json.loads(res.output)
    assert np.allclose(doc["cotton_york"], [[0, 0, -2], [0, -4, 0], [-2, 0, 4]], atol=1e-10)


def test_tensors_metric_file(tmp_path):
    f = tmp_path / "m.metric"
    f.write_text("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n")
    res = invoke("tensors", "--metric", str(f), "--which", "scalar", "--format", "json")
    assert json.loads(res.output)["scalar"] == 0.0


def test_tensors_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.metric"
    f.write_text("dim = 3\ng11 = x1 +\ng22 = 1\ng33 = 1\n")
    res = invoke("tensors", "--metric", str(f))
    assert res.exit_code == 2


def test_tensors_math_error_exit_3(tmp_path):
    f = tmp_path / "sing.metric"
    f.write_text("dim = 3\ng11 = x1\ng22 = 1\ng33 = 1\n")
    res = invoke("tensors", "--metric", str(f), "--point", "0,0,0")
    assert res.exit_code == 3


OVERFLOW_G11 = "dim = 3\ng11 = (1+x1^2)^100000000\ng22 = 1\ng33 = 1\n"
OVERFLOW_ALL = "dim = 3\n" + "".join(f"g{i}{i} = (1+x1^2)^100000000\n" for i in (1, 2, 3))


NOT_FINITE, DERIVATIVES_NOT_FINITE = "error: metric not finite", "error: metric derivatives not finite"


@pytest.mark.parametrize(
    "text, point, message",
    [
        (OVERFLOW_G11, "0.1,0,0", NOT_FINITE),  # the metric itself overflows
        (OVERFLOW_ALL, "0.00264,0,0", DERIVATIVES_NOT_FINITE),  # g is finite, its third derivatives are not
        ("dim = 3\ng11 = (1e200)^2 + x1\ng22 = 1\ng33 = 1\n", "0.1,0,0", NOT_FINITE),  # a constant folds to inf
        ("dim = 3\ng11 = exp(1000 + x1)\ng22 = 1\ng33 = 1\n", "0,0,0", NOT_FINITE),  # exp of the jet overflows
        ("dim = 3\ng11 = 1 + 1e200*x1*1e200*x2\ng22 = 1\ng33 = 1\n", "0.1,0.1,0", NOT_FINITE),  # scale and product overflow
        # sqrt's derivatives divide by 0; the value g11 = 1 is finite
        ("dim = 3\ng11 = 1 + sqrt(1e-320 + x1^2)\ng22 = 1\ng33 = 1\n", "0,0,0", DERIVATIVES_NOT_FINITE),
        ("dim = 3\ng11 = 1 + sqrt(1e-320 + x1^2)\ng22 = 1\ng33 = 1\n", "0,0.1,0", DERIVATIVES_NOT_FINITE),
    ],
    ids=[
        "g-overflows", "partials-overflow", "fold-overflows", "exp-overflows", "product-overflows", "sqrt-underflows",
        "sqrt-underflows-off-axis",
    ],
)
@pytest.mark.parametrize("command", ["check", "tensors"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_metric_exit_3(tmp_path, text, point, message, command):
    """Exit 3 with the error line alone on stderr: no numpy warning first.
    A finite value with derivatives that are not is named as such."""
    f = tmp_path / "overflow.metric"
    f.write_text(text)
    res = runner.invoke(main, [command, "--metric", str(f), "--point", point, "--format", "json"])
    assert res.exit_code == 3
    assert "nan" not in res.stdout and "inf" not in res.stdout
    assert res.stderr.startswith(message + " at ") and res.stderr.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_folding_a_constant_prints_no_warning_from_its_unused_derivatives(tmp_path):
    """Folding sqrt of a subnormal constant divides by zero in its unused
    derivatives; the verdict still comes with nothing on stderr."""
    f = tmp_path / "tiny.metric"
    f.write_text("dim = 3\ng11 = 1 + sqrt(1e-310)*x1\ng22 = 1\ng33 = 1\n")
    res = runner.invoke(main, ["check", "--metric", str(f), "--point", "0,0.1,0"])
    assert res.exit_code == 0
    assert res.stderr == ""


def test_check_nil_exit_10():
    res = invoke("check", "--metric", "nil", "--point", "0,0,0")
    assert res.exit_code == 10


def test_check_h2xr_exit_0():
    res = invoke("check", "--metric", "h2xr", "--point", "0.1,0.2,0.3")
    assert res.exit_code == 0


def test_check_cp2_exit_10():
    res = invoke("check", "--metric", "cp2_chart")
    assert res.exit_code == 10
    spectra = json.loads(res.output)["eigen_data"]
    assert np.abs(np.array(spectra["plus_spectrum"]) - [-2.0, -2.0, 4.0]).max() <= 1e-12
    assert np.abs(np.array(spectra["minus_spectrum"])).max() <= 1e-12


def test_check_json_fields():
    res = invoke("check", "--metric", "nil", "--point", "0,0,0", "--format", "json")
    doc = json.loads(res.output)
    assert doc["verdict"] == "fails_lcw_necessary"
    assert doc["test"] == "cotton-york"
    assert doc["det_cy"] == pytest.approx(-0.25)
    assert "tolerances" in doc and "note" in doc


@pytest.mark.parametrize(
    "tol, code, verdict", [("0.1", 0, "passes_necessary"), ("0.01", 11, "inconclusive"), ("0.005", 10, "fails_lcw_necessary")]
)
def test_check_exit_code_follows_the_band(tol, code, verdict):
    """sl2r's |det CY| / ||CY||^3 is 0.0632 at the origin: it passes at
    --tol 0.1, lies in the inconclusive band (within a factor 10 above the
    tolerance) at 0.01 and fails at 0.005."""
    res = invoke("check", "--metric", "sl2r", "--tol", tol)
    doc = json.loads(res.output)
    assert doc["tolerances"]["det_ratio"] == pytest.approx(0.0632, abs=1e-4)
    assert (res.exit_code, doc["verdict"]) == (code, verdict)


@pytest.mark.parametrize("text", ["dim = 2\ng11 = 1\ng22 = 1\n", "dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n"])
def test_check_eigenflag_below_dim_4_exit_3(tmp_path, text):
    """Below dim 4 there is no eigenflag test: a flat dim-3 metric gets the
    Cotton-York test and passes, a dim-2 metric gets no test and exits 3."""
    f = tmp_path / "low.metric"
    f.write_text(text)
    res = runner.invoke(main, ["check", "--metric", str(f)])
    if text.startswith("dim = 3"):
        assert res.exit_code == 0 and strict_json(res.stdout)["test"] == "cotton-york"
    else:
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == "error: obstruction tests need dim >= 3\n"


def test_check_deterministic_output():
    a = invoke("check", "--metric", "product4_nil", "--point", "0.1,0.2,0.3,0.4", "--seed", "7")
    b = invoke("check", "--metric", "product4_nil", "--point", "0.1,0.2,0.3,0.4", "--seed", "7")
    assert a.output == b.output
    assert a.exit_code == b.exit_code == 0
    # in JSON too, where the second run reads the eigenflag search's cached starts
    a, b = (invoke("check", "--metric", "product4_nil", "--starts", "100", "--format", "json") for _ in range(2))
    assert a.stdout == b.stdout
    assert a.exit_code == b.exit_code == 0


def test_perturb_identity_byte_stable(tmp_path):
    src = tmp_path / "in.metric"
    src.write_text("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n")
    out1 = tmp_path / "out1.metric"
    out2 = tmp_path / "out2.metric"
    r1 = invoke("perturb", "--metric", str(src), "--target", "same", "--out", str(out1))
    r2 = invoke("perturb", "--metric", str(src), "--target", "same", "--out", str(out2))
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    from lcwcheck.dsl import parse_metric

    m = parse_metric(out1.read_text())
    assert np.abs(m.eval_matrix_many([(0.2, 0.3, -0.1)])[0] - np.eye(3)).max() == 0.0


def test_perturb_dim3_random_then_check_exit_10(tmp_path):
    src = tmp_path / "flat.metric"
    src.write_text("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n")
    out = tmp_path / "bumped.metric"
    r = invoke(
        "perturb", "--metric", str(src), "--point", "0,0,0",
        "--target", "random", "--seed", "3", "--out", str(out),
    )
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["target_error"] <= 1e-6
    r2 = invoke("check", "--metric", str(out), "--point", "0,0,0")
    assert r2.exit_code == 10


def test_perturb_dim4_random_then_check_exit_10(tmp_path):
    src = tmp_path / "flat4.metric"
    src.write_text("dim = 4\ng11 = 1\ng22 = 1\ng33 = 1\ng44 = 1\n")
    out = tmp_path / "bumped4.metric"
    r = invoke(
        "perturb", "--metric", str(src), "--point", "0,0,0,0",
        "--target", "random", "--seed", "5", "--out", str(out),
    )
    assert r.exit_code == 0
    r2 = invoke("check", "--metric", str(out), "--point", "0,0,0,0")
    assert r2.exit_code == 10


def test_perturb_positivity_exit_4(tmp_path):
    src = tmp_path / "flat.metric"
    src.write_text("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n")
    out = tmp_path / "never.metric"
    r = invoke(
        "perturb", "--metric", str(src), "--point", "0,0,0",
        "--target", "random", "--amplitude", "80.0", "--out", str(out),
    )
    assert r.exit_code == 4


@pytest.mark.parametrize("target", ["random", "file", "same"])
def test_perturb_below_dim_3_exits_3_unless_the_target_is_same(tmp_path, target):
    """A dim-2 metric has no Weyl or Cotton-York tensor to prescribe: a
    random or file target exits 3 with one error line, and 'same' still
    copies the metric."""
    src, out = tmp_path / "flat2.metric", tmp_path / "out.metric"
    src.write_text("dim = 2\ng11 = 1 + x2^2\ng22 = 1\n")
    if target == "file":
        target = str(tmp_path / "target.json")
        pathlib.Path(target).write_text('{"weyl": [[0.0]]}')
    r = runner.invoke(main, ["perturb", "--metric", str(src), "--target", target, "--out", str(out)])
    if target == "same":
        assert r.exit_code == 0 and out.exists()
    else:
        assert r.exit_code == 3
        assert r.stdout == "" and r.stderr == "error: perturb needs dim >= 3\n"
        assert not out.exists()


TARGET_METRICS =[("sol", "0.1,0.1,0.1"), ("product4_nil", "0.1,0.1,0.1,0.1")]


@pytest.mark.parametrize("metric, point", TARGET_METRICS, ids=["cy", "weyl"])
@pytest.mark.parametrize(
    "content",
    [
        None,  # no such file
        '{"wrong": 1}',
        "not json",
        "[1, 2]",
        '{"cy": [[1, 2], [3]], "weyl": [[1, 2], [3]]}',
        '{"cy": [[1e999, 0, 0]], "weyl": [[NaN]]}',
        '{"cy": [["a", 0, 0]], "weyl": [[null]]}',
        "randm",  # a misspelt word, not a file
    ],
    ids=["missing", "wrong-key", "not-json", "not-an-object", "ragged", "not-finite", "not-numbers", "randm"],
)
def test_perturb_target_that_cannot_be_read_exit_2(tmp_path, monkeypatch, metric, point, content):
    monkeypatch.chdir(tmp_path)
    target = "randm" if content == "randm" else "target.json"
    if content not in (None, "randm"):
        pathlib.Path(target).write_text(content)
    r = runner.invoke(main, ["perturb", "--metric", metric, "--point", point, "--target", target, "--out", "out.metric"])
    assert r.exit_code == 2, r.output
    assert r.stdout == "" and r.stderr.startswith("error: ") and "Traceback" not in r.output
    assert not pathlib.Path("out.metric").exists()


@pytest.mark.parametrize("kind", ["identity", "volume-form", "huge-identity", "tiny-flag-plus-volume-form"])
def test_perturb_weyl_target_that_is_not_a_weyl_operator_exit_3(tmp_path, kind):
    """The identity is a curvature operator with a Ricci contraction; the
    volume form's operator (the Hodge star) is a 4-form, with a Bianchi
    part.  Neither is a Weyl operator, so neither is a target, however
    large or small: a flag operator times 1e-6 plus 1e-15 times the star
    has a Bianchi part of about 1e-9 of its size."""
    from lcwcheck.bivectors import hodge_star_matrix, phi_map, sample_eigenflag_params

    tiny = 1e-6 * phi_map(sample_eigenflag_params(4, np.random.default_rng(3))).mat + 1e-15 * hodge_star_matrix()
    mat = {"identity": np.eye(6), "volume-form": hodge_star_matrix(), "huge-identity": 1e198 * np.eye(6), "tiny-flag-plus-volume-form": tiny}[kind]
    target, out = tmp_path / "target.json", tmp_path / "out.metric"
    target.write_text(json.dumps({"weyl": mat.tolist()}))
    r = runner.invoke(
        main, ["perturb", "--metric", "product4_nil", "--point", "0.1,0.1,0.1,0.1", "--target", str(target), "--out", str(out)]
    )
    assert r.exit_code == 3, r.output
    assert r.stdout == "" and "not a Weyl operator" in r.stderr
    assert not out.exists()


def test_perturb_weyl_target_whose_norm_overflows_is_refused_by_its_size(tmp_path):
    """A Weyl operator near 1e198 is one (membership is tested on the
    operator scaled by a power of 2), but its norm is past the float range:
    the refusal names its size."""
    from lcwcheck.bivectors import phi_map, sample_eigenflag_params

    op = phi_map(sample_eigenflag_params(4, np.random.default_rng(3)))
    target, out = tmp_path / "target.json", tmp_path / "out.metric"
    target.write_text(json.dumps({"weyl": (1e198 * op.mat).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = runner.invoke(main, ["perturb", "--metric", "product4_nil", "--target", str(target), "--out", str(out)])
    assert r.exit_code == 3, r.output
    assert r.stdout == "" and r.stderr == "error: target tensor is too large: its norm is not a finite number\n"
    assert not out.exists()


def test_perturb_target_files_are_reached(tmp_path):
    """A Weyl operator in dim 4 and a symmetric traceless Cotton-York
    matrix in dim 3 are met to the prescription's accuracy."""
    from lcwcheck.bivectors import random_weyl_operator

    weyl = 0.01 * random_weyl_operator(4, np.random.default_rng(3)).mat
    cy = 0.01 * np.array([[1.0, 2.0, 0.5], [2.0, -3.0, 1.0], [0.5, 1.0, 2.0]])
    for (metric, point), doc in zip(TARGET_METRICS, ({"cy": cy.tolist()}, {"weyl": weyl.tolist()})):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(doc))
        r = invoke("perturb", "--metric", metric, "--point", point, "--target", str(target), "--out", str(tmp_path / "out.metric"))
        assert r.exit_code == 0, r.output
        assert json.loads(r.stdout)["target_error"] <= 1e-8


@pytest.mark.parametrize("metric, counts", [("nil", (1, 2, 1)), ("product4_nil", (1, 0, 3))], ids=["nil", "product4_nil"])
def test_perturb_builds_one_chart_and_three_pipelines(tmp_path, monkeypatch, metric, counts):
    """One normal chart per command, and each tensor measured once:
    (charts, pipelines, frame kernel calls).  In dim 4 the kernel gives the
    chart's frame at the base point, the current curvature at its origin
    and the bumped metric's, and no pipeline is built; in dim 3 the kernel
    gives the chart, and order-3 pipelines measure the Cotton-York tensor
    at the origin, before and after the bump."""
    import lcwcheck.cli as cli
    from lcwcheck import obstructions, perturbation
    from lcwcheck.pipeline import JetPipeline

    charts, pipelines, kernels = [], [], []
    chart_of, init, kernel = perturbation.normal_coordinates, JetPipeline.__init__, obstructions._frame_curvature

    def counted_chart(*args, **kwargs):
        charts.append(args)
        return chart_of(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        pipelines.append(args)
        init(self, *args, **kwargs)

    def counted_kernel(*args):
        kernels.append(args)
        return kernel(*args)

    monkeypatch.setattr(cli, "normal_coordinates", counted_chart)
    monkeypatch.setattr(perturbation, "normal_coordinates", counted_chart)
    monkeypatch.setattr(JetPipeline, "__init__", counted_init)
    for module in (obstructions, perturbation):
        monkeypatch.setattr(module, "_frame_curvature", counted_kernel)
    r = invoke("perturb", "--metric", metric, "--target", "random", "--out", str(tmp_path / "out.metric"))
    assert r.exit_code == 0
    assert strict_json(r.stdout)["unchanged"] is False
    assert (len(charts), len(pipelines), len(kernels)) == counts


def test_weyl_space_dims():
    r = invoke("weyl-space", "--dim", "4", "dims")
    doc = json.loads(r.output)
    assert doc["dim_weyl"] == 10
    assert doc["dim_ew"] == 8
    assert doc["codim"] == 2
    r5 = invoke("weyl-space", "--dim", "5", "dims")
    assert json.loads(r5.output)["codim"] == 12


def test_weyl_space_phi_true():
    r = invoke("weyl-space", "--dim", "4", "phi", "--seed", "7")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["report"]["verdict"] == "passes_necessary"


def test_weyl_space_sample_false():
    r = invoke("weyl-space", "--dim", "4", "sample", "--seed", "7")
    assert r.exit_code == 10
    doc = json.loads(r.output)
    assert doc["report"]["verdict"] == "fails_lcw_necessary"


@pytest.mark.parametrize("dim", ["-1", "0", "3", "7"])
def test_weyl_space_phi_outside_dims_4_to_6_exit_3(dim):
    r = invoke("weyl-space", f"--dim={dim}", "phi")
    assert r.exit_code == 3
    assert r.stdout == ""
    assert r.stderr == "error: eigenflag parametrization needs 4 <= n <= 6\n"


def test_weyl_space_deterministic():
    a = invoke("weyl-space", "--dim", "5", "sample", "--seed", "11")
    b = invoke("weyl-space", "--dim", "5", "sample", "--seed", "11")
    assert a.output == b.output
    a, b = (invoke("weyl-space", "--dim", "6", "sample", "--seed", "1", "--format", "json") for _ in range(2))
    assert a.stdout == b.stdout
    assert a.exit_code == b.exit_code == 10


def test_check_unknown_source_exit_2():
    res = invoke("check", "--metric", "not_a_thing")
    assert res.exit_code == 2


# --- option and point validation (exit 2, nothing on stdout) ------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--metric", "sol", "--tol=-1"),
        ("check", "--metric", "sol", "--tol=0"),
        ("check", "--metric", "sol", "--tol", "nan"),
        ("check", "--metric", "sol", "--tol", "inf"),
        ("weyl-space", "--dim", "5", "sample", "--tol=-1"),
        ("check", "--metric", "sol", "--starts", "-1"),
        ("tensors", "--metric", "nil", "--point", "0,nan,0", "--format", "json"),
        ("check", "--metric", "nil", "--point", "inf,0,0"),
        ("perturb", "--metric", "nil", "--target", "random", "--amplitude", "nan", "--out", os.devnull),
        ("perturb", "--metric", "nil", "--target", "random", "--amplitude", "inf", "--out", os.devnull),
        ("check", "--metric", "product4_nil", "--seed", "-1"),
        ("perturb", "--metric", "nil", "--target", "random", "--seed", "-1", "--out", os.devnull),
        ("weyl-space", "--dim", "5", "sample", "--seed", "-1"),
        ("check", "--metric", "sol", "--starts", "100001"),
        ("check", "--metric", "cp2_chart", "--point", "0.1,0.2,0.3"),
        ("check", "--metric", "cp2_algebraic"),  # the deleted curvature-table entry is unknown
    ],
)
def test_invalid_options_exit_2(args):
    r = invoke(*args)
    assert r.exit_code == 2
    assert r.stdout == ""


def test_fail_note_counts_random_and_eigenvector_starts(tmp_path):
    # --starts random starts plus n(n-1) from the eigenvectors: 0 + 20 in dim 5
    from lcwcheck.catalog import random_metric_near_flat
    from lcwcheck.dsl import metric_to_text

    src = tmp_path / "d5.metric"
    src.write_text(metric_to_text(random_metric_near_flat(5, np.random.default_rng(5))))
    r = invoke("check", "--metric", str(src), "--starts", "0")
    assert r.exit_code == 10
    assert "over 20 starts" in strict_json(r.stdout)["note"]


def test_huge_perturb_radius_exit_3():
    # the radius squared overflows: an evaluation error, not a traceback
    r = invoke("perturb", "--metric", "nil", "--target", "random", "--radius", "1e300", "--out", os.devnull)
    assert r.exit_code == 3
    assert r.stdout == ""


@pytest.mark.parametrize(
    "metric, option, value, code",
    [
        ("nil", "--radius", "1e200", 3),
        ("product4_nil", "--radius", "1e200", 3),
        ("nil", "--amplitude", "1e120", 4),
        ("product4_nil", "--amplitude", "1e120", 4),
        ("nil", "--amplitude", "1e154", 4),
    ],
)
def test_huge_perturb_options_exit_without_warnings(metric, option, value, code):
    # overflow on the positivity grid (or in the Cotton residual) is checked
    # right after it happens, so numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = invoke("perturb", "--metric", metric, "--target", "random", option, value, "--out", os.devnull)
    assert r.exit_code == code
    assert r.stdout == ""


@pytest.mark.parametrize("dim", [4, 5])
def test_check_weyl_operator_beyond_squared_float_range_exit_3(tmp_path, dim):
    # |W| above about 1e154: the residual band tol * |W|^2 is not a number
    src = tmp_path / "huge.metric"
    entries = ["g11 = 1 + 1e170*x2^2", "g22 = 1 + 1e170*x3*x1"] + [f"g{k}{k} = 1" for k in range(3, dim + 1)]
    src.write_text(f"dim = {dim}\n" + "\n".join(entries) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = invoke("check", "--metric", str(src), "--point", ",".join(["0"] * dim))
    assert r.exit_code == 3
    assert r.stdout == ""
    assert "Weyl operator too large" in r.stderr


def _tiny_weyl_metric(c):
    """A dim-4 metric whose quadratic terms, and so its Weyl tensor, scale with c."""
    return (
        f"dim = 4\ng11 = 1 + {c}*(x2^2 - 3*x3*x4 + 2*x2*x3)\ng22 = 1 + {c}*(x1^2 + x3*x4 - 2*x1*x4)\n"
        f"g33 = 1 + {c}*(3*x1*x2 - x4^2 + x1*x4)\ng44 = 1 + {c}*(x2*x3 + 2*x1^2 - x1*x3)\n"
        f"g12 = {c}*(x3^2 + x1*x4 - 2*x2*x4)\n"
    )


@pytest.mark.parametrize("c", ["1e-2", "1e-200"])
@pytest.mark.filterwarnings("error")
def test_check_tiny_weyl_tensor_fails_like_a_large_one(tmp_path, c):
    """With c = 1e-200, ||W|| underflowed to 0 and the check passed (exit 0)."""
    f = tmp_path / "tiny.metric"
    f.write_text(_tiny_weyl_metric(c))
    r = invoke("check", "--metric", str(f))
    assert r.exit_code == 10
    doc = json.loads(r.stdout)
    assert doc["certificate"] == "spectral" and doc["lower_bound"] >= 0.0


HUGE_CY = {
    # sol with x3 scaled by 1e35: ||CY|| about 2.8e105, det CY = 0
    "scaled-sol": ("dim = 3\ng11 = exp(2e35*x3)\ng22 = exp(-2e35*x3)\ng33 = 1\n", 0),
    # CY about 1.5e105 of rank 2 at the origin: det CY = 0
    "rank-2": ("dim = 3\ng11 = 1\ng22 = 1 + 1e105*x1^3 + x3^2*x1\ng33 = 1\n", 0),
    # CY about 1.5e105 of full rank: det CY is past the float range
    "det-overflows": ("dim = 3\ng11 = 1 + 1e105*x2^3\ng22 = 1 + 1e105*x3^3\ng33 = 1 + 1e105*x1^3\n", 3),
}


@pytest.mark.parametrize("case", HUGE_CY)
@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.filterwarnings("error")
def test_check_huge_cotton_york_tensor_exits_without_a_traceback(tmp_path, case, fmt):
    """||CY||^3 raised OverflowError (exit 1) on all three."""
    text, code = HUGE_CY[case]
    f = tmp_path / "huge.metric"
    f.write_text(text)
    r = invoke("check", "--metric", str(f), "--format", fmt)
    assert r.exit_code == code
    if code == 3:
        assert r.stdout == "" and r.stderr == "error: Cotton-York tensor too large: its determinant is not a finite number\n"
    else:
        assert "passes_necessary" in r.stdout and r.stderr == ""


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.filterwarnings("error")
def test_tensors_not_finite_exit_3_in_either_format(tmp_path, fmt):
    """g11 = 1 + 1e105 x1: the Cotton tensor is nan; the table printed it."""
    f = tmp_path / "huge.metric"
    f.write_text("dim = 3\ng11 = 1 + 1e105*x1\ng22 = 1\ng33 = 1\n")
    r = invoke("tensors", "--metric", str(f), "--format", fmt)
    assert r.exit_code == 3
    assert r.stdout == "" and r.stderr.startswith("error: result has a non-finite number")


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("command", ["perturb", "weyl-space"])
def test_a_result_holding_nan_exits_3_in_either_format(tmp_path, monkeypatch, command, fmt):
    """Both formats print the one document, so both refuse its NaN; the
    table printers of perturb and weyl-space sample printed nan or the
    verdict alone, and exited 0.  A refused perturb writes no metric: it
    used to write it before the document's check."""
    import lcwcheck.cli as cli
    from lcwcheck.obstructions import ObstructionReport

    if command == "perturb":
        prescribe = cli.prescribe_curvature_in
        monkeypatch.setattr(cli, "prescribe_curvature_in", lambda *args: dataclasses.replace(prescribe(*args), target_error=math.nan))
        args = ["perturb", "--metric", "product4_nil", "--target", "random", "--out", str(tmp_path / "out.metric")]
    else:
        monkeypatch.setattr(cli, "eigenflag_test", lambda op, config: ObstructionReport(dim=op.dim, test="eigenflag", verdict=True, residual=math.nan))
        args = ["weyl-space", "--dim", "4", "sample"]
    r = runner.invoke(main, [*args, "--format", fmt])
    assert r.exit_code == 3
    assert r.stdout == "" and r.stderr.startswith("error: result has a non-finite number")
    assert not (tmp_path / "out.metric").exists()


def _flat_keys(doc, prefix=""):
    """The keys of a JSON document, a nested dict's as ``key.sub``."""
    keys = []
    for k, v in doc.items():
        keys += _flat_keys(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]
    return keys


@pytest.mark.parametrize(
    "args",
    [
        ("catalog",),
        ("tensors", "--metric", "nil", "--point", "0.1,0.2,0.3"),
        ("check", "--metric", "product4_nil", "--point", "0.1,0.2,0.3,0.4"),
        ("perturb", "--metric", "sol", "--target", "random", "--seed", "3"),
        ("weyl-space", "--dim", "5", "phi", "--seed", "7"),
    ],
    ids=lambda args: args[0],
)
def test_the_table_shows_the_keys_of_the_json_document(tmp_path, args):
    """One document, two renderings: the table has one line per key of the
    JSON document, nested keys flattened, in its order; catalog's rows are
    columns under a header of its keys."""
    if args[0] == "perturb":
        args = (*args, "--out", str(tmp_path / "out.metric"))
    js, table = (invoke(*args, "--format", fmt) for fmt in ("json", "table"))
    assert js.exit_code == table.exit_code
    doc, lines = strict_json(js.stdout), table.stdout.splitlines()
    if args[0] == "catalog":
        assert [line.split() for line in lines] == [list(doc[0])] + [[str(v) for v in row.values()] for row in doc]
    else:
        assert [line.split(" =")[0] for line in lines if not line.startswith(" ")] == _flat_keys(doc)


@pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
def test_perturb_radius_must_be_positive_and_finite(tmp_path, radius):
    out = tmp_path / "never.metric"
    r = invoke("perturb", "--metric", "nil", "--target", "random", "--radius", radius, "--out", str(out))
    assert r.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "tensors", "perturb"])
def test_out_of_range_literal_exit_2(tmp_path, command):
    f = tmp_path / "huge.metric"
    f.write_text("dim = 3\ng11 = 1e400\ng22 = 1\ng33 = 1\n")
    out = tmp_path / "never.metric"
    extra = ("--target", "same", "--out", str(out)) if command == "perturb" else ()
    r = invoke(command, "--metric", str(f), *extra)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "tensors", "perturb"])
def test_smoothbump_without_u0_below_u1_exit_2(tmp_path, command):
    f = tmp_path / "jump.metric"
    f.write_text("dim = 3\ng11 = 1 + smoothbump(x1^2, 1, 0)\ng22 = 1\ng33 = 1\n")
    out = tmp_path / "never.metric"
    extra = ("--target", "random", "--out", str(out)) if command == "perturb" else ()
    r = invoke(command, "--metric", str(f), *extra)
    assert r.exit_code == 2
    assert r.stdout == "" and "u0 < u1" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("metric", ["nil", "product4_nil"])
@pytest.mark.parametrize("radius", ["1e-200", "1e-300"])
def test_perturb_radius_whose_square_underflows_exit_3(tmp_path, metric, radius):
    """(r/2)^2 and r^2 underflow to 0, so the bump would be 0 everywhere:
    it used to exit 0 with "unchanged": false and write smoothbump(..., 0, 0)."""
    out = tmp_path / "never.metric"
    r = invoke("perturb", "--metric", metric, "--target", "random", "--radius", radius, "--out", str(out))
    assert r.exit_code == 3
    assert r.stdout == "" and "bump radius" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("radius", ["1e-110", "1e-155", "1e-160"])
def test_perturb_radius_whose_ck_norm_overflows_exit_3_before_writing(tmp_path, radius):
    out = tmp_path / "never.metric"
    r = invoke("perturb", "--metric", "nil", "--target", "random", "--radius", radius, "--out", str(out))
    assert r.exit_code == 3
    assert r.stdout == "" and "C^k norm" in r.stderr
    assert not out.exists()


# --- strict JSON or nothing ------------------------------------------------------------


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "metric, amplitude",
    [("nil", "1e170"), ("sol", "1e160"), ("product4_nil", "1e160"), ("product4_nil", "1e170")],
)
def test_perturb_overflowing_target_exit_3(tmp_path, metric, amplitude):
    """A finite amplitude whose target norm overflows used to print a false
    "unchanged" with bare inf/nan; now it is an evaluation error."""
    out = tmp_path / "never.metric"
    r = invoke("perturb", "--metric", metric, "--target", "random", "--amplitude", amplitude, "--out", str(out))
    assert r.exit_code == 3
    assert r.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("metric, amplitude", [("nil", "1e100"), ("product4_nil", "1e100"), ("nil", "1e-3")])
def test_perturb_large_or_small_target_prints_strict_json_or_nothing(tmp_path, metric, amplitude):
    out = tmp_path / "out.metric"
    r = invoke("perturb", "--metric", metric, "--target", "random", "--amplitude", amplitude, "--out", str(out))
    assert r.exit_code in (0, 4)
    if r.exit_code == 0:
        assert strict_json(r.stdout)["unchanged"] is False
    else:
        assert r.stdout == ""


def test_format_json_refuses_non_finite_numbers():
    from lcwcheck.errors import DomainError
    from lcwcheck.pipeline import format_json

    assert strict_json(format_json({"a": [1.5, np.float64(2.0)]})) == {"a": [1.5, 2.0]}
    for bad in (float("nan"), float("inf"), np.float64("-inf"), np.array([[0.0, 1.0], [2.0, np.nan]]), np.array([[np.inf]])):
        with pytest.raises(DomainError):
            format_json({"a": [0.0, bad]})


def test_catalog_name_shadowed_by_a_file_exit_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nil").write_text("dim = 3\ng11 = 1\ng22 = 1\ng33 = 1\n")
    r = invoke("check", "--metric", "nil")
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "./nil" in r.stderr
    assert invoke("check", "--metric", "./nil").exit_code == 0  # the flat file passes
    assert invoke("check", "--metric", "sl2r").exit_code == 10  # names without a file still work


@pytest.mark.parametrize("dim, max_bytes", [(4, None), (6, 50_000)])
def test_perturb_out_file_round_trips(tmp_path, monkeypatch, dim, max_bytes):
    """The written file (with let bindings) parses back to the jets of the
    metric the command computed."""
    import lcwcheck.cli as cli
    from lcwcheck.catalog import random_metric_near_flat
    from lcwcheck.dsl import metric_to_text, parse_metric

    src = tmp_path / "base.metric"
    src.write_text(metric_to_text(random_metric_near_flat(dim, np.random.default_rng(dim), amplitude=0.03)))
    results = []

    def recording(*args):
        results.append(cli_prescribe(*args))
        return results[-1]

    cli_prescribe = cli.prescribe_curvature_in
    monkeypatch.setattr(cli, "prescribe_curvature_in", recording)
    out = tmp_path / "bumped.metric"
    point = ",".join(["0.05"] * dim)
    r = invoke("perturb", "--metric", str(src), "--point", point, "--target", "random", "--seed", "2", "--out", str(out))
    assert r.exit_code == 0
    assert strict_json(r.stdout)["unchanged"] is False
    if max_bytes is not None:
        assert out.stat().st_size < max_bytes
    back = parse_metric(out.read_text())
    metric = results[0].metric
    for y in (np.zeros(dim), np.full(dim, 0.3)):
        got, want = back.eval_jets(y), metric.eval_jets(y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_metric_file_exit_2(tmp_path, kind):
    # reading the file fails: a ParseError naming the path, not a traceback
    path = tmp_path / "in.metric"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"dim = 3\ng11 = \xff\n")
    r = invoke("check", "--metric", str(path))
    assert r.exit_code == 2
    assert r.stdout == ""
    assert str(path) in r.stderr and "Traceback" not in r.stderr


# R^4 pulled back by y = (x1, x2, x3 + x2*x4, x4 + x1*x3): flat, so every
# coordinate of y is a limiting Carleman weight and no point may fail
E4_METRIC = """dim = 4
g11 = 1 + x3^2
g13 = x1*x3
g14 = x3
g22 = 1 + x4^2
g23 = x4
g24 = x2*x4
g33 = 1 + x1^2
g34 = x1 + x2
g44 = 1 + x2^2
"""


@pytest.mark.parametrize("dim, point, radius, amplitude", [(3, "0.1,0.1,0.1", "0.5", "1e-8"), (4, "0.1,0.2,0.3,0.4", "1", "1e-6")])
def test_perturb_random_target_on_a_flat_chart_leaves_the_charts_rounding_out_of_the_target(tmp_path, dim, point, radius, amplitude):
    """On a flat metric in polynomial coordinates the measured CY or R is
    rounding of the size of the terms it sums, far above the target's
    1e-10.  The random target is built on the measured tensor's symmetric
    traceless (algebraic) part, so a small shift is prescribed and that
    rounding is not refused as the target's defect."""
    src = tmp_path / "flat.metric"
    src.write_text(E4_METRIC if dim == 4 else flat_pullback_text(3, np.random.default_rng(3), 1.0))
    r = invoke("perturb", "--metric", str(src), "--point", point, "--target", "random", "--amplitude", amplitude,
               "--radius", radius, "--out", str(tmp_path / "out.metric"))
    assert r.exit_code == 0, r.output
    assert strict_json(r.stdout)["target_error"] <= 1e-6


@pytest.mark.parametrize(
    "point", ["0,0,0,0", "0.2,-0.1,0.3,0.1", "0.1,0.2,0.3,0.4", "-0.3,0.2,0.1,-0.2", "0.5,0.5,0.5,0.5", "0.05,0.1,-0.2,0.3"]
)
def test_flat_pullback_does_not_fail(point, tmp_path):
    path = tmp_path / "e4.metric"
    path.write_text(E4_METRIC)
    res = invoke("check", "--metric", str(path), "--point", point)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("c, want", [("1e100", 0), ("1e104", 3)])
def test_check_near_the_edge_of_the_float_range_in_dim_3(c, want, tmp_path):
    """g11 = 1 + c x1 x2 at (0, 0.5, 0): the size of the Cotton-York
    tensor's terms is about 1.25e299 at c = 1e100, which passes, and past
    the float range at c = 1e104 (the cube of 5e103): summed for 4^m g, it
    raises no OverflowError, and the Cotton-York determinant, not finite,
    exits 3."""
    path = tmp_path / "edge.metric"
    path.write_text(f"dim = 3\ng11 = 1 + {c}*x1*x2\ng22 = 1 + x1*x2*x3\ng33 = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = invoke("check", "--metric", str(path), "--point", "0,0.5,0")
    assert res.exit_code == want, res.output
    if want == 0:
        assert strict_json(res.stdout)["verdict"] == "passes_necessary"


def flat_pullback_text(dim, rng, scale, variant="quadratic"):
    """``scale`` times R^dim pulled back by y = x + q(x), q a quadratic map
    with coefficients uniform in +-0.3: g = scale J^T J as metric text.
    ``variant`` "cubic" adds a cubic map with coefficients uniform in +-0.3
    to q; "conformal" multiplies g by exp(2 f), f a random cubic polynomial
    (conformally flat)."""
    c = rng.uniform(-0.3, 0.3, (dim, dim, dim))
    c = c + c.transpose(0, 2, 1)  # J[a, i] = delta_ai + sum_k c[a, i, k] x_k (+ sum_kl d[a, i, k, l] x_k x_l)
    if variant == "cubic":  # d symmetric in (i, k, l): a Jacobian
        d = rng.uniform(-0.3, 0.3, (dim,) * 4)
        d = d + d.transpose(0, 2, 1, 3) + d.transpose(0, 3, 2, 1)
        d = d + d.transpose(0, 1, 3, 2)
    lines = [f"dim = {dim}"]
    for a in range(dim):
        for i in range(dim):
            terms = " + ".join(f"({float(c[a, i, k])!r})*x{k + 1}" for k in range(dim))
            if variant == "cubic":
                terms += "".join(f" + ({float(d[a, i, k, m])!r})*x{k + 1}*x{m + 1}" for k in range(dim) for m in range(dim))
            lines.append(f"let j{a}{i} = {int(a == i)} + {terms}")
    factor = f"{scale!r}"
    if variant == "conformal":
        f = " + ".join(
            f"({0.1 * rng.standard_normal()!r})*" + "*".join(f"x{int(k) + 1}" for k in rng.integers(0, dim, int(rng.integers(1, 4))))
            for _ in range(6)
        )
        factor += f"*exp(2*({f}))"
    for i in range(dim):
        for j in range(i, dim):
            lines.append(f"g{i + 1}{j + 1} = {factor}*(" + " + ".join(f"j{a}{i}*j{a}{j}" for a in range(dim)) + ")")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_seeded_flat_pullbacks_pass_wherever_check_reaches_a_verdict(dim, scale, tmp_path):
    """A flat metric has a limiting Carleman weight (a Cartesian
    coordinate), and so does a conformally flat one in dim 3, so no point
    may fail, whatever its Weyl or Cotton-York tensor's rounding noise and
    the metric's constant scale; a point where the map's Jacobian is too
    ill-conditioned exits 3.  Dim 3 also takes cubic maps and e^(2 f)
    multiples."""
    rng = np.random.default_rng(1000 * dim)  # the same metrics and points at every scale
    path = tmp_path / "flat.metric"
    for variant in ("quadratic", "cubic", "conformal") if dim == 3 else ("quadratic",):
        codes = []
        for _ in range(3):
            path.write_text(flat_pullback_text(dim, rng, scale, variant))
            point = ",".join(map(repr, rng.uniform(-0.5, 0.5, dim).tolist()))
            res = invoke("check", "--metric", str(path), "--point", point)
            assert res.exit_code in (0, 3), (variant, res.output)
            codes.append(res.exit_code)
        assert 0 in codes, variant
