"""Command-line interface: exit codes, output formats, determinism."""

import json
import pathlib

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
    for name in ("nil", "sl2r", "sol", "cp2_algebraic"):
        assert name in res.output


def test_catalog_json():
    res = invoke("catalog", "--format", "json")
    doc = json.loads(res.output)
    names = {row["name"] for row in doc}
    assert "nil" in names and "h2xr" in names


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


@pytest.mark.parametrize(
    "text, point",
    [
        (OVERFLOW_G11, "0.1,0,0"),  # the metric itself overflows
        (OVERFLOW_ALL, "0.00264,0,0"),  # g is finite, its third derivatives are not
    ],
    ids=["g-overflows", "partials-overflow"],
)
@pytest.mark.parametrize("command", ["check", "tensors"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_finite_metric_exit_3(tmp_path, text, point, command):
    f = tmp_path / "overflow.metric"
    f.write_text(text)
    res = runner.invoke(main, [command, "--metric", str(f), "--point", point, "--format", "json"])
    assert res.exit_code == 3
    assert "nan" not in res.stdout and "inf" not in res.stdout


def test_check_nil_exit_10():
    res = invoke("check", "--metric", "nil", "--point", "0,0,0")
    assert res.exit_code == 10


def test_check_h2xr_exit_0():
    res = invoke("check", "--metric", "h2xr", "--point", "0.1,0.2,0.3")
    assert res.exit_code == 0


def test_check_cp2_exit_10():
    res = invoke("check", "--metric", "cp2_algebraic")
    assert res.exit_code == 10


def test_check_json_fields():
    res = invoke("check", "--metric", "nil", "--point", "0,0,0", "--format", "json")
    doc = json.loads(res.output)
    assert doc["verdict"] == "fails_lcw_necessary"
    assert doc["test"] == "cotton-york"
    assert doc["det_cy"] == pytest.approx(-0.25)
    assert "tolerances" in doc and "note" in doc


def test_check_deterministic_output():
    a = invoke("check", "--metric", "product4_nil", "--point", "0.1,0.2,0.3,0.4", "--seed", "7")
    b = invoke("check", "--metric", "product4_nil", "--point", "0.1,0.2,0.3,0.4", "--seed", "7")
    assert a.output == b.output
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
    assert np.abs(m.eval_matrix((0.2, 0.3, -0.1)) - np.eye(3)).max() == 0.0


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


def test_weyl_space_deterministic():
    a = invoke("weyl-space", "--dim", "5", "sample", "--seed", "11")
    b = invoke("weyl-space", "--dim", "5", "sample", "--seed", "11")
    assert a.output == b.output


def test_check_unknown_source_exit_2():
    res = invoke("check", "--metric", "not_a_thing")
    assert res.exit_code == 2
