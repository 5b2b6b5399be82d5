"""Scene-file parsing, report serialization, and the command line."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import charfol
from charfol import report
from charfol.cli import main
from charfol.errors import SceneParseError
from charfol.scenefile import load_scene, parse_scene

FIELD_SCENE = """\
scene demo

chart
  names = x y z

alpha
  dx = -y
  dy = x
  dz = 1

hypersurface
  level = x^2 + y^2 + z^2 - 1

domain
  x = -1.3 .. 1.3
  y = -1.3 .. 1.3
  z = -1.3 .. 1.3

analysis
  zero_seeds = (0.05, -0.03, 0.99); (-0.04, 0.02, -0.99)
  samples = 4
"""


# parsing ----------------------------------------------------------------

def test_field_scene_parses():
    doc = parse_scene(FIELD_SCENE)
    assert doc.kind == "field"
    assert doc.name == "demo"
    assert doc.chart.names == ("x", "y", "z")
    assert doc.scene.domain["x"] == (-1.3, 1.3)
    assert len(doc.analysis["zero_seeds"]) == 2
    assert doc.analysis["samples"] == 4
    p = [0.1, 0.2, 0.3]
    assert float(doc.surface.F(p)) == pytest.approx(0.14 - 1.0)


def test_params_substitute_into_expressions():
    doc = parse_scene("""\
scene scaled
chart
  names = x y z
params
  a = 2.5
alpha
  dx = -a*y
  dy = a*x
  dz = 1
hypersurface
  level = x^2 + y^2 + z^2 - a
""")
    f = doc.scene.alpha.component((0,))
    assert float(f([0.0, 2.0, 0.0])) == pytest.approx(-5.0)


def test_angular_coordinates_and_periods():
    doc = parse_scene("""\
scene ang
chart
  names = th r w
  angular = th:6.0
alpha
  dth = r
  dw = 1
hypersurface
  level = r - 1
""")
    assert doc.chart.periods["th"] == pytest.approx(6.0)
    assert "w" not in doc.chart.periods


def test_expression_error_reports_file_position():
    bad = FIELD_SCENE.replace("dx = -y", "dx = sin(")
    with pytest.raises(SceneParseError) as err:
        parse_scene(bad)
    assert err.value.line == 7
    assert err.value.col is not None


def test_unknown_block_and_key_positions():
    with pytest.raises(SceneParseError) as err:
        parse_scene("scene t\n\nblob\n  k = 1\n")
    assert err.value.line == 3
    with pytest.raises(SceneParseError) as err:
        parse_scene("scene t\n\nchart\n  names = x\n  wrong = 1\n")
    assert err.value.line == 5
    assert "wrong" in str(err.value)


def test_duplicate_key_rejected():
    text = FIELD_SCENE + "\nparams\n  a = 1\n  a = 2\n"
    with pytest.raises(SceneParseError, match="duplicate key"):
        parse_scene(text)


def test_missing_header_rejected():
    with pytest.raises(SceneParseError, match="scene"):
        parse_scene("chart\n  names = x\n")


def test_alpha_requires_hypersurface():
    with pytest.raises(SceneParseError, match="both alpha and"):
        parse_scene("scene t\nchart\n  names = x y\nalpha\n  dx = 1\n")


def test_convexity_block_roundtrip():
    doc = parse_scene("""\
scene prof
convexity
  n = 2
  h_minus = 1.0 0.6
  h_plus = 1.0 -0.6
  rho_range = 0.1 8.0
  rho_count = 9
""")
    assert doc.kind == "convexity"
    assert doc.convexity["h_plus"] == (1.0, -0.6)
    assert doc.convexity["rho_range"] == (0.1, 8.0)
    assert doc.convexity["rho_count"] == 9


@pytest.mark.parametrize("other", [
    FIELD_SCENE.replace("scene demo\n", ""),
    "family\n  kind = mori\n",
    "convexity\n  n = 1\n  h_minus = 1.0 0.6\n  h_plus = 1.0 -0.6\n",
], ids=["field", "family", "convexity"])
def test_perturbation_takes_no_other_kind(other):
    text = f"scene mixed\nperturbation\n  delta = 0.05\n{other}"
    with pytest.raises(SceneParseError, match="perturbation scene"):
        parse_scene(text)


def _rejected_at(text):
    with pytest.raises(SceneParseError) as err:
        parse_scene(text)
    return str(err.value), err.value.line, err.value.col


def test_reversed_domain_rejected_with_position():
    bad = FIELD_SCENE.replace("x = -1.3 .. 1.3", "x = 1.3 .. -1.3")
    msg, line, col = _rejected_at(bad)
    assert (line, col) == (15, 7)
    assert "'x'" in msg and "lo > hi" in msg
    # an equal or open side is not reversed
    doc = parse_scene(FIELD_SCENE.replace("x = -1.3 .. 1.3", "x = 0.5 .. 0.5")
                      .replace("y = -1.3 .. 1.3", "y = 2 .. -inf"))
    assert doc.scene.domain["x"] == (0.5, 0.5)
    assert doc.scene.domain["y"] == (2.0, None)


@pytest.mark.parametrize("bound", ["nan", "1e400", "+inf", "abc"])
def test_non_finite_domain_bound_rejected_with_position(bound):
    # a NaN or infinite bound used to reach numpy's uniform draw, which
    # raised OverflowError out of `classify`
    msg, line, col = _rejected_at(FIELD_SCENE.replace(
        "x = -1.3 .. 1.3", f"x = {bound} .. 1.3"))
    assert (line, col) == (15, 7)
    assert msg.endswith(f"bad domain bound {bound!r}")


@pytest.mark.parametrize("command", ["classify", "foliation"])
def test_reversed_domain_exits_2_before_any_numerics(tmp_path, capsys,
                                                     command):
    scene = tmp_path / "rev.scene"
    scene.write_text(FIELD_SCENE.replace("x = -1.3 .. 1.3", "x = 1.3 .. -1.3"))
    assert main([command, str(scene)]) == 2
    err = capsys.readouterr().err
    assert "line 15, col 7" in err and "high - low" not in err


def test_duplicate_chart_names_rejected_with_position(tmp_path, capsys):
    msg, line, col = _rejected_at(FIELD_SCENE.replace("names = x y z",
                                                      "names = x x z"))
    assert (line, col) == (4, 11)
    assert "duplicate coordinate name 'x'" in msg
    scene = tmp_path / "dup.scene"
    scene.write_text(FIELD_SCENE.replace("names = x y z", "names = x x z"))
    assert main(["classify", str(scene)]) == 2
    assert "line 4, col 11" in capsys.readouterr().err


def test_negative_samples_rejected_with_position(tmp_path):
    msg, line, col = _rejected_at(FIELD_SCENE.replace("samples = 4",
                                                      "samples = -3"))
    assert (line, col) == (21, 13)
    assert "samples" in msg and "-3" in msg
    # zero samples stays valid: the census runs on the zero seeds alone
    scene = tmp_path / "zero.scene"
    scene.write_text(FIELD_SCENE.replace("samples = 4", "samples = 0"))
    assert parse_scene(scene.read_text()).analysis["samples"] == 0
    out = tmp_path / "r.json"
    assert main(["classify", str(scene), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["zeros"] == 2


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "x"])
def test_foliation_grid_takes_only_positive_integers(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["foliation", "graph-model", "--grid", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--grid" in err and "integer >= 1" in err


def test_bundled_scenes_parse():
    from importlib import resources
    base = resources.files("charfol") / "scenes"
    kinds = {}
    for f in sorted(base.iterdir()):
        if f.name.endswith(".scene"):
            doc = load_scene(str(f))
            kinds[doc.name] = doc.kind
    assert kinds == {"s2-height": "field", "graph-model": "field",
                     "mori-sigma0-n2": "family", "mori-column": "perturbation",
                     "collar-profile": "convexity"}


# report serialization ---------------------------------------------------

def test_float_formatting_is_fixed_width():
    assert report.format_float(0.1) == "0.10000000000000001"
    assert report.format_float(1.0) == "1"
    assert report.format_float(float("nan")) == '"nan"'
    assert report.format_float(float("-inf")) == '"-inf"'


def test_to_json_handles_report_shapes():
    obj = {"a": [1.5, 2, True, None], "b": {"c": np.array([0.25, 0.5])},
           "z": complex(1.0, -2.0), "s": 'quote " and\nnewline'}
    text = report.to_json(obj)
    back = json.loads(text)
    assert back["a"] == [1.5, 2, True, None]
    assert back["b"]["c"] == [0.25, 0.5]
    assert back["z"] == [1.0, -2.0]
    assert "\n" in back["s"]


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        report.to_json({"bad": object()})


def test_write_csv_formats_floats(tmp_path):
    path = tmp_path / "t.csv"
    report.write_csv(str(path), ("a", "b"), [(0.1, "x"), (2.0, "y")])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.10000000000000001,x"


def test_write_csv_float_rows_match_cell_path(tmp_path):
    rows = [(0.1, -0.0, 1e-300, -2.5e17, 1.0 / 3.0),
            (1e308, 1e308, -1e308),          # finite cells, overflowing sum
            (float("nan"), 1.0, 2.0),
            (float("inf"), 0.5, 0.25),
            (0.5, float("-inf"), 0.25),
            (3, 0.5, True),
            (np.float64(0.1), 0.2, 0.3),
            (0.1, np.float64(-0.0), np.int64(7)),
            [0.7, 0.8],
            ()]
    rows += [tuple(r) for r in np.random.default_rng(23).normal(size=(20, 4))
             .tolist()]
    path = tmp_path / "t.csv"
    report.write_csv(str(path), ("a", "b", "c"), rows)
    want = "a,b,c\n" + "".join(
        ",".join(report._cell(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()


def test_write_csv_arrays_match_cell_path(tmp_path, monkeypatch):
    # an array goes a block of rows at a time, with a short last block
    monkeypatch.setattr(report, "_CSV_BLOCK", 4)
    arr = np.random.default_rng(29).normal(size=(11, 3)) * 1e5
    arr[0] = [float("nan"), float("inf"), float("-inf")]
    arr[1] = [-0.0, 1e-300, 1e308]
    arr[2] = [1e308, 1e308, -1e308]
    path = tmp_path / "t.csv"
    report.write_csv(str(path), ("a", "b", "c"), arr)
    want = "a,b,c\n" + "".join(
        ",".join(report._cell(v) for v in row) + "\n" for row in arr.tolist())
    assert path.read_bytes() == want.encode()


# the command line -------------------------------------------------------

def test_certify_passes_on_sphere_scene(tmp_path):
    out = tmp_path / "r.json"
    code = main(["certify", "s2-height", "--json", str(out), "--seed", "5"])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "pass"
    assert rep["certificate"]["seeds_used"] > 0
    assert rep["numeric_policy"]["profile"] == "default"
    assert rep["version"]


def test_certify_family_scene_fails_with_recurrence(tmp_path):
    out = tmp_path / "r.json"
    code = main(["certify", "mori-sigma0-n2", "--json", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "fail"
    assert any("recurren" in r for r in rep["certificate"]["reasons"])
    assert rep["certificate"]["recurrence"]


def test_classify_graph_model(tmp_path):
    out = tmp_path / "r.json"
    code = main(["classify", "graph-model", "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["zeros"] == 1
    el = rep["elements"][0]
    assert max(abs(v) for v in el["location"]) < 1e-8
    assert el["hyperbolic"] is True


def test_foliation_writes_grid_csv(tmp_path):
    out = tmp_path / "csv"
    code = main(["foliation", "graph-model", "--grid", "5",
                 "--csv-dir", str(out), "--json", str(tmp_path / "r.json")])
    assert code == 0
    lines = (out / "foliation.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,X_t,X_x,X_y"
    assert len(lines) > 20


def test_convexify_profile_csv_and_exit(tmp_path):
    out = tmp_path / "csv"
    code = main(["convexify", "collar-profile", "--json",
                 str(tmp_path / "r.json"), "--csv-dir", str(out)])
    assert code == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["verdict"] == "pass"
    assert rep["profile"]["grid_residuals"] > 0
    assert rep["verification"]["matched"] is True
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "s,u,h1,residual"
    assert len(lines) == 1001
    last = [float(v) for v in lines[-1].split(",")]
    assert last[3] > 0.0


def test_malformed_expression_exits_2(tmp_path, capsys):
    scene = tmp_path / "bad.scene"
    scene.write_text(FIELD_SCENE.replace("dx = -y", "dx = sin("))
    code = main(["certify", str(scene)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "col" in err


def test_unknown_scene_exits_2(capsys):
    assert main(["certify", "no-such-scene"]) == 2
    assert "no-such-scene" in capsys.readouterr().err


def test_bad_perturbation_delta_exits_2(tmp_path, capsys):
    scene = tmp_path / "p.scene"
    scene.write_text("scene p\nperturbation\n  delta = -0.5\n")
    assert main(["certify", str(scene)]) == 2


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["convexify", "collar-profile", "--json", str(a),
                 "--seed", "11"]) == 0
    assert main(["convexify", "collar-profile", "--json", str(b),
                 "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tolerance_profile_flag(tmp_path):
    out = tmp_path / "r.json"
    code = main(["certify", "s2-height", "--json", str(out),
                 "--tolerance-profile", "fast"])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["numeric_policy"]["profile"] == "fast"
    assert rep["numeric_policy"]["flow_budget"] == pytest.approx(200.0)


def test_thread_env_does_not_change_results(tmp_path, monkeypatch):
    outs = []
    for k in ("1", "3"):
        monkeypatch.setenv("CHARFOL_THREADS", k)
        d = tmp_path / f"t{k}"
        assert main(["foliation", "graph-model", "--grid", "4",
                     "--csv-dir", str(d),
                     "--json", str(tmp_path / f"r{k}.json")]) == 0
        outs.append((d / "foliation.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_import_leaves_scipy_unloaded():
    """scipy serves one matrix exponential of the Mori shell census, and
    every command pays for what `import charfol.cli` loads."""
    src = os.path.dirname(os.path.dirname(charfol.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, charfol.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
