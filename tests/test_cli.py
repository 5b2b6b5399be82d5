"""Scene-file parsing, report serialization, and the command line."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import charfol
from charfol import cli, report
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
    f = doc.scene.alpha.comps[(0,)]
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


def _rejected_at(text):
    with pytest.raises(SceneParseError) as err:
        parse_scene(text)
    return str(err.value), err.value.line, err.value.col


CONVEXITY_SCENE = """\
scene prof
convexity
  n = 2
  h_minus = 1.0 0.6
  h_plus = 1.0 -0.6
"""


def test_convexity_block_roundtrip():
    doc = parse_scene(CONVEXITY_SCENE)
    assert doc.kind == "convexity"
    assert doc.convexity == {"n": 2, "h_minus": (1.0, 0.6),
                             "h_plus": (1.0, -0.6)}
    # the sweep of build_profile is fixed: its knobs are unknown keys
    for key, value in [("rho_range", "0.1 8.0"), ("rho_count", "9"),
                       ("stiffness", "-5"), ("gamma", "gamma-torus")]:
        msg, line, col = _rejected_at(CONVEXITY_SCENE
                                      + f"  {key} = {value}\n")
        assert (line, col) == (6, 3)
        assert f"unknown key {key!r} in block 'convexity'" in msg


@pytest.mark.parametrize("other", [
    FIELD_SCENE.replace("scene demo\n", ""),
    "family\n  kind = mori\n",
    "convexity\n  n = 1\n  h_minus = 1.0 0.6\n  h_plus = 1.0 -0.6\n",
], ids=["field", "family", "convexity"])
def test_perturbation_takes_no_other_kind(other):
    text = f"scene mixed\nperturbation\n  delta = 0.05\n{other}"
    with pytest.raises(SceneParseError, match="perturbation scene"):
        parse_scene(text)


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


def _field(old, new):
    return FIELD_SCENE.replace(old, new)


CHART_ONLY = "scene t\nchart\n  names = x y\n"
FIELD_BLOCKS = FIELD_SCENE.replace("scene demo\n", "")


# (scene text, message fragment, line, column): each row reaches its own
# raise site of the reader; a text of None names a file that is missing
SCENE_ERRORS = [
    ("scene a\nscene b\n", "duplicate scene header", 2, 1),
    ("scene a b\n", "exactly one name", 1, 1),
    ("scene t\nchart x\n", "takes no arguments", 2, 1),
    (CHART_ONLY + "chart\n", "duplicate block 'chart'", 4, 1),
    ("scene t\n  k = 1\n", "key outside any block", 2, 3),
    ("scene t\nparams\n  1a = 2\n", "bad key '1a'", 3, 3),
    (_field("samples = 4", "samples = many"),
     "samples must be an integer, got 'many'", 21, 13),
    (_field("(0.05, -0.03, 0.99); ", "0.05 -0.03 0.99; "),
     "parenthesized tuple", 20, 16),
    (_field("(0.05, -0.03, 0.99)", "(a, b, c)"), "bad seed tuple", 20, 16),
    (_field("(0.05, -0.03, 0.99)", "(0.05, 0.99)"),
     "has 2 coordinates, chart has 3", 20, 16),
    (_field("(0.05, -0.03, 0.99); (-0.04, 0.02, -0.99)", ";"),
     "zero_seeds is empty", 20, 16),
    ("scene p\nconvexity\n  n = 2\n  h_minus = 1 0.6\n",
     "convexity block needs key 'h_plus'", 3, None),
    ("scene t\nchart\n  angular = x\n", "needs a 'names' key", None, None),
    (_field("names = x y z", "names = x 1y z"),
     "bad coordinate name '1y'", 4, 11),
    (_field("names = x y z", "names = x y z\n  angular = w"),
     "angular coordinate 'w' is not in the chart", 5, 13),
    (_field("names = x y z", "names = x y z\n  angular = x:abc"),
     "bad period in 'x:abc'", 5, 13),
    (_field("dz = 1", "dw = 1"), "alpha keys must be d<coordinate>", 9, 3),
    (CHART_ONLY + "alpha\nhypersurface\n  level = x\n",
     "alpha block has no components", None, None),
    (_field("level = x^2", "graph = z\n  level = x^2"),
     "either level or graph+height", 13, 3),
    (_field("level = x^2 + y^2 + z^2 - 1", "graph = w\n  height = x"),
     "graph coordinate 'w' is not in the chart", 12, 11),
    (_field("level = x^2 + y^2 + z^2 - 1", "height = x"),
     "needs 'level' or 'graph' plus 'height'", 12, 3),
    (_field("z = -1.3 .. 1.3", "w = -1.3 .. 1.3"),
     "domain key 'w' is not a chart coordinate", 17, 3),
    (_field("z = -1.3 .. 1.3", "z = -1.3 1.3"),
     "domain value must be 'lo .. hi'", 17, 7),
    ("scene t\nanalysis\n  samples = 1\n",
     "block 'analysis' needs a chart block", None, None),
    (CHART_ONLY + "analysis\n  samples = 1\n",
     "analysis block needs a field scene", 5, None),
    (FIELD_SCENE + "family\n  kind = mori\n",
     "either a field scene or a family instance", None, None),
    (CHART_ONLY, "defines no runnable content", None, None),
    (None, "cannot read scene file", None, None),
]


@pytest.mark.parametrize("text, fragment, line, col", SCENE_ERRORS,
                         ids=[row[1] for row in SCENE_ERRORS])
def test_scene_errors_carry_their_position(tmp_path, text, fragment, line,
                                           col):
    path = tmp_path / "bad.scene"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SceneParseError) as err:
        load_scene(str(path))
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("value", ["4", "0"])
def test_convexity_n_outside_1_to_3_exits_2_at_its_position(
        tmp_path, capsys, monkeypatch, value):
    # standard Gamma models exist for n = 1, 2, 3 only; the reader says
    # so at the value, before build_profile's sweep runs
    text = CONVEXITY_SCENE.replace("n = 2", f"n = {value}")
    msg, line, col = _rejected_at(text)
    assert msg.endswith(f"n must be 1, 2 or 3, got {value!r}")
    assert (line, col) == (3, 7)

    def refuse(*args, **kwargs):
        raise AssertionError("build_profile ran")

    monkeypatch.setattr(cli.certify_mod, "build_profile", refuse)
    scene = tmp_path / "n.scene"
    scene.write_text(text)
    assert main(["convexify", str(scene)]) == 2
    assert "line 3, col 7: n must be 1, 2 or 3" in capsys.readouterr().err


# a number that is not finite stops at its position, exit 2, before any
# numerics; `command` is the command that runs the scene
@pytest.mark.parametrize("text, command, fragment, where", [
    (FIELD_SCENE.replace("level = x^2 + y^2 + z^2 - 1",
                         "level = x^2 + y^2 + z^2 - 1 + 0 * c")
     + "params\n  c = nan\n", "classify",
     "param 'c' must be a finite number, got 'nan'", (23, 7)),
    (FIELD_SCENE.replace("level = x^2 + y^2 + z^2 - 1",
                         "level = x^2 + y^2 + z^2 - 1 + 0 * c")
     + "params\n  c = inf\n", "classify",
     "param 'c' must be a finite number, got 'inf'", (23, 7)),
    (FIELD_SCENE.replace("level = x^2 + y^2 + z^2 - 1",
                         "level = x^2 + y^2 + z^2 - 1 + 0 * 1e999"),
     "classify", "number '1e999' overflows", (12, 37)),
    (FIELD_SCENE.replace("(0.05, -0.03, 0.99)", "(nan, 0, 1)"), "classify",
     "bad seed tuple '(nan, 0, 1)'", (20, 16)),
    ("scene p\nconvexity\n  n = 2\n  h_minus = inf 0.6\n"
     "  h_plus = 1.0 -0.6\n", "convexify",
     "h_minus must be finite numbers, got 'inf 0.6'", (4, 13)),
], ids=["param-nan", "param-inf", "literal-1e999", "seed-nan", "germ-inf"])
def test_non_finite_number_rejected_with_position(tmp_path, capsys, text,
                                                  command, fragment, where):
    msg, line, col = _rejected_at(text)
    assert fragment in msg and (line, col) == where
    scene = tmp_path / "bad.scene"
    scene.write_text(text)
    assert main([command, str(scene)]) == 2
    assert f"line {where[0]}, col {where[1]}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "foliation"])
def test_reversed_domain_exits_2_before_any_numerics(tmp_path, capsys,
                                                     command):
    scene = tmp_path / "rev.scene"
    scene.write_text(FIELD_SCENE.replace("x = -1.3 .. 1.3", "x = 1.3 .. -1.3"))
    assert main([command, str(scene)]) == 2
    err = capsys.readouterr().err
    assert "line 15, col 7" in err and "high - low" not in err


def test_real_power_of_a_negative_base_exits_2(tmp_path, capsys):
    scene = tmp_path / "pow.scene"
    scene.write_text(FIELD_SCENE.replace("level = x^2", "level = x^0.5")
                     .replace("samples = 4", "samples = 20"))
    assert main(["classify", str(scene)]) == 2
    assert "error: math domain error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "certify"])
@pytest.mark.parametrize("level, seed, message", [
    ("1/(x - 0.5)", "(0.5, 0.0, 0.0)", "float division by zero"),
    ("exp(1000*x)", "(0.8, 0.0, 0.0)", "math range error"),
], ids=["zero-divisor", "overflow"])
def test_arithmetic_error_at_a_sample_point_exits_2(tmp_path, capsys,
                                                    command, level, seed,
                                                    message):
    # like a domain error of log or sqrt, and unlike a crash (exit 4)
    scene = tmp_path / "arith.scene"
    scene.write_text(FIELD_SCENE.replace("level = x^2", f"level = {level} + x^2")
                     .replace("(0.05, -0.03, 0.99); (-0.04, 0.02, -0.99)",
                              seed))
    assert main([command, str(scene)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["classify", "--seed", "0"],
                                  ["classify", "--seed", "1"],
                                  ["certify"]])
def test_overflow_at_a_newton_iterate_drops_the_seed(tmp_path, argv):
    # from the sampled seed (-0.90, 0.27, -0.34) one Newton step lands
    # near x = 82, where exp(8.626 x) overflows: that seed fails, as a
    # stall does, and the census keeps the zeros the others reach
    scene = tmp_path / "steep.scene"
    scene.write_text(FIELD_SCENE
                     .replace("dy = x", "dy = x + (0.397)*z")
                     .replace("level = x^2", "level = (0.399)*exp(8.626*x) + x^2")
                     .replace("1.3", "2")
                     .replace("(0.05, -0.03, 0.99); (-0.04, 0.02, -0.99)",
                              "(0, 0, 1); (0, 0, -1)")
                     .replace("samples = 4", "samples = 12"))
    out = tmp_path / "r.json"
    cmd, *flags = argv
    assert main([cmd, str(scene), *flags, "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    elements = rep["certificate"]["elements"] if cmd == "certify" \
        else rep["elements"]
    assert [(e["kind"], e["sign"], e["index"]) for e in elements] == [
        ("zero", 1, 0), ("zero", -1, 2)]


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


def _exits_2_at(tmp_path, capsys, text, where):
    # the command stops at the value's position before any numerics
    scene = tmp_path / "bad.scene"
    scene.write_text(text)
    assert main(["certify", str(scene)]) == 2
    assert f"line {where[0]}, col {where[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_family_n_below_2_rejected_with_position(value, tmp_path, capsys):
    text = f"scene f\nfamily\n  kind = mori\n  n = {value}\n"
    msg, line, col = _rejected_at(text)
    assert (line, col) == (4, 7)
    assert msg.endswith(f"n must be >= 2, got {value!r}")
    _exits_2_at(tmp_path, capsys, text, (4, 7))
    assert parse_scene(text.replace(f"n = {value}", "n = 3")).family["n"] == 3


@pytest.mark.parametrize("value", ["0.5", "0", "-0.01", "nan", "inf"])
def test_perturbation_delta_out_of_range_rejected_with_position(
        value, tmp_path, capsys):
    text = f"scene p\nperturbation\n  delta = {value}\n"
    msg, line, col = _rejected_at(text)
    assert (line, col) == (3, 11)
    assert msg.endswith(f"delta must lie in (0, 0.1], got {value!r}")
    _exits_2_at(tmp_path, capsys, text, (3, 11))
    # the ends of the range
    assert parse_scene(text.replace(value, "0.1")).perturbation == {
        "delta": 0.1}
    assert parse_scene(text.replace(value, "1e-9")).perturbation == {
        "delta": 1e-9}


@pytest.mark.parametrize("value", ["0.5", "0", "-0.1", "nan", "inf"])
def test_family_eps_out_of_range_rejected_with_position(
        value, tmp_path, capsys):
    text = f"scene f\nfamily\n  kind = mori\n  eps = {value}\n"
    msg, line, col = _rejected_at(text)
    assert (line, col) == (4, 9)
    assert msg.endswith(f"eps must lie in (0, 0.3], got {value!r}")
    _exits_2_at(tmp_path, capsys, text, (4, 9))
    # the ends of the range
    for ok in ("0.3", "1e-9"):
        assert parse_scene(text.replace(value, ok)).family["eps"] == float(ok)


@pytest.mark.parametrize("period", ["-1", "0", "inf", "nan"])
def test_angular_period_not_positive_finite_rejected_with_position(
        period, tmp_path, capsys):
    text = FIELD_SCENE.replace("names = x y z",
                               f"names = x y z\n  angular = x z:{period}")
    msg, line, col = _rejected_at(text)
    assert (line, col) == (5, 13)
    assert msg.endswith(
        f"angular period of 'z' must be positive and finite, got {period!r}")
    _exits_2_at(tmp_path, capsys, text, (5, 13))


def test_crash_exits_4_with_its_traceback(monkeypatch, capsys):
    # exit 1 is a negative verdict; an exception no handler names is a
    # crash, and a script must be able to tell the two apart
    def crash(args):
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "cmd_classify", crash)
    assert main(["classify", "s2-height"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: something broke" in err


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
           "s": 'quote " and\nnewline'}
    text = report.to_json(obj)
    back = json.loads(text)
    assert back["a"] == [1.5, 2, True, None]
    assert back["b"]["c"] == [0.25, 0.5]
    assert "\n" in back["s"]


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        report.to_json({"bad": object()})
    # reports carry complex values only as [re, im] pairs of floats
    for z in (complex(1.0, -2.0), np.complex128(1.0 - 2.0j)):
        with pytest.raises(TypeError):
            report.to_json({"bad": z})


def _header(rows, labels) -> list:
    return ["id"] * (labels is not None) + [
        f"c{i}" for i in range(np.shape(rows)[1])]


def _csv(tmp_path, rows, labels=None) -> bytes:
    path = tmp_path / "t.csv"
    report.write_csv(str(path), _header(rows, labels), rows, labels)
    return path.read_bytes()


def _percent_g(rows, labels=None) -> bytes:
    """What `write_csv` must write: every cell through `"%.17g" %`."""
    cells = [["%.17g" % v for v in row]
             for row in np.asarray(rows, dtype=float).tolist()]
    if labels is not None:
        cells = [[s] + row for s, row in zip(labels, cells)]
    lines = [_header(rows, labels)] + cells
    return "".join(",".join(r) + "\n" for r in lines).encode()


def test_write_csv_formats_floats(tmp_path):
    got = _csv(tmp_path, [(0.1, 2.0), (-1e-5, 123456.5)], labels=["x", "y+"])
    assert got.decode().splitlines() == [
        "id,c0,c1", "x,0.10000000000000001,2",
        "y+,-1.0000000000000001e-05,123456.5"]


def test_write_csv_float_rows_match_cell_path(tmp_path):
    rows = [(0.1, -0.0, 1e-300, -2.5e17, 1.0 / 3.0),
            (1e308, 1e308, -1e308, 3, np.int64(7)),  # finite, overflowing sum
            (float("nan"), 1.0, 2.0, float("inf"), float("-inf")),
            (np.float64(0.1), 0.2, 0.3, 5e-324, -2.2250738585072014e-308)]
    rows += [tuple(r) for r in np.random.default_rng(23).normal(size=(20, 5))
             .tolist()]
    assert _csv(tmp_path, rows) == _percent_g(rows)
    ids = [f"{k}{'+-'[k % 2]}" for k in range(len(rows))]
    assert _csv(tmp_path, rows, ids) == _percent_g(rows, ids)
    report.write_csv(str(tmp_path / "e.csv"), ("id", "a", "b"), [], [])
    assert (tmp_path / "e.csv").read_bytes() == b"id,a,b\n"


def test_write_csv_arrays_match_cell_path(tmp_path, monkeypatch):
    # an array goes a block of rows at a time (here 4 rows of 3 cells),
    # with a short last block
    monkeypatch.setattr(report, "_CSV_BLOCK", 14)
    arr = np.random.default_rng(29).normal(size=(11, 3)) * 1e5
    arr[0] = [float("nan"), float("inf"), float("-inf")]
    arr[1] = [-0.0, 1e-300, 1e308]
    arr[2] = [1e308, 1e308, -1e308]
    assert _csv(tmp_path, arr) == _percent_g(arr)
    ids = [str(k) * (k % 4) for k in range(11)]      # "" included
    assert _csv(tmp_path, arr, ids) == _percent_g(arr, ids)
    assert _csv(tmp_path, arr[:, :1]) == _percent_g(arr[:, :1])
    assert _csv(tmp_path, arr[:0]) == _percent_g(arr[:0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=40),
                  elements=st.floats(allow_subnormal=True)))
def test_write_csv_matches_percent_g_on_any_array(tmp_path_factory, arr):
    tmp = tmp_path_factory.mktemp("csv")
    assert _csv(tmp, arr) == _percent_g(arr)


def test_write_csv_matches_percent_g_on_random_bits(tmp_path):
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2 ** 64, size=(1 << 20), dtype=np.uint64)
    # three in four with a binary exponent where %g prints fixed notation
    fixed = rng.integers(1023 - 15, 1023 + 58, size=len(bits), dtype=np.uint64)
    pick = rng.random(len(bits)) < 0.75
    bits[pick] = bits[pick] & ~np.uint64(0x7FF << 52) | fixed[pick] << 52
    arr = bits.view(np.float64).reshape(-1, 4)
    assert _csv(tmp_path, arr) == _percent_g(arr)


def _ties():
    """Doubles at a half-way point of their 17th digit: q 2^(e-17) with q
    odd is one whenever it has decimal exponent e (here -4 to 15)."""
    rng = np.random.default_rng(37)
    out = []
    for e in range(-4, 16):
        lo = math.ceil(10.0 ** e * 2 ** (17 - e))
        hi = math.floor(10.0 ** (e + 1) * 2 ** (17 - e))
        for q in rng.integers(lo, min(hi, 2 ** 53), size=8).tolist():
            out.append(math.ldexp(q | 1, e - 17))
    return out


def test_write_csv_hard_cases(tmp_path):
    tens = 10.0 ** np.arange(-6, 19)
    near = [tens]
    for way in (0.0, np.inf):
        step = tens
        for _ in range(2):
            step = np.nextafter(step, way)
            near.append(step)
    edges = [1000000000000000.25, 1000000000000000.75, 1000000000000001.25,
             1e-4, 1e17, 9.9999999999999991e-05, 99999999999999984.0,
             0.99999999999999989, 0.5 - 2.0 ** -54, 1.0 - 2.0 ** -53]
    values = np.concatenate(near + [edges, _ties()])
    assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
    for arr in (values, -values):
        assert _csv(tmp_path, arr[:, None]) == _percent_g(arr[:, None])


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


def test_reproduce_records_the_torus_it_reports(tmp_path):
    # the certificate's recurrence record is read off the report's own
    # torus probe, so the two agree bit for bit
    out = tmp_path / "r.json"
    assert main(["mori", "reproduce", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    probe = rep["torus_probe"]
    [rec] = rep["certificate"]["recurrence"]
    for key in ("slope", "transverse_exponent_per_loop",
                "angular_rate_variation"):
        assert rec[key] == probe[key], key


TWO_SHEET_SCENE = """\
scene two-sheet

chart
  names = x y z

alpha
  dx = -y + (-0.231)*y*z + (-0.068)*x^2
  dy = x + (0.178)*y*z + (-0.235)*1
  dz = 1 + (0.138)*x*y + (0.279)*x^2

hypersurface
  level = x^2 + y^2 + z^2 - 1 + (0.254)*x + (-0.220)*x^2 + (-0.283)*exp(z)

domain
  x = -2 .. 2
  y = -2 .. 2
  z = -2 .. 2

analysis
  zero_seeds = (0, 0, 1); (0, 0, -1); (0.9, 0.1, 0)
  samples = 6
"""


@pytest.mark.parametrize("command", ["classify", "certify"])
def test_census_keeps_zeros_inside_the_domain(command, tmp_path):
    # the exp(z) term opens a second sheet of the level set above the
    # box; at seed 0 Newton from a random sample reaches a zero on it,
    # at z = 3.948, which the report lists apart with its seed
    scene = tmp_path / "two-sheet.scene"
    scene.write_text(TWO_SHEET_SCENE)
    out = tmp_path / "r.json"
    assert main([command, str(scene), "--json", str(out), "--seed", "0"]) == 0
    rep = json.loads(out.read_text())
    elements = rep["elements"] if command == "classify" else (
        rep["certificate"]["elements"])
    assert len(elements) == 2
    assert all(max(abs(v) for v in e["location"]) <= 2.0 for e in elements)
    assert sum(e["index"] for e in elements) == 2      # chi(S^2)
    [dropped] = rep["zeros_outside_domain"]
    assert dropped["location"][2] == pytest.approx(3.948, abs=1e-3)
    doc = load_scene(str(scene))
    seed = np.array(dropped["seed"])
    assert doc.scene.in_domain(seed)
    assert abs(float(doc.surface.F(list(seed)))) < 1e-9


def test_classify_graph_model(tmp_path):
    out = tmp_path / "r.json"
    code = main(["classify", "graph-model", "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["zeros"] == 1
    el = rep["elements"][0]
    assert max(abs(v) for v in el["location"]) < 1e-8
    assert el["hyperbolic"] is True


def test_report_without_json_goes_to_stdout(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["classify", "s2-height", "--json", str(out)]) == 0
    capsys.readouterr()
    assert main(["classify", "s2-height"]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()


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


@pytest.mark.parametrize("command", ["classify", "certify"])
def test_exact_form_exits_3_before_any_verdict(command, tmp_path, capsys):
    # dy = -x makes alpha = d(z - xy): no contact structure, no foliation
    # to certify
    scene = tmp_path / "exact.scene"
    scene.write_text(FIELD_SCENE.replace("dy = x", "dy = -x"))
    code = main([command, str(scene), "--json", str(tmp_path / "r.json")])
    assert code == 3
    assert "contact volume" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_classify_without_seeds_checks_nothing(tmp_path):
    scene = tmp_path / "none.scene"
    scene.write_text(FIELD_SCENE.replace(
        "  zero_seeds = (0.05, -0.03, 0.99); (-0.04, 0.02, -0.99)\n", "")
        .replace("samples = 4", "samples = 0"))
    out = tmp_path / "r.json"
    assert main(["classify", str(scene), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["zeros"] == 0


def test_unknown_scene_exits_2(capsys):
    assert main(["certify", "no-such-scene"]) == 2
    assert "no-such-scene" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["certify", "collar-profile"],
     "error: scene 'collar-profile' has no field to certify"),
    (["convexify", "s2-height"],
     "error: scene 's2-height' has no convexity block"),
], ids=["certify-profile", "convexify-field"])
def test_scene_without_the_commands_block_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == message + "\n"


def test_exhausted_profile_sweep_exits_3(tmp_path, capsys):
    # a left slope of 50 leaves no lattice candidate with q > 0 on [-1, 1]
    scene = tmp_path / "steep.scene"
    scene.write_text(CONVEXITY_SCENE.replace("h_minus = 1.0 0.6",
                                             "h_minus = 1.0 50"))
    out = tmp_path / "r.json"
    assert main(["convexify", str(scene), "--json", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: parameter sweep exhausted after 54 candidates; "
        "tightest failure: interior slope positivity (q > 0)\n")
    assert not out.exists()


def test_bad_perturbation_delta_exits_2(tmp_path, capsys):
    scene = tmp_path / "p.scene"
    scene.write_text("scene p\nperturbation\n  delta = -0.5\n")
    assert main(["certify", str(scene)]) == 2


def test_mori_perturb_delta_above_bound_exits_2(capsys):
    # the bound the perturbation block's reader enforces, from
    # PerturbationSpec itself
    assert main(["mori", "perturb", "--delta", "0.2"]) == 2
    assert ("error: perturbation strengths above 0.1 are out of scope"
            in capsys.readouterr().err)


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
    assert "flow_budget" not in rep["numeric_policy"]
    assert rep["numeric_policy"]["recurrence_returns"] == 25


def test_cli_import_leaves_scipy_unloaded():
    """scipy serves one matrix exponential of the Mori shell census, and
    every command pays for what `import charfol.cli` loads."""
    src = os.path.dirname(os.path.dirname(charfol.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, charfol.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
