"""Traced kernels against the ring-generic evaluators they were traced from.

The field and the surface are evaluated in three shapes, all on
straight-line kernels traced from `char_data` and
`ScalarField.value_and_grad`: float lists
(`FoliationField.vector_floats`, `flow_floats`,
`Hypersurface.project_floats`), the array wrappers around them
(`vector`, `flow_data`, `vector_and_jacobian`, `project`, with
`Hypersurface.value_and_grad` and `frame`), and row arrays
(`FoliationField.vectors`, `Hypersurface.project_samples`). The generic
functions stay the reference: at every sampled surface point the
kernels must give the same numbers exactly (`==`, so the sign of a
zero may differ), and where the generic code raises, the kernels raise
the same error. No command runs the generic functions on plain floats.
`vectors` runs the kernels' array twins over many points; it must give
`vector`'s bits at every point and raise what `vector` raises.
"""

import gc
import importlib.util
import math
import operator
import struct
import weakref
from collections import Counter
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charfol import contact, jets, kernel, mori, parallel
from charfol.cli import _norms, main
from charfol.contact import (ContactScene, FoliationField, Hypersurface,
                             tangent_frame)
from charfol.errors import (CharfolError, DegenerateVolumeError,
                            ProjectionError)
from charfol.expr import Bin, Const
from charfol.exterior import Chart, KForm, ScalarField, _fn
from charfol.jets import Jet, fval, seed
from charfol.kernel import Rec, Tape, _argmax, _trace, argmax, run, run_rows
from charfol.scenefile import load_scene

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def _bundled(name):
    doc = load_scene(str(resources.files("charfol") / "scenes"
                         / f"{name}.scene"))
    return FoliationField(doc.scene, doc.surface)


def _column():
    doc = load_scene(str(resources.files("charfol") / "scenes"
                         / "mori-column.scene"))
    spec = mori.PerturbationSpec(**doc.perturbation)
    scene, surface, _ = mori.column_scene(spec)
    return FoliationField(scene, surface)


def _shell(n, chart):
    scene = mori.mori_scene(n, 0.1)
    return scene.field_cartesian if chart == "cartesian" else scene.field_polar


def _cone():
    # x^2 + y^2 = z^2 in [-1, 1]^3, whose vertex (fractions 0.5) is not
    # a regular point
    ch = Chart(("x", "y", "z"))
    x, y, z = ch.vars()
    scene = ContactScene(KForm.one_form(ch, [-y, x, ch.constant(1.0)]))
    return FoliationField(scene, Hypersurface(x * x + y * y - z * z))


FIELDS = {
    "cone": _cone,
    "s2-height": lambda: _bundled("s2-height"),
    "graph-model": lambda: _bundled("graph-model"),
    "mori-sigma0-n2": lambda: _shell(2, "cartesian"),
    "mori-column": _column,
    "shell-n2-polar": lambda: _shell(2, "polar"),
    "shell-n3-cartesian": lambda: _shell(3, "cartesian"),
    "shell-n3-polar": lambda: _shell(3, "polar"),
}

_built = {}


def field_named(name):
    # one field per scene for the whole module, so its kernels are
    # reused across examples the way a trajectory reuses them
    if name not in _built:
        _built[name] = FIELDS[name]()
    return _built[name]


def _box(scene):
    out = []
    for name in scene.chart.names:
        if name in scene.chart.periods:
            out.append((0.0, scene.chart.periods[name]))
        else:
            lo, hi = scene.domain.get(name, (None, None))
            out.append((-1.0 if lo is None else lo, 1.0 if hi is None else hi))
    return out


def surface_point(field, fractions):
    """A box point scaled from unit fractions, projected onto the surface."""
    box = _box(field.scene)
    q = np.array([lo + f * (hi - lo) for f, (lo, hi) in zip(fractions, box)])
    try:
        return field.surface.project(q)
    except ProjectionError:
        assume(False)


def _grad(field, p) -> list:
    """The generic grad F at p, the normal that char_data pivots on."""
    return list(field.surface.F.value_and_grad(list(p))[1])


def reference(field, p):
    """X, J and div from the generic char_data, value and jet level."""
    X = [fval(c) for c in field.char_data(p).X]
    data = field.char_data(seed(list(p)))
    J = [list(c.g) if isinstance(c, Jet) else [0.0] * len(p) for c in data.X]
    return X, J, fval(data.divergence)


fractions = st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7)
VERTEX = [0.5] * 7


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(fractions)
@example(fr=VERTEX)
def test_kernels_equal_generic_char_data(name, fr):
    field = field_named(name)
    p = surface_point(field, fr)
    try:
        X, J, div = reference(field, p)
    except DegenerateVolumeError as e:
        for call in (field.vector, field.flow_data, field.surface.frame,
                     lambda q: field.vectors([q])):
            with pytest.raises(DegenerateVolumeError) as traced:
                call(p)
            assert str(traced.value) == str(e)
        return
    assert field.vector(p).tolist() == X
    Xk, Jk, divk = field.flow_data(p)
    assert Xk.tolist() == X
    assert Jk.tolist() == J
    assert divk == div
    Xv, Jv = field.vector_and_jacobian(p)
    assert Xv.tolist() == X and Jv.tolist() == J
    # divergence against char_data on floats, and the tangent frame
    # against tangent_frame on the generic grad F
    data = field.char_data(p.tolist())
    assert field.flow_data(p)[2] == fval(data.divergence)
    assert field.surface.frame(p) == tangent_frame(_grad(field, p))[1:]


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(fractions)
def test_projection_kernel_equals_value_and_grad(name, fr):
    surface = field_named(name).surface
    box = _box(field_named(name).scene)
    q = [lo + f * (hi - lo) for f, (lo, hi) in zip(fr, box)]
    v, g = surface.F.value_and_grad(q)
    assert list(surface.F.traced_value_and_grad(q)) == [v, *g]

    # the Newton loop of project, run on the generic value_and_grad
    x, want = q, None
    for _ in range(20):
        v, g = surface.F.value_and_grad(x)
        if abs(v) < 1e-12:
            want = x
            break
        gg = sum(c * c for c in g)
        if gg == 0.0:
            break
        step = v / gg
        x = [a - step * c for a, c in zip(x, g)]
    try:
        got = surface.project(q).tolist()
    except ProjectionError:
        assert want is None
    else:
        assert got == want


FAILURES = (ArithmeticError, ValueError, CharfolError)


def assert_vectors_are_pointwise(field, pts):
    """field.vectors(pts) has the bits of [field.vector(p) for p in pts],
    or raises the error that the first failing point raises there."""
    try:
        got = field.vectors(pts)
    except FAILURES as e:
        with pytest.raises(type(e)) as want:
            for p in pts:
                field.vector(p)
        assert str(want.value) == str(e)
        return
    want = np.array([field.vector(p) for p in pts], dtype=float)
    assert got.tobytes() == want.reshape(got.shape).tobytes()


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(st.lists(fractions, min_size=1, max_size=12),
       st.sampled_from([1, 3, kernel.BLOCK]))
@example(frs=[[0.2] * 7, VERTEX, [0.9] * 7], block=3)
def test_vectors_equal_vector_bit_for_bit(name, frs, block):
    # small blocks mix pivots within a block and kernels across blocks;
    # at the cone's vertex the batch raises DegenerateVolumeError
    field = field_named(name)
    box = _box(field.scene)
    q = [[lo + f * (hi - lo) for f, (lo, hi) in zip(fr, box)] for fr in frs]
    pts = field.surface.project_samples(q)
    if name == "cone" and VERTEX in frs:
        assert any(not p.any() for p in pts)        # the vertex is a row
    with mock.patch.object(kernel, "BLOCK", block):
        assert_vectors_are_pointwise(field, pts)


def test_vectors_mix_pivots_in_every_block():
    field = _bundled("s2-height")
    axis = np.linspace(-1.0, 1.0, 8)
    grid = np.stack(np.meshgrid(axis, axis, axis), -1).reshape(-1, 3)
    pts = np.array(field.surface.project_samples(grid))
    with mock.patch.object(kernel, "BLOCK", 64):
        got = field.vectors(pts)
    assert len(field._kernels[0]) == 3
    pivots = [tangent_frame(_grad(field, p))[0] for p in pts]
    assert all(len(set(pivots[i:i + 64])) > 1
               for i in range(0, len(pts), 64))
    want = np.array([field.vector(p) for p in pts])
    assert got.tobytes() == want.tobytes()


def _spy_traces(monkeypatch) -> list:
    """(traced function, weak reference to its tape) for every trace of
    `kernel` from now on."""
    trace, seen = kernel._trace, []

    def spy(fn, args):
        tape, outputs = trace(fn, args)
        seen.append((fn, weakref.ref(tape)))
        return tape, outputs

    monkeypatch.setattr(kernel, "_trace", spy)
    return seen


def test_rows_trace_each_kernel_once(monkeypatch):
    # a kernel that rows make compiles its twin from its own trace: the
    # three pivot kernels of the grid above take three traces, where a
    # second trace per twin made six
    field = _bundled("s2-height")
    axis = np.linspace(-1.0, 1.0, 8)
    grid = np.stack(np.meshgrid(axis, axis, axis), -1).reshape(-1, 3)
    pts = field.surface.project_samples(grid)
    traced = _spy_traces(monkeypatch)
    monkeypatch.setattr(kernel, "BLOCK", 64)
    field.vectors(pts)
    assert len(field._kernels[0]) == 3
    assert [fn for fn, _ in traced] == [field._value_outputs] * 3


def test_no_kernel_keeps_its_tape(monkeypatch):
    # the kernels of `run` and `run_rows`, and the twin of a kernel that
    # a scalar call made (from a second trace), let their tapes go: a
    # kept tape holds its lines and recording scalars as long as the
    # field lives
    field = _bundled("s2-height")
    traced = _spy_traces(monkeypatch)
    axis = np.linspace(-1.0, 1.0, 8)
    grid = np.stack(np.meshgrid(axis, axis, axis), -1).reshape(-1, 3)
    pts = field.surface.project_samples(grid)       # run_rows on F
    field.vector(pts[0])                            # run
    field.flow_data(pts[0])
    field.vectors(pts)              # a re-trace for the first kernel's twin
    gc.collect()
    fns = [fn for fn, _ in traced]
    assert fns.count(field._value_outputs) == len(field._kernels[0]) + 1
    assert field._kernels[1] and field.surface.F._kernels
    assert all(tape() is None for _, tape in traced)


def _spy_compiles(monkeypatch) -> list:
    """The source of every kernel and twin that `kernel` compiles from
    now on."""
    seen = []

    def spy(src, *args):
        seen.append(src)
        return compile(src, *args)

    monkeypatch.setattr(kernel, "compile", spy, raising=False)
    return seen


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_twins_from_the_first_trace_equal_retraced_twins(name, monkeypatch):
    # F's kernels and the value kernels that rows make compile their
    # twins from the trace that made them; a second trace at the kernel's
    # trace point, as a kernel of a scalar call gets, gives each the same
    # source
    field = FIELDS[name]()
    sources = _spy_compiles(monkeypatch)
    pts = field.surface_samples(np.random.default_rng(5), 200)
    field.vectors(pts)
    twins = [s for s in sources if "_miss" in s]
    sources.clear()
    pairs = [(field.surface.F._kernels, field.surface.F._value_and_grad),
             (field._kernels[0], field._value_outputs)]
    for kernels, fn in pairs:
        for k in kernels:
            tape, outputs = _trace(fn, k.at)
            tape.compile(len(k.at), outputs, rows=True)
    assert len(twins) == sum(len(ks) for ks, _ in pairs) > 1
    assert Counter(twins) == Counter(sources)


@pytest.mark.parametrize("name", ["s2-height", "graph-model"])
def test_grid_kernels_have_no_power_and_have_twins(name):
    # x ** 1 folds away, so the value kernels of the grid scenes use only
    # + - * /, negation, abs and comparisons, and each has an array twin
    doc = load_scene(str(resources.files("charfol") / "scenes"
                         / f"{name}.scene"))
    field = FoliationField(doc.scene, doc.surface)
    field.vectors(field.surface.project_samples(doc.scene.grid_points(8)))
    assert len(field._kernels[0]) > 1
    for k in field._kernels[0]:
        tape, _ = _trace(field._value_outputs, k.at)
        assert not any("**" in line[1] for line in tape.lines)
        assert not tape.functions
        assert k.twin is not None


def test_twin_leaves_zero_divisors_to_the_kernel():
    def fn(xs):
        x, y = xs
        _ = 1.0 / y             # raises where y is 0; feeds no output
        return [x * 2.0, x - y]

    kernels = []
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = run_rows(kernels, fn, x, 2)
    assert out.tolist() == [[2.0, -1.0], [6.0, -1.0], [10.0, -1.0]]
    assert len(kernels) == 1 and kernels[0].twin is not None
    for zero in (0.0, -0.0):
        with pytest.raises(ZeroDivisionError):
            run(kernels, fn, [3.0, zero])
        x[1, 1] = zero
        with pytest.raises(ZeroDivisionError):
            run_rows(kernels, fn, x, 2)


def test_twin_rows_follow_float_comparisons():
    # ties, signed zeros, infinities and NaN pick the same branch and the
    # same argmax in a twin as in its kernel (the output is not the key,
    # so a wrong pick at a NaN key can give a finite output)
    def fn(xs):
        a, b, c = xs
        i = argmax([abs(a), abs(b), c])
        return [xs[i - 1] - 1.0 if a < b else -xs[i - 1]]

    special = [0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf, math.nan]
    rows = np.array([[a, b, c] for a in special for b in special
                     for c in special])
    kernels = []
    want = [run(kernels, fn, r.tolist()) for r in rows]
    out = run_rows(kernels, fn, rows, 1)
    assert out.tobytes() == np.array(want, dtype=float).tobytes()


def test_twin_leaves_nan_outputs_to_the_kernel():
    # with two NaN operands, numpy and Python floats keep different ones:
    # inf - inf is a NaN with its sign bit set, math.nan has it clear
    def fn(xs):
        x, y = xs
        return [(x - x) + y]

    rows = np.array([[1.0, 2.0], [math.inf, math.nan]])
    kernels = []
    want = [run(kernels, fn, r.tolist()) for r in rows]
    out = run_rows(kernels, fn, rows, 1)
    assert out.tobytes() == np.array(want).tobytes()


def test_twin_calls_libm_where_numpy_rounds_otherwise():
    # on [-20, 0], np.exp differs from math.exp at a few percent of the
    # points; a twin calls math's exp, sin and pow, so it serves every
    # row with its kernel's bits
    def fn(xs):
        x, y = xs
        return [jets.exp(x) * jets.sin(y) + x ** 3.0 + y ** x]

    x = np.column_stack([np.linspace(-20.0, 0.0, 5000),
                         np.linspace(0.5, 3.0, 5000)])
    assert (np.exp(x[:, 0]) != [math.exp(v) for v in x[:, 0]]).any()
    kernels = []
    want = [run(kernels, fn, r.tolist()) for r in x]
    with mock.patch.object(kernel, "run", side_effect=AssertionError):
        out = run_rows(kernels, fn, x, 1)
    assert out.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("f, bad", [(lambda x: jets.log(x), -0.5),
                                    (lambda x: jets.exp(1000.0 * x), 1.0)],
                         ids=["log", "exp"])
def test_math_error_in_a_block_raises_what_run_raises(f, bad):
    def fn(xs):
        return [f(xs[0]) + xs[1]]

    x = np.array([[0.25, 1.0]] * 5 + [[bad, 2.0]] + [[0.5, 3.0]] * 5)
    kernels = []
    run(kernels, fn, x[0].tolist())
    with pytest.raises((ArithmeticError, ValueError)) as want:
        run(kernels, fn, x[5].tolist())
    for ks in ([], kernels):
        with pytest.raises(type(want.value), match=str(want.value)):
            run_rows(ks, fn, x, 1)
    good = np.delete(x, 5, axis=0)
    assert run_rows(kernels, fn, good, 1).tolist() == [
        list(run(kernels, fn, r)) for r in good.tolist()]


def test_math_error_of_one_twin_leaves_its_rows_to_the_others():
    # a twin computes every line at every row of its block, so the log
    # of the first kernel raises at the rows that the second one serves
    def fn(xs):
        x, y = xs
        return [jets.log(x) + y] if x > 0.0 else [y - x]

    x = np.array([[-0.5, 2.0], [0.5, 1.0], [-1.5, 0.5], [2.0, 3.0]])
    kernels = []
    want = [run(kernels, fn, r) for r in x.tolist()]
    assert len(kernels) == 2        # the log's first, as the last row used it
    out = run_rows(kernels, fn, x, 1)
    assert out.tobytes() == np.array(want).tobytes()


def _report_commands() -> list:
    """The command lines of `tools/compare_reports.py`, with foliation
    grids of 6 points per coordinate."""
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return [["6" if before == "--grid" else a
             for before, a in zip(["", *argv], argv)]
            for argv in tool.COMMANDS]


# the command lines that exit with another code than 0, those that trace
# no kernel, and those whose kernels must include a libm function
_EXIT = {"certify graph-model": 1,
         "certify graph-model --tolerance-profile fast": 1,
         "certify mori-sigma0-n2": 1,
         "classify mori-column": 2}
_NO_KERNEL = {"classify mori-column", "convexify collar-profile"}
_LIBM = {"foliation mori-sigma0-n2 --grid 6", "certify mori-column"}


@pytest.mark.parametrize("argv", _report_commands())
def test_every_kernel_of_a_command_has_a_twin(argv, monkeypatch, tmp_path,
                                             capsys):
    """Every kernel a command traces has an array twin, which serves its
    trace point with the kernel's outputs."""
    # one worker: the spy cannot see a trace made in a forked child
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    traced = []
    line = " ".join(argv)

    def spy(fn, args):
        out = trace(fn, args)
        traced.append((fn, tuple(args)))
        return out

    trace = kernel._trace
    with mock.patch.object(kernel, "_trace", spy):
        assert main([*argv, "--json", str(tmp_path / "r.json")]) == _EXIT.get(
            line, 0)
    capsys.readouterr()
    assert bool(traced) == (line not in _NO_KERNEL)
    assert line not in _LIBM or any(tape.functions for tape, _ in
                                    (trace(fn, at) for fn, at in traced))
    for fn, at in traced:
        tape, outputs = trace(fn, at)
        want = tape.compile(len(at), outputs)(*at)
        with np.errstate(all="ignore"):
            miss, got = tape.compile(len(at), outputs, rows=True)(
                *(np.array([v]) for v in at))
        assert not np.any(miss)
        got = [float(np.broadcast_to(v, 1)[0]) for v in got]
        assert [math.isfinite(v) for v in got] == [math.isfinite(v)
                                                  for v in want]
        assert all(a == b or not math.isfinite(b) for a, b in zip(got, want))


def test_kernel_globals_are_libm_pow_and_constants(monkeypatch, tmp_path,
                                                   capsys):
    # every guard is an inline comparison, so a kernel or twin calls
    # nothing but the ring's libm functions and the power (one worker:
    # the spy cannot see a compile made in a forked child)
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    compiled = []
    compile_ = Tape.compile

    def spy(self, *args, **kwargs):
        k = compile_(self, *args, **kwargs)
        compiled.append((k, kwargs.get("rows", False)))
        return k

    monkeypatch.setattr(Tape, "compile", spy)
    for argv in (["certify", "s2-height"], ["certify", "mori-column"],
                 ["foliation", "mori-sigma0-n2", "--grid", "8"],
                 ["mori", "reproduce"]):
        assert main([*argv, "--json", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert {rows for _, rows in compiled} == {False, True}
    allowed = {f"_{row[0]}" for row in jets._RULES} | {"_pow", "inf", "nan"}
    for k, _ in compiled:
        assert set(k.__globals__) - {"__builtins__", k.__name__} <= allowed


@pytest.mark.parametrize("d", [3, 5, 7])
def test_norms_equal_linalg_norm_bit_for_bit(d):
    # `foliation` reports the smallest and largest |X| from one stacked
    # matmul; np.linalg.norm of each row is the reference
    rng = np.random.default_rng(d)
    V = rng.normal(size=(20000, d)) * np.exp(rng.uniform(-30.0, 30.0,
                                                         (20000, 1)))
    V[:5] = 0.0
    want = np.array([np.linalg.norm(v) for v in V])
    assert _norms(V).tobytes() == want.tobytes()


def test_foliation_at_the_cone_vertex_fails_like_vector(tmp_path, capsys):
    # an odd grid over [-1, 1]^3 holds the vertex, where X is undefined
    scene = tmp_path / "cone.scene"
    scene.write_text("scene cone\n\nchart\n  names = x y z\n\nalpha\n"
                     "  dx = -y\n  dy = x\n  dz = 1\n\nhypersurface\n"
                     "  level = x^2 + y^2 - z^2\n")
    doc = load_scene(str(scene))
    pts = doc.surface.project_samples(doc.scene.grid_points(5))
    assert any(not p.any() for p in pts)
    field = FoliationField(doc.scene, doc.surface)
    with pytest.raises(DegenerateVolumeError) as pointwise:
        for p in pts:
            field.vector(p)
    capsys.readouterr()
    assert main(["foliation", str(scene), "--grid", "5"]) == 3
    assert capsys.readouterr().err == f"numeric failure: {pointwise.value}\n"


def test_pivot_switch_on_s2_height():
    # on the unit sphere grad F = 2p, so the pivot flips from x to z as
    # the point crosses the diagonal x = z
    field = _bundled("s2-height")
    pts = [np.array([math.cos(a), 0.0, math.sin(a)])
           for a in (math.pi / 4 - 1e-3, math.pi / 4 + 1e-3,
                     math.pi / 4 - 2e-3)]
    pivots = [tangent_frame(_grad(field, p))[0] for p in pts]
    assert pivots == [0, 2, 0]
    for p in pts:
        X, J, div = reference(field, p)
        assert field.vector(p).tolist() == X
        Xk, Jk, divk = field.flow_data(p)
        assert (Xk.tolist(), Jk.tolist(), divk) == (X, J, div)
    # the third point reuses the first point's kernels; no variational run
    assert [len(k) for k in field._kernels] == [2, 2, 0]


def test_degenerate_point_raises_like_char_data():
    field = _cone()
    field.vector([0.3, 0.4, 0.5])          # a kernel exists; its guard fails
    field.flow_data([0.3, 0.4, 0.5])
    origin = [0.0, 0.0, 0.0]
    with pytest.raises(DegenerateVolumeError) as generic:
        field.char_data(origin)
    for call in (field.vector, field.flow_data, field.vector_and_jacobian):
        with pytest.raises(DegenerateVolumeError) as traced:
            call(origin)
        assert str(traced.value) == str(generic.value)


def test_degenerate_frame_raises_like_char_data():
    field = _cone()
    surface = field.surface
    surface.frame([0.3, 0.4, 0.5])
    with pytest.raises(DegenerateVolumeError) as generic:
        field.char_data([0.0, 0.0, 0.0])
    with pytest.raises(DegenerateVolumeError) as traced:
        surface.frame([0.0, 0.0, 0.0])
    assert str(traced.value) == str(generic.value)


def _traced(point) -> bool:
    """Whether a point holds recording scalars or arrays (or jets over
    them) rather than plain numbers."""
    return any(isinstance(fval(c), (Rec, np.ndarray)) for c in point)


@pytest.mark.parametrize("argv", [["classify", "s2-height"],
                                  ["certify", "s2-height"],
                                  ["classify", "mori-sigma0-n2"],
                                  ["foliation", "s2-height", "--grid", "8"],
                                  ["certify", "mori-column"]])
def test_commands_evaluate_only_through_kernels(argv, monkeypatch, tmp_path):
    # char_data, a scalar field's value_and_grad (the surface's F, the
    # column's Hamiltonians) and alpha's data may run while a kernel is
    # recorded and on sample batches, never on plain floats (one worker:
    # the spies cannot see a call made in a forked child)
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    surfaces, plain = [], []
    init = Hypersurface.__init__
    char_data = FoliationField.char_data
    value_and_grad = ScalarField.value_and_grad
    alpha_data = contact._alpha_data

    def spy_init(self, field, *args, **kwargs):
        surfaces.append(field)
        init(self, field, *args, **kwargs)

    def spy_char_data(self, point):
        if not _traced(point):
            plain.append(("char_data", list(point)))
        return char_data(self, point)

    def spy_value_and_grad(self, point):
        if not _traced(point):
            plain.append(("value_and_grad", self, list(point)))
        return value_and_grad(self, point)

    def spy_alpha_data(scene, point):
        if not _traced(point):
            plain.append(("alpha", scene.name, list(point)))
        return alpha_data(scene, point)

    monkeypatch.setattr(Hypersurface, "__init__", spy_init)
    monkeypatch.setattr(FoliationField, "char_data", spy_char_data)
    monkeypatch.setattr(ScalarField, "value_and_grad", spy_value_and_grad)
    monkeypatch.setattr(contact, "_alpha_data", spy_alpha_data)
    assert main([*argv, "--json", str(tmp_path / "r.json")]) == 0
    assert surfaces
    assert plain == []


def test_recording_scalar_refuses_hidden_branches():
    r = Rec(1.5, "x0", Tape())
    with pytest.raises(TypeError):
        float(r)
    with pytest.raises(TypeError):
        bool(r)
    with pytest.raises(TypeError):
        [0, 1][r]


def test_trace_of_a_field_records_its_operations():
    field = _bundled("s2-height")
    tape = Tape()
    p = [Rec(v, f"x{i}", tape) for i, v in enumerate([0.6, 0.0, 0.8])]
    assert seed(p)[0].f is p[0]
    field.char_data(p)
    assert sum(1 for line in tape.lines if line[0] is not None) > 10
    assert any(line[0] is None for line in tape.lines)      # the guards


def test_branches_become_guards():
    calls = []

    def fn(xs):
        calls.append(1)
        x = xs[0]
        return [x * 3.0 if x > 0.0 else -x]

    kernels = []
    assert run(kernels, fn, [2.0]) == (6.0,)
    assert run(kernels, fn, [-2.0]) == (2.0,)
    assert run(kernels, fn, [5.0]) == (15.0,)
    assert run(kernels, fn, [-0.5]) == (0.5,)
    assert len(calls) == len(kernels) == 2      # one trace per branch


def test_argmax_is_one_guard_per_answer():
    # max() picks the first of the largest values, ties included
    for values in ([1.0, 3.0, 3.0], [2.0, -5.0, 0.5], [0.0, 0.0]):
        assert argmax(values) == max(range(len(values)),
                                     key=values.__getitem__)
    def fn(xs):
        return [xs[argmax([abs(x) for x in xs])]]

    kernels = []
    # different pairwise comparison outcomes, same answer: one kernel
    assert run(kernels, fn, [1.0, 2.0, 3.0]) == (3.0,)
    assert run(kernels, fn, [2.0, 1.0, -3.0]) == (-3.0,)
    assert len(kernels) == 1
    assert run(kernels, fn, [4.0, 1.0, 3.0]) == (4.0,)
    assert len(kernels) == 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0])), min_size=1, max_size=8))
def test_argmax_picks_what_max_over_indices_picks(values):
    # ties, signed zeros, infinities and NaN (at any place, and as the
    # same object more than once) give the index max() itself would
    want = max(range(len(values)), key=values.__getitem__)
    assert _argmax(*values) == want
    assert argmax(values) == want


KEYS = st.lists(st.one_of(st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0]), st.floats()),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(KEYS, KEYS)
# max() keeps a NaN first key, and passes over a later NaN
@example(at=[math.nan, 1.0], other=[math.nan, 2.0])
@example(at=[1.0, math.nan, 2.0], other=[1.0, 3.0, math.nan])
@example(at=[0.0, -0.0, 1.0], other=[-0.0, 0.0, -1.0])
@example(at=[2.0, 2.0], other=[2.0, math.inf])
def test_argmax_guards_hold_where_max_picks_the_same(at, other):
    # a kernel traced at one key tuple, and its twin, serve another tuple
    # of the same length exactly where max() makes the same pick there
    other = (other * len(at))[:len(at)]

    def fn(xs):
        return [float(argmax(list(xs)))]

    kernels = []
    assert run(kernels, fn, at) == (float(_argmax(*at)),)
    k, = kernels
    same = _argmax(*other) == _argmax(*at)
    assert (k(*other) is not None) == same
    miss, _ = kernel._twin(k, fn)(*(np.array([v]) for v in other))
    assert (not np.any(miss)) == same


# the folds of the recording scalar ---------------------------------------

# What `x op n` (right) and `n op x` (left) fold to, written out here
# rather than read from the kernel: x itself, its negation, or 0.0. Every
# other number records the operation as one line.
FOLDS = {
    ("+", "right"): {0: "x"}, ("+", "left"): {0: "x"},
    ("-", "right"): {0: "x"}, ("-", "left"): {0: "-x"},
    ("*", "right"): {0: 0.0, 1: "x"}, ("*", "left"): {0: 0.0, 1: "x"},
    ("/", "right"): {1: "x"}, ("/", "left"): {0: 0.0},
    ("**", "right"): {1: "x"}, ("**", "left"): {},
}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv, "**": operator.pow}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n", [0, -0.0, 1, 1.0, -1.0, 2.0])
def test_rec_folds_follow_the_table(op, side, n):
    tape = Tape()
    x = Rec(1.5, "x0", tape)
    args = (x, n) if side == "right" else (n, x)
    if (op, side, n) == ("/", "right", 0):
        with pytest.raises(ZeroDivisionError):      # as 1.5 / 0 does
            OPS[op](*args)
        return
    if (op, side, n) == ("**", "left", -1.0):
        with pytest.raises(ValueError):     # as math.pow(-1.0, 1.5) does
            OPS[op](*args)
        return
    out = OPS[op](*args)
    to = FOLDS[op, side].get(n)
    if to is None:                  # one line, valued as on floats
        value = OPS[op](*(1.5 if a is x else a for a in args))
        assert isinstance(out, Rec) and out.v == value
        assert len(tape.lines) == 1
        # a power is a call of math.pow, which raises on a complex power
        call = "_pow(" if op == "**" else f" {op} "
        assert call in tape.lines[0][1] and tape.lines[0][2] == ["x0"]
    elif to == "x":
        assert out is x and tape.lines == []
    elif to == "-x":                # the negation line, and no other
        assert isinstance(out, Rec) and out.v == -1.5
        assert tape.lines == [(out.name, "-{}", ["x0"], False)]
    else:
        assert type(out) is float and out == to and tape.lines == []


def test_rec_folds_a_double_negation():
    # -(-x) is x itself: the same bits, NaN included, and no second line
    tape = Tape()
    x = Rec(1.5, "x0", tape)
    y = -x
    assert -y is x and tape.lines == [(y.name, "-{}", ["x0"], False)]
    z = 0 - x                       # a folded negation folds back too
    assert z is not y and -z is x and len(tape.lines) == 2
    w = x * 3.0
    assert -(-w) is w and len(tape.lines) == 4
    nan = -math.nan                 # a NaN with its sign bit set
    kernels = []
    out = run(kernels, lambda xs: [-(-xs[0]), -(-(-xs[0]))], [nan])
    assert struct.pack("<2d", *out) == struct.pack("<2d", nan, -nan)


def test_rec_operators_take_only_numbers_and_recs():
    tape = Tape()
    x, y = Rec(1.5, "x0", tape), Rec(2.0, "x1", tape)
    assert (x * y).v == 3.0 and tape.lines[-1][1:3] == ("{} * {}",
                                                        ["x0", "x1"])
    assert x.__radd__(y) is NotImplemented      # Rec op Rec goes forward
    for other in ("1", [1.0], None):
        assert x.__add__(other) is NotImplemented
        assert x.__rmul__(other) is NotImplemented
        assert x.__lt__(other) is NotImplemented
    with pytest.raises(TypeError):
        hash(x)
    assert len(tape.lines) == 1


# random surfaces F = tree + z in the chart of s2-height ------------------

CH = Chart(("x", "y", "z"))
SCENE = ContactScene(KForm.one_form(CH, [-CH.var("y"), CH.var("x"),
                                             CH.constant(1.0)]))


def _power(a, b):
    # a positive base keeps real powers real; a variable exponent makes
    # the jets take their exp(p log x) branch
    return ScalarField(CH, Bin("**", _fn("exp", a).node, b.node))


leaves = st.one_of(st.sampled_from(CH.vars()),
                   st.floats(-2.0, 2.0, allow_nan=False).map(CH.constant))
trees = st.recursive(leaves, lambda kids: st.one_of(
    st.builds(lambda op, a, b: op(a, b),
              st.sampled_from([operator.add, operator.sub, operator.mul,
                               operator.truediv]), kids, kids),
    st.builds(_power, kids, kids),
    st.builds(lambda c, a: ScalarField(CH, Bin("**", Const(c), a.node)),
              st.sampled_from([0.5, 2.0]), kids),
    st.builds(lambda e, a: a ** e, st.sampled_from([2.0, 3.0, -1.0]), kids),
    st.builds(_fn, st.sampled_from(["sin", "cos", "exp", "tanh", "atan",
                                    "log", "sqrt", "tan"]), kids),
    st.builds(lambda a, v: a.d(v), kids, st.sampled_from(CH.names)),
    kids.map(operator.neg)), max_leaves=6)
points = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


def _same(a, b):
    return np.array_equal(np.asarray(a, dtype=float),
                          np.asarray(b, dtype=float), equal_nan=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trees, points, points)
# X never reads the value of F, yet the generic code fails where log(x) does
@example(_fn("log", CH.var("x")), [0.5, 0.2, 0.1], [-0.5, 0.2, 0.1])
def test_random_surfaces_match_generic(tree, p, q):
    """A kernel traced at p, then reused at q, gives the generic numbers,
    and fails wherever the generic code fails."""
    field = FoliationField(SCENE, Hypersurface(tree + CH.var("z")))
    for pt in (p, q):
        try:
            X = [fval(c) for c in field.char_data(pt).X]
        except FAILURES:
            with pytest.raises(FAILURES):
                field.vector(pt)
        else:
            assert _same(field.vector(pt), X)
        try:
            data = field.char_data(seed(pt))
        except FAILURES:
            with pytest.raises(FAILURES):
                field.flow_data(pt)
        else:
            Xk, Jk, divk = field.flow_data(pt)
            assert _same(Xk, [fval(c) for c in data.X])
            assert _same(Jk, [list(c.g) if isinstance(c, Jet) else [0.0] * 3
                              for c in data.X])
            assert _same(divk, fval(data.divergence))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trees, points, points)
# grad F divides by y, which is exactly 0 at q
@example(CH.var("x") / CH.var("y"), [0.5, 0.2, 0.1], [0.5, 0.0, 0.1])
def test_random_surfaces_vectors_equal_vector(tree, p, q):
    """The twins, traced from a batch, give `vector`'s bits and fail
    where it fails; a tape with a power or a math function has a twin
    that calls them element by element."""
    field = FoliationField(SCENE, Hypersurface(tree + CH.var("z")))
    assert_vectors_are_pointwise(field, [p, q, p])


def test_folds_give_zero_where_the_generic_run_gives_nan():
    """At a tiny z, the jets of F = x/z + z overflow, so the generic run
    multiplies inf by zero tangents and its Jacobian is NaN. The kernel
    folds `x * 0` to 0.0 there: the y column is zero, and every entry
    the generic run has finite is equal in the kernel."""
    field = FoliationField(SCENE, Hypersurface(CH.var("x") / CH.var("z")
                                               + CH.var("z")))
    p = [1.0, 0.0, 2.6e-289]
    X, J, div = reference(field, p)
    Xk, Jk, divk = field.flow_data(p)
    assert all(math.isnan(row[1]) for row in J)
    assert all(v == 0.0 for v in Jk[:, 1])
    generic = [*X, *np.ravel(J), div]
    traced = [*Xk, *Jk.ravel(), divk]
    assert all(k == g for k, g in zip(traced, generic) if math.isfinite(g))


# the kernel source: parentheses only where precedence needs them -------

def _program(steps):
    """The function of the recording scalars x0, x1 that runs `steps`.
    A step applies its operator to the value `i` steps back and to the
    value `j` steps back, or to the number c (on the left with `left`);
    the outputs are the last three values. Bases of real powers are
    taken as abs, and number exponents rounded down to integers, so no
    power is complex."""
    def fn(xs):
        vals = list(xs)
        for op, i, j, c, left in steps:
            a = vals[-1 - i % len(vals)]
            b = vals[-1 - j % len(vals)] if c is None else c
            if op == "neg":
                v = -a
            elif op == "abs":
                v = abs(a)
            elif op == "**":
                v = (abs(a) ** b if c is None else abs(c) ** a if left
                     else a ** float(math.floor(c)))
            else:
                v = OPS[op](b, a) if left else OPS[op](a, b)
            vals.append(v)
        return vals[-3:]
    return fn


def _line_by_line(tape, outputs, args):
    """The outputs from the tape's lines run one at a time, each stored
    under its own name."""
    env = dict(tape.functions, **{f"x{i}": v for i, v in enumerate(args)})
    for name, template, names, _ in tape.lines:
        env[name] = eval(template.format(*names), env)
    return [env[o.name] if isinstance(o, Rec) else o for o in outputs]


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _steps(*ops):
    """`ops`, then abs(x0) twice, so that of the values the ops make
    only the last is an output."""
    m = len(ops)
    return [*ops, ("abs", m + 1, 0, None, False),
            ("abs", m + 2, 0, None, False)]


back = st.one_of(st.just(0), st.just(1), st.integers(0, 40))
steps = st.lists(st.tuples(
    st.sampled_from(["+", "-", "*", "/", "**", "neg", "abs"]), back, back,
    st.one_of(st.none(), st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0,
                                          3.0])), st.booleans()),
    min_size=1, max_size=48)
finite = st.floats(-3.0, 3.0, allow_nan=False)
# what a line raises: math.pow raises ValueError for 0 to a negative power
FAILS = (ArithmeticError, ValueError)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(steps, st.tuples(finite, finite), st.tuples(finite, finite))
# a + (b + c), a - (b - c) and a / (b * c): right operands of the same
# strength; 0.1 + (0.2 + 0.3) is not (0.1 + 0.2) + 0.3
@example(_steps(("+", 0, 0, 0.3, False), ("+", 2, 0, None, False)),
         (0.1, 0.2), (-1.1, 0.9))
@example(_steps(("-", 0, 1, None, False), ("-", 1, 0, None, False)),
         (0.3, 1.7), (-1.1, 0.9))
@example(_steps(("*", 0, 1, None, False), ("/", 1, 0, None, False)),
         (0.3, 1.7), (-1.1, 0.9))
# negations of a product and of a power, a power of a sum
@example(_steps(("*", 0, 1, None, False), ("neg", 0, 0, None, False),
                ("**", 0, 0, 3.0, False), ("neg", 0, 0, None, False),
                ("+", 0, 4, None, False), ("**", 0, 0, 3.0, False)),
         (0.3, 1.7), (-1.1, 0.9))
# a power of a power: x ** 3.0 ** 3.0 would be x ** 27.0
@example(_steps(("**", 0, 0, 3.0, False), ("**", 0, 0, 3.0, False)),
         (0.3, 1.7), (-1.1, 0.9))
# negative numbers on either side, and as exponents
@example(_steps(("-", 0, 0, -1.0, True), ("*", 0, 0, -2.5, False),
                ("**", 0, 0, -1.0, False), ("**", 0, 0, -2.5, True)),
         (0.3, 1.7), (-1.1, 0.9))
# chains of single uses past _NEST, nested on the left and on the right
@example(_steps(*[("+", 0, 0, 0.5, False)] * 40), (0.3, 1.7), (-1.1, 0.9))
@example(_steps(*[("-", 0, 0, 1.5, True), ("/", 0, 0, 0.7, True)] * 20),
         (0.3, 1.7), (-1.1, 0.9))
def test_kernel_source_keeps_the_tape_order(steps, p, q):
    """Compiled with its minimal parentheses, a random tape gives, at
    its trace point and at another point, the bits of its lines run one
    at a time, and fails where they fail."""
    try:
        tape, outputs = _trace(_program(steps), p)
    except FAILS:
        assume(False)
    k = tape.compile(2, outputs)
    assert _bits(k(*p)) == _bits(_line_by_line(tape, outputs, p))
    try:
        want = _line_by_line(tape, outputs, q)
    except FAILS:
        with pytest.raises(FAILS):
            k(*q)
    else:
        assert _bits(k(*q)) == _bits(want)


# the recorder against a reference -----------------------------------------
# `Tape` records each operation in the operator methods of `Rec` and
# builds a line's template and `binds` entry once per operator. The
# reference below builds every line from scratch, one call per step, and
# writes the source from a `Counter` of uses: the tapes and the kernel
# sources of the two must be the same.

_REF_BINDS = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3),
              "neg": (3, 3)}


class _RefTape(Tape):
    def emit(self, template, value, operands, raises=False, op=None):
        name = f"t{len(self.lines)}"
        self.lines.append((name, template, kernel._names(operands), raises))
        if op is not None:
            strength, *needs = _REF_BINDS[op]
            self.binds[name] = (strength, [k for x, k in zip(operands, needs)
                                           if isinstance(x, Rec)])
        return _RefRec(value, name, self)

    def binary(self, a, op, b):
        value = kernel._BINARY[op](kernel._value(a), kernel._value(b))
        slot = kernel._slot
        if op == "**":
            self.functions["_pow"] = math.pow
            return self.emit(f"_pow({slot(a)}, {slot(b)})", value, (a, b),
                             raises=True)
        raises = b.name if op == "/" and isinstance(b, Rec) else False
        return self.emit(f"{slot(a)} {op} {slot(b)}", value, (a, b),
                         raises, op)

    def source(self, nargs, outputs, rows=False):
        """The text `compile` would get for this tape."""
        results = kernel._names(outputs)
        live = set(results)
        kept = []
        for line in reversed(self.lines):
            if line[3] or line[0] in live:
                kept.append(line)
                live.update(line[2])
        kept.reverse()
        uses = Counter(results)
        for _, _, names, raises in kept:
            uses.update(names)
            if rows and isinstance(raises, str):
                uses[raises] += 1
        pending = {}

        def fill(template, names, needs):
            parts, depth = [], 0
            for n, need in zip(names, needs):
                if n in pending:
                    text, k, strength = pending.pop(n)
                    parts.append(f"({text})" if strength < need else text)
                    depth = max(depth, k)
                else:
                    parts.append(n)
            return template.format(*parts, neg="~" if rows else "not "), depth

        body = ["    _miss = False"] if rows else []
        for name, template, names, raises in kept:
            strength, needs = self.binds.get(name,
                                             (kernel._ATOM, [0] * len(names)))
            text, depth = fill(template, names, needs)
            if rows and isinstance(raises, str):
                body.append(f"    _miss |= {raises} == 0.0")
            if name is None:
                body.append(f"    _miss |= {text}" if rows
                            else f"    if {text}: return None")
            elif uses[name] == 1 and depth < kernel._NEST:
                pending[name] = (text, depth + 1, strength)
            else:
                body.append(f"    {name} = {text}")
        ret, _ = fill("".join(kernel._slot(o) + ", " for o in outputs),
                      results, [0] * len(results))
        if rows:
            ret = f"_miss, ({ret})"
        args = ", ".join(f"x{i}" for i in range(nargs))
        return "\n".join([f"def _k({args}):", *body, f"    return ({ret})\n"])


def _ref_operators(op):
    right, left = kernel._FOLDS[op]

    def forward(self, other):
        if isinstance(other, Rec):
            return self.tape.binary(self, op, other)
        if not isinstance(other, (int, float)):
            return NotImplemented
        to = right.get(other)
        if to is None:
            return self.tape.binary(self, op, other)
        return self if to == "x" else -self if to == "-x" else to

    def reflected(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        to = left.get(other)
        if to is None:
            return self.tape.binary(other, op, self)
        return self if to == "x" else -self if to == "-x" else to

    return forward, reflected


class _RefRec(Rec):
    __slots__ = ()
    __add__, __radd__ = _ref_operators("+")
    __sub__, __rsub__ = _ref_operators("-")
    __mul__, __rmul__ = _ref_operators("*")
    __truediv__, __rtruediv__ = _ref_operators("/")
    __pow__, __rpow__ = _ref_operators("**")

    def __neg__(self):
        if self.negates is not None:
            return self.negates
        out = self.tape.emit("-{}", -self.v, (self,), op="neg")
        out.negates = self
        return out


def _ref_trace(fn, args):
    tape = _RefTape()
    outputs = fn([_RefRec(v, f"x{i}", tape) for i, v in enumerate(args)])
    return tape, list(outputs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(steps, st.tuples(finite, finite))
@example(_steps(("-", 0, 0, -1.0, True), ("*", 0, 0, -2.5, False),
                ("**", 0, 0, -1.0, False), ("**", 0, 0, -2.5, True)),
         (0.3, 1.7))
@example(_steps(("/", 0, 1, None, False), ("/", 0, 0, 0.5, True),
                ("neg", 0, 0, None, False), ("-", 0, 0, 0.0, True)),
         (0.3, 1.7))
# a chain of single uses past _NEST
@example(_steps(*[("-", 0, 0, 1.5, True), ("/", 0, 0, 0.7, True)] * 20),
         (0.3, 1.7))
def test_recorder_matches_the_reference_recorder(steps, p):
    """A random program records the same lines, `binds` and functions
    as under the reference recorder, and its kernel and twin compile
    from the reference's source text."""
    fn = _program(steps)
    try:
        tape, outputs = _trace(fn, p)
    except FAILS as e:
        with pytest.raises(type(e)):
            _ref_trace(fn, p)
        return
    ref, ref_outputs = _ref_trace(fn, p)
    assert tape.lines == ref.lines
    assert tape.binds == ref.binds
    assert tape.functions == ref.functions
    assert [getattr(o, "name", o) for o in outputs] == [
        getattr(o, "name", o) for o in ref_outputs]
    sources = []

    def capture(src, *args):
        sources.append(src)
        return compile(src, *args)

    with mock.patch.object(kernel, "compile", capture, create=True):
        for rows in (False, True):
            sources.clear()
            assert callable(tape.compile(2, outputs, rows=rows))
            assert sources == [ref.source(2, ref_outputs, rows=rows)]
