"""Expression parsing, compilation, and d() nodes."""

import math

import pytest

from charfol.errors import SceneParseError
from charfol.exterior import Chart
from charfol.expr import compile_node, deriv, parse_expression, to_text, uses_var
from charfol.jets import seed


def build(text, variables=("x", "y"), params=None):
    node = parse_expression(text, variables, params)
    return compile_node(node, len(variables))


def test_arithmetic_and_precedence():
    f = build("2*x + y^2 - 3/x")
    assert math.isclose(f(2.0, 3.0), 4.0 + 9.0 - 1.5)
    g = build("-x^2")  # unary minus binds looser than the power
    assert g(3.0, 0.0) == -9.0
    h = build("2^-x")
    assert math.isclose(h(2.0, 0.0), 0.25)
    k = build("x - y - 1")  # left associative
    assert k(10.0, 3.0) == 6.0
    p = build("x**2 * y")  # ** accepted as synonym
    assert p(3.0, 2.0) == 18.0


def test_functions_params_constants():
    f = build("sin(pi*x) + eps*cos(y)", params={"eps": 0.5})
    assert math.isclose(f(0.5, 0.0), 1.0 + 0.5)
    g = build("exp(log(x)) + sqrt(x^2)")
    assert math.isclose(g(1.7, 0.0), 3.4, rel_tol=1e-14)


def test_real_power_of_a_negative_base_raises_like_sqrt():
    # float ** gives a complex number here; math.pow raises, as sqrt does
    ch = Chart(("x", "y", "z"))
    f = ch.parse("x^0.5 + y^2 + z^2 - 1")
    assert f.traced_value_and_grad([0.2, 0.1, 0.1])[0] < 0.0
    for call in (f, f.value_and_grad, f.traced_value_and_grad):
        with pytest.raises(ValueError, match="math domain error"):
            call([-0.2, 0.1, 0.1])


def test_compiled_functions_accept_jets():
    f = build("x^2 * sin(y) + x/y")
    jx, jy = seed((1.3, 0.7))
    out = f(jx, jy)
    assert math.isclose(out.f, f(1.3, 0.7), rel_tol=1e-15)
    assert math.isclose(out.g[0], 2 * 1.3 * math.sin(0.7) + 1 / 0.7, rel_tol=1e-13)
    assert math.isclose(out.g[1], 1.3 ** 2 * math.cos(0.7) - 1.3 / 0.7 ** 2, rel_tol=1e-13)


def test_non_finite_constants_compile():
    # repr() of a non-finite Const is the name inf or nan in the source
    ch = Chart(("x",))
    f = ch.constant(math.inf) + ch.var("x")
    assert f([1.0]) == math.inf
    assert math.isnan((ch.constant(math.nan) * ch.var("x"))([2.0]))
    assert compile_node(ch.constant(-math.inf).node, 1)(0.0) == -math.inf


def test_deriv_nodes():
    node = parse_expression("d(x^2 * y, x)", ("x", "y"))
    f = compile_node(node, 2)
    assert math.isclose(f(3.0, 5.0), 30.0, rel_tol=1e-14)

    # nested: mixed second partial of x^2 y^3 is 6 x y^2
    node2 = parse_expression("d(d(x^2 * y^3, x), y)", ("x", "y"))
    f2 = compile_node(node2, 2)
    assert math.isclose(f2(2.0, 3.0), 6 * 2 * 9, rel_tol=1e-13)

    # derivative nodes still evaluate over jets (third mixed derivative)
    jx, jy = seed((2.0, 3.0))
    out = f2(jx, jy)
    assert math.isclose(out.g[0], 6 * 9, rel_tol=1e-12)   # d/dx 6xy^2
    assert math.isclose(out.g[1], 12 * 2 * 3, rel_tol=1e-12)


def test_structural_zero_derivative():
    node = parse_expression("y^2 + 1", ("x", "y"))
    assert not uses_var(node, 0)
    dz = deriv(node, 0)
    assert compile_node(dz, 2)(5.0, 5.0) == 0.0


def test_to_text_round_trip():
    node = parse_expression("sin(x*y) - 2/x^2", ("x", "y"))
    text = to_text(node, ("x", "y"))
    node2 = parse_expression(text, ("x", "y"))
    f, g = compile_node(node, 2), compile_node(node2, 2)
    for p in [(0.3, 0.8), (1.1, -0.4)]:
        assert math.isclose(f(*p), g(*p), rel_tol=1e-15)


@pytest.mark.parametrize("bad,frag", [
    ("x + ", "unexpected"),
    ("x + $", "bad character"),
    ("foo(x)", "unknown function"),
    ("x*q", "unknown name"),
    ("sin x", "without arguments"),
    ("(x + y", "expected ')'"),
    ("d(x)", "exactly two"),
    ("d(x, 2)", "must be a coordinate"),
    ("sin(x, y)", "exactly one"),
    ("x y", "trailing input"),
])
def test_parse_errors(bad, frag):
    with pytest.raises(SceneParseError) as ei:
        parse_expression(bad, ("x", "y"))
    assert frag in str(ei.value)


def test_error_positions_respect_origin():
    with pytest.raises(SceneParseError) as ei:
        parse_expression("x + qq", ("x", "y"), origin=(40, 9))
    err = ei.value
    assert err.line == 40 and err.col == 13
    assert "line 40" in str(err)
