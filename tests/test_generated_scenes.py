"""Generated field scenes against what the mathematics promises.

Two seeded recipes, the first 3 scenes of each from `default_rng(2024)`:

- mild: the unit sphere's level set plus 3 random terms with
  coefficients up to 0.4, and alpha = -y dx + x dy + dz plus 2 random
  terms of size up to 0.3 in each component; zero seeds at both poles
  and at (0.9, 0.1, 0), 6 samples;
- steep: the sphere plus c exp(a x), a in [3, 12] and c in [0.05, 0.5],
  with alpha = -y dx + (x + b z) dy + dz, |b| <= 0.5 (contact on the
  whole box); zero seeds at both poles, 12 samples.

Both use the box [-2, 2]^3. `certify --seed 0` runs once on one worker
and once on every usable CPU, and each test checks one property of
those runs.

Time reversal: `certify --seed 0` runs twice more on each scene, once
with every alpha component negated (X -> -X, as the chart has 3
dimensions) and once with `sense = -1` in its analysis block. Both keep
the verdict and the zeros (locations to 1e-9). The negated field's zeros
have the opposite sign and index 2 - index; the reversed run's census is
the field's own, so its signs and indices are unchanged.
"""

import functools
import json
import re

import numpy as np
import pytest

from charfol import parallel
from charfol.cli import main

POLY = ("1", "x", "y", "z", "x^2", "y^2", "z^2", "x*y", "x*z", "y*z")
LEVEL = POLY[1:] + ("exp(x)", "exp(y)", "exp(z)")
BOX = 2.0


def _scene(name, alpha, level, seeds, samples):
    axes = "\n".join(f"  {v} = -{BOX:g} .. {BOX:g}" for v in "xyz")
    comps = "\n".join(f"  d{v} = {c}" for v, c in zip("xyz", alpha))
    return (f"scene {name}\nchart\n  names = x y z\nalpha\n{comps}\n"
            f"hypersurface\n  level = {level}\ndomain\n{axes}\n"
            f"analysis\n  zero_seeds = {seeds}\n  samples = {samples}\n")


def _terms(rng, pool, size, count):
    return "".join(f" + ({rng.uniform(-size, size):.3f})*"
                   f"{pool[rng.integers(len(pool))]}" for _ in range(count))


def _mild(rng, k):
    alpha = [c + _terms(rng, POLY, 0.3, 2) for c in ("-y", "x", "1")]
    level = "x^2 + y^2 + z^2 - 1" + _terms(rng, LEVEL, 0.4, 3)
    return _scene(f"mild{k}", alpha, level,
                  "(0, 0, 1); (0, 0, -1); (0.9, 0.1, 0)", 6)


def _steep(rng, k):
    a, c, b = rng.uniform(3.0, 12.0), rng.uniform(0.05, 0.5), \
        rng.uniform(-0.5, 0.5)
    return _scene(f"steep{k}", ["-y", f"x + ({b:.3f})*z", "1"],
                  f"x^2 + y^2 + z^2 - 1 + ({c:.3f})*exp({a:.3f}*x)",
                  "(0, 0, 1); (0, 0, -1)", 12)


def _scenes() -> dict:
    rng = np.random.default_rng(2024)
    out = {f"mild{k}": _mild(rng, k) for k in range(3)}
    out.update({f"steep{k}": _steep(rng, k) for k in range(3)})
    return out


SCENES = _scenes()


def _runs(name, tmp):
    """(exit code, report bytes) of `certify --seed 0` on one worker and
    on every usable CPU."""
    path = tmp / f"{name}.scene"
    path.write_text(SCENES[name])
    cpus = parallel._cpus()
    out = []
    for n in (1, cpus):
        report = tmp / f"{name}-{n}.json"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "_cpus", lambda n=n: n)
            code = main(["certify", str(path), "--seed", "0",
                         "--json", str(report)])
        out.append((code, report.read_bytes() if report.exists() else b""))
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("generated")
    return functools.cache(lambda name: _runs(name, tmp))


def _reversals(name, tmp):
    """(exit code, report) of `certify --seed 0` on the scene with alpha
    negated and on the scene run in sense -1, by variant."""
    texts = {"negated": re.sub(r"^  (d[xyz]) = (.*)$", r"  \1 = -(\2)",
                               SCENES[name], flags=re.M),
             "reversed": SCENES[name] + "  sense = -1\n"}
    out = {}
    for variant, text in texts.items():
        path = tmp / f"{name}-{variant}.scene"
        path.write_text(text)
        report = tmp / f"{name}-{variant}.json"
        code = main(["certify", str(path), "--seed", "0",
                     "--json", str(report)])
        out[variant] = (code, json.loads(report.read_text()))
    return out


@pytest.fixture(scope="module")
def reversals(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reversed")
    return functools.cache(lambda name: _reversals(name, tmp))


@pytest.mark.parametrize("name", SCENES)
def test_certify_gives_a_verdict(runs, name):
    assert [code for code, _ in runs(name)] in ([0, 0], [1, 1])


@pytest.mark.parametrize("name", SCENES)
def test_census_zeros_lie_in_the_domain(runs, name):
    (_, report), _ = runs(name)
    for el in json.loads(report)["certificate"]["elements"]:
        assert el["kind"] == "zero"
        assert all(-BOX <= v <= BOX for v in el["location"])


@pytest.mark.parametrize("name", SCENES)
def test_passing_census_sums_to_euler_characteristic(runs, name):
    (_, report), _ = runs(name)
    cert = json.loads(report)["certificate"]
    if cert["verdict"] == "pass":
        assert sum((-1) ** el["index"] for el in cert["elements"]) == 2


@pytest.mark.parametrize("name", SCENES)
def test_report_bytes_do_not_depend_on_workers(runs, name):
    (_, one), (_, every) = runs(name)
    assert one == every


@pytest.mark.parametrize("variant", ("negated", "reversed"))
@pytest.mark.parametrize("name", SCENES)
def test_time_reversal_keeps_the_verdict(runs, reversals, name, variant):
    (code, report), _ = runs(name)
    assert reversals(name)[variant][0] == code
    assert reversals(name)[variant][1]["verdict"] == \
        json.loads(report)["verdict"]


@pytest.mark.parametrize("variant", ("negated", "reversed"))
@pytest.mark.parametrize("name", SCENES)
def test_time_reversal_keeps_the_zeros(runs, reversals, name, variant):
    (_, report), _ = runs(name)
    zeros = json.loads(report)["certificate"]["elements"]
    other = reversals(name)[variant][1]["certificate"]["elements"]
    assert len(other) == len(zeros) > 0
    flip = variant == "negated"
    for el in zeros:
        [twin] = [o for o in other
                  if np.max(np.abs(np.subtract(o["location"],
                                               el["location"]))) < 1e-9]
        assert twin["sign"] == (-el["sign"] if flip else el["sign"])
        assert twin["index"] == (2 - el["index"] if flip else el["index"])
