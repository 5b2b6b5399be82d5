"""Command-line front end.

Subcommands: foliation, classify, certify, convexify, and the built-in
family runners `mori reproduce` and `mori perturb`. Scene arguments are
file paths, or names of bundled scenes (see `charfol.scenes`). Exit
codes: 0 for success or a passing verdict, 1 for an honest negative
verdict, 2 for input problems, 3 for numeric failures. Reports are
deterministic for a fixed scene and --seed; JSON goes to --json or
stdout, plottable series go to --csv-dir.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

import numpy as np

from . import certify as certify_mod
from . import mori as mori_mod
from . import policy, report
from .contact import FoliationField
from .dynamics import classify_zero, find_zeros
from .errors import CharfolError, IntegrationError, SceneParseError
from .scenefile import SceneDocument, load_scene


def _resolve_scene(arg: str) -> SceneDocument:
    if os.path.exists(arg):
        return load_scene(arg)
    base = resources.files("charfol") / "scenes"
    for cand in (f"{arg}.scene", arg):
        f = base / cand
        if f.is_file():
            return load_scene(str(f))
    raise SceneParseError(f"no scene file or bundled scene named {arg!r}")


def _emit(args, rep: dict, csv_files: dict) -> None:
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for name, (header, rows) in csv_files.items():
            report.write_csv(os.path.join(args.csv_dir, name), header, rows)
        rep["csv_files"] = sorted(csv_files)
    if args.json:
        report.write_json(args.json, rep)
        verdict = rep.get("verdict", "done")
        print(f"{rep['command']}: {verdict} (report written to {args.json})")
    else:
        print(report.to_json(rep))


def _base(args, command: str, digest: str) -> dict:
    return report.base_report(command, digest, args.seed,
                              args.tolerance_profile,
                              policy.profile(args.tolerance_profile))


def _field_scene(doc: SceneDocument):
    if doc.kind == "family":
        scene = mori_mod.mori_scene(doc.family["n"], doc.family["eps"])
        return scene, scene.field_cartesian
    field = FoliationField(doc.scene, doc.surface)
    return doc, field


def _grid_points(doc: SceneDocument, k: int):
    """Product grid over the bounded coordinate box, surface-projected."""
    chart = doc.scene.chart
    axes = []
    for nm in chart.names:
        lo, hi = doc.scene.domain.get(nm, (None, None))
        if nm in chart.periods:
            per = chart.periods[nm]
            axes.append(np.linspace(0.0, per, k, endpoint=False))
        else:
            lo = -1.0 if lo is None else lo
            hi = 1.0 if hi is None else hi
            axes.append(np.linspace(lo, hi, k))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def cmd_foliation(args) -> int:
    doc = _resolve_scene(args.scene)
    rep = _base(args, "foliation", report.scene_digest(doc.text))
    rep["scene"] = doc.name
    csvs = {}
    if doc.kind == "family":
        scene, field = _field_scene(doc)
        rng = np.random.default_rng(args.seed)
        pts = mori_mod.sample_surface_polar(scene, rng, args.grid ** 2)
        pts = [scene.cartesian_point(p) for p in pts]
        names = scene.cartesian.chart.names
    elif doc.kind == "field":
        _, field = _field_scene(doc)
        names = doc.scene.chart.names
        pts = doc.surface.project_samples(_grid_points(doc, args.grid))
        pts = [p for p, ok in zip(pts, doc.scene.domain_mask(pts)) if ok]
    else:
        raise SceneParseError(
            f"scene {doc.name!r} has nothing to evaluate a foliation on")
    if not pts:
        raise IntegrationError("no grid point projected onto the surface")

    vecs = [field.vector(p) for p in pts]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    header = list(names) + [f"X_{n}" for n in names]
    rows = [tuple(map(float, p)) + tuple(map(float, v))
            for p, v in zip(pts, vecs)]
    csvs["foliation.csv"] = (header, rows)
    rep.update({"points": len(pts),
                "norm_min": min(norms), "norm_max": max(norms)})
    if not args.csv_dir:
        rep["note"] = "pass --csv-dir to write the grid samples"
    _emit(args, rep, csvs)
    return 0


def _field_census(doc: SceneDocument, tols, rng):
    _, field = _field_scene(doc)
    seeds = list(doc.analysis.get("zero_seeds", []))
    seeds += doc.surface.project_samples(
        doc.scene.sample_points(rng, doc.analysis.get("samples", 8)))
    pts = find_zeros(field, seeds, tols)
    zeros = [classify_zero(field, p) for p in pts]
    zeros.sort(key=lambda z: tuple(np.round(z.point, 9)))
    return field, zeros


def cmd_classify(args) -> int:
    doc = _resolve_scene(args.scene)
    tols = policy.profile(args.tolerance_profile)
    rng = np.random.default_rng(args.seed)
    rep = _base(args, "classify", report.scene_digest(doc.text))
    rep["scene"] = doc.name
    if doc.kind == "family":
        scene, _ = _field_scene(doc)
        cen = mori_mod.census(scene, tols, rng)
        closure = mori_mod.verify_orbit_closure(scene, cen["orbits"], tols)
        rep["elements"] = ([report.zero_row(z) for z in cen["zeros"]]
                           + [report.orbit_row(o.info)
                              for o in cen["orbits"]])
        rep["orbit_closure"] = closure
    elif doc.kind == "field":
        _, zeros = _field_census(doc, tols, rng)
        rep["elements"] = [report.zero_row(z) for z in zeros]
    else:
        raise SceneParseError(f"scene {doc.name!r} has no field to classify")
    rep["zeros"] = sum(1 for e in rep["elements"] if e["kind"] == "zero")
    rep["orbits"] = sum(1 for e in rep["elements"] if e["kind"] == "orbit")
    _emit(args, rep, {})
    return 0


def cmd_certify(args) -> int:
    doc = _resolve_scene(args.scene)
    tols = policy.profile(args.tolerance_profile)
    rng = np.random.default_rng(args.seed)
    rep = _base(args, "certify", report.scene_digest(doc.text))
    rep["scene"] = doc.name
    csvs = {}
    if doc.kind == "perturbation":
        spec = mori_mod.PerturbationSpec(**doc.perturbation)
        dossier = mori_mod.perturb_analysis(spec, tols, rng)
        cert = dossier["certificate"]
        rep["certificate"] = report.certificate_dict(cert)
        rep["persistence"] = dossier["persistence"]
        rep["verdict"] = cert.verdict
    elif doc.kind == "family":
        scene, field = _field_scene(doc)
        cen = mori_mod.census(scene, tols, rng)
        cand = mori_mod.torus_recurrence_candidate(scene)
        cert = certify_mod.check_morse_smale(
            field, zeros=cen["zeros"], orbits=cen["orbits"], tols=tols,
            rng=rng, recurrence_candidates=[cand])
        rep["certificate"] = report.certificate_dict(cert)
        rep["verdict"] = cert.verdict
    elif doc.kind == "field":
        field, zeros = _field_census(doc, tols, rng)
        cert = certify_mod.check_morse_smale(
            field, zeros=zeros, tols=tols, rng=rng,
            samples=doc.analysis.get("samples", 10),
            sense=doc.analysis.get("sense", 1))
        rep["certificate"] = report.certificate_dict(cert)
        rep["verdict"] = cert.verdict
    else:
        raise SceneParseError(f"scene {doc.name!r} has no field to certify")
    _emit(args, rep, csvs)
    return 0 if rep["verdict"] == "pass" else 1


def cmd_convexify(args) -> int:
    doc = _resolve_scene(args.scene)
    rng = np.random.default_rng(args.seed)
    rep = _base(args, "convexify", report.scene_digest(doc.text))
    rep["scene"] = doc.name
    if doc.convexity is None:
        raise SceneParseError(f"scene {doc.name!r} has no convexity block")
    conv = dict(doc.convexity)
    n = conv.pop("n")
    gamma_name = conv.pop("gamma", None)
    profile = certify_mod.build_profile(conv.pop("h_minus"),
                                        conv.pop("h_plus"), n, **conv)
    gamma = certify_mod.standard_gamma(n)
    if gamma_name is not None and gamma_name != gamma.name:
        raise SceneParseError(
            f"unknown gamma model {gamma_name!r}; the standard model for "
            f"n = {n} is {gamma.name!r}")
    check = certify_mod.verify_convex_form(profile, gamma, n,
                                           samples=500, rng=rng)
    grid = certify_mod.verification_grid()
    rows = report.profile_rows(profile, grid)
    rep["profile"] = {"n": n, "boundary": profile.boundary,
                      "params": profile.params,
                      "grid_residuals": profile.grid_residuals}
    rep["gamma"] = gamma.name
    rep["verification"] = check
    ok = (profile.grid_residuals > 0.0 and check["positive"]
          and check["matched"])
    rep["verdict"] = "pass" if ok else "fail"
    _emit(args, rep, {"profile.csv": (("s", "u", "h1", "residual"), rows)})
    return 0 if ok else 1


def cmd_mori_reproduce(args) -> int:
    tols = policy.profile(args.tolerance_profile)
    rng = np.random.default_rng(args.seed)
    scene = mori_mod.mori_scene(args.n, args.eps)
    digest = report.scene_digest(f"mori n={args.n} eps={args.eps!r}")
    rep = _base(args, "mori reproduce", digest)
    rep["family"] = {"n": args.n, "eps": args.eps}
    con = scene.constants
    rep["constants"] = {"axis_z": con.axis_z, "orbit_z": con.orbit_z,
                        "ring_r": con.ring_r, "ring_rho": con.ring_rho,
                        "torus_slope": con.torus_slope}

    direction = mori_mod.direction_match(scene, count=200, rng=rng)
    charts = mori_mod.chart_agreement(scene, count=100, rng=rng)
    cen = mori_mod.census(scene, tols, rng)
    closure = mori_mod.verify_orbit_closure(scene, cen["orbits"], tols)
    probe = mori_mod.torus_probe(scene, samples=100, rng=rng)
    cand = mori_mod.torus_recurrence_candidate(scene)
    cert = certify_mod.check_morse_smale(
        scene.field_cartesian, zeros=cen["zeros"], orbits=cen["orbits"],
        tols=tols, rng=rng, recurrence_candidates=[cand])

    rep["direction_match"] = direction
    rep["chart_agreement"] = charts
    rep["elements"] = ([report.zero_row(z) for z in cen["zeros"]]
                       + [report.orbit_row(o.info) for o in cen["orbits"]])
    rep["orbit_closure"] = closure
    rep["torus_probe"] = probe
    rep["certificate"] = report.certificate_dict(cert)

    zs = sorted(float(z.point[-1]) for z in cen["zeros"])
    gates = {
        "direction": direction["max_angle"] < 1e-8
        and direction["factor_min"] > 0.0,
        "charts": charts["max_pullback_dev"] < 1e-10
        and charts["factor_min"] > 0.0,
        "census": len(cen["zeros"]) == 2 and len(cen["orbits"]) == 2
        and abs(zs[0] + con.axis_z) < 1e-8 and abs(zs[1] - con.axis_z) < 1e-8
        and {z.liouville_sign for z in cen["zeros"]} == {-1, 1}
        and {o.info.liouville_sign for o in cen["orbits"]} == {-1, 1},
        "torus_invariance": probe["invariance_residual"] < 1e-8,
        "degeneracy_detected": cert.verdict == "fail"
        and len(cert.recurrence) > 0,
    }
    rep["gates"] = gates
    rep["verdict"] = "pass" if all(gates.values()) else "fail"

    csvs = {}
    portrait = mori_mod.phase_portrait_data(scene, tols=tols)
    csvs["phase-portrait.csv"] = (
        ("id", "t", "z", "r", "rho"),
        [(r["id"], r["t"], r["z"], r["r"], r["rho"]) for r in portrait])
    _emit(args, rep, csvs)
    return 0 if rep["verdict"] == "pass" else 1


def cmd_mori_perturb(args) -> int:
    tols = policy.profile(args.tolerance_profile)
    rng = np.random.default_rng(args.seed)
    spec = mori_mod.PerturbationSpec(delta=args.delta)
    digest = report.scene_digest(f"mori perturb delta={args.delta!r}")
    rep = _base(args, "mori perturb", digest)
    dossier = mori_mod.perturb_analysis(spec, tols, rng)
    cert = dossier["certificate"]

    rep["delta"] = args.delta
    rep["hamiltonian"] = dossier["hamiltonian"]
    rep["direction_check"] = dossier["direction_check"]
    rep["hamiltonian_residuals"] = dossier["hamiltonian_residuals"]
    rep["orbits"] = [report.orbit_row(o.info) for o in dossier["orbits"]]
    for row, o in zip(rep["orbits"], dossier["orbits"]):
        row["psi"] = o.psi
        row["transverse_shift"] = o.transverse_shift
    rep["degenerate"] = dossier["degenerate"]
    rep["persistence"] = dossier["persistence"]
    rep["certificate"] = report.certificate_dict(cert)

    gates = {
        "two_hyperbolic_orbits": len(dossier["orbits"]) == 2
        and all(o.info.hyperbolic for o in dossier["orbits"]),
        "not_degenerate": not dossier["degenerate"],
        "persistence": bool(dossier["persistence"]["holds"]),
        "certificate": cert.verdict == "pass",
    }
    rep["gates"] = gates
    rep["verdict"] = "pass" if all(gates.values()) else "fail"

    csvs = {}
    rows = []
    ch = dossier["scene"].chart
    for o in dossier["orbits"]:
        for i, p in enumerate(o.loop):
            rows.append((float(o.psi), i) + tuple(float(v) for v in p))
    csvs["orbit-loops.csv"] = (("orbit_psi", "k") + ch.names, rows)
    _emit(args, rep, csvs)
    return 0 if rep["verdict"] == "pass" else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="charfol",
        description="characteristic foliations: evaluate, classify, "
                    "certify, convexify")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
    common.add_argument("--json", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    common.add_argument("--csv-dir", metavar="DIR",
                        help="write plottable CSV series into this directory")
    common.add_argument("--tolerance-profile", default="default",
                        choices=sorted(policy.PROFILES),
                        help="numeric policy (default: default)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("foliation", parents=[common],
                       help="evaluate the foliation field on a grid")
    p.add_argument("scene")
    p.add_argument("--grid", type=int, default=12,
                   help="grid resolution (default 12)")
    p.set_defaults(run=cmd_foliation)

    p = sub.add_parser("classify", parents=[common],
                       help="find and classify zeros and closed orbits")
    p.add_argument("scene")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("certify", parents=[common],
                       help="assemble a Morse-Smale certificate")
    p.add_argument("scene")
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser("convexify", parents=[common],
                       help="build and verify a convexity profile")
    p.add_argument("scene")
    p.set_defaults(run=cmd_convexify)

    m = sub.add_parser("mori", help="built-in family analyses")
    msub = m.add_subparsers(dest="mori_command", required=True)
    p = msub.add_parser("reproduce", parents=[common],
                        help="full dossier for the unperturbed shell")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(run=cmd_mori_reproduce)
    p = msub.add_parser("perturb", parents=[common],
                        help="perturbed column dossier")
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(run=cmd_mori_perturb)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except SceneParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IntegrationError as e:
        msg = f"numeric failure: {e}"
        if e.t is not None:
            msg += f" (last good state at t = {e.t!r}: {e.state!r})"
        print(msg, file=sys.stderr)
        return 3
    except CharfolError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
