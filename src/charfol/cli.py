"""Command-line front end.

Subcommands: foliation, classify, certify, convexify, and the built-in
family runners `mori reproduce` and `mori perturb`. Scene arguments are
file paths, or names of bundled scenes (see `charfol.scenes`). Exit
codes: 0 for success or a passing verdict, 1 for an honest negative
verdict, 2 for input problems, 3 for numeric failures, 4 for a crash
(any other exception; its traceback goes to stderr). Reports are
deterministic for a fixed scene and --seed; JSON goes to --json or
stdout, plottable series go to --csv-dir.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
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
    for f in (base / f"{arg}.scene", base / arg):
        if f.is_file():
            return load_scene(str(f))
    raise SceneParseError(f"no scene file or bundled scene named {arg!r}")


def _emit(args, rep: dict, csv_files: dict) -> int:
    """Write the report and its CSV files; return the verdict's exit code."""
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        for name, spec in csv_files.items():
            report.write_csv(os.path.join(args.csv_dir, name), *spec)
        rep["csv_files"] = sorted(csv_files)
    if args.json:
        report.write_json(args.json, rep)
        verdict = rep.get("verdict", "done")
        print(f"{rep['command']}: {verdict} (report written to {args.json})")
    else:
        print(report.to_json(rep))
    return 0 if rep.get("verdict", "pass") == "pass" else 1


def _start(args, command: str, digest: str):
    """The report of `command` on the scene text with this digest, and
    the tolerances and random stream the command runs with."""
    tols = policy.PROFILES[args.tolerance_profile]
    rep = report.base_report(command, digest, args.seed,
                             args.tolerance_profile, tols)
    return rep, tols, np.random.default_rng(args.seed)


def _open(args, command: str):
    """The scene named on the command line, then `_start`'s report (with
    the scene's name), tolerances and random stream."""
    doc = _resolve_scene(args.scene)
    rep, tols, rng = _start(args, command, report.scene_digest(doc.text))
    rep["scene"] = doc.name
    return doc, rep, tols, rng


def _norms(vecs) -> np.ndarray:
    """|v| of each row, as np.linalg.norm(v) computes it: sqrt(v . v),
    bit for bit."""
    return np.sqrt(np.matmul(vecs[:, None, :], vecs[:, :, None])).ravel()


def _shell(doc: SceneDocument) -> mori_mod.MoriScene:
    return mori_mod.mori_scene(doc.family["n"], doc.family["eps"])


def _shell_elements(scene, cen, tols) -> dict:
    """The rows of a shell census and the check that its orbits close."""
    return {"elements": report.element_rows(cen["zeros"], cen["orbits"]),
            "orbit_closure": mori_mod.verify_orbit_closure(
                scene, cen["orbits"], tols)}


def _shell_certificate(scene, cen, tols, rng):
    """The certificate of a shell census from 20 seeds drawn from `rng`,
    with the invariant torus as its recurrence candidate."""
    field = scene.field_cartesian
    return certify_mod.check_morse_smale(
        field, field.surface_samples(rng, 20), zeros=cen["zeros"],
        orbits=cen["orbits"], tols=tols,
        recurrence_candidates=[mori_mod.torus_recurrence_candidate(scene)])


def _field_census(doc: SceneDocument, tols, rng):
    """The field of a field scene and its classified zeros, refined from
    the zero_seeds and `analysis.samples` (default 8) random points, at
    all of which alpha must be contact."""
    field = FoliationField(doc.scene, doc.surface)
    seeds = list(doc.analysis.get("zero_seeds", []))
    seeds.extend(field.surface_samples(rng, doc.analysis.get("samples", 8)))
    doc.scene.verify_contact(seeds)
    return field, [classify_zero(field, p)
                   for p in find_zeros(field, seeds, tols)]


def cmd_foliation(args) -> int:
    doc, rep, _, rng = _open(args, "foliation")
    if doc.kind == "family":
        scene = _shell(doc)
        pts = scene.cartesian_points(
            mori_mod.sample_surface_polar(scene, rng, args.grid ** 2))
        field, names = scene.field_cartesian, scene.cartesian.chart.names
    elif doc.kind == "field":
        field = FoliationField(doc.scene, doc.surface)
        names = doc.scene.chart.names
        pts = doc.surface.project_samples(doc.scene.grid_points(args.grid))
        pts = pts[doc.scene.domain_mask(pts)]
    else:
        raise SceneParseError(
            f"scene {doc.name!r} has nothing to evaluate a foliation on")
    if not len(pts):
        raise IntegrationError("no grid point projected onto the surface")

    vecs = field.vectors(pts)
    norms = _norms(vecs).tolist()
    header = list(names) + [f"X_{n}" for n in names]
    rep.update({"points": len(pts),
                "norm_min": min(norms), "norm_max": max(norms)})
    if not args.csv_dir:
        rep["note"] = "pass --csv-dir to write the grid samples"
    return _emit(args, rep,
                 {"foliation.csv": (header, np.hstack([pts, vecs]))})


def cmd_classify(args) -> int:
    doc, rep, tols, rng = _open(args, "classify")
    if doc.kind == "family":
        scene = _shell(doc)
        rep.update(_shell_elements(scene, mori_mod.census(scene, tols), tols))
    elif doc.kind == "field":
        rep["elements"] = report.element_rows(
            _field_census(doc, tols, rng)[1])
    else:
        raise SceneParseError(f"scene {doc.name!r} has no field to classify")
    rep["zeros"] = sum(1 for e in rep["elements"] if e["kind"] == "zero")
    rep["orbits"] = sum(1 for e in rep["elements"] if e["kind"] == "orbit")
    return _emit(args, rep, {})


def cmd_certify(args) -> int:
    doc, rep, tols, rng = _open(args, "certify")
    if doc.kind == "perturbation":
        scene, surface, info = mori_mod.column_scene(
            mori_mod.PerturbationSpec(**doc.perturbation))
        col = mori_mod.column_certificate(FoliationField(scene, surface),
                                          info, tols, rng)
        rep["certificate"] = report.certificate_dict(col["certificate"])
        rep["persistence"] = col["persistence"]
    elif doc.kind == "family":
        scene = _shell(doc)
        cert = _shell_certificate(scene, mori_mod.census(scene, tols),
                                  tols, rng)
        rep["certificate"] = report.certificate_dict(cert)
    elif doc.kind == "field":
        field, zeros = _field_census(doc, tols, rng)
        cert = certify_mod.check_morse_smale(
            field, field.surface_samples(rng, doc.analysis.get("samples", 10)),
            zeros=zeros, tols=tols, sense=doc.analysis.get("sense", 1))
        rep["certificate"] = report.certificate_dict(cert)
    else:
        raise SceneParseError(f"scene {doc.name!r} has no field to certify")
    rep["verdict"] = rep["certificate"]["verdict"]
    return _emit(args, rep, {})


def cmd_convexify(args) -> int:
    doc, rep, _, rng = _open(args, "convexify")
    if doc.convexity is None:
        raise SceneParseError(f"scene {doc.name!r} has no convexity block")
    conv = doc.convexity
    n = conv["n"]
    profile = certify_mod.build_profile(conv["h_minus"], conv["h_plus"], n)
    gamma = certify_mod.standard_gamma(n)
    check = certify_mod.verify_convex_form(profile, gamma, samples=500,
                                           rng=rng)
    rows = report.profile_rows(profile)
    rep["profile"] = {"n": n, "boundary": profile.boundary,
                      "params": profile.params,
                      "grid_residuals": profile.grid_residuals}
    rep["gamma"] = gamma.name
    rep["verification"] = check
    ok = (profile.grid_residuals > 0.0 and check["positive"]
          and check["matched"])
    rep["verdict"] = "pass" if ok else "fail"
    return _emit(args, rep,
                 {"profile.csv": (("s", "u", "h1", "residual"), rows)})


def cmd_mori_reproduce(args) -> int:
    scene = mori_mod.mori_scene(args.n, args.eps)
    rep, tols, rng = _start(args, "mori reproduce", report.scene_digest(
        f"mori n={args.n} eps={args.eps!r}"))
    rep["family"] = {"n": args.n, "eps": args.eps}
    con = scene.constants
    rep["constants"] = dict(vars(con))
    rep["direction_match"] = direction = mori_mod.direction_match(
        scene, count=200, rng=rng)
    rep["chart_agreement"] = charts = mori_mod.chart_agreement(
        scene, count=100, rng=rng)
    cen = mori_mod.census(scene, tols)
    rep.update(_shell_elements(scene, cen, tols))
    rep["torus_probe"] = probe = mori_mod.torus_probe(scene, samples=100,
                                                      rng=rng)
    cert = _shell_certificate(scene, cen, tols, rng)
    rep["certificate"] = report.certificate_dict(cert)

    zs = sorted(float(z.point[-1]) for z in cen["zeros"])
    rep["gates"] = gates = {
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
    rep["verdict"] = "pass" if all(gates.values()) else "fail"
    portrait = mori_mod.phase_portrait_data(scene, tols=tols)
    return _emit(args, rep, {"phase-portrait.csv": (
        ("id", "t", "z", "r", "rho"),
        [(r["t"], r["z"], r["r"], r["rho"]) for r in portrait],
        [r["id"] for r in portrait])})


def cmd_mori_perturb(args) -> int:
    spec = mori_mod.PerturbationSpec(delta=args.delta)
    rep, tols, rng = _start(args, "mori perturb", report.scene_digest(
        f"mori perturb delta={args.delta!r}"))
    dossier = mori_mod.perturb_analysis(spec, tols, rng)
    rep["delta"] = args.delta
    rep.update((k, dossier[k]) for k in (
        "hamiltonian", "direction_check", "hamiltonian_residuals"))
    rep["orbits"] = [{**report.orbit_row(o.info), "psi": o.psi,
                      "transverse_shift": o.transverse_shift}
                     for o in dossier["orbits"]]
    rep["degenerate"] = dossier["degenerate"]
    rep["persistence"] = dossier["persistence"]
    rep["certificate"] = report.certificate_dict(dossier["certificate"])
    rep["gates"] = gates = {
        "two_hyperbolic_orbits": len(dossier["orbits"]) == 2
        and all(o.info.hyperbolic for o in dossier["orbits"]),
        "not_degenerate": not dossier["degenerate"],
        "persistence": bool(dossier["persistence"]["holds"]),
        "certificate": dossier["certificate"].verdict == "pass",
    }
    rep["verdict"] = "pass" if all(gates.values()) else "fail"
    rows = [(o.psi, i, *p)
            for o in dossier["orbits"] for i, p in enumerate(o.loop)]
    header = ("orbit_psi", "k") + dossier["scene"].chart.names
    return _emit(args, rep, {"orbit-loops.csv": (header, rows)})


def _grid_size(text: str) -> int:
    """The value of --grid: an integer >= 1, else a usage error."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return k


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

    for name, run, text in (
            ("foliation", cmd_foliation,
             "evaluate the foliation field on a grid"),
            ("classify", cmd_classify,
             "find and classify zeros and closed orbits"),
            ("certify", cmd_certify, "assemble a Morse-Smale certificate"),
            ("convexify", cmd_convexify,
             "build and verify a convexity profile")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("scene")
        if run is cmd_foliation:
            p.add_argument("--grid", type=_grid_size, default=12,
                           help="grid resolution (default 12)")
        p.set_defaults(run=run)

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
    except (SceneParseError, ValueError, ZeroDivisionError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CharfolError as e:
        msg = f"numeric failure: {e}"
        if isinstance(e, IntegrationError) and e.t is not None:
            msg += f" (last good state at t = {e.t!r}: {e.state!r})"
        print(msg, file=sys.stderr)
        return 3
    except Exception:       # a crash, which no verdict may be taken for
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
