"""Layer spans recorded from outside the package, and the op-count probe.

`Tracer` wraps the public functions of charfol's layers in place for
the duration of a `with` block: class methods are replaced on the
class, and module functions are rebound in every charfol module that
holds them, so `from .dynamics import find_orbit` in `mori` is caught
as well as calls inside `dynamics`. Each call appends one span (id,
parent, name, thread id, start, end, CPU seconds of its thread,
attributes) to an in-memory list. Parents are tracked per thread:
`foliation` evaluates its grid on a thread pool, and a span on a worker
thread must not be charged to a span that happens to be open on the
main thread.

Counts (calls, steps, Newton iterations, shoots) are derived from the
span list afterwards, so they are deterministic for a fixed seed even
with threads. Self times are thread CPU times: a span's CPU time minus
that of its children. On the `foliation` thread pool a span's wall time
also holds the time its thread waited for the GIL while the other
worker ran, which would charge GIL contention to the call itself.
Inclusive times (`*.s`) are wall times.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import resources
from time import perf_counter, thread_time

import numpy as np

from charfol import exterior, jets, mori
from charfol.contact import FoliationField
from charfol.scenefile import load_scene


def _find_zeros_attrs(args, kwargs, out):
    seeds = args[1] if len(args) > 1 else kwargs["seeds"]
    return {"seeds": len(seeds), "found": len(out)}


def _certificate_attrs(args, kwargs, out):
    return {"seeds_used": out.seeds_used,
            "captured": round(out.limit_check * out.seeds_used)}


def _bytes_attrs(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, attributes read from (args, kwargs, result)).
# The span name is "<module>.<last part of the attribute>".
LAYERS = [
    ("contact", "FoliationField.vector", None),
    ("contact", "FoliationField.flow_data", None),
    ("contact", "FoliationField.vector_and_jacobian", None),
    ("contact", "Hypersurface.project", None),
    ("dynamics", "Flow.integrate", lambda a, k, out: {"steps": out.steps}),
    ("dynamics", "Flow.integrate_variational", None),
    ("dynamics", "find_orbit", None),
    ("dynamics", "refine_zero", None),
    ("dynamics", "find_zeros", _find_zeros_attrs),
    ("dynamics", "classify_orbit", None),
    ("certify", "check_morse_smale", _certificate_attrs),
    ("certify", "build_profile", None),
    ("certify", "verify_convex_form", None),
    ("mori", "census", None),
    ("mori", "torus_probe", None),
    ("mori", "direction_match", None),
    ("mori", "chart_agreement", None),
    ("mori", "verify_orbit_closure", None),
    ("mori", "phase_portrait_data", None),
    ("mori", "perturb_analysis", None),
    ("scenefile", "load_scene", None),
    ("report", "write_json", _bytes_attrs),
    ("report", "write_csv", _bytes_attrs),
]


def _charfol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "charfol"
                                  or name.startswith("charfol."))]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(self, original, replacement):
        """Replace `original` wherever a charfol module holds it."""
        for mod in _charfol_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """In-memory spans around the layer functions listed in LAYERS."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """`fn` recording one span per call; attrs(args, kwargs, result)
        gives extra attributes to keep with it."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            extra = None
            t0, c0 = perf_counter(), thread_time()
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, out)
                return out
            finally:
                cpu, t1 = thread_time() - c0, perf_counter()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(),
                              t0, t1, cpu, extra))

        return wrapper

    @contextmanager
    def installed(self):
        patches = Patches()
        try:
            for modname, attr, attrs in LAYERS:
                mod = sys.modules[f"charfol.{modname}"]
                name = f"{modname}.{attr.rsplit('.', 1)[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    patches.set(cls, meth,
                                self.wrap(name, cls.__dict__[meth], attrs))
                else:
                    fn = getattr(mod, attr)
                    patches.rebind(fn, self.wrap(name, fn, attrs))
            yield self
        finally:
            patches.undo()


# aggregation ----------------------------------------------------------

def layer_metrics(spans) -> dict:
    """Per-layer counts and times from one traced pass."""
    by_id = {s[0]: s for s in spans}
    child_cpu = defaultdict(float)
    for sid, parent, _, _, _, _, cpu, _ in spans:
        if parent is not None:
            child_cpu[parent] += cpu
    calls, total, self_t = Counter(), defaultdict(float), defaultdict(float)
    attr = defaultdict(float)
    for sid, _, name, _, t0, t1, cpu, extra in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_t[name] += cpu - child_cpu[sid]
        for k, v in (extra or {}).items():
            attr[f"{name}.{k}"] += v

    # calls per (enclosing layer, name), each enclosing layer counted
    # once. An `integrate` that raised has no `steps`, so the `vector`
    # calls inside it are left out of evals_per_step.
    enclosing = {"dynamics.integrate", "dynamics.integrate_variational",
                 "dynamics.find_orbit", "dynamics.refine_zero"}
    nested = Counter()
    for _, parent, name, *_ in spans:
        seen = set()
        while parent is not None:
            up = by_id[parent]
            returned = up[2] != "dynamics.integrate" or up[7] is not None
            if up[2] in enclosing and up[2] not in seen and returned:
                seen.add(up[2])
                nested[up[2], name] += 1
            parent = up[1]

    def per_call_us(name):
        return 1e6 * self_t[name] / calls[name] if calls[name] else 0.0

    steps = attr["dynamics.integrate.steps"]
    seeds_used = attr["certify.check_morse_smale.seeds_used"]
    return {
        "contact.vector.calls": calls["contact.vector"],
        "contact.vector.self_s": self_t["contact.vector"],
        "contact.vector.us_per_call": per_call_us("contact.vector"),
        "contact.flow_data.calls": calls["contact.flow_data"],
        "contact.flow_data.self_s": self_t["contact.flow_data"],
        "contact.flow_data.us_per_call": per_call_us("contact.flow_data"),
        "contact.vector_and_jacobian.calls":
            calls["contact.vector_and_jacobian"],
        "contact.vector_and_jacobian.self_s":
            self_t["contact.vector_and_jacobian"],
        "contact.project.calls": calls["contact.project"],
        "contact.project.self_s": self_t["contact.project"],
        "dynamics.integrate.calls": calls["dynamics.integrate"],
        "dynamics.integrate.steps": int(steps),
        "dynamics.integrate.evals_per_step":
            nested["dynamics.integrate", "contact.vector"] / steps
            if steps else 0.0,
        "dynamics.integrate.self_s": self_t["dynamics.integrate"],
        "dynamics.integrate_variational.calls":
            calls["dynamics.integrate_variational"],
        "dynamics.integrate_variational.evals":
            nested["dynamics.integrate_variational", "contact.flow_data"],
        "dynamics.integrate_variational.self_s":
            self_t["dynamics.integrate_variational"],
        "dynamics.find_orbit.calls": calls["dynamics.find_orbit"],
        "dynamics.find_orbit.shoots":
            nested["dynamics.find_orbit", "dynamics.integrate"]
            + nested["dynamics.find_orbit", "dynamics.integrate_variational"],
        "dynamics.find_orbit.s": total["dynamics.find_orbit"],
        "dynamics.refine_zero.newton_iters":
            nested["dynamics.refine_zero", "contact.vector_and_jacobian"],
        "dynamics.find_zeros.seeds": int(attr["dynamics.find_zeros.seeds"]),
        "dynamics.find_zeros.found": int(attr["dynamics.find_zeros.found"]),
        "dynamics.classify_orbit.s": total["dynamics.classify_orbit"],
        "certify.check_morse_smale.s": total["certify.check_morse_smale"],
        "certify.check_morse_smale.seeds_used": int(seeds_used),
        "certify.check_morse_smale.capture_ratio":
            attr["certify.check_morse_smale.captured"] / seeds_used
            if seeds_used else 0.0,
        "certify.build_profile.s": total["certify.build_profile"],
        "certify.verify_convex_form.s": total["certify.verify_convex_form"],
        **{f"mori.{fn}.s": total[f"mori.{fn}"]
           for fn in ("census", "torus_probe", "direction_match",
                      "chart_agreement", "verify_orbit_closure",
                      "phase_portrait_data", "perturb_analysis")},
        "scenefile.load_scene.s": total["scenefile.load_scene"],
        "report.write_json.s": total["report.write_json"],
        "report.write_csv.s": total["report.write_csv"],
        "report.bytes": int(attr["report.write_json.bytes"]
                            + attr["report.write_csv.bytes"]),
    }


# op-count probe -------------------------------------------------------

JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
           "__rpow__")


def probe_field(workload: str):
    """The field and a fixed surface point whose single evaluation is
    counted: the column for `column`, the n = 3 shell for `shells` and
    s2-height for everything else."""
    if workload == "column":
        scene, surface, info = mori.column_scene(mori.PerturbationSpec())
        field = FoliationField(scene, surface)
        q = np.array([0.0, 5.0, 0.02, -0.01, 0.1])
        q[0] = float(info["H"](list(q)))
        return field, surface.project(q)
    if workload == "shells":
        scene = mori.mori_scene(3, 0.1)
        p = mori.sample_surface_polar(scene, np.random.default_rng(0), 1)[0]
        return scene.field_cartesian, scene.cartesian_point(p)
    doc = load_scene(str(resources.files("charfol") / "scenes"
                         / "s2-height.scene"))
    field = FoliationField(doc.scene, doc.surface)
    return field, doc.surface.project(np.array([0.6, 0.0, 0.8]))


def op_counts(field, point) -> dict:
    """Jet operator calls, merge_ordered and ring_det calls (recursive
    minors included) for one `vector` and one `flow_data` evaluation."""
    field.flow_data(point)          # compile the expressions first
    counts = Counter()

    def counting(kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    patches = Patches()
    try:
        for op in JET_OPS:
            patches.set(jets.Jet, op, counting("jet", jets.Jet.__dict__[op]))
        for fn, kind in ((exterior.merge_ordered, "merge"),
                         (exterior.ring_det, "ring_det")):
            patches.rebind(fn, counting(kind, fn))
        field.vector(point)
        per_vector = counts["jet"]
        counts.clear()
        field.flow_data(point)
        per_flow = dict(counts)
    finally:
        patches.undo()
    return {"jets.ops_per_vector": per_vector,
            "jets.ops_per_flow_data": per_flow.get("jet", 0),
            "exterior.merge_ordered_per_eval": per_flow.get("merge", 0),
            "exterior.ring_det_per_eval": per_flow.get("ring_det", 0)}


def write_spans(spans, path) -> None:
    """One line per span: id parent name thread start end cpu
    [attributes]."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, tid, t0, t1, cpu, extra in spans:
            fh.write(f"{sid} {parent or 0} {name} {tid} {t0:.9f} {t1:.9f}"
                     f" {cpu:.9f}"
                     f"{'' if extra is None else ' ' + repr(extra)}\n")
