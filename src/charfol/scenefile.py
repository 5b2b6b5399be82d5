"""Scene files: the text format the command line runs on.

A scene file is a sequence of blocks. A line without '=' opens a block,
a line with '=' adds a key to the current block, '#' starts a comment,
blank lines are ignored. Indentation is free. The grammar for the
expression values is the one in expr (names, numbers, + - * / ^ and
the listed functions); see docs/scene-format.md for the full schema.

Four shapes of scene exist and the present blocks decide which:
chart+alpha+hypersurface give a "field" scene, a family block gives a
built-in family instance, a perturbation block (with no field, family
or convexity block beside it) the column model, and a convexity block
a profile-construction job. Unknown blocks and unknown
keys inside a block are rejected with their position; so are duplicate
keys, since silently taking the later one has burned enough people.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact import ContactScene, Hypersurface
from .errors import SceneParseError
from .exterior import Chart, KForm

_BLOCK_KEYS = {
    "chart": {"names", "angular"},
    "params": None,
    "alpha": None,
    "hypersurface": {"level", "graph", "height"},
    "domain": None,
    "analysis": {"zero_seeds", "samples", "sense"},
    "convexity": {"n", "h_minus", "h_plus", "rho_range", "rho_count",
                  "stiffness", "gamma"},
    "family": {"kind", "n", "eps"},
    "perturbation": {"delta"},
}


@dataclass
class _Entry:
    value: str
    line: int
    col: int          # of the key
    vcol: int         # of the value text


@dataclass
class SceneDocument:
    """One parsed scene file, with built geometry where applicable."""

    name: str
    kind: str
    text: str
    path: str | None = None
    chart: Chart | None = None
    params: dict = field(default_factory=dict)
    scene: ContactScene | None = None
    surface: Hypersurface | None = None
    analysis: dict = field(default_factory=dict)
    convexity: dict | None = None
    family: dict | None = None
    perturbation: dict | None = None


def _split_lines(text: str):
    """(lineno, content, first-content-col) for every non-empty line."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        stripped = body.strip()
        if not stripped:
            continue
        out.append((i, stripped, body.index(stripped[0]) + 1))
    return out


def _collect_blocks(text: str):
    """First pass: raw block table, no interpretation of values yet."""
    name = None
    blocks: dict[str, dict[str, _Entry]] = {}
    current = None
    for lineno, content, col in _split_lines(text):
        if "=" not in content:
            words = content.split()
            head = words[0]
            if head == "scene":
                if name is not None:
                    raise SceneParseError("duplicate scene header",
                                          lineno, col)
                if len(words) != 2:
                    raise SceneParseError(
                        "scene header takes exactly one name", lineno, col)
                name = words[1]
                current = None
                continue
            if head not in _BLOCK_KEYS:
                raise SceneParseError(f"unknown block {head!r}", lineno, col)
            if len(words) != 1:
                raise SceneParseError(
                    f"block header {head!r} takes no arguments", lineno, col)
            if head in blocks:
                raise SceneParseError(f"duplicate block {head!r}",
                                      lineno, col)
            blocks[head] = {}
            current = head
            continue
        if current is None:
            raise SceneParseError(
                "key outside any block (missing block header?)", lineno, col)
        key, _, value = content.partition("=")
        key = key.strip()
        if not key.isidentifier():
            raise SceneParseError(f"bad key {key!r}", lineno, col)
        allowed = _BLOCK_KEYS[current]
        if allowed is not None and key not in allowed:
            raise SceneParseError(
                f"unknown key {key!r} in block {current!r}", lineno, col)
        if key in blocks[current]:
            raise SceneParseError(
                f"duplicate key {key!r} in block {current!r}", lineno, col)
        vcol = col + content.index("=") + 1
        vstrip = value.strip()
        if vstrip:
            vcol = col + content.index(vstrip, content.index("="))
        blocks[current][key] = _Entry(vstrip, lineno, col, vcol)
    if name is None:
        raise SceneParseError("scene file has no 'scene <name>' header")
    return name, blocks


def _float(e: _Entry, what: str) -> float:
    try:
        return float(e.value)
    except ValueError:
        raise SceneParseError(f"{what} must be a number, got {e.value!r}",
                              e.line, e.vcol) from None


def _int(e: _Entry, what: str) -> int:
    try:
        return int(e.value)
    except ValueError:
        raise SceneParseError(f"{what} must be an integer, got {e.value!r}",
                              e.line, e.vcol) from None


def _floats(e: _Entry, what: str) -> list:
    try:
        return [float(tok) for tok in e.value.split()]
    except ValueError:
        raise SceneParseError(f"{what} must be numbers, got {e.value!r}",
                              e.line, e.vcol) from None


def _points(e: _Entry, dim: int) -> list:
    """Parenthesized comma tuples separated by ';'."""
    pts = []
    for chunk in e.value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise SceneParseError(
                f"each seed must be a parenthesized tuple, got {chunk!r}",
                e.line, e.vcol)
        try:
            vals = [float(t) for t in chunk[1:-1].split(",")]
        except ValueError:
            raise SceneParseError(f"bad seed tuple {chunk!r}",
                                  e.line, e.vcol) from None
        if len(vals) != dim:
            raise SceneParseError(
                f"seed {chunk!r} has {len(vals)} coordinates, chart has {dim}",
                e.line, e.vcol)
        pts.append(np.array(vals))
    if not pts:
        raise SceneParseError("zero_seeds is empty", e.line, e.vcol)
    return pts


def _build_chart(block) -> Chart:
    if "names" not in block:
        raise SceneParseError("chart block needs a 'names' key")
    names = tuple(block["names"].value.split())
    e = block["names"]
    for nm in names:
        if not nm.isidentifier():
            raise SceneParseError(f"bad coordinate name {nm!r}", e.line,
                                  e.vcol)
    angular = {}
    if "angular" in block:
        a = block["angular"]
        for tok in a.value.split():
            nm, _, per = tok.partition(":")
            if nm not in names:
                raise SceneParseError(
                    f"angular coordinate {nm!r} is not in the chart",
                    a.line, a.vcol)
            try:
                angular[nm] = float(per) if per else 2.0 * math.pi
            except ValueError:
                raise SceneParseError(f"bad period in {tok!r}",
                                      a.line, a.vcol) from None
    return Chart(names, angular=angular)


def _build_alpha(block, chart: Chart, params) -> KForm:
    comps = {}
    for key, e in block.items():
        if not (key.startswith("d") and key[1:] in chart.names):
            raise SceneParseError(
                f"alpha keys must be d<coordinate>, got {key!r}",
                e.line, e.col)
        f = chart.parse(e.value, params, origin=(e.line, e.vcol))
        comps[(chart.index(key[1:]),)] = f
    if not comps:
        raise SceneParseError("alpha block has no components")
    return KForm(chart, 1, comps)


def _build_surface(block, chart: Chart, params) -> Hypersurface:
    if "level" in block:
        if "graph" in block or "height" in block:
            e = block["level"]
            raise SceneParseError(
                "hypersurface is either level or graph+height, not both",
                e.line, e.col)
        e = block["level"]
        return Hypersurface(chart.parse(e.value, params,
                                        origin=(e.line, e.vcol)))
    if "graph" in block and "height" in block:
        g, h = block["graph"], block["height"]
        coord = g.value.strip()
        if coord not in chart.names:
            raise SceneParseError(f"graph coordinate {coord!r} is not in "
                                  "the chart", g.line, g.vcol)
        hf = chart.parse(h.value, params, origin=(h.line, h.vcol))
        return Hypersurface.graph(chart, coord, hf)
    any_e = next(iter(block.values()), None)
    raise SceneParseError("hypersurface block needs 'level' or "
                          "'graph' plus 'height'",
                          any_e.line if any_e else None,
                          any_e.col if any_e else None)


def _build_domain(block, chart: Chart) -> dict:
    dom = {}
    for key, e in block.items():
        if key not in chart.names:
            raise SceneParseError(
                f"domain key {key!r} is not a chart coordinate",
                e.line, e.col)
        parts = e.value.split("..")
        if len(parts) != 2:
            raise SceneParseError(
                f"domain value must be 'lo .. hi', got {e.value!r}",
                e.line, e.vcol)
        side = []
        for p in parts:
            p = p.strip()
            if p in ("*", "-inf", "inf"):
                side.append(None)
                continue
            try:
                side.append(float(p))
            except ValueError:
                raise SceneParseError(f"bad domain bound {p!r}",
                                      e.line, e.vcol) from None
        dom[key] = (side[0], side[1])
    return dom


def _germ(e: _Entry, what: str) -> tuple:
    vals = _floats(e, what)
    if len(vals) != 2:
        raise SceneParseError(f"{what} must be 'value slope'",
                              e.line, e.vcol)
    return (vals[0], vals[1])


def parse_scene(text: str, path: str | None = None) -> SceneDocument:
    name, blocks = _collect_blocks(text)
    params = {}
    if "params" in blocks:
        for key, e in blocks["params"].items():
            params[key] = _float(e, f"param {key!r}")

    chart = _build_chart(blocks["chart"]) if "chart" in blocks else None

    doc = SceneDocument(name=name, kind="", text=text, path=path,
                        chart=chart, params=params)

    geo = [b for b in ("alpha", "hypersurface", "domain", "analysis")
           if b in blocks]
    if geo and chart is None:
        raise SceneParseError(f"block {geo[0]!r} needs a chart block")
    if ("alpha" in blocks) != ("hypersurface" in blocks):
        raise SceneParseError("a field scene needs both alpha and "
                              "hypersurface blocks")

    if "alpha" in blocks:
        alpha = _build_alpha(blocks["alpha"], chart, params)
        domain = _build_domain(blocks["domain"], chart) \
            if "domain" in blocks else {}
        doc.scene = ContactScene(chart, alpha, name=name, domain=domain,
                                 params=params)
        doc.surface = _build_surface(blocks["hypersurface"], chart, params)
        doc.kind = "field"

    if "analysis" in blocks:
        if doc.scene is None:
            e = next(iter(blocks["analysis"].values()), None)
            raise SceneParseError("analysis block needs a field scene",
                                  e.line if e else None)
        a = blocks["analysis"]
        if "zero_seeds" in a:
            doc.analysis["zero_seeds"] = _points(a["zero_seeds"], chart.dim)
        if "samples" in a:
            doc.analysis["samples"] = _int(a["samples"], "samples")
        if "sense" in a:
            s = _int(a["sense"], "sense")
            if s not in (-1, 1):
                raise SceneParseError("sense must be 1 or -1",
                                      a["sense"].line, a["sense"].vcol)
            doc.analysis["sense"] = s

    if "convexity" in blocks:
        c = blocks["convexity"]
        for req in ("n", "h_minus", "h_plus"):
            if req not in c:
                any_e = next(iter(c.values()), None)
                raise SceneParseError(
                    f"convexity block needs key {req!r}",
                    any_e.line if any_e else None)
        conv = {"n": _int(c["n"], "n"),
                "h_minus": _germ(c["h_minus"], "h_minus"),
                "h_plus": _germ(c["h_plus"], "h_plus")}
        if "rho_range" in c:
            vals = _floats(c["rho_range"], "rho_range")
            if len(vals) != 2:
                raise SceneParseError("rho_range must be 'lo hi'",
                                      c["rho_range"].line,
                                      c["rho_range"].vcol)
            conv["rho_range"] = (vals[0], vals[1])
        if "rho_count" in c:
            conv["rho_count"] = _int(c["rho_count"], "rho_count")
        if "stiffness" in c:
            conv["stiffness"] = tuple(_floats(c["stiffness"], "stiffness"))
        if "gamma" in c:
            conv["gamma"] = c["gamma"].value
        doc.convexity = conv
        if doc.kind == "":
            doc.kind = "convexity"

    if "family" in blocks:
        f = blocks["family"]
        if "kind" not in f:
            any_e = next(iter(f.values()), None)
            raise SceneParseError("family block needs key 'kind'",
                                  any_e.line if any_e else None)
        if f["kind"].value != "mori":
            raise SceneParseError(f"unknown family {f['kind'].value!r}",
                                  f["kind"].line, f["kind"].vcol)
        fam = {"kind": "mori",
               "n": _int(f["n"], "n") if "n" in f else 2,
               "eps": _float(f["eps"], "eps") if "eps" in f else 0.1}
        if doc.kind == "field":
            raise SceneParseError("a scene is either a field scene or a "
                                  "family instance, not both")
        doc.family = fam
        doc.kind = "family"

    if "perturbation" in blocks:
        if doc.kind != "":
            raise SceneParseError("a perturbation scene takes no field, "
                                  "family or convexity block")
        p = blocks["perturbation"]
        doc.perturbation = ({"delta": _float(p["delta"], "delta")}
                            if "delta" in p else {})
        doc.kind = "perturbation"

    if doc.kind == "":
        raise SceneParseError(
            "scene defines no runnable content (field, family, "
            "perturbation, or convexity)")
    return doc


def load_scene(path: str) -> SceneDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SceneParseError(f"cannot read scene file {path!r}: "
                              f"{e.strerror}") from None
    return parse_scene(text, path=path)
