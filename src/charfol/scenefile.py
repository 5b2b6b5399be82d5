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
a profile-construction job.

`_SCHEMA` has one table per block: its keys, each with the reader that
turns the text into a value or rejects it with its position, the
required keys and the defaults. Builders read the chart, alpha,
hypersurface and domain blocks, whose keys depend on each other.
Unknown blocks and keys are rejected with their position; so are
duplicate keys, since silently taking the later one has burned enough
people.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact import ContactScene, Hypersurface
from .errors import SceneParseError
from .exterior import Chart, KForm


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


def _collect_blocks(text: str):
    """First pass: raw block table, no interpretation of values yet."""
    name = None
    blocks: dict[str, dict[str, _Entry]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        content = body.strip()
        if not content:
            continue
        col = body.index(content[0]) + 1
        if "=" not in content:
            head, *rest = content.split()
            if head == "scene":
                if name is not None:
                    raise SceneParseError("duplicate scene header",
                                          lineno, col)
                if len(rest) != 1:
                    raise SceneParseError(
                        "scene header takes exactly one name", lineno, col)
                name = rest[0]
                current = None
                continue
            if head not in _SCHEMA:
                raise SceneParseError(f"unknown block {head!r}", lineno, col)
            if rest:
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
        allowed = _SCHEMA[current].keys
        if allowed is not None and key not in allowed:
            raise SceneParseError(
                f"unknown key {key!r} in block {current!r}", lineno, col)
        if key in blocks[current]:
            raise SceneParseError(
                f"duplicate key {key!r} in block {current!r}", lineno, col)
        eq, value = content.index("="), value.strip()
        vcol = col + (content.index(value, eq) if value else eq + 1)
        blocks[current][key] = _Entry(value, lineno, col, vcol)
    if name is None:
        raise SceneParseError("scene file has no 'scene <name>' header")
    return name, blocks


def _reader(convert, noun: str, ok=None, error: str = ""):
    """A reader: (entry, what, chart) -> the value `convert(text)`, with a
    SceneParseError at the value where `convert` raises ValueError (the
    text is not `noun`) or `ok` rejects the value (`error`, '{what}' and
    '{text}' in it standing for the name and the text)."""
    def read(e: _Entry, what: str, chart=None):
        try:
            value = convert(e.value)
        except ValueError:
            raise SceneParseError(f"{what} must be {noun}, got {e.value!r}",
                                  e.line, e.vcol) from None
        if ok is not None and not ok(value):
            raise SceneParseError(error.format(what=what, text=e.value),
                                  e.line, e.vcol)
        return value
    return read


def _numbers(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split())


_float = _reader(float, "a number")
_int = _reader(int, "an integer")
_germ = _reader(_numbers, "numbers", lambda v: len(v) == 2,
                "{what} must be 'value slope'")


def _points(e: _Entry, what: str, chart) -> list:
    """Parenthesized comma tuples separated by ';'."""
    pts = []
    for chunk in filter(None, map(str.strip, e.value.split(";"))):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise SceneParseError(
                f"each seed must be a parenthesized tuple, got {chunk!r}",
                e.line, e.vcol)
        try:
            vals = [float(t) for t in chunk[1:-1].split(",")]
        except ValueError:
            raise SceneParseError(f"bad seed tuple {chunk!r}",
                                  e.line, e.vcol) from None
        if len(vals) != chart.dim:
            raise SceneParseError(
                f"seed {chunk!r} has {len(vals)} coordinates, "
                f"chart has {chart.dim}", e.line, e.vcol)
        pts.append(np.array(vals))
    if not pts:
        raise SceneParseError(f"{what} is empty", e.line, e.vcol)
    return pts


@dataclass(frozen=True)
class _Block:
    """`keys` maps each key to its reader, or to None where a builder
    reads it; a block without `keys` takes any key."""

    keys: dict | None = None
    required: tuple = ()
    defaults: dict = field(default_factory=dict)


_SCHEMA = {
    "chart": _Block({"names": None, "angular": None}),
    "params": _Block(),
    "alpha": _Block(),
    "hypersurface": _Block({"level": None, "graph": None, "height": None}),
    "domain": _Block(),
    "analysis": _Block({
        "zero_seeds": _points,
        "samples": _reader(int, "an integer", lambda v: v >= 0,
                           "{what} must be >= 0, got {text!r}"),
        "sense": _reader(int, "an integer", lambda v: v in (-1, 1),
                         "{what} must be 1 or -1")}),
    "convexity": _Block({
        "n": _int,
        "h_minus": _germ,
        "h_plus": _germ,
        "rho_range": _reader(_numbers, "numbers", lambda v: len(v) == 2,
                             "{what} must be 'lo hi'"),
        "rho_count": _int,
        "stiffness": _reader(_numbers, "numbers"),
        "gamma": _reader(str, "text")}, required=("n", "h_minus", "h_plus")),
    "family": _Block({
        "kind": _reader(str, "text", lambda v: v == "mori",
                        "unknown family {text!r}"),
        "n": _int,
        "eps": _float}, required=("kind",), defaults={"n": 2, "eps": 0.1}),
    "perturbation": _Block({"delta": _float}),
}


def _first_line(entries: dict):
    return next((e.line for e in entries.values()), None)


def _read(blocks: dict, name: str, chart) -> dict:
    """The values of block `name`, read by its schema, in schema order."""
    block, entries = _SCHEMA[name], blocks[name]
    for req in block.required:
        if req not in entries:
            raise SceneParseError(f"{name} block needs key {req!r}",
                                  _first_line(entries))
    return {key: read(entries[key], key, chart) if key in entries
            else block.defaults[key]
            for key, read in block.keys.items()
            if key in entries or key in block.defaults}


def _build_chart(block) -> Chart:
    if "names" not in block:
        raise SceneParseError("chart block needs a 'names' key")
    e = block["names"]
    names = tuple(e.value.split())
    for i, nm in enumerate(names):
        if not nm.isidentifier():
            raise SceneParseError(f"bad coordinate name {nm!r}", e.line,
                                  e.vcol)
        if nm in names[:i]:
            raise SceneParseError(f"duplicate coordinate name {nm!r}",
                                  e.line, e.vcol)
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
        e = block["level"]
        if "graph" in block or "height" in block:
            raise SceneParseError(
                "hypersurface is either level or graph+height, not both",
                e.line, e.col)
        return Hypersurface(chart.parse(e.value, params,
                                        origin=(e.line, e.vcol)))
    if "graph" in block and "height" in block:
        g, h = block["graph"], block["height"]
        if g.value not in chart.names:
            raise SceneParseError(f"graph coordinate {g.value!r} is not in "
                                  "the chart", g.line, g.vcol)
        hf = chart.parse(h.value, params, origin=(h.line, h.vcol))
        return Hypersurface.graph(chart, g.value, hf)
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
            try:
                bound = None if p in ("*", "-inf", "inf") else float(p)
            except ValueError:
                bound = math.nan
            if bound is not None and not math.isfinite(bound):
                raise SceneParseError(f"bad domain bound {p!r}",
                                      e.line, e.vcol)
            side.append(bound)
        if None not in side and side[0] > side[1]:
            raise SceneParseError(
                f"domain of {key!r} has lo > hi, got {e.value!r}",
                e.line, e.vcol)
        dom[key] = (side[0], side[1])
    return dom


def parse_scene(text: str, path: str | None = None) -> SceneDocument:
    name, blocks = _collect_blocks(text)
    params = {key: _float(e, f"param {key!r}")
              for key, e in blocks.get("params", {}).items()}

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
        domain = _build_domain(blocks.get("domain", {}), chart)
        doc.scene = ContactScene(chart, alpha, name=name, domain=domain,
                                 params=params)
        doc.surface = _build_surface(blocks["hypersurface"], chart, params)
        doc.kind = "field"

    if "analysis" in blocks:
        if doc.scene is None:
            raise SceneParseError("analysis block needs a field scene",
                                  _first_line(blocks["analysis"]))
        doc.analysis = _read(blocks, "analysis", chart)

    if "convexity" in blocks:
        doc.convexity = _read(blocks, "convexity", chart)
        doc.kind = doc.kind or "convexity"

    if "family" in blocks:
        doc.family = _read(blocks, "family", chart)
        if doc.kind == "field":
            raise SceneParseError("a scene is either a field scene or a "
                                  "family instance, not both")
        doc.kind = "family"

    if "perturbation" in blocks:
        if doc.kind != "":
            raise SceneParseError("a perturbation scene takes no field, "
                                  "family or convexity block")
        doc.perturbation = _read(blocks, "perturbation", chart)
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
