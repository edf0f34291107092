"""Deterministic SVG pictures of regions and their pipeline artifacts.

Layers (drawn in this fixed order regardless of how they are listed):

* ``subdivision`` -- the inside squares/triangles of the quadtree cover
  (the oracle's, when one is built) and, on the square lattice, the
  unit-level sleeve triangles;
* ``tiling`` -- the maximum tiling, its dominoes read cell by cell from
  ``TilingOracle``, or a lozenge tiling from the matching reference;
* ``boundary`` -- the region outline;
* ``heights`` -- height labels on the vertices: on the square lattice the
  oracle's maximum heights on every corner of every cell when the region
  is tileable, one query per vertex, otherwise (and on the triangular
  grid) the boundary heights.

Output is byte-identical for a fixed region, layer set, and scale: all
collections are sorted before drawing and floats are printed with a
fixed format.  Triangular-grid vertices are embedded here and nowhere
else: (q, r) maps to q*(1, 0) + r*(-1/2, sqrt(3)/2), y flipped for
screen coordinates.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from tiler.errors import NotTileable
from tiler.lozenge import (LozengeBoundary, build_tri_subdivision, lozenge_boundary_height,
                           lozenge_matching_decide, _piece_corners)
from tiler.oracle import TilingOracle
from tiler.region import RegionBoundary, boundary_height
from tiler.subdivision import build_subdivision

LAYERS = ("boundary", "subdivision", "heights", "tiling")

_STYLE = {
    "subdivision-fill": "#eef3fb",
    "subdivision-stroke": "#7a93b8",
    "sleeve-fill": "#dde8f5",
    "tiling-fill": "#f8e8c8",
    "tiling-stroke": "#b07818",
    "boundary-stroke": "#202020",
    "text-fill": "#a02020",
}


def _f(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _check_layers(layers: Iterable[str]) -> List[str]:
    out = []
    for name in layers:
        if name not in LAYERS:
            raise ValueError(f"unknown layer {name!r}, expected one of {LAYERS}")
        if name not in out:
            out.append(name)
    return [name for name in ("subdivision", "tiling", "boundary", "heights")
            if name in out]


def _svg(width: float, height: float, body: List[str]) -> str:
    head = ('<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_f(width)}" height="{_f(height)}" '
            f'viewBox="0 0 {_f(width)} {_f(height)}">')
    bg = f'<rect width="{_f(width)}" height="{_f(height)}" fill="white"/>'
    return "\n".join([head, bg] + body + ["</svg>"]) + "\n"


def _poly(points: List[Tuple[float, float]], fill: str, stroke: str,
          width: float) -> str:
    pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return (f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_f(width)}"/>')


def _text(x: float, y: float, size: float, s: str) -> str:
    return (f'<text x="{_f(x)}" y="{_f(y)}" font-size="{_f(size)}" '
            f'font-family="monospace" text-anchor="middle" '
            f'fill="{_STYLE["text-fill"]}">{s}</text>')


def _frame(points: Iterable, embed: Callable, pad: int, scale: int):
    """The screen map of a lattice, which ``embed`` places in the plane,
    and the width and height of a picture of the bounding box of
    ``points`` padded by ``pad``, with a margin of one scale unit."""
    xs, ys = zip(*(embed(*p) for p in points))
    xmin, xmax = min(xs) - pad, max(xs) + pad
    ymin, ymax = min(ys) - pad, max(ys) + pad

    def pt(*p) -> Tuple[float, float]:
        x, y = embed(*p)
        return (scale + (x - xmin) * scale, scale + (ymax - y) * scale)

    return pt, (xmax - xmin) * scale + 2 * scale, (ymax - ymin) * scale + 2 * scale


def _outline(pt: Callable, vertices: Iterable, scale: int) -> str:
    d = "M " + " L ".join(f"{_f(px)} {_f(py)}"
                          for px, py in (pt(*v) for v in vertices)) + " Z"
    return (f'<path d="{d}" fill="none" '
            f'stroke="{_STYLE["boundary-stroke"]}" '
            f'stroke-width="{_f(scale / 10)}"/>')


def _boundary_labels(vertices: List, bh) -> Dict:
    if not bh.valid:
        raise NotTileable("boundary heights do not close up")
    return dict(zip(vertices, bh.heights.tolist()))


def _labels(pt: Callable, labels: Dict, scale: int) -> List[str]:
    """One height label just above each vertex, in vertex order."""
    out = []
    for v, h in sorted(labels.items()):
        px, py = pt(*v)
        out.append(_text(px, py - 0.12 * scale, 0.38 * scale, str(h)))
    return out


def render_square(b: RegionBoundary, layers: Iterable[str] = ("boundary",),
                  scale: int = 24) -> str:
    layers = _check_layers(layers)
    # The subdivision reaches outside the region bounding box; pad by it.
    pt, width, height = _frame(b.vertices, lambda x, y: (x, y), 2, scale)
    body: List[str] = []
    oracle = None
    if "tiling" in layers or "heights" in layers:
        try:
            oracle = TilingOracle(b)
        except NotTileable:
            if "tiling" in layers:
                raise NotTileable("tiling layer requested for an untileable region") from None

    if "subdivision" in layers:
        sub = oracle.sub if oracle is not None else build_subdivision(b)
        level, iu, iv = sub.inside_at
        order = np.lexsort((iv, iu, level))
        cx, cy = sub.inside_corners()
        for xs, ys in zip(cx[order].tolist(), cy[order].tolist()):
            body.append(_poly([pt(*c) for c in zip(xs, ys)], _STYLE["subdivision-fill"],
                              _STYLE["subdivision-stroke"], 1.0))
        for tri in sorted(sub.triangles):
            body.append(_poly([pt(*c) for c in tri.verts],
                              _STYLE["sleeve-fill"],
                              _STYLE["subdivision-stroke"], 0.5))

    if "tiling" in layers:
        inset = 0.12
        for a, c in sorted({oracle.domino_at(cell).as_pair() for cell in b.cells()}):
            x0, y0 = min(a[0], c[0]), min(a[1], c[1])
            x1, y1 = max(a[0], c[0]) + 1, max(a[1], c[1]) + 1
            left, top = pt(x0 + inset, y1 - inset)
            right, bottom = pt(x1 - inset, y0 + inset)
            body.append(f'<rect x="{_f(left)}" y="{_f(top)}" '
                        f'width="{_f(right - left)}" height="{_f(bottom - top)}" '
                        f'rx="{_f(0.18 * scale)}" '
                        f'fill="{_STYLE["tiling-fill"]}" '
                        f'stroke="{_STYLE["tiling-stroke"]}" '
                        f'stroke-width="{_f(scale / 12)}"/>')

    if "boundary" in layers:
        body.append(_outline(pt, b.vertices, scale))

    if "heights" in layers:
        if oracle is not None:
            verts = dict.fromkeys(v for x, y in b.cells() for v in
                                  ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
            labels = {v: oracle.height_at(v) for v in verts}
        else:
            labels = _boundary_labels(b.vertices, boundary_height(b))
        body += _labels(pt, labels, scale)

    return _svg(width, height, body)


_SQRT3 = math.sqrt(3.0)


def _embed(q: int, r: int) -> Tuple[float, float]:
    return (q - r / 2.0, r * _SQRT3 / 2.0)


def render_lozenge(b: LozengeBoundary, layers: Iterable[str] = ("boundary",),
                   scale: int = 24) -> str:
    layers = _check_layers(layers)
    averts = b.axial
    pieces = build_tri_subdivision(b).pieces if "subdivision" in layers else []
    pt, width, height = _frame(averts + [c for piece in pieces for c in _piece_corners(piece)],
                               _embed, 1, scale)
    body = [_poly([pt(*c) for c in _piece_corners(piece)], _STYLE["subdivision-fill"],
                  _STYLE["subdivision-stroke"], 1.0) for piece in pieces]

    if "tiling" in layers:
        tiling = lozenge_matching_decide(b)
        if tiling is None:
            raise NotTileable("tiling layer requested for an untileable region")
        for (uq, ur, _), (dq, dr, _) in sorted(tiling):
            cu = set(_piece_corners((uq, ur, 1, True)))
            cd = set(_piece_corners((dq, dr, 1, False)))
            shared = sorted(cu & cd)
            quad = [(cu - cd).pop(), shared[0], (cd - cu).pop(), shared[1]]
            body.append(_poly([pt(*c) for c in quad], _STYLE["tiling-fill"],
                              _STYLE["tiling-stroke"], 1.5))

    if "boundary" in layers:
        body.append(_outline(pt, averts, scale))

    if "heights" in layers:
        body += _labels(pt, _boundary_labels(averts, lozenge_boundary_height(b)), scale)

    return _svg(width, height, body)
