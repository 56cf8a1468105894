"""Figures as plain SVG 1.1 text.

Every tracked curve becomes exactly one path element whose data is the
curve's own plane coordinates; the vertical flip lives in a single group
transform, so path data stays diffable against the numbers that produced
it. Output is a pure function of the input: no timestamps, no ids beyond
the sanitized curve names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PALETTE = ("#26547c", "#b5442d", "#3d7a46", "#8450a0", "#947118", "#2d7d8a")

# document width in user units, and the margin around the drawing as a
# fraction of its larger extent
WIDTH = 720.0
MARGIN = 0.06


@dataclass(frozen=True)
class PlaneCurve:
    """Named plane points: one path when drawn as a curve, circles as dots."""

    name: str
    points: np.ndarray
    color: str


def _fmt(x: float) -> str:
    return "%.6g" % (float(x) + 0.0)


def _ident(name: str, taken: set) -> str:
    base = re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "curve"
    ident = base
    n = 2
    while ident in taken:
        ident = f"{base}-{n}"
        n += 1
    taken.add(ident)
    return ident


def _path_data(pts: np.ndarray) -> str:
    coords = [f"{_fmt(z.real)} {_fmt(z.imag)}" for z in pts]
    return f"M {coords[0]} L " + " ".join(coords[1:])


def figure(
    curves: Sequence[PlaneCurve],
    dots: Sequence[PlaneCurve] = (),
) -> str:
    """Assemble one SVG document from plane curves and point markers."""
    for c in curves:
        if np.asarray(c.points).size < 2:
            raise ValueError(f"curve {c.name!r} needs at least two points")
    everything = [np.asarray(c.points, dtype=complex).ravel() for c in (*curves, *dots)]
    if not everything:
        raise ValueError("nothing to draw")
    allpts = np.concatenate(everything)
    x0, x1 = float(np.min(allpts.real)), float(np.max(allpts.real))
    y0, y1 = float(np.min(allpts.imag)), float(np.max(allpts.imag))
    pad = MARGIN * max(x1 - x0, y1 - y0, 1e-9)
    vx, vy = x0 - pad, -(y1 + pad)
    vw, vh = (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad
    height = WIDTH * vh / vw
    stroke = 0.005 * max(vw, vh)
    radius = 1.8 * stroke

    taken: set = set()
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
        '<g transform="scale(1,-1)" fill="none" '
        f'stroke-width="{_fmt(stroke)}" stroke-linecap="round" stroke-linejoin="round">',
    ]
    for c in curves:
        pts = np.asarray(c.points, dtype=complex).ravel()
        out.append(
            f'<path id="{_ident(c.name, taken)}" stroke="{c.color}" '
            f'd="{_path_data(pts)}"/>'
        )
    for d in dots:
        ident = _ident(d.name, taken)
        for i, z in enumerate(np.asarray(d.points, dtype=complex).ravel()):
            out.append(
                f'<circle id="{ident}-{i}" fill="{d.color}" stroke="none" '
                f'cx="{_fmt(z.real)}" cy="{_fmt(z.imag)}" r="{_fmt(radius)}"/>'
            )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
