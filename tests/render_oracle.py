"""Test oracle: the puzzle figure drawn one piece at a time, as it was before
the pieces of a figure shared their ray fans.  Each piece traces its own arc
samples and its own bounding rays, so rays shared by neighbouring pieces (and
the alpha-cycle rays, traced again for the rays layer) are traced once per
use, and the equipotential ring is its own fan in its own window,
pot * 1.0000001 -> pot.  Rays are reached through ``geometry``'s module attributes, so a test
can substitute the tracer here as in the library."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from yoccoz import geometry
from yoccoz.angles import arc_point, normalize
from yoccoz.config import Config
from yoccoz.errors import YoccozError
from yoccoz.puzzle import critical_piece, enumerate_pieces
from yoccoz.render import SvgCanvas


def piece_curve(c, lam, piece, potential: float, samples_per_arc: int = 8,
                cfg: Config = Config()) -> list[complex]:
    arcs = piece.boundary
    angles = []
    for a, b in arcs:  # samples_per_arc + 1 equally spaced angles from a to b (ccw)
        angles += [arc_point(a, b, Fraction(i, samples_per_arc))
                   for i in range(samples_per_arc + 1)]
    arc_pts = geometry.ray_points(c, angles, [potential] * len(angles), cfg)
    # arc i ends on b_i and the next arc starts on a_{i+1}
    ends = [theta for i, (_, b) in enumerate(arcs) for theta in (b, arcs[(i + 1) % len(arcs)][0])]
    rays = geometry.trace_rays(c, ends, pot_hi=potential, pot_lo=geometry.RAY_FLOOR, cfg=cfg)
    per_arc = samples_per_arc + 1
    pts: list[complex] = []
    for i in range(len(arcs)):
        pts.extend(arc_pts[i * per_arc:(i + 1) * per_arc])
        pts.extend(z for z, _ in rays[2 * i].points)
        pts.extend(z for z, _ in reversed(rays[2 * i + 1].points))
    pts.append(pts[0])
    return pts


def piece_diameters(c, lam, level: int, cfg: Config = Config()):
    pieces = enumerate_pieces(lam, level)
    if not pieces:
        raise YoccozError(f"no pieces at level {level}")
    pot = min(2.0, 0.4 * math.log(cfg.start_radius)) * 2.0 ** (-level)
    diams = []
    for piece in pieces:
        curve = piece_curve(c, lam, piece, pot, cfg=cfg)
        diams.append(geometry.curve_diameter(curve))
    arr = np.array(diams)
    return {"level": level, "count": len(diams), "max": float(arr.max()),
            "median": float(np.median(arr)), "potential": pot}


def render_puzzle(c, lam, level: int, highlight_annulus: int | None = None,
                  cfg: Config = Config()) -> str:
    top = math.log(cfg.start_radius)  # where every ray window starts
    # level n at top / 2^n; level 0 at the level-1 potential, below top
    pot = top * 2.0 ** -max(level, 1)
    canvas = SvgCanvas()

    n_samp = 256
    fan = geometry.trace_rays(c, [normalize(k, n_samp) for k in range(n_samp)],
                              pot_hi=pot * 1.0000001, pot_lo=pot, cfg=cfg)
    ring = [ray.points[-1][0] for ray in fan]
    canvas.polyline(ring + ring[:1], layer="equipotentials", stroke="#999", width=0.8)

    for ray in geometry.trace_rays(c, lam.cycle, pot_hi=pot, pot_lo=geometry.RAY_FLOOR, cfg=cfg):
        canvas.polyline([z for z, _ in ray.points], layer="rays", stroke="#c33", width=1.0)

    palette = ["#88aadd55", "#aad88a55", "#d8aa8855", "#d8d08855", "#b08ad855"]
    for i, piece in enumerate(enumerate_pieces(lam, level)):
        curve = piece_curve(c, lam, piece, pot, cfg=cfg)
        canvas.polygon(curve, layer="pieces", fill=palette[i % len(palette)])

    if highlight_annulus is not None:
        for lev, color in ((highlight_annulus, "#3333cc"), (highlight_annulus + 1, "#cc33cc")):
            curve = piece_curve(c, lam, critical_piece(lam, lev), pot, cfg=cfg)
            canvas.polyline(curve, layer="annuli", stroke=color, width=1.5)
    return canvas.to_svg()
