"""Minimal layered SVG output: equipotentials, rays, piece fills, annuli."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import Config


@dataclass
class SvgCanvas:
    width: int = 800
    height: int = 800
    layers: dict = field(default_factory=dict)
    _bounds: list = field(default_factory=lambda: [math.inf, -math.inf, math.inf, -math.inf])

    def _track(self, pts):
        xs = [p.real for p in pts]
        ys = [p.imag for p in pts]
        b = self._bounds
        b[0], b[1] = min(b[0], *xs), max(b[1], *xs)
        b[2], b[3] = min(b[2], *ys), max(b[3], *ys)

    def _layer(self, name):
        return self.layers.setdefault(name, [])

    def polyline(self, pts, layer="default", stroke="#222", width=1.0, closed=False, fill="none"):
        if len(pts) < 2:
            return
        self._track(pts)
        self._layer(layer).append((list(pts), stroke, width, closed, fill))

    def polygon(self, pts, layer="default", fill="#88aadd55", stroke="none"):
        self._track(pts)
        self._layer(layer).append((list(pts), stroke, 0.5, True, fill))

    def to_svg(self) -> str:
        x0, x1, y0, y1 = self._bounds
        if not math.isfinite(x0):
            x0, x1, y0, y1 = -1, 1, -1, 1
        pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
        x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
        sx = self.width / (x1 - x0)
        sy = self.height / (y1 - y0)
        s = min(sx, sy)

        def tx(p):
            return ((p.real - x0) * s, self.height - (p.imag - y0) * s)

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        ]
        for name, items in self.layers.items():
            out.append(f'<g id="{name}">')
            for pts, stroke, w, closed, fill in items:
                coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(tx, pts))
                tag = "polygon" if closed else "polyline"
                out.append(
                    f'<{tag} points="{coords}" fill="{fill}" stroke="{stroke}" '
                    f'stroke-width="{w}"/>'
                )
            out.append("</g>")
        out.append("</svg>")
        return "\n".join(out)


def render_puzzle(c, lam, level: int, highlight_annulus: int | None = None,
                  cfg: Config = Config()) -> str:
    """Layered figure of the level-n puzzle: equipotential, alpha rays, piece
    fills, and optionally one critical annulus highlighted."""
    from .angles import normalize
    from .geometry import RAY_FLOOR, check_window, piece_curves, trace_rays
    from .puzzle import critical_piece, enumerate_pieces

    top = math.log(cfg.start_radius)  # where every ray window starts
    # level n at top / 2^n; level 0 at the level-1 potential, below top
    pot = top * 2.0 ** -max(level, 1)
    canvas = SvgCanvas()
    # the piece count grows exponentially with the level: refuse an empty
    # ray window before tracing the ring or enumerating the pieces
    check_window(pot, RAY_FLOOR)

    n_samp = 256
    fan = trace_rays(c, [normalize(k, n_samp) for k in range(n_samp)],
                     pot_hi=pot * 1.0000001, pot_lo=pot, cfg=cfg)
    ring = [ray.points[-1][0] for ray in fan]
    canvas.polyline(ring + ring[:1], layer="equipotentials", stroke="#999", width=0.8)

    pieces = enumerate_pieces(lam, level)
    annuli = [] if highlight_annulus is None else [
        (critical_piece(lam, lev), color)
        for lev, color in ((highlight_annulus, "#3333cc"), (highlight_annulus + 1, "#cc33cc"))]
    # pieces, annulus outlines and alpha-cycle rays share one fan of bounding rays
    curves, cycle_rays = piece_curves(c, pieces + [piece for piece, _ in annuli], pot,
                                      cfg=cfg, rays=lam.cycle)
    for ray in cycle_rays:
        canvas.polyline([z for z, _ in ray.points], layer="rays", stroke="#c33", width=1.0)

    palette = ["#88aadd55", "#aad88a55", "#d8aa8855", "#d8d08855", "#b08ad855"]
    for i, curve in enumerate(curves[:len(pieces)]):
        canvas.polygon(curve, layer="pieces", fill=palette[i % len(palette)])
    for curve, (_, color) in zip(curves[len(pieces):], annuli):
        canvas.polyline(curve, layer="annuli", stroke=color, width=1.5)
    return canvas.to_svg()


def render_model_squares(depth: int = 3) -> str:
    """S with its notch squares next to S' with its slits."""
    from .qcmodel import build_notched, build_slitted

    canvas = SvgCanvas()
    canvas.polyline([complex(0, -0.5), complex(1, -0.5), complex(1, 0.5), complex(0, 0.5)],
                    layer="notched", stroke="#222", width=1.2, closed=True)
    for sq in build_notched(depth).all_squares():
        x0, y0, x1, y1 = float(sq.x0), float(sq.y0), float(sq.x1), float(sq.y1)
        canvas.polygon([complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)],
                       layer="notched", fill="#88aadd77")
    x = 3.5  # S' = (-1, 1)^2 drawn centred at x = 3.5, right of S
    canvas.polyline([complex(x - 1, -1), complex(x + 1, -1), complex(x + 1, 1), complex(x - 1, 1)],
                    layer="slitted", stroke="#222", width=1.2, closed=True)
    for sl in build_slitted(depth):
        z, h = float(sl.alpha) + x, float(sl.half_height)
        canvas.polyline([complex(z, -h), complex(z, h)], layer="slitted", stroke="#c33", width=1.0)
    return canvas.to_svg()
