"""Test oracle: the strip model with its closure ratio taken over every pair
of slits.  Each slit's gap to the nearest older slit is the minimum over all
slits of lower level, O(N^2) in the N slits.  ``qcmodel.strip_model`` reads
only the two dyadic neighbours of each slit; the tests check that both give
the same model, every float included."""

import math

from yoccoz.errors import ModelViolationError
from yoccoz.qcmodel import THREE_FIFTHS, StripModel, StripSlit, build_slitted


def strip_model(depth: int) -> StripModel:
    out = []
    band_ok = True
    for s in build_slitted(depth):
        denom = (1 + s.alpha) if s.alpha <= 0 else (1 - s.alpha)
        ratio = s.half_height / denom
        if ratio > THREE_FIFTHS:
            band_ok = False
        u = math.log1p(float(s.alpha)) if s.alpha <= 0 else -math.log1p(-float(s.alpha))
        half = math.pi / 2 * float(ratio)
        # StripSlit carries the ratio as n = 3 / (5 ratio), an int in the model:
        # the models compare equal only if this Fraction is that integer
        out.append(
            StripSlit(u=u, im_lo=math.pi / 2 - half, im_hi=math.pi / 2 + half,
                      level=s.level, n=THREE_FIFTHS / ratio)
        )
    if not band_ok:
        raise ModelViolationError("slit image escapes the pi/5..4pi/5 band")

    worst = 0.0
    for s in out:
        if s.level == 0:
            continue
        gaps = [abs(s.u - t.u) for t in out if t.level < s.level]
        g = min(gaps)
        if g > 0:
            worst = max(worst, (s.im_hi - math.pi / 2) / g)
    return StripModel(depth=depth, slits=out, closure_ratio=worst)
