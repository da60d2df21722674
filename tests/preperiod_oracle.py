"""Test oracle: the preperiod walks that the 2-adic valuation replaced.

``angles.orbit`` and ``renorm.angle_to_expansion`` walked the orbit of theta
with a seen-dict until a point came back, and read the preperiod from the
dict.  The library reads it as the exponent of 2 in the denominator and walks
from there until 2^a theta comes back; the tests check that both agree.
"""

import random
from math import gcd

from yoccoz.angles import OrbitInfo, double, normalize
from yoccoz.renorm import BinaryExpansion


def orbit(theta):
    seen = {}
    seq = []
    cur = theta
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = double(cur)
    pre = seen[cur]
    return OrbitInfo(preperiod=pre, period=len(seq) - pre, orbit=tuple(seq))


def angle_to_expansion(theta):
    seen = {}
    digits = []
    x, den = theta.num, theta.den  # the remainder x/den
    while x not in seen:
        seen[x] = len(digits)
        x *= 2
        digits.append("1" if x >= den else "0")
        x %= den
    start = seen[x]
    return BinaryExpansion(prefix="".join(digits[:start]), cycle="".join(digits[start:]))


def sample_angles():
    """Every angle with den <= 160, and 200 random ones with den <= 2048."""
    rng = random.Random(26)
    out = [normalize(n, d) for d in range(1, 161) for n in range(d) if gcd(n, d) == 1]
    dens = [rng.randrange(1, 2049) for _ in range(200)]
    return out + [normalize(rng.randrange(d), d) for d in dens]
