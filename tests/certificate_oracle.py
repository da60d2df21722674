"""Test oracle: the certificate checks by two ``same_gap`` walks per pair of
annuli.

For every pair of annuli A_{a1}(z), A_{a2}(w) of two distinct certified
angles, with n <= l their sorted levels, the cross-angle check asks whether z
and w share the level-n piece and not the level-(n+1) one.  The closure check
asks the same of every annulus A_n(z) and every other certified angle w, over
all ordered pairs of entries.  ``tiling.verify_certificate`` reads one
separation level s = L(z, w) per pair of angles instead and tests s = n + 1;
the tests check that both agree, errors included.

``surrounding_annuli`` is the rise loop with a memo of descendant checks per
tau level that ``tiling.surrounding_annuli`` replaced by one check per
distinct rise level.
"""

from yoccoz.puzzle import descendant_check, query_angle, tau_sequence
from yoccoz.tiling import AnnulusRecord, CertificateReport


def verify_certificate(lam, cert):
    violations = []
    counts = {}
    for e in cert.entries:
        levels = [a.n for a in e.annuli]
        if len(set(levels)) != len(levels):
            violations.append(f"duplicate annulus level for theta={e.theta}")
        cc = {}
        for a in e.annuli:
            cc[a.cls] = cc.get(a.cls, 0) + 1
        counts[str(e.theta)] = cc

    for i, e1 in enumerate(cert.entries):
        z = query_angle(lam, e1.theta)
        for e2 in cert.entries[i + 1:]:
            w = query_angle(lam, e2.theta)
            if z == w:
                continue
            for a1 in e1.annuli:
                for a2 in e2.annuli:
                    n, l = sorted((a1.n, a2.n))
                    zz, ww = (z, w) if a1.n <= a2.n else (w, z)
                    if not lam.same_gap(n, zz, ww):
                        continue  # disjoint outer pieces
                    if lam.same_gap(n + 1, zz, ww):
                        continue  # same annulus (n == l) or nested inside the inner piece
                    if n == l:
                        violations.append(
                            f"annuli A_{a1.n}({e1.theta}) and A_{a2.n}({e2.theta}) intersect"
                        )
                    else:
                        violations.append(
                            f"A_{l} of one angle sits inside A_{n} of the other "
                            f"({e1.theta} vs {e2.theta})"
                        )

    # no listed annulus closure contains a certified residual angle
    for e1 in cert.entries:
        z = query_angle(lam, e1.theta)
        for e2 in cert.entries:
            if e1 is e2:
                continue
            w = query_angle(lam, e2.theta)
            if z == w:
                continue
            for a in e1.annuli:
                if lam.same_gap(a.n, z, w) and not lam.same_gap(a.n + 1, z, w):
                    violations.append(
                        f"closure of A_{a.n}({e1.theta}) contains certified angle {e2.theta}"
                    )

    warning = "" if any(e.annuli for e in cert.entries) else "empty certificate: vacuous pass"
    return CertificateReport(ok=not violations, violations=violations, class_counts=counts,
                             warning=warning)


def surrounding_annuli(lam, theta, N: int, depth: int, start: int | None = None) -> list[AnnulusRecord]:
    """Annuli A_n(theta) that are conformal copies of descendants of A_N(0):
    tau rises past (m, m+1) at (n, n+1) with A_m(0) a descendant of A_N(0)."""
    lo = N if start is None else start
    taus = tau_sequence(lam, theta, depth, start=lo)
    out = []
    desc_memo: dict[int, bool] = {}
    for i in range(len(taus) - 1):
        m, nxt = taus[i], taus[i + 1]
        if m >= 0 and nxt == m + 1:
            if m not in desc_memo:
                if m == N:
                    desc_memo[m] = True
                elif m > N:
                    desc_memo[m] = descendant_check(lam, m, N)[0]
                else:
                    desc_memo[m] = False
            if desc_memo[m]:
                out.append(AnnulusRecord(n=lo + i, tau_level=m, cls=m))
    return out
