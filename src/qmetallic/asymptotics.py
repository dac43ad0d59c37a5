"""Numeric singularity analysis for the deformed metallic series.

The growth of the series coefficients is governed by the roots of the
palindromic polynomial Q_n (the reduced discriminant factor).  This module
finds all 2n roots by Aberth-Ehrlich simultaneous iteration in machine
precision, polishes one root of each conjugate pair by Newton's method in
big-int fixed point (its partner is the mirror image), and certifies them
by a residual bound and by pairwise disjoint Newton inclusion disks (each
then holds exactly one root).  It lists the roots by modulus, then by
argument, extracts the dominant ones (minimal modulus, the radius of
convergence), and assembles the square-root singularity constants and the
leading asymptotic term

    alpha_l = sum_j (-gamma_j / (2 sqrt(pi))) zeta_j^(-l) l^(-3/2).

Complex values are mpmath `mpc` numbers carried at an explicit bit
precision (>= 128 everywhere in this module).
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading

from mpmath import mp, mpf, mpc, fabs, sqrt, pi, re, im, nstr

from .errors import (
    ImaginaryResidual,
    MultipleRoot,
    NoConvergence,
)
from .metallic import kappa_values, poly_Q, _check_n
from .record import record
from .series import poly_coeffs

DEFAULT_PRECISION = 256
_GUARD_BITS = 64
_CALIBRATION_PROBE = 400


def _check_precision(bits: int) -> int:
    bits = int(bits)
    if bits < 128:
        raise ValueError("precision must be >= 128 bits")
    return bits


# -- root finding ----------------------------------------------------------------


def _init_circle(deg: int, radius: float) -> list:
    """Start points on a circle with an irrational angular offset, so the
    initial configuration never shares the symmetries of the polynomial."""
    offset = (5 ** 0.5 - 1) / 2
    return [
        radius * cmath.exp(2j * cmath.pi * (k / deg + offset))
        for k in range(deg)
    ]


def _start_radius(coeffs) -> float:
    """|a_0/a_d|^(1/d), the geometric mean of the root moduli, pushed
    slightly outward: Aberth starts near the roots, not outside a bound."""
    d = len(coeffs) - 1
    return 1.0625 * math.exp(
        (math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / d)


def _horner2(coeffs, z):
    """Evaluate p(z) and p'(z) together."""
    p = 0 * z
    dp = 0 * z
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth_sweeps(coeffs, zs, tol, max_sweeps):
    """Simultaneous-iteration sweeps in machine complex arithmetic; returns
    the sweep count or None when the update never fell below tol."""
    deg = len(zs)
    for sweep in range(max_sweeps):
        biggest = 0.0
        for i in range(deg):
            zi = zs[i]
            p, dp = _horner2(coeffs, zi)
            if dp == 0:
                zs[i] = zi + tol
                biggest = float("inf")
                continue
            newton = p / dp
            s = 0
            collide = False
            for j in range(deg):
                if j == i:
                    continue
                diff = zi - zs[j]
                if diff == 0:
                    collide = True
                    break
                s += 1 / diff
            if collide:
                zs[i] = zi * (1 + 8 * tol) + tol
                biggest = float("inf")
                continue
            denom = 1 - newton * s
            w = newton if denom == 0 else newton / denom
            zs[i] = zi - w
            biggest = max(biggest, abs(w))
        if biggest < tol:
            return sweep + 1
    return None


# Fixed point: a complex z is a pair of ints (x, y) with z = (x + iy) / 2^P.
# The shifts floor, so each rounded product is off by under 1 unit (2^-P)
# in each part, under 2 units in modulus.


def _horner_fixed(scaled, x, y, P):
    """p(z) and p'(z) in fixed point; `scaled` holds the coefficients,
    highest first, each multiplied by 2^P."""
    pr = pi_ = dr = di = 0
    for c in scaled:
        dr, di = ((dr * x - di * y) >> P) + pr, ((dr * y + di * x) >> P) + pi_
        pr, pi_ = ((pr * x - pi_ * y) >> P) + c, (pr * y + pi_ * x) >> P
    return pr, pi_, dr, di


def _horner_error(deg, m, P):
    """Bounds, in units, on the rounding error of _horner_fixed in p and in
    p' at any |z| <= m units."""
    ep = edp = 0
    for _ in range(deg + 1):
        edp = -((-edp * m) >> P) + 2 + ep
        ep = -((-ep * m) >> P) + 2
    return ep, edp


def _newton_fixed(levels, x, y, stop, cap):
    """Newton from (x, y) over `levels`, pairs (Q, the coefficients highest
    first times 2^Q) of rising precision Q, with (x, y) in units of the
    first: one step at each level but the last, then steps at the last
    until one is below `stop` units.  Returns the last point and p, p'
    there, or raises NoConvergence."""
    prev, last = levels[0][0], len(levels) - 1
    for k, (P, scaled) in enumerate(levels):
        x, y = x << (P - prev), y << (P - prev)
        prev = P
        for _ in range(cap if k == last else 1):
            pr, pi_, dr, di = _horner_fixed(scaled, x, y, P)
            den = dr * dr + di * di
            if den == 0:
                raise NoConvergence("Newton step hit a zero derivative")
            wr = ((pr * dr + pi_ * di) << P) // den
            wi = ((pi_ * dr - pr * di) << P) // den
            if k == last and wr * wr + wi * wi < stop * stop:
                return x, y, pr, pi_, dr, di
            x, y = x - wr, y - wi
    raise NoConvergence(f"Newton polish did not settle within {cap} steps")


def _inclusion_disk(deg, P, x, y, pr, pi_, dr, di):
    """(bound on |p(z)|, radius) in units, for z = (x, y) with p, p' there.

    The radius is the Newton disk deg*|p/p'| with the rounding of both
    evaluations, plus the rounding of z to P-bit mpf parts.  It holds at
    least one root."""
    m = math.isqrt(x * x + y * y) + 1
    ep, edp = _horner_error(deg, m, P)
    residual = math.isqrt(pr * pr + pi_ * pi_) + 1 + ep
    slope = math.isqrt(dr * dr + di * di) - edp  # <= |p'(z)|
    if slope <= 0:
        raise MultipleRoot("derivative not bounded away from 0 at a root")
    return residual, -((-deg * residual << P) // slope) + 2 * ((m >> P) + 1)


def _conjugate_pairs(zs):
    """Pairs (i, j) of float roots, zs[i] above the real axis and zs[j]
    below, each the other's nearest conjugate; and the indices in no pair."""
    upper = [k for k, z in enumerate(zs) if z.imag > 0]
    lower = [k for k, z in enumerate(zs) if z.imag < 0]

    def nearest(k, pool):
        w = zs[k].conjugate()
        return min(pool, key=lambda m: abs(zs[m] - w), default=None)

    pairs = [(i, j) for i in upper
             if (j := nearest(i, lower)) is not None and nearest(j, upper) == i]
    paired = {k for pair in pairs for k in pair}
    return pairs, [k for k in range(len(zs)) if k not in paired]


def _order_key(disk, unit):
    """Modulus, then argument, of a disk's centre as floats: rounded far
    above the certified accuracy, so the order does not follow the path."""
    x, y = disk[0] / unit, disk[1] / unit
    return math.hypot(x, y), math.atan2(y, x)


class CertifiedRoots(tuple):
    """All roots of a polynomial, sorted by modulus and then by argument,
    with one inclusion radius per root (the disk of that radius around it
    holds exactly one root) and the sweep count of the float stage (None
    if it did not converge)."""

    def __new__(cls, roots, radii, float_sweeps):
        self = super().__new__(cls, roots)
        self.radii = tuple(radii)
        self.float_sweeps = float_sweeps
        return self


def all_roots(coeffs, precision_bits: int) -> CertifiedRoots:
    """All roots of a real integer polynomial (ascending coefficients,
    nonzero leading and constant term): machine-precision Aberth-Ehrlich
    from a circle start, then Newton in big-int fixed point on one root of
    each conjugate pair, certified by a residual bound and by pairwise
    disjoint Newton inclusion disks."""
    bits = _check_precision(precision_bits)
    deg = len(coeffs) - 1
    fc = [float(c) for c in coeffs]
    zs = _init_circle(deg, _start_radius(coeffs))
    sweeps = _aberth_sweeps(fc, zs, 1e-13, 600)  # certified below
    if not all(map(cmath.isfinite, zs)):
        raise NoConvergence("float root iteration diverged")
    P = bits + _GUARD_BITS
    # each Newton step doubles the correct bits of a float root: one step at
    # each of 96, 192, 384, ... bits below P, then steps at P (two, as a rule)
    ramp = [96 << k for k in range(P.bit_length()) if 96 << k < P]
    levels = [(Q, [c << Q for c in reversed(coeffs)]) for Q in ramp + [P]]
    Q0 = levels[0][0]
    cap = 4 + P.bit_length()  # quadratic convergence from about 2^-40
    pairs, alone = _conjugate_pairs(zs)
    todo = pairs + [(k, None) for k in alone]
    disks, worst = [], 0
    for i, j in todo:  # grows while it runs: a split pair adds its partner
        (xn, xd), (yn, yd) = (zs[i].real.as_integer_ratio(),
                              zs[i].imag.as_integer_ratio())
        x, y, *p_dp = _newton_fixed(levels, (xn << Q0) // xd,
                                    (yn << Q0) // yd,
                                    1 << (_GUARD_BITS // 2), cap)
        residual, r = _inclusion_disk(deg, P, x, y, *p_dp)
        worst = max(worst, residual)
        if abs(y) <= r:
            # the disk meets the real axis; once the disks are known to be
            # disjoint, its one root is its own conjugate, so real
            r += abs(y)
            y = 0
            if j is not None:
                todo.append((j, None))
        elif j is not None:
            # real coefficients: the mirrored disk holds the conjugate root,
            # and |p| is the same there
            disks.append((x, -y, r))
        disks.append((x, y, r))
    if worst * 10 ** (bits // 4) >= 1 << P:
        with mp.workprec(P):
            raise NoConvergence(
                f"residual {nstr(mpf((worst, -P)), 5)} above bound "
                f"{nstr(mpf(10) ** (-(bits // 4)), 5)}")
    disks.sort(key=lambda d: _order_key(d, 1 << P))
    for (i, (xi, yi, ri)), (j, (xj, yj, rj)) in itertools.combinations(
            enumerate(disks), 2):
        if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
            raise MultipleRoot(f"inclusion disks of roots {i} and {j} overlap")
    with mp.workprec(P):
        return CertifiedRoots(
            [mpc(mpf((x, -P)), mpf((y, -P))) for x, y, _ in disks],
            [mpf((r, -P)) for *_, r in disks], sweeps)


# -- singularity data -------------------------------------------------------------


@record
class SingularityReport:
    """Roots of Q_n with the dominant subset and calibrated constants."""

    n: int
    precision_bits: int
    all_roots: tuple
    dominant: tuple
    radius: object
    gammas: tuple
    branch_flipped: bool
    inclusion_radius: object  # the largest inclusion-disk radius
    float_sweeps: object  # Aberth sweeps of the float stage, or None

    def __post_init__(self):
        if len(self.dominant) != len(self.gammas):
            raise ValueError("one gamma per dominant root required")


_reports: dict = {}
_reports_lock = threading.Lock()


def _gamma_raw(coeffs, zeta):
    """Principal-branch square-root constant at a simple root of the
    polynomial Q with these (ascending) coefficients."""
    with mp.extraprec(_GUARD_BITS):
        _, dq = _horner2(coeffs, zeta)
        if fabs(dq) < mpf(2) ** (-(mp.prec // 2)):
            raise MultipleRoot(f"derivative vanishes at {nstr(zeta, 8)}")
        # Q(q)/(zeta - q) at q=zeta equals -Q'(zeta)
        return 1 / (2 * zeta) * sqrt((1 - zeta + zeta * zeta) * zeta * (-dq))


def _alpha_from(dominant, gammas, l):
    with mp.extraprec(_GUARD_BITS):
        total = mpc(0)
        for g, z in zip(gammas, dominant):
            total += -g / (2 * sqrt(pi)) * z ** (-l)
        return total * mpf(l) ** (mpf(-3) / 2)


def _build_report(n: int, bits: int) -> SingularityReport:
    coeffs = poly_coeffs(poly_Q(n))
    roots = all_roots(coeffs, bits)
    with mp.workprec(bits + _GUARD_BITS):
        moduli = [fabs(z) for z in roots]
        rho = min(moduli)
        # dominant: every root whose disk reaches the innermost outer edge
        edge = min(m + r for m, r in zip(moduli, roots.radii))
        dom = [z for z, m, r in zip(roots, moduli, roots.radii)
               if m - r <= edge]
        gammas = [_gamma_raw(coeffs, z) for z in dom]
        # Branch calibration: one exact-coefficient probe fixes the sign of
        # the square root for the whole dominant family.
        probe = _CALIBRATION_PROBE
        k = kappa_values(n, probe + 1)[probe]
        flipped = bool(re(_alpha_from(dom, gammas, probe)) * k < 0)
        if flipped:
            gammas = [-g for g in gammas]
        return SingularityReport(
            n=n,
            precision_bits=bits,
            all_roots=tuple(roots),
            dominant=tuple(dom),
            radius=+rho,
            gammas=tuple(gammas),
            branch_flipped=flipped,
            inclusion_radius=max(roots.radii),
            float_sweeps=roots.float_sweeps,
        )


def singularity_report(n: int, precision_bits: int = DEFAULT_PRECISION) -> SingularityReport:
    n = _check_n(n)
    bits = _check_precision(precision_bits)
    key = (n, bits)
    with _reports_lock:
        rep = _reports.get(key)
        if rep is None:
            rep = _build_report(n, bits)
            _reports[key] = rep
        return rep


def roots_Q(n: int, precision_bits: int = DEFAULT_PRECISION) -> tuple:
    """All 2n certified roots of Q_n."""
    return singularity_report(n, precision_bits).all_roots


def radius(n: int, precision_bits: int = DEFAULT_PRECISION):
    """Radius of convergence: the smallest root modulus of Q_n."""
    return singularity_report(n, precision_bits).radius


def gamma_coeff(n: int, zeta, precision_bits: int = DEFAULT_PRECISION):
    """Calibrated square-root constant for a dominant root (principal branch
    for the non-dominant ones, where no probe applies)."""
    rep = singularity_report(n, precision_bits)
    with mp.workprec(rep.precision_bits + _GUARD_BITS):
        ztol = mpf(2) ** (-(rep.precision_bits // 2))
        for z, g in zip(rep.dominant, rep.gammas):
            if fabs(z - zeta) <= ztol * max(1, fabs(z)):
                return g
        for z in rep.all_roots:
            if fabs(z - zeta) <= ztol * max(1, fabs(z)):
                return _gamma_raw(poly_coeffs(poly_Q(n)), mpc(zeta))
    raise ValueError("zeta is not a root of Q_n at this precision")


def leading_term(n: int, l: int, precision_bits: int = DEFAULT_PRECISION):
    """Leading asymptotic term alpha_l; real up to a certified residual."""
    if l < 1:
        raise ValueError("need l >= 1")
    rep = singularity_report(n, precision_bits)
    with mp.workprec(rep.precision_bits + _GUARD_BITS):
        total = _alpha_from(rep.dominant, rep.gammas, l)
        tol = mpf(10) ** (-(rep.precision_bits // 4))
        if fabs(im(total)) > tol * fabs(re(total)):
            raise ImaginaryResidual(
                f"imaginary part {nstr(im(total), 5)} too large at l={l}"
            )
        return re(total)


# the shipped ratio tables: file stem -> index n, and the sampled l
TABLE_INDEX = {"table1": 1, "table2": 2, "table3": 3}
TABLE_LS = tuple(range(100, 2001, 100))


def ratio_table(n: int, l_values, precision_bits: int = DEFAULT_PRECISION):
    """Rows (l, alpha_l / kappa_l as a 15-significant-digit string)."""
    ls = [int(l) for l in l_values]
    if any(l < 1 for l in ls):
        raise ValueError("need l >= 1")
    vals = kappa_values(n, max(ls) + 1)
    rep = singularity_report(n, precision_bits)
    out = []
    with mp.workprec(rep.precision_bits + _GUARD_BITS):
        for l in ls:
            if vals[l] == 0:
                raise ZeroDivisionError(f"coefficient at l={l} is zero")
            r = leading_term(n, l, precision_bits) / vals[l]
            out.append((l, nstr(r, 15, strip_zeros=False)))
    return out
