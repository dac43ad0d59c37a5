"""Numeric singularity analysis for the deformed metallic series.

The growth of the series coefficients is governed by the roots of the
palindromic polynomial Q_n (the reduced discriminant factor), whose roots
pair off as z, 1/z.  Root isolation (`all_roots`) takes only such
polynomials.  It finds the n roots w = z + 1/z of the trace polynomial by
Aberth-Ehrlich simultaneous iteration in machine precision, polishes the
inner z of one w in each conjugate pair by Newton's method in big-int
fixed point (its conjugate is the mirror image), takes each 1/z in fixed
point with an evaluation of its own (on the unit circle 1/z is the
conjugate, mirrored once), certifies all 2n by a residual bound and by
pairwise disjoint Newton inclusion disks (each then holds exactly one
root), and lists them by modulus, then by argument.  The module extracts
the dominant ones (minimal modulus, the radius of convergence), and
assembles the square-root singularity constants and the leading term

    alpha_l = sum_j (-gamma_j / (2 sqrt(pi))) zeta_j^(-l) l^(-3/2).

The constants come from the product of principal square roots over all
roots of Q_n (singularity analysis, Flajolet & Sedgewick, Analytic
Combinatorics, Thm VI.1).  Everything runs in big-int fixed point at the
precision plus 64 guard bits (>= 192 bits everywhere in this module), and
the values are exact `Dyadic` / `DyadicComplex` numbers.
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading

from .dyadic import (Dyadic, DyadicComplex, cdiv, cmul, cpow, csqrt, nstr,
                     pi_units, units)
from .errors import (
    BranchCut,
    ImaginaryResidual,
    MultipleRoot,
    NoConvergence,
)
from .metallic import kappa_values, poly_Q, _check_n
from .record import record
from .series import poly_coeffs

DEFAULT_PRECISION = 256
_GUARD_BITS = 64


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


def _trace2(half, w):
    """S(w) and S'(w) for the trace polynomial of a palindromic p of degree
    2d, p(q) = q^d S(q + 1/q), from `half` = a_d, ..., a_2d: S = a_d + sum
    a_(d+k) T_k with T_k = q^k + q^-k, summed by Clenshaw's recurrence on
    T_(k+1) = w T_k - T_(k-1).  S in powers of w loses its roots to
    cancellation."""
    b1 = b2 = db1 = db2 = 0 * w
    for c in reversed(half[1:]):
        b1, b2, db1, db2 = c + w * b1 - b2, b1, b1 + w * db1 - db2, db1
    return half[0] + w * b1 - 2 * b2, b1 + w * db1 - 2 * db2


def _inner(w):
    """The root of q^2 - w q + 1 of modulus <= 1, as 1/(the other)."""
    r = cmath.sqrt(w * w - 4)
    return 2 / max(w + r, w - r, key=abs)


def _aberth_sweeps(half, zs, tol, max_sweeps):
    """Simultaneous-iteration sweeps in machine complex arithmetic on the
    trace polynomial of the float coefficients a_d, ..., a_2d in `half`
    (see _trace2); returns the sweep count or None when the update never
    fell below tol."""
    deg = len(zs)
    for sweep in range(max_sweeps):
        biggest = 0.0
        for i in range(deg):
            zi = zs[i]
            p, dp = _trace2(half, zi)
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
    evaluations, plus 2(|z| + 1) units of slack.  It holds at least one
    root."""
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
    """All roots of a palindromic polynomial (see all_roots), sorted by
    modulus and then by argument, with one inclusion radius per root (the
    disk of that radius around it holds exactly one root) and the sweep
    count of the float stage on its trace (None if it did not converge)."""

    def __new__(cls, roots, radii, float_sweeps):
        self = super().__new__(cls, roots)
        self.radii = tuple(radii)
        self.float_sweeps = float_sweeps
        return self


def all_roots(coeffs, precision_bits: int) -> CertifiedRoots:
    """All 2d roots of a palindromic integer polynomial of even degree
    2d >= 2 (ascending coefficients, coeffs == coeffs[::-1], nonzero
    constant term), such as Q_n; ValueError on any other input.

    Aberth-Ehrlich in machine precision on the d roots w = z + 1/z of the
    trace polynomial, then Newton in big-int fixed point on the inner z of
    one w in each conjugate pair, and an evaluation and disk of its own
    for each 1/z off the unit circle; all certified by a residual bound
    and by pairwise disjoint Newton inclusion disks."""
    bits = _check_precision(precision_bits)
    deg = len(coeffs) - 1
    if (deg < 2 or deg % 2 or coeffs != coeffs[::-1] or coeffs[0] == 0
            or not all(isinstance(c, int) for c in coeffs)):
        raise ValueError("all_roots needs a palindromic integer polynomial "
                         "of even degree >= 2 with a nonzero constant term")
    half = [float(c) for c in coeffs[deg // 2:]]
    # the root moduli have geometric mean 1: start the trace on the image of
    # a circle just outside it
    zs = [q + 1 / q for q in _init_circle(deg // 2, 1.0625)]
    sweeps = _aberth_sweeps(half, zs, 1e-13, 600)  # certified below
    if not all(map(cmath.isfinite, zs)):
        raise NoConvergence("float root iteration diverged")
    zs = [_inner(w) for w in zs]
    P = bits + _GUARD_BITS
    one = 1 << P
    # each Newton step doubles the correct bits of a float root: one step at
    # each of 96, 192, 384, ... bits below P, then steps at P (two, as a rule)
    ramp = [96 << k for k in range(P.bit_length()) if 96 << k < P]
    levels = [(Q, [c << Q for c in reversed(coeffs)]) for Q in ramp + [P]]
    Q0 = levels[0][0]
    cap = 4 + P.bit_length()  # quadratic convergence from about 2^-40
    worst = 0

    def polish(lv, x, y):
        """Newton over the levels lv from (x, y), then the inclusion disk
        (x, y, r) there."""
        nonlocal worst
        x, y, *p_dp = _newton_fixed(lv, x, y, 1 << (_GUARD_BITS // 2), cap)
        residual, r = _inclusion_disk(deg, P, x, y, *p_dp)
        worst = max(worst, residual)
        # the disk meets the real axis; once the disks are known to be
        # disjoint, its one root is its own conjugate, so real
        return (x, 0, r + abs(y)) if abs(y) <= r else (x, y, r)

    pairs, alone = _conjugate_pairs(zs)
    todo = pairs + [(k, None) for k in alone]
    disks = []
    for i, j in todo:  # grows while it runs: a split pair adds its partner
        (xn, xd), (yn, yd) = (zs[i].real.as_integer_ratio(),
                              zs[i].imag.as_integer_ratio())
        x, y, r = polish(levels, (xn << Q0) // xd, (yn << Q0) // yd)
        # a disk that meets the unit circle is mirrored, not inverted: there
        # 1/z is the conjugate (isqrt floors by under 1 unit)
        unit = y != 0 and abs(math.isqrt(x * x + y * y) - one) <= r + 1
        if j is not None and (y == 0 or unit):
            todo.append((j, None))
            j = None
        found = [(x, y, r)]
        if not unit:
            found.append(polish(levels[-1:], *cdiv(one, 0, x, y, P)))
        for x, y, r in found:
            if j is not None or unit:
                # real coefficients: the mirrored disk holds the conjugate
                # root, and |p| is the same there
                disks.append((x, -y, r))
            disks.append((x, y, r))
    if worst * 10 ** (bits // 4) >= 1 << P:
        raise NoConvergence(f"residual {nstr(Dyadic(worst, -P), 5)} above "
                            f"bound 1.0e-{bits // 4}")
    disks.sort(key=lambda d: _order_key(d, 1 << P))
    for (i, (xi, yi, ri)), (j, (xj, yj, rj)) in itertools.combinations(
            enumerate(disks), 2):
        if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
            raise MultipleRoot(f"inclusion disks of roots {i} and {j} overlap")
    return CertifiedRoots(
        [DyadicComplex(Dyadic(x, -P), Dyadic(y, -P)) for x, y, _ in disks],
        [Dyadic(r, -P) for *_, r in disks], sweeps)


# -- singularity data -------------------------------------------------------------


@record
class SingularityReport:
    """Roots of Q_n with the dominant subset and their square-root constants."""

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


def _fixed(z, P: int) -> tuple:
    """The parts of z in units of 2^-P (exact for the values held here)."""
    return units(z.real, P), units(z.imag, P)


def _complex(x: int, y: int, P: int) -> DyadicComplex:
    return DyadicComplex(Dyadic(x, -P), Dyadic(y, -P))


def _gamma_raw(scaled, x, y, P):
    """Principal-branch square-root constant at a simple root z = (x, y) of
    Q, whose coefficients times 2^P are `scaled` (highest first): since
    Q(q)/(z - q) -> -Q'(z), it is sqrt((1 - z + z^2) z (-Q'(z))) / (2z)."""
    _, _, dr, di = _horner_fixed(scaled, x, y, P)
    if dr * dr + di * di < 1 << P:  # |Q'(z)| < 2^(-P/2)
        raise MultipleRoot(f"derivative vanishes at ({nstr(Dyadic(x, -P), 8)}, "
                           f"{nstr(Dyadic(y, -P), 8)})")
    zr, zi = cmul(x, y, x, y, P)
    a, b = cmul((1 << P) - x + zr, zi - y, x, y, P)
    a, b = cmul(a, b, -dr, -di, P)
    return cdiv(*csqrt(a, b, P), 2 * x, 2 * y, P)


def _gamma_product(pts, k, P):
    """The square-root constant at the dominant root z_k, gamma_k =
    H(z_k) / (2 z_k) with

        H(z_k) = sqrt(1 - z_k/w) sqrt(1 - z_k/conj(w)) prod_(j != k) sqrt(1 - z_k/z_j),

    w = e^(i pi/3), every root principal.  Q(0) = 1, so on the disk of
    convergence sqrt((1 - q + q^2) Q(q)) = 2qF - R is the product of the
    principal roots sqrt(1 - q/w), sqrt(1 - q/conj(w)) and sqrt(1 - q/z_j),
    and near z_k the series is gamma_k sqrt(1 - q/z_k) plus an analytic part.
    `pts` holds every root and its inclusion radius, (x, y, r) in units of
    2^-P.  Raises BranchCut unless every factor keeps a positive real part
    over the inclusion disks, so that no root is taken across its cut."""
    one = 1 << P
    xk, yk, rk = pts[k]
    # >= |z_k| and the modulus of the root in its disk
    mk = math.isqrt(xk * xk + yk * yk) + 1 + rk
    half3 = math.isqrt(3 << 2 * P) >> 1  # sqrt(3)/2
    factors = []
    for c, d in ((one >> 1, -half3), (one >> 1, half3)):  # z/w, z/conj(w)
        qr, qi = cmul(xk, yk, c, d, P)
        factors.append((one - qr, -qi, rk + 4))
    for j, (xj, yj, rj) in enumerate(pts):
        if j != k:
            qr, qi = cdiv(xk, yk, xj, yj, P)
            # <= |z_j| and the modulus of the root in its disk; 1 unit if
            # the disk reaches 0, so that the bound below refuses it
            mj = max(math.isqrt(xj * xj + yj * yj) - rj, 1)
            # the root quotient is within (r_k + |z_k| r_j / |z_j|) / |zeta_j|
            err = ((rk + mk * rj // mj + 1) << P) // mj + 3
            factors.append((one - qr, -qi, err))
    hx, hy = one, 0
    for a, b, err in factors:
        if a <= err:
            raise BranchCut("a square-root factor of the constant at "
                            f"({nstr(Dyadic(xk, -P), 8)}, "
                            f"{nstr(Dyadic(yk, -P), 8)}) reaches its cut")
        hx, hy = cmul(hx, hy, *csqrt(a, b, P), P)
    if yk == 0:  # the factors pair off into conjugates: H is real
        hy = 0
    return cdiv(hx, hy, 2 * xk, 2 * yk, P)


def _build_report(n: int, bits: int) -> SingularityReport:
    coeffs = poly_coeffs(poly_Q(n))
    roots = all_roots(coeffs, bits)
    P = bits + _GUARD_BITS
    pts = [(*_fixed(z, P), units(r, P)) for z, r in zip(roots, roots.radii)]
    moduli = [math.isqrt(x * x + y * y) for x, y, _ in pts]
    # dominant: every root whose disk reaches the innermost outer edge
    edge = min(m + r for m, (*_, r) in zip(moduli, pts))
    dom = [k for k, (m, (*_, r)) in enumerate(zip(moduli, pts)) if m - r <= edge]
    scaled = [c << P for c in reversed(coeffs)]
    gammas, flipped = {}, False
    for k in dom:
        x, y, _ = pts[k]
        if (x, -y) in gammas:  # the mirror of a done root: the conjugate
            gx, gy = gammas[x, -y]
            gammas[x, y] = gx, -gy
            continue
        gx, gy = gammas[x, y] = _gamma_product(pts, k, P)
        rx, ry = _gamma_raw(scaled, x, y, P)
        dot = gx * rx + gy * ry  # Re(gamma conj(raw)), +-|gamma|^2 in theory
        if 2 * abs(dot) < gx * gx + gy * gy:
            raise BranchCut("the root product and Q'(zeta) disagree on "
                            f"|gamma| at n={n}")
        flipped = flipped or dot < 0
    return SingularityReport(
        n=n,
        precision_bits=bits,
        all_roots=tuple(roots),
        dominant=tuple(roots[k] for k in dom),
        radius=Dyadic(min(moduli), -P),
        gammas=tuple(_complex(*gammas[pts[k][:2]], P) for k in dom),
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
    """Square-root constant at a root zeta of Q_n: the report's for a
    dominant root, the principal-branch one for the others, where the
    product rule does not apply.  zeta is any number whose .real and .imag
    have `as_integer_ratio` (a root from the report, a Python complex)."""
    rep = singularity_report(n, precision_bits)
    P = rep.precision_bits + _GUARD_BITS
    x, y = _fixed(zeta, P)
    tol = 1 << (P - rep.precision_bits // 2)

    def near(z):
        zx, zy = _fixed(z, P)
        scale = max(1 << P, math.isqrt(zx * zx + zy * zy))
        return (zx - x) ** 2 + (zy - y) ** 2 <= (tol * scale >> P) ** 2

    for z, g in zip(rep.dominant, rep.gammas):
        if near(z):
            return g
    for z in rep.all_roots:
        if near(z):
            scaled = [c << P for c in reversed(poly_coeffs(poly_Q(n)))]
            return _complex(*_gamma_raw(scaled, *_fixed(z, P), P), P)
    raise ValueError("zeta is not a root of Q_n at this precision")


def _alpha(rep: SingularityReport, l: int) -> tuple:
    """alpha_l as (re, im, e), the value (re + i im) 2^e."""
    P = rep.precision_bits + _GUARD_BITS
    terms = []
    for z, g in zip(rep.dominant, rep.gammas):
        x, y = _fixed(z, P)
        d = x * x + y * y
        # zeta^(-l) outgrows any fixed point: powered as (mantissa, exponent)
        a, b, e = cpow((x << 2 * P) // d, (-y << 2 * P) // d, -P, l, P)
        gx, gy = _fixed(g, P)
        terms.append((gx * a - gy * b, gx * b + gy * a, e - P))
    f = min(e for *_, e in terms)
    sr = sum(re << (e - f) for re, _, e in terms)
    si = sum(im << (e - f) for _, im, e in terms)
    # alpha_l = -sum / (2 sqrt(pi) l^(3/2)), the divisor in units
    den = (2 * l * math.isqrt(pi_units(P) << P) * math.isqrt(l << 2 * P)) >> P
    return -(sr << P) // den, -(si << P) // den, f


def leading_term(n: int, l: int, precision_bits: int = DEFAULT_PRECISION):
    """Leading asymptotic term alpha_l; real up to a certified residual."""
    if l < 1:
        raise ValueError("need l >= 1")
    rep = singularity_report(n, precision_bits)
    re, im, e = _alpha(rep, l)
    if abs(im) * 10 ** (rep.precision_bits // 4) > abs(re):
        raise ImaginaryResidual(
            f"imaginary part {nstr(Dyadic(im, e), 5)} too large at l={l}")
    return Dyadic(re, e)


# the shipped ratio tables: file stem -> index n, and the sampled l
TABLE_INDEX = {"table1": 1, "table2": 2, "table3": 3}
TABLE_LS = tuple(range(100, 2001, 100))


def ratio_values(n: int, l_values, precision_bits: int = DEFAULT_PRECISION):
    """Rows (l, alpha_l / kappa_l), the quotient to precision_bits + 64
    significant bits."""
    ls = [int(l) for l in l_values]
    if any(l < 1 for l in ls):
        raise ValueError("need l >= 1")
    vals = kappa_values(n, max(ls) + 1)
    P = _check_precision(precision_bits) + _GUARD_BITS
    out = []
    for l in ls:
        k = vals[l]
        if k == 0:
            raise ZeroDivisionError(f"coefficient at l={l} is zero")
        a = leading_term(n, l, precision_bits)
        s = max(P + k.bit_length() - abs(a.man).bit_length(), 0)
        out.append((l, Dyadic((a.man << s) // k, a.exp - s)))
    return out


def ratio_table(n: int, l_values, precision_bits: int = DEFAULT_PRECISION):
    """Rows (l, alpha_l / kappa_l as a 15-significant-digit string)."""
    return [(l, nstr(r, 15, strip_zeros=False))
            for l, r in ratio_values(n, l_values, precision_bits)]
