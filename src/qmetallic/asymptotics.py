"""Numeric singularity analysis for the deformed metallic series.

The growth of the series coefficients is governed by the roots of the
palindromic polynomial Q_n (the reduced discriminant factor), whose roots
pair off as z, 1/z.  Root isolation (`all_roots`) takes only such
polynomials and works on their trace polynomial S of degree n, whose
roots are the n sums w = z + 1/z.  It finds them by Aberth-Ehrlich
simultaneous iteration in machine precision, polishes one w of each
conjugate pair by Newton's method in big-int fixed point (its conjugate
is the mirror image) and certifies it by S's Newton inclusion disk, maps
each w-disk to disks for z and 1/z by a Rouche bound on q^2 - wq + 1,
gates on a residual bound, tests the 2n disks pairwise disjoint (each then
holds exactly one root), and lists them by modulus, then by argument.
The module extracts the dominant ones (minimal modulus, the radius of
convergence), and assembles the square-root singularity constants and the
leading term

    alpha_l = sum_j (-gamma_j / (2 sqrt(pi))) zeta_j^(-l) l^(-3/2).

The constants come from the product of principal square roots over all
roots of Q_n (singularity analysis, Flajolet & Sedgewick, Analytic
Combinatorics, Thm VI.1).  Everything runs in big-int fixed point at the
precision plus 64 guard bits (>= 192 bits everywhere in this module), and
the values are exact `Dyadic` / `DyadicComplex` numbers.
"""

from __future__ import annotations

import cmath
import math

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


def _clenshaw_fixed(scaled, x, y, P):
    """S(w) and S'(w) in fixed point at w = (x, y), by the recurrence of
    _trace2; `scaled` holds a_2d, ..., a_d, each multiplied by 2^P."""
    br = bi = b2r = b2i = dr = di = d2r = d2i = 0
    for c in scaled[:-1]:
        br, bi, b2r, b2i, dr, di, d2r, d2i = (
            c + ((x * br - y * bi) >> P) - b2r, ((x * bi + y * br) >> P) - b2i,
            br, bi,
            br + ((x * dr - y * di) >> P) - d2r,
            bi + ((x * di + y * dr) >> P) - d2i,
            dr, di)
    return (scaled[-1] + ((x * br - y * bi) >> P) - 2 * b2r,
            ((x * bi + y * br) >> P) - 2 * b2i,
            br + ((x * dr - y * di) >> P) - 2 * d2r,
            bi + ((x * di + y * dr) >> P) - 2 * d2i)


def _clenshaw_error(deg, x, y, P):
    """Bounds, in units, on the rounding error of _clenshaw_fixed in S and
    in S' at w = (x, y), for S of degree `deg`.

    With z, 1/z the roots of q^2 - wq + 1, put T_k = z^k + z^-k and
    U_k = z^k + z^(k-2) + ... + z^-k, so that U_k = w U_(k-1) - U_(k-2) and
    T_k = w U_(k-1) - 2 U_(k-2).  An error e made in b_j (a rounded product
    is off by under 2 units) reaches b_1 as e U_(j-1)(w) and S as
    e T_j(w).  The derivative's recurrence adds b_(j+1) into db_j, so S'
    takes b_1's error once, and b_(j+1)'s error and each of its own
    rounding errors times T_j(w).  With R = max(|z|, 1/|z|),
    |T_k| <= 2 R^k and |U_k| <= (k + 1) R^k: the growth at the point
    itself, where a bound from |w| alone grows like
    ((|w| + sqrt(|w|^2 + 4)) / 2)^k.  Since
    |z + 1/z|^2 + |z - 1/z|^2 = 2 (|z|^2 + |z|^-2), R^2 + R^-2 is
    A = (|w|^2 + |w^2 - 4|) / 2 and R^2 = (A + sqrt(A^2 - 4)) / 2.  All of
    it is rounded up, in units of 2^-G."""
    G = 32
    re, im = x * x - y * y - (4 << 2 * P), 2 * x * y  # w^2 - 4, in 2^-2P
    a = ((x * x + y * y + math.isqrt(re * re + im * im) + 1)
         >> 2 * (P - G) + 1) + 1  # A in 2^-2G
    R = math.isqrt(((a + math.isqrt(a * a - (4 << 4 * G)) + 1) >> 1) + 1) + 1
    # su >= the sum of (k + 1) R^k over k < deg, st of R^k over 1 <= k <= deg
    power, su, st = 1 << G, 0, 0
    for k in range(1, deg + 1):
        su += k * power
        power = (power * R >> G) + 1
        st += power
    # every |error of b_j| <= e = 2 su; S: 2 + 2 sum |T_k|; S':
    # e + sum (e + 2) |T_k| + 2
    e, two = 2 * su, 2 << G
    es = two + 4 * st
    eds = e - (-(e + two) * 2 * st >> G) + two
    return -(-es >> G), -(-eds >> G)


def _newton_fixed(levels, x, y, stop, cap):
    """Newton on S from w = (x, y) over `levels`, pairs (Q, a_2d, ..., a_d
    times 2^Q) of rising precision Q, with (x, y) in units of the first:
    one step at each level but the last, then steps at the last until one
    is below `stop` units.  Returns the last point and S, S' there, or
    raises NoConvergence."""
    prev, last = levels[0][0], len(levels) - 1
    for k, (P, scaled) in enumerate(levels):
        x, y = x << (P - prev), y << (P - prev)
        prev = P
        for _ in range(cap if k == last else 1):
            pr, pi_, dr, di = _clenshaw_fixed(scaled, x, y, P)
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
    """The radius in units of the Newton disk deg*|S/S'| around w = (x, y),
    from S, S' there and the rounding of both: it holds a root of S."""
    es, eds = _clenshaw_error(deg, x, y, P)
    residual = math.isqrt(pr * pr + pi_ * pi_) + 1 + es
    slope = math.isqrt(dr * dr + di * di) - eds  # <= |S'(w)|
    if slope <= 0:
        raise MultipleRoot("derivative not bounded away from 0 at a root")
    return -((-deg * residual << P) // slope)


def _transfer(x, y, r, P):
    """The roots z and 1/z of q^2 - wq + 1 at the centre w = (x, y) of a
    trace-root disk of radius r, each as a disk (x, y, rho) that holds
    exactly one root of q^2 - w'q + 1 for every w' in the w-disk.

    For a fixed-point z, g(q) = (q - z)(q - w + z) has the roots z and
    w - z, and q^2 - w'q + 1 = g(q) + (w - w') q + e with the exact
    e = z^2 - wz + 1.  On |q - z| = rho, |g| >= rho (D - rho) with
    D = |2z - w|, and the rest is at most r (|z| + rho) + |e|; by Rouche
    the disk holds one root once rho (D - r - rho) > r |z| + |e|, which is
    checked in ints.  A w-disk that meets +-2, where z = 1/z is a double
    root, can pass this for neither root: MultipleRoot."""
    ur, ui = csqrt(((x * x - y * y) >> P) - (4 << P), (x * y) >> (P - 1), P)
    out = []
    for s in (1, -1):
        # halved toward zero, so that for a real w in (-2, 2) the two are
        # exact conjugates
        zx, zy = (x + s * ur) >> 1, (y + s * ui + (y + s * ui < 0)) >> 1
        ex = zx * zx - zy * zy - x * zx + y * zy + (1 << 2 * P)
        ey = 2 * zx * zy - x * zy - y * zx
        gap = math.isqrt((2 * zx - x) ** 2 + (2 * zy - y) ** 2) - r
        c = r * (math.isqrt(zx * zx + zy * zy) + 1) + math.isqrt(
            ex * ex + ey * ey) + 1
        # rho (gap - rho) - c = c (1 - 4c / gap^2) > 0 at rho = 2c / gap
        rho = 2 * c // gap + 1 if gap > 0 else 0
        if rho * (gap - rho) <= c:
            raise MultipleRoot("the disk of a trace root does not separate "
                               "z from 1/z")
        out.append((zx, zy, rho))
    return out


def _residual_bound(coeffs, disks, P):
    """A bound, in units, on |p(z)| at the centre z of every disk (x, y, r)
    of `disks`, each of which holds a root z* of p: |p(z)| = |p(z) - p(z*)|
    <= r max |p'| over the disk, and |p'| <= sum k |a_k| M^(k-1) there, with
    M >= |z| + r; summed in units of 2^-G, rounded up."""
    G = 32
    M = (max(math.isqrt(x * x + y * y) + r for x, y, r in disks)
         >> P - G) + 1
    dp = 0
    for k in range(len(coeffs) - 1, 0, -1):
        dp = -(-dp * M >> G) + (k * abs(coeffs[k]) << G)
    return -(-max(r for *_, r in disks) * dp >> G)


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
    disks are pairwise disjoint, and each holds exactly one root) and the
    sweep count of the float stage on its trace (None if it did not
    converge)."""

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
    trace polynomial S, then Newton in big-int fixed point on S, of degree
    d, for one w in each conjugate pair (its partner is the mirror image),
    and S's Newton inclusion disk there.  Each w-disk gives disks for z and
    1/z by a Rouche bound on q^2 - wq + 1 (see _transfer), so each of the
    2d disks holds a root of p.  A bound on |p| at their centres must lie
    below 10^-(bits/4), and once the disks are pairwise disjoint each holds
    exactly one root."""
    bits = _check_precision(precision_bits)
    deg = len(coeffs) - 1
    if (deg < 2 or deg % 2 or coeffs != coeffs[::-1] or coeffs[0] == 0
            or not all(isinstance(c, int) for c in coeffs)):
        raise ValueError("all_roots needs a palindromic integer polynomial "
                         "of even degree >= 2 with a nonzero constant term")
    d = deg // 2
    half = [float(c) for c in coeffs[d:]]
    # the root moduli have geometric mean 1: start the trace on the image of
    # a circle just outside it
    ws = [q + 1 / q for q in _init_circle(d, 1.0625)]
    sweeps = _aberth_sweeps(half, ws, 1e-13, 600)  # certified below
    if not all(map(cmath.isfinite, ws)):
        raise NoConvergence("float root iteration diverged")
    P = bits + _GUARD_BITS
    # each Newton step doubles the correct bits of a float root: one step at
    # each of 96, 192, 384, ... bits below P, then steps at P (two, as a rule)
    ramp = [96 << k for k in range(P.bit_length()) if 96 << k < P]
    levels = [(Q, [c << Q for c in reversed(coeffs[d:])]) for Q in ramp + [P]]
    Q0 = levels[0][0]
    cap = 4 + P.bit_length()  # quadratic convergence from about 2^-40
    pairs, alone = _conjugate_pairs(ws)
    todo = pairs + [(k, None) for k in alone]
    disks = []
    for i, j in todo:  # grows while it runs: a split pair adds its partner
        (xn, xd), (yn, yd) = (ws[i].real.as_integer_ratio(),
                              ws[i].imag.as_integer_ratio())
        x, y, *s_ds = _newton_fixed(levels, (xn << Q0) // xd, (yn << Q0) // yd,
                                    1 << (_GUARD_BITS // 2), cap)
        r = _inclusion_disk(d, P, x, y, *s_ds)
        if abs(y) <= r:
            # the disk meets the real axis: moved onto it, it still holds a
            # root, and once the z-disks are disjoint that root is its own
            # conjugate, so real; the partner is polished on its own
            y, r = 0, r + abs(y)
            if j is not None:
                todo.append((j, None))
                j = None
        for zx, zy, rho in _transfer(x, y, r, P):
            disks.append((zx, zy, rho))
            if j is not None:
                # real coefficients: the mirrored disk holds the conjugate
                disks.append((zx, -zy, rho))
    worst = _residual_bound(coeffs, disks, P)
    if worst * 10 ** (bits // 4) >= 1 << P:
        raise NoConvergence(f"residual {nstr(Dyadic(worst, -P), 5)} above "
                            f"bound 1.0e-{bits // 4}")
    disks.sort(key=lambda disk: _order_key(disk, 1 << P))
    # by left edge x - r: a disk can meet only those that start before its
    # right edge, so the sweep stops there
    edge = sorted(range(len(disks)), key=lambda k: disks[k][0] - disks[k][2])
    for s, i in enumerate(edge):
        xi, yi, ri = disks[i]
        for t in range(s + 1, len(edge)):
            xj, yj, rj = disks[edge[t]]
            if xj - rj > xi + ri:
                break
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
                i, j = sorted((i, edge[t]))
                raise MultipleRoot(
                    f"inclusion disks of roots {i} and {j} overlap")
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


def singularity_report(n: int, precision_bits: int = DEFAULT_PRECISION) -> SingularityReport:
    """The certified roots of Q_n, the dominant ones and their square-root
    constants, built from poly_Q at each call and kept nowhere: a caller
    that reads one report many times builds it once and passes it on."""
    n = _check_n(n)
    bits = _check_precision(precision_bits)
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


def roots_Q(n: int, precision_bits: int = DEFAULT_PRECISION) -> tuple:
    """All 2n certified roots of Q_n."""
    return singularity_report(n, precision_bits).all_roots


def radius(n: int, precision_bits: int = DEFAULT_PRECISION):
    """Radius of convergence: the smallest root modulus of Q_n."""
    return singularity_report(n, precision_bits).radius


def _report_for(n: int, precision_bits: int, report):
    """The caller's report, refused unless it is Q_n's at that precision,
    or a fresh one."""
    if report is None:
        return singularity_report(n, precision_bits)
    if (report.n, report.precision_bits) != (n, precision_bits):
        raise ValueError(f"report is for n={report.n} at "
                         f"{report.precision_bits} bits")
    return report


def gamma_coeff(n: int, zeta, precision_bits: int = DEFAULT_PRECISION,
                report=None):
    """Square-root constant at a root zeta of Q_n: the report's for a
    dominant root, the principal-branch one for the others, where the
    product rule does not apply.  zeta is any number whose .real and .imag
    have `as_integer_ratio` (a root from the report, a Python complex).
    Read from `report` (see _report_for)."""
    rep = _report_for(n, precision_bits, report)
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


def leading_term(n: int, l: int, precision_bits: int = DEFAULT_PRECISION,
                 report=None):
    """Leading asymptotic term alpha_l; real up to a certified residual.
    Read from `report` (see _report_for)."""
    if l < 1:
        raise ValueError("need l >= 1")
    rep = _report_for(n, precision_bits, report)
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
    significant bits, every alpha_l read from one report."""
    ls = [int(l) for l in l_values]
    if any(l < 1 for l in ls):
        raise ValueError("need l >= 1")
    vals = kappa_values(n, max(ls) + 1)
    rep = singularity_report(n, precision_bits)
    P = rep.precision_bits + _GUARD_BITS
    out = []
    for l in ls:
        k = vals[l]
        if k == 0:
            raise ZeroDivisionError(f"coefficient at l={l} is zero")
        a = leading_term(rep.n, l, rep.precision_bits, rep)
        s = max(P + k.bit_length() - abs(a.man).bit_length(), 0)
        out.append((l, Dyadic((a.man << s) // k, a.exp - s)))
    return out


def ratio_table(n: int, l_values, precision_bits: int = DEFAULT_PRECISION):
    """Rows (l, alpha_l / kappa_l as a 15-significant-digit string)."""
    return [(l, nstr(r, 15, strip_zeros=False))
            for l, r in ratio_values(n, l_values, precision_bits)]
