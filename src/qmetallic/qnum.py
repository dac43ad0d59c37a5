"""q-deformation of reals presented by continued fractions.

The deformation of a real with (eventually periodic) regular continued
fraction [a0; a1, a2, ...] alternates two bases along the expansion: entries
at even positions contribute [a]_q and a numerator q^a, entries at odd
positions contribute [a]_{1/q} and a numerator q^(-a).  Rationals come out as
ratios of integer polynomials, quadratic irrationals as roots of quadratic
equations over Z[q], and everything else as an integer-coefficient Laurent
series obtained from stabilizing convergents.  A polynomial is an exact
series (order INF) in Z[q].

Every Mobius map x -> (a x + b)/(c x + d) here, a deformation step, a
convergent, the fixed-point map of a periodic tail, or a PSL(2,Z) action, is
the 2x2 tuple ((a, b), (c, d)) of exact series: _matmul composes maps and
_act applies one to a series.
"""

from __future__ import annotations

import math
from functools import reduce
from fractions import Fraction

from .errors import BranchMismatch, NoStabilization
from .record import record
from .series import (
    INF,
    LaurentSeries,
    assert_integral,
    assert_polynomial,
    format_q,
    monomial,
    poly_divexact,
    poly_gcd,
    series_div,
    series_sqrt,
    zero,
)


def q_integer(n: int) -> LaurentSeries:
    """[n]_q as an exact series: 1 + q + ... + q^(n-1) for n >= 0, and
    -(q^-1 + q^-2 + ... + q^n) for n < 0."""
    if n >= 0:
        return LaurentSeries(0, [1] * n, INF)
    return LaurentSeries(n, [-1] * (-n), INF)


def q_integer_recip_base(n: int) -> LaurentSeries:
    """[n]_{1/q} = q^(1-n) [n]_q, as an exact series."""
    return q_integer(n).shift(1 - n)


# -- continued fractions ------------------------------------------------------


@record
class PeriodicCF:
    """Regular continued fraction with an eventually periodic tail.

    preperiod holds a0, a1, ..., ak (a0 any integer, the rest >= 1); period
    holds the repeating block (entries >= 1), empty for rationals.  The
    canonical rational form forbids a terminal 1 after a0.
    """

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        pre = tuple(int(a) for a in self.preperiod)
        per = tuple(int(a) for a in self.period)
        if not pre:
            raise ValueError("continued fraction needs a leading integer entry")
        if any(a < 1 for a in pre[1:]) or any(a < 1 for a in per):
            raise ValueError("entries after the first must be >= 1")
        if not per and len(pre) > 1 and pre[-1] == 1:
            raise ValueError("non-canonical rational form: terminal entry 1")
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @property
    def is_rational(self) -> bool:
        return not self.period

    def entry(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        if not self.period:
            raise IndexError(i)
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def __str__(self) -> str:
        return cf_to_text(self)


def parse_cf(text: str) -> PeriodicCF:
    """Parse 'a0;a1,a2,...,(p1,p2,...)*' (the periodic part optional)."""
    t = text.strip().replace(" ", "")
    head, _, rest = t.partition(";")
    plain, paren, par = rest.partition("(")
    entries = [head] + (plain.split(",") if plain else [])
    if paren:
        if not par.endswith(")*"):
            raise ValueError(f"unterminated periodic block in {text!r}")
        # after preperiod entries, the block follows a comma: '1;2,(3)*'
        if plain and entries.pop():
            raise ValueError(f"missing comma before the periodic block in {text!r}")
    period = par[:-2].split(",") if paren else []
    if not all(entries) or not all(period):
        raise ValueError(f"empty entry in {text!r}")
    return PeriodicCF(tuple(int(v) for v in entries),
                      tuple(int(v) for v in period))


def cf_to_text(cf: PeriodicCF) -> str:
    head = str(cf.preperiod[0])
    tail = ",".join(str(a) for a in cf.preperiod[1:])
    if cf.period:
        block = "(" + ",".join(str(a) for a in cf.period) + ")*"
        tail = tail + "," + block if tail else block
    return head + ";" + tail if tail else head


def rational_value(cf: PeriodicCF) -> tuple:
    """(r, s) in lowest terms for a rational (period-free) CF."""
    if cf.period:
        raise ValueError("continued fraction has a periodic tail")
    x = Fraction(cf.preperiod[-1])
    for a in reversed(cf.preperiod[:-1]):
        x = a + 1 / x
    return x.numerator, x.denominator


def rational_cf(r: int, s: int) -> PeriodicCF:
    """Canonical (floor-based) continued fraction of r/s, s >= 1."""
    if s < 1:
        raise ValueError("denominator must be >= 1")
    entries = []
    while True:
        a = r // s
        entries.append(a)
        r, s = s, r - a * s
        if s == 0:
            break
    return PeriodicCF(tuple(entries), ())


# -- Mobius maps as 2x2 matrices ----------------------------------------------

_ONE, _ZERO, _Q = monomial(1, 0), zero(INF), monomial(1, 1)
_IDENTITY = ((_ONE, _ZERO), (_ZERO, _ONE))


def _matmul(m, k):
    """Matrix product m k, the composition of the two maps.  The factors of
    k come first: a short step entry then drives the outer product loop."""
    (a, b), (c, d) = m
    (e, f), (g, h) = k
    return ((e * a + g * b, f * a + h * b), (e * c + g * d, f * c + h * d))


def _steps(cf: PeriodicCF, start: int, count: int):
    """Product of the step matrices ((u_i, w_i), (1, 0)) for positions
    start..start+count-1: u_i = [a_i]_q, w_i = q^(a_i) at even i, and
    u_i = [a_i]_{1/q}, w_i = q^(-a_i) at odd i."""
    m = _IDENTITY
    for i in range(start, start + count):
        a = cf.entry(i)
        if i % 2 == 0:
            u, w = q_integer(a), monomial(1, a)
        else:
            u, w = q_integer_recip_base(a), monomial(1, -a)
        step = ((u, w), (_ONE, _ZERO))
        m = _matmul(m, step) if i > start else step
    return m


def _act(m, x: LaurentSeries, order: int, context: str) -> LaurentSeries:
    """The map m applied to the series x, modulo q^order."""
    (a, b), (c, d) = m
    return assert_integral(series_div(a * x + b, c * x + d, order), context)


def q_real_truncated(cf: PeriodicCF, order: int) -> LaurentSeries:
    """Deformed series of the real with expansion cf, modulo q^order.

    Convergents are deformed until two consecutive ones agree modulo q^order
    (their difference valuations are strictly increasing, so the stabilized
    prefix is the limit's); iteration is capped at 16*order + 64.  The step
    product ((a, b), (c, d)) holds the last two convergents a/c and b/d, and
    a/c - b/d = det/(c d) with det = +-q^(sum of (-1)^i a_i).
    """
    if cf.is_rational:
        (a, _), (c, _) = _steps(cf, 0, len(cf.preperiod))
        return assert_integral(series_div(a, c, order), "q_real_truncated")
    cap = 16 * order + 64
    m, det_val = _IDENTITY, 0
    for k in range(cap + 2):
        m = _matmul(m, _steps(cf, k, 1))
        det_val += -cf.entry(k) if k % 2 else cf.entry(k)
        (a, b), (c, d) = m
        if k >= 2 and det_val - c.valuation - d.valuation >= order:
            x = series_div(a, c, order)
            if not x.eq_mod(series_div(b, d, order), order):
                raise NoStabilization(
                    f"convergents {k - 1} and {k} disagree below q^{order}"
                )
            return assert_integral(x, "q_real_truncated")
    raise NoStabilization(f"no stabilization after {cap} convergents")


# -- rationals ----------------------------------------------------------------


def _divide_by_gcd(*series: LaurentSeries) -> list:
    """Exact series divided by their gcd: polynomials with no common factor,
    the lowest exponent among them 0."""
    g = reduce(poly_gcd, series)
    return list(series) if g == _ONE else [poly_divexact(s, g) for s in series]


@record
class QRational:
    """Deformed rational as a reduced ratio of integer polynomials."""

    numerator: LaurentSeries
    denominator: LaurentSeries

    def __post_init__(self):
        for name in ("numerator", "denominator"):
            assert_polynomial(getattr(self, name), f"QRational.{name}")
        if self.denominator.is_zero:
            raise ValueError("denominator polynomial must be nonzero")

    def to_series(self, order: int) -> LaurentSeries:
        return assert_integral(series_div(self.numerator, self.denominator, order),
                               "QRational.to_series")

    def __str__(self):
        return f"({format_q(self.numerator)}) / ({format_q(self.denominator)})"


def q_rational(r: int, s: int) -> QRational:
    """Deformation of r/s with gcd(r,s)=1, s>=1, as a reduced polynomial ratio."""
    if s < 1:
        raise ValueError("denominator must be >= 1")
    if math.gcd(r, s) != 1:
        raise ValueError("r/s must be in lowest terms")
    cf = rational_cf(r, s)
    (a, _), (c, _) = _steps(cf, 0, len(cf.preperiod))
    num, den = _divide_by_gcd(a, c)
    # lowest nonzero denominator coefficient made positive
    if den.coeffs[0] < 0:
        num, den = -num, -den
    return QRational(num, den)


# -- quadratic irrationals ----------------------------------------------------


@record
class QuadraticForm:
    """Deformed quadratic irrational: value = (R + sign*sqrt(P)) / S.

    R, P, S are integer polynomials (P the discriminant, q^(2k) times a
    palindromic polynomial with positive lowest coefficient); sqrt(P)
    denotes the series branch with positive leading coefficient.
    """

    R: LaurentSeries
    P: LaurentSeries
    S: LaurentSeries
    sign: int

    def __post_init__(self):
        for name in ("R", "P", "S"):
            assert_polynomial(getattr(self, name), f"QuadraticForm.{name}")
        if self.S.is_zero:
            raise ValueError("denominator polynomial must be nonzero")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")

    def sqrt_disc(self, order: int) -> LaurentSeries:
        """Canonical branch of sqrt(P) modulo q^(order + val(P)/2): positive
        leading coefficient."""
        p = self.P
        v = p.valuation
        if v % 2:
            raise BranchMismatch("discriminant valuation is odd")
        lead = p.coeffs[0]
        k = math.isqrt(lead)
        if k * k != lead:
            raise BranchMismatch("leading discriminant coefficient is not a square")
        unit = p.shift(-v)
        if k == 1:
            return series_sqrt(unit, order).shift(v // 2)
        return (series_sqrt(unit * Fraction(1, k * k), order) * k).shift(v // 2)

    def to_series(self, order: int) -> LaurentSeries:
        # R + sign sqrt(P) is then known modulo q^(order + val(S)), all
        # that the division by S can use (val(S) >= 0, S a polynomial)
        root = self.sqrt_disc(order + self.S.valuation)
        return assert_integral(series_div(self.R + root * self.sign, self.S, order),
                               "QuadraticForm.to_series")


_PROBE_ORDER = 10  # coefficients that pick the branch in quantize_quadratic


def quantize_quadratic(cf: PeriodicCF) -> QuadraticForm:
    """Quadratic equation over Z[q] satisfied by the deformed value of a
    quadratic irrational, reduced, with the branch matching the deformed
    series.

    The periodic tail is a fixed point of its own deformed Mobius map (two
    copies of the period when its length is odd, to restore base parity);
    conjugating by the preperiod map gives the equation of the value itself.
    """
    if cf.is_rational:
        raise ValueError("quantize_quadratic needs a periodic continued fraction")
    s = len(cf.preperiod)
    m = len(cf.period)
    if m % 2:
        m *= 2
    # x = pre(T) with T = tail(T), so x is fixed by pre tail pre^-1, and
    # (A x + B)/(C x + D) = x  =>  C x^2 + (D - A) x - B = 0
    pre = _steps(cf, 0, s)
    (al, be), (ga, de) = pre
    (A, B), (C, D) = _matmul(_matmul(pre, _steps(cf, s, m)),
                             ((de, -be), (-ga, al)))
    if C.is_zero:
        raise ValueError("expansion is not genuinely quadratic")
    a, b, c = _divide_by_gcd(C, D - A, -B)
    if a.coeffs[0] < 0:
        a, b, c = -a, -b, -c
    R = -b
    P = b * b - 4 * (a * c)
    S = 2 * a
    # branch: compare t = S*x - R against the canonical sqrt(P)
    margin = 2 + S.valuation + sum(abs(e) for e in cf.preperiod) + 2 * sum(cf.period)
    xhat = q_real_truncated(cf, _PROBE_ORDER + margin)
    t = S * xhat - R
    if t.is_zero:
        raise BranchMismatch("series sits on the double root")
    if (t * t).first_mismatch(P, upto=_PROBE_ORDER) is not None:
        raise BranchMismatch("neither branch reproduces the deformed series")
    # P / q^val(P) is its coefficient tuple
    if not P or P.coeffs != P.coeffs[::-1] or P.coeffs[0] <= 0:
        raise ValueError("discriminant invariant violated "
                         "(P / q^val(P) palindromic, lowest coefficient > 0)")
    sign = 1 if t.coeffs[0] > 0 else -1
    return QuadraticForm(R, P, S, sign)


# -- modular group actions ----------------------------------------------------


# Each action as the map that _act applies; identities composes them with
# _matmul and compares relations by cross-multiplication instead
NEG_RECIPROCAL = ((_ZERO, -_ONE), (_Q, _ZERO))
NEGATE = ((-_ONE, _ONE - monomial(1, -1)), (_Q - 1, _ONE))
RECIPROCAL = ((_Q - 1, _ONE), (_Q, _ONE - _Q))


def shift_map(k: int):
    """The map of shift: x -> q^k x + [k]_q."""
    return ((monomial(1, k), q_integer(k)), (_ZERO, _ONE))


def shift(x: LaurentSeries, k: int) -> LaurentSeries:
    """Deformation of x + k: q^k x + [k]_q."""
    return x.shift(k) + q_integer(k)


def neg_reciprocal(x: LaurentSeries, target_order: int) -> LaurentSeries:
    """Deformation of -1/x: -1/(q x), modulo q^target_order."""
    return _act(NEG_RECIPROCAL, x, target_order, "neg_reciprocal")


def negate(x: LaurentSeries, target_order: int) -> LaurentSeries:
    """Deformation of -x: (-x + 1 - q^-1) / ((q-1) x + 1), modulo q^target_order."""
    return _act(NEGATE, x, target_order, "negate")


def reciprocal(x: LaurentSeries, target_order: int) -> LaurentSeries:
    """Deformation of 1/x: ((q-1) x + 1) / (q x + 1 - q), modulo q^target_order."""
    return _act(RECIPROCAL, x, target_order, "reciprocal")
