"""Exact Laurent-series arithmetic over Z and Q.

Coefficients live in Z or Q: plain `int` wherever possible, stdlib
`fractions.Fraction` otherwise.  Every operation is pure; series objects are
immutable after construction.

A truncated series knows its coefficients for exponents
`valuation <= l < order`.  Exactly-known series carry `order = INF`: they
are the Laurent polynomials (q-integers, the polynomials of the quadratic
equations), stored without leading or trailing zeros, so equal ones compare
and hash equal.  The zero series is canonicalized to an empty coefficient
window with `valuation == order`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadConstantTerm,
    InsufficientOrder,
    NonExactDivision,
    NonIntegralCoefficient,
    ZeroSeries,
)

# Infinite-order sentinel; compares correctly under min() and +int.
INF = math.inf


def _canon(c):
    """Collapse denominator-1 fractions to int so hot paths stay integral."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"unsupported coefficient type: {type(c)!r}")


def _half(c):
    # exact division by 2, staying in int when possible
    if type(c) is int:
        if c & 1 == 0:
            return c >> 1
        return Fraction(c, 2)
    return _canon(c / 2)


class LaurentSeries:
    """Formal Laurent series known modulo q^order."""

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation, coeffs: Iterable, order=INF):
        # nearly every coefficient is an int: test inline, skip the call
        cs = [c if type(c) is int else _canon(c) for c in coeffs]
        if order != INF:
            order = int(order)
            if order - valuation != len(cs):
                raise ValueError("coefficient window does not match order")
        else:
            # an exact series ends at its last nonzero term
            while cs and cs[-1] == 0:
                cs.pop()
        # strip known-zero leading terms; trailing zeros of a truncated
        # series are genuine data
        i = 0
        while i < len(cs) and cs[i] == 0:
            i += 1
        valuation += i
        cs = cs[i:]
        if not cs:
            valuation = order  # zero series: valuation == order
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, l: int):
        """Coefficient of q^l; raises InsufficientOrder beyond the window."""
        if l >= self.order:
            raise InsufficientOrder(f"coefficient q^{l} unknown (order {self.order})")
        if self.is_zero or l < self.valuation:
            return 0
        i = l - self.valuation
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.valuation == other.valuation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.valuation, self.coeffs, self.order))

    def __bool__(self) -> bool:
        return not self.is_zero

    def _content_end(self) -> int:
        return self.valuation + len(self.coeffs) if self.coeffs else 0

    def first_mismatch(self, other: "LaurentSeries", upto=None):
        """Smallest exponent below min(orders, upto) with differing
        coefficients, or None."""
        hi = min(self.order, other.order, INF if upto is None else upto)
        if hi == INF:
            hi = max(self._content_end(), other._content_end())
        # a zero series has valuation == order >= hi
        lo = min(self.valuation, other.valuation)
        if lo >= hi:
            return None
        lo, hi = int(lo), int(hi)
        a, b = self.coefficients(lo, hi), other.coefficients(lo, hi)
        return None if a == b else next(
            lo + i for i, (x, y) in enumerate(zip(a, b)) if x != y)

    def eq_mod(self, other: "LaurentSeries", upto=None) -> bool:
        return self.first_mismatch(other, upto) is None

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        if self.is_zero:
            return self
        return LaurentSeries(self.valuation, [-c for c in self.coeffs], self.order)

    def __add__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            other = constant(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        if self.is_zero:
            return other.truncate(order)
        if other.is_zero:
            return self.truncate(order)
        lo = min(self.valuation, other.valuation)
        hi = int(order) if order != INF else max(self._content_end(), other._content_end())
        cs = [a + b for a, b in zip(self.coefficients(lo, hi),
                                    other.coefficients(lo, hi))]
        return LaurentSeries(lo, cs, order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            c = _canon(other)
            if c == 0:
                return zero(self.order)
            if self.is_zero:
                return self
            return LaurentSeries(self.valuation, [c * x for x in self.coeffs], self.order)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.is_zero or other.is_zero:
            # valuation == order for zero operands keeps this rule uniform
            return zero(min(self.order + other.valuation, other.order + self.valuation))
        va, vb = self.valuation, other.valuation
        a, b = self.coeffs, other.coeffs
        # an exact factor q^k is a shift: the step matrices of qnum hold 1 and q^(+-a)
        if b == (1,) and other.order == INF:
            return self.shift(vb)
        if a == (1,) and self.order == INF:
            return other.shift(va)
        order = min(self.order + vb, other.order + va)
        n = len(a) + len(b) - 1 if order == INF else int(order) - (va + vb)
        if self is other:
            return LaurentSeries(2 * va, [_square_sum(a, k) for k in range(n)],
                                 order)
        return LaurentSeries(va + vb, _convolve(a, b, n), order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k."""
        if k == 0:
            return self
        order = self.order if self.order == INF else self.order + k
        if self.is_zero:
            return zero(order)
        return LaurentSeries(self.valuation + k, list(self.coeffs), order)

    def truncate(self, order) -> "LaurentSeries":
        if order == INF or order >= self.order:
            return self
        order = int(order)
        if self.is_zero or order <= self.valuation:
            return zero(order)
        n = order - self.valuation
        cs = list(self.coeffs[:n])
        cs += [0] * (n - len(cs))
        return LaurentSeries(self.valuation, cs, order)

    def derivative(self) -> "LaurentSeries":
        """Termwise d/dq; known modulo q^(order-1)."""
        order = self.order if self.order == INF else self.order - 1
        if self.is_zero:
            return zero(order)
        v = self.valuation
        cs = [(v + i) * c for i, c in enumerate(self.coeffs)]
        return LaurentSeries(v - 1, cs, order)

    # -- views -------------------------------------------------------------

    def coefficients(self, lo: int, hi: int) -> list:
        """Coefficients of q^lo .. q^(hi-1): the stored window, zero-padded;
        raises InsufficientOrder beyond the known ones."""
        if hi <= lo:
            return []
        if hi > self.order:
            l = max(lo, self.order)
            raise InsufficientOrder(f"coefficient q^{l} unknown (order {self.order})")
        v = self.valuation
        a, b = max(lo, v), min(hi, self._content_end())
        if a >= b:
            return [0] * (hi - lo)
        return [0] * (a - lo) + list(self.coeffs[a - v:b - v]) + [0] * (hi - b)

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def __repr__(self):
        return f"LaurentSeries({format_q(self)!r})"


def zero(order=INF) -> LaurentSeries:
    return LaurentSeries(order, [], order)


def constant(c) -> LaurentSeries:
    return LaurentSeries(0, [c], INF)


def monomial(c, k: int) -> LaurentSeries:
    return LaurentSeries(k, [c], INF)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return a * b


def _square_sum(x: Sequence, k: int, lo: int = 0):
    """sum_{lo <= i <= k-lo} x_i x_(k-i), entries past the end of x counting
    as zero: each pair i < k - i multiplied once and doubled, plus the middle
    square when k is even.  Every square of a series goes through here."""
    lo = max(lo, k - len(x) + 1)
    s = 2 * sum(map(operator.mul, x[lo:(k + 1) // 2], x[k - lo:k // 2:-1]))
    if k & 1 == 0 and lo <= k // 2:
        s += x[k // 2] ** 2
    return s


def _convolve(a: Sequence, b: Sequence, n: int) -> list:
    """First n coefficients of a * b for distinct operands, skipping zero
    coefficients: the schoolbook product loop of series and polynomials (a
    square goes through _square_sum)."""
    out = [0] * n
    lb = len(b)
    for i in range(min(len(a), n)):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(min(lb, n - i)):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _window_div(num: Sequence, den: Sequence, n: int) -> list:
    """First n coefficients of num / den, den[0] != 0, by one triangular
    solve; entries past the end of either list count as zero."""
    d0 = den[0]
    ln, ld = len(num), len(den)
    out = []
    for k in range(n):
        acc = num[k] if k < ln else 0
        for i in range(1, min(k, ld - 1) + 1):
            di = den[i]
            if di:
                acc -= di * out[k - i]
        quo, rem = divmod(acc, d0)
        out.append(Fraction(acc, d0) if rem else quo)
    return out


def series_inverse(a: LaurentSeries, target_order: int) -> LaurentSeries:
    """Multiplicative inverse with valuation -val(a).

    The product a * result equals 1 modulo q^target_order, which takes
    target_order known coefficients of a's unit part a / q^val(a).
    """
    if target_order < 1:
        raise ValueError("target_order must be >= 1")
    if a.is_zero:
        raise ZeroSeries("cannot invert a series with no nonzero known coefficient")
    return series_div(constant(1), a, target_order - a.valuation)


def series_div(num: LaurentSeries, den: LaurentSeries, target_order: int) -> LaurentSeries:
    """num / den known modulo q^min(target_order, num.order - val(den)).

    Takes min(target_order + val(den), num.order) - val(num) known
    coefficients of den's unit part den / q^val(den); an exact den is never
    padded.
    """
    if den.is_zero:
        raise ZeroSeries("cannot divide by a series with no nonzero known coefficient")
    if num.is_zero:
        lim = INF if num.order == INF else num.order - den.valuation
        return zero(min(target_order, lim))
    vn, vd = num.valuation, den.valuation
    t = target_order + vd - vn
    if t < 1:
        return zero(target_order)
    m = min(t, num.order - vn)
    if den.order - vd < m:
        raise InsufficientOrder(
            f"need {m} known coefficients of the unit part, have {den.order - vd}"
        )
    return LaurentSeries(
        vn - vd, _window_div(num.coeffs[:m], den.coeffs[:m], m), vn - vd + m
    )


def series_sqrt(a: LaurentSeries, target_order: int) -> LaurentSeries:
    """Square root of a unit series with constant term 1, modulo q^target_order.

    One triangular recurrence, x_0 = 1 and 2 x_k = a_k - sum_{0<i<k} x_i
    x_(k-i), the half-sum of _square_sum with lo = 1; an exact a shorter
    than the target counts as zero-padded.  Every x_k is exact, so integer
    input with an integral root never leaves the integers.
    """
    if target_order < 1:
        raise ValueError("target_order must be >= 1")
    if a.is_zero or a.valuation != 0 or a.coeffs[0] != 1:
        raise BadConstantTerm("series_sqrt needs valuation 0 and constant term 1")
    if a.order < target_order:
        raise InsufficientOrder(
            f"need {target_order} known coefficients, have {a.order - a.valuation}"
        )
    awin = a.coefficients(0, target_order)
    x = [1]
    for k in range(1, target_order):
        x.append(_half(awin[k] - _square_sum(x, k, 1)))
    return LaurentSeries(0, x, target_order)


def assert_integral(s: LaurentSeries, context: str = "series") -> LaurentSeries:
    for i, c in enumerate(s.coeffs):
        if type(c) is not int:
            raise NonIntegralCoefficient(
                f"{context}: coefficient of q^{s.valuation + i} is {c}, not an integer"
            )
    return s


# -- pretty printing and JSON exchange ---------------------------------------


def format_q(s: LaurentSeries, var: str = "q", max_terms: int | None = None) -> str:
    """Human-readable form like '1 + q - 2q^3 + O(q^8)'."""
    if s.is_zero:
        return "0" if s.order == INF else f"O({var}^{s.order})"
    parts = []
    shown = 0
    for i, c in enumerate(s.coeffs):
        if c == 0:
            continue
        if max_terms is not None and shown >= max_terms:
            parts.append("...")
            break
        l = s.valuation + i
        mag = -c if c < 0 else c
        if l == 0:
            term = str(mag)
        else:
            ql = var if l == 1 else f"{var}^{l}"
            term = ql if mag == 1 else f"{mag}{ql}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + term)
        else:
            parts.append("-" + term if c < 0 else term)
        shown += 1
    txt = " ".join(parts)
    if s.order != INF:
        txt += f" + O({var}^{int(s.order)})"
    return txt


def _coef_str(c) -> str:
    return str(c) if type(c) is int else f"{c.numerator}/{c.denominator}"


def _coef_parse(t: str):
    if "/" in t:
        num, den = t.split("/", 1)
        return _canon(Fraction(int(num), int(den)))
    return int(t)


def to_json(s: LaurentSeries) -> dict:
    """Exchange form: valuation, order, coefficient decimal strings."""
    if s.is_zero:
        order = 0 if s.order == INF else int(s.order)
        return {"valuation": order, "order": order, "coeffs": []}
    order = int(s.order) if s.order != INF else s.valuation + len(s.coeffs)
    cs = list(s.coeffs) + [0] * (order - s.valuation - len(s.coeffs))
    return {
        "valuation": s.valuation,
        "order": order,
        "coeffs": [_coef_str(c) for c in cs],
    }


def from_json(d: dict) -> LaurentSeries:
    return LaurentSeries(
        int(d["valuation"]), [_coef_parse(t) for t in d["coeffs"]], int(d["order"])
    )




# -- exact series as Laurent polynomials over Z -------------------------------


def assert_polynomial(s: LaurentSeries, context: str = "series") -> LaurentSeries:
    """s itself when it is a polynomial in Z[q]: exact, integral, valuation >= 0."""
    if s.order != INF or s.valuation < 0:
        raise ValueError(f"{context}: {format_q(s)} is not a polynomial in q")
    return assert_integral(s, context)


def poly_coeffs(s: LaurentSeries) -> list:
    """Dense coefficients of a polynomial in Z[q], from q^0 through its degree."""
    return assert_polynomial(s, "poly_coeffs").coefficients(0, s._content_end())


def reversal(s: LaurentSeries, d: int) -> LaurentSeries:
    """q^d s(1/q) of an exact series."""
    if s.order != INF:
        raise ValueError("reversal needs an exact series")
    if s.is_zero:
        return s
    return LaurentSeries(d + 1 - s._content_end(), s.coeffs[::-1])


def _frac_divmod(a: list, b: list) -> tuple[list, list]:
    # a, b: Fraction coefficient lists (ascending), b nonzero
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        f = a[k + len(b) - 1] * inv_lead
        if f:
            q[k] = f
            for i, bc in enumerate(b):
                a[k + i] -= f * bc
    while a and not a[-1]:
        a.pop()
    return q, a


def poly_gcd(p: LaurentSeries, r: LaurentSeries) -> LaurentSeries:
    """gcd of two exact integral series: q^min(valuations) times the gcd in
    Z[q] of their parts p / q^val(p) and r / q^val(r), that is the primitive
    gcd over Q[q] times the gcd of the contents, leading coefficient > 0."""
    if p.is_zero or r.is_zero:
        g = r if p.is_zero else p
        return -g if g and g.coeffs[-1] < 0 else g
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in r.coeffs]
    while b:
        _, rem = _frac_divmod(a, b)
        a, b = b, rem
    den = math.lcm(*(c.denominator for c in a))
    g = [int(c * den) for c in a]
    prim = math.gcd(*g) if g[-1] > 0 else -math.gcd(*g)
    cont = math.gcd(math.gcd(*p.coeffs), math.gcd(*r.coeffs))
    return LaurentSeries(min(p.valuation, r.valuation), [c // prim * cont for c in g])


def poly_divexact(p: LaurentSeries, d: LaurentSeries) -> LaurentSeries:
    """Exact division of exact integral series in Z[q, 1/q]; raises
    NonExactDivision on failure."""
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return p
    q, rem = _frac_divmod([Fraction(c) for c in p.coeffs],
                          [Fraction(c) for c in d.coeffs])
    if rem:
        raise NonExactDivision("polynomial division left a remainder")
    if any(c.denominator != 1 for c in q):
        raise NonExactDivision("polynomial quotient is not integral")
    return LaurentSeries(p.valuation - d.valuation, q)
