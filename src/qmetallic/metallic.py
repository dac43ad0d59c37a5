"""Series engines for the q-deformed metallic numbers.

The deformed value of the metallic number with trace n (continued fraction
[n; n, n, ...]) is a power series F(q) = sum kappa_l q^l with integer
coefficients.  It satisfies the quadratic equation

    q F^2 = R F + 1,      R = q [n]_q + (q^n + 1)(q - 1),

whose discriminant R^2 + 4q factors as (1 - q + q^2) * Q with Q palindromic.
Four independent engines produce the coefficients: the quadratic equation by
convolution, a linear recurrence with degree-1 polynomial coefficients
(driven by the discriminant), the explicit square root of the discriminant,
and closed-form binomial sums for n = 1, 2, 3.
"""

from __future__ import annotations

import decimal
import math
import sys
import threading
from fractions import Fraction

from .errors import (BadTable, NonExactDivision, NonIntegralResult,
                     QMetallicError)
from .qnum import QuadraticForm
from .record import record
from .series import LaurentSeries, _square_sum, monomial, poly_coeffs, zero

ENGINE_TAGS = ("conv", "precurrence", "closedform", "sqrt")


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ValueError("metallic index must be >= 1")
    return n


# -- characteristic polynomials (exact series) ----------------------------------


def _edge(n: int) -> LaurentSeries:
    """(q^n + 1)(q - 1)."""
    return (monomial(1, n) + 1) * LaurentSeries(0, [-1, 1])


def poly_R(n: int) -> LaurentSeries:
    """Linear coefficient of the quadratic equation: q [n]_q + (q^n+1)(q-1)."""
    n = _check_n(n)
    return LaurentSeries(1, [1] * n) + _edge(n)


def poly_Q(n: int) -> LaurentSeries:
    """Reduced discriminant factor: [n+1]_q^2 - q [2n-1]_q + 2 q^n."""
    n = _check_n(n)
    a = LaurentSeries(0, [1] * (n + 1))
    return a * a - LaurentSeries(1, [1] * (2 * n - 1)) + monomial(2, n)


def poly_P(n: int) -> LaurentSeries:
    """Discriminant R^2 + 4q; factors as (1 - q + q^2) * Q (checked)."""
    n = _check_n(n)
    r = poly_R(n)
    p = r * r + monomial(4, 1)
    if p != LaurentSeries(0, [1, -1, 1]) * poly_Q(n):
        raise QMetallicError(f"discriminant factorization failed for n = {n}")
    return p


# -- coefficient tables ---------------------------------------------------------


def _digit_limit() -> int:
    """Python's int/str digit limit; 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _decimal_texts(values) -> list:
    """str of each int, past the int/str digit limit too: a longer value
    goes through Decimal, which converts any int exactly and has no limit."""
    limit = _digit_limit()
    if not limit:
        return list(map(str, values))
    bound = 10 ** limit
    return [str(v) if -bound < v < bound else str(decimal.Decimal(v))
            for v in values]


def _ints(texts) -> tuple:
    """int of each canonical decimal text, past the digit limit too."""
    limit = _digit_limit()
    return tuple(int(t) if not limit or len(t) <= limit
                 else int(decimal.Decimal(t)) for t in texts)


def _decimal_body(texts: list) -> bytes:
    """The body form of a table: each canonical decimal text followed by a
    newline, as ASCII bytes.  Empties `texts` once they are joined, so that
    no more than two copies of the text are alive at once."""
    joined = "\n".join([*texts, ""])
    texts.clear()
    return joined.encode("ascii")


def _line_end(body: bytes, k: int, lines: int = 0) -> int:
    """The offset just past the k-th newline of body.  When body is known
    to hold `lines` newlines and k is past half of them, the search steps
    back from the end over the lines after the k-th."""
    try:
        if lines - k < k <= lines:
            end = len(body)
            for _ in range(lines - k):
                end = body.rindex(b"\n", 0, end - 1) + 1
            return end
        end = 0
        for _ in range(k):
            end = body.index(b"\n", end) + 1
    except ValueError:
        raise BadTable("length does not match upto") from None
    return end


class CoeffTable:
    """First `upto` series coefficients (exponents 0..upto-1) for index n.

    The coefficients are held as ints (`values`), as the decimal body
    (`body`: each coefficient's canonical text, what str gives, followed by
    a newline, in ASCII bytes; a cache entry's bytes after its header
    line), or both.  An engine builds a table from ints, and the cache and
    the recurrence's decimal text from a body, which the caller checks:
    canonical text, `upto` lines.  The ints are parsed from the body on
    first use, and the body is made from the ints on first use, so a table
    that is both cached and printed is converted once and a cached table
    is printed as read.  `text`, the tuple of the lines, is derived from
    the body on each call.
    """

    __slots__ = ("n", "upto", "engine", "_values", "_body")

    def __init__(self, n: int, upto: int, values, engine: str, body=None):
        if engine not in ENGINE_TAGS:
            raise ValueError(f"unknown engine tag {engine!r}")
        k = min(upto, 2 * n + 1)
        if values is not None:
            if len(values) != upto:
                raise BadTable("length does not match upto")
            head, one, zero = list(values[:k]), 1, 0
        else:
            lines = body[:_line_end(body, k)].split(b"\n")[:-1]
            head, one, zero = lines, b"1", b"0"
        if head[: n + 1] != [one] * min(n, upto) + ([zero] if upto > n else []):
            raise BadTable("series must start with n ones then a zero")
        if upto > 2 * n and head[2 * n] != one:
            raise BadTable("coefficient at exponent 2n must be 1")
        self.n, self.upto, self.engine = n, upto, engine
        self._values = None if values is None else tuple(values)
        self._body = body

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = _ints(self._body.decode("ascii").split("\n")[:-1])
        return self._values

    @property
    def body(self) -> bytes:
        if self._body is None:
            self._body = _decimal_body(_decimal_texts(self._values))
        return self._body

    @property
    def text(self) -> tuple:
        return tuple(self.body.decode("ascii").split("\n")[:-1])

    def truncate(self, upto: int) -> "CoeffTable":
        """The first `upto` coefficients, in the forms this table holds."""
        if upto == self.upto:
            return self
        values, body = self._values, self._body
        return CoeffTable(
            self.n, upto, None if values is None else values[:upto],
            self.engine,
            None if body is None else body[:_line_end(body, upto, self.upto)])

    def to_series(self) -> LaurentSeries:
        return LaurentSeries(0, list(self.values), self.upto)

    def __getitem__(self, l: int) -> int:
        return self.values[l]


@record
class RecurrenceSpec:
    """Linear recurrence sum_j c_j(l) kappa_{l-j} = 0 with c_j(l) = a j-th
    pair (a, b) meaning a*l + b; lags run 0..order, zero pairs included."""

    n: int
    order: int
    valid_from: int
    coeff_polys: tuple

    def coefficient(self, lag: int, l: int) -> int:
        a, b = self.coeff_polys[lag]
        return a * l + b

    def nonzero_lags(self) -> tuple:
        return tuple(j for j, (a, b) in enumerate(self.coeff_polys) if a or b)


def recurrence_spec(n: int) -> RecurrenceSpec:
    """Polynomial-coefficient recurrence satisfied by the coefficients from
    l = 2n+2 on; lag-j coefficient is p_j (2l + 2 - 3j) / 2, with p_j the
    discriminant coefficients.  The halving is exact: (2 - 3j) is even at
    even j, and p_j is even at odd j, as P = R^2 + 4q = R(q^2) mod 2."""
    n = _check_n(n)
    p = poly_P(n)
    pairs = tuple((p[j], (2 - 3 * j) * p[j] // 2) for j in range(2 * n + 3))
    return RecurrenceSpec(n=n, order=2 * n + 2, valid_from=2 * n + 2,
                          coeff_polys=pairs)


def _conv_values(n: int, L: int) -> list:
    """Coefficients 0..L-1 from the quadratic equation, each from the
    coefficient [q^(l-1)] F^2 of the ones before it (series._square_sum)."""
    rc = poly_coeffs(poly_R(n))  # rc[0] == -1
    seeds = [1] * n + [0]
    vals = seeds[:L]
    for l in range(len(vals), L):
        acc = -_square_sum(vals, l - 1)
        for j in range(1, min(l, len(rc) - 1) + 1):
            cj = rc[j]
            if cj:
                acc += cj * vals[l - j]
        vals.append(acc)
    return vals


def _p_extend(n: int, vals: list, L: int) -> list:
    """Extend a table in place to length L using the polynomial recurrence.
    Needs len(vals) >= valid_from.  The number type is the seeds': int, or
    Decimal in an exact context (see kappa_text)."""
    spec = recurrence_spec(n)
    if len(vals) < spec.valid_from:
        raise ValueError("not enough seed values to run the recurrence")
    lags = [(j, ab) for j, ab in enumerate(spec.coeff_polys) if j and ab != (0, 0)]
    a0, b0 = spec.coeff_polys[0]
    for l in range(len(vals), L):
        acc = 0
        for j, (a, b) in lags:
            acc += (a * l + b) * vals[l - j]
        lead = a0 * l + b0
        q, rem = divmod(-acc, lead)
        if rem:
            raise NonExactDivision(
                f"recurrence step at exponent {l} is not divisible by {lead}"
            )
        vals.append(q)
    return vals


def coeffs_convolution(n: int, L: int) -> CoeffTable:
    n = _check_n(n)
    return CoeffTable(n, L, tuple(_conv_values(n, L)), "conv")


def coeffs_p_recurrence(n: int, L: int) -> CoeffTable:
    """The recurrence engine, read from the kappa_values store."""
    n = _check_n(n)
    return CoeffTable(n, L, tuple(kappa_values(n, L)), "precurrence")


def phi_series_sqrt(n: int, L: int) -> LaurentSeries:
    """The deformed metallic series modulo q^L via (R + sqrt(P)) / (2q)."""
    n = _check_n(n)
    return QuadraticForm(poly_R(n), poly_P(n), monomial(2, 1), 1).to_series(L)


def coeffs_sqrt(n: int, L: int) -> CoeffTable:
    s = phi_series_sqrt(n, L)
    return CoeffTable(n, L, tuple(s.coefficients(0, L)), "sqrt")


# -- closed forms (n = 1, 2, 3) --------------------------------------------------


def multinomial(j: int, parts) -> int:
    """Multinomial coefficient j! / prod(parts!), 0 when any part is negative.
    The parts must sum to j."""
    ps = list(parts)
    if any(p < 0 for p in ps):
        return 0
    if sum(ps) != j:
        raise ValueError("multinomial parts must sum to j")
    out = 1
    rest = j
    for p in ps[:-1]:
        out *= math.comb(rest, p)
        rest -= p
    return out


def closed_form_golden(l: int) -> int:
    """Signed Narayana-sum closed form for n = 1."""
    if l < 0:
        raise ValueError("negative exponent")
    if l < 2:
        return (1, 0)[l]
    total = Fraction(0)
    for k in range(1, l // 2 + 1):
        total += Fraction(math.comb(l - k, k) * math.comb(l - k, k - 1), l - k)
    if total.denominator != 1:
        raise NonIntegralResult(f"golden closed form at {l}: {total}")
    return (-1) ** l * total.numerator


def closed_form_silver(l: int) -> int:
    """Binomial double-sum closed form for n = 2."""
    if l < 0:
        raise ValueError("negative exponent")
    if l < 4:
        return (1, 1, 0, 0)[l]
    total = Fraction(0)
    for j in range((l + 1) // 3, (l - 2) // 2 + 1):
        inner = 0
        for k in range((j - 1) // 2 + 1):
            e = 3 * j - k - l + 1
            m = multinomial(j, (k, k + 1, l - 2 - 2 * j - k, e))
            if m:
                inner += (2 ** e) * m
        if inner:
            total += Fraction((-1) ** (j + l - 1) * inner, j)
    if total.denominator != 1:
        raise NonIntegralResult(f"silver closed form at {l}: {total}")
    return total.numerator


def closed_form_bronze(l: int) -> int:
    """Binomial triple-sum closed form for n = 3."""
    if l < 0:
        raise ValueError("negative exponent")
    if l < 5:
        return (1, 1, 1, 0, 0)[l]
    total = Fraction(0)
    for j in range((l + 1) // 4, (l - 4) // 2 + 1):
        inner = 0
        for k in range((j - 1) // 2 + 1):
            for i in range(4 * j - k - l + 3):
                e = 4 * j - k - 2 * i - l + 2
                m = multinomial(j, (k, k + 1, i, l - 3 - 3 * j - k + i, e))
                if m:
                    inner += (-1) ** i * (2 ** e) * m
        if inner:
            total += Fraction((-1) ** l * inner, j)
    if total.denominator != 1:
        raise NonIntegralResult(f"bronze closed form at {l}: {total}")
    return total.numerator


_CLOSED_FORMS = {1: closed_form_golden, 2: closed_form_silver, 3: closed_form_bronze}


def coeffs_closed_form(n: int, L: int) -> CoeffTable:
    n = _check_n(n)
    f = _CLOSED_FORMS.get(n)
    if f is None:
        raise ValueError("closed forms exist only for n in {1, 2, 3}")
    return CoeffTable(n, L, tuple(f(l) for l in range(L)), "closedform")


# -- shared grow-only coefficient store -----------------------------------------

_tables: dict[int, list] = {}
_tables_lock = threading.Lock()


def _seed_values(n: int) -> list:
    """The first 2n + 2 coefficients, closed: F = [n]_q + q^(2n) - [n = 1] q^3
    modulo q^(2n+2).

    With T = [n]_q and G = T + q^(2n), the identities (1 - q) T = 1 - q^n
    and R = qT - (1 - q)(1 + q^n) give

        q G^2 - R G - 1 = q^(2n+1) (T - 1) + q^(3n) - q^(3n+1) + q^(4n+1),

    which is O(q^(2n+2)) for n >= 2 and q^3 + O(q^4) for n = 1.  As
    q F^2 - R F - 1 = 0, F - G = -(q G^2 - R G - 1) / (q (F + G) - R), whose
    divisor is 1 + O(q); so F = G modulo q^(2n+2), less q^3 when n = 1.
    """
    return [1] * n + [0] * n + [1, -1 if n == 1 else 0]


def kappa_values(n: int, L: int) -> list:
    """First L coefficients as ints, grown per index in-process."""
    n = _check_n(n)
    if L < 0:
        raise ValueError("number of coefficients must be >= 0")
    with _tables_lock:
        vals = _tables.setdefault(n, [])
        if len(vals) < L:
            if len(vals) < 2 * n + 2:
                vals[:] = _seed_values(n)
            if len(vals) < L:
                _p_extend(n, vals, L)
        return vals[:L]


# integer arithmetic in Decimal: a result that would round, or a quotient
# past the precision, raises instead
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow])


def kappa_text(n: int, L: int) -> tuple:
    """str of each of the first L coefficients, from the recurrence run on
    Decimal seeds.  No step may round, so every step is exact and a
    non-exact division still raises NonExactDivision.  libmpdec holds base
    10^19 digits, so this str is linear where str of an int is quadratic;
    int(Decimal) is not cheap, so the int store serves everything else."""
    n = _check_n(n)
    vals = [decimal.Decimal(v) for v in kappa_values(n, min(L, 2 * n + 2))]
    if len(vals) < L:
        with decimal.localcontext(_EXACT):
            _p_extend(n, vals, L)
    return tuple(map(str, vals))


def kappa(n: int, l: int) -> int:
    if l < 0:
        raise ValueError("negative exponent")
    return kappa_values(n, l + 1)[l]


def phi_series(n: int, L: int) -> LaurentSeries:
    return LaurentSeries(0, kappa_values(n, L), L)


# -- verification ----------------------------------------------------------------


@record
class CheckResult:
    """Truthy when the identity holds through the checked window."""

    ok: bool
    first_failure: int | None = None
    checked_order: int = 0
    label: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _zero_check(s: LaurentSeries, upto: int, label: str) -> CheckResult:
    fail = s.first_mismatch(zero(), upto)
    return CheckResult(fail is None, fail, upto, label)


def residual(n: int, f: LaurentSeries, agreed: int = 0) -> LaurentSeries:
    """E = q f^2 - R f - 1 modulo q^(f.order) for a power series f: zero,
    as far as f is known, when f is F.  Built one coefficient at a time,

        E_l = [q^(l-1)] f^2 - [q^l] R f - [l = 0],

    which reads only f_0..f_l.  `agreed` is a bound below which f is the
    conv engine's table: _conv_values chooses each kappa_l, l >= n + 1, so
    that E_l = 0, so E_l for n + 1 <= l < agreed is zero and not computed.
    With no such bound (0), every coefficient is computed."""
    n = _check_n(n)
    if f.valuation < 0 or f.order == math.inf:
        raise ValueError("residual needs a truncated power series")
    N = int(f.order)
    x = f.coefficients(0, N)
    rc = poly_coeffs(poly_R(n))
    e = [0] * N
    for l in (*range(min(n + 1, N)), *range(max(n + 1, agreed), N)):
        acc = _square_sum(x, l - 1) - (l == 0)
        for j in range(min(l, len(rc) - 1) + 1):
            acc -= rc[j] * x[l - j]
        e[l] = acc
    return LaurentSeries(0, e, N)


def verify_functional_equation(n: int, L: int) -> CheckResult:
    """Check q F^2 - R F - 1 == 0 through q^(L-1)."""
    return _zero_check(residual(n, phi_series(n, L)), L, "functional-equation")


def verify_ode(n: int, L: int) -> CheckResult:
    """Check the first-order differential equation
    4qP F' + (4P - 2qP') F + (R P' - 2 P R') == 0 through q^(L - (2n+3) - 1)."""
    n = _check_n(n)
    if L < 2 * n + 4:
        raise ValueError("need L >= 2n + 4")
    f = phi_series(n, L)
    fp = f.derivative()
    P = poly_P(n)
    R = poly_R(n)
    Pp, Rp = P.derivative(), R.derivative()
    lhs = (
        (P * fp).shift(1) * 4
        + (P * 4 - Pp.shift(1) * 2) * f
        + (R * Pp - 2 * (P * Rp))
    )
    return _zero_check(lhs, L - (2 * n + 3), "differential-equation")


# -- Hankel determinants ----------------------------------------------------------


def _bareiss_det(rows: list) -> int:
    """Fraction-free determinant of a square integer matrix."""
    m = len(rows)
    if m == 0:
        return 1
    M = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(m - 1):
        if M[k][k] == 0:
            for r in range(k + 1, m):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = M[k][k]
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                M[i][j] = (M[i][j] * pivot - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = pivot
    return sign * M[m - 1][m - 1]


def hankel(n: int, s: int, j: int) -> int:
    """Hankel determinant det(kappa_{a+b+s}) of size j, shift s >= 0."""
    n = _check_n(n)
    if s < 0 or j < 0:
        raise ValueError("shift and size must be >= 0")
    if j == 0:
        return 1
    vals = kappa_values(n, 2 * (j - 1) + s + 1)
    return _bareiss_det([[vals[a + b + s] for b in range(j)] for a in range(j)])


# -- engine registry ---------------------------------------------------------------


_ENGINE_ALIASES = {
    "conv": "conv",
    "prec": "precurrence",
    "precurrence": "precurrence",
    "sqrt": "sqrt",
    "closed": "closedform",
    "closedform": "closedform",
}


def canonical_engine_tag(tag: str) -> str:
    try:
        return _ENGINE_ALIASES[tag]
    except KeyError:
        raise ValueError(f"unknown engine {tag!r}") from None


def table_engine(tag: str):
    # built per call, so an engine replaced on this module is the one used
    engines = {
        "conv": coeffs_convolution,
        "precurrence": coeffs_p_recurrence,
        "sqrt": coeffs_sqrt,
        "closedform": coeffs_closed_form,
    }
    return engines[canonical_engine_tag(tag)]
