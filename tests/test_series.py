"""Unit tests for the exact Laurent-series core, polynomials included."""

import random
from fractions import Fraction

import pytest

from qmetallic.series import (
    INF,
    _square_sum,
    LaurentSeries,
    constant,
    from_json,
    monomial,
    poly_coeffs,
    poly_divexact,
    poly_gcd,
    reversal,
    series_div,
    series_inverse,
    series_mul,
    series_sqrt,
    to_json,
    zero,
    format_q,
)
from qmetallic.errors import (
    BadConstantTerm,
    InsufficientOrder,
    NonExactDivision,
    NonIntegralCoefficient,
    ZeroSeries,
)


def L(val, coeffs, order=INF):
    return LaurentSeries(val, coeffs, order)


# -- construction and normalization -------------------------------------------------


def test_leading_zeros_normalized():
    s = L(-2, [0, 0, 3, 1])
    assert s.valuation == 0 and list(s.coeffs) == [3, 1]


def test_zero_series():
    assert zero().is_zero
    assert L(5, [0, 0]).is_zero
    assert not constant(7).is_zero


def test_constant_and_monomial():
    assert constant(4).valuation == 0
    m = monomial(2, -3)
    assert m.valuation == -3 and m.coeffs[0] == 2


def test_equality_and_inf_order():
    assert constant(1) == L(0, [1])
    assert zero() == zero()
    # finite-order series compare by window data
    assert L(0, [1, 2], 2) == L(0, [1, 2], 2)
    assert L(0, [1, 2], 2) != L(0, [1, 2, 0], 3)
    # the window must fill the order exactly
    with pytest.raises(ValueError):
        L(0, [1, 2], 3)


# -- window bookkeeping -------------------------------------------------------------


def test_first_mismatch():
    a = L(0, [1, 2, 3])
    b = L(0, [1, 2, 4])
    assert a.first_mismatch(b) == 2
    assert a.first_mismatch(b, upto=2) is None
    assert a.first_mismatch(a) is None


def test_first_mismatch_reads_every_known_exponent():
    # against a reference that reads one exponent at a time
    rng = random.Random(13)
    for _ in range(500):
        pair = []
        for _ in range(2):
            v, k = rng.randint(-4, 4), rng.randint(0, 6)
            cs = [rng.choice([0, 0, 1, -1, Fraction(1, 2)]) for _ in range(k)]
            pair.append(L(v, cs, rng.choice([INF, v + k])))
        a, b = pair
        upto = rng.choice([None, -5, 0, 3, 7])
        hi = min(a.order, b.order, INF if upto is None else upto)
        if hi == INF:
            hi = max(a.valuation + len(a.coeffs) if a else 0,
                     b.valuation + len(b.coeffs) if b else 0)
        want = next((l for l in range(-10, int(hi)) if a[l] != b[l]), None)
        assert a.first_mismatch(b, upto) == want


def test_first_mismatch_with_zero_series():
    assert zero().first_mismatch(zero()) is None
    assert zero(4).first_mismatch(L(-2, [0, 0, 3])) == 0
    assert L(6, [1]).first_mismatch(zero(5)) is None
    assert L(-3, [2, 0, 1], 0).first_mismatch(zero()) == -3


def test_eq_mod():
    a = L(0, [1, 2, 3])
    assert a.eq_mod(L(0, [1, 2, 99]), upto=2)
    assert not a.eq_mod(L(0, [1, 5]), upto=2)


def test_truncate_pads_with_explicit_window():
    s = L(0, [1, 2]).truncate(5)
    assert s.order == 5
    assert s.coefficients(0, 5) == [1, 2, 0, 0, 0]


def test_truncate_cannot_extend_knowledge():
    s = L(0, [1, 2], 2)
    assert s.truncate(5) is s            # order stays 2
    with pytest.raises(InsufficientOrder):
        s[3]


def test_shift():
    s = L(1, [1, 2], 3).shift(-3)
    assert s.valuation == -2 and s.order == 0


def test_coefficients_range():
    s = L(-1, [5, 0, 7])
    assert s.coefficients(-2, 3) == [0, 5, 0, 7, 0]


def test_is_integral():
    assert L(0, [1, -2]).is_integral()
    assert not L(0, [Fraction(1, 2)]).is_integral()
    assert L(0, [Fraction(4, 2)]).is_integral()


# -- arithmetic ---------------------------------------------------------------------


def test_add_orders_min():
    a = L(0, [1, 1, 0, 0], 4)
    b = L(0, [1, 0], 2)
    assert (a + b).order == 2


def test_add_different_valuations_and_orders():
    # each operand's window, zero-padded to the shared range, cut at the least order
    a = L(-2, [3, 0, 1, 4, 5], 3)        # 3q^-2 + 1 + 4q + 5q^2 + O(q^3)
    b = L(1, [7, -5, 9, 9], 5)           # 7q - 5q^2 + 9q^3 + 9q^4 + O(q^5)
    s = a + b
    assert (s.valuation, s.order) == (-2, 3)
    assert s.coefficients(-2, 3) == [3, 0, 1, 11, 0]
    assert b + a == s
    # b starts at or past a's order: only its absence is known there
    c = L(4, [1, 2], 6)
    assert a + c == a
    # exact operands: the sum ends at its last nonzero term
    p = L(-1, [1, 0, 2]) + L(2, [-1, 6]) + L(1, [-2, 1, -6])
    assert p == L(-1, [1, 0, 0, 0])
    assert (p.valuation, p.coeffs, p.order) == (-1, (1,), INF)


def test_coefficients_past_the_order():
    s = L(0, [1, 2], 2)
    assert s.coefficients(1, 1) == [] and s.coefficients(0, 2) == [1, 2]
    with pytest.raises(InsufficientOrder, match=r"q\^2 unknown"):
        s.coefficients(-1, 3)
    with pytest.raises(InsufficientOrder, match=r"q\^5 unknown"):
        s.coefficients(5, 6)


def test_add_scalar_coercion():
    s = L(0, [1, 2]) + 5
    assert s.coefficients(0, 2) == [6, 2]
    s = 1 - L(0, [1, 2])
    assert s.coefficients(0, 2) == [0, -2]


def test_mul_known_window():
    # orders: min over val_a + order_b, val_b + order_a
    a = L(1, [1, 1, 0], 4)
    b = L(0, [1, 1, 0, 0, 0], 5)
    p = series_mul(a, b)
    assert p.valuation == 1 and p.order == 4
    assert p.coefficients(1, 4) == [1, 2, 1]


def test_mul_exact_polynomials():
    a = L(0, [1, 1])
    assert series_mul(a, a) == L(0, [1, 2, 1])


def test_square_sum_is_the_sum_over_its_range():
    rng = random.Random(5)
    for m in range(12):
        x = [rng.randint(-9, 9) for _ in range(m)]
        for k in range(2 * m + 1):
            for lo in range(3):
                want = sum(x[i] * x[k - i] for i in range(lo, k - lo + 1)
                           if i < m and k - i < m)
                assert _square_sum(x, k, lo) == want


def _other_object(s):
    """An equal series that is not s, so s * _other_object(s) takes the
    general product where s * s takes the square."""
    c = LaurentSeries(s.valuation, s.coeffs, s.order)
    assert c == s and c is not s
    return c


@pytest.mark.parametrize("field", ["Z", "Q"])
def test_square_is_the_general_product(field):
    rng = random.Random(1618 if field == "Z" else 2718)
    cases = []
    for v in range(-5, 6):
        for m in range(41):
            cs = [_random_coeff(rng, field) for _ in range(m)]
            exact = L(v, cs)
            # exact, truncated, and truncated below the exact window's end
            cases += [exact, L(v, cs, v + m), exact.truncate(v + m // 2)]
    half = Fraction(1, 2) if field == "Q" else 1
    sparse = [monomial(1, 7) + half, L(-3, [half] + [0] * 9 + [5] + [0] * 12
                                       + [-1]), monomial(half, 30) - 1]
    cases += sparse + [s.truncate(12) for s in sparse]
    for s in cases:
        assert s * s == s * _other_object(s)


@pytest.mark.parametrize("k", [-3, 0, 4])
def test_mul_by_exact_unit_monomial_is_the_shift(k):
    # the same window, order and trailing zeros as the full product gives
    for s in (L(-2, [3, 0, Fraction(1, 2), -1], 2), L(1, [1, 2, 0])):
        expected = L(s.valuation + k, s.coeffs, s.order + k)
        assert s * monomial(1, k) == expected
        assert monomial(1, k) * s == expected


def test_derivative():
    s = L(-1, [1, 0, 3]).derivative()
    assert s == L(-2, [-1, 0, 3])


def test_inverse_geometric():
    inv = series_inverse(L(0, [1, -1]), 6)
    assert inv.coefficients(0, 6) == [1, 1, 1, 1, 1, 1]


def test_inverse_respects_valuation():
    inv = series_inverse(L(2, [1, -1]), 4)
    assert inv.valuation == -2
    assert series_mul(inv, L(2, [1, -1])).eq_mod(constant(1), upto=1)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroSeries):
        series_inverse(zero(), 4)


def test_inverse_insufficient_order():
    with pytest.raises(InsufficientOrder):
        series_inverse(L(0, [1, 1, 0], 3), 10)


def test_div():
    num = L(0, [1, 0, -1])          # (1-q)(1+q)
    den = L(0, [1, -1] + [0] * 10, 12)
    q = series_div(num, den, 8)
    assert q.coefficients(0, 2) == [1, 1]


def _random_coeff(rng, field):
    c = rng.randint(-6, 6)
    return Fraction(c, rng.randint(1, 5)) if field == "Q" else c


@pytest.mark.parametrize("field", ["Z", "Q"])
def test_div_contract(field):
    rng = random.Random(271828 if field == "Z" else 314159)
    for _ in range(300):
        vd = rng.randint(-3, 3)
        target = rng.randint(-4, 25)
        vn = rng.randint(-4, 4)
        t = target + vd - vn
        head = rng.choice([1, -1, 2, -3]) if field == "Z" else \
            Fraction(rng.choice([1, -2, 3]), rng.randint(1, 4))
        if rng.random() < 0.5:
            # short exact denominator
            den = L(vd, [head] + [_random_coeff(rng, field)
                                  for _ in range(rng.randint(0, 3))])
        else:
            known = max(t, 1) + rng.randint(0, 4)
            den = L(vd, [head] + [_random_coeff(rng, field)
                                  for _ in range(known - 1)], vd + known)
        ncs = [_random_coeff(rng, field) or 1] + \
            [_random_coeff(rng, field) for _ in range(rng.randint(0, 20))]
        exact = rng.random() < 0.4
        num = L(vn, ncs) if exact else L(vn, ncs, vn + len(ncs))
        r = series_div(num, den, target)
        assert r.order == min(target, num.order - vd)
        if r.is_zero:
            assert t < 1
            continue
        assert r.valuation == vn - vd
        upto = r.order + vd
        prod = series_mul(r, den)
        assert min(prod.order, num.order) >= upto
        assert prod.first_mismatch(num, upto=upto) is None


def test_div_of_zero_numerator():
    den = L(-2, [3, 1], 0)
    assert series_div(zero(), den, 8) == zero(8)
    assert series_div(zero(4), den, 8) == zero(6)
    assert series_div(zero(20), den, 8) == zero(8)


def test_div_insufficient_order():
    with pytest.raises(InsufficientOrder,
                       match="need 10 known coefficients of the unit part, have 3"):
        series_div(L(1, [1, 2]), L(1, [1, 1, 0], 4), 10)


def test_div_needs_only_what_the_numerator_determines():
    # num is known modulo q^2, so two coefficients of den suffice
    r = series_div(L(0, [1, 2], 2), L(0, [1, 1], 2), 10)
    assert r == L(0, [1, 1], 2)


def test_div_by_exact_cubic_is_not_padded(monkeypatch):
    from qmetallic import series as series_mod

    calls = []
    real = series_mod._window_div

    def spy(num, den, n):
        calls.append((len(num), len(den), n))
        return real(num, den, n)

    monkeypatch.setattr(series_mod, "_window_div", spy)
    num = L(0, list(range(1, 51)), 50)
    den = L(0, [1, 2, 0, 3])
    r = series_div(num, den, 40)
    assert calls == [(40, 4, 40)]
    assert series_mul(r, den).eq_mod(num, upto=40)


def test_sqrt_strict_contract():
    with pytest.raises(BadConstantTerm):
        series_sqrt(L(0, [4, 1] + [0] * 8, 10), 4)
    with pytest.raises(BadConstantTerm):
        series_sqrt(L(1, [1] + [0] * 8, 10), 4)


def test_sqrt_integer_result_stays_integral():
    s = L(0, [1, 2, 1] + [0] * 9, 12)   # (1+q)^2
    r = series_sqrt(s, 8)
    assert r.eq_mod(L(0, [1, 1]), upto=7)
    assert r.is_integral()


def test_sqrt_pads_a_short_exact_polynomial():
    r = series_sqrt(L(0, [1, 2, 1]), 8)   # exact (1+q)^2, shorter than 8
    assert r == L(0, [1, 1] + [0] * 6, 8)
    assert format_q(r) == "1 + q + O(q^8)"


def test_sqrt_of_one_plus_q_is_the_binomial_series():
    binom, c = [], Fraction(1)
    for k in range(12):
        binom.append(c)
        c = c * (Fraction(1, 2) - k) / (k + 1)
    assert series_sqrt(L(0, [1, 1]), 12) == L(0, binom, 12)


# -- serialization ------------------------------------------------------------------


def test_json_round_trip():
    s = L(-2, [1, Fraction(1, 3), -4], 1)
    d = to_json(s)
    assert d["valuation"] == -2 and d["order"] == 1
    assert all(isinstance(c, str) for c in d["coeffs"])
    assert from_json(d) == s


def test_format_q():
    assert format_q(L(-1, [-1, 0, 2])) == "-q^-1 + 2q"
    assert format_q(zero()) == "0"


# -- randomized mini-suite (independent seed from the acceptance run) ---------------


def _rand_series(rng, order=32):
    val = rng.randint(-4, 4)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(order - val)]
    return LaurentSeries(val, coeffs, order)


def test_randomized_ring_axioms():
    rng = random.Random(1414213)
    for _ in range(200):
        a, b, c = (_rand_series(rng) for _ in range(3))
        assert (a + b) - b == a
        lhs = series_mul(a, b + c)
        rhs = series_mul(a, b) + series_mul(a, c)
        assert lhs.first_mismatch(rhs) is None
        assert series_mul(a, b).first_mismatch(series_mul(b, a)) is None


# -- polynomials as exact series -----------------------------------------------------


def test_poly_basics():
    p = L(0, [1, 2, 3])
    assert poly_coeffs(p) == [1, 2, 3]
    assert poly_coeffs(p + p) == [2, 4, 6]
    assert poly_coeffs(p * p) == [1, 4, 10, 12, 9]
    assert poly_coeffs(p.derivative()) == [2, 6]


def test_poly_trailing_zeros():
    p = L(0, [1, 0, 0])
    assert p.coeffs == (1,) and p == constant(1)
    assert poly_coeffs(L(0, [])) == [] and L(0, [0, 0]) == zero()


def test_exact_series_are_canonical():
    s = constant(1) + monomial(1, 1) - monomial(1, 1)
    assert s.coeffs == (1,)
    assert s == constant(1) and hash(s) == hash(constant(1))
    assert L(-1, [0, 2, 0]) == monomial(2, 0)
    # a truncated series keeps its known zeros
    assert L(0, [1, 0], 2).coeffs == (1, 0)


def test_reversal_pads_then_reverses():
    p = L(0, [1, 2])
    assert poly_coeffs(reversal(p, 3)) == [0, 0, 2, 1]
    assert reversal(L(-1, [1, 2]), 0) == L(0, [2, 1])  # q^-1 + 2 -> q + 2
    with pytest.raises(ValueError):
        reversal(L(0, [1, 2], 2), 3)


def test_palindromic():
    assert reversal(L(0, [1, 3, 1]), 2) == L(0, [1, 3, 1])
    assert reversal(L(0, [1, 3, 2]), 2) != L(0, [1, 3, 2])


def test_poly_to_series():
    # the dense view from q^0 reads a polynomial back
    assert poly_coeffs(L(0, [1, 0, 5])) == [1, 0, 5]
    assert poly_coeffs(monomial(2, 1)) == [0, 2]
    for bad in (L(-1, [1]), L(0, [1, 0, 5], 3), L(0, [Fraction(1, 2)])):
        with pytest.raises((ValueError, NonIntegralCoefficient)):
            poly_coeffs(bad)


def test_poly_gcd_and_divexact():
    a = L(0, [1, 1])          # 1+q
    b = L(0, [1, 2, 1])       # (1+q)^2
    g = poly_gcd(a * b, b)
    assert poly_coeffs(g) == [1, 2, 1]
    assert poly_gcd(a * 6, b * -4) == a * 2
    assert poly_gcd(a.shift(2), b.shift(-1)) == a.shift(-1)
    q = poly_divexact(b, a)
    assert poly_coeffs(q) == [1, 1]
    assert poly_divexact(b, a.shift(1)) == a.shift(-1)
    with pytest.raises(NonExactDivision):
        poly_divexact(L(0, [1, 0, 1]), a)
    with pytest.raises(NonExactDivision):
        poly_divexact(a, L(0, [2]))
