"""Unit tests for q-integers, continued fractions, deformed rationals and
quadratic irrationals, and the projective group actions."""

import json
import os
from fractions import Fraction

import pytest

from qmetallic.series import INF, LaurentSeries, monomial, poly_coeffs, reversal
from qmetallic.errors import BranchMismatch, NonIntegralCoefficient
from qmetallic.metallic import phi_series, poly_P, poly_R
from qmetallic.qnum import (
    PeriodicCF,
    QRational,
    QuadraticForm,
    cf_to_text,
    negate,
    neg_reciprocal,
    parse_cf,
    q_integer,
    q_integer_recip_base,
    q_rational,
    q_real_truncated,
    quantize_quadratic,
    rational_cf,
    rational_value,
    reciprocal,
    shift,
)
from qmetallic.cli import _goldens_dir


def test_q_integer_positive():
    assert q_integer(3) == LaurentSeries(0, [1, 1, 1])
    assert q_integer(1) == LaurentSeries(0, [1])
    assert q_integer(0).is_zero


def test_q_integer_negative():
    s = q_integer(-2)
    assert s.valuation == -2 and list(s.coeffs) == [-1, -1]
    assert q_integer(-1) == LaurentSeries(-1, [-1])


def test_q_integer_recip_base():
    # [n]_{1/q} = q^(1-n) [n]_q
    s = q_integer_recip_base(3)
    assert s.valuation == -2 and list(s.coeffs) == [1, 1, 1]


# -- continued fractions ------------------------------------------------------------


def test_parse_and_print_round_trip():
    for text in ("1;(1)*", "2;(1,1,1,4)*", "0;2,(1,1,1,4)*", "5;2", "7",
                 "-3;1,2"):
        assert cf_to_text(parse_cf(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cf(";1,2")
    with pytest.raises(ValueError):
        parse_cf("2;(1,2")
    # an empty entry or period is an error, not silently dropped
    for text in ("1;()*", "1;2,,3", "1;,2", "2;(1,,2)*", "1;,(3)*"):
        with pytest.raises(ValueError):
            parse_cf(text)
    # a periodic block after preperiod entries needs its comma
    with pytest.raises(ValueError, match="missing comma"):
        parse_cf("1;2(3)*")
    assert parse_cf("1;2,(3)*") == PeriodicCF((1, 2), (3,))
    assert parse_cf("1;(3)*") == PeriodicCF((1,), (3,))


def test_entry_periodic_continuation():
    cf = parse_cf("2;(1,3)*")
    assert [cf.entry(i) for i in range(6)] == [2, 1, 3, 1, 3, 1]
    assert not cf.is_rational
    assert parse_cf("5;2").is_rational


def test_rational_cf_and_value_round_trip():
    cf = rational_cf(22, 7)
    assert cf.preperiod == (3, 7) and cf.period == ()
    assert rational_value(cf) == (22, 7)
    assert rational_value(rational_cf(-7, 3)) == (-7, 3)
    with pytest.raises(ValueError):
        rational_value(parse_cf("1;(1)*"))


# -- deformed rationals -------------------------------------------------------------


def test_q_rational_integer_case():
    for n in (1, 4, -3):
        s = q_rational(n, 1).to_series(10)
        assert s.first_mismatch(q_integer(n), upto=9) is None


def test_q_rational_validation():
    with pytest.raises(ValueError):
        q_rational(2, 4)
    with pytest.raises(ValueError):
        q_rational(1, 0)


def test_q_rational_shift_compatibility():
    # [x + 1] = q[x] + 1 for x >= 0
    a = q_rational(3, 2).to_series(12)
    b = shift(q_rational(1, 2).to_series(12), 1)
    assert a.first_mismatch(b, upto=11) is None


def test_q_rational_series_is_integral():
    assert q_rational(5, 3).to_series(20).is_integral()


# -- deformed quadratic irrationals -------------------------------------------------


def _golden_forms():
    with open(os.path.join(_goldens_dir(), "quadratic_forms.json")) as fh:
        return json.load(fh)


def test_quantize_golden_ratio_form():
    doc = _golden_forms()["phi1"]
    form = quantize_quadratic(parse_cf(doc["cf"]))
    assert poly_coeffs(form.R) == doc["R"]
    assert poly_coeffs(form.P) == doc["P"]
    assert poly_coeffs(form.S) == doc["S"]
    assert form.sign == doc["sign"]
    # P = R^2 + 4q for the metallic family
    assert form.P == form.R * form.R + monomial(4, 1)
    assert reversal(form.P, len(doc["P"]) - 1) == form.P


def test_quantize_sqrt7_form():
    doc = _golden_forms()["sqrt7"]
    form = quantize_quadratic(parse_cf(doc["cf"]))
    assert poly_coeffs(form.R) == doc["R"]
    assert poly_coeffs(form.P) == doc["P"]
    assert poly_coeffs(form.S) == doc["S"]
    assert reversal(form.P, len(doc["P"]) - 1) == form.P


def test_quadratic_form_series_matches_direct_deformation():
    doc = _golden_forms()["phi1"]
    form = QuadraticForm(LaurentSeries(0, doc["R"]), LaurentSeries(0, doc["P"]),
                         LaurentSeries(0, doc["S"]), doc["sign"])
    assert form.to_series(14).first_mismatch(phi_series(1, 14)) is None


def test_sqrt_disc_branch_errors():
    one = monomial(1, 0)
    odd = QuadraticForm(one, monomial(1, 1), one, 1)
    with pytest.raises(BranchMismatch):
        odd.sqrt_disc(4)
    nonsq = QuadraticForm(one, monomial(2, 0), one, 1)
    with pytest.raises(BranchMismatch):
        nonsq.sqrt_disc(4)


def test_sqrt_disc_with_a_square_leading_coefficient_other_than_one():
    form = QuadraticForm(LaurentSeries(0, []), LaurentSeries(0, [4, 8, 4]),
                         monomial(2, 0), 1)
    assert form.sqrt_disc(5) == LaurentSeries(0, [2, 2, 0, 0, 0], 5)
    assert form.to_series(5) == LaurentSeries(0, [1, 1, 0, 0, 0], 5)
    form = QuadraticForm(monomial(1, 0), LaurentSeries(0, [9, 6, 1]),
                         monomial(1, 0), -1)
    assert form.to_series(5) == LaurentSeries(0, [-2, -1, 0, 0, 0], 5)


@pytest.mark.parametrize("r, s", [(5, 2), (7, 3), (-3, 4), (355, 113),
                                  (1, 1), (0, 1)])
def test_truncated_deformation_of_a_rational(r, s):
    assert q_real_truncated(rational_cf(r, s), 12) == q_rational(r, s).to_series(12)


def test_forms_hold_only_polynomials():
    one = monomial(1, 0)
    for bad in (monomial(1, -1), LaurentSeries(0, [1, 1], 2),
                monomial(Fraction(1, 2), 0)):
        with pytest.raises((ValueError, NonIntegralCoefficient)):
            QuadraticForm(bad, one, one, 1)
        with pytest.raises((ValueError, NonIntegralCoefficient)):
            QRational(bad, one)
    with pytest.raises(ValueError):
        QuadraticForm(one, one, LaurentSeries(0, []), 1)


def test_sqrt_disc_takes_the_root_only_as_far_as_needed(monkeypatch):
    from qmetallic import metallic, qnum

    orders = []
    real = qnum.series_sqrt

    def spy(a, target_order):
        orders.append(target_order)
        return real(a, target_order)

    monkeypatch.setattr(qnum, "series_sqrt", spy)
    for n, L in ((1, 30), (4, 120)):
        orders.clear()
        assert metallic.phi_series_sqrt(n, L) == phi_series(n, L)
        assert orders == [L + 1]


def test_truncated_deformation_matches_fixture():
    with open(os.path.join(_goldens_dir(), "series_sqrt7.json")) as fh:
        doc = json.load(fh)["sqrt7"]
    want = doc["series"]
    got = q_real_truncated(parse_cf(doc["cf"]), want["order"])
    assert got.valuation == want["valuation"]
    assert [str(c) for c in got.coeffs] == want["coeffs"]


# -- projective actions -------------------------------------------------------------


def test_shift_composes():
    x = phi_series(1, 16)
    assert shift(x, 2) == shift(shift(x, 1), 1)
    assert shift(shift(x, 3), -3) == x


def test_negate_is_an_involution():
    x = phi_series(1, 24)
    y = negate(negate(x, 16), 8)
    assert y.first_mismatch(x, upto=y.order) is None


def test_neg_reciprocal_is_an_involution():
    x = phi_series(2, 24)
    y = neg_reciprocal(neg_reciprocal(x, 16), 8)
    assert y.first_mismatch(x, upto=y.order) is None


def test_reciprocal_factors_through_the_other_two():
    x = phi_series(1, 30)
    lhs = reciprocal(x, 10)
    rhs = neg_reciprocal(negate(x, 20), 10)
    assert lhs.first_mismatch(rhs, upto=min(lhs.order, rhs.order)) is None


def test_group_actions_divide_once(monkeypatch):
    from qmetallic import qnum

    calls = []
    real = qnum.series_div

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qnum, "series_div", spy)
    x = phi_series(3, 30)
    for act in (reciprocal, negate, neg_reciprocal):
        calls.clear()
        act(x, 20)
        assert len(calls) == 1, act.__name__


# -- quadratic irrationals through the matrix path ---------------------------------


@pytest.mark.parametrize("a0", range(-3, 7))
def test_quadratic_form_matches_truncated_deformation(a0):
    # a0 outside 0..2 used to be rejected: P is q^(2k) times a palindrome
    for pre in ("", "2,"):
        for period in ("1", "2", "1,2", "2,1,3"):
            cf = parse_cf(f"{a0};{pre}({period})*")
            form = quantize_quadratic(cf)
            assert form.to_series(30) == q_real_truncated(cf, 30), str(cf)


@pytest.mark.parametrize("n", range(1, 9))
def test_metallic_forms_through_qnum(n):
    form = quantize_quadratic(parse_cf(f"{n};({n})*"))
    assert form.R == poly_R(n) and form.P == poly_P(n)
    assert poly_coeffs(form.S) == [0, 2] and form.sign == 1
    assert form.to_series(60) == phi_series(n, 60)
