"""Unit tests for the metallic-index coefficient engines and checks."""

import pytest

from qmetallic import metallic
from qmetallic.cache import _CANONICAL_LINES
from qmetallic.series import (LaurentSeries, monomial, poly_coeffs, reversal,
                              series_sqrt)
from qmetallic.qnum import q_integer
from qmetallic.metallic import (
    ENGINE_TAGS,
    CheckResult,
    canonical_engine_tag,
    coeffs_closed_form,
    coeffs_convolution,
    coeffs_p_recurrence,
    coeffs_sqrt,
    closed_form_golden,
    hankel,
    kappa,
    kappa_text,
    kappa_values,
    multinomial,
    phi_series,
    poly_P,
    poly_Q,
    poly_R,
    recurrence_spec,
    table_engine,
    verify_functional_equation,
    verify_ode,
)

GOLDEN_KAPPA = [1, 0, 1, -1, 2, -4, 8, -17, 37, -82]


# -- defining polynomials -----------------------------------------------------------


def test_poly_R_formula():
    # R_n = q[n]_q + (q^n + 1)(q - 1)
    for n in range(1, 11):
        qn = q_integer(n).shift(1)
        edge = (monomial(1, n) + 1) * LaurentSeries(0, [-1, 1])
        assert poly_R(n) == qn + edge


def test_poly_P_is_R_squared_plus_4q():
    for n in range(1, 11):
        assert poly_P(n) == poly_R(n) * poly_R(n) + monomial(4, 1)


def test_poly_P_factors_through_Q():
    for n in range(1, 11):
        assert poly_P(n) == LaurentSeries(0, [1, -1, 1]) * poly_Q(n)


def test_poly_degrees_and_palindromes():
    for n in range(1, 11):
        assert len(poly_coeffs(poly_R(n))) == n + 2
        P, Q = poly_P(n), poly_Q(n)
        assert len(poly_coeffs(P)) == 2 * n + 3 and reversal(P, 2 * n + 2) == P
        assert len(poly_coeffs(Q)) == 2 * n + 1 and reversal(Q, 2 * n) == Q


def test_small_Q_values():
    assert list(poly_Q(1).coeffs) == [1, 3, 1]
    assert list(poly_Q(2).coeffs) == [1, 1, 4, 1, 1]
    assert list(poly_Q(3).coeffs) == [1, 1, 2, 5, 2, 1, 1]


# -- coefficient engines ------------------------------------------------------------


def test_golden_prefix():
    assert kappa_values(1, 10) == GOLDEN_KAPPA
    assert kappa(1, 9) == -82


def test_engines_cross_agree_small():
    for n in (1, 2, 3, 7):
        want = tuple(coeffs_p_recurrence(n, 60).values)
        assert tuple(coeffs_convolution(n, 60).values) == want
        assert tuple(coeffs_sqrt(n, 60).values) == want


def test_closed_forms_match():
    for n in (1, 2, 3):
        want = kappa_values(n, 40)
        assert list(coeffs_closed_form(n, 40).values) == want
    assert closed_form_golden(8) == 37


def test_closed_form_range_limit():
    with pytest.raises(ValueError):
        coeffs_closed_form(4, 10)


def test_table_shape():
    t = coeffs_p_recurrence(2, 12)
    assert (t.n, t.upto, t.engine) == (2, 12, "precurrence")
    assert len(t.values) == 12
    s = t.to_series()
    assert s.order == 12 and s.valuation == 0


def test_phi_series_window():
    s = phi_series(1, 10)
    assert s.coefficients(0, 10) == GOLDEN_KAPPA
    assert s.order == 10 and s.is_integral()


def test_index_validation():
    with pytest.raises(ValueError):
        kappa_values(0, 10)
    with pytest.raises(ValueError):
        kappa_values(-2, 10)


def test_negative_sizes_never_slice_the_store():
    kappa_values(1, 12)   # a store longer than any request below
    with pytest.raises(ValueError):
        kappa_values(1, -3)
    with pytest.raises(ValueError):
        kappa(1, -2)
    assert kappa_values(1, 0) == []
    assert kappa(1, 9) == GOLDEN_KAPPA[9]


@pytest.mark.parametrize("n", [*range(1, 41), 300])
def test_store_seed_is_the_closed_prefix(n):
    assert metallic._seed_values(n) == metallic._conv_values(n, 2 * n + 2)


def test_store_never_runs_the_convolution_engine(monkeypatch):
    def refuse(n, L):
        raise AssertionError("the conv engine seeded the store")

    monkeypatch.setattr(metallic, "_tables", {})
    monkeypatch.setattr(metallic, "_conv_values", refuse)
    for n in (1, 2, 3):
        assert kappa_values(n, 60) == list(coeffs_closed_form(n, 60).values)
    assert kappa_values(3000, 3) == [1, 1, 1]


@pytest.mark.parametrize("n", range(1, 49))
def test_kappa_text_is_str_of_the_int_store(n):
    # the Decimal run of the recurrence prints what str prints of the ints,
    # with no "-0" and no exponent form
    for L in sorted({0, 1, n, 2 * n + 1, 2 * n + 2, 2 * n + 3, 400}):
        text = kappa_text(n, L)
        assert text == tuple(map(str, kappa_values(n, L))), L
        assert _CANONICAL_LINES.fullmatch("".join(t + "\n" for t in text)
                                          .encode("ascii")), L


@pytest.mark.parametrize("n", range(1, 13))
def test_convolution_engine_is_the_store(n):
    for L in (0, 1, n, n + 1, 2 * n + 2, 2 * n + 3, 300):
        assert metallic._conv_values(n, L) == kappa_values(n, L)


def test_kappa_text_rejects_what_kappa_values_rejects():
    with pytest.raises(ValueError):
        kappa_text(1, -1)
    with pytest.raises(ValueError):
        kappa_text(0, 5)


def test_hankel_checks_the_index_before_the_empty_case():
    with pytest.raises(ValueError):
        hankel(0, 0, 0)
    assert hankel(1, 0, 0) == 1


def test_sqrt_of_P_is_2qF_minus_R_from_the_store():
    # P = R^2 + 4q, so its root with constant term 1 is 2qF - R
    L = 1500
    for n in (1, 2, 5, 12):
        root = 2 * phi_series(n, L - 1).shift(1) - poly_R(n)
        assert series_sqrt(poly_P(n), L) == root


# -- the holonomic recurrence -------------------------------------------------------


def test_recurrence_spec_shape():
    for n in (1, 2, 3, 5):
        spec = recurrence_spec(n)
        assert spec.valid_from == 2 * n + 2
        assert max(spec.nonzero_lags()) <= spec.order


def test_recurrence_has_one_scale():
    # every pair is halved, so the lag-0 pair is (p_0, p_0) = (1, 1)
    for n in range(1, 49):
        assert recurrence_spec(n).coeff_polys[0] == (1, 1), n


def test_recurrence_matches_convolution_past_the_acceptance_range():
    for n in range(26, 49):
        assert kappa_values(n, 300) == list(coeffs_convolution(n, 300).values), n


def test_recurrence_annihilates_the_sequence():
    for n in (1, 2, 4):
        spec = recurrence_spec(n)
        kv = kappa_values(n, 80)
        for l in range(spec.valid_from, 80):
            total = sum(spec.coefficient(lag, l) * kv[l - lag]
                        for lag in spec.nonzero_lags())
            assert total == 0, (n, l)


def test_engine_tag_aliases():
    assert canonical_engine_tag("prec") == "precurrence"
    assert canonical_engine_tag("conv") == "conv"
    assert canonical_engine_tag("closed") == "closedform"
    with pytest.raises(ValueError):
        canonical_engine_tag("newton")
    for tag in ENGINE_TAGS:
        assert callable(table_engine(tag))


# -- identity checks ----------------------------------------------------------------


def test_check_result_truthiness():
    assert CheckResult(True, checked_order=5, label="x")
    assert not CheckResult(False, first_failure=3, checked_order=5, label="x")


def test_functional_equation_small():
    for n in (1, 2, 5):
        res = verify_functional_equation(n, 120)
        assert res and res.checked_order == 120


@pytest.mark.parametrize("n", [1, 2, 5])
def test_functional_equation_finds_a_bumped_coefficient(n, monkeypatch):
    # kappa_40 one too large moves q F^2 - R F - 1 by q^40 (2qF - R), whose
    # lowest term is -R_0 q^40 = q^40: the first failure is exponent 40
    series = metallic.phi_series

    def bumped(n, L):
        vals = list(series(n, L).coefficients(0, L))
        vals[40] += 1
        return LaurentSeries(0, vals, L)

    monkeypatch.setattr(metallic, "phi_series", bumped)
    res = verify_functional_equation(n, 120)
    assert not res and res.first_failure == 40 and res.checked_order == 120


@pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 12))
def test_residual_below_the_conv_bound_is_the_full_residual(n):
    # E_l reads kappa_0..kappa_l, and conv chose its kappa_l (l >= n + 1)
    # so that E_l = 0: below the first exponent where a table leaves conv's,
    # the terms the bound skips are the zeros the full residual computes
    L = 120
    N = L + 2 * n + 2
    clean = metallic.kappa_values(n, N)
    conv = metallic._conv_values(n, L)
    R = metallic.poly_R(n)
    for j in (None, n + 1, L // 2, L - 1, L, L + 2 * n + 1):
        for bump in (1, -2):
            vals = list(clean)
            if j is not None:
                vals[j] += bump
            f = LaurentSeries(0, vals, N)
            agreed = next((l for l in range(L) if vals[l] != conv[l]), L)
            full = metallic.residual(n, f)
            assert full == (f * f).shift(1) - R * f - 1, (j, bump)
            assert metallic.residual(n, f, agreed) == full, (j, bump)
            assert full.is_zero == (j is None), (j, bump)


def test_ode_small():
    for n in (1, 2, 5):
        res = verify_ode(n, 120)
        # the derivative and the degree-(2n+2) discriminant factor
        # consume 2n+3 orders of the window
        assert res and res.checked_order == 120 - (2 * n + 3)


# -- multinomials and Hankel --------------------------------------------------------


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5,)) == 1
    assert multinomial(6, (1, 2, 3)) == 60
    with pytest.raises(ValueError):
        multinomial(5, (2, 1))


def test_hankel_regression_rows():
    assert [hankel(1, 0, j) for j in range(1, 7)] == [1, 1, 0, -1, -1, -1]
    assert [hankel(1, 1, j) for j in range(1, 7)] == [0, -1, 1, -1, 0, 1]
    assert [hankel(2, 0, j) for j in range(1, 7)] == [1, -1, -1, 1, 0, -1]


def test_hankel_unimodular_window():
    for n in (1, 2, 3):
        for s in range(0, n + 2):
            for j in range(1, 13):
                assert hankel(n, s, j) in (-1, 0, 1)
