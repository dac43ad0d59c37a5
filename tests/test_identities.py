"""Unit tests for the series and polynomial identity suite."""

import pytest

from qmetallic import identities, metallic, qnum, series
from qmetallic.errors import NotMonomialDenominator, QMetallicError
from qmetallic.identities import (
    IDENTITY_IDS,
    IdentityReport,
    alpha_poly,
    check_all,
    check_rel,
    conjugate_onset,
    conjugate_pair_check,
    laurent_family,
    min_order,
    mult_inverse_check,
    reflection_check,
)
from qmetallic.metallic import _edge, phi_series
from qmetallic.qnum import parse_cf
from qmetallic.series import LaurentSeries


def test_identity_id_inventory():
    assert IDENTITY_IDS == ("rel1", "rel2", "rel3", "rel4", "crin",
                            "recip", "neg", "multinv", "reflectR",
                            "reflectP")


def test_check_all_covers_every_tag():
    reports = check_all(2, 80)
    assert all(r.holds for r in reports)
    seen = {r.identity_id for r in reports}
    assert seen <= set(IDENTITY_IDS)
    assert {"rel1", "rel2", "rel3", "rel4"} <= seen


def test_check_all_builds_the_sides_once(monkeypatch):
    divisions, tags, builds = [], [], []
    real_div, real_check = qnum.series_div, identities.check_rel
    real_family = identities.laurent_family

    def count_div(*args):
        divisions.append(args)
        return real_div(*args)

    def count_check(n, tag, L, sides):
        tags.append(tag)
        return real_check(n, tag, L, sides)

    def count_family(n, L):
        builds.append((n, L))
        return real_family(n, L)

    monkeypatch.setattr(qnum, "series_div", count_div)
    monkeypatch.setattr(identities, "check_rel", count_check)
    monkeypatch.setattr(identities, "laurent_family", count_family)
    assert all(check_all(2, 70))
    assert divisions == []
    # one family build, from the 2n + 2-term prefix
    assert builds == [(2, 6)]
    assert tags == list(IDENTITY_IDS)


def test_check_all_makes_no_division(monkeypatch):
    # every relation is cross-multiplied: no module divides a series
    divisions = []
    real_div = series.series_div

    def count_div(*args):
        divisions.append(args)
        return real_div(*args)

    monkeypatch.setattr(series, "series_div", count_div)
    monkeypatch.setattr(qnum, "series_div", count_div)
    assert all(check_all(2, 70))
    assert divisions == []


def test_check_all_rejects_a_low_order_before_any_work(monkeypatch):
    tags = []
    real_check = identities.check_rel

    def count_check(n, tag, L, sides):
        tags.append(tag)
        return real_check(n, tag, L, sides)

    monkeypatch.setattr(identities, "check_rel", count_check)
    for n in (1, 4):
        assert min_order(n) == 2 * n + 3
        # 2n + 2 satisfies laurent_family, not the multiplicative inverse
        with pytest.raises(ValueError, match=rf"2n \+ 3 = {2 * n + 3} "):
            check_all(n, 2 * n + 2)
        assert tags == []
        assert all(check_all(n, 2 * n + 3))
        assert tags == list(IDENTITY_IDS)
        tags.clear()


@pytest.mark.parametrize("n", (1, 2, 5))
def test_every_series_tag_rejects_a_low_order_before_any_work(n, monkeypatch):
    builds = []
    monkeypatch.setattr(identities, "laurent_family",
                        lambda *args: builds.append(args))
    monkeypatch.setattr(identities, "kappa_values",
                        lambda *args: builds.append(args))
    for tag in IDENTITY_IDS[:8]:
        with pytest.raises(ValueError,
                           match=rf"^need L >= 2n \+ 3 = {2 * n + 3} for "
                                 rf"n = {n}, got {2 * n + 2}$"):
            check_rel(n, tag, 2 * n + 2)
    assert builds == []


def test_relation_sides_builds_F_and_its_residual():
    assert check_rel(1, "rel1", 60).n == 1
    rep = check_rel(2, "rel1", 60)
    assert rep.n == 2 and rep.holds
    F1, _, _ = identities.relation_sides(1, 60)
    F, E, maps = identities.relation_sides(2, 60)
    assert F.order == 60 + 2 * 2 + 2
    assert F.coefficients(0, 20) == phi_series(2, 20).coefficients(0, 20)
    assert F1.coefficients(0, 20) == phi_series(1, 20).coefficients(0, 20)
    assert F.coefficients(0, 20) != F1.coefficients(0, 20)
    assert E == (F * F).shift(1) - metallic.poly_R(2) * F - 1
    assert E.is_zero and E.order == F.order
    assert set(maps) == set(IDENTITY_IDS[:8])


@pytest.mark.parametrize("n", (1, 3, 8))
def test_a_passing_relation_multiplies_no_long_series(n, monkeypatch):
    # with the sides built, E is zero through its order and A R + q B and
    # A + q C vanish, so only short polynomials are ever convolved, and no
    # series is built wider than one
    L = 120
    sides = identities.relation_sides(n, L)
    lengths, widths = [], []
    real, real_init = series._convolve, LaurentSeries.__init__

    def record(a, b, m):
        lengths.append(m)
        return real(a, b, m)

    def record_init(self, valuation, coeffs, *order):
        coeffs = list(coeffs)
        widths.append(len(coeffs))
        real_init(self, valuation, coeffs, *order)

    monkeypatch.setattr(series, "_convolve", record)
    monkeypatch.setattr(LaurentSeries, "__init__", record_init)
    for tag in IDENTITY_IDS[:8]:
        assert check_rel(n, tag, L, sides).checked_order == L, tag
    assert max(lengths) < 4 * n + 8
    assert max(widths) < 4 * n + 8


def _move_entry(monkeypatch, name, row, col, term):
    """Add the monomial term = (c, k) to entry [row][col] of identities'
    copy of the qnum matrix `name`."""
    rows = [list(r) for r in getattr(identities, name)]
    rows[row][col] = rows[row][col] + series.monomial(*term)
    monkeypatch.setattr(identities, name, tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("n", (1, 2, 5))
def test_a_moved_reciprocal_entry_fails_only_its_relations(n, monkeypatch):
    # b + q^7 leaves A, so A E stays zero: only A R + q B sees the fault
    _move_entry(monkeypatch, "RECIPROCAL", 0, 1, (1, 7))
    failed = {r.identity_id: r.first_failure for r in check_all(n, 60)
              if not r.holds}
    assert failed == {"rel1": n + 7, "recip": 7}


def test_a_moved_negate_entry_fails_only_its_relations(monkeypatch):
    _move_entry(monkeypatch, "NEGATE", 1, 1, (1, 9))
    failed = {r.identity_id: r.first_failure for r in check_all(2, 60)
              if not r.holds}
    assert failed == {"rel2": 6, "rel4": 6, "neg": 4}


def test_identities_command_exits_1_on_a_moved_matrix_entry(
        capsys, monkeypatch):
    from qmetallic.cli import main

    _move_entry(monkeypatch, "RECIPROCAL", 0, 1, (1, 7))
    assert main(["identities", "--n", "2", "--order", "60"]) == 1
    assert capsys.readouterr().err == "identities: failed: rel1\n"


# -- division as the oracle of the cross-multiplied relations -------------------


SERIES_IDS = IDENTITY_IDS[:8]


def _division_reports(n, L):
    """Each series relation's report with both sides divided out by
    qnum's group actions and compared coefficient by coefficient."""
    fam = laurent_family(n, L)
    phi = phi_series(n, L + 2 * n + 2)
    edge = _edge(n).shift(-1)
    recip = qnum.reciprocal(phi, L)
    neg = qnum.negate(phi, L)
    negrecip = qnum.neg_reciprocal(phi, L)
    sides = {
        "rel1": (phi, qnum.shift(recip, n)),
        "rel2": (negrecip, qnum.shift(neg, n)),
        "rel3": (negrecip, qnum.q_integer(n) + edge - phi),
        "rel4": (phi, edge - neg.shift(n)),
        "recip": (recip, fam.recip),
        "crin": (negrecip, fam.negrecip),
        "neg": (neg, fam.neg),
        "multinv": (-negrecip.shift(1), identities._inverse_formula(n, L)),
    }
    return {tag: identities._compare(n, tag, *sides[tag], L) for tag in sides}


def _cross_reports(n, L):
    sides = identities.relation_sides(n, L)
    return {tag: check_rel(n, tag, L, sides) for tag in SERIES_IDS}


@pytest.mark.parametrize("n", range(1, 13))
def test_cross_multiplication_matches_division(n):
    assert set(SERIES_IDS) == set(_division_reports(n, 60))
    for L in (2 * n + 3, 60, 200):
        assert _cross_reports(n, L) == _division_reports(n, L), L


@pytest.mark.parametrize("n", range(1, 13))
def test_cross_multiplication_matches_division_on_a_bumped_store(
        n, monkeypatch):
    # one coefficient of the kappa store made wrong: where the division
    # path returns reports, they are the same; where a prefix coefficient
    # makes it raise, every relation is reported failing instead
    L = 60
    clean = metallic.kappa_values(n, L + 2 * n + 2)
    positions = (0, n, 2 * n + 3, 2 * n + 4, 2 * n + 5, L // 2, L - 2, L - 1,
                 L, L + n - 1, L + n, L + 2 * n, L + 2 * n + 1)
    raised = 0
    for j in positions:
        for bump in (1, -2):
            vals = list(clean)
            vals[j] += bump
            monkeypatch.setattr(metallic, "_tables", {n: vals})
            try:
                want = _division_reports(n, L)
            except QMetallicError:
                want = None
            got = _cross_reports(n, L)
            if want is None:
                raised += 1
                assert j <= 2 * n + 3, (j, bump)
                assert not any(got.values()), (j, bump)
            else:
                assert got == want, (j, bump)
    assert raised


def test_a_changed_store_shows_in_the_next_check(monkeypatch):
    # nothing of a finished check_all is kept: checks run after the kappa
    # store changed read the changed store, as the division path does
    n, L = 2, 60
    assert all(check_all(n, L))
    vals = metallic.kappa_values(n, L + 2 * n + 2)
    vals[40] += 1
    monkeypatch.setattr(metallic, "_tables", {n: vals})
    want = _division_reports(n, L)
    assert want["neg"].first_failure == 35 and not want["multinv"]
    assert check_rel(n, "neg", L) == want["neg"]
    assert mult_inverse_check(n, L) == want["multinv"]


def test_a_moved_matrix_entry_shows_in_the_next_check(monkeypatch):
    assert all(check_all(2, 60))
    _move_entry(monkeypatch, "RECIPROCAL", 0, 1, (1, 7))
    assert check_rel(2, "rel1", 60).first_failure == 9
    assert check_rel(2, "recip", 60).first_failure == 7


def test_single_relation_report_shape():
    rep = check_rel(3, "rel1", 60)
    assert rep.holds and rep.n == 3 and rep.first_failure is None
    assert rep.checked_order <= 60
    d = rep.to_json()
    assert d["identity_id"] == "rel1" and d["holds"] is True


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        check_rel(1, "rel9", 40)


def test_mult_inverse():
    for n in (1, 2, 4):
        rep = mult_inverse_check(n, 80)
        assert rep.holds, (n, rep.first_failure)


def test_reflection_exact():
    for n in (1, 2, 3, 10, 37):
        rep = reflection_check(n)
        assert rep.holds and rep.identity_id == "reflect"


def test_alpha_poly_case_split():
    # n=1: -q^-2 - q^-1 + 1, n=2: -q^-3 - 2q^-1 + 1, n>=3 fills in the gap
    a1 = alpha_poly(1)
    assert a1.coefficients(-3, 1) == [0, -1, -1, 1]
    a2 = alpha_poly(2)
    assert a2.coefficients(-3, 1) == [-1, 0, -2, 1]
    a4 = alpha_poly(4)
    assert a4.coefficients(-5, 1) == [-1, 0, -1, -1, -2, 1]


def test_laurent_family_n1_prefixes():
    fam = laurent_family(1, 12)
    assert fam.phi.coefficients(0, 6) == [1, 0, 1, -1, 2, -4]
    assert fam.recip.valuation == 1
    assert fam.recip.coefficients(1, 6) == [1, -1, 2, -4, 8]
    assert fam.negrecip.valuation == -1
    assert fam.negrecip.coefficients(-1, 4) == [-1, 0, 1, -1, 1]
    assert fam.neg.valuation == -2
    assert fam.neg.coefficients(-2, 3) == [-1, -1, 1, -1, 1]


def test_laurent_family_consistency_with_actions():
    from qmetallic.qnum import negate, neg_reciprocal, reciprocal
    fam = laurent_family(2, 16)
    phi = phi_series(2, 30)
    for attr, action in (("recip", reciprocal), ("negrecip", neg_reciprocal),
                         ("neg", negate)):
        got = action(phi, 10)
        want = getattr(fam, attr)
        assert got.first_mismatch(want, upto=9) is None, attr


def test_laurent_family_order_precondition():
    with pytest.raises(ValueError):
        laurent_family(3, 7)


def test_identity_report_validation():
    with pytest.raises(ValueError):
        IdentityReport(n=1, identity_id="nonsense", checked_order=5,
                       holds=True, first_failure=None)


# -- conjugate pairing for general quadratic irrationals ----------------------------


def test_conjugate_pairing_sqrt7():
    cf = parse_cf("2;(1,1,1,4)*")
    rep = conjugate_pair_check(cf, 40)
    assert rep.holds and rep.identity_id == "conjugate"
    assert conjugate_onset(cf, 40) == 3


def test_conjugate_pairing_golden():
    cf = parse_cf("1;(1)*")
    assert conjugate_onset(cf, 40) == 2


def test_conjugate_pairing_needs_monomial_denominator():
    cf = parse_cf("0;2,(1,1,1,4)*")     # deformed 1/sqrt(7)
    with pytest.raises(NotMonomialDenominator):
        conjugate_pair_check(cf, 30)
    # the onset probe degrades gracefully instead
    assert conjugate_onset(cf, 30) is None


@pytest.mark.parametrize("text", ["3;(3)*", "2;(1,1,1)*", "4;(4,4)*",
                                  "1;(1,2)*", "0;(2)*"])
def test_conjugate_pairing_reports_the_first_unpaired_exponent(text):
    cf = parse_cf(text)
    x, conj = identities._branches(cf, 40)
    deg = qnum.quantize_quadratic(cf).S.valuation
    want = next((j for j in range(deg + 1, 40) if x[j] != -conj[j]), None)
    rep = conjugate_pair_check(cf, 40)
    assert rep.first_failure == want and rep.holds == (want is None)


def test_reflection_reports_a_broken_polynomial(monkeypatch):
    # q^(n+1) R(1/q) = R + 2(1+q^n)(1-q) fails at the exponent made wrong
    from qmetallic.metallic import poly_R

    monkeypatch.setattr(identities, "poly_R",
                        lambda n: poly_R(n) + LaurentSeries(1, [5]))
    rep = identities.check_rel(3, "reflectR")
    assert not rep.holds and rep.first_failure == 1 and rep.checked_order == 5
