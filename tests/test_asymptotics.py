"""Unit tests for root finding and coefficient asymptotics."""

import itertools

import pytest
from mpmath import fabs, mp, mpc, mpf, nstr, polyroots, power, sqrt, workprec

from qmetallic import asymptotics
from qmetallic.asymptotics import (
    DEFAULT_PRECISION,
    all_roots,
    gamma_coeff,
    leading_term,
    radius,
    ratio_table,
    roots_Q,
    singularity_report,
)
from qmetallic.errors import MultipleRoot, NoConvergence
from qmetallic.metallic import kappa_values, poly_Q


def test_horner2_at_a_complex_point():
    # 1 + q^2 and its derivative 2q at q = i
    assert asymptotics._horner2([1, 0, 1], 1j) == (0, 2j)
    with workprec(200):
        p, dp = asymptotics._horner2([1, 0, 1], mpc(0, 1))
        assert p == 0 and dp == mpc(0, 2)


def test_all_roots_cubic():
    # (1-q)(2-q)(3-q) = 6 - 11q + 6q^2 - q^3
    roots = all_roots([6, -11, 6, -1], 192)
    got = sorted(float(r.real) for r in roots)
    assert all(abs(r.imag) < 1e-40 for r in roots)
    for g, w in zip(got, (1.0, 2.0, 3.0)):
        assert abs(g - w) < 1e-40


def test_all_roots_certificate():
    roots = all_roots([6, -11, 6, -1], 192)
    assert len(roots.radii) == 3 and roots.float_sweeps >= 1
    assert all(0 < r < mpf(2) ** -192 for r in roots.radii)
    # real roots are returned on the real axis, not with a rounding residue
    assert all(r.imag == 0 for r in roots)


def test_double_root_rejected():
    # (q - 1)^2 (q - 3): Newton only creeps into a double root
    with pytest.raises((NoConvergence, MultipleRoot)):
        all_roots([-3, 7, -5, 1], 256)


def test_overlapping_disks_rejected(monkeypatch):
    # two float starts on the root 1 of (1-q)(2-q)(3-q): Newton takes both
    # there, and the certificate must refuse the pair
    def two_starts_on_one_root(coeffs, zs, tol, max_sweeps):
        zs[:] = [1 + 1e-9j, 1 - 1e-9j, 3 + 0j]
        return None

    monkeypatch.setattr(asymptotics, "_aberth_sweeps", two_starts_on_one_root)
    with pytest.raises(MultipleRoot, match="overlap"):
        all_roots([6, -11, 6, -1], 256)


def test_residual_gate_enforced():
    # 10^80 (3q - 1)(q - 2)(q - 5): the disks are tiny and disjoint, but
    # |p(z)| near 1/3 stays far above 10^-(bits/4) at this precision
    with pytest.raises(NoConvergence, match="residual"):
        all_roots([c * 10 ** 80 for c in (-10, 37, -22, 3)], 256)


@pytest.mark.parametrize("n", [3, 8])
def test_roots_Q_match_mpmath_polyroots(n):
    # an independent oracle: mpmath's own Durand-Kerner at 320 bits
    with workprec(320):
        want = polyroots(list(reversed(poly_Q(n).coeffs)), maxsteps=200,
                         extraprec=320)
        got = roots_Q(n, 320)
        assert len(got) == len(want) == 2 * n
        for z in got:
            assert min(fabs(z - w) for w in want) < mpf(10) ** -70


@pytest.mark.parametrize("n", [1, 2, 3, 12, 30])
def test_inclusion_disks_disjoint_and_small(n):
    rep = singularity_report(n)
    roots = all_roots(list(poly_Q(n).coeffs), rep.precision_bits)
    assert tuple(roots) == rep.all_roots
    assert rep.inclusion_radius == max(roots.radii)
    assert rep.inclusion_radius < mpf(2) ** -rep.precision_bits
    assert rep.float_sweeps is not None
    assert rep.float_sweeps == roots.float_sweeps
    with workprec(rep.precision_bits + 64):
        for (a, ra), (b, rb) in itertools.combinations(
                zip(roots, roots.radii), 2):
            assert fabs(a - b) > ra + rb


def test_dominant_gammas_match_gamma_coeff():
    for n in (2, 5):
        rep = singularity_report(n)
        assert list(rep.gammas) == [gamma_coeff(n, z) for z in rep.dominant]


def test_roots_count_and_radius_consistency():
    for n in (1, 2, 3, 6):
        rep = singularity_report(n)
        assert len(rep.all_roots) == 2 * n
        with workprec(300):
            moduli = [fabs(z) for z in rep.all_roots]
            assert fabs(min(moduli) - rep.radius) < mpf(10) ** -60


def test_radius_closed_forms():
    with workprec(300):
        tol = mpf(10) ** -70
        assert fabs(radius(1) - (3 - sqrt(5)) / 2) < tol
        want2 = (1 + sqrt(2) - sqrt(2 * sqrt(2) - 1)) / 2
        assert fabs(radius(2) - want2) < tol


def test_radius_third_index_digits():
    assert nstr(radius(3), 10) == "0.5971940686"


def test_radius_monotone_prefix():
    with workprec(280):
        vals = [radius(n) for n in range(1, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1


def test_precision_floor():
    with pytest.raises(ValueError):
        radius(1, 64)


def test_precision_stability():
    with workprec(400):
        assert fabs(radius(1, 256) - radius(1, 320)) < mpf(10) ** -70


def test_dominant_structure():
    rep1 = singularity_report(1)
    assert len(rep1.dominant) == 1 and len(rep1.gammas) == 1
    rep2 = singularity_report(2)
    assert len(rep2.dominant) == 2
    with workprec(300):
        a, b = rep2.dominant
        # a conjugate pair
        assert fabs(a.real - b.real) < mpf(10) ** -60
        assert fabs(a.imag + b.imag) < mpf(10) ** -60


def test_gamma_constants():
    with workprec(300):
        g1 = singularity_report(1).gammas[0]
        assert fabs(g1 - (-power(5, mpf(1) / 4))) < mpf(10) ** -60
        g2 = next(g for g in singularity_report(2).gammas if mpc(g).imag > 0)
        assert fabs(mpc(g2).real - mpf("-0.47791946288998969657")) < mpf(10) ** -19
        assert fabs(mpc(g2).imag - mpf("1.2009723163799612151")) < mpf(10) ** -18


def test_leading_term_converges_to_coefficients():
    kv = kappa_values(1, 501)
    with workprec(280):
        approx = leading_term(1, 500)
        rel = fabs(approx - kv[500]) / fabs(mpf(kv[500]))
        assert rel < mpf("0.002")


def test_ratio_table_shape_and_trend():
    rows = ratio_table(1, (100, 400, 1600))
    assert [l for l, _ in rows] == [100, 400, 1600]
    vals = [float(v) for _, v in rows]
    assert all(isinstance(v, str) for _, v in rows)
    # ratios drift toward 1 as l grows
    assert abs(vals[2] - 1) < abs(vals[1] - 1) < abs(vals[0] - 1) < 0.01


def test_global_precision_untouched():
    before = mp.prec
    singularity_report(4)
    ratio_table(2, (100,))
    assert mp.prec == before


def test_roots_Q_matches_report():
    assert roots_Q(2) == singularity_report(2).all_roots
    assert DEFAULT_PRECISION == 256
