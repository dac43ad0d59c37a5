"""Unit tests for root finding and coefficient asymptotics."""

import functools
import itertools
import random
from pathlib import Path

import pytest
from mpmath import (fabs, mp, mpc, mpf, nstr, polyroots, polyval, power, sqrt,
                    workprec)

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
from qmetallic.dyadic import Dyadic, DyadicComplex, units
from qmetallic.errors import BranchCut, MultipleRoot, NoConvergence
from qmetallic.metallic import kappa_values, poly_Q

from mp_values import to_mp


@pytest.mark.parametrize("coeffs", [
    [1, 2, -1, 2, 1],
    [1, 0, 3, -1, 3, 0, 1],
    [1, 0, -7, 4, 11, 4, -7, 0, 1],
])
def test_trace2_is_p_over_q_to_the_d(coeffs):
    # p(z) = z^d S(z + 1/z), so z^-d p(z) = S(w) at w = z + 1/z, and by the
    # chain rule z^-d p'(z) - d z^-(d+1) p(z) = S'(w) (1 - 1/z^2)
    d = len(coeffs) // 2
    rng = random.Random(30)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p = sum(c * z ** k for k, c in enumerate(coeffs))
        dp = sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs))
        s, ds = asymptotics._trace2([float(c) for c in coeffs[d:]], z + 1 / z)
        assert abs(s - p / z ** d) <= 1e-12 * max(1, abs(s))
        want = (dp / z ** d - d * p / z ** (d + 1)) / (1 - 1 / z ** 2)
        assert abs(ds - want) <= 1e-12 * max(1, abs(ds))
        with workprec(200):
            z = mpc(z)
            p, dp = polyval(list(reversed(coeffs)), z, derivative=True)
            s, ds = asymptotics._trace2(list(map(mpf, coeffs[d:])), z + 1 / z)
            assert fabs(s - p / z ** d) < mpf(2) ** -180 * max(1, fabs(s))
            want = (dp / z ** d - d * p / z ** (d + 1)) / (1 - 1 / z ** 2)
            assert fabs(ds - want) < mpf(2) ** -180 * max(1, fabs(ds))


@pytest.mark.parametrize("coeffs", [
    [],
    [1],
    [0, 1, 0],  # zero constant term
    [1, 1],  # odd degree
    [1, 0, 2],  # not palindromic
    [6, -11, 6, -1],
    [1.0, 3.0, 1.0],  # not integers
])
def test_only_palindromic_integer_input(coeffs):
    with pytest.raises(ValueError, match="palindromic"):
        all_roots(coeffs, 256)


def test_all_roots_quadratic():
    # (2 - q)(1 - 2q) = 2 - 5q + 2q^2: the real reciprocal pair 1/2, 2
    roots = all_roots([2, -5, 2], 192)
    assert [r.imag for r in roots] == [0, 0]
    for g, w in zip(roots, (0.5, 2.0)):
        assert abs(float(g.real) - w) < 1e-40


def test_all_roots_certificate():
    roots = all_roots([2, -5, 2], 192)
    assert len(roots.radii) == 2 and roots.float_sweeps >= 1
    assert all(0 < r < Dyadic(1, -192) for r in roots.radii)
    # real roots are returned on the real axis, not with a rounding residue
    assert all(r.imag == 0 for r in roots)


def test_double_root_rejected():
    # Newton only creeps into a double root: (2 - 5q + 2q^2)^2 and
    # (1 + 3q + q^2)^2, whose trace polynomials have one too
    with pytest.raises((NoConvergence, MultipleRoot)):
        all_roots([4, -20, 33, -20, 4], 256)
    with pytest.raises((NoConvergence, MultipleRoot)):
        all_roots([1, 6, 11, 6, 1], 256)


@pytest.mark.parametrize("coeffs", [
    [1, 2, -1, 2, 1],  # (1 - q + q^2)(1 + 3q + q^2)
    [1, -1, -10, -1, 1],  # (1 + 3q + q^2)(1 - 4q + q^2)
    [1, 0, 1, 0, 1],  # (1 - q + q^2)(1 + q + q^2)
    [1, 0, 3, -1, 3, 0, 1],  # (1 - q + q^2)(1 + q + 3q^2 + q^3 + q^4)
])
def test_all_roots_palindromic(coeffs):
    # roots z and 1/z: conjugate pairs on the unit circle, real reciprocal
    # pairs and a quadruple z, conj(z), 1/z, 1/conj(z), against mpmath's
    # own Durand-Kerner at 320 bits
    roots = all_roots(coeffs, 256)
    assert len(roots) == len(roots.radii) == len(coeffs) - 1
    with workprec(320):
        want = polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=320)
        got = list(map(to_mp, roots))
        for a, b in ((got, want), (want, got)):
            for z in a:
                assert min(fabs(z - w) for w in b) < mpf(10) ** -70
    # a real root is returned on the real axis
    assert all(z.imag == 0 for z in roots if abs(float(z.imag)) < 1e-30)


def test_overlapping_disks_rejected(monkeypatch):
    # (1 + 3q + q^2)(1 - 4q + q^2) has the trace roots w = -3 and 4; both
    # float starts on w = 4 take Newton to the root 2 - sqrt(3), and the
    # certificate must refuse the pair
    def two_starts_on_one_root(half, zs, tol, max_sweeps):
        zs[:] = [4 + 1e-9j, 4 - 1e-9j]
        return None

    monkeypatch.setattr(asymptotics, "_aberth_sweeps", two_starts_on_one_root)
    with pytest.raises(MultipleRoot, match="overlap"):
        all_roots([1, -1, -10, -1, 1], 256)


def test_residual_gate_enforced():
    # 10^80 (1 - q + q^2)(1 + 3q + q^2): the disks are tiny and disjoint,
    # but |p(z)| stays far above 10^-(bits/4) at this precision
    with pytest.raises(NoConvergence, match="residual"):
        all_roots([c * 10 ** 80 for c in (1, 2, -1, 2, 1)], 256)


@pytest.mark.parametrize("n", [3, 8])
def test_roots_Q_match_mpmath_polyroots(n):
    # an independent oracle: mpmath's own Durand-Kerner at 320 bits
    with workprec(320):
        want = polyroots(list(reversed(poly_Q(n).coeffs)), maxsteps=200,
                         extraprec=320)
        got = roots_Q(n, 320)
        assert len(got) == len(want) == 2 * n
        for z in map(to_mp, got):
            assert min(fabs(z - w) for w in want) < mpf(10) ** -70


@pytest.mark.parametrize("n", [1, 2, 3, 12, 30])
def test_inclusion_disks_disjoint_and_small(n):
    rep = singularity_report(n)
    roots = all_roots(list(poly_Q(n).coeffs), rep.precision_bits)
    assert tuple(roots) == rep.all_roots
    assert rep.inclusion_radius == max(roots.radii)
    assert rep.inclusion_radius < Dyadic(1, -rep.precision_bits)
    assert rep.float_sweeps is not None
    assert rep.float_sweeps == roots.float_sweeps
    with workprec(rep.precision_bits + 64):
        for (a, ra), (b, rb) in itertools.combinations(
                zip(map(to_mp, roots), map(to_mp, roots.radii)), 2):
            assert fabs(a - b) > ra + rb


def test_dominant_gammas_match_gamma_coeff():
    for n in (2, 5):
        rep = singularity_report(n)
        assert list(rep.gammas) == [gamma_coeff(n, z, report=rep)
                                    for z in rep.dominant]
    # a lone call builds its own report
    assert gamma_coeff(5, rep.dominant[0]) == rep.gammas[0]


def test_a_report_for_another_n_or_precision_refused():
    rep = singularity_report(2)
    with pytest.raises(ValueError, match="report is for n=2 at 256 bits"):
        leading_term(3, 100, report=rep)
    with pytest.raises(ValueError, match="report is for n=2 at 256 bits"):
        gamma_coeff(2, rep.dominant[0], 320, report=rep)


def test_report_reads_poly_Q_at_the_call(monkeypatch):
    # nothing is kept between calls: with poly_Q giving Q_3, the next
    # report for n = 2 holds Q_3's roots and constants
    before = singularity_report(2)
    want = singularity_report(3)
    real = asymptotics.poly_Q
    monkeypatch.setattr(asymptotics, "poly_Q", lambda n: real(n + 1))
    got = singularity_report(2)
    assert got.all_roots == want.all_roots != before.all_roots
    assert got.gammas == want.gammas and got.radius == want.radius


def test_roots_count_and_radius_consistency():
    for n in (1, 2, 3, 6):
        rep = singularity_report(n)
        assert len(rep.all_roots) == 2 * n
        with workprec(300):
            moduli = [fabs(to_mp(z)) for z in rep.all_roots]
            assert fabs(min(moduli) - to_mp(rep.radius)) < mpf(10) ** -60


def test_radius_closed_forms():
    with workprec(300):
        tol = mpf(10) ** -70
        assert fabs(to_mp(radius(1)) - (3 - sqrt(5)) / 2) < tol
        want2 = (1 + sqrt(2) - sqrt(2 * sqrt(2) - 1)) / 2
        assert fabs(to_mp(radius(2)) - want2) < tol


def test_radius_third_index_digits():
    assert nstr(to_mp(radius(3)), 10) == "0.5971940686"


def test_radius_monotone_prefix():
    with workprec(280):
        vals = [to_mp(radius(n)) for n in range(1, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1


def test_precision_floor():
    with pytest.raises(ValueError):
        radius(1, 64)


def test_precision_stability():
    with workprec(400):
        assert fabs(to_mp(radius(1, 256)) - to_mp(radius(1, 320))) < mpf(10) ** -70


def test_dominant_structure():
    rep1 = singularity_report(1)
    assert len(rep1.dominant) == 1 and len(rep1.gammas) == 1
    rep2 = singularity_report(2)
    assert len(rep2.dominant) == 2
    with workprec(300):
        a, b = map(to_mp, rep2.dominant)
        # a conjugate pair
        assert fabs(a.real - b.real) < mpf(10) ** -60
        assert fabs(a.imag + b.imag) < mpf(10) ** -60


def test_gamma_constants():
    with workprec(300):
        g1 = to_mp(singularity_report(1).gammas[0])
        assert fabs(g1 - (-power(5, mpf(1) / 4))) < mpf(10) ** -60
        g2 = next(to_mp(g) for g in singularity_report(2).gammas if g.imag > 0)
        assert fabs(mpc(g2).real - mpf("-0.47791946288998969657")) < mpf(10) ** -19
        assert fabs(mpc(g2).imag - mpf("1.2009723163799612151")) < mpf(10) ** -18


def test_leading_term_converges_to_coefficients():
    kv = kappa_values(1, 501)
    with workprec(280):
        approx = to_mp(leading_term(1, 500))
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


# -- the start circle, conjugate pairs and the fixed order -------------------------


def _Q_coeffs(n):
    return list(poly_Q(n).coeffs)


def test_float_sweeps_bounded(shared_report):
    # Aberth starts near the roots, not outside a coefficient bound, and
    # runs on the n roots of the trace polynomial: at most 10 sweeps for
    # every n <= 48, 342 in all
    sweeps = [shared_report(n).float_sweeps for n in range(1, 49)]
    assert max(sweeps) <= 12
    assert sum(sweeps) <= 360


@pytest.mark.parametrize("n", [2, 19, 43, 48])
def test_mirrored_pairs_exactly_conjugate(n):
    roots = all_roots(_Q_coeffs(n), DEFAULT_PRECISION)
    radius_at = dict(zip(roots, roots.radii))
    for z, r in radius_at.items():
        assert z.imag == 0 or radius_at[z.conjugate()] == r


@pytest.mark.parametrize("coeffs", [[1, 0, 1, 0, 1], [1, 2, -1, 2, 1]])
def test_unit_circle_pairs_exactly_conjugate(coeffs):
    # a real trace root w in (-2, 2) maps to z and 1/z = conj(z) on the unit
    # circle, one disk each: exact mirror images with one radius
    roots = all_roots(coeffs, DEFAULT_PRECISION)
    radius_at = dict(zip(roots, roots.radii))
    unit = [z for z in roots if z.imag != 0]
    assert unit and all(radius_at[z.conjugate()] == radius_at[z]
                        for z in unit)


@pytest.mark.parametrize("n", [1, 3, 19, 30])
def test_roots_in_fixed_order(n):
    roots = all_roots(_Q_coeffs(n), DEFAULT_PRECISION)
    with workprec(DEFAULT_PRECISION):
        keys = [(float(fabs(z)), float(mp.arg(z))) for z in map(to_mp, roots)]
    assert keys == sorted(keys)
    rep = singularity_report(n)
    assert list(rep.dominant) == [z for z in rep.all_roots
                                  if z in set(rep.dominant)]


def test_order_does_not_follow_the_path(monkeypatch):
    # float roots moved by 1e-12 and listed backwards take other Newton
    # paths; the digits and the order of the roots stay
    want = [nstr(to_mp(z), 30)
            for z in all_roots(_Q_coeffs(12), DEFAULT_PRECISION)]
    sweeps = asymptotics._aberth_sweeps

    def moved(half, zs, tol, max_sweeps):
        count = sweeps(half, zs, tol, max_sweeps)
        zs[:] = [z * (1 + 1e-12j) for z in reversed(zs)]
        return count

    monkeypatch.setattr(asymptotics, "_aberth_sweeps", moved)
    got = all_roots(_Q_coeffs(12), DEFAULT_PRECISION)
    assert [nstr(to_mp(z), 30) for z in got] == want


def test_pair_on_the_real_axis_polished_on_its_own(monkeypatch):
    # the trace roots -3 and 4 of (1 + 3q + q^2)(1 - 4q + q^2) off the axis
    # by +-1e-20 pair up; the disk of the first inner root meets the real
    # axis, so the second is polished on its own instead of mirrored
    def paired_real_roots(half, zs, tol, max_sweeps):
        zs[:] = [-3 + 1e-20j, 4 - 1e-20j]
        return None

    monkeypatch.setattr(asymptotics, "_aberth_sweeps", paired_real_roots)
    roots = all_roots([1, -1, -10, -1, 1], 192)
    assert [z.imag for z in roots] == [0, 0, 0, 0]
    s3, s5 = 3 ** 0.5, 5 ** 0.5
    want = [2 - s3, (s5 - 3) / 2, -(s5 + 3) / 2, 2 + s3]
    assert all(abs(float(z.real) - w) < 1e-12 for z, w in zip(roots, want))


_ASYMPTOTICS_TEXT = Path(asymptotics.__file__).read_text()


def _mutant_all_roots(old, new):
    """all_roots of a copy of the asymptotics module whose text has `old`,
    which occurs in it exactly once, replaced by `new`."""
    assert _ASYMPTOTICS_TEXT.count(old) == 1
    scope = {"__name__": "qmetallic.asymptotics_mutant",
             "__package__": "qmetallic"}
    exec(compile(_ASYMPTOTICS_TEXT.replace(old, new), asymptotics.__file__,
                 "exec"), scope)
    return scope["all_roots"]


def test_mirror_without_conjugation_rejected():
    # a mutant that mirrors the z-disks of a trace root w to themselves
    # instead of to the disks of conj(w): each shows up twice
    mutant = _mutant_all_roots("disks.append((zx, -zy, rho))",
                               "disks.append((zx, zy, rho))")
    with pytest.raises(MultipleRoot, match="overlap"):
        mutant(_Q_coeffs(5), DEFAULT_PRECISION)


def test_same_branch_for_z_and_its_reciprocal_rejected():
    # a mutant that maps w to the same root of q^2 - wq + 1 twice: each
    # disk is certified on its own, but shows up twice
    mutant = _mutant_all_roots("for s in (1, -1):", "for s in (1, 1):")
    with pytest.raises(MultipleRoot, match="overlap"):
        mutant(_Q_coeffs(5), DEFAULT_PRECISION)


@functools.lru_cache(maxsize=None)
def _polyroots_768(n):
    """The roots of Q_n by mpmath's own Durand-Kerner at 768 bits, three
    times the largest precision below, started from its own roots at 64
    bits."""
    coeffs = list(reversed(_Q_coeffs(n)))
    with workprec(64):
        start = polyroots(coeffs, maxsteps=100, extraprec=16)
    with workprec(768):
        roots, error = polyroots(coeffs, maxsteps=50, extraprec=32,
                                 error=True, roots_init=start)
        assert error < mpf(2) ** -700
    return roots


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("n", [1, 2, 12, 30])
def test_every_root_in_exactly_one_disk(n, bits):
    roots = all_roots(_Q_coeffs(n), bits)
    with workprec(768):
        disks = list(zip(map(to_mp, roots), map(to_mp, roots.radii)))
        for w in _polyroots_768(n):
            assert sum(fabs(w - z) <= r for z, r in disks) == 1


# 10^12 q^2 - (2 10^12 + 1) q + 10^12: the trace root w = 2 + 10^-12 sits
# so near 2 that the roots 1 +- about 10^-6 of q^2 - wq + 1 move some
# 5 10^5 times as far as w does
_NEAR_TWO = [10 ** 12, -(2 * 10 ** 12 + 1), 10 ** 12]


def _one_root_per_disk_near_two(roots):
    """Whether each of the two roots of _NEAR_TWO lies in exactly one of
    the disks of `roots`."""
    with workprec(768):
        a, b, _ = map(mpf, _NEAR_TWO)
        half = sqrt(b * b - 4 * a * a) / (2 * a)
        disks = list(zip(map(to_mp, roots), map(to_mp, roots.radii)))
        return all(sum(fabs(w - z) <= r for z, r in disks) == 1
                   for w in (-b / (2 * a) + half, -b / (2 * a) - half))


@pytest.mark.parametrize("bits", [128, 256])
def test_disks_of_a_trace_root_near_two(bits):
    assert _one_root_per_disk_near_two(all_roots(_NEAR_TWO, bits))


@pytest.mark.parametrize("bits", [128, 256])
def test_w_radius_taken_as_z_radius_misses_the_roots(bits):
    # a mutant that gives each z-disk the radius of its w-disk, skipping
    # the transfer through q^2 - wq + 1
    mutant = _mutant_all_roots("out.append((zx, zy, rho))",
                               "out.append((zx, zy, r))")
    assert not _one_root_per_disk_near_two(mutant(_NEAR_TWO, bits))


def _monomial_trace(coeffs):
    """S = a_d + sum a_(d+k) T_k in powers of w, ascending, in integers:
    T_0 = 2, T_1 = w and T_k = w T_(k-1) - T_(k-2)."""
    d = len(coeffs) // 2
    s = [coeffs[d]] + [0] * d
    older, t = [2], [0, 1]
    for k in range(1, d + 1):
        for i, a in enumerate(t):
            s[i] += coeffs[d + k] * a
        older, t = t, [a - b for a, b in itertools.zip_longest(
            [0] + t, older, fillvalue=0)]
    return s


@pytest.mark.parametrize("coeffs", [
    [1, 2, -1, 2, 1],
    [1, 0, 3, -1, 3, 0, 1],
    [1, 0, -7, 4, 11, 4, -7, 0, 1],
    list(poly_Q(48).coeffs),
])
def test_clenshaw_fixed_within_its_bound(coeffs):
    # S and S' in fixed point against mpmath on S in powers of w at four
    # times the precision, at random w, at |w| near 2 (there R is near 1,
    # and a bound from |w| alone near 2.414^d) and at |Im w| near 2
    P = 192
    d = len(coeffs) // 2
    scaled = [c << P for c in reversed(coeffs[d:])]
    mono = list(reversed(_monomial_trace(coeffs)))
    rng = random.Random(31)
    points = ([complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
               for _ in range(8)]
              + [2 * complex(rng.choice((-1, 1)), rng.uniform(-1e-3, 1e-3))
                 * (1 - rng.uniform(0, 1e-3)) for _ in range(6)]
              + [complex(rng.uniform(-2, 2), rng.choice((-2, 2))
                         + rng.uniform(-1e-2, 1e-2)) for _ in range(6)])
    for k, w in enumerate(points):
        x, y = (int(v * 2.0 ** 60) << (P - 60) for v in (w.real, w.imag))
        x, y = x + rng.getrandbits(P - 60), y + rng.getrandbits(P - 60)
        es, eds = asymptotics._clenshaw_error(d, x, y, P)
        if 8 <= k < 14:
            assert es < 2 ** 13
        sr, si, dr, di = asymptotics._clenshaw_fixed(scaled, x, y, P)
        with workprec(4 * P):
            s, ds = polyval(mono, mpc(mpf(x), mpf(y)) / mpf(2) ** P,
                            derivative=True)
            unit = mpf(2) ** -P
            assert fabs(mpc(sr, si) * unit - s) <= es * unit
            assert fabs(mpc(dr, di) * unit - ds) <= eds * unit


def test_trace_disk_meeting_two_rejected():
    # at w = +-2 the roots z = 1/z = +-1 coincide, and no w-disk that holds
    # +-2 separates them; a disk that stays clear of it gives two
    P = DEFAULT_PRECISION + 64
    for x, y, r in ((2 << P, 0, 1), (-(2 << P) + 5, 3, 10),
                    ((2 << P) + (1 << P - 100), 0, 1 << P - 99)):
        with pytest.raises(MultipleRoot, match="separate"):
            asymptotics._transfer(x, y, r, P)
    (x1, y1, r1), (x2, y2, r2) = asymptotics._transfer(
        (2 << P) + (1 << P - 100), 0, 1 << P - 120, P)
    assert y1 == y2 == 0 and (x1 - x2) ** 2 > (r1 + r2) ** 2


def test_root_sets_closed_under_inversion(shared_report):
    # Q_n is palindromic, so 1/z is a root with z: checked on the certified
    # roots alone, whatever path all_roots took to them
    with workprec(320):
        for n in range(1, 49):
            roots = list(map(to_mp, shared_report(n).all_roots))
            near = [complex(z) for z in roots]
            for z in roots:
                w = 1 / z
                k = min(range(len(roots)),
                        key=lambda k: abs(near[k] - complex(w)))
                assert fabs(roots[k] - w) < mpf(10) ** -70


@pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (2, 5)])
def test_float_stage_with_a_wrong_partner_rejected(monkeypatch, a, b):
    # the float partner of root a is replaced by a copy of the partner of
    # root b: root a's conjugate has no start, b's has two, and the result
    # must be a refusal, never a wrong root set
    sweeps = asymptotics._aberth_sweeps

    def wrong_partner(half, zs, tol, max_sweeps):
        count = sweeps(half, zs, tol, max_sweeps)
        upper = sorted((z for z in zs if z.imag > 0), key=abs)
        za, zb = upper[a], upper[b]
        k = min(range(len(zs)), key=lambda k: abs(zs[k] - za.conjugate()))
        zs[k] = zb.conjugate() * (1 + 1e-12)
        return count

    monkeypatch.setattr(asymptotics, "_aberth_sweeps", wrong_partner)
    with pytest.raises(MultipleRoot, match="overlap"):
        all_roots(_Q_coeffs(12), DEFAULT_PRECISION)


def test_closest_moduli_two_dominant_roots():
    # n = 19 has the smallest relative gap between root moduli, 1.39e-5,
    # between the dominant pair and the next pair
    rep = singularity_report(19)
    assert len(rep.dominant) == 2
    with workprec(DEFAULT_PRECISION):
        moduli = sorted({float(fabs(to_mp(z))) for z in rep.all_roots})
    assert 1.38e-5 < moduli[1] / moduli[0] - 1 < 1.40e-5


# -- the branch of the constants ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 19, 25, 42, 43, 44])
def test_leading_term_has_the_sign_of_the_coefficients(n):
    # an oracle apart from the root product: far out, alpha_l is the
    # leading term of kappa_l, so their signs agree at most l.  n = 19 gets
    # a bare majority: its second root pair lies only 1.39e-5 farther out
    # and swings the sign of the coefficients at some l
    kv = kappa_values(n, 3001)
    rep = singularity_report(n)
    ls = range(2000, 3001, 50)
    agree = sum((leading_term(n, l, report=rep) > 0) == (kv[l] > 0)
                for l in ls)
    assert agree > (len(ls) // 2 if n == 19 else len(ls) - 3)


def test_gamma_moduli_from_the_derivative(shared_report):
    # |gamma|^2 = |(1 - z + z^2) z Q'(z)| / (4 |z|^2) at every dominant root
    # z, apart from the root product that gives the constants (their sign is
    # test_leading_term_has_the_sign_of_the_coefficients' to check)
    for n in range(1, 49):
        rep = shared_report(n)
        coeffs = list(poly_Q(n).coeffs)
        dq = [k * c for k, c in enumerate(coeffs)][:0:-1]  # highest first
        with workprec(rep.precision_bits + 64):
            for z, g in zip(map(to_mp, rep.dominant), map(to_mp, rep.gammas)):
                want = (fabs((1 - z + z * z) * z * polyval(dq, z))
                        / (4 * fabs(z) ** 2))
                assert fabs(fabs(g) ** 2 / want - 1) < mpf(10) ** -60


def test_n44_constants_on_the_principal_branch():
    # the one index whose constants a single probe coefficient (l = 400)
    # used to flip
    rep = singularity_report(44)
    assert not rep.branch_flipped
    assert all(g.real > 0 for g in rep.gammas)


def test_constant_refused_across_a_branch_cut():
    # the product holds at the dominant roots only: at the outermost root
    # z = 1/conj(z_1) of the palindromic Q_n, the factor 1 - z/z_1 is
    # negative; and disks so wide that a factor's sign is unsure are refused
    P = DEFAULT_PRECISION + 64
    roots = all_roots(_Q_coeffs(3), DEFAULT_PRECISION)
    pts = [(units(z.real, P), units(z.imag, P), units(r, P))
           for z, r in zip(roots, roots.radii)]
    gx, gy = asymptotics._gamma_product(pts, 0, P)
    assert DyadicComplex(Dyadic(gx, -P), Dyadic(gy, -P)) == \
        singularity_report(3).gammas[0]
    with pytest.raises(BranchCut, match="reaches its cut"):
        asymptotics._gamma_product(pts, len(pts) - 1, P)
    wide = [(x, y, 1 << (P - 1)) for x, y, _ in pts]
    with pytest.raises(BranchCut, match="reaches its cut"):
        asymptotics._gamma_product(wide, 0, P)
