"""The exact value types, their decimal printing, and the fixed-point
kernels, each against mpmath as the oracle (mpmath is used here only)."""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf, workprec

from qmetallic.asymptotics import (TABLE_INDEX, TABLE_LS, ratio_table,
                                   ratio_values)
from qmetallic.dyadic import (Dyadic, DyadicComplex, cdiv, cmul, cpow, csqrt,
                              nstr, pi_units)

from mp_values import to_mp


def _same_print(value, dps, strip_zeros=True):
    want = mpmath.nstr(to_mp(value), dps, strip_zeros=strip_zeros)
    assert nstr(value, dps, strip_zeros) == want, (value, dps, strip_zeros)


# -- nstr: every printed value ------------------------------------------------------


@pytest.mark.parametrize("bits", [256, 512])
def test_nstr_matches_on_every_printed_asymptotics_value(shared_report,
                                                         bits):
    # what `asymptotics`, `radius` and the root digests print for n = 1..48
    for n in range(1, 49):
        rep = shared_report(n, bits)
        for z in rep.all_roots + rep.dominant + rep.gammas:
            _same_print(z.real, 30)
            _same_print(z.imag, 30)
        _same_print(rep.radius, 30)
        _same_print(rep.radius, 20)
        _same_print(rep.inclusion_radius, 5)


def test_nstr_matches_on_the_ratio_tables():
    for n in TABLE_INDEX.values():
        rows = ratio_values(n, TABLE_LS)
        assert len(rows) == 20
        for _, r in rows:
            _same_print(r, 15, strip_zeros=False)
        assert ratio_table(n, TABLE_LS) == [
            (l, nstr(r, 15, strip_zeros=False)) for l, r in rows]


# -- nstr: edge values --------------------------------------------------------------


def _near(x: Fraction, bits: int = 200) -> Dyadic:
    """x rounded to a Dyadic with `bits` bits after the point."""
    return Dyadic(round(x * 2 ** bits), -bits)


EDGES = [
    Dyadic(0),
    Dyadic(1), Dyadic(-1), Dyadic(5, -1), Dyadic(-3, -3),
    # exact powers of ten, and their nearest 200-bit neighbours of 10^-k
    Dyadic(10), Dyadic(1000), Dyadic(10 ** 15), Dyadic(-10 ** 30),
    _near(Fraction(1, 10)), _near(Fraction(-1, 10 ** 6)),
    _near(Fraction(1, 10 ** 30)),
    # values that round up to the next power of ten
    Dyadic(2 ** 16 - 1, -16),                       # 0.9999847...
    _near(Fraction(99999995, 10 ** 7)),             # 9.9999995
    _near(Fraction(-99999999999999995, 10 ** 16)),  # -9.9999999999999995
    _near(Fraction(999995, 10 ** 11)),              # 9.99995e-6
    # the fixed/exponent switch: 1e-4 prints fixed, 1e-5 does not
    _near(Fraction(1, 10 ** 4)), _near(Fraction(1, 10 ** 5)),
    _near(Fraction(123, 10 ** 7)),
    Dyadic(123456), Dyadic(-98765432109876543210),
    # small and large enough to print in exponent form
    Dyadic(1, -100), Dyadic(-7, -900), Dyadic(3, 200), Dyadic(1, -3600),
]


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_nstr_edge_values(value):
    for dps in (1, 2, 3, 5, 6, 15, 20, 30):
        for strip_zeros in (True, False):
            _same_print(value, dps, strip_zeros)


def test_nstr_random_values():
    rng = random.Random(20261020)
    for _ in range(400):
        man = rng.getrandbits(rng.choice([1, 8, 53, 200, 400]))
        value = Dyadic(rng.choice([1, -1]) * man, rng.randint(-700, 300))
        for dps in (3, 15, 30):
            _same_print(value, dps, rng.random() < 0.5)


def test_nstr_takes_any_exact_rational():
    assert nstr(0, 5) == "0.0"
    assert nstr(Fraction(1, 3), 5) == "0.33333"
    assert nstr(Fraction(2, 3), 5) == "0.66667"
    assert nstr(Fraction(-1, 10 ** 64), 5) == "-1.0e-64"
    assert nstr(0.5, 3, strip_zeros=False) == "0.500"
    assert nstr(10 ** 40, 3) == "1.0e+40"
    with pytest.raises(ValueError):
        nstr(1, 0)


# -- the value types ----------------------------------------------------------------


def test_dyadic_normal_form_and_exact_ratio():
    d = Dyadic(12, -4)
    assert (d.man, d.exp) == (3, -2)
    assert (Dyadic(0, 7).man, Dyadic(0, 7).exp) == (0, 0)
    assert d.as_integer_ratio() == (3, 4)
    assert Dyadic(-5, 3).as_integer_ratio() == (-40, 1)
    assert float(Dyadic(1, -1100)) == 0.0 and float(Dyadic(3, -2)) == 0.75
    with workprec(53):
        assert to_mp(Dyadic(3, 2000)) == mpf(3) * 2 ** 2000  # not rounded
    assert d.real is d and d.imag == 0 and d.conjugate() is d
    assert -d == Dyadic(-3, -2) and abs(-d) == d and not Dyadic(0)
    assert str(d) == "0.75" and str(Dyadic(1, -100)) == "7.88860905221012e-31"


def test_dyadic_compares_and_hashes_like_a_number():
    d = Dyadic(3, -2)
    assert d == Fraction(3, 4) == 0.75 and Dyadic(8) == 8
    assert hash(d) == hash(Fraction(3, 4)) == hash(0.75)
    assert hash(Dyadic(-1)) == hash(-1) and hash(Dyadic(-8, 100)) == hash(-2 ** 103)
    assert len({Dyadic(1), 1, 1.0, Fraction(1)}) == 1
    assert Dyadic(1, -200) < 1e-40 < Dyadic(1, -100) <= Dyadic(2, -101)
    assert Dyadic(-1) < 0 < Dyadic(1, -2000) and 1 > Dyadic(1, -1) >= 0.5
    assert d != "0.75" and d.__lt__("x") is NotImplemented


def test_dyadic_complex():
    z = DyadicComplex(Dyadic(1, -1), Dyadic(-3))
    assert z.conjugate() == DyadicComplex(Dyadic(1, -1), Dyadic(3))
    assert z == complex(0.5, -3) and z != complex(0.5, 3)
    assert DyadicComplex(Dyadic(2), Dyadic(0)) == 2
    assert hash(DyadicComplex(Dyadic(2), Dyadic(0))) == hash(2)
    assert len({z, z.conjugate(), DyadicComplex(Dyadic(2, -2), Dyadic(-3))}) == 2


# -- fixed-point kernels ------------------------------------------------------------

P = 320


def _fix(x) -> int:
    return int(mpmath.floor(x * 2 ** P))


def _close(got: tuple, want, units: int = 4):
    with workprec(2 * P):
        got = mpc(mpf((got[0], -P)), mpf((got[1], -P)))
        return abs(got - want) <= units * mpf(2) ** -P


def test_pi_within_one_unit():
    with workprec(2 * P):
        assert abs(pi_units(P) - mpmath.pi * 2 ** P) <= 1
        assert abs(pi_units(100) - mpmath.pi * 2 ** 100) <= 1


@pytest.mark.parametrize("w", [3 + 4j, -3 + 4j, -3 - 4j, 3 - 4j, -2, 0.25, 1e-9j])
def test_principal_square_root(w):
    with workprec(2 * P):
        w = mpc(w)
        got = csqrt(_fix(w.real), _fix(w.imag), P)
        assert _close(got, mpmath.sqrt(w))
        assert got[0] >= 0
    assert csqrt(0, 0, P) == (0, 0)


def test_complex_product_and_quotient():
    a, b = mpc("0.3", "-1.7"), mpc("-2.25", "0.125")
    with workprec(2 * P):
        x = (_fix(a.real), _fix(a.imag), _fix(b.real), _fix(b.imag))
        assert _close(cmul(*x, P), a * b)
        assert _close(cdiv(*x, P), a / b, units=16)


def test_binary_powering_keeps_relative_precision():
    with workprec(2 * P):
        w = mpc("1.61803398874989484820458683436563811772", "-0.5")
        for l in (0, 1, 2, 7, 400, 3001):
            c, d, f = cpow(_fix(w.real), _fix(w.imag), -P, l, P)
            got = mpc(c, d) * mpf(2) ** f
            want = w ** l
            assert abs(got - want) <= abs(want) * mpf(2) ** (-P + 16)
