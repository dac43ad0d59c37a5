"""Exact binary fractions, their decimal digits, and fixed-point kernels.

A `Dyadic` is the exact real number man * 2^exp and a `DyadicComplex` a
pair of them; the asymptotics hold its roots, radii and constants in
these.  Both compare and hash by value, and `as_integer_ratio` gives the
exact fraction, so `fractions.Fraction(*d.as_integer_ratio())`, or a
multiprecision float built from the pair (d.man, d.exp), converts without
rounding.

`nstr` prints a value digit for digit as the `nstr` of the usual Python
multiprecision library (its `libmpf.to_str`) prints the same value.  The
kernels work in fixed point: a number is an int in units of 2^-P, and a
complex one a pair of them.
"""

from __future__ import annotations

import functools
import math
import sys

_LOG2_10 = math.log(10, 2)  # the float `to_str` derives its digit counts from


@functools.total_ordering
class Dyadic:
    """The exact real number man * 2^exp, kept with man odd (or zero)."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        man, exp = int(man), int(exp)
        if man:
            trailing = (man & -man).bit_length() - 1
            man, exp = man >> trailing, exp + trailing
        else:
            exp = 0
        self.man, self.exp = man, exp

    def as_integer_ratio(self) -> tuple:
        if self.exp >= 0:
            return self.man << self.exp, 1
        return self.man, 1 << -self.exp

    @property
    def real(self) -> "Dyadic":
        return self

    @property
    def imag(self) -> "Dyadic":
        return Dyadic(0)

    def conjugate(self) -> "Dyadic":
        return self

    def _cmp(self, other):
        try:
            num, den = other.as_integer_ratio()
        except AttributeError:
            return None
        a, b = self.as_integer_ratio()
        d = a * den - num * b
        return (d > 0) - (d < 0)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __hash__(self):
        # Python's numeric hash, so a Dyadic hashes like the equal int,
        # float or Fraction
        modulus = sys.hash_info.modulus
        h = abs(self.man) % modulus * pow(2, self.exp, modulus) % modulus
        h = -h if self.man < 0 else h
        return -2 if h == -1 else h

    def __bool__(self):
        return self.man != 0

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

    def __float__(self) -> float:
        num, den = self.as_integer_ratio()
        return num / den  # int true division rounds correctly

    def __repr__(self):
        return f"Dyadic({self.man}, {self.exp})"

    def __str__(self):
        return nstr(self, 15)


class DyadicComplex:
    """A complex number with exact `Dyadic` parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real: Dyadic, imag: Dyadic):
        self.real, self.imag = real, imag

    def conjugate(self) -> "DyadicComplex":
        return DyadicComplex(self.real, -self.imag)

    def __eq__(self, other):
        try:
            re, im = other.real, other.imag
        except AttributeError:
            return NotImplemented
        return self.real == re and self.imag == im

    def __hash__(self):
        return hash(self.real) if not self.imag else hash((self.real, self.imag))

    def __repr__(self):
        return f"DyadicComplex({self.real!r}, {self.imag!r})"


def units(x, P: int) -> int:
    """floor(x * 2^P) of a number with `as_integer_ratio`."""
    num, den = x.as_integer_ratio()
    return (num << P) // den


# -- decimal digits ----------------------------------------------------------------


def nstr(x, dps: int, strip_zeros: bool = True) -> str:
    """`x` (anything with `as_integer_ratio`) to `dps` significant digits,
    as `to_str(x, dps, strip_zeros)` prints the same value.

    Like `to_str`, it floors the value to a binary fixed-point number of
    int((dps + 3) log2(10)) + 10 significant bits, converts that to a
    decimal one, and rounds half up on the digit string.  Fixed notation
    is used while the leading digit's exponent lies strictly between
    min(-(dps // 3), -5) and dps.  For |x| beyond 2^+-3500 `to_str` first
    divides by a rounded power of ten; this port stays exact there, so
    the two can differ only in a digit that sits on a rounding boundary.
    """
    if dps < 1:
        raise ValueError("need dps >= 1")
    num, den = x.as_integer_ratio()
    if not num:
        return "0.0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    e2 = num.bit_length() - den.bit_length()  # then 2^(e2-1) <= x < 2^e2
    if num << max(-e2, 0) >= den << max(e2, 0):
        e2 += 1
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - e2, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    digits = str(((num << fixprec) // den) * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1

    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]

    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            if split > dps:
                digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = digits[:split] + "." + digits[split:]
    if strip_zeros:
        digits = digits.rstrip("0")
        if digits[-1] == ".":
            digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"


# -- fixed-point kernels -------------------------------------------------------------
# The shifts and divisions floor, so each result is off by under 1 unit in
# each part.


def cmul(a: int, b: int, c: int, d: int, P: int) -> tuple:
    """(a + ib)(c + id)."""
    return (a * c - b * d) >> P, (a * d + b * c) >> P


def cdiv(a: int, b: int, c: int, d: int, P: int) -> tuple:
    """(a + ib) / (c + id), for c + id nonzero."""
    den = c * c + d * d
    return ((a * c + b * d) << P) // den, ((b * c - a * d) << P) // den


def csqrt(a: int, b: int, P: int) -> tuple:
    """The principal square root of a + ib (imaginary part >= 0 on the
    negative real axis), from `math.isqrt`."""
    m = math.isqrt(a * a + b * b)
    if a >= 0:
        s = math.isqrt((m + a) << (P - 1))
        return (s, (b << (P - 1)) // s) if s else (0, 0)
    t = math.isqrt((m - a) << (P - 1))
    t = -t if b < 0 else t
    return (b << (P - 1)) // t, t


def _arctan_inverse(x: int, P: int) -> int:
    """arctan(1/x) by its Taylor series, each term floored."""
    power = (1 << P) // x
    total, k, sign, x2 = power, 3, -1, x * x
    while power:
        power //= x2
        total += sign * (power // k)
        k, sign = k + 2, -sign
    return total


def pi_units(P: int) -> int:
    """pi in units of 2^-P, by Machin's formula pi = 16 arctan(1/5) -
    4 arctan(1/239) with 16 guard bits: off by at most 1 unit."""
    return (16 * _arctan_inverse(5, P + 16) - 4 * _arctan_inverse(239, P + 16)) >> 16


def cpow(a: int, b: int, e: int, l: int, P: int) -> tuple:
    """((a + ib) 2^e)^l for l >= 0 as (c, d, f), the value (c + id) 2^f, by
    binary powering; after each product the parts keep about P bits."""

    def mul(a, b, e, c, d, f):
        re, im = a * c - b * d, a * d + b * c
        s = max(max(abs(re), abs(im)).bit_length() - P, 0)
        return re >> s, im >> s, e + f + s

    out = (1, 0, 0)
    while l:
        if l & 1:
            out = mul(*out, a, b, e)
        l >>= 1
        if l:
            a, b, e = mul(a, b, e, a, b, e)
    return out
