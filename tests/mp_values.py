"""The package's exact asymptotics values as mpmath numbers, for tests that
use mpmath as their independent oracle."""

from mpmath import mpc, mpf, workprec

from qmetallic.dyadic import Dyadic


def to_mp(v):
    """The mpf of a Dyadic, or the mpc of a DyadicComplex, without rounding."""
    prec = max(53, v.real.man.bit_length(), v.imag.man.bit_length())
    with workprec(prec):
        re = mpf((v.real.man, v.real.exp))
        if isinstance(v, Dyadic):
            return re
        return mpc(re, mpf((v.imag.man, v.imag.exp)))
