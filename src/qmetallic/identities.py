"""Identity suite tying together the deformations of phi_n, -phi_n, 1/phi_n,
-1/phi_n, the multiplicative inverse 1/[phi_n]_q, and the q -> 1/q
coefficient reflection.

Every check builds both sides independently: one side through the modular
group actions of module qnum applied to the base series F = [phi_n]_q, the
other through explicit Laurent expansions whose tails are coefficient sums
over the kappa table; the sides of the eight series relations are built
once per (n, L) and shared by their checks.  crin and multinv are one
identity up to the factor -1/q on both sides, 1/F = -q [-1/phi_n], so
they share one solve of 1/F.  check_all reports each tag
once, after rejecting an order below min_order(n).  Reports carry the
identity tag, the compared window, and the first mismatch on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotMonomialDenominator
from .metallic import _check_n, _edge, kappa_values, phi_series, poly_P, poly_R
from .qnum import (
    PeriodicCF,
    QuadraticForm,
    neg_reciprocal,
    negate,
    q_integer,
    quantize_quadratic,
    reciprocal,
    shift,
)
from .series import LaurentSeries, monomial, poly_coeffs, reversal, zero

IDENTITY_IDS = (
    "rel1", "rel2", "rel3", "rel4",
    "crin", "recip", "neg", "multinv",
    "reflectR", "reflectP",
)
_REPORT_IDS = IDENTITY_IDS + ("reflect", "conjugate")


@dataclass(frozen=True)
class IdentityReport:
    n: int
    identity_id: str
    checked_order: int
    holds: bool
    first_failure: int | None = None

    def __post_init__(self):
        if self.identity_id not in _REPORT_IDS:
            raise ValueError(f"unknown identity tag {self.identity_id!r}")
        if self.holds != (self.first_failure is None):
            raise ValueError("holds must mirror the absence of a failure")

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "identity_id": self.identity_id,
            "checked_order": self.checked_order,
            "holds": self.holds,
            "first_failure": self.first_failure,
        }


@dataclass(frozen=True)
class LaurentFamily:
    """The deformed family around index n, all as Laurent series."""

    phi: LaurentSeries
    recip: LaurentSeries      # [1/phi_n]
    negrecip: LaurentSeries   # [-1/phi_n]
    neg: LaurentSeries        # [-phi_n]


def alpha_poly(n: int) -> LaurentSeries:
    """Principal part polynomial of [-phi_n]: the case split is
    -q^-2 - q^-1 + 1 (n=1), -q^-3 - 2q^-1 + 1 (n=2), and for n >= 3
    -q^-(n+1) - q^-(n-1) - ... - q^-2 - 2q^-1 + 1."""
    n = _check_n(n)
    # [1 - n]_q = -(q^-1 + ... + q^-(n-1)), zero for n = 1
    return 1 - monomial(1, -1) - monomial(1, -(n + 1)) + q_integer(1 - n)


def laurent_family(n: int, L: int) -> LaurentFamily:
    """Explicit expansions: tails are signed/shifted kappa sums."""
    n = _check_n(n)
    if L < 2 * n + 2:
        raise ValueError("need L >= 2n + 2")
    kv = kappa_values(n, L + n)
    recip = monomial(1, n) + LaurentSeries(n + 1, kv[2 * n + 1:L + n], L)
    # -q^-1 + 1 - q^(n-1) + q^n - q^(2n) - sum_{j>2n} kappa_j q^j
    negrecip = (_edge(n).shift(-1) - monomial(1, 2 * n)
                - LaurentSeries(2 * n + 1, kv[2 * n + 1:L], L))
    neg = alpha_poly(n) - recip
    return LaurentFamily(phi=phi_series(n, L), recip=recip, negrecip=negrecip,
                         neg=neg)


def _inverse_formula(n: int, L: int) -> LaurentSeries:
    """1 - q + q^n - q^(n+1) + q^(2n+1) + sum_{j>=2n+2} kappa_{j-1} q^j."""
    kv = kappa_values(n, L)
    return (monomial(1, 2 * n + 1) - _edge(n)
            + LaurentSeries(2 * n + 2, kv[2 * n + 1:L - 1], L))


def _compare(n: int, identity_id: str, lhs: LaurentSeries, rhs: LaurentSeries,
             upto) -> IdentityReport:
    hi = min(lhs.order, rhs.order, upto)
    fm = lhs.first_mismatch(rhs, upto=hi)
    return IdentityReport(n, identity_id, int(hi), fm is None, fm)


@lru_cache(maxsize=1)
def _relation_sides(n: int, L: int) -> dict:
    """(lhs, rhs) of each series relation by tag (immutable, so shared)."""
    fam = laurent_family(n, L)  # first: it rejects L < 2n + 2
    # negate() consumes extra orders: num valuation -1, den (q-1)x + 1
    # valuation n (the n leading coefficients of x are all 1)
    phi = phi_series(n, L + 2 * n + 2)
    nq = q_integer(n)
    edge = _edge(n).shift(-1)  # (q^n + 1)(q - 1)/q
    recip_a = reciprocal(phi, L)
    neg_a = negate(phi, L)
    negrecip_a = neg_reciprocal(phi, L)
    return {
        "rel1": (phi, shift(recip_a, n)),
        "rel2": (negrecip_a, shift(neg_a, n)),
        "rel3": (negrecip_a, nq + edge - phi),
        "rel4": (phi, edge - neg_a.shift(n)),
        "recip": (recip_a, fam.recip),
        "crin": (negrecip_a, fam.negrecip),
        "neg": (neg_a, fam.neg),
        # 1/F = -q * [-1/phi_n]: crin's solve, against 1/F's own pattern
        "multinv": (-negrecip_a.shift(1), _inverse_formula(n, L)),
    }


def check_rel(n: int, identity_id: str, L: int = 300) -> IdentityReport:
    """Verify one tagged identity to order L (reflection tags are exact)."""
    n = _check_n(n)
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity tag {identity_id!r}")
    if identity_id in ("reflectR", "reflectP"):
        return _reflection_single(n, identity_id)
    if identity_id == "multinv":
        return mult_inverse_check(n, L)
    lhs, rhs = _relation_sides(n, L)[identity_id]
    return _compare(n, identity_id, lhs, rhs, L)


def min_order(n: int) -> int:
    """Least order every tag can be checked to (the inverse pattern's)."""
    return 2 * _check_n(n) + 3


def _require_min_order(n: int, L: int) -> None:
    if L < min_order(n):
        raise ValueError(f"need L >= 2n + 3 = {min_order(n)} for n = {n}, "
                         f"got {L}")


def check_all(n: int, L: int = 300) -> list:
    """One report per tag of IDENTITY_IDS, in that order."""
    _require_min_order(n, L)
    return [check_rel(n, tag, L) for tag in IDENTITY_IDS]


def mult_inverse_check(n: int, L: int = 300) -> IdentityReport:
    """Multiplicative inverse against the explicit Laurent pattern."""
    n = _check_n(n)
    _require_min_order(n, L)
    return _compare(n, "multinv", *_relation_sides(n, L)["multinv"], L)


def _reflection_single(n: int, identity_id: str) -> IdentityReport:
    if identity_id == "reflectR":
        R = poly_R(n)
        return _compare(n, identity_id, reversal(R, n + 1), R - 2 * _edge(n),
                        n + 2)
    P = poly_P(n)
    return _compare(n, identity_id, reversal(P, 2 * n + 2), P, 2 * n + 3)


def reflection_check(n: int) -> IdentityReport:
    """Both exact reflection identities: q^(n+1) R(1/q) = R + 2(1+q^n)(1-q)
    and q^(2n+2) P(1/q) = P."""
    a = _reflection_single(n, "reflectR")
    b = _reflection_single(n, "reflectP")
    fails = [r.first_failure for r in (a, b) if r.first_failure is not None]
    return IdentityReport(n, "reflect", 2 * n + 3, not fails,
                          min(fails) if fails else None)


@lru_cache(maxsize=1)
def _branches(cf: PeriodicCF, L: int) -> tuple:
    """The two branches of cf's quadratic form to order L (immutable, so
    conjugate_onset and conjugate_pair_check share one build)."""
    form = quantize_quadratic(cf)
    conj = QuadraticForm(form.R, form.P, form.S, -form.sign)
    return form.to_series(L), conj.to_series(L)


def conjugate_pair_check(cf: PeriodicCF, L: int) -> IdentityReport:
    """For a quadratic value whose denominator polynomial is a monomial,
    the two square-root branches have opposite coefficients beyond the
    monomial degree."""
    S = quantize_quadratic(cf).S
    terms = sum(1 for c in S.coeffs if c)
    if terms != 1:
        raise NotMonomialDenominator(
            f"denominator {tuple(poly_coeffs(S))} has {terms} terms"
        )
    x, conj = _branches(cf, L)
    lo = min(S.valuation + 1, L)  # past the monomial degree
    tail = LaurentSeries(lo, (x + conj).coefficients(lo, L), L)
    fail = tail.first_mismatch(zero())
    return IdentityReport(0, "conjugate", L, fail is None, fail)


def conjugate_onset(cf: PeriodicCF, L: int) -> int | None:
    """Empirical first exponent from which the branch coefficients stay
    opposite through order L (reported, never asserted as a formula)."""
    x, conj = _branches(cf, L)
    lo = min(x.valuation, conj.valuation)
    onset = None
    for j in range(int(L) - 1, int(lo) - 1, -1):
        if x[j] == -conj[j]:
            onset = j
        else:
            break
    return onset
