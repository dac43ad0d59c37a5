"""Identity suite tying together the deformations of phi_n, -phi_n, 1/phi_n,
-1/phi_n, the multiplicative inverse 1/[phi_n]_q, and the q -> 1/q
coefficient reflection.

Every side of the eight series relations is a map x -> (a x + b)/(c x + d)
of exact Laurent series at the base series F = [phi_n]_q.  One side is a
composition of the modular group actions of module qnum; the other is
another composition or an explicit Laurent expansion beta F + b, with b
a Laurent polynomial below q^(2n+2) built from the 2n+2-term prefix.  The
sides are built independently and never divided out: N_l/D_l and N_r/D_r
agree through q^(hi-1) exactly when G = N_l D_r - N_r D_l = A F^2 + B F + C
vanishes through q^(hi-1+val(D_l)+val(D_r)), read off the one residual
E = q F^2 - R F - 1 as q G = A E + (A R + q B) F + (A + q C).  F, E and
the maps are one relation_sides build, kept nowhere: check_all hands its
build to every tag, verify passes one, and a lone check builds its own.
Every series tag rejects an order below min_order(n) before any work.
Reports carry the identity tag, the compared window, and the first
mismatch.
"""

from __future__ import annotations

from .errors import NotMonomialDenominator, ZeroSeries
from .metallic import (_check_n, _edge, kappa_values, phi_series, poly_P,
                       poly_R, residual)
from .qnum import (
    _IDENTITY,
    _ONE,
    _ZERO,
    NEG_RECIPROCAL,
    NEGATE,
    RECIPROCAL,
    QuadraticForm,
    _matmul,
    q_integer,
    shift_map,
)
from .record import record
from .series import LaurentSeries, monomial, poly_coeffs, reversal, zero

IDENTITY_IDS = (
    "rel1", "rel2", "rel3", "rel4",
    "crin", "recip", "neg", "multinv",
    "reflectR", "reflectP",
)
_REPORT_IDS = IDENTITY_IDS + ("reflect", "conjugate")


@record
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


@record
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


def _explicit(beta: LaurentSeries, e: LaurentSeries, phi: LaurentSeries):
    """x -> beta x + b for the explicit side e: e and beta F read each
    kappa_j, j >= 2n+1, at the same exponent, so b = e - beta F is zero
    from q^(2n+2) on and the family's 2n+2-term phi gives all of it."""
    b = e + (-beta) * phi
    return (beta, LaurentSeries(b.valuation, b.coeffs)), (_ZERO, _ONE)


def _den_valuation(identity_id: str, c: LaurentSeries, d: LaurentSeries,
                   F: LaurentSeries) -> int:
    """val(c F + d), read from the shortest window of F, doubled from one
    coefficient, that shows a nonzero term."""
    w = 1
    while not (den := c * F.truncate(w) + d):
        if w >= F.order:
            raise ZeroSeries(f"{identity_id}: a denominator vanishes modulo "
                             f"q^{F.order}")
        w = min(2 * w, F.order)
    return den.valuation


def relation_sides(n: int, L: int, agreed: int = 0) -> tuple:
    """(F, E, maps) for the relations at index n to order L, from the kappa
    store and qnum's matrices as they are now: F to q^(L+2n+2), E = q F^2 -
    R F - 1, and each series tag's (lhs, rhs), maps ((a, b), (c, d)) at F.
    `agreed` is metallic.residual's bound: F agrees with the conv engine's
    table below it (0 claims none)."""
    n = _check_n(n)
    if L < min_order(n):
        raise ValueError(f"need L >= 2n + 3 = {min_order(n)} for n = {n}, "
                         f"got {L}")
    # neg reads F the furthest: q G through q^(L+n) from A E, val(A) = -n
    phi = phi_series(n, L + 2 * n + 2)
    fam = laurent_family(n, 2 * n + 2)
    edge = _edge(n).shift(-1)  # (q^n + 1)(q - 1)/q
    maps = {
        "rel1": (_IDENTITY, _matmul(shift_map(n), RECIPROCAL)),
        "rel2": (NEG_RECIPROCAL, _matmul(shift_map(n), NEGATE)),
        "rel3": (NEG_RECIPROCAL,
                 ((-_ONE, q_integer(n) + edge), (_ZERO, _ONE))),
        "rel4": (_IDENTITY,
                 _matmul(((monomial(-1, n), edge), (_ZERO, _ONE)), NEGATE)),
        "recip": (RECIPROCAL, _explicit(monomial(1, -n), fam.recip, fam.phi)),
        "crin": (NEG_RECIPROCAL, _explicit(-_ONE, fam.negrecip, fam.phi)),
        "neg": (NEGATE, _explicit(monomial(-1, -n), fam.neg, fam.phi)),
        # 1/F = -q [-1/phi_n], against 1/F's own pattern
        "multinv": (_matmul(((monomial(-1, 1), _ZERO), (_ZERO, _ONE)),
                            NEG_RECIPROCAL),
                    _explicit(monomial(1, 1), _inverse_formula(n, 2 * n + 2),
                              fam.phi)),
    }
    return phi, residual(n, phi, agreed), maps


def _check_relation(n: int, identity_id: str, L: int, sides) -> IdentityReport:
    """lhs = N_l/D_l against rhs = N_r/D_r through q^(hi-1), by the first
    nonzero exponent of G = N_l D_r - N_r D_l = A F^2 + B F + C, less
    val(D_l) + val(D_r).  On a correct table E, A R + q B and A + q C are
    all zero, so a passing relation builds no long series.
    hi is L capped by series_div's rule N.order - val(D) for each side and
    by how far q G is known."""
    F, E, maps = relation_sides(n, L) if sides is None else sides
    ((a, b), (c, d)), ((e, f), (g, h)) = maps[identity_id]
    v_l = _den_valuation(identity_id, c, d, F)
    v_r = _den_valuation(identity_id, g, h, F)
    v = v_l + v_r
    A = a * g - e * c
    qB = (a * h + b * g - e * d - f * c).shift(1)
    qG = A * E + (A * poly_R(n) + qB) * F + (A + (b * h - f * d).shift(1))
    # a zero a or e has valuation INF and caps nothing
    hi = min(L, F.order + a.valuation - v_l, F.order + e.valuation - v_r,
             qG.order - 1 - v)
    fm = qG.first_mismatch(zero(), upto=hi + v + 1)
    return IdentityReport(n, identity_id, int(hi), fm is None,
                          None if fm is None else fm - 1 - v)


def check_rel(n: int, identity_id: str, L: int = 300,
              sides=None) -> IdentityReport:
    """Verify one tagged identity to order L (reflection tags are exact),
    a series tag from `sides`, relation_sides(n, L), or a build of its own."""
    n = _check_n(n)
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity tag {identity_id!r}")
    if identity_id in ("reflectR", "reflectP"):
        return _reflection_single(n, identity_id)
    if identity_id == "multinv":
        return mult_inverse_check(n, L, sides)
    return _check_relation(n, identity_id, L, sides)


def min_order(n: int) -> int:
    """Least order every tag can be checked to (the inverse pattern's)."""
    return 2 * _check_n(n) + 3


def check_all(n: int, L: int = 300, sides=None) -> list:
    """One report per tag of IDENTITY_IDS, in that order, all from one
    build (`sides`, or a fresh one), so no two read different stores."""
    if sides is None:
        sides = relation_sides(n, L)
    return [check_rel(n, tag, L, sides) for tag in IDENTITY_IDS]


def mult_inverse_check(n: int, L: int = 300, sides=None) -> IdentityReport:
    """Multiplicative inverse against the explicit Laurent pattern."""
    return _check_relation(_check_n(n), "multinv", L, sides)


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


def conjugate_branches(form: QuadraticForm, L: int) -> tuple:
    """The two branches of a quadratic form to order L: its own series and
    the one with the other sign of the square root."""
    conj = QuadraticForm(form.R, form.P, form.S, -form.sign)
    return form.to_series(L), conj.to_series(L)


def conjugate_pair_check(form: QuadraticForm, L: int,
                         branches=None) -> IdentityReport:
    """For a quadratic value whose denominator polynomial is a monomial,
    the two square-root branches have opposite coefficients beyond the
    monomial degree.  Reads `branches` (conjugate_branches(form, L)), or
    builds its own."""
    S = form.S
    terms = sum(1 for c in S.coeffs if c)
    if terms != 1:
        raise NotMonomialDenominator(
            f"denominator {tuple(poly_coeffs(S))} has {terms} terms"
        )
    x, conj = branches or conjugate_branches(form, L)
    lo = min(S.valuation + 1, L)  # past the monomial degree
    tail = LaurentSeries(lo, (x + conj).coefficients(lo, L), L)
    fail = tail.first_mismatch(zero())
    return IdentityReport(0, "conjugate", L, fail is None, fail)


def conjugate_onset(form: QuadraticForm, L: int, branches=None) -> int | None:
    """Empirical first exponent from which the branch coefficients stay
    opposite through order L (reported, never asserted as a formula).
    Reads `branches` (conjugate_branches(form, L)), or builds its own."""
    x, conj = branches or conjugate_branches(form, L)
    lo = min(x.valuation, conj.valuation)
    onset = None
    for j in range(int(L) - 1, int(lo) - 1, -1):
        if x[j] == -conj[j]:
            onset = j
        else:
            break
    return onset
