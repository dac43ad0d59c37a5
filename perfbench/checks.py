"""Output checks for the three workloads, written apart from qmetallic.

Nothing here imports qmetallic: the polynomials are built again from
their definitions, and the root checks use mpmath directly.  Each check
returns None when the output is right and a one-line reason otherwise.
"""

import json

from mpmath import mp, mpc, mpf, sqrt

# printed roots carry 30 significant digits; allow a few digits of slack
_ROOT_TOL = mpf(10) ** -24


def q_int(k: int) -> list:
    """[k]_q = 1 + q + ... + q^(k-1), ascending coefficients."""
    return [1] * k


def poly_add(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def shift(a: list, k: int) -> list:
    return [0] * k + a


def poly_R(n: int) -> list:
    """R = q [n]_q + (q^n + 1)(q - 1)."""
    return poly_add(shift(q_int(n), 1), poly_mul(poly_add(shift([1], n), [1]),
                                                 [-1, 1]))


def poly_Q(n: int) -> list:
    """Q_n = [n+1]_q^2 - q [2n-1]_q + 2 q^n."""
    sq = poly_mul(q_int(n + 1), q_int(n + 1))
    return poly_add(poly_add(sq, [-c for c in shift(q_int(2 * n - 1), 1)]),
                    shift([2], n))


def check_verify(out: str, n: int, L: int):
    try:
        doc = json.loads(out)
        checks = {c["name"]: c for c in doc["checks"]}
        if doc["n"] != n or doc["L"] != L:
            return f"summary is for n={doc['n']} L={doc['L']}"
        if doc["ok"] is not True:
            return "summary ok is not true"
        bad = [c["name"] for c in doc["checks"] if c["ok"] is not True]
        if bad:
            return f"checks not ok: {bad}"
        fe = checks["functional_equation"]["detail"]["checked_order"]
        ode = checks["ode"]["detail"]["checked_order"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed verify output: {exc!r}"
    if fe != L:
        return f"functional_equation checked_order {fe} != L={L}"
    if ode != L - (2 * n + 3):
        return f"ode checked_order {ode} != L-(2n+3)={L - (2 * n + 3)}"
    return None


def parse_coeffs(out: str, L: int):
    """The coefficient list of a `coeffs` JSON answer, or a reason string."""
    try:
        doc = json.loads(out)
        if doc["valuation"] != 0 or doc["order"] != L:
            return f"valuation/order {doc['valuation']}/{doc['order']}"
        coeffs = [int(c) for c in doc["coeffs"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed coeffs output: {exc!r}"
    if len(coeffs) != L:
        return f"{len(coeffs)} coefficients for L={L}"
    return coeffs


def check_coeffs(out: str, n: int, L: int, samples):
    """Prefix shape, kappa_2n = 1, and q F^2 = R F + 1 at exponents `samples`."""
    F = parse_coeffs(out, L)
    if isinstance(F, str):
        return F
    if F[:n + 1] != [1] * n + [0]:
        return "series does not start with n ones then a zero"
    if F[2 * n] != 1:
        return f"kappa_2n = {F[2 * n]}, not 1"
    R = poly_R(n)
    for m in samples:
        lhs = sum(F[i] * F[m - 1 - i] for i in range(m))
        rhs = sum(R[j] * F[m - j] for j in range(min(m, len(R) - 1) + 1))
        if m == 0:
            rhs += 1
        if lhs != rhs:
            return f"q F^2 != R F + 1 at q^{m}"
    return None


def check_same(first: str, out: str):
    """A table asked for again must come back byte for byte."""
    return None if out == first else "answer differs from the first request"


def _mpc(d: dict):
    return mpc(mpf(d["re"]), mpf(d["im"]))


def _has(points, w) -> bool:
    return any(abs(p - w) <= _ROOT_TOL * max(1, abs(w)) for p in points)


def check_asymptotics(out: str, n: int):
    with mp.workprec(192):
        try:
            doc = json.loads(out)
            if doc["n"] != n:
                return f"report is for n={doc['n']}"
            roots = [_mpc(z) for z in doc["roots"]]
            dominant = [_mpc(z) for z in doc["dominant"]]
            radius = mpf(doc["radius"])
            gammas = doc["gamma"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed asymptotics output: {exc!r}"
        Q = poly_Q(n)
        if len(roots) != 2 * n:
            return f"{len(roots)} roots for degree {2 * n}"
        for z in roots:
            value = mpc(0)
            size = mpf(0)
            for c in reversed(Q):
                value = value * z + c
            for k, c in enumerate(Q):
                size += abs(c) * abs(z) ** k
            if abs(value) > _ROOT_TOL * len(Q) * size:
                return f"|Q_n(z)| = {mp.nstr(abs(value), 3)} at a reported root"
        total, prod = mpc(0), mpc(1)
        for z in roots:
            total += z
            prod *= z
        scale = sum(abs(z) for z in roots)
        if abs(total + mpf(Q[-2]) / Q[-1]) > _ROOT_TOL * scale:
            return "Vieta sum does not match Q_n"
        if abs(prod - mpf(Q[0]) / Q[-1]) > _ROOT_TOL * len(roots):
            return "Vieta product does not match Q_n"
        for z in roots:
            if not _has(roots, 1 / z):
                return "root set not closed under z -> 1/z"
            if not _has(roots, z.conjugate()):
                return "root set not closed under conjugation"
        least = min(abs(z) for z in roots)
        if abs(radius - least) > _ROOT_TOL * least:
            return "radius is not the least root modulus"
        if not dominant or len(gammas) != len(dominant):
            return "dominant roots and gamma constants do not pair up"
        on_circle = [z for z in roots if abs(abs(z) - least) <= _ROOT_TOL * least]
        if len(on_circle) != len(dominant):
            return f"{len(on_circle)} roots on the circle, {len(dominant)} dominant"
        for z in dominant:
            if not _has(roots, z) or abs(abs(z) - radius) > _ROOT_TOL * radius:
                return "a dominant root is not a root on the radius circle"
        rho1 = (3 - sqrt(5)) / 2
        if not rho1 * (1 - _ROOT_TOL) <= radius <= 1 + _ROOT_TOL:
            return f"radius {mp.nstr(radius, 8)} outside [rho_1, 1]"
    return None
