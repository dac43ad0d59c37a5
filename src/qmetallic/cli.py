"""Command-line front end.

Subcommands: coeffs, verify, tables, asymptotics, radius, identities,
rna, logconv, quantize, hankel.  Global flags: --precision-bits,
--format {json,csv}, --cache-dir, --jobs.  All outputs are decimal
strings, so a rerun with equal parameters is byte-identical.

Each subcommand declares the forms it prints, default first (`logconv`
by mode).  `main` resolves --format once: unset, it is the command's
first form; one the command lacks exits 2 before any work.

Exit codes: 0 success / all checks pass; 1 a verification check failed;
2 bad usage or an argument outside a documented constraint.
"""

import argparse
import codecs
import functools
import json
import os
import sys

from . import asymptotics as asym
from .cache import RunManifest, atomic_write, cache_refresh, cached_table
from .dyadic import nstr
from .errors import QMetallicError
from .identities import (check_all, conjugate_branches, conjugate_onset,
                         conjugate_pair_check, min_order, relation_sides)
from .logbehaviour import classify, sign_flip_lemma_check
from .metallic import (_zero_check, canonical_engine_tag, coeffs_p_recurrence,
                       hankel, table_engine, verify_ode)
from .qnum import (cf_to_text, parse_cf, q_rational, quantize_quadratic,
                   rational_value)
from .rna import count_grid, enumerate_structures, sign_bridge_check
from .series import poly_coeffs, to_json as series_to_json


def _emit(args, doc=None, header: str = "", rows=()) -> None:
    """Print `doc` as indented JSON, or the CSV `header` and `rows` (str of
    each cell), in the form that `main` resolved."""
    out = sys.stdout
    if args.format == "json":
        out.write(json.dumps(doc, indent=1) + "\n")
    else:
        out.write(header + "\n")
        out.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _fail(message: str, code: int = 2) -> int:
    sys.stderr.write(message + "\n")
    return code


_ITEM_SEP = b'",\n  "'


def _write_ascii(out, *parts) -> None:
    """Write ASCII byte strings to the text stream out: into its byte
    buffer when that gives the bytes the text would (an ASCII-compatible
    encoding, \\n as the line separator), which copies nothing, else as
    text."""
    buffer = getattr(out, "buffer", None)
    encoding = getattr(out, "encoding", None)
    if (buffer is not None and encoding and os.linesep == "\n"
            and codecs.lookup(encoding).name in ("utf-8", "ascii")):
        out.flush()
        for part in parts:
            buffer.write(part)
    else:
        for part in parts:
            out.write(str(part, "ascii"))


def cmd_coeffs(args) -> int:
    tag = canonical_engine_tag(args.engine)
    if tag == "closedform" and args.n > 3:
        return _fail("coeffs: engine 'closed' requires n <= 3 "
                     "(closed-form sums exist for the first three indices only)")
    table = cached_table(args.n, args.L, tag, args.cache_dir)
    out = sys.stdout
    if args.format == "json":
        # the series exchange form (every table starts at q^0 with
        # kappa_0 = 1) as json.dumps(..., indent=1) prints it, written in
        # pieces: canonical decimal text needs no escaping, only quotes, so
        # one replace of the body's newlines gives the list
        items = table.body.replace(b"\n", _ITEM_SEP)
        opening, closing = (b'[\n  "', b'"\n ]') if items else (b"[", b"]")
        _write_ascii(out, b'{\n "valuation": 0,\n "order": %d,\n "coeffs": %s'
                     % (table.upto, opening),
                     memoryview(items)[:len(items) - len(_ITEM_SEP)],
                     closing + b"\n}\n")
    else:
        _emit(args, header="l,kappa", rows=enumerate(table.text))
    return 0


def _window(result, *keys) -> tuple:
    """(ok, detail) of a windowed check result, detail holding `keys`."""
    return bool(result), {k: getattr(result, k) for k in keys}


def _identities_line(n: int, L: int, sides) -> tuple:
    bad_ids = [r.identity_id for r in check_all(n, L, sides) if not r.holds]
    return not bad_ids, {"failed": bad_ids}


def _hankel_line(n: int) -> tuple:
    for s in range(0, n + 2):
        for j in range(1, 13):
            d = hankel(n, s, j)
            if d not in (-1, 0, 1):
                return False, {"max_s": n + 1, "max_j": 12,
                               "bad": {"s": s, "j": j, "det": str(d)}}
    return True, {"max_s": n + 1, "max_j": 12, "bad": None}


def _guarded(name: str, check) -> tuple:
    """(name, ok, detail) of check(); a package error is a failed line."""
    try:
        ok, detail = check()
    except QMetallicError as exc:
        return name, False, {"error": str(exc)}
    return name, ok, detail


def _verify_checks(n: int, L: int, cache_dir):
    """Yield (name, ok, detail) pairs for the full per-index suite."""
    # the recurrence table is the kappa reference and comes first: a package
    # error while it is built (or while an engine runs) is a failed
    # engine_agreement, not a crash, and one in any later check is a failed
    # line of that check
    engines = ["conv", "sqrt"]
    agreement = {"reference": "precurrence", "engines": engines, "bad": None}
    try:
        reference = coeffs_p_recurrence(n, L)
    except QMetallicError as exc:
        agreement.update(bad="precurrence", error=str(exc))
        yield "engine_agreement", False, agreement
        return

    def run(tag):
        try:
            return table_engine(tag)(n, L), None
        except QMetallicError as exc:
            return None, str(exc)

    # conv runs next.  Below the first exponent where its table leaves the
    # reference, E = q F^2 - R F - 1 is zero past its n + 1 head terms, as
    # conv chose each kappa so; the identity suite's sides are built once,
    # by the first line that reads them, with E computed only at the head
    # and from that exponent to q^(L+2n+2), and the functional equation's
    # line reads that E through q^(L-1).  A build that raises is not kept:
    # the identities line tries it again and fails with the same error.
    conv = run("conv")
    agreed = 0 if conv[0] is None else next(
        (l for l, (a, b) in enumerate(zip(conv[0].values, reference.values))
         if a != b), L)
    sides = functools.cache(lambda: relation_sides(n, L, agreed))
    yield _guarded("functional_equation", lambda: _window(_zero_check(
        sides()[1], L, "functional-equation"),
        "checked_order", "first_failure"))
    yield _guarded("ode", lambda: _window(
        verify_ode(n, L), "checked_order", "first_failure"))

    # sqrt runs only after conv agreed; the tables that agreed go to the
    # cache, and the reference with them once an engine has confirmed it
    confirmed = {}
    for tag in engines:
        table, error = conv if tag == "conv" else run(tag)
        if error is not None:
            agreement.update(bad=tag, error=error)
            break
        if table.values != reference.values:
            agreement["bad"] = tag
            break
        confirmed[tag] = table
    if confirmed:
        confirmed["precurrence"] = reference
    corrupt = cache_refresh(n, confirmed, L, cache_dir)
    yield "engine_agreement", agreement["bad"] is None, agreement

    yield _guarded("identities", lambda: _identities_line(n, L, sides()))
    yield _guarded("hankel_range", lambda: _hankel_line(n))
    if n == 1:
        yield _guarded("sign_bridge", lambda: _window(
            sign_bridge_check(min(L, 1000)), "checked_order", "first_failure"))
        yield _guarded("sign_flip_lemma", lambda: _window(
            sign_flip_lemma_check(min(L, 1000)), "first_failure"))

    yield "cache_integrity", not corrupt, {"corrupt": corrupt}


def _print_identities(args, order: int, flag: str,
                      failure_prefix: str) -> int:
    """Print check_all(args.n, order); `flag` names order's option."""
    n = args.n
    if order < min_order(n):
        raise ValueError(f"need {flag} >= 2n + 3 = {min_order(n)} "
                         f"for n = {n}, got {order}")
    reports = check_all(n, order)
    _emit(args, [r.to_json() for r in reports])
    bad = next((r for r in reports if not r.holds), None)
    return 0 if bad is None else _fail(failure_prefix + bad.identity_id, 1)


def cmd_verify(args) -> int:
    # an option that the mode would not read exits 2 before any work
    if args.golden:
        if (args.what, args.n, args.L, args.order) != (None,) * 4:
            raise ValueError("--golden takes no mode, --n, --L or --order")
        return _verify_golden(args)
    if args.order is not None and args.what != "identities":
        raise ValueError("--order is read only by 'verify identities'")
    if args.order is not None and args.L is not None:
        raise ValueError("'verify identities' takes --L or --order, not both")
    args.n = 1 if args.n is None else args.n
    args.L = 300 if args.L is None else args.L
    if args.what == "identities":
        flag = "--L" if args.order is None else "--order"
        order = args.L if args.order is None else args.order
        return _print_identities(args, order, flag,
                                 "verify: first failing check: identity ")

    # checked before any work: the ODE needs 2n + 4, the n = 1 sign checks 10
    floor = 10 if args.n == 1 else 2 * args.n + 4
    if args.n >= 1 and args.L < floor:
        rule = "" if args.n == 1 else "2n + 4 = "
        raise ValueError(f"need --L >= {rule}{floor} for n = {args.n}, "
                         f"got {args.L}")

    checks = []
    for name, ok, detail in _verify_checks(args.n, args.L, args.cache_dir):
        checks.append({"name": name, "ok": ok, "detail": detail})
    summary = {"n": args.n, "L": args.L, "ok": all(c["ok"] for c in checks),
               "checks": checks}
    _emit(args, summary)
    if not summary["ok"]:
        first = next(c["name"] for c in checks if not c["ok"])
        return _fail(f"verify: first failing check: {first}", 1)
    return 0


def _goldens_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")


def _verify_golden(args) -> int:
    """Compare shipped fixtures: series exactly, tables numerically."""
    from .goldencheck import golden_failures

    failures = golden_failures(_goldens_dir(), args.precision_bits)
    _emit(args, {"golden_ok": not failures, "failures": failures})
    if failures:
        return _fail(f"verify: first failing check: {failures[0]}", 1)
    return 0


def cmd_tables(args) -> int:
    names = list(asym.TABLE_INDEX) if args.which == "all" else [args.which]
    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        n = asym.TABLE_INDEX[name]
        rows = asym.ratio_table(n, asym.TABLE_LS, args.precision_bits)
        path = os.path.join(args.out_dir, f"{name}.csv")
        text = "l,ratio\n" + "\n".join(f"{l},{v}" for l, v in rows) + "\n"
        atomic_write(path, text.encode("ascii"))
        manifest = RunManifest(
            command="tables",
            parameters={"which": name, "n": n, "L": list(asym.TABLE_LS),
                        "precision_bits": args.precision_bits})
        manifest.add_output(path)
        manifest.write(path)
        print(path)
    return 0


def _complex_str(z, digits: int = 30) -> dict:
    return {"re": nstr(z.real, digits), "im": nstr(z.imag, digits)}


def cmd_asymptotics(args) -> int:
    rep = asym.singularity_report(args.n, args.precision_bits)
    doc = {
        "n": rep.n,
        "precision_bits": rep.precision_bits,
        "radius": nstr(rep.radius, 30),
        "inclusion_radius": nstr(rep.inclusion_radius, 5),
        "dominant": [_complex_str(z) for z in rep.dominant],
        "gamma": [_complex_str(g) for g in rep.gammas],
        "branch_flipped": rep.branch_flipped,
        "roots": [_complex_str(z) for z in rep.all_roots],
    }
    _emit(args, doc)
    return 0


def cmd_radius(args) -> int:
    r = nstr(asym.radius(args.n, args.precision_bits), 20)
    _emit(args, {"n": args.n, "precision_bits": args.precision_bits,
                 "radius": r}, "n,radius", [(args.n, r)])
    return 0


def cmd_identities(args) -> int:
    return _print_identities(args, args.order, "--order",
                             "identities: failed: ")


def cmd_rna(args) -> int:
    if args.action == "count":
        rows = [(args.size, args.rank,
                 enumerate_structures(args.size, args.rank))]
    else:
        rows = count_grid(args.max_size, args.max_rank)
    docs = [{"l": l, "rank": r, "count": str(c)} for l, r, c in rows]
    _emit(args, docs[0] if args.action == "count" else docs,
          "l,rank,count", rows)
    return 0


def _classify_row(task) -> tuple:
    n, lmax = task
    rep = classify(n, lmax)
    return (n, lmax, rep.classification,
            "" if rep.onset is None else rep.onset,
            "" if rep.first_positive is None else rep.first_positive,
            "" if rep.first_negative is None else rep.first_negative)


def _check_lmax(n: int, lmax: int) -> None:
    """Before any work: classify needs l_max >= 2n + 4 for the largest n."""
    if n >= 1 and lmax < 2 * n + 4:
        raise ValueError(f"need --lmax >= 2n + 4 = {2 * n + 4} "
                         f"for n = {n}, got {lmax}")


def cmd_logconv(args) -> int:
    if args.n_range is not None:
        try:
            lo, hi = (int(t) for t in args.n_range.split("..", 1))
        except ValueError:
            return _fail("logconv: --n-range wants A..B")
        if lo < 1 or hi < lo:
            return _fail("logconv: --n-range wants 1 <= A <= B")
        _check_lmax(hi, args.lmax)
        tasks = [(n, args.lmax) for n in range(lo, hi + 1)]
        workers = min(args.jobs, len(tasks))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_classify_row, tasks))
        else:
            rows = [_classify_row(t) for t in tasks]
        _emit(args, header="n,l_max,classification,onset,first_positive,"
                           "first_negative", rows=rows)
        return 0
    _check_lmax(args.n, args.lmax)
    _emit(args, classify(args.n, args.lmax).to_json())
    return 0


def cmd_quantize(args) -> int:
    cf = parse_cf(args.cf)
    doc = {"cf": cf_to_text(cf)}
    if cf.period:
        form = quantize_quadratic(cf)
        doc["kind"] = "quadratic"
        doc["R"] = poly_coeffs(form.R)
        doc["P"] = poly_coeffs(form.P)
        doc["S"] = poly_coeffs(form.S)
        doc["sign"] = form.sign
        doc["series"] = series_to_json(form.to_series(12))
        # the pairing needs a monomial denominator: no branches without one
        onset = holds = None
        if sum(1 for c in form.S.coeffs if c) == 1:
            branches = conjugate_branches(form, 40)
            onset = conjugate_onset(form, 40, branches)
            holds = bool(conjugate_pair_check(form, 40, branches))
        doc["conjugate_pairing"] = {"holds_from": onset, "holds": holds}
    else:
        r, s = rational_value(cf)
        qr = q_rational(r, s)
        doc["kind"] = "rational"
        doc["R"] = poly_coeffs(qr.numerator)
        doc["S"] = poly_coeffs(qr.denominator)
        doc["series"] = series_to_json(qr.to_series(12))
    _emit(args, doc)
    return 0


def cmd_hankel(args) -> int:
    s_range = range(0, args.max_s + 1)
    rows = [[j] + [hankel(args.n, s, j) for s in s_range]
            for j in range(1, args.max_j + 1)]
    _emit(args, header="j," + ",".join(f"s{s}" for s in s_range), rows=rows)
    return 0


GLOBAL_DEFAULTS = {"precision_bits": 256, "cache_dir": None, "jobs": 1}
_GLOBAL_FLAGS = ("--precision-bits", "--format", "--cache-dir", "--jobs")
COMMANDS = ("coeffs", "verify", "tables", "asymptotics", "radius",
            "identities", "rna", "logconv", "quantize", "hankel")


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_nonnegative = _int_at_least(0)  # lengths and orders


def _named_command(argv) -> str | None:
    """The known command argparse runs for argv (None: sys.argv[1:]) past
    the global flags and their values; else None, as when help comes first."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        if not token.startswith("-"):
            return token if token in COMMANDS else None
        flag, eq, _ = token.partition("=")
        if sum(f.startswith(flag) for f in _GLOBAL_FLAGS) != 1 or (
                not eq and next(tokens, "-").startswith("-")):
            return None
    return None


def build_parser(name=None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or the same with only `name`'s."""
    # global flags are accepted before or after the subcommand; SUPPRESS
    # keeps a subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int,
                        default=argparse.SUPPRESS,
                        help="working precision for root finding (default 256)")
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS,
                        help="output form (default the command's first; "
                             "one the command does not print exits 2)")
    common.add_argument("--cache-dir", default=argparse.SUPPRESS,
                        help="coefficient cache directory "
                             "(default $QMETALLIC_CACHE_DIR or "
                             "~/.cache/qmetallic)")
    common.add_argument("--jobs", type=_int_at_least(1),
                        default=argparse.SUPPRESS,
                        help="parallel workers for batch commands")

    top = argparse.ArgumentParser(
        prog="qmetallic",
        parents=[common],
        description="Exact power-series coefficients of q-deformed metallic "
                    "numbers: engines, verification suites, asymptotics, and "
                    "combinatorial cross-checks.")
    # one command's usage lists all; unset, errors name the action "command"
    sub = top.add_subparsers(dest="command", required=True,
                             metavar=name and "{%s}" % ",".join(COMMANDS))

    def add(command, func, forms, help):
        # forms: a tuple, default first, or a function of the parsed args
        if name in (None, command):
            p = sub.add_parser(command, parents=[common], help=help)
            p.set_defaults(func=func, forms=forms)
            return p

    if p := add("coeffs", cmd_coeffs, ("json", "csv"),
                "emit a coefficient table"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--L", type=_nonnegative, default=50)
        p.add_argument("--engine", choices=("conv", "prec", "sqrt", "closed"),
                       default="prec")

    if p := add("verify", cmd_verify, ("json",), "run the verification suite"):
        p.add_argument("what", nargs="?", choices=("all", "identities"),
                       help="(default all)")
        p.add_argument("--n", type=int, help="(default 1)")
        p.add_argument("--L", type=_nonnegative, help="(default 300)")
        p.add_argument("--order", type=_nonnegative,
                       help="order for 'verify identities', in place of --L")
        p.add_argument("--golden", action="store_true",
                       help="compare against the shipped golden fixtures")

    if p := add("tables", cmd_tables, ("csv",),
                "regenerate the three ratio tables"):
        p.add_argument("which", nargs="?",
                       choices=("table1", "table2", "table3", "all"),
                       default="all")
        p.add_argument("--out-dir", default=".")

    if p := add("asymptotics", cmd_asymptotics, ("json",),
                "dominant singularity report"):
        p.add_argument("--n", type=int, required=True)

    if p := add("radius", cmd_radius, ("json", "csv"),
                "convergence radius of the series"):
        p.add_argument("--n", type=int, required=True)

    if p := add("identities", cmd_identities, ("json",),
                "run the identity suite"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--order", type=_nonnegative, default=300)

    if p := add("rna", cmd_rna, ("json", "csv"), "secondary-structure counts"):
        act = p.add_subparsers(dest="action", required=True)
        c = act.add_parser("count", parents=[common], help="one exact count")
        c.add_argument("--size", type=_nonnegative, required=True)
        c.add_argument("--rank", type=_nonnegative, default=1)
        g = act.add_parser("grid", parents=[common],
                           help="(l, rank, count) grid")
        g.add_argument("--max-size", type=_nonnegative, default=22)
        g.add_argument("--max-rank", type=_nonnegative, default=3)

    if p := add("logconv", cmd_logconv,
                lambda a: ("json",) if a.n_range is None else ("csv",),
                help="log-convexity classification"):
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--n", type=int, help="one index (JSON)")
        mode.add_argument("--n-range", metavar="A..B", help="A to B (CSV)")
        p.add_argument("--lmax", type=_nonnegative, default=2000)

    if p := add("quantize", cmd_quantize, ("json",),
                "quadratic form of a deformed CF"):
        p.add_argument("--cf", required=True,
                       help="continued fraction 'a0;a1,...,(p1,...)*'")

    if p := add("hankel", cmd_hankel, ("csv",),
                "Hankel determinant grid (CSV)"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--max-s", type=_nonnegative, default=3)
        p.add_argument("--max-j", type=_nonnegative, default=10)

    return top


def main(argv=None) -> int:
    args = build_parser(_named_command(argv)).parse_args(
        argv, argparse.Namespace(**GLOBAL_DEFAULTS))
    if args.precision_bits < 128:
        return _fail("precision-bits must be >= 128")
    forms = args.forms(args) if callable(args.forms) else args.forms
    args.format = getattr(args, "format", forms[0])
    if args.format not in forms:
        return _fail(f"{args.command}: --format {args.format} is not "
                     f"supported (this output is {' or '.join(forms)} only)")
    # every integer printed or cached is computed here, so the int/str
    # digit limit would only cap how many coefficients a command can give
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, QMetallicError, OSError) as exc:
        return _fail(f"{args.command}: {exc}")
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
