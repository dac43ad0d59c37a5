"""End-to-end tests of the command-line interface via main(argv)."""

import concurrent.futures
import io
import json
import os
import shutil
import sys

import pytest

from mpmath import mp

from qmetallic import asymptotics as asym
from qmetallic import cli, identities, metallic, rna, series
from qmetallic.cache import cache_load
from qmetallic.cli import main
from qmetallic.errors import BranchMismatch
from qmetallic.identities import IDENTITY_IDS
from qmetallic.metallic import kappa_values

from mp_values import to_mp


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- coeffs -------------------------------------------------------------------------


def test_coeffs_json(capsys, tmp_path):
    code, out, _ = run(capsys, "coeffs", "--n", "1", "--L", "10",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["valuation"] == 0 and doc["order"] == 10
    assert [int(c) for c in doc["coeffs"]] == kappa_values(1, 10)


def test_coeffs_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "coeffs", "--n", "2", "--L", "6",
                       "--format", "csv", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,kappa"
    assert len(lines) == 7
    assert [int(r.split(",")[1]) for r in lines[1:]] == kappa_values(2, 6)


def test_coeffs_engine_alias(capsys, tmp_path):
    code1, out1, _ = run(capsys, "coeffs", "--n", "1", "--L", "8",
                         "--engine", "conv", "--cache-dir", str(tmp_path))
    code2, out2, _ = run(capsys, "coeffs", "--n", "1", "--L", "8",
                         "--engine", "sqrt", "--cache-dir", str(tmp_path))
    assert code1 == code2 == 0 and out1 == out2


def test_coeffs_closed_range_limit(capsys, tmp_path):
    code, _, err = run(capsys, "coeffs", "--n", "4", "--L", "8",
                       "--engine", "closed", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "n <= 3" in err


def test_global_flags_position_independent(capsys, tmp_path):
    d = str(tmp_path)
    _, before, _ = run(capsys, "--format", "csv", "coeffs", "--n", "1",
                       "--L", "6", "--cache-dir", d)
    _, after, _ = run(capsys, "coeffs", "--n", "1", "--L", "6",
                      "--format", "csv", "--cache-dir", d)
    assert before == after


def test_precision_floor(capsys):
    code, _, err = run(capsys, "--precision-bits", "64", "radius", "--n", "1")
    assert code == 2
    assert "128" in err


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("L", [0, 40])
def test_coeffs_prints_the_same_text_to_any_text_stream(monkeypatch, tmp_path,
                                                        L):
    # the JSON goes into the stream's byte buffer when its encoding takes
    # ASCII as is, and is written as text otherwise
    want = json.dumps({"valuation": 0, "order": L,
                       "coeffs": [str(v) for v in kappa_values(2, L)]},
                      indent=1) + "\n"
    streams = {"text only": io.StringIO(),
               "utf-8": io.TextIOWrapper(io.BytesIO(), "utf-8"),
               "utf-16": io.TextIOWrapper(io.BytesIO(), "utf-16")}
    for name, stream in streams.items():  # cold, then warm twice
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["coeffs", "--n", "2", "--L", str(L),
                     "--cache-dir", str(tmp_path)]) == 0
        stream.write("end\n")
        stream.flush()
        printed = (stream.getvalue() if name == "text only"
                   else stream.buffer.getvalue().decode(name))
        assert printed == want + "end\n", name


def test_coeffs_past_the_int_str_digit_limit(capsys, tmp_path):
    before = _digit_limit()
    code, out, _ = run(capsys, "coeffs", "--n", "1", "--L", "10310",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(json.loads(out)["coeffs"][-1]) > 4300
    assert _digit_limit() == before


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cold_and_warm_coeffs_print_the_reference_bytes(capsys, tmp_path, n):
    # the reference is json.dumps and a joined CSV of str of the int store
    L, d = 3000, str(tmp_path)
    text = [str(v) for v in kappa_values(n, L)]
    want = {"json": json.dumps({"valuation": 0, "order": L, "coeffs": text},
                               indent=1) + "\n",
            "csv": "l,kappa\n" + "".join(f"{l},{c}\n"
                                         for l, c in enumerate(text))}
    for fmt in ("json", "csv"):
        for _ in ("cold", "warm"):
            assert run(capsys, "coeffs", "--n", str(n), "--L", str(L),
                       "--format", fmt, "--cache-dir", d) == (0, want[fmt], "")
        os.remove(os.path.join(d, f"coeffs-n{n}-precurrence.txt"))


@pytest.mark.parametrize("argv", [
    ["coeffs", "--n", "1", "--L", "-3"],
    ["verify", "--n", "1", "--L", "-1"],
    ["verify", "identities", "--n", "1", "--order", "-1"],
    ["identities", "--n", "1", "--order", "-5"],
    ["hankel", "--n", "1", "--max-j", "-2"],
    ["hankel", "--n", "1", "--max-s", "-1"],
    ["rna", "count", "--size", "-1"],
    ["rna", "count", "--size", "4", "--rank", "-1"],
    ["rna", "grid", "--max-size", "-2"],
    ["rna", "grid", "--max-rank", "-1"],
    ["logconv", "--n", "1", "--lmax", "-1"],
])
def test_negative_sizes_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err


def test_unwritable_out_dir_exits_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "tables", "table1",
                         "--out-dir", str(blocker / "sub"))
    assert code == 2 and out == ""
    assert err.startswith("tables: ") and err.count("\n") == 1


def test_bad_cf_exits_2(capsys):
    # an empty entry or period is rejected, not dropped
    for cf in ("x", "1;()*", "1;2,,3", "1;,2", "2;(1,,2)*", "1;,(3)*"):
        code, out, err = run(capsys, "quantize", "--cf", cf)
        assert code == 2 and out == "", cf
        assert err.startswith("quantize: ") and err.count("\n") == 1


def test_periodic_block_without_comma_exits_2(capsys):
    code, out, err = run(capsys, "quantize", "--cf", "1;2(3)*")
    assert code == 2 and out == ""
    assert err == ("quantize: missing comma before the periodic block "
                   "in '1;2(3)*'\n")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- output forms -------------------------------------------------------------------

# every subcommand and mode with the forms it prints, its default first
FORMS = [
    (["coeffs", "--n", "1", "--L", "5"], ("json", "csv")),
    (["verify", "--n", "1", "--L", "60"], ("json",)),
    (["verify", "identities", "--n", "1", "--order", "20"], ("json",)),
    (["verify", "--golden"], ("json",)),
    (["tables", "table1"], ("csv",)),
    (["asymptotics", "--n", "1"], ("json",)),
    (["radius", "--n", "1"], ("json", "csv")),
    (["identities", "--n", "1", "--order", "20"], ("json",)),
    (["rna", "count", "--size", "6"], ("json", "csv")),
    (["rna", "grid", "--max-size", "5", "--max-rank", "1"], ("json", "csv")),
    (["logconv", "--n", "1", "--lmax", "40"], ("json",)),
    (["logconv", "--n-range", "1..2", "--lmax", "40"], ("csv",)),
    (["quantize", "--cf", "1;(1)*"], ("json",)),
    (["hankel", "--n", "1", "--max-s", "1", "--max-j", "2"], ("csv",)),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv, forms", FORMS,
                         ids=[" ".join(argv) for argv, _ in FORMS])
def test_format_prints_a_declared_form_or_exits_2(capsys, tmp_path, argv,
                                                  forms, fmt):
    d = str(tmp_path)
    argv = argv + (["--out-dir", d] if argv[0] == "tables"
                   else ["--cache-dir", d])
    if fmt not in forms:
        # refused before any work, with the flag before or after the command
        for flags in (argv + ["--format", fmt], ["--format", fmt] + argv):
            code, out, err = run(capsys, *flags)
            assert (code, out) == (2, "")
            assert err.startswith(f"{argv[0]}: --format {fmt} is not "
                                  "supported")
            assert os.listdir(d) == []
        return
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0, err
    if fmt == "json":
        json.loads(out)
    elif argv[0] == "tables":  # the CSV goes to a file, its path to stdout
        assert out == os.path.join(d, "table1.csv") + "\n"
    else:  # a header and rows, one field count
        lines = out.splitlines()
        assert len(lines) > 1 and len({l.count(",") for l in lines}) == 1
    if fmt == forms[0]:
        assert run(capsys, *argv)[:2] == (0, out)


@pytest.mark.parametrize("argv", [["logconv", "--lmax", "40"],
                                  ["logconv", "--n", "1", "--n-range", "1..2",
                                   "--lmax", "40"]])
def test_logconv_takes_exactly_one_mode(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# -- verify -------------------------------------------------------------------------


def test_verify_all(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--n", "1", "--L", "80",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["n"] == 1
    names = [c["name"] for c in doc["checks"]]
    assert names == ["functional_equation", "ode", "engine_agreement",
                     "identities", "hankel_range", "sign_bridge",
                     "sign_flip_lemma", "cache_integrity"]
    assert all(c["ok"] for c in doc["checks"])


def test_verify_skips_bridge_for_higher_index(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--n", "3", "--L", "60",
                       "--cache-dir", str(tmp_path))
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "sign_bridge" not in names


def test_verify_identities_mode(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "identities", "--n", "2",
                       "--order", "60", "--cache-dir", str(tmp_path))
    assert code == 0
    reports = json.loads(out)
    assert all(r["holds"] for r in reports)
    assert [r["identity_id"] for r in reports] == list(IDENTITY_IDS)


def test_verify_identities_order_zero_honoured(capsys):
    # an explicit --order 0 is below the minimum, not a request for --L
    code, out, err = run(capsys, "verify", "identities", "--n", "1",
                         "--order", "0")
    assert code == 2 and out == ""
    assert err == "verify: need --order >= 2n + 3 = 5 for n = 1, got 0\n"


@pytest.mark.parametrize("argv, err", [
    (["identities", "--n", "1", "--order", "4"],
     "identities: need --order >= 2n + 3 = 5 for n = 1, got 4\n"),
    (["identities", "--n", "1", "--order", "3"],
     "identities: need --order >= 2n + 3 = 5 for n = 1, got 3\n"),
    (["verify", "identities", "--n", "1", "--L", "4"],
     "verify: need --L >= 2n + 3 = 5 for n = 1, got 4\n"),
])
def test_identity_order_floor_names_its_flag(capsys, argv, err):
    code, out, got = run(capsys, *argv)
    assert code == 2 and out == "" and got == err


def test_identity_order_floor_is_reachable(capsys):
    for argv in (["identities", "--n", "1", "--order", "5"],
                 ["verify", "identities", "--n", "1", "--L", "5"]):
        code, out, _ = run(capsys, *argv)
        reports = json.loads(out)
        assert code == 0 and len(reports) == 10
        assert all(r["holds"] for r in reports)


def test_verify_runs_the_rank1_dp_once(capsys, monkeypatch, tmp_path):
    calls = []
    table = rna._count_table

    def count(length, rank):
        calls.append((length, rank))
        return table(length, rank)

    # sign_bridge_check reads the L-long table, sign_flip_lemma_check only
    # the counts through l = 100
    monkeypatch.setattr(rna, "_count_table", count)
    code, _, _ = run(capsys, "verify", "--n", "1", "--L", "1000",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert calls == [(1000, 1), (100, 1)]


@pytest.mark.parametrize("n, L, err", [
    ("1", "9", "verify: need --L >= 10 for n = 1, got 9\n"),
    ("2", "7", "verify: need --L >= 2n + 4 = 8 for n = 2, got 7\n"),
])
def test_verify_order_floor_checked_first(capsys, tmp_path, n, L, err):
    code, out, got = run(capsys, "verify", "--n", n, "--L", L,
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and got == err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("n, L", [("1", "10"), ("2", "8")])
def test_verify_order_floor_is_reachable(capsys, tmp_path, n, L):
    code, out, _ = run(capsys, "verify", "--n", n, "--L", L,
                       "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["ok"] is True


_ORDER_ONLY = "verify: --order is read only by 'verify identities'\n"
_GOLDEN_ALONE = "verify: --golden takes no mode, --n, --L or --order\n"
_L_OR_ORDER = "verify: 'verify identities' takes --L or --order, not both\n"
IGNORED = [
    (["--n", "1", "--L", "60", "--order", "20"], _ORDER_ONLY),
    (["identities", "--n", "1", "--L", "60", "--order", "20"], _L_OR_ORDER),
    (["all", "--n", "1", "--order", "20"], _ORDER_ONLY),
    (["identities", "--n", "1", "--order", "20", "--golden"], _GOLDEN_ALONE),
    (["all", "--golden"], _GOLDEN_ALONE),
    (["--golden", "--n", "2"], _GOLDEN_ALONE),
    (["--golden", "--L", "60"], _GOLDEN_ALONE),
    (["--golden", "--order", "20"], _GOLDEN_ALONE),
]


@pytest.mark.parametrize("argv, err", IGNORED,
                         ids=[" ".join(argv) for argv, _ in IGNORED])
def test_verify_refuses_an_option_its_mode_ignores(capsys, monkeypatch,
                                                   tmp_path, argv, err):
    monkeypatch.setattr(metallic, "_tables", {})
    code, out, got = run(capsys, "verify", *argv, "--cache-dir", str(tmp_path))
    assert (code, out, got) == (2, "", err)
    # before any work: no coefficient made, nothing cached
    assert metallic._tables == {} and os.listdir(tmp_path) == []


def test_verify_runs_the_recurrence_once(capsys, monkeypatch, tmp_path):
    runs = []
    extend = metallic._p_extend

    def spy(n, vals, L):
        runs.append((len(vals), L))
        return extend(n, vals, L)

    squared = []
    residual = metallic.residual

    def residual_spy(n, f, agreed=0):
        squared.append(f.order)
        return residual(n, f, agreed)

    monkeypatch.setattr(metallic, "_tables", {})
    monkeypatch.setattr(metallic, "_p_extend", spy)
    for mod in (metallic, identities):
        monkeypatch.setattr(mod, "residual", residual_spy)
    code, _, _ = run(capsys, "verify", "--n", "3", "--L", "300",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    # one run from the 2n + 2 seeds to L; the identity suite's deeper F
    # (to L + 2n + 2) only extends it, and its explicit sides read the
    # prefix, so no value is made twice
    assert runs == [(8, 300), (300, 308)]
    # and one residual is built: the functional equation's line reads the
    # identity suite's
    assert squared == [308]


def test_verify_computes_only_the_residual_conv_leaves_open(
        capsys, monkeypatch, tmp_path):
    # conv's table agrees with the reference to L, so E is computed at its
    # n + 1 head terms and its 2n + 2 terms from q^L on, not at all L + 2n + 2
    n, L = 3, 300
    squares, inside = [], []
    square_sum, residual = metallic._square_sum, metallic.residual

    def count(x, k, lo=0):
        if inside:
            squares.append(k)
        return square_sum(x, k, lo)

    def residual_spy(*args):
        inside.append(True)
        try:
            return residual(*args)
        finally:
            inside.pop()

    for mod in (series, metallic):
        monkeypatch.setattr(mod, "_square_sum", count)
    for mod in (metallic, identities):
        monkeypatch.setattr(mod, "residual", residual_spy)
    code, _, _ = run(capsys, "verify", "--n", str(n), "--L", str(L),
                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(squares) == 3 * n + 3


def test_verify_golden(capsys):
    code, out, _ = run(capsys, "verify", "--golden")
    assert code == 0
    doc = json.loads(out)
    assert doc["golden_ok"] is True and doc["failures"] == []


def test_verify_golden_reports_a_changed_fixture(capsys, monkeypatch,
                                                 tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(cli._goldens_dir(), goldens)
    path = goldens / "series_metallic.json"
    doc = json.loads(path.read_text())
    coeffs = doc["phi2"]["series"]["coeffs"]
    coeffs[7] = str(int(coeffs[7]) + 1)
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "_goldens_dir", lambda: str(goldens))
    code, out, err = run(capsys, "verify", "--golden")
    assert code == 1
    assert json.loads(out) == {"golden_ok": False,
                               "failures": ["series_metallic:phi2"]}
    assert err == "verify: first failing check: series_metallic:phi2\n"


def test_warm_verify_still_runs_every_engine(capsys, monkeypatch, tmp_path):
    argv = ("verify", "--n", "2", "--L", "60", "--cache-dir", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    cached = (tmp_path / "coeffs-n2-conv.txt").read_bytes()
    conv = metallic._conv_values

    def broken(n, L):
        vals = conv(n, L)
        if L > 40:
            vals[40] += 1
        return vals

    monkeypatch.setattr(metallic, "_conv_values", broken)
    code, out, err = run(capsys, *argv)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and not checks["engine_agreement"]["ok"]
    assert checks["engine_agreement"]["detail"]["bad"] == "conv"
    assert err == "verify: first failing check: engine_agreement\n"
    # the table that disagreed is not cached
    assert (tmp_path / "coeffs-n2-conv.txt").read_bytes() == cached


def test_verify_never_shrinks_a_longer_cached_table(capsys, tmp_path):
    d = str(tmp_path)
    assert run(capsys, "coeffs", "--n", "2", "--L", "200", "--engine", "conv",
               "--cache-dir", d)[0] == 0
    assert run(capsys, "verify", "--n", "2", "--L", "60", "--cache-dir", d)[0] == 0
    assert cache_load((2, "conv"), d).upto == 200
    assert cache_load((2, "sqrt"), d).upto == 60


_NAMES = {"reference": "precurrence", "engines": ["conv", "sqrt"]}


def _bumped(spec):
    """A recurrence_spec whose lag-0 coefficient is one too large."""
    def bumped(n):
        s = spec(n)
        (a0, b0), *rest = s.coeff_polys
        return metallic.RecurrenceSpec(s.n, s.order, s.valid_from,
                                       ((a0, b0 + 1), *rest))
    return bumped


def test_verify_reports_a_failing_recurrence(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(metallic, "_tables", {})
    monkeypatch.setattr(metallic, "recurrence_spec",
                        _bumped(metallic.recurrence_spec))
    code, out, err = run(capsys, "verify", "--n", "1", "--L", "120",
                         "--cache-dir", str(tmp_path))
    assert code == 1 and err == "verify: first failing check: engine_agreement\n"
    assert json.loads(out)["checks"] == [{
        "name": "engine_agreement", "ok": False,
        "detail": {**_NAMES, "bad": "precurrence",
                   "error": "recurrence step at exponent 4 is not "
                            "divisible by 6"}}]
    assert os.listdir(tmp_path) == []


def test_coeffs_reports_a_failing_recurrence(capsys, monkeypatch, tmp_path):
    # the decimal run of the recurrence checks each division as the int run
    monkeypatch.setattr(metallic, "_tables", {})
    monkeypatch.setattr(metallic, "recurrence_spec",
                        _bumped(metallic.recurrence_spec))
    assert run(capsys, "coeffs", "--n", "1", "--L", "120", "--cache-dir",
               str(tmp_path)) == (2, "", "coeffs: recurrence step at exponent "
                                         "4 is not divisible by 6\n")
    assert os.listdir(tmp_path) == []


def test_verify_reports_an_engine_error(capsys, monkeypatch, tmp_path):
    def refuse(n, L):
        raise BranchMismatch("no branch")

    monkeypatch.setattr(metallic, "coeffs_sqrt", refuse)
    code, out, err = run(capsys, "verify", "--n", "2", "--L", "60",
                         "--cache-dir", str(tmp_path))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and err == "verify: first failing check: engine_agreement\n"
    assert checks["engine_agreement"]["detail"] == {
        **_NAMES, "bad": "sqrt", "error": "no branch"}
    assert sorted(os.listdir(tmp_path)) == ["coeffs-n2-conv.txt",
                                            "coeffs-n2-precurrence.txt"]


def _off_at_2n(values):
    """A table builder whose result has kappa_(2n) off by one."""
    def broken(n, L):
        vals = list(values(n, L))
        vals[2 * n] += 1
        return vals
    return broken


def test_verify_reports_a_broken_engine_table(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(metallic, "_conv_values",
                        _off_at_2n(metallic._conv_values))
    code, out, err = run(capsys, "verify", "--n", "2", "--L", "60",
                         "--cache-dir", str(tmp_path))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and err == "verify: first failing check: engine_agreement\n"
    assert checks["engine_agreement"]["detail"] == {
        **_NAMES, "bad": "conv",
        "error": "coefficient at exponent 2n must be 1"}
    assert os.listdir(tmp_path) == []


def test_verify_reports_a_broken_reference_table(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.setattr(metallic, "kappa_values",
                        _off_at_2n(metallic.kappa_values))
    code, out, err = run(capsys, "verify", "--n", "2", "--L", "60",
                         "--cache-dir", str(tmp_path))
    assert code == 1 and err == "verify: first failing check: engine_agreement\n"
    assert json.loads(out)["checks"] == [{
        "name": "engine_agreement", "ok": False,
        "detail": {**_NAMES, "bad": "precurrence",
                   "error": "coefficient at exponent 2n must be 1"}}]
    assert os.listdir(tmp_path) == []


def _drop_middle_square(monkeypatch):
    """Patch the shared square kernel to leave out x_(k/2)^2."""
    def pairs_only(x, k, lo=0):
        lo = max(lo, k - len(x) + 1)
        return 2 * sum(x[i] * x[k - i] for i in range(lo, (k + 1) // 2))

    for mod in (series, metallic):
        monkeypatch.setattr(mod, "_square_sum", pairs_only)


def test_verify_refuses_a_square_without_its_middle_term(capsys, monkeypatch,
                                                         tmp_path):
    # R^2 + 4q no longer factors through Q: the reference is refused first
    monkeypatch.setattr(metallic, "_tables", {})
    _drop_middle_square(monkeypatch)
    code, out, err = run(capsys, "verify", "--n", "2", "--L", "60",
                         "--cache-dir", str(tmp_path))
    assert code == 1 and err == "verify: first failing check: engine_agreement\n"
    assert json.loads(out)["checks"] == [{
        "name": "engine_agreement", "ok": False,
        "detail": {**_NAMES, "bad": "precurrence",
                   "error": "discriminant factorization failed for n = 2"}}]
    assert os.listdir(tmp_path) == []


def test_verify_finds_a_series_square_without_its_middle_term(
        capsys, monkeypatch, tmp_path):
    # with the discriminant held at its true value the fault reaches only
    # the series squares: F^2 in the functional equation and the conv engine
    P = metallic.poly_P(2)
    for mod in (metallic, identities):
        monkeypatch.setattr(mod, "poly_P", lambda n: P)
    monkeypatch.setattr(metallic, "_tables", {})
    _drop_middle_square(monkeypatch)
    code, out, err = run(capsys, "verify", "--n", "2", "--L", "60",
                         "--cache-dir", str(tmp_path))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert err == "verify: first failing check: functional_equation\n"
    assert checks["functional_equation"]["detail"]["first_failure"] == 1
    assert checks["engine_agreement"]["detail"] == {**_NAMES, "bad": "conv"}


def test_verify_reports_a_package_error_in_a_later_check(capsys, monkeypatch,
                                                        tmp_path):
    # with the reference already in the store, the broken square first
    # raises in poly_P while the identity suite extends F to L + 2n + 2,
    # which the functional equation's line reads too: failed lines, not a
    # crash
    monkeypatch.setattr(metallic, "_tables", {})
    kappa_values(2, 60)
    _drop_middle_square(monkeypatch)
    code, out, err = run(capsys, "verify", "--n", "2", "--L", "60",
                         "--cache-dir", str(tmp_path))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert err == "verify: first failing check: functional_equation\n"
    message = "discriminant factorization failed for n = 2"
    assert checks["functional_equation"] == {
        "name": "functional_equation", "ok": False,
        "detail": {"error": message}}
    assert checks["ode"] == {"name": "ode", "ok": False,
                             "detail": {"error": message}}
    assert checks["identities"]["detail"] == {"error": message}
    assert checks["hankel_range"]["ok"]


def test_verify_index_zero_is_a_usage_error(capsys, tmp_path):
    # BadTable is a package error; a bad index is still a ValueError
    assert run(capsys, "verify", "--n", "0", "--L", "60", "--cache-dir",
               str(tmp_path)) == (2, "", "verify: metallic index must be >= 1\n")


def test_factorization_failure_is_a_package_error(capsys, monkeypatch,
                                                  tmp_path):
    poly_Q = metallic.poly_Q
    monkeypatch.setattr(metallic, "_tables", {})
    monkeypatch.setattr(metallic, "poly_Q",
                        lambda n: poly_Q(n) + series.monomial(1, 1))
    message = "discriminant factorization failed for n = 1"
    code, out, err = run(capsys, "coeffs", "--n", "1", "--L", "20",
                         "--cache-dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"coeffs: {message}\n")
    code, out, err = run(capsys, "verify", "--n", "1", "--L", "60",
                         "--cache-dir", str(tmp_path))
    assert code == 1 and err == "verify: first failing check: engine_agreement\n"
    assert json.loads(out)["checks"][0]["detail"]["error"] == message


# -- asymptotics, radius, tables ----------------------------------------------------


def test_asymptotics_json(capsys):
    code, out, _ = run(capsys, "asymptotics", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1
    assert doc["radius"].startswith("0.38196601125010515")
    assert len(doc["roots"]) == 2 and len(doc["dominant"]) == 1
    assert doc["gamma"][0]["re"].startswith("-1.495348781221220")


def test_asymptotics_json_inclusion_radius(capsys):
    code, out, _ = run(capsys, "asymptotics", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["n", "precision_bits", "radius", "inclusion_radius",
                         "dominant", "gamma", "branch_flipped", "roots"]
    assert 0 < float(doc["inclusion_radius"]) < 2.0 ** -256
    assert len(doc["inclusion_radius"].replace("e", " ").split()[0]) == 6
    # the gammas printed are the report's
    rep = asym.singularity_report(3)
    assert doc["gamma"] == [
        {"re": mp.nstr(to_mp(g.real), 30), "im": mp.nstr(to_mp(g.imag), 30)}
        for g in rep.gammas]


def test_asymptotics_refuses_csv(capsys):
    # the report is JSON only: --format csv, before or after the
    # subcommand, exits 2 and names the command
    for argv in (["asymptotics", "--n", "2", "--format", "csv"],
                 ["--format", "csv", "asymptotics", "--n", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("asymptotics: --format csv")
    code, out, _ = run(capsys, "asymptotics", "--n", "2", "--format", "json")
    assert (code, out) == (0, run(capsys, "asymptotics", "--n", "2")[1])


def test_radius_formats(capsys):
    code, out, _ = run(capsys, "radius", "--n", "2")
    assert code == 0
    assert json.loads(out)["radius"].startswith("0.531010056459569")
    code, out, _ = run(capsys, "radius", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,radius"


def test_tables_writes_csv_and_manifest(capsys, tmp_path):
    d = str(tmp_path)
    code, out, _ = run(capsys, "tables", "table1", "--out-dir", d)
    assert code == 0
    csv_path = os.path.join(d, "table1.csv")
    assert os.path.exists(csv_path)
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "l,ratio" and len(lines) == 21
    assert lines[1].split(",")[0] == "100"
    man = json.load(open(csv_path + ".manifest.json"))
    assert man["outputs"][0]["path"] == "table1.csv"


# -- identities ---------------------------------------------------------------------


def test_identity_reports_reuse_the_multinv_report(capsys, monkeypatch):
    calls = []
    real = series.series_inverse

    def count(*args):
        calls.append(args)
        return real(*args)

    # multinv reads crin's solve of 1/F, so nothing inverts a series
    for name, mod in list(sys.modules.items()):
        if name.startswith("qmetallic") and hasattr(mod, "series_inverse"):
            monkeypatch.setattr(mod, "series_inverse", count)
    code, out, _ = run(capsys, "identities", "--n", "3", "--order", "60")
    assert code == 0
    assert [r["identity_id"] for r in json.loads(out)] == list(IDENTITY_IDS)
    assert len(calls) == 0


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--n", "3", "--order", "60")
    assert code == 0
    reports = json.loads(out)
    assert all(r["holds"] for r in reports)
    assert all(r["n"] in (0, 3) for r in reports)


# -- rna ----------------------------------------------------------------------------


def test_rna_count(capsys):
    code, out, _ = run(capsys, "rna", "count", "--size", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"l": 6, "rank": 1, "count": "17"}


def test_rna_count_budget(capsys):
    code, _, err = run(capsys, "rna", "count", "--size", "23")
    assert code == 2
    assert err.startswith("rna: ") and err.count("\n") == 1


def test_rna_grid(capsys):
    code, out, _ = run(capsys, "rna", "grid", "--max-size", "5",
                       "--max-rank", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,rank,count"
    rows = {tuple(map(int, r.split(",")[:2])): int(r.split(",")[2])
            for r in lines[1:]}
    assert rows[(5, 1)] == 8 and rows[(4, 0)] == 9


def test_rna_grid_runs_the_dp_once_per_rank(capsys, monkeypatch):
    calls = []
    table = rna._count_table

    def count(length, rank):
        calls.append((length, rank))
        return table(length, rank)

    monkeypatch.setattr(rna, "_count_table", count)
    code, out, _ = run(capsys, "rna", "grid", "--max-size", "40",
                       "--max-rank", "3")
    assert code == 0 and len(json.loads(out)) == 40 * 4
    assert calls == [(40, r) for r in range(4)]


# -- logconv ------------------------------------------------------------------------


def test_logconv_single(capsys):
    code, out, _ = run(capsys, "logconv", "--n", "1", "--lmax", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "log-convex" and doc["onset"] == 3


def test_logconv_batch_deterministic_across_jobs(capsys):
    code, serial, _ = run(capsys, "logconv", "--n-range", "2..4",
                          "--lmax", "80")
    assert code == 0
    code, parallel, _ = run(capsys, "--jobs", "2", "logconv",
                            "--n-range", "2..4", "--lmax", "80")
    assert code == 0 and serial == parallel
    lines = serial.strip().splitlines()
    assert lines[0].startswith("n,l_max,classification")
    assert len(lines) == 4


def test_jobs_bounded_by_task_count(capsys, monkeypatch):
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out, _ = run(capsys, "--jobs", "64", "logconv",
                       "--n-range", "1..2", "--lmax", "40")
    assert code == 0 and workers == [2]
    assert len(out.strip().splitlines()) == 3


def test_logconv_small_lmax_names_the_flag(capsys):
    code, out, err = run(capsys, "logconv", "--n", "2", "--lmax", "7")
    assert code == 2 and out == ""
    assert err == "logconv: need --lmax >= 2n + 4 = 8 for n = 2, got 7\n"


def test_logconv_range_checks_lmax_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the --lmax check")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(cli, "classify", refuse)
    code, out, err = run(capsys, "--jobs", "2", "logconv",
                         "--n-range", "1..3", "--lmax", "7")
    assert code == 2 and out == ""
    assert err == "logconv: need --lmax >= 2n + 4 = 10 for n = 3, got 7\n"


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_jobs_below_one_rejected(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", jobs, "logconv", "--n-range", "1..2"])
    assert exc.value.code == 2
    assert "--jobs: expected an integer >= 1" in capsys.readouterr().err


# -- quantize -----------------------------------------------------------------------


def test_quantize_quadratic(capsys):
    code, out, _ = run(capsys, "quantize", "--cf", "1;(1)*")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "quadratic"
    assert doc["R"] == [-1, 1, 1] and doc["S"] == [0, 2]
    assert doc["conjugate_pairing"] == {"holds_from": 2, "holds": True}
    assert [int(c) for c in doc["series"]["coeffs"][:6]] == [1, 0, 1, -1,
                                                             2, -4]


def test_quantize_with_unpairable_conjugate(capsys):
    code, out, _ = run(capsys, "quantize", "--cf", "0;2,(1,1,1,4)*")
    assert code == 0
    doc = json.loads(out)
    assert doc["conjugate_pairing"] == {"holds_from": None, "holds": None}


def test_quantize_rational(capsys):
    code, out, _ = run(capsys, "quantize", "--cf", "5;2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "rational"
    assert doc["cf"] == "5;2"


def test_quantize_negative_leading_entry(capsys):
    # a value starting with "-" must be attached with "=", or argparse
    # reads it as an option
    code, out, err = run(capsys, "quantize", "--cf=-1;(2)*")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "quadratic" and doc["cf"] == "-1;(2)*"


def test_quantize_builds_the_form_once(capsys, monkeypatch):
    from qmetallic import qnum

    counts = {"q_real_truncated": 0, "to_series": 0}

    def counted(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(qnum, "q_real_truncated",
                        counted("q_real_truncated", qnum.q_real_truncated))
    monkeypatch.setattr(qnum.QuadraticForm, "to_series",
                        counted("to_series", qnum.QuadraticForm.to_series))
    code, _, _ = run(capsys, "quantize", "--cf", "3;(1,2,5)*")
    assert code == 0
    # one form; its series for the output, then both branches to order 40
    assert counts == {"q_real_truncated": 1, "to_series": 3}


# -- hankel -------------------------------------------------------------------------


def test_hankel_csv(capsys):
    code, out, _ = run(capsys, "hankel", "--n", "1", "--max-s", "2",
                       "--max-j", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,s0,s1,s2"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1"
    assert all(v in ("-1", "0", "1") for v in first[1:])
