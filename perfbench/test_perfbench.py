"""Tests of the benchmark itself: its output checks, workloads and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each check is shown to accept a real answer of the CLI and to reject the
same answer corrupted in the way the check exists to catch.
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans

sys.path.insert(0, run.SRC)
from qmetallic.cli import main as cli_main  # noqa: E402


@pytest.fixture
def cli(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("QMETALLIC_CACHE_DIR", str(tmp_path / "cache"))

    def call(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(list(argv)) == 0
        return buf.getvalue()

    return call


# -- the polynomials the checks build for themselves ---------------------------------


def test_polynomials_match_their_definitions():
    assert checks.poly_R(1) == [-1, 1, 1]
    assert checks.poly_Q(1) == [1, 3, 1]
    for n in range(1, 9):
        R, Q = checks.poly_R(n), checks.poly_Q(n)
        disc = checks.poly_add(checks.poly_mul(R, R), [0, 4])
        assert disc == checks.poly_mul([1, -1, 1], Q)  # R^2 + 4q = (1-q+q^2) Q
        assert Q == Q[::-1] and len(Q) == 2 * n + 1


# -- verify ------------------------------------------------------------------------


def test_verify_check(cli):
    n, L = 2, 60
    out = cli("verify", "--n", str(n), "--L", str(L))
    assert checks.check_verify(out, n, L) is None
    doc = json.loads(out)

    def corrupt(edit):
        d = json.loads(out)
        edit(d)
        return checks.check_verify(json.dumps(d), n, L)

    assert corrupt(lambda d: d.update(ok=False))
    assert corrupt(lambda d: d["checks"][-1].update(ok=False))
    assert corrupt(lambda d: d.update(n=3))
    names = [c["name"] for c in doc["checks"]]
    fe, ode = names.index("functional_equation"), names.index("ode")
    assert corrupt(lambda d: d["checks"][fe]["detail"].update(
        checked_order=L - 1))
    assert corrupt(lambda d: d["checks"][ode]["detail"].update(
        checked_order=L))
    assert corrupt(lambda d: d["checks"].pop(ode))
    assert checks.check_verify(out[:-10], n, L)


# -- coeffs ------------------------------------------------------------------------


def test_coeffs_check(cli):
    n, L = 3, 200
    out = cli("coeffs", "--n", str(n), "--L", str(L))
    samples = [0, 1, 7, 57, 123, L - 1]
    assert checks.check_coeffs(out, n, L, samples) is None

    def corrupt(index, delta, at=samples):
        d = json.loads(out)
        d["coeffs"][index] = str(int(d["coeffs"][index]) + delta)
        return checks.check_coeffs(json.dumps(d), n, L, at)

    assert corrupt(1, 1)            # prefix of n ones
    assert corrupt(n, 1)            # then a zero
    assert corrupt(2 * n, 1)        # kappa_2n = 1
    assert corrupt(123, -1)         # q F^2 = R F + 1 at a sample exponent
    assert corrupt(50, 1, [57])     # ... and at one that reads it
    d = json.loads(out)
    d["coeffs"].pop()
    assert checks.check_coeffs(json.dumps(d), n, L, samples)
    assert checks.check_coeffs(out, n, L + 1, samples)


def test_repeated_answers_must_match(cli):
    first = cli("coeffs", "--n", "2", "--L", "50")
    again = cli("coeffs", "--n", "2", "--L", "50")
    assert checks.check_same(first, again) is None
    assert checks.check_same(first, again.replace('"1"', '"2"', 1))


# -- asymptotics -------------------------------------------------------------------


def test_asymptotics_check(cli):
    n = 4
    out = cli("asymptotics", "--n", str(n))
    assert checks.check_asymptotics(out, n) is None
    doc = json.loads(out)
    moduli = [abs(complex(float(z["re"]), float(z["im"]))) for z in doc["roots"]]
    far = moduli.index(max(moduli))

    def corrupt(edit):
        d = json.loads(out)
        edit(d)
        return checks.check_asymptotics(json.dumps(d), n)

    def nudge(z):  # change the 8th character, about the 6th digit
        z["re"] = z["re"][:7] + ("1" if z["re"][7] != "1" else "2") + \
            z["re"][8:]

    assert corrupt(lambda d: d["roots"].pop())                  # 2n roots
    assert corrupt(lambda d: nudge(d["roots"][0]))              # Q_n(z) ~ 0
    assert corrupt(lambda d: d["roots"].__setitem__(far, d["roots"][0]))
    assert corrupt(lambda d: d.update(radius=d["roots"][far]["re"]))
    assert corrupt(lambda d: d["dominant"].__setitem__(0, d["roots"][far]))
    assert corrupt(lambda d: d["gamma"].pop())
    assert corrupt(lambda d: d.update(n=n + 1))


# -- workloads and the runner ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workloads_follow_the_seed(name):
    plan = run.WORKLOADS[name](random.Random(7))
    again = run.WORKLOADS[name](random.Random(7))
    assert [op.argv for op in plan] == [op.argv for op in again]
    other = [run.WORKLOADS[name](random.Random(s)) for s in range(20)]
    assert len({tuple(tuple(op.argv) for op in p) for p in other}) > 1


def test_workload_ranges():
    for seed in range(50):
        rng = random.Random(seed)
        for op in run.verify_round(rng):
            n, L = int(op.argv[2]), int(op.argv[4])
            assert 1 <= n <= 12 and 400 <= L <= 500 and op.fresh_cache
        ns = [int(op.argv[2]) for op in run.asymptotics_round(rng)]
        assert min(ns) >= 12 and max(ns) <= 48
        seq = run.sequence_round(rng)
        assert [op.fresh_cache for op in seq] == [True, False, False] * 3
        assert {int(op.argv[2]) for op in seq} <= set(range(1, 9))


def test_self_times_subtract_direct_children():
    doc = {"names": ["a", "b"], "absent": [],
           "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 3.0, 0], [1, 4.0, 6.0, 0],
                     [0, 4.5, 5.0, 2]]}
    got = spans.self_times(doc)
    assert got["a"] == [2, pytest.approx(6.0 + 0.5)]
    assert got["b"] == [2, pytest.approx(2.0 + 1.5)]


def test_traced_worker_reports_spans(tmp_path):
    runner = run.Runner(str(tmp_path), trace=True)
    os.makedirs(runner.cache)
    rec = runner.run(run.verify_op(1, 60))
    assert rec["rc"] == 0 and rec["reason"] is None
    assert rec["absent"] == []
    calls = {name: c for name, (c, _) in rec["spans"].items()}
    assert calls["cli.main"] == 1
    assert calls["identities.check_rel"] >= 10
    assert calls["rna.sign_bridge_check"] == 1
    assert calls["cache.cache_store"] >= 3
    assert rec["cache_bytes_written"] > 0 and rec["stdout_bytes"] > 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
