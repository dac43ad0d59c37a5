"""Benchmark of the qmetallic command line, one seeded workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (the package is imported from
src/, nothing is installed).  Each command runs as a CLI user runs it: in
a fresh interpreter, through qmetallic.cli.main, one at a time, with a
coefficient cache that belongs to this run.  After each command its
output is checked by checks.py, untimed.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics; with --trace 1
the metrics are the per-layer ones of spans.py.  README.md explains the
workloads, the metrics and the speed rescaling by a reference kernel.
"""

import argparse
import functools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")
EXIT_TIMEOUT_S = 60

# Typical duration of reference_kernel() on the machine behind the README
# figures; every timing is rescaled to a machine of exactly that speed.
KERNEL_NOMINAL_S = 0.020


def reference_kernel() -> int:
    """Fixed pure-Python work in the program's two main kinds: a
    convolution recurrence over growing big integers, then decimal and
    JSON formatting of large integers.  About 20 ms."""
    vals = [1]
    for l in range(1, 330):
        acc = 0
        for i in range(l):
            acc += vals[i] * vals[l - 1 - i]
        vals.append(acc - (vals[-1] >> 2))
    big = vals[-1] ** 5
    return len(json.dumps([str(big + i) for i in range(320)]))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


# -- workloads -----------------------------------------------------------------


class Op:
    """One CLI command and what to do around it."""

    def __init__(self, argv, check, fresh_cache=True, group=None):
        self.argv = argv
        self.check = check  # callable(output text) -> None or a reason
        self.fresh_cache = fresh_cache
        self.group = group  # ops of one group must print identical bytes


def verify_op(n: int, L: int) -> Op:
    argv = ["verify", "--n", str(n), "--L", str(L)]
    return Op(argv, lambda out: checks.check_verify(out, n, L))


def verify_round(rng: random.Random) -> list:
    """Seven `verify` commands, each from an empty cache.

    The middle of the round costs the same whatever the seed: n = 5, 6, 7
    at L = 450.  Two dearer commands sit above them (n = 1, the only index
    that runs the sign-bridge and sign-flip checks, and one of 2..4, at
    L = 480..500) and two cheaper ones below (two of 8..12 at L = 400..420).
    The seed picks the outer indices, their L and the order."""
    ops = [verify_op(n, 450) for n in (5, 6, 7)]
    ops += [verify_op(n, rng.randint(480, 500))
            for n in (1, rng.randint(2, 4))]
    ops += [verify_op(n, rng.randint(400, 420))
            for n in rng.sample(range(8, 13), 2)]
    rng.shuffle(ops)
    return ops


def asymptotics_op(n: int) -> Op:
    return Op(["asymptotics", "--n", str(n)],
              lambda out: checks.check_asymptotics(out, n))


def asymptotics_round(rng: random.Random) -> list:
    """`asymptotics` at n = 29, 30, 31 and at 30 -+ b, b = 15..18 from the
    seed.  The time grows with n, so the middle of the round is the
    29..31 cluster whatever the seed, and the outer pair reaches the ends
    of the range 12..48."""
    b = rng.randint(15, 18)
    ops = [asymptotics_op(n) for n in (29, 30, 31, 30 - b, 30 + b)]
    rng.shuffle(ops)
    return ops


def sequence_round(rng: random.Random) -> list:
    """Three tables, each asked for three times in a row: the first request
    computes the table and writes the cache, the next two read it.

    n = 1 (the largest output, which sets peak_rss_mb) and n = 2 (the
    middle of the round) are always there; the third index comes from
    4..8.  The seed picks it, each table's L in 5900..6000, the order and
    the exponents at which the output is checked."""
    ops = []
    tables = [1, 2, rng.randint(4, 8)]
    rng.shuffle(tables)
    for n in tables:
        L = rng.randint(5900, 6000)
        samples = sorted(set(rng.sample(range(1, L), 12)) | {0, L - 1})
        argv = ["coeffs", "--n", str(n), "--L", str(L)]
        check = functools.partial(checks.check_coeffs, n=n, L=L,
                                  samples=samples)
        ops += [Op(argv, check, fresh_cache=(k == 0), group=n)
                for k in range(3)]
    return ops


WORKLOADS = {"verify": verify_round, "asymptotics": asymptotics_round,
             "sequence": sequence_round}

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s.p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER = (
    "series.mul.calls", "series.mul.self_s", "series.series_div.calls",
    "series.series_inverse.self_s", "series.series_sqrt.self_s",
    "series.to_json.self_s",
    "qnum.group_action.calls", "qnum.group_action.self_s",
    "metallic.engine.conv.self_s", "metallic.engine.precurrence.self_s",
    "metallic.engine.sqrt.self_s", "metallic.kappa_values.calls",
    "metallic.kappa_values.self_s", "metallic.checks.self_s",
    "metallic.hankel.self_s",
    "identities.check_rel.calls", "identities.check_rel.self_s",
    "identities.mult_inverse_check.calls",
    "identities.reflection_check.calls",
    "asymptotics.all_roots.self_s", "asymptotics.singularity_report.self_s",
    "asymptotics.gamma_coeff.calls", "asymptotics.gamma_coeff.self_s",
    "rna.sign_bridge_check.self_s",
    "logbehaviour.sign_flip_lemma_check.self_s",
    "cache.cache_store.calls", "cache.cache_store.self_s",
    "cache.cache_load.calls", "cache.cache_load.self_s",
    "cache.bytes_written", "cli.main.self_s", "cli.stdout_bytes",
)


# -- running one command ----------------------------------------------------------


def _tree_state(path: str) -> dict:
    """{file: (inode, size, mtime)} below path."""
    state = {}
    for base, _, files in os.walk(path):
        for name in files:
            p = os.path.join(base, name)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            state[p] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return state


class Runner:
    def __init__(self, run_dir: str, trace: bool):
        self.run_dir = run_dir
        self.trace = trace
        self.home = os.path.join(run_dir, "home")
        self.cache = os.path.join(self.home, ".cache", "qmetallic")
        self.out_path = os.path.join(run_dir, "stdout.txt")
        self.err_path = os.path.join(run_dir, "stderr.txt")
        self.spans_path = os.path.join(run_dir, "spans.json")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, HOME=self.home, QMETALLIC_CACHE_DIR=self.cache,
                        PYTHONPATH=SRC + (os.pathsep + pythonpath
                                          if pythonpath else ""))
        self.worker = [sys.executable, os.path.join(HERE, "worker.py")]
        if trace:
            self.worker.append("--trace")

    def warm_up(self) -> None:
        """One untimed import, so bytecode is compiled before timing starts."""
        subprocess.run([sys.executable, "-c", "import qmetallic.cli"],
                       env=self.env, cwd=self.run_dir, check=True, timeout=120)

    def run(self, op: Op) -> dict:
        if op.fresh_cache:
            shutil.rmtree(self.home, ignore_errors=True)
            os.makedirs(self.cache)
        before = _tree_state(self.cache)
        with open(self.err_path, "w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(self.worker, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.run_dir, text=True)
            try:
                ready = proc.stdout.readline()
                t_ready = time.perf_counter()
                if ready.strip() != "ready":
                    raise RuntimeError("worker did not start")
                # the interpreter waits for its command meanwhile
                kernels = [kernel_seconds(), kernel_seconds()]
                t_send = time.perf_counter()
                proc.stdin.write(json.dumps({
                    "argv": op.argv, "out": self.out_path,
                    "spans": self.spans_path}) + "\n")
                proc.stdin.flush()
                result = json.loads(proc.stdout.readline())
                proc.wait(timeout=EXIT_TIMEOUT_S)
                t_exit = time.perf_counter()
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        kernels += [kernel_seconds(), kernel_seconds()]
        with open(self.out_path, encoding="utf-8") as fh:
            output = fh.read()
        after = _tree_state(self.cache)
        rec = {
            "argv": op.argv,
            "rc": result["rc"],
            "error": result["error"],
            "op_s": result["op_s"],
            "setup_s": t_ready - t_spawn,
            "life_s": (t_ready - t_spawn) + (t_exit - t_send),
            "maxrss_kb": result["maxrss_kb"],
            "kernel_s": kernels,
            "stdout_bytes": os.path.getsize(self.out_path),
            "cache_bytes_written": sum(after[p][1] for p in after
                                       if before.get(p) != after[p]),
            "output": output,
        }
        if rec["rc"] == 0:
            rec["reason"] = op.check(output)
        else:
            with open(self.err_path, encoding="utf-8") as fh:
                rec["reason"] = fh.read()[-2000:] or rec["error"]
        if self.trace:
            with open(self.spans_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            rec["spans"] = spans.self_times(doc)
            rec["absent"] = doc["absent"]
        return rec


# -- metrics -------------------------------------------------------------------


def speed_factor(rec: dict) -> float:
    """Nominal over measured kernel time: >1 when the machine ran slow."""
    return KERNEL_NOMINAL_S / statistics.fmean(rec["kernel_s"])


def end_to_end(records: list) -> dict:
    scaled = [(r, speed_factor(r)) for r in records]
    return {
        "ops_per_s": len(records) / sum(r["life_s"] * f for r, f in scaled),
        "op_s.p50": statistics.median(r["op_s"] * f for r, f in scaled),
        "setup_s": statistics.median(r["setup_s"] * f for r, f in scaled),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024,
    }


def per_layer(records: list, rounds: int) -> dict:
    """Per-round totals: calls and rescaled self seconds of each span."""
    totals = {}
    for r in records:
        f = speed_factor(r)
        for name, (calls, self_s) in r["spans"].items():
            agg = totals.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s * f
    out = {}
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = totals.get(name, [0, 0.0])[0] / rounds
        elif kind == "self_s":
            out[metric] = totals.get(name, [0, 0.0])[1] / rounds
    out["cache.bytes_written"] = sum(r["cache_bytes_written"]
                                     for r in records) / rounds
    out["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in records) / rounds
    return out


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    return "B" if metric.endswith(("bytes_written", "_bytes")) else "s"


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmetallic", "cli.py")):
        sys.stderr.write(f"run.py: no qmetallic sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    sys.set_int_max_str_digits(0)  # the checks parse multi-thousand-digit ints
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # commands run where the kernel is timed

    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    plan = WORKLOADS[args.workload](random.Random(args.seed))
    runner = Runner(run_dir, bool(args.trace))
    runner.warm_up()

    records, rounds = [], 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        firsts = {}
        for op in plan:
            rec = runner.run(op)
            output = rec.pop("output")
            if op.group is not None and rec["rc"] == 0 and rec["reason"] is None:
                first = firsts.setdefault(op.group, output)
                rec["reason"] = checks.check_same(first, output)
            records.append(rec)
        rounds += 1
        now = time.perf_counter()
        if now - t_start + (now - t_round) / 2 >= args.seconds:
            break

    failed = [r for r in records if r["rc"] != 0]
    wrong = [r for r in records if r["rc"] == 0 and r["reason"] is not None]
    for r in failed + wrong:
        sys.stderr.write(f"{' '.join(r['argv'])}: rc={r['rc']} {r['reason']}\n")
    ok = [r for r in records if r["rc"] == 0]
    if args.trace:
        values = per_layer(records, rounds)
        absent = sorted({n for r in records for n in r["absent"]})
        if absent:
            print("absent functions, reported as 0: " + ", ".join(absent))
    else:
        values = end_to_end(ok or records)
    with open(os.path.join(run_dir, "records.json"), "w") as fh:
        json.dump({"args": vars(args), "rounds": rounds, "records": [
            {k: v for k, v in r.items() if k != "spans"} for r in records]},
            fh, indent=1)
    for name in ("stdout.txt", "stderr.txt", "spans.json", "home"):
        path = os.path.join(run_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    print(f"{args.workload} seed={args.seed}: {len(records)} commands in "
          f"{rounds} rounds, {time.perf_counter() - t_start:.1f} s")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
