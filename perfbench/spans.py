"""Spans around the calls into qmetallic's public functions, from outside.

The tracer replaces each function listed in TARGETS by a wrapper that
records (name, start, end, parent).  A function is replaced under every
name that refers to it in every loaded qmetallic module, so a module that
did `from .series import series_div` calls the wrapper too; a method is
replaced on its class.  A target that no longer exists is reported as
absent.  Spans stay in memory until the command has returned.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name); several functions may share a name
TARGETS = (
    ("series", "LaurentSeries.__mul__", "series.mul"),
    ("series", "series_div", "series.series_div"),
    ("series", "series_inverse", "series.series_inverse"),
    ("series", "series_sqrt", "series.series_sqrt"),
    ("series", "to_json", "series.to_json"),
    ("qnum", "reciprocal", "qnum.group_action"),
    ("qnum", "negate", "qnum.group_action"),
    ("qnum", "neg_reciprocal", "qnum.group_action"),
    ("metallic", "coeffs_convolution", "metallic.engine.conv"),
    ("metallic", "coeffs_p_recurrence", "metallic.engine.precurrence"),
    ("metallic", "coeffs_sqrt", "metallic.engine.sqrt"),
    ("metallic", "kappa_values", "metallic.kappa_values"),
    ("metallic", "verify_functional_equation", "metallic.checks"),
    ("metallic", "verify_ode", "metallic.checks"),
    ("metallic", "hankel", "metallic.hankel"),
    ("identities", "check_rel", "identities.check_rel"),
    ("identities", "mult_inverse_check", "identities.mult_inverse_check"),
    ("identities", "reflection_check", "identities.reflection_check"),
    ("asymptotics", "all_roots", "asymptotics.all_roots"),
    ("asymptotics", "singularity_report", "asymptotics.singularity_report"),
    ("asymptotics", "gamma_coeff", "asymptotics.gamma_coeff"),
    ("rna", "sign_bridge_check", "rna.sign_bridge_check"),
    ("logbehaviour", "sign_flip_lemma_check",
     "logbehaviour.sign_flip_lemma_check"),
    ("cache", "cache_store", "cache.cache_store"),
    ("cache", "cache_load", "cache.cache_load"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
PACKAGE = "qmetallic"


class Tracer:
    def __init__(self):
        self.records = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.absent = []

    def _wrap(self, fn, name):
        records, stack = self.records, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                records[idx] = (name, t0, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        found = set()
        for mod_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            found.add(name)
            wrapper = self._wrap(fn, name)
            if outer:  # a method: replace every class attribute bound to it
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith(PACKAGE):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        self.absent = [n for n in SPAN_NAMES if n not in found]

    def write(self, path: str) -> None:
        """Write every span; call only after the command has returned."""
        names = list(SPAN_NAMES)
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[name], start, end, parent]
                for name, start, end, parent in self.records]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "absent": self.absent, "spans": rows},
                      fh)


def self_times(doc: dict) -> dict:
    """{span name: [calls, self seconds]} from a document written by write().

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since one thread makes
    every call.
    """
    names, rows = doc["names"], doc["spans"]
    child = [0.0] * len(rows)
    for name_idx, start, end, parent in rows:
        if parent >= 0:
            child[parent] += end - start
    out = {n: [0, 0.0] for n in names}
    for i, (name_idx, start, end, _) in enumerate(rows):
        agg = out[names[name_idx]]
        agg[0] += 1
        agg[1] += (end - start) - child[i]
    return out
