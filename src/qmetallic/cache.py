"""Persistent coefficient-table cache and run manifests.

A cache entry `coeffs-n{n}-{engine}.txt` is one JSON header line,
`{"format_version": 3, "n": ..., "engine": ..., "sha256": ...}`, then one
canonical decimal coefficient per line (what str gives an int).  The hash
covers exactly the bytes after the header line, so
`tail -n +2 FILE | sha256sum` reproduces it.  Bumping the format version
invalidates every cache.  Writes are create-then-rename so concurrent
writers never interleave partial files.  Loads re-verify the version, the
key, the hash, that every line is canonical decimal text, and the
structural prefix invariant before trusting disk data.  Those bytes after
the header are a CoeffTable's body: a load reads them in one sized read
and checks them as one buffer, without decoding them or splitting lines,
and a store writes a table's body as it is.  So printing a loaded table
converts nothing; its ints are parsed only if asked.

`cached_table` serves `coeffs`; `cache_refresh` is the whole cache rule of
`verify`: one read of each engine's entry, a store of each table that
agreed unless a valid entry at least as long is there, one read-back of
every store, and the list of entries that still do not load.

A RunManifest records enough to reproduce a CLI experiment: command,
parameters (precision bits included), package version, UTC timestamp,
and the sha256 of every output file.  Outputs themselves contain only
decimal strings, so reruns with equal parameters are byte-identical.
"""

import hashlib
import json
import os
import re
import tempfile
import time

from .errors import CacheCorrupt
from .metallic import (ENGINE_TAGS, CoeffTable, _check_n, _decimal_body,
                       canonical_engine_tag, kappa_text, table_engine)

FORMAT_VERSION = 3
ENV_CACHE_DIR = "QMETALLIC_CACHE_DIR"
ARTIFACT_VERSION = "0.1.0"
# lines of exactly the strings str(int) gives: no sign on 0, no leading
# zeros.  This defines the format; _canonical_line_count decides the same
# on a large body at a fraction of its cost.
_CANONICAL_LINES = re.compile(rb"(?:(?:0|-?[1-9][0-9]*)\n)*")
# after a newline: an empty line, a leading zero, or a sign before \n, 0, -
_BAD_LINE_START = re.compile(rb"\n(?:\n|0[^\n]|-[\n0-])")
_DIGITS_AND_SIGN = b"0123456789-"


def cache_directory(explicit=None) -> str:
    """Resolve the cache directory: argument, environment, then default."""
    if explicit:
        return str(explicit)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "qmetallic")


def _cache_path(key, cache_dir) -> str:
    n, engine = key
    if engine not in ENGINE_TAGS:
        raise ValueError(f"unknown engine tag {engine!r}")
    return os.path.join(cache_directory(cache_dir), f"coeffs-n{n}-{engine}.txt")


def atomic_write(path: str, *parts: bytes) -> None:
    """Write the parts in order via a same-directory temp file and atomic
    rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _canonical_line_count(body: bytes):
    """The number of lines of body when _CANONICAL_LINES matches it whole,
    else None.  Each step scans the buffer in C: the bytes are digits, signs
    and newlines, and the body ends in a newline; the first line is
    canonical; no later line is empty, has a leading zero, or has a sign
    followed by a newline, a zero or a sign; and every sign starts its
    line."""
    if not body:
        return 0
    newlines = body.translate(None, _DIGITS_AND_SIGN)
    if newlines.strip(b"\n") or not body.endswith(b"\n"):
        return None
    if not _CANONICAL_LINES.fullmatch(body, 0, body.index(b"\n") + 1):
        return None
    if _BAD_LINE_START.search(body):
        return None
    sign = body.find(b"-", 1)
    while sign != -1:
        if body[sign - 1] != 10:  # b"\n"
            return None
        sign = body.find(b"-", sign + 1)
    return len(newlines)


def cache_store(key, table: CoeffTable, cache_dir=None) -> str:
    """Persist a coefficient table under (n, engine); returns the path."""
    n, engine = key
    if table.n != n:
        raise ValueError(f"table for n = {table.n} stored under n = {n}")
    body = table.body
    header = {"format_version": FORMAT_VERSION, "n": n, "engine": engine,
              "sha256": hashlib.sha256(body).hexdigest()}
    path = _cache_path(key, cache_dir)
    atomic_write(path, (json.dumps(header) + "\n").encode("ascii"), body)
    return path


def cache_load(key, cache_dir=None) -> CoeffTable:
    """Strict load: FileNotFoundError if absent, CacheCorrupt if untrustworthy."""
    n, engine = key
    path = _cache_path(key, cache_dir)
    with open(path, "rb") as fh:
        head = fh.readline()
        body = fh.read(os.fstat(fh.fileno()).st_size - len(head))
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise CacheCorrupt(f"{path}: header is not JSON ({exc})") from exc
    if type(header) is not dict or header.get("format_version") != FORMAT_VERSION:
        raise CacheCorrupt(f"{path}: not a format {FORMAT_VERSION} cache entry")
    if header.get("n") != n or header.get("engine") != engine:
        raise CacheCorrupt(f"{path}: key mismatch")
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        raise CacheCorrupt(f"{path}: sha256 mismatch")
    upto = _canonical_line_count(body)
    if upto is None:
        raise CacheCorrupt(f"{path}: a line is not canonical decimal integer text")
    try:
        return CoeffTable(n, upto, None, engine, body=body)
    except ValueError as exc:
        raise CacheCorrupt(f"{path}: structural invariant violated ({exc})") from exc


def _read(key, cache_dir):
    """The entry's table, None when it is absent, or the CacheCorrupt that
    loading it raised."""
    try:
        return cache_load(key, cache_dir)
    except FileNotFoundError:
        return None
    except CacheCorrupt as exc:
        return exc


def cached_table(n: int, L: int, engine: str = "precurrence",
                 cache_dir=None) -> CoeffTable:
    """Cache-backed table: load it, or, when the entry is absent, short or
    bad, compute it with its own engine and store it.  The recurrence
    engine's table is computed as decimal text (kappa_text), joined once
    into the body that the cache stores and coeffs prints: str of a large
    int is slow."""
    n = _check_n(n)
    tag = canonical_engine_tag(engine)
    key = (n, tag)
    table = _read(key, cache_dir)  # a bad file is recomputed and overwritten
    if isinstance(table, CoeffTable) and table.upto >= L:
        return table.truncate(L)
    if tag == "precurrence":
        out = CoeffTable(n, L, None, tag,
                         body=_decimal_body(list(kappa_text(n, L))))
    else:
        out = table_engine(tag)(n, L)
    cache_store(key, out, cache_dir)
    return out


def cache_refresh(n: int, agreed: dict, L: int, cache_dir=None) -> list:
    """Read each entry of index n once, in ENGINE_TAGS order.  An agreed
    table (`agreed` maps engine tag to table) is stored unless a valid entry
    at least L long is there, and its entry is then read back once.  Returns
    the messages of the entries that still do not load."""
    corrupt = []
    for tag in ENGINE_TAGS:
        key = (n, tag)
        entry = _read(key, cache_dir)
        long_enough = isinstance(entry, CoeffTable) and entry.upto >= L
        if tag in agreed and not long_enough:
            cache_store(key, agreed[tag], cache_dir)
            entry = _read(key, cache_dir)
        if isinstance(entry, CacheCorrupt):
            corrupt.append(str(entry))
    return corrupt


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Reproducibility record written next to every experiment output.

    The timestamp defaults to the current UTC time in ISO 8601 form to the
    second, e.g. 2026-01-31T12:00:00+00:00; each manifest gets its own
    outputs list."""

    def __init__(self, command: str, parameters: dict,
                 artifact_version: str = ARTIFACT_VERSION,
                 timestamp: str | None = None, outputs: list | None = None):
        self.command = command
        self.parameters = parameters
        self.artifact_version = artifact_version
        self.timestamp = (time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
                          if timestamp is None else timestamp)
        self.outputs = [] if outputs is None else outputs

    def add_output(self, path: str) -> None:
        self.outputs.append({"path": os.path.basename(path),
                             "sha256": file_sha256(path)})

    def write(self, out_path: str) -> str:
        """Persist as <out_path>.manifest.json; returns the manifest path."""
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "artifact_version": self.artifact_version,
            "timestamp": self.timestamp,
            "outputs": self.outputs,
        }
        mpath = out_path + ".manifest.json"
        atomic_write(mpath, (json.dumps(doc, indent=1, sort_keys=True)
                             + "\n").encode("ascii"))
        return mpath
