"""Unit tests for the on-disk coefficient cache and run manifests."""

import hashlib
import json
import os
import random
import sys

import pytest

from qmetallic import cache, cli, metallic
from qmetallic.cache import (
    ARTIFACT_VERSION,
    ENV_CACHE_DIR,
    FORMAT_VERSION,
    RunManifest,
    atomic_write,
    cache_directory,
    cache_load,
    cache_store,
    cached_table,
    file_sha256,
)
from qmetallic.errors import CacheCorrupt
from qmetallic.metallic import _p_extend, coeffs_p_recurrence, kappa_values


def _entry_path(tmp, n=1, engine="precurrence"):
    return os.path.join(tmp, f"coeffs-n{n}-{engine}.txt")


def _read_entry(path):
    """The header as a dict, and the body bytes."""
    head, body = open(path, "rb").read().split(b"\n", 1)
    return json.loads(head), body


def _write_entry(path, header, body):
    open(path, "wb").write(json.dumps(header).encode() + b"\n" + body)


def test_store_load_round_trip(tmp_path):
    d = str(tmp_path)
    table = coeffs_p_recurrence(2, 30)
    path = cache_store((2, "precurrence"), table, d)
    back = cache_load((2, "precurrence"), d)
    assert back.n == 2 and back.upto == 30
    assert tuple(back.values) == tuple(table.values)
    assert back.engine == "precurrence"
    # a header line, then one decimal per line; the hash covers exactly the
    # body bytes, as `tail -n +2 FILE | sha256sum` does
    assert path == _entry_path(d, 2)
    header, body = _read_entry(path)
    assert header == {"format_version": FORMAT_VERSION, "n": 2,
                      "engine": "precurrence",
                      "sha256": hashlib.sha256(body).hexdigest()}
    assert body.decode().split("\n") == list(table.text) + [""]


def test_load_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        cache_load((1, "conv"), str(tmp_path))


def test_tampered_value_detected(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    header, body = _read_entry(p)
    lines = body.split(b"\n")
    lines[5] = b"12345"
    _write_entry(p, header, b"\n".join(lines))
    with pytest.raises(CacheCorrupt, match="sha256"):
        cache_load((1, "precurrence"), d)


def test_version_gate(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    header, body = _read_entry(p)
    header["format_version"] = FORMAT_VERSION + 1
    _write_entry(p, header, body)
    with pytest.raises(CacheCorrupt, match="format"):
        cache_load((1, "precurrence"), d)


def test_truncated_json_detected(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    data = open(p, "rb").read()
    for cut in (40, len(data) - 3, len(data) - 1):  # in the header, in the body
        open(p, "wb").write(data[:cut])
        with pytest.raises(CacheCorrupt):
            cache_load((1, "precurrence"), d)


def test_missing_key_detected(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    header, body = _read_entry(p)
    del header["n"]
    _write_entry(p, header, body)
    with pytest.raises(CacheCorrupt, match="key"):
        cache_load((1, "precurrence"), d)


def test_wrong_key_detected(tmp_path):
    # a valid entry for another n, under this key's name
    d = str(tmp_path)
    cache_store((2, "precurrence"), coeffs_p_recurrence(2, 20), d)
    os.replace(_entry_path(d, 2), _entry_path(d, 1))
    with pytest.raises(CacheCorrupt, match="key"):
        cache_load((1, "precurrence"), d)
    assert list(cached_table(1, 20, "precurrence", d).values) == kappa_values(1, 20)


def test_cached_table_cold_then_warm(tmp_path):
    d = str(tmp_path)
    t1 = cached_table(3, 40, "precurrence", d)
    assert os.path.exists(_entry_path(d, 3))
    t2 = cached_table(3, 40, "precurrence", d)
    assert tuple(t1.values) == tuple(t2.values) == tuple(kappa_values(3, 40))


def test_header_missing_a_field_is_corrupt_and_heals(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    good, body = _read_entry(p)
    for field in good:
        header = dict(good)
        del header[field]
        _write_entry(p, header, body)
        with pytest.raises(CacheCorrupt):
            cache_load((1, "precurrence"), d)
        assert list(cached_table(1, 20, "precurrence", d).values) == kappa_values(1, 20)
        assert _read_entry(p) == (good, body)


@pytest.mark.parametrize("engine", ["conv", "sqrt", "precurrence"])
def test_only_the_recurrence_extends_a_short_table(tmp_path, monkeypatch,
                                                   engine):
    # a short entry is recomputed by its own engine and stored again; the
    # recurrence runs only for the recurrence engine, in the kappa store
    d = str(tmp_path)
    cached_table(2, 20, engine, d)
    want = kappa_values(2, 60)
    extended = []

    def spy(n, vals, L):
        extended.append((len(vals), L))
        return _p_extend(n, vals, L)

    monkeypatch.setattr(metallic, "_tables", {})
    monkeypatch.setattr(metallic, "_p_extend", spy)
    t = cached_table(2, 60, engine, d)
    assert t.engine == engine and list(t.values) == want
    assert extended == ([(6, 60)] if engine == "precurrence" else [])
    stored = cache_load((2, engine), d)
    assert stored.upto == 60 and list(stored.values) == want


def test_cached_table_extends_and_persists(tmp_path):
    d = str(tmp_path)
    cached_table(1, 30, "precurrence", d)
    t = cached_table(1, 120, "precurrence", d)
    assert len(t.values) == 120
    assert list(t.values) == kappa_values(1, 120)
    assert cache_load((1, "precurrence"), d).upto == 120


def test_cached_table_truncates_without_losing_cache(tmp_path):
    d = str(tmp_path)
    cached_table(1, 100, "precurrence", d)
    t = cached_table(1, 25, "precurrence", d)
    assert len(t.values) == 25
    assert cache_load((1, "precurrence"), d).upto == 100  # longer table kept on disk


def test_cached_table_heals_corruption(tmp_path):
    d = str(tmp_path)
    cached_table(2, 30, "precurrence", d)
    p = _entry_path(d, 2)
    header, body = _read_entry(p)
    _write_entry(p, header, body.replace(b"\n0\n", b"\n999\n", 1))
    t = cached_table(2, 30, "precurrence", d)
    assert list(t.values) == kappa_values(2, 30)
    # and the on-disk copy is valid again
    assert tuple(cache_load((2, "precurrence"), d).values) == tuple(t.values)


def test_cached_table_accepts_engine_aliases(tmp_path):
    d = str(tmp_path)
    t = cached_table(1, 15, "prec", d)
    assert t.engine == "precurrence"
    assert os.path.exists(_entry_path(d, 1, "precurrence"))


def test_cache_directory_precedence(tmp_path, monkeypatch):
    explicit = str(tmp_path / "explicit")
    env = str(tmp_path / "env")
    monkeypatch.setenv(ENV_CACHE_DIR, env)
    assert cache_directory(explicit) == explicit
    assert cache_directory(None) == env
    monkeypatch.delenv(ENV_CACHE_DIR)
    assert cache_directory(None).endswith("qmetallic")


def test_atomic_write_leaves_no_droppings(tmp_path):
    p = str(tmp_path / "out.txt")
    atomic_write(p, b"pay", b"load")
    assert open(p, "rb").read() == b"payload"
    assert os.listdir(str(tmp_path)) == ["out.txt"]


def test_file_sha256(tmp_path):
    p = str(tmp_path / "blob")
    open(p, "wb").write(b"abc")
    assert file_sha256(p) == hashlib.sha256(b"abc").hexdigest()


def test_run_manifest(tmp_path):
    out = str(tmp_path / "result.csv")
    open(out, "w").write("l,ratio\n100,1.0\n")
    m = RunManifest(command="tables", parameters={"n": 1})
    m.add_output(out)
    written = m.write(out)
    assert written == out + ".manifest.json"
    doc = json.load(open(written))
    assert doc["command"] == "tables"
    assert doc["parameters"] == {"n": 1}
    assert doc["artifact_version"] == ARTIFACT_VERSION
    assert doc["outputs"][0]["path"] == "result.csv"
    assert doc["outputs"][0]["sha256"] == file_sha256(out)
    assert "timestamp" in doc


# -- decimal text: canonical on disk, printed as read --------------------------------


def _rewrite_body(path, body):
    """Replace the cached body and re-sign it, as a careful tamperer would."""
    header, _ = _read_entry(path)
    header["sha256"] = hashlib.sha256(body).hexdigest()
    _write_entry(path, header, body)


def _rewrite_values(path, values):
    _rewrite_body(path, "".join(v + "\n" for v in values).encode())


def _coeffs(capsys, *argv):
    assert cli.main(["coeffs", *argv]) == 0
    return capsys.readouterr().out


def test_cache_file_bytes_are_pinned(tmp_path):
    # existing caches stay valid only while the bytes written stay the same
    cached_table(2, 30, "precurrence", str(tmp_path))
    assert file_sha256(_entry_path(str(tmp_path), 2)) == (
        "abb703af1c0f5c994989e091dae4d1702a04e3b037be3fef633ae3e32fae97aa")


@pytest.mark.parametrize("index, text", [
    (8, "037"), (8, "+37"), (8, " 37"), (8, "3_7"), (8, "٣٧"),
    (1, "-0"), (8, "37\r"), (8, "37\n"),
])
def test_non_canonical_decimal_text_is_corrupt(tmp_path, capsys, index, text):
    # int() takes each of these, so only the canonical-text check sees them;
    # the last two are a line with a carriage return and a blank line
    d = str(tmp_path)
    args = ("--n", "1", "--L", "20", "--cache-dir", d)
    cold = _coeffs(capsys, *args)
    good = open(_entry_path(d)).read()
    values = [str(v) for v in kappa_values(1, 20)]
    assert int(text) == int(values[index])
    values[index] = text
    _rewrite_values(_entry_path(d), values)
    with pytest.raises(CacheCorrupt, match="canonical"):
        cache_load((1, "precurrence"), d)
    assert _coeffs(capsys, *args) == cold
    assert open(_entry_path(d)).read() == good


def _damaged(data, how):
    head, body = data.split(b"\n", 1)
    bad = body.replace(b"\n0\n", b"\n\xff\xfe\n", 1)
    if how == "undecodable body":
        return head + b"\n" + bad
    if how == "undecodable signed body":
        header = json.loads(head)
        header["sha256"] = hashlib.sha256(bad).hexdigest()
        return json.dumps(header).encode() + b"\n" + bad
    if how == "undecodable header":
        return b"\xff" + data
    if how == "header not an object":
        return b"[3]\n" + body
    return b"format 3, n 1\n" + body  # a header that is not JSON


@pytest.mark.parametrize("how", ["undecodable body", "undecodable signed body",
                                 "undecodable header", "header not JSON",
                                 "header not an object"])
def test_undecodable_or_unparsable_entry_is_corrupt_and_heals(tmp_path, capsys,
                                                              how):
    d = str(tmp_path)
    args = ("--n", "1", "--L", "20", "--cache-dir", d)
    cold = _coeffs(capsys, *args)
    good = open(_entry_path(d), "rb").read()
    open(_entry_path(d), "wb").write(_damaged(good, how))
    with pytest.raises(CacheCorrupt):
        cache_load((1, "precurrence"), d)
    assert _coeffs(capsys, *args) == cold
    assert open(_entry_path(d), "rb").read() == good


def _write_format_2_entry(path, n, engine, values):
    """An entry as format 2 wrote it: an indented JSON document signed by
    the sha256 of a sorted, compact dump of its other fields."""
    doc = {"format_version": 2, "n": n, "engine": engine,
           "upto": len(values), "values": values}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["sha256"] = hashlib.sha256(blob.encode("ascii")).hexdigest()
    open(path, "w").write(json.dumps(doc, indent=1) + "\n")


def test_format_2_entries_are_ignored(tmp_path, capsys):
    d = str(tmp_path / "cache")
    os.makedirs(d)
    values = [str(v) for v in kappa_values(2, 80)]
    values[50] = str(int(values[50]) + 1)  # would show, were it read
    old = {}
    for tag in metallic.ENGINE_TAGS:
        old[tag] = os.path.join(d, f"coeffs-n2-{tag}.json")
        _write_format_2_entry(old[tag], 2, tag, values)
    before = {tag: open(p, "rb").read() for tag, p in old.items()}
    for engine in ("conv", "prec", "sqrt", "closed"):
        args = ("--n", "2", "--L", "60", "--engine", engine)
        fresh = _coeffs(capsys, *args, "--cache-dir", str(tmp_path / engine))
        assert _coeffs(capsys, *args, "--cache-dir", d) == fresh
    assert cli.main(["verify", "--n", "2", "--L", "60", "--cache-dir", d]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["cache_integrity"] == {"name": "cache_integrity", "ok": True,
                                         "detail": {"corrupt": []}}
    assert {tag: open(p, "rb").read() for tag, p in old.items()} == before


def test_loaded_table_holds_text_until_ints_are_asked_for(tmp_path):
    d = str(tmp_path)
    cache_store((3, "precurrence"), coeffs_p_recurrence(3, 40), d)
    t = cache_load((3, "precurrence"), d)
    assert t._values is None
    assert t._body == _read_entry(_entry_path(d, 3))[1]
    assert t.text == tuple(str(v) for v in kappa_values(3, 40))
    assert t.values == tuple(kappa_values(3, 40))


@pytest.mark.parametrize("how", [
    "a sign inside a line", "two signs", "a lone sign",
    "first line", "signed first line", "first line with a sign inside",
    "last line", "last line with a sign inside", "no trailing newline",
    "only a newline", "an empty last line", "a leading zero on the last line",
])
def test_non_canonical_body_is_corrupt_and_heals(tmp_path, capsys, how):
    # faults that the line-by-line structure of the check could let
    # through, signed as a careful tamperer would; int() refuses most
    d = str(tmp_path)
    args = ("--n", "1", "--L", "20", "--cache-dir", d)
    cold = _coeffs(capsys, *args)
    good = open(_entry_path(d), "rb").read()
    _, body = _read_entry(_entry_path(d))
    lines = body.split(b"\n")[:-1]
    last = lines[-1]  # kappa_19 of phi_1, positive
    bad = {
        "a sign inside a line": lines[:8] + [b"1-2"] + lines[9:],
        "two signs": lines[:8] + [b"--" + lines[8].lstrip(b"-")] + lines[9:],
        "a lone sign": lines[:8] + [b"-"] + lines[9:],
        "first line": [b"01"] + lines[1:],
        "signed first line": [b"-0"] + lines[1:],
        "first line with a sign inside": [b"1-"] + lines[1:],
        "last line": lines[:-1] + [b"0" + last],
        "last line with a sign inside": lines[:-1] + [last[:1] + b"-" + last[1:]],
        "an empty last line": lines + [b""],
        "a leading zero on the last line": lines[:-1] + [b"00"],
    }.get(how)
    if how == "no trailing newline":
        new = body[:-1]
    elif how == "only a newline":
        new = b"\n"
    else:
        new = b"".join(line + b"\n" for line in bad)
    assert cache._CANONICAL_LINES.fullmatch(new) is None
    _rewrite_body(_entry_path(d), new)
    with pytest.raises(CacheCorrupt, match="canonical"):
        cache_load((1, "precurrence"), d)
    assert _coeffs(capsys, *args) == cold
    assert open(_entry_path(d), "rb").read() == good


def test_canonical_check_agrees_with_the_format_regex():
    # the regex defines the format; the check must decide every body alike.
    # Short bodies over digits, signs, newlines and two foreign bytes,
    # half of them random and half canonical lines with one edit
    rng = random.Random(2028)
    alphabet = b"0123456789-\n\n\n\n--00 \xff"
    spread = bytes.maketrans(bytes(range(256)),
                             bytes(alphabet[b % len(alphabet)]
                                   for b in range(256)))
    lines = [b"0", b"1", b"-1", b"10", b"-20", b"7", b"305"]
    verdicts = {True: 0, False: 0}
    for case in range(100_000):
        if case % 2:
            body = rng.randbytes(rng.randrange(12)).translate(spread)
        else:
            body = b"".join(rng.choice(lines) + b"\n"
                            for _ in range(rng.randrange(5)))
            at = rng.randrange(len(body) + 1)
            edit = bytes([rng.choice(alphabet)])
            body = rng.choice((body[:at] + edit + body[at:],
                               body[:at] + edit + body[at + 1:],
                               body[:at] + body[at + 1:], body))
        canonical = cache._CANONICAL_LINES.fullmatch(body) is not None
        assert cache._canonical_line_count(body) == (
            body.count(b"\n") if canonical else None), body
        verdicts[canonical] += 1
    assert min(verdicts.values()) > 20_000


def test_tables_past_the_int_str_digit_limit_round_trip(tmp_path):
    # loaded text and stored ints convert through Decimal, which has no
    # int/str digit limit; the limit is lowered so that a short table
    # passes it
    d = str(tmp_path)
    ints = tuple(kappa_values(1, 1600))
    text = tuple(map(str, ints))
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert len(text[-1]) > 640
        with pytest.raises(ValueError):
            int(text[-1])
        cache_store((1, "precurrence"), coeffs_p_recurrence(1, 1600), d)
        t = cache_load((1, "precurrence"), d)
        assert t.values == ints and t.text == text
        assert t[1599] == ints[-1]
        assert t.to_series().coefficients(0, 1600) == list(ints)
        assert coeffs_p_recurrence(1, 1600).text == text
        warm = cached_table(1, 1600, "precurrence", d)
        assert warm.values == ints and warm.truncate(1000).text == text[:1000]
    finally:
        sys.set_int_max_str_digits(saved)


def test_body_is_the_entry_and_derives_every_form(tmp_path):
    d = str(tmp_path)
    ints = tuple(kappa_values(2, 50))
    from_ints = coeffs_p_recurrence(2, 50)
    want = "".join(f"{v}\n" for v in ints).encode()
    assert from_ints.body == want
    cache_store((2, "precurrence"), from_ints, d)
    assert _read_entry(_entry_path(d, 2))[1] == want
    loaded = cache_load((2, "precurrence"), d)
    for upto in (0, 1, 2, 5, 6, 49):
        cut = loaded.truncate(upto)
        assert cut._values is None
        assert cut.body == b"".join(line + b"\n"
                                    for line in want.split(b"\n")[:upto])
        assert cut.values == ints[:upto] and cut.upto == upto
    with pytest.raises(metallic.BadTable):
        loaded.truncate(51)
    with pytest.raises(metallic.BadTable):
        metallic.CoeffTable(2, 6, None, "precurrence",
                            body=b"1\n1\n0\n1\n2\n")


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_warm_coeffs_equal_cold_byte_for_byte(tmp_path, capsys, monkeypatch,
                                              n, fmt):
    lengths = (0, 1, n, 30)
    cold = {}
    for L in lengths:
        d = str(tmp_path / f"cold{L}")
        cold[L] = _coeffs(capsys, "--n", str(n), "--L", str(L),
                          "--format", fmt, "--cache-dir", d)
        assert os.path.exists(_entry_path(d, n))
    longer = str(tmp_path / "longer")
    _coeffs(capsys, "--n", str(n), "--L", "45", "--cache-dir", longer)

    def refuse(*args):
        raise AssertionError(f"an engine ran on a cache hit: {args}")

    monkeypatch.setattr(cache, "table_engine", refuse)
    monkeypatch.setattr(cache, "kappa_text", refuse)
    for L in lengths:
        for d in (str(tmp_path / f"cold{L}"), longer):  # exact, then cut
            warm = _coeffs(capsys, "--n", str(n), "--L", str(L),
                           "--format", fmt, "--cache-dir", d)
            assert warm == cold[L], (L, d)
    assert cache_load((n, "precurrence"), longer).upto == 45


# -- what verify reads and writes ----------------------------------------------------


def _verify(capsys, n, d, L=60):
    code = cli.main(["verify", "--n", str(n), "--L", str(L), "--cache-dir", d])
    out = capsys.readouterr()
    return code, out.out, out.err


def _checks(out):
    return {c["name"]: c for c in json.loads(out)["checks"]}


def _patch_everywhere(monkeypatch, name, fn):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qmetallic") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, fn)


def test_verify_reports_a_corrupt_entry_it_does_not_write(tmp_path, capsys):
    d = str(tmp_path)
    assert _verify(capsys, 2, d)[0] == 0
    p = _entry_path(d, 2, "closedform")
    open(p, "wb").write(b"not an entry\n")
    with pytest.raises(CacheCorrupt) as exc:
        cache_load((2, "closedform"), d)
    code, out, err = _verify(capsys, 2, d)
    checks = _checks(out)
    assert code == 1 and err == "verify: first failing check: cache_integrity\n"
    assert [c["name"] for c in checks.values() if not c["ok"]] == [
        "cache_integrity"]
    assert checks["cache_integrity"]["detail"] == {"corrupt": [str(exc.value)]}
    assert open(p, "rb").read() == b"not an entry\n"


def test_verify_replaces_a_corrupt_entry_it_writes(tmp_path, capsys):
    fresh, d = str(tmp_path / "fresh"), str(tmp_path / "warm")
    cache_store((2, "conv"), metallic.coeffs_convolution(2, 60), fresh)
    assert _verify(capsys, 2, d)[0] == 0
    p = _entry_path(d, 2, "conv")
    open(p, "wb").write(b"not an entry\n")
    code, out, _ = _verify(capsys, 2, d)
    assert code == 0
    assert _checks(out)["cache_integrity"]["detail"] == {"corrupt": []}
    assert open(p, "rb").read() == open(_entry_path(fresh, 2, "conv"),
                                        "rb").read()


def test_verify_reads_back_what_it_writes(tmp_path, capsys, monkeypatch):
    d = str(tmp_path)
    store = cache.cache_store

    def broken(key, table, cache_dir=None):
        path = store(key, table, cache_dir)
        open(path, "ab").write(b"1\n")  # the hash no longer matches
        return path

    _patch_everywhere(monkeypatch, "cache_store", broken)
    code, out, err = _verify(capsys, 1, d)
    assert code == 1 and err == "verify: first failing check: cache_integrity\n"
    corrupt = _checks(out)["cache_integrity"]["detail"]["corrupt"]
    assert corrupt == [f"{_entry_path(d, 1, tag)}: sha256 mismatch"
                       for tag in ("conv", "precurrence", "sqrt")]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_warm_verify_equals_cold_byte_for_byte(tmp_path, capsys, n):
    d = str(tmp_path)
    cold = _verify(capsys, n, d)
    assert cold[0] == 0
    assert _verify(capsys, n, d) == cold


def test_verify_reads_each_entry_once(tmp_path, capsys, monkeypatch):
    d = str(tmp_path)
    loads, stores = [], []
    load, store = cache.cache_load, cache.cache_store

    def load_spy(key, cache_dir=None):
        loads.append(key)
        return load(key, cache_dir)

    def store_spy(key, table, cache_dir=None):
        stores.append(key)
        return store(key, table, cache_dir)

    _patch_everywhere(monkeypatch, "cache_load", load_spy)
    _patch_everywhere(monkeypatch, "cache_store", store_spy)
    assert _verify(capsys, 1, d)[0] == 0
    # cold: four misses, then a read-back of each of the three stores
    assert len(loads) == 7 and sorted(loads) == sorted(
        [(1, tag) for tag in metallic.ENGINE_TAGS]
        + [(1, "conv"), (1, "precurrence"), (1, "sqrt")])
    assert stores == [(1, "conv"), (1, "precurrence"), (1, "sqrt")]
    del loads[:], stores[:]
    assert _verify(capsys, 1, d)[0] == 0
    assert loads == [(1, tag) for tag in metallic.ENGINE_TAGS]
    assert stores == []
