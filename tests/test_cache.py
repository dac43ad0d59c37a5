"""Unit tests for the on-disk coefficient cache and run manifests."""

import hashlib
import json
import os

import pytest

from qmetallic import cache, cli, metallic
from qmetallic.cache import (
    ARTIFACT_VERSION,
    ENV_CACHE_DIR,
    FORMAT_VERSION,
    RunManifest,
    atomic_write_text,
    cache_directory,
    cache_load,
    cache_store,
    cached_table,
    file_sha256,
)
from qmetallic.errors import CacheCorrupt
from qmetallic.metallic import _p_extend, coeffs_p_recurrence, kappa_values


def _entry_path(tmp, n=1, engine="precurrence"):
    return os.path.join(tmp, f"coeffs-n{n}-{engine}.json")


def test_store_load_round_trip(tmp_path):
    d = str(tmp_path)
    table = coeffs_p_recurrence(2, 30)
    cache_store((2, "precurrence"), table, d)
    back = cache_load((2, "precurrence"), d)
    assert back.n == 2 and back.upto == 30
    assert tuple(back.values) == tuple(table.values)
    assert back.engine == "precurrence"


def test_load_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        cache_load((1, "conv"), str(tmp_path))


def test_tampered_value_detected(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    doc = json.load(open(p))
    doc["values"][5] = "12345"
    open(p, "w").write(json.dumps(doc))
    with pytest.raises(CacheCorrupt):
        cache_load((1, "precurrence"), d)


def test_version_gate(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    doc = json.load(open(p))
    doc["format_version"] = FORMAT_VERSION + 1
    open(p, "w").write(json.dumps(doc))
    with pytest.raises(CacheCorrupt):
        cache_load((1, "precurrence"), d)


def test_truncated_json_detected(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    open(p, "w").write(open(p).read()[:40])
    with pytest.raises(CacheCorrupt):
        cache_load((1, "precurrence"), d)


def test_missing_key_detected(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    doc = json.load(open(p))
    del doc["upto"]
    open(p, "w").write(json.dumps(doc))
    with pytest.raises(CacheCorrupt):
        cache_load((1, "precurrence"), d)


def test_cached_table_cold_then_warm(tmp_path):
    d = str(tmp_path)
    t1 = cached_table(3, 40, "precurrence", d)
    assert os.path.exists(_entry_path(d, 3))
    t2 = cached_table(3, 40, "precurrence", d)
    assert tuple(t1.values) == tuple(t2.values) == tuple(kappa_values(3, 40))


def test_null_upto_is_corrupt_and_heals(tmp_path):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 20), d)
    p = _entry_path(d)
    doc = json.load(open(p))
    doc["upto"] = None
    doc["sha256"] = cache._payload_hash(
        {k: v for k, v in doc.items() if k != "sha256"})
    open(p, "w").write(json.dumps(doc))
    with pytest.raises(CacheCorrupt):
        cache_load((1, "precurrence"), d)
    assert list(cached_table(1, 20, "precurrence", d).values) == kappa_values(1, 20)
    assert cache_load((1, "precurrence"), d).upto == 20


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
    doc = json.load(open(_entry_path(d)))
    assert doc["upto"] == 120


def test_cached_table_truncates_without_losing_cache(tmp_path):
    d = str(tmp_path)
    cached_table(1, 100, "precurrence", d)
    t = cached_table(1, 25, "precurrence", d)
    assert len(t.values) == 25
    doc = json.load(open(_entry_path(d)))
    assert doc["upto"] == 100          # longer table kept on disk


def test_cached_table_heals_corruption(tmp_path):
    d = str(tmp_path)
    cached_table(2, 30, "precurrence", d)
    p = _entry_path(d, 2)
    doc = json.load(open(p))
    doc["values"][3] = "999"
    open(p, "w").write(json.dumps(doc))
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
    atomic_write_text(p, "payload")
    assert open(p).read() == "payload"
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


def _rewrite_values(path, values):
    """Replace the cached values and re-sign the payload, as a careful
    tamperer would."""
    doc = json.load(open(path))
    doc["values"] = values
    doc["sha256"] = cache._payload_hash(
        {k: v for k, v in doc.items() if k != "sha256"})
    open(path, "w").write(json.dumps(doc, indent=1) + "\n")


def _coeffs(capsys, *argv):
    assert cli.main(["coeffs", *argv]) == 0
    return capsys.readouterr().out


def test_cache_file_bytes_are_pinned(tmp_path):
    # existing caches stay valid only while the bytes written stay the same
    cached_table(2, 30, "precurrence", str(tmp_path))
    assert file_sha256(_entry_path(str(tmp_path), 2)) == (
        "2e3a0e6d20f165efc8946c28694dbce93b508adf51d4e0e6f4bb00c2d420d29d")


@pytest.mark.parametrize("index, text", [
    (8, "037"), (8, "+37"), (8, " 37"), (8, "3_7"), (8, "٣٧"),
    (1, "-0"),
])
def test_non_canonical_decimal_text_is_corrupt(tmp_path, capsys, index, text):
    # int() takes each of these, so only the canonical-text check sees them
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


@pytest.mark.parametrize("values", ["1101", {"0": "1"}, [1, 1, 0], None])
def test_values_must_be_a_list_of_strings(tmp_path, values):
    d = str(tmp_path)
    cache_store((1, "precurrence"), coeffs_p_recurrence(1, 4), d)
    _rewrite_values(_entry_path(d), values)
    with pytest.raises(CacheCorrupt):
        cache_load((1, "precurrence"), d)


def test_loaded_table_holds_text_until_ints_are_asked_for(tmp_path):
    d = str(tmp_path)
    cache_store((3, "precurrence"), coeffs_p_recurrence(3, 40), d)
    t = cache_load((3, "precurrence"), d)
    assert t._values is None
    assert t.text == tuple(str(v) for v in kappa_values(3, 40))
    assert t.values == tuple(kappa_values(3, 40))


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

    def refuse(tag):
        raise AssertionError(f"engine {tag!r} ran on a cache hit")

    monkeypatch.setattr(cache, "table_engine", refuse)
    for L in lengths:
        for d in (str(tmp_path / f"cold{L}"), longer):  # exact, then cut
            warm = _coeffs(capsys, "--n", str(n), "--L", str(L),
                           "--format", fmt, "--cache-dir", d)
            assert warm == cold[L], (L, d)
    assert json.load(open(_entry_path(longer, n)))["upto"] == 45
