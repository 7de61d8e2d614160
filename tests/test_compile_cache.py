"""Tests for the content-addressed compile cache (repro.parallel.cache)."""

import pickle

import pytest

from repro.parallel import cache as cache_mod
from repro.parallel.cache import (
    cache_dir,
    cached_compile,
    compile_cache_stats,
    compile_fingerprint,
    reset_compile_cache,
)
from repro.pipeline import compile_program, compile_program_cached

SOURCE = """
int flag;
void main() {
  flag = read_int();
  while (read_int()) {
    if (flag == 1) { emit(1); } else { emit(2); }
  }
}
"""

OTHER_SOURCE = SOURCE.replace("emit(2)", "emit(3)")


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Isolate each test: empty memory layer, disk layer off."""
    monkeypatch.delenv(cache_mod.CACHE_ENV, raising=False)
    reset_compile_cache()
    yield
    reset_compile_cache()


def test_fingerprint_is_stable_and_content_sensitive():
    key = compile_fingerprint(SOURCE, "a.c", 0)
    assert key == compile_fingerprint(SOURCE, "a.c", 0)
    assert key != compile_fingerprint(OTHER_SOURCE, "a.c", 0)
    assert key != compile_fingerprint(SOURCE, "b.c", 0)
    assert key != compile_fingerprint(SOURCE, "a.c", 1)
    assert len(key) == 64


def test_memory_layer_returns_same_object():
    first = cached_compile(SOURCE, "a.c")
    second = cached_compile(SOURCE, "a.c")
    assert first is second
    stats = compile_cache_stats()
    assert stats.misses == 1
    assert stats.memory_hits == 1
    assert stats.hits == 1
    assert stats.lookups == 2


def test_distinct_opt_levels_compile_separately():
    base = cached_compile(SOURCE, "a.c", 0)
    opt = cached_compile(SOURCE, "a.c", 1)
    assert base is not opt
    assert compile_cache_stats().misses == 2


def test_cached_result_matches_direct_compile():
    cached = cached_compile(SOURCE, "a.c")
    direct = compile_program(SOURCE, "a.c")
    assert cached.to_image() == direct.to_image()
    assert cached.source_name == direct.source_name


def test_pipeline_wrapper_uses_cache():
    first = compile_program_cached(SOURCE, "a.c")
    second = compile_program_cached(SOURCE, "a.c")
    assert first is second


def test_disk_layer_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
    original = cached_compile(SOURCE, "a.c")
    key = compile_fingerprint(SOURCE, "a.c", 0)
    assert (tmp_path / f"{key}.pkl").is_file()

    # A "new process": memory gone, disk still there.
    reset_compile_cache()
    reloaded = cached_compile(SOURCE, "a.c")
    stats = compile_cache_stats()
    assert stats.disk_hits == 1
    assert stats.misses == 0
    assert reloaded.to_image() == original.to_image()


def test_disk_layer_survives_corrupt_entry(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
    key = compile_fingerprint(SOURCE, "a.c", 0)
    (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
    program = cached_compile(SOURCE, "a.c")
    assert compile_cache_stats().misses == 1
    # The corrupt entry was overwritten with a good one.
    with open(tmp_path / f"{key}.pkl", "rb") as handle:
        assert pickle.load(handle).to_image() == program.to_image()


class _Foreign:
    """Unpickles by calling ``func(*args)``: an entry from some other
    program, or a stale entry whose classes moved."""

    def __init__(self, func, args):
        self.func, self.args = func, args

    def __reduce__(self):
        return self.func, self.args


@pytest.mark.parametrize(
    "payload",
    [
        pickle.dumps(_Foreign(int, ("not-a-number",))),
        pickle.dumps(_Foreign(int, ([],))),
        b"cno_such_module_for_the_cache_test\nthing\n.",
    ],
    ids=["ValueError", "TypeError", "ModuleNotFoundError"],
)
def test_disk_layer_survives_foreign_entry(tmp_path, monkeypatch, payload):
    """Whatever loading an entry raises, the compile recompiles, counts
    a miss and overwrites the entry."""
    monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
    key = compile_fingerprint(SOURCE, "a.c", 0)
    (tmp_path / f"{key}.pkl").write_bytes(payload)
    program = cached_compile(SOURCE, "a.c")
    assert compile_cache_stats().misses == 1
    with open(tmp_path / f"{key}.pkl", "rb") as handle:
        assert pickle.load(handle).to_image() == program.to_image()


def test_disk_layer_disabled_values(monkeypatch):
    for value in ("", "0", "off", "none", "OFF"):
        monkeypatch.setenv(cache_mod.CACHE_ENV, value)
        assert cache_dir() is None
    monkeypatch.delenv(cache_mod.CACHE_ENV)
    assert cache_dir() is None


def test_reset_clears_disk_when_asked(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.CACHE_ENV, str(tmp_path))
    cached_compile(SOURCE, "a.c")
    assert list(tmp_path.glob("*.pkl"))
    reset_compile_cache(disk=True)
    assert not list(tmp_path.glob("*.pkl"))


def test_unwritable_cache_dir_degrades_gracefully(tmp_path, monkeypatch):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(0o500)
    monkeypatch.setenv(cache_mod.CACHE_ENV, str(blocked / "sub"))
    try:
        program = cached_compile(SOURCE, "a.c")
        assert program is cached_compile(SOURCE, "a.c")
    finally:
        blocked.chmod(0o700)
