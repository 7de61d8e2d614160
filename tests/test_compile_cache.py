"""Tests for the in-process compile cache (repro.parallel.cache)."""

import threading
import time

import pytest

import repro.pipeline
from repro.parallel.cache import (
    cached_compile,
    compile_cache_stats,
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
def fresh_cache():
    """Isolate each test: an empty cache with zeroed counters."""
    reset_compile_cache()
    yield
    reset_compile_cache()


def test_fingerprint_is_stable_and_content_sensitive():
    """The cache key is the request's content: an equal source text
    built afresh hits the cached program, while another source text or
    another source name compiles anew."""
    base = cached_compile(SOURCE, "a.c", 0)
    rebuilt = "".join(list(SOURCE))
    assert rebuilt is not SOURCE
    assert cached_compile(rebuilt, "a.c", 0) is base
    other_text = cached_compile(OTHER_SOURCE, "a.c", 0)
    other_name = cached_compile(SOURCE, "b.c", 0)
    assert other_text is not base
    assert other_name is not base
    assert other_text is not other_name
    assert other_name.source_name == "b.c"
    stats = compile_cache_stats()
    assert (stats.misses, stats.hits) == (3, 1)


def test_memory_layer_returns_same_object():
    first = cached_compile(SOURCE, "a.c")
    second = cached_compile(SOURCE, "a.c")
    assert first is second
    stats = compile_cache_stats()
    assert stats.misses == 1
    assert stats.hits == 1
    assert stats.lookups == 2


def test_distinct_opt_levels_compile_separately():
    base = cached_compile(SOURCE, "a.c", 0)
    opt = cached_compile(SOURCE, "a.c", 1)
    assert base is not opt
    assert compile_cache_stats().misses == 2
    assert cached_compile(SOURCE, "a.c", 0) is base


def test_cached_result_matches_direct_compile():
    cached = cached_compile(SOURCE, "a.c")
    direct = compile_program(SOURCE, "a.c")
    assert cached.to_image() == direct.to_image()
    assert cached.source_name == direct.source_name


def test_pipeline_wrapper_uses_cache():
    first = compile_program_cached(SOURCE, "a.c")
    second = compile_program_cached(SOURCE, "a.c")
    assert first is second


def test_concurrent_lookups_of_one_key_compile_once(monkeypatch):
    """Single flight: threads released together on one key run the
    compiler once; the rest wait for it and count as hits."""
    threads = 8
    calls = []

    def slow_compile(*args):
        calls.append(args)
        # Hold the compile open long enough for every thread to look
        # the key up while it is in flight.
        time.sleep(0.2)
        return compile_program(*args)

    monkeypatch.setattr(repro.pipeline, "compile_program", slow_compile)
    barrier = threading.Barrier(threads)
    programs = [None] * threads

    def lookup(slot):
        barrier.wait(timeout=30)
        programs[slot] = cached_compile(SOURCE, "a.c")

    workers = [
        threading.Thread(target=lookup, args=(slot,)) for slot in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive()

    assert len(calls) == 1
    stats = compile_cache_stats()
    assert (stats.misses, stats.hits) == (1, threads - 1)
    assert programs[0] is not None
    assert all(program is programs[0] for program in programs)
