"""Histograms and snapshot merging: the daemon's aggregation algebra.

The daemon folds each finished session's registry snapshot into its
own long-lived registry, and the sharded campaign engine does the same
with worker snapshots — so ``merge_snapshot`` must behave like a
proper monoid fold: associative, order-insensitive for accumulating
kinds, and safe under concurrent session completion.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import Histogram, MetricsRegistry, exponential_bounds

# Exact binary fractions: their float sums are exact, so merged
# histogram sums compare equal in any fold order.
EXACT_SECONDS = st.sampled_from([0.0, 0.015625, 0.25, 0.5, 1.0, 2.5])

SNAPSHOTS = st.builds(
    lambda counters, gauges, histograms: _make_snapshot(
        counters, gauges, histograms
    ),
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]), st.integers(0, 1000), max_size=3
    ),
    st.dictionaries(
        st.sampled_from(["g1", "g2"]), st.integers(0, 50), max_size=2
    ),
    st.dictionaries(
        st.sampled_from(["h1", "h2"]),
        st.lists(EXACT_SECONDS, min_size=1, max_size=5),
        max_size=2,
    ),
)


def _make_snapshot(counters, gauges, histograms):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.increment(name, value)
    for name, value in gauges.items():
        registry.set_gauge(name, value)
    for name, samples in histograms.items():
        for sample in samples:
            registry.observe_histogram(name, sample)
    return registry.snapshot()


# ----------------------------------------------------------------------
# Histogram unit behaviour
# ----------------------------------------------------------------------


def test_histogram_observe_buckets_and_overflow():
    histogram = Histogram("h", bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        histogram.observe(value)
    assert histogram.counts == [1, 1, 2]  # final slot is overflow
    assert histogram.count == 4
    assert histogram.sum == 555.5
    assert histogram.cumulative_buckets() == [
        (1.0, 1), (10.0, 2), (float("inf"), 4),
    ]


def test_histogram_default_ladder_covers_both_unit_families():
    bounds = exponential_bounds()
    assert bounds[0] == pytest.approx(1e-6)
    assert bounds[-1] > 1e6  # covers steps/s as well as seconds


def test_histogram_merge_rejects_differing_bounds():
    histogram = Histogram("h", bounds=(1.0, 2.0))
    with pytest.raises(ValueError, match="differing bucket bounds"):
        histogram.merge(Histogram("h", bounds=(1.0,)).to_dict())
    with pytest.raises(ValueError, match="malformed"):
        histogram.merge({"bounds": [1.0, 2.0], "counts": [1]})


def test_registry_histogram_snapshot_key_is_always_present():
    registry = MetricsRegistry()
    assert registry.snapshot()["histograms"] == {}
    registry.observe_histogram("h", 0.5)
    snapshot = registry.snapshot()
    assert snapshot["histograms"]["h"]["count"] == 1
    # merging restores an identical distribution, bounds included
    merged = MetricsRegistry()
    merged.merge_snapshot(snapshot)
    assert merged.snapshot()["histograms"] == snapshot["histograms"]


# ----------------------------------------------------------------------
# Merge algebra (property-tested)
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(snapshots=st.lists(SNAPSHOTS, min_size=2, max_size=4))
def test_merge_snapshot_is_associative(snapshots):
    # Fold everything left-to-right into one registry ...
    flat = MetricsRegistry()
    for snapshot in snapshots:
        flat.merge_snapshot(snapshot)
    # ... versus pre-merging the tail into an intermediate registry
    # (the daemon-under-a-daemon / shard-of-shards shape).
    nested = MetricsRegistry()
    nested.merge_snapshot(snapshots[0])
    intermediate = MetricsRegistry()
    for snapshot in snapshots[1:]:
        intermediate.merge_snapshot(snapshot)
    nested.merge_snapshot(intermediate.snapshot())
    assert flat.snapshot() == nested.snapshot()


@settings(max_examples=40, deadline=None)
@given(snapshots=st.lists(SNAPSHOTS, min_size=1, max_size=4))
def test_merge_order_never_changes_accumulating_kinds(snapshots):
    forward = MetricsRegistry()
    for snapshot in snapshots:
        forward.merge_snapshot(snapshot)
    backward = MetricsRegistry()
    for snapshot in reversed(snapshots):
        backward.merge_snapshot(snapshot)
    left, right = forward.snapshot(), backward.snapshot()
    # Gauges are point-in-time (latest writer wins) so they may differ;
    # every accumulating kind must not.
    for kind in ("counters", "histograms"):
        assert left[kind] == right[kind]


def test_merge_snapshot_under_concurrent_daemon_sessions():
    """N worker threads finish sessions concurrently; the daemon folds
    each session registry on completion.  Totals must equal the serial
    sum regardless of completion interleaving."""
    daemon = MetricsRegistry()
    lock = threading.Lock()  # the daemon's loop-thread serialization
    sessions, samples_each = 8, 25

    def one_session(index):
        session = MetricsRegistry()
        for sample in range(samples_each):
            session.increment("serve.completed")
            session.observe_histogram("session", 0.25 * sample)
            session.observe_histogram("serve.queue_wait", 0.5)
        with lock:
            daemon.merge_snapshot(session.snapshot())

    threads = [
        threading.Thread(target=one_session, args=(i,))
        for i in range(sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = sessions * samples_each
    assert daemon.value("serve.completed") == total
    wall = daemon.histogram("session")
    assert wall.count == total
    assert wall.sum == pytest.approx(sessions * 0.25 * sum(range(samples_each)))
    queue = daemon.histogram("serve.queue_wait")
    assert queue.count == total
    assert queue.cumulative_buckets()[-1] == (float("inf"), total)
