"""Tests for resource binding and selection under load."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources.binding import Binder, BindingError, sample_busy_hosts
from repro.selection.vgdl import VgES


def test_bind_and_release(small_platform):
    b = Binder(small_platform)
    ids = b.bind(np.array([0, 1, 2]))
    assert list(ids) == [0, 1, 2]
    assert b.is_bound(1)
    b.release(np.array([1]))
    assert not b.is_bound(1)
    assert b.is_bound(2)
    b.release_all()
    assert b.bound_hosts == set()


def test_double_bind_refused(small_platform):
    b = Binder(small_platform)
    b.bind(np.array([5]))
    with pytest.raises(BindingError):
        b.bind(np.array([4, 5]))
    # Atomicity: host 4 must not have been bound by the failed request.
    assert not b.is_bound(4)


def test_bind_validates_request(small_platform):
    b = Binder(small_platform)
    with pytest.raises(BindingError):
        b.bind(np.array([], dtype=int))
    with pytest.raises(BindingError):
        b.bind(np.array([3, 3]))
    with pytest.raises(BindingError):
        b.bind(np.array([10**9]))


def test_try_bind_success_and_conflict(small_platform):
    b = Binder(small_platform)
    assert b.try_bind(np.array([3, 1, 2])) == []
    assert b.bound_hosts == {1, 2, 3}
    # Conflicts come back sorted, and the request binds nothing at all.
    assert b.try_bind(np.array([5, 3, 1, 4])) == [1, 3]
    assert not b.is_bound(4) and not b.is_bound(5)


def test_try_bind_empty_is_noop_success(small_platform):
    # A zero-size gang port may legitimately request zero hosts: the
    # service path treats that as a successful no-op ...
    b = Binder(small_platform)
    assert b.try_bind(np.array([], dtype=int)) == []
    assert b.bound_hosts == set()


def test_bind_empty_still_raises(small_platform):
    # ... while the pipeline-layer `bind` keeps its historical contract:
    # a pipeline asking to bind nothing is a logic error worth surfacing.
    b = Binder(small_platform)
    with pytest.raises(BindingError, match="empty bind request"):
        b.bind(np.array([], dtype=int))


def test_try_bind_rejects_malformed(small_platform):
    b = Binder(small_platform)
    with pytest.raises(BindingError):
        b.try_bind(np.array([2, 2]))
    with pytest.raises(BindingError):
        b.try_bind(np.array([small_platform.n_hosts]))


def test_release_is_idempotent(small_platform):
    b = Binder(small_platform)
    b.bind(np.array([7]))
    b.release(np.array([7]))
    b.release(np.array([7]))  # no error
    assert not b.is_bound(7)


def test_sample_busy_hosts(small_platform, rng):
    busy = sample_busy_hosts(small_platform, 0.5, rng)
    frac = len(busy) / small_platform.n_hosts
    assert 0.3 < frac < 0.7
    assert sample_busy_hosts(small_platform, 0.0, rng) == set()
    with pytest.raises(ValueError):
        sample_busy_hosts(small_platform, 1.5, rng)


def test_vges_respects_unavailable(small_platform, rng):
    vges = VgES(small_platform)
    vg = vges.find_and_bind("V = LooseBagOf(n) [5:10] { n = [ Clock >= 1000 ] }")
    first = set(int(h) for h in vg.all_hosts())
    vges.unavailable = first
    vg2 = vges.find_and_bind("V = LooseBagOf(n) [5:10] { n = [ Clock >= 1000 ] }")
    assert vg2 is not None
    assert not (set(int(h) for h in vg2.all_hosts()) & first)


def test_vges_fails_when_everything_busy(small_platform):
    vges = VgES(small_platform, unavailable=set(range(small_platform.n_hosts)))
    assert vges.find_and_bind("V = LooseBagOf(n) [1:2] { n = [ Clock >= 1000 ] }") is None


def test_integrated_find_and_bind(small_platform):
    binder = Binder(small_platform)
    vges = VgES(small_platform)
    spec = "V = LooseBagOf(n) [5:10] { n = [ Clock >= 1000 ] }"
    vg1 = vges.find_and_bind_atomically(spec, binder)
    vg2 = vges.find_and_bind_atomically(spec, binder)
    assert vg1 is not None and vg2 is not None
    a = set(int(h) for h in vg1.all_hosts())
    b = set(int(h) for h in vg2.all_hosts())
    assert not a & b
    assert binder.bound_hosts == a | b
    # The engine's own unavailable set was restored.
    assert vges.unavailable == set()


# ----------------------------------------------------------------------
# Concurrency: the check-then-act race try_bind/bind must never lose
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    requests=st.lists(
        st.sets(st.integers(min_value=0, max_value=39), min_size=1, max_size=6),
        min_size=2,
        max_size=12,
    ),
    n_workers=st.integers(min_value=2, max_value=6),
)
def test_concurrent_try_bind_never_double_binds(small_platform, requests, n_workers):
    """Hammer one Binder from a thread pool; ownership stays exclusive.

    Each worker try_binds a host set and, on success, records itself as
    the owner of every host in it.  Without the internal lock the
    conflict scan and the update race, and two winners appear.
    """
    binder = Binder(small_platform)
    owners: dict[int, list[int]] = {}
    owners_lock = threading.Lock()
    # The pool runs the requests in rounds of n_workers; one barrier per
    # round, sized to it, makes every request of a round race the others.
    # A broken barrier fails the test instead of letting requests run
    # unsynchronised.
    barriers = [
        threading.Barrier(len(requests[i : i + n_workers]))
        for i in range(0, len(requests), n_workers)
    ]

    def worker(wid: int, hosts: set[int]) -> None:
        barriers[wid // n_workers].wait(timeout=5)
        if binder.try_bind(np.array(sorted(hosts))) == []:
            with owners_lock:
                for h in hosts:
                    owners.setdefault(h, []).append(wid)

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(worker, i, req) for i, req in enumerate(requests)]
        for f in futures:
            f.result()

    for host, who in owners.items():
        assert len(who) == 1, f"host {host} double-bound by workers {who}"
    assert binder.bound_hosts == set(owners)


def test_concurrent_bind_release_cycles_stay_consistent(small_platform):
    """bind/release churn from many threads leaves no phantom bindings."""
    binder = Binder(small_platform)
    errors: list[Exception] = []

    def churn_worker(hosts: np.ndarray) -> None:
        try:
            for _ in range(200):
                if binder.try_bind(hosts) == []:
                    assert all(binder.is_bound(int(h)) for h in hosts)
                    binder.release(hosts)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    # Two pairs fight over the same ranges; the fifth straddles both.
    ranges = [(0, 4), (4, 8), (0, 4), (4, 8), (2, 6)]
    threads = [
        threading.Thread(target=churn_worker, args=(np.arange(lo, hi),))
        for lo, hi in ranges
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert binder.bound_hosts == set()


def test_integrated_bind_exhaustion(small_platform):
    binder = Binder(small_platform)
    vges = VgES(small_platform)
    # Bind everything, then any request must fail cleanly.
    binder.bind(np.arange(small_platform.n_hosts))
    assert (
        vges.find_and_bind_atomically(
            "V = LooseBagOf(n) [1:2] { n = [ Clock >= 1000 ] }", binder
        )
        is None
    )
