"""Byte-identity gate for the list schedulers.

Every schedule of the golden corpus (:mod:`tests.golden_schedules`) must
reproduce the digests pinned in ``tests/data/schedule_digests.json``: the
same hosts, the same start/finish floats and the same analytic op count.
A kernel optimisation that changes any of them fails here, with the index
of the first schedule that moved.
"""

from __future__ import annotations

import pytest

from tests import golden_schedules

PINNED = golden_schedules.load()


def test_every_group_is_pinned():
    assert list(PINNED) == list(golden_schedules.GROUPS)


@pytest.mark.parametrize("group", list(golden_schedules.GROUPS))
def test_schedules_match_pinned_digests(group):
    digests = golden_schedules.GROUPS[group]()
    pinned = PINNED[group]
    got = golden_schedules.summarise(digests)
    first_diff = next(
        (i for i, (a, b) in enumerate(zip(got["prefixes"], pinned["prefixes"])) if a != b),
        None,
    )
    assert got["count"] == pinned["count"], f"{group}: schedule count changed"
    assert first_diff is None, f"{group}: schedule #{first_diff} differs"
    assert got["sha256"] == pinned["sha256"]
