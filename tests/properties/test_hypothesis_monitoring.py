"""Property-based guarantees for the column slowdown detector.

``slowdown_alerts`` reads a round's machine-sorted sojourn column and
per-machine job counts, and runs the scalar CUSUM only on machines with
a positive standardised excess.  The oracle below is the per-machine
loop it replaced: one array, one divide and one ``np.any`` per machine,
``None`` for a withheld report.  Both must name the same machines in
the same order on every round.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.monitoring import CusumSlowdownDetector, slowdown_alerts


def per_machine_alerts(names, declared, loads, sojourns, *, threshold, slack):
    """The per-machine detection loop: the reference for the column one."""
    alerts = []
    for name, bid, load, observed in zip(names, declared, loads, sojourns):
        if load <= 0.0 or observed is None or len(observed) == 0:
            continue
        bid, load = float(bid), float(load)
        observed = np.asarray(observed, dtype=np.float64)
        if not np.any(observed / (bid * load) - 1.0 - slack > 0.0):
            continue
        detector = CusumSlowdownDetector(bid, load, threshold=threshold, slack=slack)
        if detector.observe_many(observed) is not None:
            alerts.append(name)
    return alerts


# Sojourn shapes, as multiples of the machine's in-control mean ``b x``.
# ``big`` is far enough above ``1 + slack`` to cross the threshold in
# one job; ``creep`` has a small positive excess that fires only once
# enough jobs add up; ``nudge`` has one small excess that never fires.
def _big(slack, threshold):
    return 2.0 + slack + threshold


PATTERNS = {
    "honest": lambda count, slack, threshold: [0.5] * count,
    "slow": lambda count, slack, threshold: [3.0] * count,
    "creep": lambda count, slack, threshold: [1.3 + slack] * count,
    "cross-first": lambda count, slack, threshold: (
        [_big(slack, threshold)] + [0.1] * (count - 1)
    ),
    "cross-last": lambda count, slack, threshold: (
        [0.1] * (count - 1) + [_big(slack, threshold)]
    ),
    "cross-twice": lambda count, slack, threshold: (
        [_big(slack, threshold), 0.0] * (count // 2)
        + [_big(slack, threshold)] * (count % 2)
    ),
    "nudge": lambda count, slack, threshold: [0.1] * (count - 1) + [1.2 + slack],
}


@st.composite
def rounds(draw):
    """One round: per-machine bids, loads, sojourn lists (or ``None``)."""
    n = draw(st.integers(1, 8))
    slack = draw(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 1.0))
    threshold = draw(st.floats(0.5, 10.0))
    declared, loads, observed = [], [], []
    for _ in range(n):
        bid = draw(st.floats(0.25, 4.0))
        load = draw(st.sampled_from([0.0]) | st.floats(0.05, 3.0))
        count = draw(st.integers(0, 12))
        pattern = draw(st.sampled_from([*sorted(PATTERNS), "random"]))
        if pattern == "random":
            factors = draw(
                st.lists(st.floats(0.0, 6.0), min_size=count, max_size=count)
            )
        else:
            factors = PATTERNS[pattern](count, slack, threshold)
        withheld = draw(st.booleans()) and draw(st.booleans())
        declared.append(bid)
        loads.append(load)
        mean = bid * load if load > 0.0 else 1.0
        observed.append(None if withheld else [mean * f for f in factors])
    return declared, loads, observed, threshold, slack


def column(observed):
    """The machine-sorted column and counts; a withheld machine counts 0."""
    counts = [0 if sojourns is None else len(sojourns) for sojourns in observed]
    flat = [s for sojourns in observed if sojourns is not None for s in sojourns]
    return np.array(flat, dtype=np.float64), counts


def assert_same_alerts(declared, loads, observed, threshold, slack):
    names = [f"C{k + 1}" for k in range(len(declared))]
    want = per_machine_alerts(
        names, declared, loads, observed, threshold=threshold, slack=slack
    )
    sojourns, counts = column(observed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = slowdown_alerts(
            names, declared, loads, sojourns, counts, threshold=threshold, slack=slack
        )
    assert got == want
    return got


class TestColumnDetector:
    @settings(max_examples=300, deadline=None)
    @given(drawn=rounds())
    def test_column_equals_per_machine_detectors(self, drawn):
        assert_same_alerts(*drawn)

    @pytest.mark.parametrize(
        "pattern, fires",
        [
            ("honest", False),
            ("slow", True),
            ("cross-first", True),
            ("cross-last", True),
            ("cross-twice", True),
            ("creep", True),
            ("nudge", False),
        ],
    )
    @pytest.mark.parametrize("slack", [0.0, 0.5])
    def test_each_pattern_between_quiet_neighbours(self, pattern, fires, slack):
        # The pattern's machine sits between an honest one and a zero-load
        # one, after a withheld one, so its slice starts and ends inside
        # the column.
        threshold = 2.0
        factors = PATTERNS[pattern](9, slack, threshold)
        observed = [None, [0.5] * 5, [2.0 * 0.5 * f for f in factors], [3.0] * 4]
        declared, loads = [1.0, 1.0, 2.0, 1.0], [1.0, 1.0, 0.5, 0.0]
        got = assert_same_alerts(declared, loads, observed, threshold, slack)
        assert got == (["C3"] if fires else [])

    def test_no_jobs_at_all(self):
        assert assert_same_alerts([1.0, 2.0], [1.0, 0.0], [None, []], 5.0, 0.5) == []
