"""Property-based tests for the quarantine circuit breaker (hypothesis).

Three behavioural contracts of :class:`QuarantinePolicy`, exercised
over random outcome histories rather than hand-picked traces:

* re-admission is monotone in the reputation gate — lowering
  ``readmission_reputation`` never *delays* a machine's return;
* a tripped circuit never serves before its cool-down has elapsed, and
  re-enters exactly as a half-open probe on the first eligible round;
* repeated trips back off: quarantine lengths double (capped) and are
  non-decreasing until the circuit fully closes again.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.quarantine import CircuitState, QuarantinePolicy

# Random round outcomes for one machine: True = clean round.
histories = st.lists(st.booleans(), min_size=1, max_size=60)
gates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
trip_counts = st.integers(min_value=1, max_value=6)


def _tripped_policy(**kwargs) -> QuarantinePolicy:
    """A policy tracking machine ``m`` whose circuit has just tripped."""
    policy = QuarantinePolicy(**kwargs)
    policy.admit("m")
    for _ in range(policy.failure_threshold):
        policy.begin_round()
        policy.record_failure("m", "seed-trip")
    assert policy.state_of("m") is CircuitState.OPEN
    return policy


def _replay(policy: QuarantinePolicy, history: list[bool]) -> int | None:
    """Replay ``history`` against a tripped policy.

    Returns the step index at which the circuit first re-closed, or
    ``None`` if it never did.  Also asserts, at every step, that an
    OPEN circuit is never admitted — the safety half of the contract.
    """
    for index, clean in enumerate(history):
        was_open = policy.state_of("m") is CircuitState.OPEN
        admitted = policy.begin_round()
        if policy.state_of("m") is CircuitState.OPEN:
            assert "m" not in admitted
        if was_open and "m" in admitted:
            # The only legal way out of quarantine is a half-open probe.
            assert policy.state_of("m") is CircuitState.HALF_OPEN
        if "m" not in admitted:
            continue
        if clean:
            policy.record_success("m")
        else:
            policy.record_failure("m", "fault")
        if policy.state_of("m") is CircuitState.CLOSED:
            # Re-admission must have cleared the reputation gate.
            assert policy.health_of("m").reputation >= policy.readmission_reputation
            return index
    return None


class TestReadmissionMonotoneInReputation:
    @given(history=histories, gate_a=gates, gate_b=gates)
    @settings(max_examples=200, deadline=None)
    def test_lower_gate_never_readmits_later(self, history, gate_a, gate_b):
        low, high = sorted((gate_a, gate_b))
        close_low = _replay(
            _tripped_policy(readmission_reputation=low), list(history)
        )
        close_high = _replay(
            _tripped_policy(readmission_reputation=high), list(history)
        )
        # Until the looser policy closes, both evolve identically, so a
        # re-admission under the strict gate implies one (no later)
        # under the loose gate.
        if close_high is not None:
            assert close_low is not None
            assert close_low <= close_high

    @given(history=histories, gate=gates)
    @settings(max_examples=200, deadline=None)
    def test_readmission_implies_reputation_cleared(self, history, gate):
        # The gate itself: _replay asserts reputation >= gate at the
        # closing step; this test just drives it across random gates.
        _replay(_tripped_policy(readmission_reputation=gate), list(history))


class TestCooldownIsRespected:
    @given(
        cooldown=st.integers(min_value=1, max_value=8),
        threshold=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_open_circuit_never_serves_before_cooldown(
        self, cooldown, threshold
    ):
        policy = _tripped_policy(
            failure_threshold=threshold,
            cooldown_rounds=cooldown,
            max_cooldown_rounds=max(16, cooldown),
        )
        quarantine_length = policy.health_of("m").current_cooldown
        assert quarantine_length == cooldown
        # Absent for exactly cooldown-1 rounds ...
        for _ in range(quarantine_length - 1):
            assert "m" not in policy.begin_round()
            assert policy.state_of("m") is CircuitState.OPEN
        # ... then back as a probe, never straight to closed.
        assert "m" in policy.begin_round()
        assert policy.state_of("m") is CircuitState.HALF_OPEN

    @given(history=histories)
    @settings(max_examples=200, deadline=None)
    def test_admitted_and_quarantined_are_disjoint(self, history):
        policy = _tripped_policy()
        for clean in history:
            admitted = policy.begin_round()
            assert not set(admitted) & set(policy.quarantined())
            if "m" not in admitted:
                continue
            if clean:
                policy.record_success("m")
            else:
                policy.record_failure("m", "fault")


class TestRepeatedTripsBackOff:
    @given(
        trips=trip_counts,
        cooldown=st.integers(min_value=1, max_value=4),
        cap=st.integers(min_value=4, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_cooldown_doubles_and_caps(self, trips, cooldown, cap):
        policy = QuarantinePolicy(
            cooldown_rounds=cooldown, max_cooldown_rounds=max(cap, cooldown)
        )
        policy.admit("m")
        policy.force_open("m", "first-trip")
        cooldowns = [policy.health_of("m").current_cooldown]
        for _ in range(trips):
            # Serve the quarantine, then fail the probe to re-trip
            # without ever closing in between.
            while policy.state_of("m") is CircuitState.OPEN:
                policy.begin_round()
            assert policy.state_of("m") is CircuitState.HALF_OPEN
            policy.record_failure("m", "failed-probe")
            assert policy.state_of("m") is CircuitState.OPEN
            cooldowns.append(policy.health_of("m").current_cooldown)
        for previous, current in zip(cooldowns, cooldowns[1:]):
            assert current == min(2 * previous, policy.max_cooldown_rounds)
        assert cooldowns == sorted(cooldowns)
        assert all(c <= policy.max_cooldown_rounds for c in cooldowns)

    @given(trips=trip_counts)
    @settings(max_examples=50, deadline=None)
    def test_full_close_resets_the_backoff(self, trips):
        policy = QuarantinePolicy(
            cooldown_rounds=2,
            max_cooldown_rounds=16,
            probe_successes_required=1,
            readmission_reputation=0.0,
        )
        policy.admit("m")
        for _ in range(trips):
            policy.force_open("m", "trip")
            while policy.state_of("m") is CircuitState.OPEN:
                policy.begin_round()
            policy.record_success("m")
            assert policy.state_of("m") is CircuitState.CLOSED
        # A fresh trip after a clean close starts from the base cooldown.
        policy.force_open("m", "fresh-trip")
        assert policy.health_of("m").current_cooldown == policy.cooldown_rounds
