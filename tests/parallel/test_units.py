"""Unit config, canonicalisation, cache keys, and pure execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.table1 import table1_configuration
from repro.experiments.table2 import build_bid_and_execution_vectors, scenario_by_name
from repro.mechanism import VerificationMechanism
from repro.parallel.units import (
    ExperimentUnit,
    canonical_json,
    canonicalise,
    execute_unit,
    unit_cache_key,
)


def paper_unit(**overrides) -> ExperimentUnit:
    config = table1_configuration()
    kwargs = dict(
        kind="scenario",
        scenario="True1",
        bid_factor=1.0,
        execution_factor=1.0,
        true_values=tuple(config.cluster.true_values.tolist()),
        arrival_rate=config.arrival_rate,
    )
    kwargs.update(overrides)
    return ExperimentUnit(**kwargs)


class TestExperimentUnit:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            paper_unit(kind="nope")
        with pytest.raises(ValueError):
            paper_unit(variant="nope")
        with pytest.raises(ValueError):
            paper_unit(true_values=(1.0,))
        with pytest.raises(ValueError):
            paper_unit(true_values=(1.0, -2.0))
        with pytest.raises(ValueError):
            paper_unit(bid_factor=0.0)
        with pytest.raises(ValueError):
            paper_unit(execution_factor=0.5)
        with pytest.raises(ValueError):
            paper_unit(arrival_rate=-1.0)
        with pytest.raises(ValueError):
            paper_unit(manipulator=99)
        with pytest.raises(ValueError):
            paper_unit(kind="protocol", duration=0.0)

    def test_config_round_trip(self):
        unit = paper_unit(kind="protocol", seed=7, duration=55.0)
        assert ExperimentUnit.from_config(unit.as_config()) == unit

    def test_config_with_a_retired_shards_key_still_loads(self):
        # Configs cached when units could run sharded carry "shards";
        # loading one gives the single-coordinator unit.
        unit = paper_unit(kind="protocol", seed=7)
        legacy = {**unit.as_config(), "shards": 3}
        assert ExperimentUnit.from_config(legacy) == unit

    def test_scenario_config_drops_seed_and_duration(self):
        a = paper_unit(seed=0, duration=200.0)
        b = paper_unit(seed=99, duration=10.0)
        assert a.as_config() == b.as_config()
        assert unit_cache_key(a) == unit_cache_key(b)

    def test_protocol_config_keeps_seed_and_duration(self):
        a = paper_unit(kind="protocol", seed=0)
        b = paper_unit(kind="protocol", seed=1)
        assert unit_cache_key(a) != unit_cache_key(b)


class TestManipulatorCoalitions:
    """The tournament's multi-liar field rides on the same cache rules."""

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            paper_unit(manipulators=())
        with pytest.raises(ValueError, match="distinct"):
            paper_unit(manipulators=(1, 1))
        with pytest.raises(ValueError, match="out of range"):
            paper_unit(manipulators=(0, 99))

    def test_coalition_is_sorted_and_pins_the_manipulator(self):
        unit = paper_unit(manipulators=(5, 2), manipulator=9)
        assert unit.manipulators == (2, 5)
        assert unit.manipulator == 2

    def test_single_manipulator_units_keep_their_keys(self):
        # The optional field must not perturb any pre-existing key.
        assert "manipulators" not in paper_unit().as_config()
        assert unit_cache_key(paper_unit()) == unit_cache_key(
            paper_unit(manipulators=None)
        )

    def test_coalition_changes_the_key(self):
        base = unit_cache_key(paper_unit(bid_factor=3.0))
        pair = unit_cache_key(paper_unit(bid_factor=3.0, manipulators=(0, 1)))
        assert pair != base
        assert pair != unit_cache_key(
            paper_unit(bid_factor=3.0, manipulators=(0, 2))
        )

    def test_config_round_trip(self):
        unit = paper_unit(manipulators=(0, 3), bid_factor=0.5,
                          execution_factor=2.0)
        assert ExperimentUnit.from_config(unit.as_config()) == unit

    def test_scenario_profile_applies_factors_to_every_member(self):
        unit = paper_unit(bid_factor=3.0, execution_factor=3.0,
                          manipulators=(0, 1))
        payload = execute_unit(unit)
        t = np.asarray(unit.true_values)
        assert payload["bids"][:2] == (3.0 * t[:2]).tolist()
        assert payload["execution_values"][:2] == (3.0 * t[:2]).tolist()
        assert payload["bids"][2:] == t[2:].tolist()

    def test_coalition_of_one_matches_the_single_manipulator_payload(self):
        single = paper_unit(bid_factor=3.0, manipulator=1)
        coalition = paper_unit(bid_factor=3.0, manipulators=(1,))
        assert execute_unit(single) == execute_unit(coalition)

    def test_protocol_coalition_has_two_manipulative_agents(self):
        unit = paper_unit(
            kind="protocol", bid_factor=3.0, execution_factor=3.0,
            manipulators=(0, 1), duration=20.0,
        )
        payload = execute_unit(unit)
        t = np.asarray(unit.true_values)
        assert payload["true_execution_values"][:2] == (3.0 * t[:2]).tolist()
        assert payload["true_execution_values"][2:] == t[2:].tolist()


class TestCanonicalise:
    def test_dict_order_is_erased(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )

    def test_numpy_width_is_erased(self):
        assert canonicalise(np.int32(5)) == canonicalise(np.int64(5)) == 5
        assert canonicalise(np.float32(0.5)) == canonicalise(np.float64(0.5))

    def test_arrays_and_tuples_become_lists(self):
        assert canonicalise(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert canonicalise((1, 2)) == [1, 2]

    def test_negative_zero_normalised(self):
        assert canonical_json(-0.0) == canonical_json(0.0)

    def test_nan_and_inf_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                canonicalise(bad)

    def test_unhashable_types_rejected(self):
        with pytest.raises(TypeError):
            canonicalise(object())


class TestCacheKey:
    def test_key_is_hex_blake2b_256(self):
        key = unit_cache_key(paper_unit())
        assert len(key) == 64
        int(key, 16)  # parses as hex

    def test_version_is_part_of_the_key(self):
        unit = paper_unit()
        assert unit_cache_key(unit, version="1.0.0") != unit_cache_key(
            unit, version="1.0.1"
        )

    def test_key_matches_unspliced_canonical_envelope(self):
        # The fast path memoizes the config encoding and splices it into
        # the {"config": ..., "version": ...} envelope byte-wise. Pin it
        # against the naive construction: canonicalise the whole
        # envelope, then hash — the two must never diverge, or warm
        # caches silently go cold on upgrade.
        import hashlib

        import repro

        for unit in (
            paper_unit(),
            paper_unit(kind="drift", seed=5),
            paper_unit(kind="protocol", seed=7, duration=25.0),
        ):
            # version=None resolves to the package version inside the key.
            for version in (repro.__version__, "9.9.9"):
                envelope = {
                    "config": unit.as_config(),
                    "version": version,
                }
                expected = hashlib.blake2b(
                    canonical_json(envelope).encode("utf-8"), digest_size=32
                ).hexdigest()
                assert unit_cache_key(unit, version=version) == expected
                if version == repro.__version__:
                    assert unit_cache_key(unit) == expected

    def test_config_encoding_is_memoized_per_unit(self):
        from repro.parallel.units import _canonical_config_bytes

        unit = paper_unit(kind="protocol", seed=11)
        before = _canonical_config_bytes.cache_info()
        unit_cache_key(unit)
        unit_cache_key(unit)
        after = _canonical_config_bytes.cache_info()
        assert after.hits >= before.hits + 1
        # Memoization must not leak across distinct configs (the seed is
        # part of a protocol unit's config, unlike a scenario unit's).
        assert unit_cache_key(
            paper_unit(kind="protocol", seed=12)
        ) != unit_cache_key(unit)

    def test_any_result_affecting_field_changes_the_key(self):
        base = unit_cache_key(paper_unit())
        assert unit_cache_key(paper_unit(bid_factor=3.0)) != base
        assert unit_cache_key(paper_unit(execution_factor=2.0)) != base
        assert unit_cache_key(paper_unit(variant="vcg")) != base
        assert unit_cache_key(paper_unit(arrival_rate=21.0)) != base
        assert unit_cache_key(paper_unit(manipulator=1)) != base


class TestExecuteUnit:
    def test_scenario_payload_matches_inline_run(self):
        config = table1_configuration()
        true_values = config.cluster.true_values
        for name in ("True1", "High1", "Low2"):
            scenario = scenario_by_name(name)
            unit = paper_unit(
                scenario=name,
                bid_factor=scenario.bid_factor,
                execution_factor=scenario.execution_factor,
            )
            payload = execute_unit(unit)
            bids, executions = build_bid_and_execution_vectors(true_values, scenario)
            outcome = VerificationMechanism().run(
                bids, config.arrival_rate, executions, true_values=true_values
            )
            assert payload["realised_latency"] == outcome.realised_latency
            assert payload["payment"] == outcome.payments.payment.tolist()
            assert payload["utility"] == outcome.payments.utility.tolist()

    def test_execution_is_deterministic(self):
        unit = paper_unit(kind="protocol", seed=3, duration=20.0)
        assert execute_unit(unit) == execute_unit(unit)

    def test_protocol_payload_has_des_fields(self):
        payload = execute_unit(paper_unit(kind="protocol", duration=20.0))
        assert payload["jobs_routed"] > 0
        assert payload["total_messages"] > 0
        assert len(payload["estimated_execution_values"]) == 16

    def test_payload_is_json_safe(self):
        import json

        payload = execute_unit(paper_unit(kind="protocol", duration=20.0))
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("variant", ["observed", "vcg", "archer-tardos"])
    def test_dynamics_units_take_the_payment_rule(self, variant):
        from repro.agents import BestResponseDynamics
        from repro.parallel.units import _mechanism_for

        unit = paper_unit(kind="dynamics", variant=variant, bid_factor=3.0)
        payload = execute_unit(unit)
        true_values = np.asarray(unit.true_values)
        start = true_values.copy()
        start[0] *= 3.0
        mechanism = _mechanism_for(variant)
        trace = BestResponseDynamics(
            mechanism, true_values, unit.arrival_rate
        ).run(start_bids=start)
        outcome = mechanism.run(
            trace.final_bids, unit.arrival_rate, true_values,
            true_values=true_values,
        )
        assert payload["start_bids"] == start.tolist()
        assert payload["rounds"] == trace.rounds
        assert payload["realised_latency"] == float(outcome.realised_latency)
        assert payload["payment"] == outcome.payments.payment.tolist()

    def test_the_old_dynamics_and_drift_variants_are_kinds_now(self):
        for name in ("dynamics", "drift"):
            with pytest.raises(ValueError, match="variant"):
                paper_unit(variant=name)
        dynamics = paper_unit(kind="dynamics")
        drift = paper_unit(kind="drift", variant="vcg")
        assert "seed" not in dynamics.as_config()
        assert drift.as_config()["seed"] == 0
        assert unit_cache_key(dynamics) != unit_cache_key(paper_unit())
        assert execute_unit(drift) != execute_unit(paper_unit(kind="drift"))


class TestExecutionEngineField:
    """Protocol units carry the job execution engine into the cache key."""

    def test_invalid_execution_rejected(self):
        with pytest.raises(ValueError, match="execution must be"):
            paper_unit(kind="protocol", execution="bogus")

    def test_auto_and_batched_share_one_cache_entry(self):
        auto = paper_unit(kind="protocol", execution="auto")
        batched = paper_unit(kind="protocol", execution="batched")
        assert auto.as_config()["execution"] == "batched"
        assert unit_cache_key(auto) == unit_cache_key(batched)

    def test_event_engine_gets_its_own_cache_entry(self):
        event = paper_unit(kind="protocol", execution="event")
        auto = paper_unit(kind="protocol")
        assert unit_cache_key(event) != unit_cache_key(auto)

    def test_scenario_config_omits_the_engine(self):
        # Scenario units run the closed-form mechanism: no job stream,
        # so the engine must not perturb their cache keys.
        assert "execution" not in paper_unit().as_config()

    def test_batched_protocol_payload_executes(self):
        unit = paper_unit(
            kind="protocol", seed=3, duration=20.0, execution="batched"
        )
        payload = execute_unit(unit)
        assert payload["jobs_routed"] > 0
        assert len(payload["estimated_execution_values"]) == 16
