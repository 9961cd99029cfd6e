"""Closed-form best-response kernels vs the brute-force search.

The contract under test (DESIGN.md §10): the kernel path is an exact
reformulation, not an approximation — same utilities to 1e-9 relative,
bit-identical grid selections with refinement off, same truthfulness
verdicts, and the same fixed points under iterated dynamics.  The
evaluator is chosen by the mechanism's exact type, so the brute-force
side of every comparison is the same rule under a subclass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import (
    BestResponseDynamics,
    best_response,
    simulate_learning,
    sufficient_statistics,
    utility_kernel,
)
from repro.agents import kernels
from repro.allocation import IncrementalStrategicState
from repro.mechanism import (
    ArcherTardosMechanism,
    Mechanism,
    MM1TruthfulMechanism,
    VCGMechanism,
    VerificationMechanism,
    truthfulness_audit,
)
from repro.dynamic.drift import drift_sweep
from repro.system import paper_cluster
from repro.system.cluster import PAPER_ARRIVAL_RATE

RELATIVE_TOLERANCE = 1e-9

KERNEL_MODES = ("observed", "declared", "vcg", "archer_tardos")
TRUTHFUL_MODES = ("observed", "vcg", "archer_tardos")


class _Verification(VerificationMechanism):
    """The same rule under a type without a closed-form kernel."""


class _VCG(VCGMechanism):
    """The same rule under a type without a closed-form kernel."""


class _ArcherTardos(ArcherTardosMechanism):
    """The same rule under a type without a closed-form kernel."""


def _mechanism_for_mode(mode: str, *, brute: bool = False):
    """The mechanism of a kernel mode; ``brute`` gives its subclass,
    which every strategic computation evaluates by ``Mechanism.run``."""
    if mode in ("observed", "declared"):
        return (_Verification if brute else VerificationMechanism)(mode)
    if mode == "vcg":
        return (_VCG if brute else VCGMechanism)()
    return (_ArcherTardos if brute else ArcherTardosMechanism)()


def _run_utility(mechanism, bids, arrival_rate, executions, agent):
    outcome = mechanism.run(bids, arrival_rate, executions)
    return float(outcome.payments.utility[agent])


# ------------------------------------------------------- kernel exactness


class TestUtilityKernel:
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_matches_mechanism_run_on_random_profiles(self, mode, rng):
        mechanism = _mechanism_for_mode(mode)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            bids = rng.uniform(0.2, 8.0, n)
            executions = bids * rng.uniform(1.0, 3.0, n)
            arrival_rate = float(rng.uniform(0.5, 30.0))
            agent = int(rng.integers(n))
            s_minus, q_minus = sufficient_statistics(bids, executions)
            expected = _run_utility(
                mechanism, bids, arrival_rate, executions, agent
            )
            actual = float(
                utility_kernel(
                    bids[agent],
                    executions[agent],
                    s_minus[agent],
                    q_minus[agent],
                    arrival_rate,
                    mode=mode,
                )
            )
            assert actual == pytest.approx(expected, rel=RELATIVE_TOLERANCE)

    def test_broadcasts_over_candidate_grids(self):
        bids = np.array([0.5, 1.0, 2.0])
        execs = np.array([[1.0], [2.0]])
        surface = utility_kernel(bids, execs, 0.8, 0.9, 5.0)
        assert surface.shape == (2, 3)
        for i, e in enumerate((1.0, 2.0)):
            for j, b in enumerate(bids):
                assert surface[i, j] == utility_kernel(b, e, 0.8, 0.9, 5.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            utility_kernel(1.0, 1.0, 0.5, 0.5, 3.0, mode="bogus")

    def test_supports_the_three_closed_form_mechanisms(self):
        for mode in KERNEL_MODES:
            assert kernels.kernel_mode_of(_mechanism_for_mode(mode)) is not None
            assert kernels.kernel_mode_of(_mechanism_for_mode(mode, brute=True)) is None
        assert kernels.kernel_mode_of(MM1TruthfulMechanism()) is None

    def test_kernel_mode_of_maps_each_mechanism(self):
        assert kernels.kernel_mode_of(VerificationMechanism()) == "observed"
        assert (
            kernels.kernel_mode_of(VerificationMechanism("declared")) == "declared"
        )
        assert kernels.kernel_mode_of(VCGMechanism()) == "vcg"
        assert kernels.kernel_mode_of(ArcherTardosMechanism()) == "archer_tardos"


class TestSufficientStatistics:
    def test_matches_incremental_state(self, rng):
        bids = rng.uniform(0.5, 5.0, 6)
        executions = bids * rng.uniform(1.0, 2.0, 6)
        state = IncrementalStrategicState(bids, executions)
        s_minus, q_minus = sufficient_statistics(bids, executions)
        for agent in range(6):
            assert state.statistics_excluding(agent) == pytest.approx(
                (s_minus[agent], q_minus[agent])
            )

    def test_rank_one_updates_track_refreshed_sums(self, rng):
        state = IncrementalStrategicState(rng.uniform(0.5, 5.0, 5))
        for _ in range(200):
            state.update(int(rng.integers(5)), float(rng.uniform(0.3, 6.0)))
        s_minus, q_minus = sufficient_statistics(state.bids, state.executions)
        for agent in range(5):
            assert state.statistics_excluding(agent) == pytest.approx(
                (s_minus[agent], q_minus[agent]), rel=1e-12
            )


# ------------------------------------------- fast vs brute-force property


@st.composite
def _search_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    true_values = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=n, max_size=n,
        )
    )
    return {
        "true_values": true_values,
        "arrival_rate": draw(st.floats(min_value=0.5, max_value=40.0)),
        "agent": draw(st.integers(min_value=0, max_value=n - 1)),
        "mode": draw(st.sampled_from(KERNEL_MODES)),
        "scan_points": draw(st.integers(min_value=8, max_value=24)),
        "exec_points": draw(st.integers(min_value=2, max_value=5)),
        "execution_cap_factor": draw(st.sampled_from([1.0, 2.0, 4.0])),
    }


class TestFastMatchesBruteForce:
    @given(case=_search_cases())
    @settings(max_examples=40, deadline=None)
    def test_identical_grid_selection_and_utilities(self, case):
        common = dict(case, refine=False)
        mode = common.pop("mode")
        true_values = np.array(common.pop("true_values"))
        arrival_rate = common.pop("arrival_rate")
        agent = common.pop("agent")
        brute = best_response(
            _mechanism_for_mode(mode, brute=True),
            true_values, arrival_rate, agent, **common,
        )
        fast = best_response(
            _mechanism_for_mode(mode), true_values, arrival_rate, agent,
            **common,
        )
        assert fast.bid == brute.bid
        assert fast.execution_value == brute.execution_value
        assert fast.utility == pytest.approx(
            brute.utility, rel=RELATIVE_TOLERANCE
        )
        assert fast.truthful_utility == pytest.approx(
            brute.truthful_utility, rel=RELATIVE_TOLERANCE
        )
        assert fast.is_truthful == brute.is_truthful

    def test_auto_selects_the_kernel_for_verification(self, mechanism):
        # On the exact type, best_response is the search run through the
        # closed form on the others' leave-one-out statistics.
        t = np.array([1.0, 2.0, 5.0, 10.0])
        auto = best_response(mechanism, t, 4.0, 1, refine=False)
        s_minus, q_minus = sufficient_statistics(t)
        fast = kernels.best_response_given_stats(
            s_minus[1], q_minus[1], t[1], 4.0, refine=False
        )
        assert (auto.bid, auto.execution_value, auto.utility) == fast[:3]

    @pytest.mark.parametrize("mode", ["vcg", "archer_tardos"])
    def test_auto_selects_the_kernel_for_the_baselines(self, mode):
        # The baselines have kernel modes since 1.8: the exact type must
        # pick the identical selection its subclass computes by runs.
        t = np.array([1.0, 2.0, 5.0, 10.0])
        auto = best_response(_mechanism_for_mode(mode), t, 4.0, 1, refine=False)
        brute = best_response(
            _mechanism_for_mode(mode, brute=True), t, 4.0, 1, refine=False
        )
        assert (auto.bid, auto.execution_value) == (brute.bid, brute.execution_value)
        assert auto.is_truthful and brute.is_truthful

    def test_respects_other_bids(self, declared_mechanism, small_true_values):
        others = np.array([2.0, 2.0, 5.0, 12.0])
        brute = best_response(
            _Verification("declared"), small_true_values, 4.0, 0,
            other_bids=others, refine=False,
        )
        fast = best_response(
            declared_mechanism, small_true_values, 4.0, 0,
            other_bids=others, refine=False,
        )
        assert (brute.bid, brute.execution_value) == (fast.bid, fast.execution_value)


# ------------------------------------------------------ dynamics parity


class TestBestResponseDynamics:
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_kernel_matches_bruteforce(self, mode):
        t = np.array([1.0, 2.0, 5.0, 10.0])
        start = np.array([3.0, 2.0, 4.0, 15.0])
        slow = BestResponseDynamics(
            _mechanism_for_mode(mode, brute=True), t, 4.0
        ).run(start_bids=start, max_rounds=6)
        fast = BestResponseDynamics(_mechanism_for_mode(mode), t, 4.0).run(
            start_bids=start, max_rounds=6
        )
        assert fast.rounds == slow.rounds
        assert fast.converged == slow.converged
        np.testing.assert_allclose(
            fast.final_bids, slow.final_bids, rtol=1e-6
        )

    def test_truth_is_a_fixed_point_without_a_kernel(self, mechanism):
        # Mechanisms without a closed form are played through the
        # brute-force step instead of being rejected.
        BestResponseDynamics(MM1TruthfulMechanism(), [0.2, 0.4, 0.5], 2.0)
        t = np.array([1.0, 2.0, 5.0, 10.0])
        dynamics = BestResponseDynamics(_Verification(), t, 4.0)
        assert dynamics.truthful_is_equilibrium()
        trace = dynamics.run()
        assert trace.converged and trace.rounds == 1
        assert trace.max_drift_from(t) < 1e-6

    @pytest.mark.parametrize("mode", TRUTHFUL_MODES)
    def test_truthful_profile_is_a_fixed_point(self, mode):
        t = np.array([1.0, 2.0, 5.0, 10.0])
        trace = BestResponseDynamics(_mechanism_for_mode(mode), t, 4.0).run()
        assert trace.converged and trace.rounds == 1
        assert trace.max_drift_from(t) < 1e-6


@st.composite
def _truthful_profiles(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    return {
        "true_values": draw(
            st.lists(
                st.floats(min_value=0.1, max_value=10.0),
                min_size=n, max_size=n,
            )
        ),
        "arrival_rate": draw(st.floats(min_value=0.5, max_value=40.0)),
        "agent": draw(st.integers(min_value=0, max_value=n - 1)),
        "mode": draw(st.sampled_from(TRUTHFUL_MODES)),
    }


class TestTruthfulnessProperty:
    """Truth is a best response under every truthful payment rule.

    Theorem 3.1 (verification, observed), the Clarke pivot, and the
    Archer–Tardos characterisation all promise the same thing: no
    unilateral (bid, execution) deviation beats the truthful pair.  The
    sweep checks it up to grid resolution through both search paths.
    """

    @given(case=_truthful_profiles())
    @settings(max_examples=40, deadline=None)
    def test_truthful_bid_is_a_best_response(self, case):
        mechanism = _mechanism_for_mode(case["mode"])
        response = best_response(
            mechanism,
            np.array(case["true_values"]),
            case["arrival_rate"],
            case["agent"],
            refine=False,
        )
        assert response.is_truthful

    @pytest.mark.parametrize("mode", TRUTHFUL_MODES)
    def test_declared_variant_is_the_odd_one_out(self, mode):
        # Sanity anchor for the property above: the same search that
        # certifies the three truthful rules does flag the declared
        # variant's profitable overbid.
        t = np.array([1.0, 2.0, 5.0, 10.0])
        truthful = best_response(_mechanism_for_mode(mode), t, 4.0, 0)
        declared = best_response(VerificationMechanism("declared"), t, 4.0, 0)
        assert truthful.is_truthful
        assert not declared.is_truthful


class TestPaperSystemRegression:
    """Verdicts on the paper's 16-machine system must not move."""

    @pytest.mark.parametrize("method", ["bruteforce", "vectorized"])
    def test_observed_truthful_declared_not(self, method):
        # "vectorized" is the kernel step; "bruteforce" takes the
        # brute-force step through a subclass, which has no kernel mode.
        brute = method == "bruteforce"
        cluster = paper_cluster()
        observed = BestResponseDynamics(
            _mechanism_for_mode("observed", brute=brute),
            cluster.true_values, PAPER_ARRIVAL_RATE,
        )
        declared = BestResponseDynamics(
            _mechanism_for_mode("declared", brute=brute),
            cluster.true_values, PAPER_ARRIVAL_RATE,
        )
        assert observed.truthful_is_equilibrium()
        assert not declared.truthful_is_equilibrium()

    def test_dynamics_agree_with_the_game_verdicts(self):
        # The dynamics' equilibrium check is every agent's standalone
        # best response at the truthful profile.
        t = paper_cluster().true_values
        for mode, expected in (("observed", True), ("declared", False)):
            mechanism = VerificationMechanism(mode)
            verdicts = [
                best_response(
                    mechanism, t, PAPER_ARRIVAL_RATE, agent,
                    execution_cap_factor=1.0,
                ).is_truthful
                for agent in range(t.size)
            ]
            dynamics = BestResponseDynamics(mechanism, t, PAPER_ARRIVAL_RATE)
            assert dynamics.truthful_is_equilibrium() == all(verdicts) == expected


class TestSufficientStatisticsAll:
    """The aggregates of one profile, every agent at once."""

    def test_bit_identical_to_the_scalar_version(self):
        cluster = paper_cluster()
        bids = cluster.true_values * 1.3
        executions = cluster.true_values
        s_all, q_all = sufficient_statistics(bids, executions)
        inv = 1.0 / bids
        weighted = executions * inv * inv
        for i in range(bids.size):
            assert s_all[i] == float(inv.sum() - inv[i])
            assert q_all[i] == float(weighted.sum() - weighted[i])

    def test_executions_default_to_bids_like_the_scalar_version(self):
        bids = np.array([1.0, 2.0, 4.0])
        assert np.array_equal(
            sufficient_statistics(bids)[1],
            sufficient_statistics(bids, bids)[1],
        )

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_bit_identity_on_random_profiles(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        bids = rng.uniform(0.5, 10.0, n)
        executions = rng.uniform(0.5, 10.0, n)
        s_all, q_all = sufficient_statistics(bids, executions)
        inv = 1.0 / bids
        weighted = executions * inv * inv
        for i in range(n):
            assert s_all[i] == float(inv.sum() - inv[i])
            assert q_all[i] == float(weighted.sum() - weighted[i])

    def test_broadcast_rows_match_per_agent_kernel_calls(self):
        # The (n, K) learning broadcast must reproduce each agent's
        # 1-D kernel call bit-for-bit.
        cluster = paper_cluster()
        t = cluster.true_values
        grid = np.array([0.5, 1.0, 2.0])
        s_all, q_all = sufficient_statistics(t, t)
        broadcast = utility_kernel(
            grid[None, :] * t[:, None], t[:, None],
            s_all[:, None], q_all[:, None], PAPER_ARRIVAL_RATE,
            mode="observed",
        )
        for i in range(t.size):
            row = utility_kernel(
                grid * t[i], np.full(grid.size, t[i]),
                s_all[i], q_all[i], PAPER_ARRIVAL_RATE,
                mode="observed",
            )
            assert np.array_equal(broadcast[i], row)


class TestBatchedUnitAxis:
    """Stacks of profiles and grids: one function, any leading shape.

    Contract: stacking never changes a float — every row of the stacked
    aggregates, kernel surfaces, and argmax selections is bit-identical
    to the same call on that row alone.
    """

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_stacked_statistics_match_per_unit_rows(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 12)), int(rng.integers(2, 10)))
        bids = rng.uniform(0.3, 9.0, shape)
        executions = bids * rng.uniform(1.0, 3.0, shape)
        s_units, q_units = sufficient_statistics(bids, executions)
        assert s_units.shape == q_units.shape == shape
        for k in range(shape[0]):
            s_row, q_row = sufficient_statistics(bids[k], executions[k])
            assert np.array_equal(s_units[k], s_row)
            assert np.array_equal(q_units[k], q_row)

    def test_executions_default_to_bids(self):
        bids = np.array([[1.0, 2.0, 4.0], [0.5, 0.5, 3.0]])
        assert np.array_equal(
            sufficient_statistics(bids)[1],
            sufficient_statistics(bids, bids)[1],
        )

    def test_rejects_scalars_and_shape_mismatch(self):
        with pytest.raises(ValueError, match="agent axis"):
            sufficient_statistics(2.0)
        with pytest.raises(ValueError, match="agent axis"):
            sufficient_statistics(np.ones((3, 0)))
        with pytest.raises(ValueError, match="shape"):
            sufficient_statistics(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_per_unit_arrival_rates_broadcast_bit_identically(self, mode):
        rng = np.random.default_rng(5)
        bids = rng.uniform(0.3, 9.0, (9, 6))
        executions = bids * rng.uniform(1.0, 2.0, bids.shape)
        rates = rng.uniform(1.0, 25.0, (9, 1))
        s_units, q_units = sufficient_statistics(bids, executions)
        stacked = utility_kernel(
            bids, executions, s_units, q_units, rates, mode=mode
        )
        for k in range(bids.shape[0]):
            row = utility_kernel(
                bids[k], executions[k], s_units[k], q_units[k],
                float(rates[k, 0]), mode=mode,
            )
            assert np.array_equal(stacked[k], row)

    def test_grid_argmax_units_shares_the_tie_break_contract(self):
        rng = np.random.default_rng(11)
        grids = rng.normal(size=(4, 5, 5, 7))
        grids[1, 3] = 0.0                         # all-tied grid: first entry wins
        grids[2, 4, 2, :] = grids[2, 4].max() + 1  # row of joint maxima
        rows, cols = kernels.grid_argmax(grids)
        assert rows.shape == cols.shape == (4, 5)
        for index in np.ndindex(4, 5):
            expected = kernels.grid_argmax(grids[index])
            assert (int(rows[index]), int(cols[index])) == expected
        assert kernels.grid_argmax(grids[1, 3]) == (0, 0)
        assert kernels.grid_argmax(grids[2, 4]) == (2, 0)

    def test_grid_argmax_rejects_input_without_grid_axes(self):
        with pytest.raises(ValueError, match="executions, bids"):
            kernels.grid_argmax(np.zeros(4))


class TestSelectionRule:
    """The evaluator is chosen by the mechanism's exact type alone."""

    def test_exact_types_never_run_and_others_never_use_the_kernel(
        self, monkeypatch
    ):
        calls = []
        real_run, real_kernel = Mechanism.run, kernels.utility_kernel

        class _Evaluated(Exception):
            pass

        def run(mechanism, *args, **kwargs):
            calls.append("run")
            if type(mechanism) is MM1TruthfulMechanism:
                raise _Evaluated  # one run integrates for ~0.4 s
            return real_run(mechanism, *args, **kwargs)

        def kernel(*args, **kwargs):
            calls.append("kernel")
            return real_kernel(*args, **kwargs)

        monkeypatch.setattr(Mechanism, "run", run)
        monkeypatch.setattr(kernels, "utility_kernel", kernel)
        t = np.array([1.0, 2.0, 5.0])

        def evaluators(mechanism):
            calls.clear()
            best_response(mechanism, t, 4.0, 0)
            BestResponseDynamics(
                mechanism, t, 4.0, honest_execution=False
            ).run(max_rounds=1)
            truthfulness_audit(mechanism, t, 4.0)
            # One realised run per round, whatever scores the factors.
            simulate_learning(
                mechanism, t, 4.0, np.random.default_rng(0), rounds=2
            )
            calls.remove("run")
            calls.remove("run")
            return set(calls)

        for mode in KERNEL_MODES:
            assert evaluators(_mechanism_for_mode(mode)) == {"kernel"}
            assert evaluators(_mechanism_for_mode(mode, brute=True)) == {"run"}
            with pytest.raises(TypeError, match="closed-form utility kernel"):
                drift_sweep(t, 4.0, mechanism=_mechanism_for_mode(mode, brute=True))
        with pytest.raises(_Evaluated):
            evaluators(MM1TruthfulMechanism())
        assert calls == ["run"]
