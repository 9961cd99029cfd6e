"""Closed-form best-response kernels vs the brute-force search.

The contract under test (DESIGN.md §10): the kernel path is an exact
reformulation, not an approximation — same utilities to 1e-9 relative,
bit-identical grid selections with refinement off, same truthfulness
verdicts, and the same fixed points under iterated dynamics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import (
    BestResponseDynamics,
    BiddingGame,
    best_response,
    best_response_fast,
    sufficient_statistics,
    utility_kernel,
)
from repro.agents import kernels
from repro.allocation import IncrementalStrategicState
from repro.mechanism import (
    ArcherTardosMechanism,
    MM1TruthfulMechanism,
    VCGMechanism,
    VerificationMechanism,
)
from repro.system import paper_cluster
from repro.system.cluster import PAPER_ARRIVAL_RATE

RELATIVE_TOLERANCE = 1e-9

KERNEL_MODES = ("observed", "declared", "vcg", "archer_tardos")
TRUTHFUL_MODES = ("observed", "vcg", "archer_tardos")


def _mechanism_for_mode(mode: str):
    if mode in ("observed", "declared"):
        return VerificationMechanism(mode)
    if mode == "vcg":
        return VCGMechanism()
    return ArcherTardosMechanism()


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
            s_minus, q_minus = sufficient_statistics(
                bids, executions, agent=agent
            )
            expected = _run_utility(
                mechanism, bids, arrival_rate, executions, agent
            )
            actual = float(
                utility_kernel(
                    bids[agent],
                    executions[agent],
                    s_minus,
                    q_minus,
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
        assert kernels.supports(VerificationMechanism())
        assert kernels.supports(VerificationMechanism("declared"))
        assert kernels.supports(VCGMechanism())
        assert kernels.supports(ArcherTardosMechanism())
        assert not kernels.supports(MM1TruthfulMechanism())

    def test_kernel_mode_of_maps_each_mechanism(self):
        assert kernels.kernel_mode_of(VerificationMechanism()) == "observed"
        assert (
            kernels.kernel_mode_of(VerificationMechanism("declared")) == "declared"
        )
        assert kernels.kernel_mode_of(VCGMechanism()) == "vcg"
        assert kernels.kernel_mode_of(ArcherTardosMechanism()) == "archer_tardos"
        with pytest.raises(TypeError, match="closed-form utility kernel"):
            kernels.kernel_mode_of(MM1TruthfulMechanism())


class TestSufficientStatistics:
    def test_matches_incremental_state(self, rng):
        bids = rng.uniform(0.5, 5.0, 6)
        executions = bids * rng.uniform(1.0, 2.0, 6)
        state = IncrementalStrategicState(bids, executions)
        for agent in range(6):
            expected = sufficient_statistics(bids, executions, agent=agent)
            assert state.statistics_excluding(agent) == pytest.approx(expected)

    def test_rank_one_updates_track_refreshed_sums(self, rng):
        state = IncrementalStrategicState(rng.uniform(0.5, 5.0, 5))
        for _ in range(200):
            state.update(int(rng.integers(5)), float(rng.uniform(0.3, 6.0)))
        s, q = state.total_inverse, state.total_weighted
        state.refresh()
        assert s == pytest.approx(state.total_inverse, rel=1e-12)
        assert q == pytest.approx(state.total_weighted, rel=1e-12)


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
        mechanism = _mechanism_for_mode(case.pop("mode"))
        common = dict(case, refine=False)
        true_values = np.array(common.pop("true_values"))
        arrival_rate = common.pop("arrival_rate")
        agent = common.pop("agent")
        brute = best_response(
            mechanism, true_values, arrival_rate, agent,
            method="bruteforce", **common,
        )
        fast = best_response(
            mechanism, true_values, arrival_rate, agent,
            method="vectorized", **common,
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
        t = np.array([1.0, 2.0, 5.0, 10.0])
        auto = best_response(mechanism, t, 4.0, 1, refine=False)
        fast = best_response_fast(mechanism, t, 4.0, 1, refine=False)
        assert (auto.bid, auto.execution_value) == (fast.bid, fast.execution_value)

    def test_fast_rejects_unsupported_mechanisms(self):
        with pytest.raises(TypeError, match="closed-form utility kernel"):
            best_response_fast(MM1TruthfulMechanism(), [1.0, 2.0], 3.0, 0)

    @pytest.mark.parametrize("mode", ["vcg", "archer_tardos"])
    def test_auto_selects_the_kernel_for_the_baselines(self, mode):
        # The baselines are kernel-supported since 1.8: method="auto"
        # must pick the identical selection the brute path computes.
        mechanism = _mechanism_for_mode(mode)
        t = np.array([1.0, 2.0, 5.0, 10.0])
        auto = best_response(mechanism, t, 4.0, 1, refine=False)
        brute = best_response(
            mechanism, t, 4.0, 1, method="bruteforce", refine=False
        )
        assert (auto.bid, auto.execution_value) == (brute.bid, brute.execution_value)
        assert auto.is_truthful and brute.is_truthful

    def test_respects_other_bids(self, declared_mechanism, small_true_values):
        others = np.array([2.0, 2.0, 5.0, 12.0])
        brute = best_response(
            declared_mechanism, small_true_values, 4.0, 0,
            other_bids=others, method="bruteforce", refine=False,
        )
        fast = best_response(
            declared_mechanism, small_true_values, 4.0, 0,
            other_bids=others, method="vectorized", refine=False,
        )
        assert (brute.bid, brute.execution_value) == (fast.bid, fast.execution_value)


# ------------------------------------------------------ dynamics parity


class TestBestResponseDynamics:
    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_traces_match_bidding_game(self, mode):
        mechanism = _mechanism_for_mode(mode)
        t = np.array([1.0, 2.0, 5.0, 10.0])
        start = np.array([3.0, 2.0, 4.0, 15.0])
        slow = BiddingGame(mechanism, t, 4.0).run(start_bids=start, max_rounds=6)
        fast = BestResponseDynamics(mechanism, t, 4.0).run(
            start_bids=start, max_rounds=6
        )
        assert fast.rounds == slow.rounds
        assert fast.converged == slow.converged
        np.testing.assert_allclose(
            fast.final_bids, slow.final_bids, rtol=1e-6
        )

    def test_rejects_mechanisms_without_a_kernel(self):
        with pytest.raises(TypeError, match="closed-form utility kernel"):
            BestResponseDynamics(MM1TruthfulMechanism(), [1.0, 2.0], 3.0)

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
        cluster = paper_cluster()
        observed = BiddingGame(
            VerificationMechanism("observed"),
            cluster.true_values, PAPER_ARRIVAL_RATE, method=method,
        )
        declared = BiddingGame(
            VerificationMechanism("declared"),
            cluster.true_values, PAPER_ARRIVAL_RATE, method=method,
        )
        assert observed.truthful_is_equilibrium()
        assert not declared.truthful_is_equilibrium()

    def test_dynamics_agree_with_the_game_verdicts(self):
        cluster = paper_cluster()
        observed = BestResponseDynamics(
            VerificationMechanism("observed"),
            cluster.true_values, PAPER_ARRIVAL_RATE,
        )
        declared = BestResponseDynamics(
            VerificationMechanism("declared"),
            cluster.true_values, PAPER_ARRIVAL_RATE,
        )
        assert observed.truthful_is_equilibrium()
        assert not declared.truthful_is_equilibrium()


class TestSufficientStatisticsAll:
    """The vectorised aggregates behind the batched learning round."""

    def test_bit_identical_to_the_scalar_version(self):
        cluster = paper_cluster()
        bids = cluster.true_values * 1.3
        executions = cluster.true_values
        s_all, q_all = kernels.sufficient_statistics_all(bids, executions)
        for i in range(bids.size):
            s_i, q_i = sufficient_statistics(bids, executions, agent=i)
            assert s_all[i] == s_i
            assert q_all[i] == q_i

    def test_executions_default_to_bids_like_the_scalar_version(self):
        bids = np.array([1.0, 2.0, 4.0])
        assert np.array_equal(
            kernels.sufficient_statistics_all(bids)[1],
            kernels.sufficient_statistics_all(bids, bids)[1],
        )

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_bit_identity_on_random_profiles(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        bids = rng.uniform(0.5, 10.0, n)
        executions = rng.uniform(0.5, 10.0, n)
        s_all, q_all = kernels.sufficient_statistics_all(bids, executions)
        for i in range(n):
            s_i, q_i = sufficient_statistics(bids, executions, agent=i)
            assert s_all[i] == s_i
            assert q_all[i] == q_i

    def test_broadcast_rows_match_per_agent_kernel_calls(self):
        # The (n, K) learning broadcast must reproduce each agent's
        # 1-D kernel call bit-for-bit.
        cluster = paper_cluster()
        t = cluster.true_values
        grid = np.array([0.5, 1.0, 2.0])
        s_all, q_all = kernels.sufficient_statistics_all(t, t)
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
    """The (U, n) unit axis behind the fused campaign backend.

    Contract: stacking units never changes a float — every row of the
    batched aggregates, kernel surfaces, and argmax selections is
    bit-identical to the corresponding single-unit call.
    """

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_stacked_statistics_match_per_unit_rows(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 12)), int(rng.integers(2, 10)))
        bids = rng.uniform(0.3, 9.0, shape)
        executions = bids * rng.uniform(1.0, 3.0, shape)
        s_units, q_units = kernels.sufficient_statistics_units(bids, executions)
        assert s_units.shape == q_units.shape == shape
        for k in range(shape[0]):
            s_row, q_row = kernels.sufficient_statistics_all(
                bids[k], executions[k]
            )
            assert np.array_equal(s_units[k], s_row)
            assert np.array_equal(q_units[k], q_row)

    def test_executions_default_to_bids(self):
        bids = np.array([[1.0, 2.0, 4.0], [0.5, 0.5, 3.0]])
        assert np.array_equal(
            kernels.sufficient_statistics_units(bids)[1],
            kernels.sufficient_statistics_units(bids, bids)[1],
        )

    def test_rejects_non_matrix_and_shape_mismatch(self):
        with pytest.raises(ValueError, match="matrix"):
            kernels.sufficient_statistics_units(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="shape"):
            kernels.sufficient_statistics_units(
                np.ones((2, 3)), np.ones((2, 4))
            )

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_per_unit_arrival_rates_broadcast_bit_identically(self, mode):
        rng = np.random.default_rng(5)
        bids = rng.uniform(0.3, 9.0, (9, 6))
        executions = bids * rng.uniform(1.0, 2.0, bids.shape)
        rates = rng.uniform(1.0, 25.0, (9, 1))
        s_units, q_units = kernels.sufficient_statistics_units(
            bids, executions
        )
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
        grids = rng.normal(size=(20, 5, 7))
        grids[4] = 0.0                      # all-tied grid: first entry wins
        grids[9, 2, :] = grids[9].max() + 1  # row of joint maxima
        rows, cols = kernels.grid_argmax_units(grids)
        for k in range(grids.shape[0]):
            assert (int(rows[k]), int(cols[k])) == kernels.grid_argmax(grids[k])

    def test_grid_argmax_units_rejects_non_stacked_input(self):
        with pytest.raises(ValueError, match="units, executions, bids"):
            kernels.grid_argmax_units(np.zeros((3, 4)))
