"""Checkpoint round-trips and coordinator crash/restore semantics."""

from __future__ import annotations

import base64

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.mechanism import VerificationMechanism
from repro.protocol import ProtocolPhase, SimulatedNetwork
from repro.protocol.coordinator import COORDINATOR_NAME, MachineNode
from repro.resilience import (
    CheckpointStore,
    CoordinatorCheckpoint,
    SupervisedCoordinator,
)
from repro.system import LinearLatencyMachine, Simulator

TRUE_VALUES = [1.0, 2.0, 5.0, 10.0]


def _build(store: CheckpointStore | None = None, **coordinator_kwargs):
    """A wired 4-machine protocol instance around a SupervisedCoordinator."""
    sim = Simulator()
    rng = np.random.default_rng(0)
    network = SimulatedNetwork(sim)
    names = [f"C{i+1}" for i in range(len(TRUE_VALUES))]
    nodes = []
    for name, t in zip(names, TRUE_VALUES):
        node = MachineNode(
            name=name,
            agent=TruthfulAgent(t),
            machine=LinearLatencyMachine(name, t, rng),
            network=network,
        )
        network.register(name, node.handle)
        nodes.append(node)
    coordinator = SupervisedCoordinator(
        mechanism=VerificationMechanism(),
        machine_names=names,
        arrival_rate=6.0,
        network=network,
        checkpoint_store=store,
        **coordinator_kwargs,
    )
    network.register(COORDINATOR_NAME, coordinator.handle)
    return sim, network, coordinator, nodes


class TestSerialisation:
    def test_json_round_trip_preserves_everything(self):
        checkpoint = CoordinatorCheckpoint(
            phase="verifying",
            machine_names=["C1", "C2"],
            arrival_rate=6.0,
            bids={"C1": 1.0, "C2": 2.0},
            loads=[4.0, 2.0],
            reports={"C1": (17, 4.25)},
            excluded=["C3"],
            withheld=["C2"],
            payments_sent={"C1": (16.0, 16.0, 0.0)},
        )
        assert CoordinatorCheckpoint.from_json(checkpoint.to_json()) == checkpoint

    def test_none_loads_survive(self):
        checkpoint = CoordinatorCheckpoint(
            phase="bidding", machine_names=["C1"], arrival_rate=1.0
        )
        restored = CoordinatorCheckpoint.from_json(checkpoint.to_json())
        assert restored.loads is None

    def test_store_serialises_on_save(self):
        store = CheckpointStore()
        assert store.load() is None
        checkpoint = CoordinatorCheckpoint(
            phase="idle", machine_names=["C1"], arrival_rate=1.0
        )
        store.save(checkpoint)
        assert store.saves == 1
        loaded = store.load()
        assert loaded == checkpoint
        assert loaded is not checkpoint  # a reconstruction, not the object
        store.clear()
        assert store.load() is None


class TestWireFormat:
    """Golden bytes: the serialised form is little-endian on every host.

    1.0 is the IEEE-754 double 0x3FF0000000000000; its little-endian
    bytes 00 00 00 00 00 00 F0 3F base64-encode to ``AAAAAAAA8D8=``.
    """

    CHECKPOINT = CoordinatorCheckpoint(
        phase="verifying",
        machine_names=["C1", "C2"],
        arrival_rate=6.0,
        bids={"C1": 1.0, "C2": 2.0},
        loads=[4.0, 2.0],
        reports={"C2": (3, 0.5)},
        excluded=["C3"],
        payments_sent={"C2": (1.0, 2.0, -0.0)},
    )
    # bids are keyed by machine_names in order, so they carry no key
    # list; reports and payments_sent cover only C2, so they do.
    PAYLOAD = (
        '{"phase": "verifying", "machine_names": ["C1", "C2"], '
        '"arrival_rate": 6.0, '
        '"bids": {"values": "AAAAAAAA8D8AAAAAAAAAQA=="}, '
        '"loads": "AAAAAAAAEEAAAAAAAAAAQA==", '
        '"reports": {"names": ["C2"], "jobs": "AwAAAAAAAAA=", '
        '"sojourns": "AAAAAAAA4D8="}, '
        '"excluded": ["C3"], "withheld": [], '
        '"payments_sent": {"names": ["C2"], '
        '"amounts": "AAAAAAAA8D8AAAAAAAAAQAAAAAAAAACA"}}'
    )

    def test_snapshot_encodes_to_the_golden_payload(self):
        assert self.CHECKPOINT.to_json() == self.PAYLOAD

    def test_golden_payload_decodes_bit_for_bit(self):
        restored = CoordinatorCheckpoint.from_json(self.PAYLOAD)
        assert restored == self.CHECKPOINT
        assert repr(restored.payments_sent["C2"]) == "(1.0, 2.0, -0.0)"
        assert isinstance(restored.reports["C2"][0], int)

    def test_ledger_bytes_are_little_endian(self):
        from repro.resilience.checkpoint import _Ledger

        rows = bytes.fromhex(
            "000000000000f03f"  # 1.0
            "0000000000000040"  # 2.0
            "0000000000000080"  # -0.0
        )
        assert base64.b64encode(rows[:8]) == b"AAAAAAAA8D8="
        ledger = _Ledger('["C1"]', rows, size=1, sent=1)
        assert repr(ledger.issued()) == "{'C1': [1.0, 2.0, -0.0]}"
        store = CheckpointStore()
        store.save(CoordinatorCheckpoint("verifying", ["C1"], 1.0))
        store.append_ledger(["C1"], [(1.0, 2.0, -0.0)])
        assert store._ledger.amounts == rows

    def test_a_string_is_stored_verbatim(self):
        store = CheckpointStore()
        store.save(self.PAYLOAD)
        assert store.saves == 1
        assert store.load() == self.CHECKPOINT
        assert store.load().to_json() == self.PAYLOAD


class TestPaymentJournal:
    """The O(1) write-ahead path under the sharded settle phase."""

    def _base(self):
        store = CheckpointStore()
        store.save(
            CoordinatorCheckpoint(
                phase="verifying",
                machine_names=["C1", "C2"],
                arrival_rate=6.0,
                payments_sent={"C1": (1.0, 0.5, 0.5)},
            )
        )
        return store

    def test_appends_fold_into_the_loaded_ledger(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        loaded = store.load()
        assert loaded.payments_sent == {
            "C1": (1.0, 0.5, 0.5),
            "C2": (2.0, 1.0, 1.0),
        }
        assert store.appends == 1

    def test_journal_survives_repeated_loads(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        assert store.load() == store.load()

    def test_fresh_save_subsumes_the_journal(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        store.save(store.load())  # compaction: snapshot absorbs journal
        assert store.load().payments_sent["C2"] == (2.0, 1.0, 1.0)
        store.append_payment("C1", (9.0, 9.0, 0.0))  # later entry wins
        assert store.load().payments_sent["C1"] == (9.0, 9.0, 0.0)

    def test_append_without_snapshot_is_refused(self):
        store = CheckpointStore()
        with pytest.raises(RuntimeError, match="no base snapshot"):
            store.append_payment("C1", (1.0, 0.0, 1.0))

    def test_awkward_values_round_trip(self):
        # Names that need escaping and non-finite floats round-trip
        # exactly.
        store = self._base()
        store.append_payment('C"\\2', (float("inf"), float("nan"), 1e-300))
        entry = store.load().payments_sent['C"\\2']
        assert entry[0] == float("inf")
        assert entry[1] != entry[1]  # NaN round-trips as NaN
        assert entry[2] == 1e-300

    def test_clear_drops_the_journal_too(self):
        store = self._base()
        store.append_payment("C2", (2.0, 1.0, 1.0))
        store.clear()
        assert store.load() is None
        assert not store.has_snapshot


class TestEventJournal:
    """Bid and report entries, and the settle ledger, on one snapshot."""

    def _bidding(self):
        store = CheckpointStore()
        store.save(
            CoordinatorCheckpoint(
                phase="bidding",
                machine_names=["C1", "C2", "C3"],
                arrival_rate=6.0,
                bids={"C2": 2.0},
            )
        )
        return store

    def test_bids_and_reports_fold_in_append_order(self):
        store = self._bidding()
        store.append_bid("C3", 3.0)
        store.append_bid("C1", 1.0)
        store.append_report("C3", (4, 0.75))
        store.append_report("C1", (2, 0.5))
        loaded = store.load()
        assert list(loaded.bids.items()) == [
            ("C2", 2.0), ("C3", 3.0), ("C1", 1.0),
        ]
        assert list(loaded.reports.items()) == [("C3", (4, 0.75)), ("C1", (2, 0.5))]
        assert isinstance(loaded.reports["C3"][0], int)
        assert store.appends == 4

    def test_awkward_names_and_values_round_trip(self):
        store = self._bidding()
        name = 'C"\\ \n\u00e9'
        store.append_bid(name, float("inf"))
        store.append_report(name, (0, float("nan")))
        store.append_payment(name, (-0.0, 5e-324, float("-inf")))
        loaded = store.load()
        assert loaded.bids[name] == float("inf")
        jobs, sojourn = loaded.reports[name]
        assert jobs == 0 and sojourn != sojourn
        assert repr(loaded.payments_sent[name]) == repr((-0.0, 5e-324, float("-inf")))

    def test_journal_without_snapshot_is_refused(self):
        store = CheckpointStore()
        with pytest.raises(RuntimeError, match="no base snapshot"):
            store.append_bid("C1", 1.0)
        with pytest.raises(RuntimeError, match="no base snapshot"):
            store.append_report("C1", (1, 1.0))
        with pytest.raises(RuntimeError, match="no base snapshot"):
            store.append_ledger(["C1"], [(1.0, 1.0, 0.0)])
        assert store.appends == 0

    def test_ledger_folds_only_the_sent_entries(self):
        store = self._bidding()
        amounts = [(1.5, 1.0, 0.5), (float("nan"), -0.0, 1e-300), (3.0, 2.0, 1.0)]
        store.append_ledger(["C1", 'C"2', "C3"], amounts)
        assert store.load().payments_sent == {}  # watermark 0 folds nothing
        store.mark_sent()
        store.mark_sent()
        paid = store.load().payments_sent
        assert list(paid) == ["C1", 'C"2']
        assert repr(paid['C"2']) == repr(amounts[1])
        store.mark_sent()
        with pytest.raises(RuntimeError, match="no unsent ledger entry"):
            store.mark_sent()
        assert store.appends == 1

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_a_run_of_marks_equals_single_marks(self, k):
        amounts = [(1.5, 1.0, 0.5), (float("nan"), -0.0, 1e-300), (3.0, 2.0, 1.0)]
        one_call, single = self._bidding(), self._bidding()
        for store in (one_call, single):
            store.append_ledger(["C1", 'C"2', "C3"], amounts)
        one_call.mark_sent(k)
        for _ in range(k):
            single.mark_sent()
        assert one_call.load().to_json() == single.load().to_json()
        assert len(one_call.load().payments_sent) == k

    def test_overrunning_the_ledger_changes_nothing(self):
        store = self._bidding()
        store.append_ledger(["C1", "C2", "C3"], np.arange(9.0).reshape(3, 3))
        store.mark_sent(2)
        before = store.load().to_json()
        for count in (2, 5, -1):
            with pytest.raises(RuntimeError, match="no unsent ledger entry"):
                store.mark_sent(count)
            assert store.load().to_json() == before
        store.mark_sent(1)
        assert list(store.load().payments_sent) == ["C1", "C2", "C3"]

    def test_ledger_folds_after_earlier_payments(self):
        store = self._bidding()
        store.append_payment("C1", (1.0, 1.0, 0.0))
        store.append_ledger(["C2", "C3"], np.array([[2.0, 2.0, 0.0], [3.0, 3.0, 0.0]]))
        store.mark_sent()
        assert list(store.load().payments_sent) == ["C1", "C2"]

    @pytest.mark.parametrize("drop", ["save", "clear"])
    def test_save_and_clear_drop_entries_and_ledger(self, drop):
        store = self._bidding()
        store.append_bid("C3", 3.0)
        store.append_report("C3", (1, 1.0))
        store.append_ledger(["C3"], [(9.0, 9.0, 0.0)])
        store.mark_sent()
        base = CoordinatorCheckpoint(
            phase="executing", machine_names=["C1"], arrival_rate=1.0
        )
        if drop == "save":
            store.save(base)
            assert store.load() == base
        else:
            store.clear()
            assert store.load() is None
        with pytest.raises(RuntimeError, match="no unsent ledger entry"):
            store.mark_sent()

    def test_mark_sent_without_a_ledger_is_refused(self):
        with pytest.raises(RuntimeError, match="no unsent ledger entry"):
            self._bidding().mark_sent()


class TestCheckpointProgression:
    def test_checkpoints_written_at_each_transition(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        sim.run()
        assert store.load().phase == "executing"
        assert store.load().loads is not None
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()
        assert store.load().phase == "done"
        assert len(store.load().payments_sent) == len(nodes)

    @pytest.mark.parametrize("n", [8, 64])
    def test_clean_round_snapshots_once_per_phase(self, n):
        # Snapshots count phases, not machines; every other write is a
        # journal entry (n - 1 bids, n - 1 reports, n payments).
        from repro.observability import instrumented
        from repro.resilience import RoundSupervisor

        supervisor = RoundSupervisor(
            [TruthfulAgent(1.0 + k % 5) for k in range(n)],
            0.5 * n,
            duration=5.0,
            rng=np.random.default_rng(0),
        )
        with instrumented() as instr:
            supervisor.run(1)
        counter = instr.metrics.counter
        assert counter("resilience.checkpoint.saves").value == 4
        assert counter("resilience.checkpoint.appends").value == 3 * n - 2

    def test_bids_checkpointed_as_they_arrive(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        sim.run()
        assert store.load().bids == {
            f"C{i+1}": v for i, v in enumerate(TRUE_VALUES)
        }


class TestRestore:
    def _run_to_verifying(self, store, fail_after: int):
        """Crash the coordinator after ``fail_after`` payments were sent."""
        from repro.resilience import CoordinatorCrash

        sim, network, coordinator, nodes = _build(
            store, fail_after_payments=fail_after
        )
        coordinator.start()
        sim.run()
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        with pytest.raises(CoordinatorCrash):
            sim.run()
        return sim, network, coordinator, nodes

    def test_restored_coordinator_pays_only_the_rest(self):
        store = CheckpointStore()
        sim, network, dead, nodes = self._run_to_verifying(store, fail_after=2)
        already_paid = dict(dead.payments_sent)
        assert len(already_paid) == 2

        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        assert restored.phase is ProtocolPhase.VERIFYING
        restored.resume()
        sim.run()
        assert restored.phase is ProtocolPhase.DONE
        # Everyone got exactly one notice; the pre-crash payments stand.
        for node in nodes:
            assert node.received_payment is not None
        for name, amounts in already_paid.items():
            assert restored.payments_sent[name] == amounts
        assert len(restored.payments_sent) == len(nodes)

    def test_restored_outcome_matches_uncrashed_run(self):
        # Crashed-and-restored payments must equal a run with no crash.
        store = CheckpointStore()
        sim, network, dead, nodes = self._run_to_verifying(store, fail_after=1)
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        restored.resume()
        sim.run()

        sim2, network2, clean, nodes2 = _build(CheckpointStore())
        clean.start()
        sim2.run()
        for node in nodes2:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim2.run()
        for name in clean.machine_names:
            assert restored.payments_sent[name] == pytest.approx(
                clean.payments_sent[name]
            )

    def test_restore_in_bidding_voids_the_round(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        # Crash before the simulator delivers anything: the checkpoint
        # still shows BIDDING with no loads announced.
        coordinator._save_checkpoint()
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        restored.resume()
        assert restored.phase is ProtocolPhase.VOIDED
        assert restored.payments_sent == {}

    def test_restore_in_executing_waits_for_reports(self):
        store = CheckpointStore()
        sim, network, coordinator, nodes = _build(store)
        coordinator.start()
        sim.run()
        assert coordinator.phase is ProtocolPhase.EXECUTING
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
            checkpoint_store=store,
        )
        restored.resume()
        assert restored.phase is ProtocolPhase.EXECUTING
        network._handlers[COORDINATOR_NAME] = restored.handle
        for node in nodes:
            node.machine.sojourn_times.append(0.5)
            node.report_completion()
        sim.run()
        assert restored.phase is ProtocolPhase.DONE

    def test_restored_coordinator_has_no_chaos_hook(self):
        store = CheckpointStore()
        sim, network, dead, nodes = self._run_to_verifying(store, fail_after=1)
        restored = SupervisedCoordinator.restore(
            store.load(),
            mechanism=VerificationMechanism(),
            network=network,
        )
        assert restored.fail_after_payments is None


class TestMinParticipants:
    def test_round_with_one_responder_is_voided(self):
        sim, network, coordinator, nodes = _build(min_participants=2)
        # Only C1's bid will arrive; everyone else stays silent.
        network._handlers["C2"] = lambda m, s: None
        network._handlers["C3"] = lambda m, s: None
        network._handlers["C4"] = lambda m, s: None
        coordinator.start()
        sim.run()
        coordinator.close_bidding(void_if_empty=True)
        assert coordinator.phase is ProtocolPhase.VOIDED
