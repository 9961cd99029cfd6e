"""The five end-to-end workloads, and the process that measures one.

Each workload builds its inputs from the seed, then exposes ``op(phase)``
(one timed operation, returning the rounds it completed and its output)
and ``check(phase, output)`` (the output's correctness problems, empty
when sound).  ``parity()`` runs once per run, after all timings.

``run.py`` starts this module as several fresh processes per workload
("parts", each with its own inputs derived from the seed)::

    python benchmarks/e2e/workloads.py --workload supervised --seed 0 \\
        --part 2 --seconds 3 --min-ops 20 --t0 <time.monotonic() at spawn>

and reads the JSON object printed on its last line.  Load is closed
loop: one caller, in this one process, issues the next op when the
previous one has returned; no pools, threads or worker processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

N_SUPERVISED = 64          # machines in the supervised/horizon/chaos rounds
HORIZON_ROUNDS = 100       # rounds per horizon op
CHAOS_PLAN_ROUNDS = 300    # fault plan length; ops cycle through it
N_SHARDED = 10_000         # agents in the sharded service
SHARDS = 4
SHARDED_RATE = 64.0        # jobs/s and window as in the A24 sharded bench
SHARDED_DURATION = 10.0
PARITY_ROUNDS = 20
#: 2,560 floats: encoding them takes about 1 ms on the baselines' host.
_CALIBRATION_PAYLOAD = {f"k{i}": [j * 1.1 for j in range(40)] for i in range(64)}


def calibrate() -> float:
    """Milliseconds one fixed ``json.dumps`` takes right now.

    A shared host's speed drifts, by up to 2x over minutes, and every op
    slows with it; ``run.py`` divides each op's time by the mean of this
    call's times just before and just after the op, so the drift cancels
    out of the reported times.  Encoding JSON was chosen because,
    measured over half an hour of drift, op times moved in proportion to
    it (a pure-Python integer loop slowed only about two thirds as much
    as the workloads did).
    """
    start = time.perf_counter()
    json.dumps(_CALIBRATION_PAYLOAD)
    return (time.perf_counter() - start) * 1e3


def _streams(seed: int, part: int, count: int) -> list[np.random.Generator]:
    """Independent generators for one process (``part``) of a seeded run."""
    children = np.random.SeedSequence([seed, part]).spawn(count)
    return [np.random.default_rng(child) for child in children]


def _same(left, right) -> bool:
    """Bit-for-bit equality of nested results (floats by repr, arrays by bytes)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, np.ndarray):
        return (
            left.shape == right.shape
            and left.dtype == right.dtype
            and left.tobytes() == right.tobytes()
        )
    if is_dataclass(left):
        return all(
            _same(getattr(left, f.name), getattr(right, f.name)) for f in fields(left)
        )
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(_same(left[k], right[k]) for k in left)
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(_same, left, right))
    if isinstance(left, float):
        return repr(left) == repr(right)
    return left == right


# -------------------------------------------------------------- workloads


class _Supervised:
    """Sequential ``RoundSupervisor`` at n=64, deterministic service."""

    phases = ("timed",)
    horizon = False

    def __init__(self, seed: int, part: int, workdir: Path) -> None:
        from repro.resilience import RoundSupervisor, check_round_invariants

        self._check = check_round_invariants
        self._supervisor_cls = RoundSupervisor
        self.seed, self.part = seed, part
        values_rng, round_rng = _streams(seed, part, 2)
        self.true_values = values_rng.uniform(1.0, 8.0, size=N_SUPERVISED)
        self.supervisor = self._make(self.horizon, round_rng)
        self.honest = self.supervisor.honest_names()

    def _make(self, horizon: bool, rng: np.random.Generator):
        from repro.agents import TruthfulAgent

        return self._supervisor_cls(
            [TruthfulAgent(float(t)) for t in self.true_values],
            0.4 * N_SUPERVISED,
            duration=40.0,
            deterministic_service=True,
            rng=rng,
            horizon=horizon,
        )

    def op(self, phase: str):
        return 1, [self.supervisor.run_round()]

    def check(self, phase: str, output) -> list[str]:
        return [
            str(v)
            for result in output
            for v in self._check(result, honest_names=self.honest)
        ]

    def parity(self) -> dict[str, bool]:
        return {}

    def close(self) -> None:
        pass


class _Horizon(_Supervised):
    """The same supervisor with ``horizon=True``; one op is ``run(100)``."""

    horizon = True

    def op(self, phase: str):
        return HORIZON_ROUNDS, self.supervisor.run(HORIZON_ROUNDS).rounds

    def parity(self) -> dict[str, bool]:
        # Fresh supervisors on an identical stream: the fused engine must
        # reproduce the sequential loop's RoundResults bit for bit.
        rounds = [
            self._make(horizon, _streams(self.seed, self.part, 2)[1])
            .run(PARITY_ROUNDS).rounds
            for horizon in (False, True)
        ]
        return {"fused-equals-sequential": _same(rounds[0], rounds[1])}


class _Chaos(_Supervised):
    """Sequential supervisor driven round by round under a fault plan."""

    def __init__(self, seed: int, part: int, workdir: Path) -> None:
        from repro.resilience import FaultPlan

        super().__init__(seed, part, workdir)
        plan_seed = int(np.random.SeedSequence([seed, part]).generate_state(1)[0])
        self.plan = FaultPlan.generate(
            CHAOS_PLAN_ROUNDS, self.supervisor.machine_names, plan_seed
        )
        self._next = 0

    def op(self, phase: str):
        faults = self.plan[self._next % len(self.plan)]
        self._next += 1
        return 1, [self.supervisor.run_round(faults)]


class _Sharded:
    """``ShardedCoordinatorService`` at n=10^4, 4 shards, serial executor."""

    phases = ("timed",)

    def __init__(self, seed: int, part: int, workdir: Path) -> None:
        from repro.distributed import ShardedCoordinatorService

        self.seed, self.part = seed, part
        values_rng, service_rng = _streams(seed, part, 2)
        self.true_values = values_rng.uniform(1.0, 8.0, size=N_SHARDED)
        self._service_cls = ShardedCoordinatorService
        self.service = self._make(service_rng)
        self._notices = {name: 0 for name in self.service.machine_names}

    def _agents(self):
        from repro.agents import TruthfulAgent

        return [TruthfulAgent(float(t)) for t in self.true_values]

    def _make(self, rng: np.random.Generator):
        return self._service_cls(
            self._agents(),
            SHARDED_RATE,
            shards=SHARDS,
            duration=SHARDED_DURATION,
            executor="serial",
            rng=rng,
        )

    def op(self, phase: str):
        return 1, self.service.run_round()

    def check(self, phase: str, result) -> list[str]:
        problems = []
        notices = result.payment_notices
        paid_twice = [n for n in result.names if notices[n] - self._notices[n] != 1]
        if paid_twice:
            problems.append(f"at-most-once: {len(paid_twice)} machines not paid once")
        self._notices = dict(notices)
        total = sum(result.loads.values())
        if abs(total - SHARDED_RATE) > 1e-9 * SHARDED_RATE:
            problems.append(f"feasibility: loads sum to {total!r}")
        ledger = np.array([result.payments[n][0] for n in result.names])
        if not np.array_equal(ledger, result.outcome.payments.payment):
            problems.append("ledger: payments sent differ from the outcome")
        return problems

    def parity(self) -> dict[str, bool]:
        from repro.protocol import run_protocol

        service = self._make(_streams(self.seed, self.part, 2)[1])
        try:
            sharded = service.run_round()
        finally:
            service.close()
        mono = run_protocol(
            self._agents(),
            SHARDED_RATE,
            duration=SHARDED_DURATION,
            rng=_streams(self.seed, self.part, 2)[1],
            deterministic_service=True,
        )
        return {
            "sharded-equals-run_protocol": bool(
                np.array_equal(sharded.outcome.payments.payment, mono.outcome.payments.payment)
                and sharded.jobs_routed == mono.jobs_routed
            )
        }

    def close(self) -> None:
        self.service.close()


class _Campaign:
    """``reproduce_all`` + ``run_tournament`` on an empty on-disk cache
    (cold), then again on the same cache (warm).

    The inputs are the paper's Table 1 configuration, which the checked
    claims are pinned to, so the seed does not change them.

    One cache directory serves every pair of passes, emptied with
    ``ResultCache.clear`` and flushed with ``os.sync`` after each warm
    pass; its subdirectories stay, and so do the output directories.
    Without that, the kernel time of a cold pass's 68 file creations
    grew with the deletions still pending from earlier passes, from
    about 5 ms to over 40 ms, which timed the host's file system rather
    than the program.
    """

    phases = ("cold", "warm")

    def __init__(self, seed: int, part: int, workdir: Path) -> None:
        from repro.experiments.runner import reproduce_all
        from repro.experiments.tournament import run_tournament
        from repro.parallel import CampaignEngine, ResultCache

        self._reproduce_all = reproduce_all
        self._run_tournament = run_tournament
        self._engine_cls = CampaignEngine
        self.cache = ResultCache(workdir / "cache")
        self.workdir = workdir
        self._engine = None
        self._cold = None

    def op(self, phase: str):
        if phase == "cold":
            self._engine = self._engine_cls(workers=0, cache=self.cache)
        bundle = self._reproduce_all(self.workdir / phase, engine=self._engine)
        return 1, (bundle, self._run_tournament(self._engine))

    def _observable(self, output) -> str:
        bundle, tournament = output
        files = {
            name: (bundle.output_dir / name).read_text()
            for name in bundle.files_written
            if name != "MANIFEST.txt"  # records cache hit counts
        }
        return repr((bundle.report, files, tournament.to_json()))

    def check(self, phase: str, output) -> list[str]:
        if phase == "warm":
            cold, self._cold = self._cold, None
            warm = self._observable(output)
            # Untimed: the next cold pass starts from an empty cache and
            # a file system with no deletions pending.
            self.cache.clear()
            os.sync()
            if cold is None or cold != warm:
                return ["warm results differ from cold results"]
            return []
        self._cold = None
        bundle, tournament = output
        problems = []
        report = bundle.report
        if len(report.checks) != 15 or not report.all_passed:
            failed = [c.claim for c in report.failures()]
            problems.append(f"claims: {report.n_passed}/{len(report.checks)} pass {failed}")
        optimum = next(c for c in report.checks if c.claim.startswith("True1 optimal"))
        if optimum.measured != "78.43":
            problems.append(f"L* = {optimum.measured}, expected 78.43")
        collusion = {r.pattern for r in tournament.rows if r.pattern_kind == "collusion"}
        for row in tournament.standings():
            name = row["mechanism"]
            if row["profitable_individual_patterns"]:
                problems.append(f"{name}: a profitable individual lie")
            expected = len(collusion) if name == "observed" else 0
            if not collusion or row["profitable_collusion_patterns"] != expected:
                problems.append(
                    f"{name}: {row['profitable_collusion_patterns']} profitable "
                    f"colluding pairs, expected {expected}"
                )
        self._cold = self._observable(output)
        return problems

    def parity(self) -> dict[str, bool]:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "campaign": _Campaign,
    "supervised": _Supervised,
    "horizon": _Horizon,
    "chaos": _Chaos,
    "sharded": _Sharded,
}


# --------------------------------------------------------------- measuring


def _measure(workload, seconds: float, min_ops: int, tracer=None) -> dict:
    """Closed-loop ops until ``seconds`` of wall time and ``min_ops`` ops.

    Each op is bracketed by two :func:`calibrate` calls, one just before
    and one just after it; their mean is kept in ``ref_ms`` beside the
    op's ``ms``.
    """
    phases = {
        phase: {"ms": [], "ref_ms": [], "rounds": 0, "attempted": 0, "failed": 0}
        for phase in workload.phases
    }
    errors: list[str] = []
    started = time.perf_counter()
    done = 0
    while done < min_ops or time.perf_counter() - started < seconds:
        for phase in workload.phases:
            record = phases[phase]
            record["attempted"] += 1
            before = calibrate()
            try:
                start = time.perf_counter()
                if tracer is None:
                    rounds, output = workload.op(phase)
                else:
                    with tracer.op():
                        rounds, output = workload.op(phase)
                elapsed = time.perf_counter() - start
                ref_ms = (before + calibrate()) / 2
                problems = workload.check(phase, output)
            except Exception:  # a failed op is counted, and the run goes on
                problems = [traceback.format_exc(limit=3)]
            if problems:
                record["failed"] += 1
                errors.extend(problems[:2])
                continue
            record["ms"].append(elapsed * 1e3)
            record["ref_ms"].append(ref_ms)
            record["rounds"] += rounds
        done += 1
    return {"phases": phases, "errors": errors[:10]}


def run_workload(args) -> dict:
    setup_start = time.monotonic()
    workload = WORKLOADS[args.workload](args.seed, args.part, Path(args.workdir))
    # From process start (the parent's spawn time) to the first timed op.
    setup_s = time.monotonic() - (args.t0 if args.t0 is not None else setup_start)
    result: dict = {"workload": args.workload, "part": args.part, "setup_s": setup_s}
    try:
        if not args.trace:
            result["untraced"] = _measure(workload, args.seconds, args.min_ops)
            result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            import trace as layer_trace

            half, ops = args.seconds / 2, max(1, args.min_ops // 2)
            result["untraced"] = _measure(workload, half, ops)
            tracer = layer_trace.Tracer()
            try:
                layer_trace.install_layers(tracer)
                result["traced"] = _measure(workload, half, ops, tracer)
            finally:
                tracer.restore()
            result["trace"] = tracer.snapshot()
            if args.spans:
                tracer.write_spans(args.spans, workload=args.workload)
        result["parity"] = workload.parity() if args.parity else {}
    finally:
        workload.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Measure one end-to-end workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--part", type=int, default=0,
                        help="which process of the run this is; inputs derive "
                        "from (seed, part)")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--min-ops", type=int, default=20)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--workdir", default="e2e-work")
    parser.add_argument("--parity", action="store_true",
                        help="run the workload's parity check after measuring")
    parser.add_argument("--trace", action="store_true",
                        help="measure an untraced half, then a traced half")
    parser.add_argument("--spans", default=None, help="append traced spans here")
    args = parser.parse_args(argv)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
