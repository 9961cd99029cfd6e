"""End-to-end benchmark: five workloads, one command, every metric by name.

Run every workload (or one) and print each metric with its unit::

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--smoke] [--out DIR]

Each workload runs in five fresh processes in turn (``workloads.py``),
each building its own inputs from the seed and timing closed-loop ops
for a fifth of ``--seconds`` (together at least 100 ops); every op's
output is checked, and the last process runs the parity check.  Set-up
time is the median of the five.  Times are scaled to a fixed host
speed by a calibration (one fixed ``json.dumps``) timed around every op
(``_at_reference_speed``); ``summary.json`` keeps the unscaled medians
under ``wall``.  ``--trace 1`` instead runs one process that splits the
time between an untraced half and a half traced layer by layer
(``trace.py``), and reports the per-layer metrics.

Every run writes ``<out>/<run>/``: ``manifest.json`` (seed, argv,
commit, host, versions), ``metrics.jsonl`` (raw samples),
``summary.json`` (derived from ``metrics.jsonl`` only), and with
tracing ``layers.json`` and ``spans.jsonl``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every op and parity check
passed.

Compare two sets of runs (directories of run directories)::

    python benchmarks/e2e/run.py compare SET_A SET_B
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "results"

WORKLOADS = ("campaign", "supervised", "horizon", "chaos", "sharded")

#: (name, unit, better, bound): the end-to-end metrics of BENCHMARK.json.
#: ``ops_passed_frac`` is 1 - failed/attempted ops, the failure rate in a
#: form that is never 0; its bound is below one failed op in any run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.15),
    ("rounds_per_s", "rounds/s", "higher", 0.10),
    ("op_p50_ms", "ms", "lower", 0.10),
    ("op_p90_ms", "ms", "lower", 0.15),
    ("warm_op_p50_ms", "ms", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("ops_passed_frac", "fraction", "higher", 0.001),
)
UNITS = {name: unit for name, unit, _, _ in END_TO_END}

SECONDS = 5.0
MIN_OPS = 100          # every timed run has >= 10 samples beyond its p90
PROCESSES = 5          # measuring processes per untraced run (5 set-up samples)
DEADLINE_S = 170.0     # a whole single-workload run ends within this
#: Times are reported at the speed of a host that runs the calibration
#: (``workloads.calibrate``) in this many milliseconds.
REFERENCE_MS = 1.0
#: A loaded host slows the calibration more than the ops, and set-up
#: (imports, input generation) less still, so times are scaled by the
#: calibration ratio to a power below 1.  Both powers were fitted on six
#: sets of ten runs per workload (1,400 processes, calibration 0.8 to
#: 2.4 ms): 0.9 left the fewest op-metric spreads over a third of their
#: bound (26 of 120; 45 with the power 1), and 0.7 kept the sets' set-up
#: medians within 10% of each other (22% with the power 1).
OP_SCALING = 0.9
SETUP_SCALING = 0.7
#: A process's set-up is scaled by the median calibration of its first
#: ops, the ones nearest to its set-up in time (11% between sets with
#: the median of all its ops instead).
SETUP_REF_OPS = 5


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not: an op failed)."""


# ------------------------------------------------------------------ stats


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _at_reference_speed(record: dict) -> list[float]:
    """One ops record's times, scaled to the reference host speed.

    Each op's time is multiplied by the ratio of ``REFERENCE_MS`` to the
    mean of the two calibration times that bracket it, to the power
    ``OP_SCALING``, so an op that ran while the host was slow reports
    about the same number as one that did not.
    """
    return [
        ms * (REFERENCE_MS / ref) ** OP_SCALING
        for ms, ref in zip(record["ms"], record["ref_ms"])
    ]


def _pooled(ops: list[dict], phase: str) -> list[float]:
    """One phase's op times across every process of the run."""
    return [x for r in ops if r["phase"] == phase for x in _at_reference_speed(r)]


def _end_to_end(records: list[dict]) -> dict[str, float]:
    """End-to-end metric values from one workload's untraced records."""
    ops = [r for r in records if r["record"] == "ops" and not r["traced"]]
    values: dict[str, float] = {}
    # A process's first record is its main phase, so these are its first ops.
    refs: dict[int, list[float]] = {}
    for r in ops:
        refs.setdefault(r["part"], r["ref_ms"][:SETUP_REF_OPS])
    setup = [
        r["seconds"] * (REFERENCE_MS / statistics.median(refs[r["part"]])) ** SETUP_SCALING
        for r in records if r["record"] == "setup" and refs.get(r["part"])
    ]
    if setup:
        values["setup_s"] = statistics.median(setup)
    ms = [x for r in ops for x in _at_reference_speed(r)]
    if ms:
        values["rounds_per_s"] = sum(r["rounds"] for r in ops) / (sum(ms) / 1e3)
    main = _pooled(ops, ops[0]["phase"]) if ops else []
    if main:
        values["op_p50_ms"] = statistics.median(main)
        values["op_p90_ms"] = _p90(main)
        # Only campaign has a result cache to read; elsewhere every op is warm.
        values["warm_op_p50_ms"] = statistics.median(_pooled(ops, "warm") or main)
    rss = [r["mib"] for r in records if r["record"] == "rss"]
    if rss:
        values["peak_rss_mb"] = max(rss)
    attempted = sum(r["attempted"] for r in ops)
    if attempted:
        values["ops_passed_frac"] = 1.0 - sum(r["failed"] for r in ops) / attempted
    return values


def _wall(records: list[dict]) -> dict[str, float]:
    """The unscaled medians: op wall time and calibration time."""
    ops = [r for r in records if r["record"] == "ops" and not r["traced"]]
    main = [x for r in ops if r["phase"] == ops[0]["phase"] for x in r["ms"]]
    if not main:
        return {}
    return {
        "op_p50_ms": statistics.median(main),
        "calibration_ms": statistics.median(x for r in ops for x in r["ref_ms"]),
    }


def _layers(records: list[dict]) -> dict[str, float] | None:
    """Per-layer metric values from one workload's traced records."""
    import trace as layer_trace

    snapshot = next((r for r in records if r["record"] == "trace"), None)
    if snapshot is None:
        return None
    ops = [r for r in records if r["record"] == "ops"]
    main = ops[0]["phase"]
    untraced = _pooled([r for r in ops if not r["traced"]], main)
    traced = _pooled([r for r in ops if r["traced"]], main)
    overhead = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if traced and untraced else 0.0
    )
    rounds = sum(r["rounds"] for r in ops if r["traced"])
    return layer_trace.layer_metrics(snapshot, rounds, overhead)


def summarize(records: list[dict]) -> dict:
    """``summary.json``: every workload's metrics, derived from the raw records."""
    import trace as layer_trace

    units = dict(layer_trace.PER_LAYER_METRICS)
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    summary = {}
    for workload, recs in by_workload.items():
        ops = [r for r in recs if r["record"] == "ops"]
        attempted = sum(r["attempted"] for r in ops)
        failed = sum(r["failed"] for r in ops)
        parity = {r["name"]: r["ok"] for r in recs if r["record"] == "parity"}
        entry = {
            "attempted": attempted,
            "failed": failed,
            "parity": parity,
            "correct": bool(attempted) and not failed and all(parity.values()),
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in _end_to_end(recs).items()
            },
            "wall": _wall(recs),
        }
        layers = _layers(recs)
        if layers is not None:
            entry["layers"] = {
                name: {"value": value, "unit": units[name]}
                for name, value in layers.items()
            }
        summary[workload] = entry
    return summary


def read_records(run_dir: Path) -> list[dict]:
    with open(run_dir / "metrics.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------- running


def _portable(arg: str) -> str:
    """An absolute path inside the checkout, made relative to it."""
    path = Path(arg)
    if path.is_absolute():
        try:
            return str(path.resolve().relative_to(ROOT))
        except ValueError:
            pass
    return arg


def _manifest(args, argv: list[str]) -> dict:
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*cmd: str) -> str:
            return subprocess.run(
                ["git", "-C", str(ROOT), *cmd],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()

        try:
            commit = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass

    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "seed": args.seed,
        "argv": [_portable(arg) for arg in argv],
        "workloads": args.workloads,
        "seconds": args.seconds,
        "min_ops": args.min_ops,
        "processes": 1 if args.trace else args.processes,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "host": {
            "node": platform.node(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
        },
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _run_dir(out: Path, args) -> Path:
    label = args.workload or "all"
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    name = f"{stamp}-{label}-seed{args.seed}" + ("-trace" if args.trace else "")
    name += "-smoke" if args.smoke else ""
    run_dir, k = out / name, 1
    while run_dir.exists():
        run_dir, k = out / f"{name}-{k}", k + 1
    run_dir.mkdir(parents=True)
    return run_dir


def _child(workload: str, deadline: float, *options: str) -> dict:
    """Run ``workloads.py`` in a fresh process; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # One thread: OpenBLAS's own pool would spin on the second core.
    env["OPENBLAS_NUM_THREADS"] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"{workload}: out of time before starting")
    command = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        *options, "--t0", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: timed out after {timeout:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(
            f"{workload}: worker exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_workload(args, workload: str, run_dir: Path, deadline: float) -> list[dict]:
    """Measure one workload; returns its raw records for ``metrics.jsonl``.

    Untraced, the run is split over ``args.processes`` fresh processes,
    one after another, each with its own inputs from (seed, part): their
    pooled samples average out what differs between processes (hash
    seeds, memory layout, the inputs themselves), and each contributes a
    set-up time.  The last one also runs the parity check.  Traced, one
    process measures an untraced and a traced half.
    """
    common = ["--seed", str(args.seed), "--workdir", str(run_dir / "work" / workload)]
    if args.trace:
        spans = str(run_dir / "spans.jsonl")
        results = [_child(workload, deadline, *common, "--seconds", str(args.seconds),
                          "--min-ops", str(args.min_ops), "--trace", "--spans", spans,
                          "--parity")]
    else:
        parts = args.processes
        results = [
            _child(workload, deadline, *common, "--part", str(part),
                   "--seconds", str(args.seconds / parts),
                   "--min-ops", str(-(-args.min_ops // parts)),
                   *(["--parity"] if part == parts - 1 else []))
            for part in range(parts)
        ]
    records: list[dict] = []

    def add(record: str, **fields) -> None:
        records.append({"workload": workload, "record": record, **fields})

    for result in results:
        part = result["part"]
        if not args.trace:
            add("setup", part=part, seconds=result["setup_s"])
        for traced in ("untraced", "traced"):
            if traced not in result:
                continue
            for phase, data in result[traced]["phases"].items():
                add("ops", part=part, phase=phase, traced=traced == "traced", **data)
            if result[traced]["errors"]:
                add("errors", part=part, messages=result[traced]["errors"])
        if "rss_mib" in result:
            add("rss", part=part, mib=result["rss_mib"])
        for name, ok in result["parity"].items():
            add("parity", name=name, ok=ok)
        if "trace" in result:
            add("trace", **result["trace"])
    return records


def _print_table(summary: dict) -> None:
    for workload, entry in summary.items():
        verdict = "ok" if entry["correct"] else "FAILED"
        print(
            f"[{workload}] {verdict}: {entry['attempted'] - entry['failed']}/"
            f"{entry['attempted']} ops passed their checks, parity "
            + (", ".join(f"{k}={'ok' if v else 'BROKEN'}" for k, v in entry["parity"].items())
               or "n/a")
        )
        shown = entry.get("layers") or entry["metrics"]
        for name, metric in shown.items():
            print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")


def run(args, argv: list[str]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + (
        DEADLINE_S if args.workload else DEADLINE_S * len(WORKLOADS)
    )
    args.workloads = [args.workload] if args.workload else list(WORKLOADS)
    run_dir = _run_dir(Path(args.out), args)
    (run_dir / "manifest.json").write_text(json.dumps(_manifest(args, argv), indent=2) + "\n")
    records: list[dict] = []
    try:
        for workload in args.workloads:
            try:
                records.extend(_run_workload(args, workload, run_dir, deadline))
            except BenchmarkError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    finally:
        with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        shutil.rmtree(run_dir / "work", ignore_errors=True)

    summary = summarize(records)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if args.trace:
        layers = {w: e["layers"] for w, e in summary.items() if "layers" in e}
        (run_dir / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")

    _print_table(summary)
    for record in records:
        if record["record"] == "errors":
            for message in record["messages"][:3]:
                print(f"[{record['workload']}] op failure: {message}", file=sys.stderr)
    key = "layers" if args.trace else "metrics"
    if args.workload:
        metrics = summary[args.workload][key]
    else:
        metrics = {
            f"{w}:{name}": metric
            for w, entry in summary.items()
            for name, metric in entry[key].items()
        }
    correct = all(entry["correct"] for entry in summary.values())
    print(f"results: {run_dir}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["attempted"] for e in summary.values()),
        "failed": sum(e["failed"] for e in summary.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------- compare


def _set_values(set_dir: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run in the set."""
    run_dirs = [
        run_dir
        for run_dir in (
            [set_dir] if (set_dir / "metrics.jsonl").exists()
            else sorted(p.parent for p in set_dir.glob("*/metrics.jsonl"))
        )
        # Traced runs time half as many ops, with tracing on half of them.
        if not json.loads((run_dir / "manifest.json").read_text())["trace"]
    ]
    if not run_dirs:
        raise BenchmarkError(f"no runs (metrics.jsonl) under {set_dir}")
    values: dict[tuple[str, str], list[float]] = {}
    for run_dir in run_dirs:
        for workload, entry in summarize(read_records(run_dir)).items():
            for name, metric in entry["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(set_a: Path, set_b: Path) -> int:
    """One row per workload x metric: medians, quartiles, bound, verdict.

    ``unresolved``: a set's quartile spread exceeds the bound (set-up time
    excepted), unless every run of B reads better than every run of A.
    ``regressed``: B's median is worse than A's by more than the bound.
    """
    a, b = _set_values(set_a), _set_values(set_b)
    print(f"{'workload':<11} {'metric':<16} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28} {'bound':>6}  verdict")
    bad = 0
    for workload in WORKLOADS:
        for name, _, better, bound in END_TO_END:
            if (workload, name) not in a or (workload, name) not in b:
                continue
            va, vb = a[workload, name], b[workload, name]
            qa, qb = _quartiles(va), _quartiles(vb)
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            if better == "lower":
                worse = (qb[1] - qa[1]) / qa[1]
                b_dominates = max(vb) < min(va)
            else:
                worse = (qa[1] - qb[1]) / qa[1]
                b_dominates = min(vb) > max(va)
            if name != "setup_s" and spread > bound and not b_dominates:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"{workload:<11} {name:<16} {_cell(qa):>28} {_cell(qb):>28} "
                  f"{bound:>6.1%}  {verdict}")
    return 1 if bad else 0


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
        parser.add_argument("set_a", type=Path)
        parser.add_argument("set_b", type=Path)
        args = parser.parse_args(argv[1:])
        try:
            return compare(args.set_a, args.set_b)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload (default {SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="a short self-check run (about 2 s per workload)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.3 if args.seconds is None else args.seconds
        args.min_ops, args.processes = 2, 1
    else:
        args.seconds = SECONDS if args.seconds is None else args.seconds
        args.min_ops, args.processes = MIN_OPS, PROCESSES
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args, argv)


if __name__ == "__main__":
    sys.exit(main())
