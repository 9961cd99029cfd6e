"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``.

The tracer is tested on fake layers with a fake clock, so its self-time
arithmetic is exact.  The smoke tests run the real benchmark briefly
(``--smoke``) and check it against ``BENCHMARK.json``; one of them
corrupts a payment and expects the run to fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import trace as layer_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ tracer


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.layers`` (outer calls inner) and ``fakepkg.alias``, which
    did ``from fakepkg.layers import inner``; time moves only by advance()."""
    clock = _Clock()
    monkeypatch.setattr(layer_trace, "time", clock)

    layers = types.ModuleType("fakepkg.layers")
    layers.advance = clock.advance
    exec(
        textwrap.dedent(
            """
            def inner():
                advance(2.0)

            def outer():
                advance(1.0)
                inner()
                advance(3.0)

            class Store:
                def save(self):
                    advance(0.5)
                    inner()

                @staticmethod
                def helper():
                    advance(0.125)
            """
        ),
        vars(layers),
    )
    alias = types.ModuleType("fakepkg.alias")
    alias.inner = layers.inner
    exec("def call():\n    inner()\n", vars(alias))
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.layers", layers), ("fakepkg.alias", alias)):
        monkeypatch.setitem(sys.modules, name, module)
    return clock, layers, alias


def test_self_time_is_duration_minus_children(fake_package):
    clock, layers, alias = fake_package
    originals = (layers.inner, layers.outer, layers.Store.__dict__["save"],
                 layers.Store.__dict__["helper"])
    tracer = layer_trace.Tracer(package="fakepkg")
    tracer.wrap(layers, "inner", "inner")
    tracer.wrap(layers, "outer", "outer")
    tracer.wrap(layers.Store, "save", "store")
    tracer.wrap(layers.Store, "helper", "store")

    layers.outer()  # outside an op: not traced
    assert tracer.snapshot()["layers"]["outer"] == [0, 0.0]
    with tracer.op():
        clock.advance(0.5)
        layers.outer()             # outer 1 + 3 self, inner 2
        alias.call()               # the aliased import is caught: inner 2
        layers.Store().save()      # store 0.5 self, inner 2
        layers.Store.helper()      # store 0.125
        clock.advance(0.25)
    tracer.restore()

    snapshot = tracer.snapshot()
    # layer -> [calls, self seconds]
    assert snapshot["layers"] == {
        "inner": [3, 6.0], "outer": [1, 4.0], "store": [2, 0.625],
        layer_trace.UNATTRIBUTED: [1, 0.75],
    }
    assert (snapshot["ops"], snapshot["op_seconds"]) == (1, 11.375)
    # Every span's parent is the span it ran in; the op is the root.
    by_id = {span[0]: span for span in tracer.spans}
    (root,) = [s for s in tracer.spans if s[1] == "op"]
    assert all(s[5] == root[0] for s in tracer.spans)
    assert sorted(by_id[s[4]][1] for s in tracer.spans if s[1] == "inner") == [
        "op", "outer", "store"
    ]
    # Restored everywhere, the alias included.
    assert (layers.inner, layers.outer, layers.Store.__dict__["save"],
            layers.Store.__dict__["helper"]) == originals
    assert alias.inner is layers.inner


def test_repro_layers_install_and_restore():
    import repro.protocol.execution as execution
    import repro.resilience.supervisor as supervisor

    before = supervisor.dispatch_batched
    tracer = layer_trace.Tracer()
    layer_trace.install_layers(tracer)
    try:
        assert supervisor.dispatch_batched is execution.dispatch_batched
        assert supervisor.dispatch_batched is not before
    finally:
        tracer.restore()
    assert supervisor.dispatch_batched is before is execution.dispatch_batched
    names = {name for name, _ in layer_trace.PER_LAYER_METRICS}
    assert names == {m["name"] for m in SPEC["per_layer"]}


# ----------------------------------------------------------------- compare


def _write_run(path: Path, op_ms: float, setup_s: float = 1.0) -> None:
    path.mkdir(parents=True)
    records = [
        {"workload": "supervised", "record": "setup", "part": 0, "seconds": setup_s},
        {"workload": "supervised", "record": "ops", "part": 0, "phase": "timed",
         "traced": False, "ms": [op_ms] * 10, "ref_ms": [bench.REFERENCE_MS] * 10,
         "rounds": 10, "attempted": 10, "failed": 0},
        {"workload": "supervised", "record": "rss", "part": 0, "mib": 100.0},
    ]
    (path / "metrics.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    (path / "manifest.json").write_text(json.dumps({"trace": False}))


def _verdicts(capsys, a: Path, b: Path) -> dict[str, str]:
    bench.compare(a, b)
    rows = capsys.readouterr().out.splitlines()[1:]
    return {row.split()[1]: row.split()[-1] for row in rows}


def test_compare_verdicts(tmp_path, capsys):
    for k, ms in enumerate((10.0, 10.1, 9.9)):
        _write_run(tmp_path / "a" / f"run{k}", ms)
        _write_run(tmp_path / "same" / f"run{k}", ms * 1.02)
        _write_run(tmp_path / "slow" / f"run{k}", ms * 1.3)
        _write_run(tmp_path / "noisy" / f"run{k}", ms * (1.0, 1.5, 0.7)[k])
    assert set(_verdicts(capsys, tmp_path / "a", tmp_path / "same").values()) == {"ok"}
    assert _verdicts(capsys, tmp_path / "a", tmp_path / "slow")["op_p50_ms"] == "regressed"
    assert _verdicts(capsys, tmp_path / "a", tmp_path / "noisy")["op_p50_ms"] == "unresolved"


def test_times_are_scaled_by_the_calibration_around_them():
    # The host ran 2x slow during the second op, and its calibration shows it.
    record = {"ms": [10.0, 20.0, 15.0],
              "ref_ms": [bench.REFERENCE_MS, 2 * bench.REFERENCE_MS, bench.REFERENCE_MS]}
    assert bench._at_reference_speed(record) == [10.0, 20.0 * 0.5 ** bench.OP_SCALING, 15.0]


# ------------------------------------------------------------------- smoke


def _run(*args: str, env_path: Path | None = None, cwd: Path = ROOT):
    env = None if env_path is None else dict(os.environ, PYTHONPATH=str(env_path))
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric(tmp_path, trace):
    done = _run("--smoke", "--trace", trace, "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    (run_dir,) = tmp_path.iterdir()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary == bench.summarize(bench.read_records(run_dir))
    key, specs = ("layers", SPEC["per_layer"]) if trace == "1" else (
        "metrics", SPEC["end_to_end"])
    expected = {m["name"]: m["unit"] for m in specs}
    for workload in (w["name"] for w in SPEC["workloads"]):
        emitted = summary[workload][key]
        assert {name: m["unit"] for name, m in emitted.items()} == expected, workload
        if trace == "0":
            # Only campaign has a warm pass; elsewhere warm is every op.
            warm_is_all = emitted["warm_op_p50_ms"] == emitted["op_p50_ms"]
            assert warm_is_all == (workload != "campaign"), workload
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert {"seed", "argv", "commit", "dirty", "nproc", "host", "python", "numpy",
            "scipy"} <= set(manifest)


CORRUPT_PAYMENT = """
import repro.distributed.shard as shard

_settle = shard.CoordinatorShard.settle


def settle(self, amounts):
    ledger = _settle(self, amounts)
    name = next(iter(ledger))
    payment, compensation, bonus = ledger[name]
    ledger[name] = (payment + 1.0, compensation, bonus)
    return ledger


shard.CoordinatorShard.settle = settle
"""


def test_corrupted_payment_fails_the_run(tmp_path):
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(CORRUPT_PAYMENT)
    done = _run("--smoke", "--workload", "sharded", "--out", str(tmp_path / "out"),
                env_path=hook)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run("--workload", "supervised", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
