"""API-surface integrity: exports resolve, are documented, and round-trip.

These tests keep the public API honest as the package grows: every
name in ``__all__`` must exist, every public callable and class must
carry a docstring, and the subpackage exports must be reachable from
their documented locations.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.latency",
    "repro.allocation",
    "repro.mechanism",
    "repro.agents",
    "repro.system",
    "repro.protocol",
    "repro.resilience",
    "repro.observability",
    "repro.distributed",
    "repro.dynamic",
    "repro.experiments",
    "repro.analysis",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_import_does_not_load_networkx(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.distributed; "
             "print('networkx' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert probe.stdout.strip() == "False"


class TestDocstrings:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_objects_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_methods_documented(self):
        from repro import VerificationMechanism

        for name, member in inspect.getmembers(VerificationMechanism):
            if name.startswith("_") or not callable(member):
                continue
            assert (member.__doc__ or "").strip(), f"undocumented method {name}"


class TestReadmeQuickstartRuns:
    def test_quickstart_snippet(self):
        # The exact code from README's Quickstart section.
        from repro import VerificationMechanism, paper_cluster

        cluster = paper_cluster()
        mech = VerificationMechanism()
        outcome = mech.run(cluster.true_values, arrival_rate=20.0)
        assert round(outcome.realised_latency, 2) == 78.43
        assert round(outcome.frugality_ratio, 2) == 2.14

        bids = cluster.true_values.copy()
        bids[0] = 0.5
        execs = cluster.true_values.copy()
        execs[0] = 2.0
        lied = mech.run(bids, 20.0, execs, true_values=cluster.true_values)
        assert round(lied.realised_latency, 2) == 130.07
        assert round(float(lied.payments.utility[0]), 1) == -32.5

    def test_package_docstring_example(self):
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0

    def test_module_doctests(self):
        import doctest

        from repro.allocation import pr as pr_module
        from repro.latency import linear as linear_module
        from repro.mechanism import compensation_bonus as cb_module

        for module in (pr_module, linear_module, cb_module):
            results = doctest.testmod(module, verbose=False)
            assert results.failed == 0, module.__name__
