"""The best-of-N wall-clock timer the speedup benches share.

A bench run as ``python benchmarks/bench_<name>.py`` (or collected by
``pytest benchmarks/``) has this directory on ``sys.path``, so
``from timing import best_seconds`` resolves to this module.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["best_seconds"]


def best_seconds(fn: Callable[[], object], repeats: int) -> float:
    """The fastest of ``repeats`` timed calls of ``fn()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
