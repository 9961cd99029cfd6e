"""Load-dependent latency models for heterogeneous machines.

The paper models each computer ``i`` by a *linear* load-dependent latency
function ``l_i(x) = t_i x`` (Section 2).  This subpackage provides that
model plus the two queueing-theoretic models the paper points to as its
justification and as related work:

* :class:`LinearLatencyModel` — the paper's model (refs [1, 19] therein);
* :class:`MM1LatencyModel` — M/M/1 delay ``1/(mu - x)`` used by the
  companion mechanism paper (ref [8]);
* :class:`MG1LatencyModel` — M/G/1 sojourn time via Pollaczek–Khinchine,
  whose light-load waiting time is linear in the arrival rate — the
  paper's stated physical interpretation of the linear model.

All models are vectorised over machines: a model holds the parameter
array for a whole cluster and evaluates per-machine latencies for a load
vector in one shot.
"""

from repro.latency.base import LatencyModel
from repro.latency.linear import LinearLatencyModel
from repro.latency.mm1 import MM1LatencyModel
from repro.latency.mg1 import MG1LatencyModel
from repro.latency.affine import AffineLatencyModel

__all__ = [
    "LatencyModel",
    "LinearLatencyModel",
    "MM1LatencyModel",
    "MG1LatencyModel",
    "AffineLatencyModel",
]
