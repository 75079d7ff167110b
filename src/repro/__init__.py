"""Reproduction of "The Impact of Asynchrony on Stability of MAC"
(Garncarek, Kowalski, Kutten, Murach — ICDCS 2024).

A partially asynchronous multiple access channel where an online
adversary controls every slot's length within ``[1, R]``, plus the
paper's algorithms and adversarial constructions:

* :mod:`repro.core` — exact-time channel model and simulator;
* :mod:`repro.timing` — slot-length adversaries;
* :mod:`repro.arrivals` — leaky-bucket-with-cost packet injection;
* :mod:`repro.algorithms` — ABS, AO-ARRoW, CA-ARRoW and baselines;
* :mod:`repro.lowerbounds` — executable Theorems 2, 4 and 5;
* :mod:`repro.analysis` — paper bounds, stability tests, MSR search;
* :mod:`repro.obs` — probes, metrics, JSONL run artifacts, profiling;
* :mod:`repro.exec` — process-pool grids, result cache, bench diff;
* :mod:`repro.service` — the transport-agnostic run service
  (``RunRequest`` → ``execute`` → ``RunResult``) and the ``repro
  serve`` HTTP daemon + ``repro submit`` client built on it;
* :mod:`repro.viz` — ASCII schedule/phase timelines.

Quickstart::

    from repro.core import Simulator
    from repro.timing import CyclicPattern
    from repro.arrivals import UniformRate
    from repro.algorithms import CAArrow

    n, R = 4, 2
    sim = Simulator(
        {i: CAArrow(i, n, R) for i in range(1, n + 1)},
        CyclicPattern({1: [1, 2], 2: [2, 1], 3: ["3/2"], 4: [2]}),
        max_slot_length=R,
        arrival_source=UniformRate(rho="1/2", targets=[1, 2, 3, 4], assumed_cost=R),
    )
    sim.run(until_time=1000)
    assert sim.channel.stats.collisions == 0   # CA-ARRoW never collides
"""

__version__ = "1.0.0"

from . import (
    algorithms,
    analysis,
    arrivals,
    core,
    exec,
    faults,
    lowerbounds,
    obs,
    service,
    timing,
    viz,
)

__all__ = [
    "algorithms",
    "analysis",
    "arrivals",
    "core",
    "exec",
    "faults",
    "lowerbounds",
    "obs",
    "service",
    "timing",
    "viz",
    "__version__",
]
