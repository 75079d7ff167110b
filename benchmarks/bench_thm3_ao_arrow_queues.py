"""Theorem 3: AO-ARRoW's queue-cost bound L across the parameter space.

For every (n, R, rho) cell: run AO-ARRoW under the worst-case cyclic
slot adversary with a bursty admissible workload, record the peak
backlog cost (packets x R, the conservative cost reading) and compare
against the closed-form ``L``.  Reproduced shape: measured peaks are
bounded, far below ``L`` (the paper's bound is loose by design), and
degrade as ``1/(1 - rho)`` when rho -> 1.

The grid is declared as :class:`~repro.scenarios.ScenarioSpec` values —
the same declarative form the CLI and ``scenarios/*.json`` files use —
so every cell is cache-keyed by its canonical JSON.  The cells are
independent, so the grid routes through the :mod:`repro.service` layer
onto the :mod:`repro.exec` engine: ``REPRO_BENCH_JOBS=4`` fans it out
over four workers with bit-identical results, and completed cells are
memoized in ``.repro-cache/`` (``REPRO_BENCH_NO_CACHE=1`` to bypass).
The artifact's ``meta`` block records wall time, jobs, and cache
counts.
"""

from fractions import Fraction

from repro.analysis import ao_queue_bound_L, run_grid_report
from repro.scenarios import ScenarioSpec

from .reporting import emit, grid_meta, service_grid, table

GRID = [
    (2, 1, "1/2"), (2, 2, "1/2"), (4, 2, "1/2"),
    (2, 2, "3/10"), (2, 2, "7/10"), (2, 2, "9/10"),
    (4, 4, "1/2"), (8, 2, "1/2"),
]
HORIZON = 20_000
BURST = 3
STRIDE = 4


def _spec(n, R, rho):
    return ScenarioSpec(
        algorithm="ao-arrow",
        n=n,
        max_slot=R,
        schedule="worst",
        rho=rho,
        burst=BURST,
        horizon=HORIZON,
        name=f"ao-arrow n={n} R={R} rho={rho}",
        labels={"n": str(n), "R": str(R), "rho": rho},
    )


def _run_cell(n, R, rho):
    """One cell, engine semantics (kept for ad-hoc timing recipes)."""
    return run_grid_report([_spec(n, R, rho)], backlog_stride=STRIDE).results[0]


def test_queue_bound_grid(benchmark):
    def run():
        return service_grid(
            [_spec(n, R, rho) for n, R, rho in GRID],
            backlog_stride=STRIDE,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    burstiness = BURST * 2  # burst_size packets at assumed cost R = 2 avg
    for (n, R, rho), result in zip(GRID, report.results):
        bound = ao_queue_bound_L(n, R, rho, burstiness, R)
        peak_cost = result.peak_backlog * Fraction(R)
        rows.append(
            (
                n,
                R,
                rho,
                "stable" if result.stable else "UNSTABLE",
                result.peak_backlog,
                float(peak_cost),
                f"{float(bound):.0f}",
                result.metrics.delivered,
            )
        )
    emit(
        "thm3_ao_queue_bounds",
        ["Theorem 3: AO-ARRoW peak queue cost vs closed-form bound L",
         f"bursty workload (bursts of {BURST}), worst-case slot adversary"]
        + table(
            ["n", "R", "rho", "verdict", "peak_pkts", "peak_cost", "L",
             "delivered"],
            rows,
        ),
        meta=grid_meta(report),
    )
    for (n, R, rho), result in zip(GRID, report.results):
        assert result.stable, f"unstable at n={n} R={R} rho={rho}"
        assert result.peak_backlog * Fraction(R) <= ao_queue_bound_L(
            n, R, rho, burstiness, R
        )


def test_backlog_degrades_toward_rate_one(benchmark):
    """The 1/(1-rho) shape: peaks grow as rho -> 1."""
    rhos = ("1/2", "3/4", "9/10", "19/20")

    def run():
        return service_grid(
            [_spec(3, 2, rho) for rho in rhos],
            backlog_stride=STRIDE,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    peaks = {
        rho: result.peak_backlog for rho, result in zip(rhos, report.results)
    }
    emit(
        "thm3_rho_degradation",
        ["AO-ARRoW peak backlog vs rho (n=3, R=2): 1/(1-rho) shape"]
        + table(["rho", "peak_backlog"], peaks.items()),
        meta=grid_meta(report),
    )
    assert peaks["19/20"] >= peaks["1/2"]
