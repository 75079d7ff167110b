"""Theorem 6: CA-ARRoW is universally stable and collision-free.

Same grid as the AO-ARRoW bench, plus the headline invariant checked
on every cell: the channel's collision counter is exactly zero.  The
peak queue cost is compared to the paper's ``2nR^2(rho+1)/(1-rho)``
bound.

Like the Theorem 3 bench, the grid is declared as
:class:`~repro.scenarios.ScenarioSpec` values (canonical-JSON cache
keys, replayable via ``repro scenario run``) and routes through the
:mod:`repro.service` layer onto the :mod:`repro.exec` engine — ``REPRO_BENCH_JOBS=4`` parallelizes it
bit-identically, and ``.repro-cache/`` memoizes completed cells
(``REPRO_BENCH_NO_CACHE=1`` to bypass).
"""

from fractions import Fraction

from repro.analysis import ca_queue_bound_L, run_grid_report
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


def _spec(n, R, rho, algorithm="ca-arrow"):
    return ScenarioSpec(
        algorithm=algorithm,
        n=n,
        max_slot=R,
        schedule="worst",
        rho=rho,
        burst=BURST,
        horizon=HORIZON,
        name=f"{algorithm} n={n} R={R} rho={rho}",
        labels={"algorithm": algorithm, "n": str(n), "R": str(R), "rho": rho},
    )


def _run_cell(n, R, rho):
    """One cell, engine semantics (kept for ad-hoc timing recipes)."""
    return run_grid_report([_spec(n, R, rho)], backlog_stride=STRIDE).results[0]


def test_queue_bound_and_collision_freedom_grid(benchmark):
    def run():
        return service_grid(
            [_spec(n, R, rho) for n, R, rho in GRID],
            backlog_stride=STRIDE,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    burstiness = BURST * 2
    for (n, R, rho), result in zip(GRID, report.results):
        bound = ca_queue_bound_L(n, R, rho, burstiness)
        rows.append(
            (
                n,
                R,
                rho,
                "stable" if result.stable else "UNSTABLE",
                result.peak_backlog,
                f"{float(bound):.0f}",
                result.metrics.collisions,
                result.metrics.delivered,
            )
        )
    emit(
        "thm6_ca_queue_bounds",
        ["Theorem 6: CA-ARRoW peak queue cost vs 2nR^2(rho+1)/(1-rho)",
         "collision column must be identically 0"]
        + table(
            ["n", "R", "rho", "verdict", "peak_pkts", "bound", "collisions",
             "delivered"],
            rows,
        ),
        meta=grid_meta(report),
    )
    for (n, R, rho), result in zip(GRID, report.results):
        assert result.stable
        assert result.metrics.collisions == 0
        assert result.peak_backlog * Fraction(R) <= ca_queue_bound_L(
            n, R, rho, burstiness
        )


def test_ca_vs_ao_overhead(benchmark):
    """Design-axis ablation: control messages buy lower queue peaks.

    CA-ARRoW spends channel time on empty signals but avoids election
    overhead; AO-ARRoW pays elections but sends no control traffic.
    The bench reports both peaks side by side on identical workloads.
    """
    rhos = ("1/2", "9/10")

    def run():
        specs = [_spec(3, 2, rho, algorithm) for rho in rhos
                 for algorithm in ("ca-arrow", "ao-arrow")]
        return service_grid(specs, backlog_stride=STRIDE)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    paired = dict(zip(rhos, zip(report.results[0::2], report.results[1::2])))
    rows = [
        (
            rho,
            ca.peak_backlog,
            ao.peak_backlog,
            ca.metrics.control_transmissions,
            ao.metrics.collisions,
        )
        for rho, (ca, ao) in paired.items()
    ]
    emit(
        "thm6_ca_vs_ao_ablation",
        ["Model-feature ablation at n=3, R=2 (identical workloads)",
         "CA pays control messages; AO pays election collisions"]
        + table(
            ["rho", "CA_peak", "AO_peak", "CA_ctrl_msgs", "AO_collisions"],
            rows,
        ),
        meta=grid_meta(report),
    )
    # Both bounded; CA's peaks should not exceed AO's by more than noise
    # (the paper's CA bound is asymptotically smaller).
    for rho, (ca, ao) in paired.items():
        assert ca.peak_backlog <= ao.peak_backlog + 10
