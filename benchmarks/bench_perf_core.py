"""Core perf suite: the tick-lattice timebase must stay fast.

Thin pytest wrapper over :mod:`repro.exec.perf` (the engine behind
``repro bench perf``).  Running this file regenerates
``benchmarks/results/perf_core.{json,txt}`` (or the same files under
``REPRO_BENCH_RESULTS_DIR``) in the same *full* mode the committed
artifact was produced in, so ``repro bench diff`` stays meaningful.

Parity (lattice execution == fraction execution, observable-for-
observable) is asserted inside :func:`repro.exec.perf.run_perf` before
any number is reported.  The speedup assertion here is deliberately
looser than the >= 3x measured on a quiet machine: shared CI runners
add noise, and the regression *trajectory* is policed separately by
``repro bench diff --tolerance`` against ``benchmarks/baselines``.
"""

from repro.exec.perf import run_perf, write_report

from .reporting import results_dir

#: CI-safe floor; dev machines measure >= 3x (see results/perf_core.txt).
MIN_SPEEDUP = 1.5


def _table_with(document, column):
    """The one report table with ``column`` among its headers."""
    (table,) = [t for t in document["tables"] if column in t["headers"]]
    return table


def test_perf_core(benchmark):
    document = benchmark.pedantic(run_perf, rounds=1, iterations=1)
    write_report(document, results_dir())

    case_table = _table_with(document, "D")
    speedup_table = _table_with(document, "speedup")
    fleet_table = _table_with(document, "engines")
    assert case_table["headers"][-1] == "parity"
    assert all(row[-1] == "ok" for row in case_table["rows"])
    assert speedup_table["rows"][0][0] == "geomean"
    parity = fleet_table["headers"].index("parity")
    assert all(row[parity] == "ok" for row in fleet_table["rows"])
    for name, cell in document["meta"]["throughput"].items():
        assert cell["speedup"] >= MIN_SPEEDUP, (
            f"{name}: lattice speedup {cell['speedup']}x below "
            f"{MIN_SPEEDUP}x floor"
        )
    assert document["meta"]["geomean_speedup"] >= MIN_SPEEDUP
