"""Closed-form paper bounds + empirical stability/throughput analyses."""

from .bounds import (
    abs_listen_threshold_bit0,
    abs_listen_threshold_bit1,
    abs_phase_count,
    abs_phase_slot_bound,
    abs_slot_upper_bound,
    ao_election_slots,
    ao_long_silence_time_bound,
    ao_queue_bound_L,
    ao_queue_bound_S,
    ao_sync_extra_wait,
    ao_sync_silence_threshold,
    ca_gap_slots,
    ca_queue_bound_L,
    mbtf_queue_bound,
    sst_lower_bound_slots,
    thm4_minimum_start_slot,
)
from .experiments import (
    CellFailure,
    CellResult,
    GridReport,
    grid_key,
    run_cell,
    run_grid,
    run_grid_report,
    write_csv,
)
from .latency import LatencySummary, latency_by_station, percentile, summarize_latencies
from .metrics import RunMetrics, collect_metrics
from .msr import MSREstimate, RateTrial, estimate_msr, run_at_rate
from .stability import (
    PhaseSegment,
    RoundSegment,
    StabilityVerdict,
    assess_stability,
    segment_rounds,
    utilization,
    wasted_time,
)

__all__ = [
    "CellFailure",
    "CellResult",
    "ElectionRecord",
    "GridReport",
    "LatencySummary",
    "LemmaViolation",
    "MSREstimate",
    "PhaseSegment",
    "RateTrial",
    "RoundSegment",
    "RunMetrics",
    "StabilityVerdict",
    "abs_listen_threshold_bit0",
    "abs_listen_threshold_bit1",
    "abs_phase_count",
    "abs_phase_slot_bound",
    "abs_slot_upper_bound",
    "ao_election_slots",
    "ao_long_silence_time_bound",
    "ao_queue_bound_L",
    "ao_queue_bound_S",
    "ao_sync_extra_wait",
    "ao_sync_silence_threshold",
    "assess_stability",
    "check_all_lemmas",
    "check_lemma1_phase_alignment",
    "check_lemma2_liveness",
    "check_lemma3_bit_groups",
    "check_lemma4_no_disjoint_transmissions",
    "ca_gap_slots",
    "ca_queue_bound_L",
    "collect_metrics",
    "estimate_msr",
    "grid_key",
    "latency_by_station",
    "mbtf_queue_bound",
    "percentile",
    "run_at_rate",
    "run_cell",
    "run_grid",
    "run_grid_report",
    "run_instrumented_election",
    "segment_rounds",
    "sst_lower_bound_slots",
    "summarize_latencies",
    "thm4_minimum_start_slot",
    "utilization",
    "wasted_time",
    "write_csv",
]


# The lemma checks instrument ABS, so importing them at package-init
# time would be circular (algorithms -> analysis.bounds -> here ->
# algorithms).  Resolve them lazily instead (PEP 562).
_LEMMA_EXPORTS = {
    "ElectionRecord",
    "LemmaViolation",
    "check_all_lemmas",
    "check_lemma1_phase_alignment",
    "check_lemma2_liveness",
    "check_lemma3_bit_groups",
    "check_lemma4_no_disjoint_transmissions",
    "run_instrumented_election",
}


def __getattr__(name):
    if name in _LEMMA_EXPORTS:
        from . import lemma_checks

        return getattr(lemma_checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
