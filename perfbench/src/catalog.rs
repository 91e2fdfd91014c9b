//! The metric catalog: every metric the benchmark prints, with its unit,
//! and for each per-layer metric the end-to-end metric it should move and
//! the workloads it should move on. `BENCHMARK.json` lists the same names
//! and units; a test keeps the two equal.

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
    }
}

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
/// `failed_frac` is not among them: it is 0 whenever the run is correct,
/// and the result line carries it as `failed` of `attempted`.
pub const END_TO_END: [EndToEnd; 6] = [
    // ef_topology::generate + SimEngine::with_deployment.
    e2e("setup_s", "s", false),
    // SimEngine::step wall time.
    e2e("epoch_ms_p50", "ms", false),
    e2e("epoch_ms_p95", "ms", false),
    // Pop-epochs over summed step wall time.
    e2e("pop_epochs_per_s", "1/s", true),
    // VmHWM of the workload's own process.
    e2e("peak_rss_mb", "MB", false),
    // Dropped over offered Mbps-epochs, from RunReport.
    e2e("drop_frac", "ratio", false),
];

/// A per-layer metric: name, unit, whether higher is better, the
/// end-to-end metric it should move, and the workloads it should move on.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        moves,
        on,
    }
}

/// Per-layer metrics, printed by a traced run (`--trace 1`). Times are
/// means: per epoch for the serial calls, per pop-epoch for the PoP step
/// and the controller phases (so `sim.pop_step_other_us` +
/// `core.epoch_total_us` is the mean pop-step, and the five phases plus
/// `core.unattributed_us` are `core.epoch_total_us`).
pub const PER_LAYER: [PerLayer; 32] = [
    layer(
        "topology.generate_s",
        "s",
        false,
        "setup_s",
        "full_table (~0 elsewhere)",
    ),
    layer(
        "sim.pop_build_s",
        "s",
        false,
        "setup_s",
        "full_table (~0 elsewhere)",
    ),
    layer(
        "sim.build_ns_per_route",
        "ns",
        false,
        "setup_s",
        "full_table (~0 elsewhere)",
    ),
    layer("sim.setup_rss_mb", "MB", false, "peak_rss_mb", "full_table"),
    layer(
        "traffic.offered_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak (serial demand in the global arm)",
    ),
    layer(
        "traffic.demand_points",
        "count",
        false,
        "epoch_ms_p50",
        "steady_peak",
    ),
    layer(
        "global.place_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak only; no change elsewhere",
    ),
    layer(
        "global.observe_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak only; no change elsewhere",
    ),
    layer(
        "health.observe_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak only; no change elsewhere",
    ),
    layer("sim.pop_step_us_p50", "us", false, "epoch_ms_p50", "all"),
    layer(
        "sim.pop_step_us_p95",
        "us",
        false,
        "epoch_ms_p95",
        "all, mostly fault_churn",
    ),
    layer(
        "core.projection_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak, full_table",
    ),
    layer(
        "core.allocation_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak",
    ),
    layer("core.guards_us", "us", false, "epoch_ms_p50", "steady_peak"),
    layer(
        "core.injection_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak",
    ),
    layer(
        "core.bmp_ingest_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak",
    ),
    layer(
        "core.epoch_total_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak, full_table",
    ),
    layer(
        "core.unattributed_us",
        "us",
        false,
        "epoch_ms_p50",
        "steady_peak (audit, reconcile, explain)",
    ),
    layer(
        "sim.pop_step_other_us",
        "us",
        false,
        "epoch_ms_p50",
        "full_table, steady_peak",
    ),
    layer(
        "sim.fib_cache_valid_frac",
        "ratio",
        true,
        "epoch_ms_p50",
        "full_table, steady_peak",
    ),
    layer(
        "net_types.fib_lookup_ns",
        "ns",
        false,
        "epoch_ms_p50",
        "full_table, steady_peak",
    ),
    layer(
        "core.collector_gen_unchanged_frac",
        "ratio",
        true,
        "epoch_ms_p95",
        "fault_churn",
    ),
    layer(
        "core.churn_per_epoch",
        "count",
        false,
        "epoch_ms_p95",
        "fault_churn",
    ),
    layer(
        "core.overrides_active",
        "count",
        false,
        "epoch_ms_p95",
        "fault_churn",
    ),
    layer(
        "core.injection_dropped",
        "count",
        false,
        "epoch_ms_p95",
        "fault_churn",
    ),
    layer(
        "bgp.session_resets",
        "count",
        false,
        "epoch_ms_p95",
        "fault_churn",
    ),
    layer(
        "bgp.updates_downgraded",
        "count",
        false,
        "epoch_ms_p95",
        "fault_churn",
    ),
    layer(
        "sim.engine_overhead_us",
        "us",
        false,
        "pop_epochs_per_s",
        "fault_churn (~0 on full_table)",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        false,
        "pop_epochs_per_s",
        "fault_churn (~0 on full_table)",
    ),
    layer(
        "trace.coverage_frac",
        "ratio",
        true,
        "pop_epochs_per_s",
        "fault_churn (~0 on full_table)",
    ),
    layer(
        "sim.traced_pop_epochs",
        "count",
        true,
        "none: the base of the sim.* and core.* ratios",
        "all",
    ),
    layer(
        "net_types.fib_lookups",
        "count",
        true,
        "none: the base of net_types.fib_lookup_ns",
        "all",
    ),
];
