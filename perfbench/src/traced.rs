//! The traced run: the same epochs driven through each crate's public
//! calls instead of `SimEngine::step`, timing every call from here.
//!
//! Per epoch this does what the engine does, in the same order:
//! `DemandModel::offered` (serially in the global arm, inside each PoP's
//! worker otherwise), `GlobalController::shape_demand` and `place`, one
//! scoped worker per PoP running `PopRuntime::step` and the health tier's
//! interface sampling, `GlobalController::observe`, then the
//! `HealthMonitor` observe calls. Controller phase times come from the
//! controller's own `epoch` telemetry events, read through a memory sink.
//! The run must reproduce the untraced engine's report byte for byte; the
//! fingerprint check enforces it.

use std::hint::black_box;
use std::time::Instant;

use ef_global::{GlobalController, PopReport};
use ef_health::{GlobalSignals, HealthMonitor, SeriesStore};
use ef_perf::{PathPerfModel, PerfConfig};
use ef_sim::runtime::{PopRuntime, StepOutcome};
use ef_sim::{MetricsStore, SimConfig};
use ef_telemetry::{Event, FieldValue, TelemetryHandle};
use ef_topology::{Deployment, PopId};
use ef_traffic::{DemandModel, DemandPoint};

use crate::untraced::RunSummary;
use crate::workload::{Scale, Workload};

/// The controller's phase fields on its `epoch` event, in event order.
pub const PHASES: [&str; 5] = [
    "projection_us",
    "allocation_us",
    "guards_us",
    "injection_us",
    "bmp_ingest_us",
];

/// Everything one traced repetition measured.
#[derive(Debug, Clone, Default)]
pub struct TracedRep {
    /// The run's outcome, to compare with the untraced run's.
    pub summary: Option<RunSummary>,
    /// `ef_topology::generate`, s.
    pub generate_s: f64,
    /// `PopRuntime::build`, summed over PoPs built one after another, s.
    pub pop_build_s: f64,
    /// Routes replayed into the PoPs' routers during build.
    pub routes: u64,
    /// Epochs stepped.
    pub epochs: u64,
    /// Pop-epochs stepped.
    pub pop_epochs: u64,
    /// Summed `DemandModel::offered` time, ns.
    pub offered_ns: f64,
    /// Demand points `DemandModel::offered` returned.
    pub demand_points: u64,
    /// `shape_demand` + `place` time (the tier check alone when the
    /// workload runs no global tier), ns.
    pub place_ns: f64,
    /// `GlobalController::observe` time (or the tier check), ns.
    pub observe_ns: f64,
    /// Health observe calls time (or the tier check), ns.
    pub health_ns: f64,
    /// Each `PopRuntime::step`, µs.
    pub pop_step_us: Vec<f64>,
    /// Summed traced epoch wall time, ns.
    pub epoch_wall_ns: f64,
    /// Summed critical path of the timed calls, ns: the serial calls plus
    /// the slowest PoP worker of each epoch.
    pub critical_ns: f64,
    /// Pop-epochs over which `router.fib_version()` did not change.
    pub fib_unchanged: u64,
    /// Pop-epochs with a controller (the base of `gen_unchanged`).
    pub controller_pop_epochs: u64,
    /// Pop-epochs over which the route collector's generation did not
    /// change.
    pub gen_unchanged: u64,
    /// Injections dropped by the loss gate (ledger deltas).
    pub injection_dropped: u64,
    /// RFC 7606 treat-as-withdraw downgrades (counter deltas).
    pub updates_downgraded: u64,
    /// Established sessions torn down over the run.
    pub session_resets: u64,
    /// Controller `epoch` events read, the base of the phase means.
    pub phase_events: u64,
    /// Summed phase fields of those events, µs, in [`PHASES`] order.
    pub phase_us: [f64; 5],
    /// Summed `total_us` of those events.
    pub epoch_total_us: f64,
    /// Mean announcements + withdrawals per pop-epoch.
    pub churn_per_epoch: f64,
    /// Mean active overrides per pop-epoch.
    pub overrides_active: f64,
    /// `BgpRouter::fib_lookup` time per lookup over the PoPs' lookup
    /// units after the run, ns.
    pub fib_lookup_ns: f64,
    /// Lookups the probe made.
    pub fib_lookups: u64,
}

/// What one PoP's worker measured in one epoch.
struct PopSample {
    pop_id: PopId,
    outcome: StepOutcome,
    offered_ns: f64,
    demand_points: u64,
    step_ns: f64,
    worker_ns: f64,
    fib_unchanged: bool,
    gen_unchanged: Option<bool>,
    injection_dropped: u64,
    updates_downgraded: u64,
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Loss-gate drops in a PoP's injection ledger so far.
fn ledger_dropped(pop: &PopRuntime) -> u64 {
    pop.controller.as_ref().map_or(0, |c| {
        let ledger = c.injection_ledger();
        ledger.announces_dropped + ledger.withdraws_dropped
    })
}

/// Runs one PoP's share of an epoch, sampling the public counters around
/// `PopRuntime::step`. `demand` is `None` when the worker computes its
/// own (the engine's arm without a global tier).
fn pop_worker(
    pop: &mut PopRuntime,
    t: u64,
    demand: Option<&[DemandPoint]>,
    model: (&DemandModel, &Deployment),
    perf_model: &PathPerfModel,
    store: Option<&mut SeriesStore>,
) -> PopSample {
    let start = Instant::now();
    let (mut offered_ns, mut demand_points) = (0.0, 0);
    let own;
    let demand = match demand {
        Some(d) => d,
        None => {
            let t0 = Instant::now();
            own = model.0.offered(model.1, pop.pop.id, t);
            offered_ns = ns_since(t0);
            demand_points = own.len() as u64;
            &own
        }
    };
    let fib_before = pop.router.fib_version();
    let gen_before = pop.controller.as_ref().map(|c| c.collector().generation());
    let dropped_before = ledger_dropped(pop);
    let downgraded_before = pop.router.updates_downgraded_total();
    let t0 = Instant::now();
    let outcome = pop.step(t, demand, perf_model);
    let step_ns = ns_since(t0);
    let fib_unchanged = pop.router.fib_version() == fib_before;
    let gen_after = pop.controller.as_ref().map(|c| c.collector().generation());
    let gen_unchanged = gen_before.zip(gen_after).map(|(a, b)| a == b);
    let injection_dropped = ledger_dropped(pop).saturating_sub(dropped_before);
    let updates_downgraded = pop
        .router
        .updates_downgraded_total()
        .saturating_sub(downgraded_before);
    if let (Some(store), Some(signals)) = (store, pop.health_signals()) {
        ef_health::sample_iface_util(store, signals);
    }
    PopSample {
        pop_id: pop.pop.id,
        outcome,
        offered_ns,
        demand_points,
        step_ns,
        worker_ns: ns_since(start),
        fib_unchanged,
        gen_unchanged,
        injection_dropped,
        updates_downgraded,
    }
}

/// Reads a numeric event field.
fn field_f64(event: &Event, name: &str) -> f64 {
    match event.field(name) {
        Some(FieldValue::U64(n)) => *n as f64,
        Some(FieldValue::I64(n)) => *n as f64,
        Some(FieldValue::F64(f)) => *f,
        _ => 0.0,
    }
}

/// Runs one traced repetition of `workload` at `seed`.
pub fn run(workload: Workload, seed: u64, scale: Scale) -> TracedRep {
    let mut rep = TracedRep::default();
    let (handle, sink) = TelemetryHandle::memory();

    // --- Set-up, as `SimEngine::with_deployment` does it, but with the
    // PoPs built one after another so each build is timed alone.
    let cfg = workload.config(seed, scale);
    let t0 = Instant::now();
    let mut deployment = ef_topology::generate(&cfg.gen);
    rep.generate_s = t0.elapsed().as_secs_f64();
    let cfg = SimConfig {
        telemetry: handle,
        ..workload.with_chaos(cfg, &deployment, scale)
    };
    assert!(
        cfg.chaos
            .as_ref()
            .is_none_or(|s| s.events.iter().all(|e| e.target.pop().is_some())),
        "the traced run does not interpret global-tier faults"
    );
    let demand_model = DemandModel::new(&deployment, cfg.demand_seed);
    let t0 = Instant::now();
    let mut pops: Vec<PopRuntime> = deployment
        .pops
        .iter()
        .map(|p| PopRuntime::build(&deployment, p.id, &cfg))
        .collect();
    rep.pop_build_s = t0.elapsed().as_secs_f64();
    rep.routes = deployment.routes.iter().map(|r| r.len() as u64).sum();
    let perf_model = PathPerfModel::new(PerfConfig {
        seed: cfg.demand_seed ^ 0xE0E0,
        ..Default::default()
    });
    let mut global = cfg.global.clone().map(|g| {
        GlobalController::new(&deployment, g, cfg.telemetry.clone())
            .expect("the workload's global config is valid")
    });
    let mut health = cfg
        .health
        .clone()
        .map(|h| HealthMonitor::new(h, cfg.telemetry.clone()));
    deployment.routes = Vec::new();
    sink.clear();

    // --- Epochs.
    rep.epochs = cfg.epochs();
    let pop_ids: Vec<u16> = pops.iter().map(|p| p.pop.id.0).collect();
    for epoch in 0..rep.epochs {
        let t = epoch * cfg.epoch_secs;
        let epoch_start = Instant::now();
        let mut critical_ns = 0.0;
        let stores: Vec<Option<&mut SeriesStore>> = match health.as_mut() {
            Some(monitor) => monitor.pop_stores(&pop_ids).into_iter().map(Some).collect(),
            None => pop_ids.iter().map(|_| None).collect(),
        };

        let t0 = Instant::now();
        let mut demands = global.as_ref().map(|_| {
            pops.iter()
                .map(|pop| (pop.pop.id, demand_model.offered(&deployment, pop.pop.id, t)))
                .collect::<Vec<_>>()
        });
        if let Some(demands) = &demands {
            let ns = ns_since(t0);
            rep.offered_ns += ns;
            critical_ns += ns;
            rep.demand_points += demands.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
        }

        let t0 = Instant::now();
        if let (Some(global), Some(demands)) = (global.as_mut(), demands.as_mut()) {
            global.shape_demand(t, demands);
            global.place(t, demands);
        }
        let ns = ns_since(t0);
        rep.place_ns += ns;
        critical_ns += ns;

        let model = (&demand_model, &deployment);
        let perf_model = &perf_model;
        let samples: Vec<PopSample> = std::thread::scope(|s| {
            let workers: Vec<_> = pops
                .iter_mut()
                .zip(stores)
                .enumerate()
                .map(|(i, (pop, store))| {
                    let demand = demands.as_ref().map(|d| d[i].1.as_slice());
                    s.spawn(move || pop_worker(pop, t, demand, model, perf_model, store))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("PoP step worker panicked"))
                .collect()
        });
        critical_ns += samples.iter().map(|p| p.worker_ns).fold(0.0, f64::max);

        let t0 = Instant::now();
        if let Some(global) = global.as_mut() {
            let stamp = t / cfg.epoch_secs;
            let mut reports = vec![Some(PopReport::default()); pops.len()];
            for sample in &samples {
                reports[sample.pop_id.0 as usize] = Some(PopReport {
                    residual_overloaded: sample.outcome.residual_overloaded,
                    dropped_mbps: sample.outcome.dropped_mbps,
                    offered_mbps: sample.outcome.offered_mbps,
                    headroom_mbps: sample.outcome.headroom_mbps,
                    epoch: stamp,
                });
            }
            global.observe(&reports);
        }
        let ns = ns_since(t0);
        rep.observe_ns += ns;
        critical_ns += ns;

        let t0 = Instant::now();
        if let Some(monitor) = health.as_mut() {
            let wall_us = epoch_start.elapsed().as_micros() as u64;
            for pop in &pops {
                if let Some(signals) = pop.health_signals() {
                    monitor.observe_epoch_presampled(signals, Some(wall_us));
                }
            }
            if let Some(global) = global.as_ref() {
                let snap = global.guard_snapshot();
                monitor.observe_global(&GlobalSignals {
                    t_secs: t,
                    delivered_reports: snap.delivered_reports as u64,
                    expected_reports: snap.expected_reports as u64,
                    stale_pops: snap.stale_pops as u64,
                    max_report_age: snap.max_report_age,
                    fail_static: snap.fail_static,
                    flips: snap.flips,
                    suppressed_restores: snap.suppressed_restores,
                    moved_mbps: global.moved_last_mbps(),
                });
            }
        }
        let ns = ns_since(t0);
        rep.health_ns += ns;
        critical_ns += ns;
        rep.epoch_wall_ns += ns_since(epoch_start);
        rep.critical_ns += critical_ns;

        for sample in &samples {
            rep.pop_epochs += 1;
            rep.offered_ns += sample.offered_ns;
            rep.demand_points += sample.demand_points;
            rep.pop_step_us.push(sample.step_ns / 1e3);
            rep.fib_unchanged += u64::from(sample.fib_unchanged);
            if let Some(unchanged) = sample.gen_unchanged {
                rep.controller_pop_epochs += 1;
                rep.gen_unchanged += u64::from(unchanged);
            }
            rep.injection_dropped += sample.injection_dropped;
            rep.updates_downgraded += sample.updates_downgraded;
        }
        for event in sink.events_named("epoch") {
            rep.phase_events += 1;
            for (sum, phase) in rep.phase_us.iter_mut().zip(PHASES) {
                *sum += field_f64(&event, phase);
            }
            rep.epoch_total_us += field_f64(&event, "total_us");
        }
        sink.clear();
    }

    // --- Wrap-up, as `SimEngine::take_metrics` does it.
    let sessions_up = pops.iter().all(|p| p.all_sessions_up());
    rep.session_resets = pops.iter().map(|p| p.session_resets()).sum();
    let (lookups, lookup_ns) = fib_lookup_probe(&pops, &deployment, &cfg);
    rep.fib_lookups = lookups;
    rep.fib_lookup_ns = lookup_ns;
    let t_end = rep.epochs * cfg.epoch_secs;
    let mut metrics = MetricsStore::new();
    for pop in &mut pops {
        pop.finish(t_end);
        metrics.merge(std::mem::take(&mut pop.metrics));
    }
    let records = &metrics.pop_epochs;
    let n = records.len().max(1) as f64;
    rep.churn_per_epoch = records
        .iter()
        .map(|r| (r.churn_announced + r.churn_withdrawn) as f64)
        .sum::<f64>()
        / n;
    rep.overrides_active = records
        .iter()
        .map(|r| r.overrides_active as f64)
        .sum::<f64>()
        / n;
    rep.summary = Some(RunSummary::new(&metrics, sessions_up));
    rep
}

/// Times `BgpRouter::fib_lookup` over every PoP's lookup units (each
/// universe prefix, or both its halves under split forwarding), repeated
/// until at least a million lookups. Returns (lookups, ns per lookup).
fn fib_lookup_probe(pops: &[PopRuntime], deployment: &Deployment, cfg: &SimConfig) -> (u64, f64) {
    let split = cfg.controller.split_depth > 0;
    let units: Vec<_> = deployment
        .universe
        .prefixes
        .iter()
        .flat_map(|info| match info.prefix.halves() {
            Some((lo, hi)) if split => vec![lo, hi],
            _ => vec![info.prefix],
        })
        .collect();
    let per_pass = (units.len() * pops.len()).max(1) as u64;
    let passes = 1_000_000u64.div_ceil(per_pass);
    let start = Instant::now();
    for _ in 0..passes {
        for pop in pops {
            for unit in &units {
                black_box(pop.router.fib_lookup(black_box(*unit)));
            }
        }
    }
    let lookups = passes * per_pass;
    (lookups, ns_since(start) / lookups as f64)
}
