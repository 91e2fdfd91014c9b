//! One benchmark run: repetitions of a workload, the output checks, and
//! the metrics they yield.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile};
use crate::traced::{self, TracedRep, PHASES};
use crate::untraced::{self, RunSummary, UntracedRep};
use crate::workload::{Scale, Workload};

/// Untraced repetitions a run makes at least, however short its time
/// budget, so that every per-epoch minimum and every median has three
/// values to choose from.
pub const MIN_REPS: usize = 3;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was obtained: its sample count or base.
    pub basis: String,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    /// Pop-epochs attempted, over every repetition.
    pub attempted: u64,
    /// Pop-epochs that failed a check.
    pub failed: u64,
    /// Run-level check failures, one line each.
    pub problems: Vec<String>,
    /// The run's metrics, in catalog order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A value that is not finite (which fails the
    /// run) prints as `null`, so the line stays JSON.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table of the metrics and checks.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} seed={}", self.workload.name(), self.seed);
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.basis
            );
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<34} {:>14.6} {:<6} {} of {} pop-epochs failed a check",
            "failed_frac", frac, "ratio", self.failed, self.attempted
        );
        for problem in &self.problems {
            let _ = writeln!(out, "  CHECK FAILED: {problem}");
        }
        out
    }
}

/// Pop-epochs one repetition attempts.
fn pop_epochs_per_rep(workload: Workload, seed: u64, scale: Scale) -> u64 {
    let cfg = workload.config(seed, scale);
    cfg.epochs() * cfg.gen.n_pops as u64
}

/// Runs `f`, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Collects the checks shared by both kinds of run. Every repetition's
/// summary must match `reference` (the first untraced run); a mismatch
/// fails every pop-epoch of that repetition.
struct Checker {
    workload: Workload,
    seed: u64,
    per_rep: u64,
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new(workload: Workload, seed: u64, scale: Scale) -> Self {
        Checker {
            workload,
            seed,
            per_rep: pop_epochs_per_rep(workload, seed, scale),
            reference: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn check(&mut self, label: &str, summary: Option<&RunSummary>) {
        self.attempted += self.per_rep;
        let Some(summary) = summary else {
            self.failed += self.per_rep;
            self.problems.push(format!("{label}: panicked"));
            return;
        };
        let reference = *self.reference.get_or_insert(summary.fingerprint);
        if summary.fingerprint != reference {
            self.failed += self.per_rep;
            self.problems.push(format!(
                "{label}: report fingerprint {:016x} differs from the first run's {reference:016x}",
                summary.fingerprint
            ));
        } else if summary.pop_epochs != self.per_rep {
            self.failed += self.per_rep;
            self.problems.push(format!(
                "{label}: {} pop-epoch records, expected {}",
                summary.pop_epochs, self.per_rep
            ));
        } else {
            self.failed += summary.failed_pop_epochs;
        }
        if self.workload.expects_sessions_up() && !summary.sessions_up {
            self.problems
                .push(format!("{label}: a BGP session was down at the end"));
        }
    }

    fn finish(self, metrics: Vec<Metric>) -> Outcome {
        let mut problems = self.problems;
        for m in &metrics {
            if !m.value.is_finite() {
                problems.push(format!("{} is not finite", m.name));
            }
        }
        Outcome {
            workload: self.workload,
            seed: self.seed,
            attempted: self.attempted,
            failed: self.failed,
            problems,
            metrics,
        }
    }
}

fn metric(name: &'static str, value: f64, basis: String) -> Metric {
    let unit = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is not in the metric catalog"));
    Metric {
        name,
        unit,
        value,
        basis,
    }
}

/// `count` untraced repetitions, stopping early after a panic.
fn untraced_reps(
    workload: Workload,
    seed: u64,
    scale: Scale,
    count: usize,
    checker: &mut Checker,
) -> Vec<UntracedRep> {
    let mut reps = Vec::new();
    while reps.len() < count {
        let rep = guarded(|| untraced::run(workload, seed, scale));
        let label = format!("untraced run {}", reps.len() + 1);
        checker.check(&label, rep.as_ref().map(|r| &r.summary));
        let Some(rep) = rep else { break };
        reps.push(rep);
    }
    reps
}

/// An untraced run: the end-to-end metrics.
///
/// Every repetition replays identical work (the fingerprint check proves
/// it), so epoch `k` of every repetition costs the same but for
/// interference from other processes, which only ever adds time. Each
/// epoch's sample is therefore its fastest repetition, and the latency
/// metrics are taken over those samples. Makes `reps` repetitions, at
/// least [`MIN_REPS`].
pub fn run_untraced(workload: Workload, seed: u64, scale: Scale, reps: usize) -> Outcome {
    let mut checker = Checker::new(workload, seed, scale);
    let reps = untraced_reps(workload, seed, scale, reps.max(MIN_REPS), &mut checker);
    let first = reps.first();
    let samples = first.map_or(0, |r| r.epoch_ms.len());
    let best_ms: Vec<f64> = (0..samples)
        .map(|k| {
            reps.iter()
                .map(|r| r.epoch_ms[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let pop_epochs = first.map_or(0, |r| r.summary.pop_epochs);
    let best_of = format!("{samples} epochs, each the fastest of {} reps", reps.len());
    let metrics = vec![
        metric(
            "setup_s",
            median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            format!("median of {} set-ups", reps.len()),
        ),
        metric("epoch_ms_p50", median(&best_ms), best_of.clone()),
        metric(
            "epoch_ms_p95",
            percentile(&best_ms, 0.95),
            format!(
                "{best_of}; {} samples beyond p95",
                samples - (0.95 * samples as f64).ceil() as usize
            ),
        ),
        metric(
            "pop_epochs_per_s",
            pop_epochs as f64 / (best_ms.iter().sum::<f64>() / 1e3),
            format!("{pop_epochs} pop-epochs over {best_of}"),
        ),
        metric(
            "peak_rss_mb",
            first.map_or(0.0, |r| r.peak_rss_mb),
            format!(
                "VmHWM after the first rep; VmRSS after its set-up {:.1} MB",
                first.map_or(0.0, |r| r.setup_rss_mb)
            ),
        ),
        metric(
            "drop_frac",
            first.map_or(0.0, |r| r.summary.drop_frac),
            format!(
                "of {:.1} offered Mbps-epochs; identical in every rep",
                first.map_or(0.0, |r| r.summary.offered_mbps_epochs)
            ),
        ),
    ];
    checker.finish(metrics)
}

/// A traced run: one untraced repetition for reference, then `reps - 1`
/// traced repetitions (at least one); the per-layer metrics.
pub fn run_traced(workload: Workload, seed: u64, scale: Scale, reps: usize) -> Outcome {
    let mut checker = Checker::new(workload, seed, scale);
    let reference = untraced_reps(workload, seed, scale, 1, &mut checker);
    let untraced_epoch_us = reference.first().map_or(0.0, |r| mean(&r.epoch_ms) * 1e3);
    let setup_rss_mb = reference.first().map_or(0.0, |r| r.setup_rss_mb);
    let mut traced: Vec<TracedRep> = Vec::new();
    while traced.len() < reps.saturating_sub(1).max(1) {
        let rep = guarded(|| traced::run(workload, seed, scale));
        let label = format!("traced run {}", traced.len() + 1);
        checker.check(&label, rep.as_ref().and_then(|r| r.summary.as_ref()));
        let Some(rep) = rep else { break };
        traced.push(rep);
    }
    let metrics = layer_metrics(&traced, untraced_epoch_us, setup_rss_mb);
    checker.finish(metrics)
}

/// Pools traced repetitions into the per-layer metrics.
fn layer_metrics(reps: &[TracedRep], untraced_epoch_us: f64, setup_rss_mb: f64) -> Vec<Metric> {
    let n = reps.len();
    let sum = |f: &dyn Fn(&TracedRep) -> f64| reps.iter().map(f).sum::<f64>();
    let count = |f: &dyn Fn(&TracedRep) -> u64| reps.iter().map(f).sum::<u64>();
    let epochs = count(&|r| r.epochs).max(1) as f64;
    let pop_epochs = count(&|r| r.pop_epochs);
    let pe = pop_epochs.max(1) as f64;
    let steps: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.pop_step_us.iter().copied())
        .collect();
    let phase = |i: usize| sum(&|r| r.phase_us[i]);
    let phases_total: f64 = (0..PHASES.len()).map(phase).sum();
    let total = sum(&|r| r.epoch_total_us);
    let events = count(&|r| r.phase_events);
    let critical_us = sum(&|r| r.critical_ns) / 1e3 / epochs;
    let wall_us = sum(&|r| r.epoch_wall_ns) / 1e3 / epochs;
    let lookups = count(&|r| r.fib_lookups);
    let controller_pe = count(&|r| r.controller_pop_epochs);
    let per_epoch = format!("mean per epoch over {n} traced reps, {epochs} epochs");
    let per_pe = format!("mean per pop-epoch over {pop_epochs} pop-epochs");
    let per_phase = format!("{per_pe}; from {events} controller epoch events");
    let mean_rep = |f: &dyn Fn(&TracedRep) -> f64| sum(f) / n.max(1) as f64;
    let routes = reps.first().map_or(0, |r| r.routes);
    let fib_unchanged = count(&|r| r.fib_unchanged);
    let gen_unchanged = count(&|r| r.gen_unchanged);
    let per_run = format!("per run, mean of {n}");

    let mut out = Vec::new();
    let mut put = |name, value, basis: String| out.push(metric(name, value, basis));
    put(
        "topology.generate_s",
        mean_rep(&|r| r.generate_s),
        format!("mean of {n} builds"),
    );
    put(
        "sim.pop_build_s",
        mean_rep(&|r| r.pop_build_s),
        format!("mean of {n} builds, PoPs built one after another"),
    );
    put(
        "sim.build_ns_per_route",
        sum(&|r| r.pop_build_s) * 1e9 / count(&|r| r.routes).max(1) as f64,
        format!("over {routes} routes per build"),
    );
    put(
        "sim.setup_rss_mb",
        setup_rss_mb,
        "VmRSS after the process's first set-up".into(),
    );
    put(
        "traffic.offered_us",
        sum(&|r| r.offered_ns) / 1e3 / epochs,
        format!("{per_epoch}, summed over PoPs"),
    );
    put(
        "traffic.demand_points",
        count(&|r| r.demand_points) as f64 / epochs,
        per_epoch.clone(),
    );
    put(
        "global.place_us",
        sum(&|r| r.place_ns) / 1e3 / epochs,
        per_epoch.clone(),
    );
    put(
        "global.observe_us",
        sum(&|r| r.observe_ns) / 1e3 / epochs,
        per_epoch.clone(),
    );
    put(
        "health.observe_us",
        sum(&|r| r.health_ns) / 1e3 / epochs,
        per_epoch,
    );
    let of_steps = format!("of {} pop-steps", steps.len());
    put("sim.pop_step_us_p50", median(&steps), of_steps.clone());
    put("sim.pop_step_us_p95", percentile(&steps, 0.95), of_steps);
    for (i, name) in [
        "core.projection_us",
        "core.allocation_us",
        "core.guards_us",
        "core.injection_us",
        "core.bmp_ingest_us",
    ]
    .into_iter()
    .enumerate()
    {
        put(name, phase(i) / pe, per_phase.clone());
    }
    put("core.epoch_total_us", total / pe, per_phase.clone());
    put(
        "core.unattributed_us",
        (total - phases_total) / pe,
        format!("{per_phase}; total minus the five phases"),
    );
    put(
        "sim.pop_step_other_us",
        (steps.iter().sum::<f64>() - total) / pe,
        format!("{per_pe}; pop-step minus controller epoch"),
    );
    put(
        "sim.fib_cache_valid_frac",
        fib_unchanged as f64 / pe,
        format!("{fib_unchanged} of {pop_epochs} pop-epochs kept their FIB version"),
    );
    put(
        "net_types.fib_lookup_ns",
        sum(&|r| r.fib_lookup_ns * r.fib_lookups as f64) / lookups.max(1) as f64,
        format!("per lookup over {lookups} lookups after the run"),
    );
    put(
        "core.collector_gen_unchanged_frac",
        gen_unchanged as f64 / controller_pe.max(1) as f64,
        format!("{gen_unchanged} of {controller_pe} controller pop-epochs kept their generation"),
    );
    put(
        "core.churn_per_epoch",
        mean_rep(&|r| r.churn_per_epoch),
        format!("{per_pe}, announcements + withdrawals"),
    );
    put(
        "core.overrides_active",
        mean_rep(&|r| r.overrides_active),
        per_pe,
    );
    put(
        "core.injection_dropped",
        mean_rep(&|r| r.injection_dropped as f64),
        per_run.clone(),
    );
    put(
        "bgp.session_resets",
        mean_rep(&|r| r.session_resets as f64),
        per_run.clone(),
    );
    put(
        "bgp.updates_downgraded",
        mean_rep(&|r| r.updates_downgraded as f64),
        per_run,
    );
    put(
        "sim.engine_overhead_us",
        untraced_epoch_us - critical_us,
        format!("untraced mean epoch {untraced_epoch_us:.1} us - traced path {critical_us:.1} us"),
    );
    put(
        "trace.overhead_frac",
        wall_us / untraced_epoch_us - 1.0,
        format!("traced mean epoch {wall_us:.1} us / untraced {untraced_epoch_us:.1} us - 1"),
    );
    put(
        "trace.coverage_frac",
        critical_us / wall_us,
        format!("timed critical path {critical_us:.1} us / traced epoch wall {wall_us:.1} us"),
    );
    put(
        "sim.traced_pop_epochs",
        pop_epochs as f64,
        format!("over {n} traced reps"),
    );
    put(
        "net_types.fib_lookups",
        lookups as f64,
        format!("over {n} traced reps"),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(fingerprint: u64, pop_epochs: u64) -> RunSummary {
        RunSummary {
            pop_epochs,
            failed_pop_epochs: 0,
            fingerprint,
            drop_frac: 0.0,
            offered_mbps_epochs: 0.0,
            sessions_up: true,
        }
    }

    #[test]
    fn a_diverging_or_panicking_run_fails_all_its_pop_epochs() {
        let mut checker = Checker::new(Workload::FaultChurn, 1, Scale::Mini);
        let per_rep = checker.per_rep;
        checker.check("first", Some(&summary(7, per_rep)));
        checker.check("same", Some(&summary(7, per_rep)));
        checker.check("diverged", Some(&summary(8, per_rep)));
        checker.check("panicked", None);
        let outcome = checker.finish(Vec::new());
        assert_eq!(outcome.attempted, 4 * per_rep);
        assert_eq!(outcome.failed, 2 * per_rep);
        assert_eq!(outcome.problems.len(), 2);
        assert!(!outcome.correct());
        assert!(outcome.json().starts_with("{\"correct\": false,"));
    }

    #[test]
    fn sessions_left_down_fail_a_workload_that_expects_them_up() {
        let mut checker = Checker::new(Workload::SteadyPeak, 1, Scale::Mini);
        let down = RunSummary {
            sessions_up: false,
            ..summary(1, checker.per_rep)
        };
        checker.check("down", Some(&down));
        assert!(!checker.finish(Vec::new()).correct());
    }

    #[test]
    fn a_non_finite_metric_fails_the_run_and_prints_as_null() {
        let checker = Checker::new(Workload::FullTable, 1, Scale::Mini);
        let outcome = checker.finish(vec![metric("drop_frac", f64::NAN, String::new())]);
        assert!(!outcome.correct());
        assert!(outcome.json().contains("\"drop_frac\": {\"value\": null,"));
    }
}
