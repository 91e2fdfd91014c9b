//! The untraced run: the workload driven through `SimEngine` exactly as a
//! user would, timing only set-up and each `SimEngine::step`.

use std::time::Instant;

use ef_sim::{MetricsStore, RunReport, SimEngine};

use crate::checks;
use crate::stats;
use crate::workload::{Scale, Workload};

/// What a finished run produced, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Pop-epochs the run attempted.
    pub pop_epochs: u64,
    /// Pop-epochs that failed a sanity check.
    pub failed_pop_epochs: u64,
    /// [`checks::fingerprint`] of the run's report.
    pub fingerprint: u64,
    /// Dropped ÷ offered Mbps·epochs.
    pub drop_frac: f64,
    /// Offered Mbps·epochs, the base of `drop_frac`.
    pub offered_mbps_epochs: f64,
    /// Every BGP session established at the end of the run.
    pub sessions_up: bool,
}

impl RunSummary {
    /// Distils a finished run's merged metrics.
    pub fn new(metrics: &MetricsStore, sessions_up: bool) -> Self {
        let report = RunReport::from_metrics(metrics);
        RunSummary {
            pop_epochs: metrics.pop_epochs.len() as u64,
            failed_pop_epochs: checks::failed_pop_epochs(metrics),
            fingerprint: checks::fingerprint(&report, metrics),
            drop_frac: report.drop_fraction(),
            offered_mbps_epochs: report.offered_mbps_epochs,
            sessions_up,
        }
    }
}

/// One untraced repetition: build the world, then step every epoch.
#[derive(Debug, Clone)]
pub struct UntracedRep {
    /// `ef_topology::generate` + chaos schedule + `SimEngine::with_deployment`.
    pub setup_s: f64,
    /// Resident set right after set-up, MB.
    pub setup_rss_mb: f64,
    /// Wall time of each `SimEngine::step`, ms.
    pub epoch_ms: Vec<f64>,
    /// Peak resident set of the process at the end of the run, MB.
    pub peak_rss_mb: f64,
    /// The run's outcome.
    pub summary: RunSummary,
}

/// Runs one untraced repetition of `workload` at `seed`.
pub fn run(workload: Workload, seed: u64, scale: Scale) -> UntracedRep {
    let start = Instant::now();
    let (cfg, deployment) = workload.world(seed, scale);
    let mut engine = SimEngine::with_deployment(cfg, deployment);
    let setup_s = start.elapsed().as_secs_f64();
    let setup_rss_mb = stats::proc_status_mb("VmRSS").unwrap_or(0.0);

    let epochs = engine.cfg.epochs();
    let mut epoch_ms = Vec::with_capacity(epochs as usize);
    for _ in 0..epochs {
        let t = Instant::now();
        engine.step();
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let sessions_up = engine.all_sessions_up();
    let metrics = engine.take_metrics();
    UntracedRep {
        setup_s,
        setup_rss_mb,
        epoch_ms,
        peak_rss_mb: stats::proc_status_mb("VmHWM").unwrap_or(0.0),
        summary: RunSummary::new(&metrics, sessions_up),
    }
}
