//! The three benchmark workloads.
//!
//! Every workload runs 30 s epochs with `split_depth = 1` and at most two
//! PoPs, so the engine's one-worker-per-PoP step never asks for more
//! threads than a two-core machine has. The program under test only ever
//! sees what [`Workload::world`] returns: the generated config, deployment
//! and chaos schedule.

use ef_chaos::{ChaosProfile, FaultSchedule};
use ef_sim::{scenario, PerfSimConfig, ScenarioBuilder, SimConfig};
use ef_topology::{CostModel, Deployment, GenConfig};

/// Controller epoch, seconds (the paper's fixed cycle).
pub const EPOCH_SECS: u64 = 30;

/// Seed of each workload's fixed world: the topology and, for
/// `fault_churn`, the fault schedule. A workload measures one world, so
/// that differences between runs are the program's and not the world's: a
/// different topology or schedule moves epoch latency by ±20% and drops
/// several-fold. The run's seed drives everything seeded inside that
/// world: demand noise, sFlow sampling, the path-performance model,
/// reconnect and refresh jitter, injection loss and update corruption.
pub const WORLD_SEED: u64 = 7;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two PoPs across a diurnal peak with every tier on: the end-to-end
    /// epoch (demand, projection, allocation, perf measurement, global
    /// steering, health, billing).
    SteadyPeak,
    /// One PoP holding a 100k-prefix dual-stack table, every tier off:
    /// world build dominates and the epoch is one thread forwarding and
    /// projecting over a large table.
    FullTable,
    /// Two PoPs under a schedule of 40 per-PoP faults with sampled rates:
    /// session teardown and replay, RFC 7606 decode and RIB/FIB churn.
    FaultChurn,
}

/// How much of a workload to run: the benchmarked size, or a miniature
/// that keeps every mechanism but finishes in about a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Mini,
}

/// The fault kinds `fault_churn` samples from.
const CHURN_FAULTS: [&str; 6] = [
    "peer_failure",
    "update_corruption",
    "session_flap_storm",
    "link_capacity_loss",
    "bmp_stall",
    "injector_partial_loss",
];

/// The non-uniform transit price ladder `steady_peak` bills against, so
/// that cost-aware allocation has different prices to choose between.
const TRANSIT_LADDER: [f64; 3] = [3.0, 1.5, 0.5];

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyPeak,
        Workload::FullTable,
        Workload::FaultChurn,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyPeak => "steady_peak",
            Workload::FullTable => "full_table",
            Workload::FaultChurn => "fault_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn pops(self) -> usize {
        match self {
            Workload::FullTable => 1,
            Workload::SteadyPeak | Workload::FaultChurn => 2,
        }
    }

    fn prefixes(self, scale: Scale) -> usize {
        let full = match self {
            Workload::SteadyPeak => 8_000,
            Workload::FullTable => 100_000,
            Workload::FaultChurn => 3_000,
        };
        match scale {
            Scale::Full => full,
            Scale::Mini => full / 20,
        }
    }

    fn duration_secs(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Workload::FullTable, Scale::Full) => 20 * EPOCH_SECS,
            (Workload::FullTable, Scale::Mini) => 4 * EPOCH_SECS,
            (_, Scale::Full) => 6 * 3600,
            (_, Scale::Mini) => 3600,
        }
    }

    /// Repetitions that fit in `seconds`, from the nominal length of one
    /// repetition (set-up plus every epoch) on a two-core machine. A fixed
    /// nominal length, not a measured one, so that a slower build of the
    /// program gets the same number of repetitions as a faster one.
    pub fn reps_for(self, seconds: u64) -> usize {
        let nominal_secs = match self {
            Workload::SteadyPeak | Workload::FullTable => 9.0,
            Workload::FaultChurn => 2.5,
        };
        ((seconds as f64 / nominal_secs) as usize).max(1)
    }

    /// Whether the workload must end with every BGP session established.
    /// `fault_churn` may end with a flapped session still held down by
    /// damping.
    pub fn expects_sessions_up(self) -> bool {
        !matches!(self, Workload::FaultChurn)
    }

    /// The scenario config, before the chaos schedule (which needs the
    /// deployment).
    pub fn config(self, seed: u64, scale: Scale) -> SimConfig {
        let n_prefixes = self.prefixes(scale);
        let n_pops = self.pops();
        let base = scenario()
            .topology(GenConfig {
                seed: WORLD_SEED,
                n_pops,
                n_ases: n_prefixes / 10,
                n_prefixes,
                total_avg_gbps: 100.0 * n_pops as f64,
                ..GenConfig::small(WORLD_SEED)
            })
            .demand_seed(seed)
            .duration_secs(self.duration_secs(scale))
            .epoch_secs(EPOCH_SECS)
            .tune_controller(|c| c.split_depth = 1);
        let workload = match self {
            Workload::SteadyPeak => base
                .exact_rates()
                .cost_model(CostModel {
                    transit_usd_per_mbps: TRANSIT_LADDER.to_vec(),
                    ..Default::default()
                })
                .billing(true)
                .cost_aware(true)
                .perf(PerfSimConfig {
                    steer: true,
                    ..Default::default()
                })
                .global(ef_global::GlobalConfig::default())
                .health(ef_health::HealthConfig::default()),
            Workload::FullTable => base.exact_rates().billing(false),
            // sFlow-sampled rates at the default 1-in-1000.
            Workload::FaultChurn => base.billing(false),
        };
        workload.build()
    }

    /// Completes [`Self::config`] over its generated deployment: installs
    /// the fault schedule where the workload has one.
    pub fn with_chaos(self, cfg: SimConfig, deployment: &Deployment, scale: Scale) -> SimConfig {
        let chaos = (self == Workload::FaultChurn).then(|| churn_schedule(&cfg, deployment, scale));
        ScenarioBuilder::from_config(cfg).maybe_chaos(chaos).build()
    }

    /// Generates the workload's inputs for `seed`: the scenario config and
    /// the deployment it runs over. Deterministic in
    /// `(workload, seed, scale)`.
    pub fn world(self, seed: u64, scale: Scale) -> (SimConfig, Deployment) {
        let cfg = self.config(seed, scale);
        let deployment = ef_topology::generate(&cfg.gen);
        let cfg = self.with_chaos(cfg, &deployment, scale);
        (cfg, deployment)
    }
}

/// `fault_churn`'s schedule: per-PoP faults of 120–900 s after a 300 s
/// warm-up, 40 of them over six hours (the miniature keeps the density).
fn churn_schedule(cfg: &SimConfig, deployment: &Deployment, scale: Scale) -> FaultSchedule {
    let events = match scale {
        Scale::Full => 40,
        Scale::Mini => 8,
    };
    let profile = ChaosProfile {
        duration_secs: cfg.duration_secs,
        warmup_secs: 300,
        events,
        min_fault_secs: 120,
        max_fault_secs: 900,
        kinds: CHURN_FAULTS.iter().map(|k| k.to_string()).collect(),
    };
    ef_chaos::generate(&profile, &ef_sim::chaos_surface(deployment), WORLD_SEED)
        .expect("the churn profile is valid and every PoP has peers and interfaces")
}
