//! E16 (bounded recovery) and E17 (refresh instead of reset): epochs back
//! to steady state after each fault.
//!
//! Every fault kind the chaos layer can inject runs as its own arm: one
//! 300-second window against PoP 0, over the same deployment as a
//! fault-free reference arm. Once the window clears, the arm's per-epoch
//! records must converge back to the reference — byte-for-byte — within a
//! bounded number of epochs:
//!
//! - *refresh-healed faults* (update corruption) leave the session up and
//!   recover over a governed ROUTE-REFRESH replay (RFC 2918 / RFC 7313) —
//!   **1 epoch**, with **zero session resets** over the whole arm;
//! - *input faults* (capacity loss, BMP stall, sFlow loss, flash crowd,
//!   partial injection loss) leave sessions and the controller standing,
//!   so fresh inputs restore the steady state within **2 epochs**;
//! - *crash and session faults* (controller crash, injector loss, peer
//!   failure, flap storm — including a flap storm overlapping an update
//!   corruption window on the same peer) additionally pay the reconnect
//!   governor's backoff / flap-damping cool-down, and get **3 epochs**.
//!
//! Each arm also runs twice and must reproduce byte-identically (the
//! determinism contract), and every BGP session must be re-established by
//! run end — a flap storm's damping penalty decays, it does not strand
//! the session.

use std::collections::HashMap;

use ef_bench::write_json;
use ef_bgp::peer::PeerKind;
use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use ef_sim::{scenario, MetricsStore, PopEpochRecord, ScenarioBuilder, SimConfig};
use ef_topology::{generate, Deployment, PopId};
use serde::Serialize;

const SEED: u64 = 7;
const EPOCH_SECS: u64 = 30;
const DURATION_SECS: u64 = 1500;
/// The single fault window every arm uses: `(t_start, duration)` seconds.
const W_FAULT: (u64, u64) = (300, 300);
/// Degraded-mode horizon: inputs older than this hold-or-shrink.
const STALE_SECS: u64 = 60;
/// Fail-open horizon: inputs older than this withdraw everything.
const FAIL_OPEN_SECS: u64 = 240;

/// Recovery bound for treat-as-withdraw damage healed over ROUTE-REFRESH.
const BOUND_REFRESH: u64 = 1;
/// Recovery bound for faults that only degrade *inputs*.
const BOUND_INPUT: u64 = 2;
/// Recovery bound for faults that tear down a session or the controller.
const BOUND_SESSION: u64 = 3;

fn base_config() -> SimConfig {
    scenario()
        .small_topology(SEED)
        .epoch_secs(EPOCH_SECS)
        .duration_secs(DURATION_SECS)
        .exact_rates() // exact rates isolate the fault response
        .tune_controller(|c| {
            c.stale_input_secs = STALE_SECS;
            c.fail_open_secs = FAIL_OPEN_SECS;
        })
        .telemetry(ef_bench::telemetry_from_env())
        .build()
}

/// Runs one arm; returns its metrics and how many established sessions
/// were torn down over the run.
fn run_arm(cfg: SimConfig, deployment: &Deployment) -> (MetricsStore, u64) {
    let mut engine = ScenarioBuilder::from_config(cfg).engine_with(deployment.clone());
    // Record the faulted PoP's full per-interface load series: steadiness
    // is judged on interface loads too, not just the epoch records.
    for iface in &deployment.pops[0].interfaces {
        engine.flag_interface(iface.id);
    }
    engine.run();
    assert!(
        engine.all_sessions_up(),
        "sessions re-established by run end"
    );
    let resets = engine.session_resets();
    (engine.take_metrics(), resets)
}

fn pop_records(m: &MetricsStore, pop: u16) -> Vec<&PopEpochRecord> {
    m.pop_epochs.iter().filter(|r| r.pop == pop).collect()
}

fn fingerprint(m: &MetricsStore) -> String {
    serde_json::to_string(&(&m.pop_epochs, &m.episodes)).expect("serializes")
}

struct Case {
    label: &'static str,
    /// Fault kinds sharing the window (one entry per event; more than one
    /// makes an overlapping-fault arm).
    faults: Vec<(FaultKind, FaultTarget)>,
    bound: u64,
    /// Hard cap on sessions reset over the arm, when the recovery path
    /// promises one (the ROUTE-REFRESH arm promises zero).
    max_resets: Option<u64>,
}

#[derive(Serialize)]
struct RecoveryRow {
    fault: &'static str,
    t_start_secs: u64,
    t_clear_secs: u64,
    epochs_to_steady: u64,
    bound_epochs: u64,
    session_resets: u64,
}

#[derive(Serialize)]
struct Recovery {
    seed: u64,
    epoch_secs: u64,
    target_pop: u16,
    target_peer: u64,
    target_egress: u32,
    rows: Vec<RecoveryRow>,
}

fn main() {
    let cfg = base_config();
    let deployment = generate(&cfg.gen);
    let pop = 0usize;

    eprintln!("[recovery] reference run (EF on, no faults)...");
    let (reference, _) = run_arm(cfg.clone(), &deployment);
    let ref_pop = pop_records(&reference, pop as u16);

    // Fault targets: the busiest PoP-0 peering interface during the fault
    // window (so a capacity cut bites), and on it the peer announcing the
    // most routes (so tearing the session actually moves traffic).
    let egress = deployment.pops[0]
        .interfaces
        .iter()
        .filter(|i| i.kind() != PeerKind::Transit)
        .max_by(|a, b| {
            let peak = |id| {
                reference.series[&id]
                    .iter()
                    .filter(|(t, _)| *t >= W_FAULT.0 && *t < W_FAULT.0 + W_FAULT.1)
                    .map(|(_, load)| *load)
                    .fold(0.0f64, f64::max)
            };
            peak(a.id).total_cmp(&peak(b.id))
        })
        .map(|i| i.id)
        .expect("PoP 0 has a peering interface");
    let mut route_count: HashMap<u64, usize> = HashMap::new();
    for spec in deployment.routes_at(PopId(0)) {
        *route_count.entry(spec.via.0).or_default() += 1;
    }
    let (&peer, _) = route_count
        .iter()
        .filter(|(p, _)| {
            deployment.pops[0]
                .peers
                .iter()
                .any(|c| c.peer.0 == **p && c.egress == egress)
        })
        .max_by_key(|(peer, n)| (**n, **peer))
        .expect("busiest interface has an announcing peer");
    let egress = egress.0;

    let cases: Vec<Case> = vec![
        Case {
            label: "link_capacity_loss",
            faults: vec![(
                FaultKind::LinkCapacityLoss { fraction: 0.75 },
                FaultTarget::Interface { pop, egress },
            )],
            bound: BOUND_INPUT,
            max_resets: None,
        },
        Case {
            label: "bmp_stall",
            faults: vec![(FaultKind::BmpStall, FaultTarget::Pop { pop })],
            bound: BOUND_INPUT,
            max_resets: None,
        },
        Case {
            label: "sflow_loss",
            faults: vec![(
                FaultKind::SflowLoss {
                    drop_fraction: 0.95,
                },
                FaultTarget::Pop { pop },
            )],
            bound: BOUND_INPUT,
            max_resets: None,
        },
        Case {
            label: "flash_crowd",
            faults: vec![(
                FaultKind::FlashCrowd { multiplier: 2.0 },
                FaultTarget::Pop { pop },
            )],
            bound: BOUND_INPUT,
            max_resets: None,
        },
        // The tentpole arm: treat-as-withdraw damage heals over a governed
        // ROUTE-REFRESH on the live session — one epoch, zero resets.
        Case {
            label: "update_corruption",
            faults: vec![(
                FaultKind::UpdateCorruption { rate: 0.5 },
                FaultTarget::Peer { pop, peer },
            )],
            bound: BOUND_REFRESH,
            max_resets: Some(0),
        },
        Case {
            label: "injector_partial_loss",
            faults: vec![(
                FaultKind::InjectorPartialLoss { fraction: 0.5 },
                FaultTarget::Pop { pop },
            )],
            bound: BOUND_INPUT,
            max_resets: Some(0),
        },
        Case {
            label: "controller_crash",
            faults: vec![(FaultKind::ControllerCrash, FaultTarget::Pop { pop })],
            bound: BOUND_SESSION,
            max_resets: None,
        },
        Case {
            label: "injector_loss",
            faults: vec![(FaultKind::InjectorLoss, FaultTarget::Pop { pop })],
            bound: BOUND_SESSION,
            max_resets: None,
        },
        Case {
            label: "peer_failure",
            faults: vec![(FaultKind::PeerFailure, FaultTarget::Peer { pop, peer })],
            bound: BOUND_SESSION,
            max_resets: None,
        },
        Case {
            label: "session_flap_storm",
            faults: vec![(
                FaultKind::SessionFlapStorm { period_s: 5 },
                FaultTarget::Peer { pop, peer },
            )],
            bound: BOUND_SESSION,
            max_resets: None,
        },
        // Overlapping faults on the same peer: the corrupted updates land
        // on a session the storm keeps tearing down. The refresh path must
        // stand aside (a down session replays in full on reconnect) and
        // the session-fault bound still holds.
        Case {
            label: "flap_storm_with_corruption",
            faults: vec![
                (
                    FaultKind::SessionFlapStorm { period_s: 5 },
                    FaultTarget::Peer { pop, peer },
                ),
                (
                    FaultKind::UpdateCorruption { rate: 0.5 },
                    FaultTarget::Peer { pop, peer },
                ),
            ],
            bound: BOUND_SESSION,
            max_resets: None,
        },
    ];

    let clear = W_FAULT.0 + W_FAULT.1;
    let mut rows = Vec::new();
    for case in cases {
        let label = case.label;
        eprintln!("[recovery] {label} arm (twice, for reproducibility)...");
        let schedule = FaultSchedule::new(
            case.faults
                .into_iter()
                .map(|(kind, target)| FaultEvent {
                    t_start_secs: W_FAULT.0,
                    duration_secs: W_FAULT.1,
                    target,
                    kind,
                })
                .collect(),
        )
        .expect("schedule is valid");
        let arm_cfg = ScenarioBuilder::from_config(cfg.clone())
            .chaos(schedule)
            .build();
        let (arm, resets) = run_arm(arm_cfg.clone(), &deployment);
        let (again, resets_again) = run_arm(arm_cfg, &deployment);
        assert_eq!(
            fingerprint(&arm),
            fingerprint(&again),
            "{label}: arm reproduces byte-identically"
        );
        assert_eq!(resets, resets_again, "{label}: reset count reproduces");
        if let Some(cap) = case.max_resets {
            assert!(
                resets <= cap,
                "{label}: {resets} session resets, promised at most {cap}"
            );
        }

        // Epochs-to-steady: the smallest k such that from `clear + k`
        // epochs on, every per-epoch record of the faulted PoP matches the
        // reference arm on the operational signals — override count,
        // detoured and dropped volume, overload and degradation state.
        // (`detoured_by_kind` and churn are deliberately excluded:
        // allocator hysteresis admits equivalent steady states that pin a
        // different prefix for the same relief, exactly like the revert
        // check in `exp_fault_matrix`.)
        let steady = |a: &PopEpochRecord, b: &PopEpochRecord| {
            a.overrides_active == b.overrides_active
                && (a.detoured_mbps - b.detoured_mbps).abs() < 1e-6
                && (a.dropped_mbps - b.dropped_mbps).abs() < 1e-6
                && a.overloaded_before == b.overloaded_before
                && a.residual_overloaded == b.residual_overloaded
                && a.degraded == b.degraded
                && a.fail_open == b.fail_open
        };
        let arm_pop = pop_records(&arm, pop as u16);
        assert_eq!(arm_pop.len(), ref_pop.len());
        let mut last_mismatch = None;
        for (a, b) in arm_pop.iter().zip(ref_pop.iter()) {
            assert_eq!(a.t_secs, b.t_secs);
            if a.t_secs < clear {
                continue;
            }
            if !steady(a, b) {
                last_mismatch = Some((
                    a.t_secs,
                    serde_json::to_string(a).expect("serializes"),
                    serde_json::to_string(b).expect("serializes"),
                ));
            }
        }
        // Interface loads must match too — a session still held down by
        // flap damping shows up here even when the PoP totals happen to
        // coincide.
        for iface in &deployment.pops[0].interfaces {
            let arm_series = &arm.series[&iface.id];
            let ref_series = &reference.series[&iface.id];
            assert_eq!(arm_series.len(), ref_series.len());
            for ((t, al), (tr, rl)) in arm_series.iter().zip(ref_series.iter()) {
                assert_eq!(t, tr);
                if *t < clear || (al - rl).abs() < 1e-6 {
                    continue;
                }
                let worse = last_mismatch
                    .as_ref()
                    .map(|(lt, _, _)| *lt < *t)
                    .unwrap_or(true);
                if worse {
                    last_mismatch = Some((
                        *t,
                        format!("egress {} load {al}", iface.id.0),
                        format!("egress {} load {rl}", iface.id.0),
                    ));
                }
            }
        }
        let epochs_to_steady = match &last_mismatch {
            None => 0,
            Some((t, _, _)) => (t - clear) / EPOCH_SECS + 1,
        };
        if epochs_to_steady > case.bound {
            let (t, aj, bj) = last_mismatch.expect("mismatch recorded");
            panic!(
                "{label}: steady after {epochs_to_steady} epochs, bound {}\n\
                 last mismatch at t={t}:\n  arm: {aj}\n  ref: {bj}",
                case.bound
            );
        }
        rows.push(RecoveryRow {
            fault: label,
            t_start_secs: W_FAULT.0,
            t_clear_secs: clear,
            epochs_to_steady,
            bound_epochs: case.bound,
            session_resets: resets,
        });
    }

    println!("Bounded recovery — epochs back to the reference steady state");
    println!(
        "{:>26} {:>8} {:>8} {:>8} {:>6} {:>7}",
        "fault", "start", "clear", "epochs", "bound", "resets"
    );
    for r in &rows {
        println!(
            "{:>26} {:>8} {:>8} {:>8} {:>6} {:>7}",
            r.fault,
            r.t_start_secs,
            r.t_clear_secs,
            r.epochs_to_steady,
            r.bound_epochs,
            r.session_resets
        );
    }

    write_json(
        "exp_recovery",
        &Recovery {
            seed: SEED,
            epoch_secs: EPOCH_SECS,
            target_pop: pop as u16,
            target_peer: peer,
            target_egress: egress,
            rows,
        },
    );
}
