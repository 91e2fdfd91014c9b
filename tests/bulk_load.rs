//! Initial-table load equivalence. `PopRuntime::build` loads each PoP's
//! route set straight into the router's RIBs and FIB and into the
//! controller's route collector. This suite builds the same PoPs the
//! reference way — every route sent as its own UPDATE over the real
//! session, the collector fed by the router's BMP mirror — and asserts
//! the two leave identical state and identical runs.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::peer::PeerId;
use ef_bgp::policy::Policy;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig, TableSeed};
use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use ef_net_types::{Asn, Prefix};
use ef_sim::runtime::PopRuntime;
use ef_sim::{scenario, RunReport, ScenarioBuilder, SimConfig};
use ef_topology::{Deployment, GenConfig, PopId, PrefixInfo, RouteSpec};

/// The reference build: the runtime's substrate with every route
/// announced over the wire and the collector left to the BMP backlog.
fn build_over_wire(deployment: &Deployment, pop_id: PopId, cfg: &SimConfig) -> PopRuntime {
    let pop = deployment.pop(pop_id);
    let mut router = BgpRouter::new(RouterConfig {
        name: format!("{}-pr0", pop.name),
        asn: deployment.local_asn,
        router_id: Ipv4Addr::new(10, 100, (pop_id.0 >> 8) as u8, pop_id.0 as u8),
    });
    let mut stubs = HashMap::new();
    for conn in &pop.peers {
        router.add_peer(PeerAttachment {
            peer: conn.peer,
            peer_asn: conn.asn,
            kind: conn.kind(),
            egress: conn.egress,
            policy: Policy::default_import(deployment.local_asn, conn.kind()),
            max_prefixes: 0,
        });
        let mut stub = PeerStub::new(
            conn.peer,
            conn.asn,
            Ipv4Addr::new(10, 210, (conn.peer.0 >> 8) as u8, conn.peer.0 as u8),
        );
        stub.pump(&mut router, 0);
        stubs.insert(conn.peer, stub);
    }
    for prefix in &deployment.local_prefixes {
        router.originate(*prefix);
    }
    for spec in deployment.routes_at(pop_id) {
        if let Some(stub) = stubs.get_mut(&spec.via) {
            let prefix = deployment.universe.prefixes[spec.prefix_idx as usize].prefix;
            let attrs = PathAttributes {
                as_path: AsPath::sequence(spec.as_path.iter().copied()),
                med: spec.med,
                ..Default::default()
            };
            stub.announce(&mut router, prefix, attrs, 0);
        }
    }
    // Only the prefix-sorted re-layout; the BMP backlog carries the table
    // to the collector.
    router.finish_table_load();
    PopRuntime::with_substrate(deployment, pop_id, cfg, router, stubs, TableSeed::default())
}

/// Adds routes every PoP's import policy must reject: an AS loop from a
/// peer with no other route for the prefix, an AS-loop re-announcement
/// that withdraws a route accepted earlier, and over-specific IPv4 and
/// IPv6 prefixes. Returns each one as `(pop, peer, prefix index)`.
fn add_rejected_routes(deployment: &mut Deployment) -> Vec<(usize, PeerId, u32)> {
    let local = deployment.local_asn;
    let mut over_specific = Vec::new();
    for v4 in [true, false] {
        let Some(info) = deployment
            .universe
            .prefixes
            .iter()
            .find(|i| i.prefix.is_v4() == v4)
            .cloned()
        else {
            continue;
        };
        let (half, _) = info.prefix.halves().expect("a /24 or /48 splits");
        over_specific.push(deployment.universe.prefixes.len() as u32);
        deployment.universe.prefixes.push(PrefixInfo {
            prefix: half,
            demand_share: 0.0,
            ..info
        });
    }
    let mut rejected = Vec::new();
    for (pop, specs) in deployment.routes.iter_mut().enumerate() {
        let Some(first) = specs.first().cloned() else {
            continue;
        };
        let other = deployment.pops[pop].peers.iter().map(|c| c.peer).find(|p| {
            specs
                .iter()
                .all(|s| s.via != *p || s.prefix_idx != first.prefix_idx)
        });
        let looped = |via, prefix_idx| RouteSpec {
            prefix_idx,
            via,
            as_path: vec![Asn(64_999), local, Asn(64_998)],
            med: None,
        };
        let second = specs[specs.len() / 2].clone();
        let mut added = vec![looped(second.via, second.prefix_idx)];
        if let Some(other) = other {
            added.push(looped(other, first.prefix_idx));
        }
        for &idx in &over_specific {
            added.push(RouteSpec {
                prefix_idx: idx,
                ..first.clone()
            });
        }
        rejected.extend(added.iter().map(|s| (pop, s.via, s.prefix_idx)));
        specs.extend(added);
    }
    rejected
}

/// A small dual-stack world with policy-rejected routes, MED kept or
/// stripped.
fn world(
    seed: u64,
    v6_fraction: f64,
    med: bool,
) -> (SimConfig, Deployment, Vec<(usize, PeerId, u32)>) {
    let cfg = scenario()
        .topology(GenConfig {
            v6_fraction,
            ..GenConfig::small(seed)
        })
        .duration_secs(20 * 60)
        .epoch_secs(60)
        .build();
    let mut deployment = ef_topology::generate(&cfg.gen);
    if !med {
        for spec in deployment.routes.iter_mut().flatten() {
            spec.med = None;
        }
    }
    let rejected = add_rejected_routes(&mut deployment);
    (cfg, deployment, rejected)
}

fn assert_same_state(bulk: &PopRuntime, wire: &PopRuntime, deployment: &Deployment) {
    let pop = bulk.pop.id.0;
    let prefixes: Vec<Prefix> = deployment
        .universe
        .prefixes
        .iter()
        .map(|i| i.prefix)
        .collect();

    // Loc-RIB: every prefix's candidates in order, records and routes.
    let loc_rib = |rt: &PopRuntime| -> Vec<_> {
        rt.router
            .iter_candidates()
            .map(|(prefix, recs)| {
                let routes: Vec<_> = recs
                    .iter()
                    .map(|rec| (*rec, rt.router.rib_route(*prefix, rec)))
                    .collect();
                (*prefix, routes)
            })
            .collect()
    };
    assert_eq!(loc_rib(bulk), loc_rib(wire), "pop {pop}: Loc-RIB");

    // Every peer's Adj-RIB-In, as the BMP initial dump materializes it.
    assert_eq!(
        bulk.router.bmp_snapshot(0),
        wire.router.bmp_snapshot(0),
        "pop {pop}: Adj-RIB-In"
    );

    // FIB: every entry, and the version the lookup cache fences on.
    assert_eq!(bulk.router.fib_len(), wire.router.fib_len(), "pop {pop}");
    assert_eq!(
        bulk.router.fib_version(),
        wire.router.fib_version(),
        "pop {pop}"
    );
    for prefix in &prefixes {
        assert_eq!(
            bulk.router.fib_entry(prefix),
            wire.router.fib_entry(prefix),
            "pop {pop}: FIB entry for {prefix}"
        );
    }

    // The collector: slots in arrival order, interned ids, generations.
    let (a, b) = (
        bulk.controller.as_ref().expect("controller on").collector(),
        wire.controller.as_ref().expect("controller on").collector(),
    );
    let view = |c: &edge_fabric::collector::RouteCollector| -> Vec<_> {
        c.iter()
            .map(|(prefix, recs)| {
                let routes: Vec<_> = recs
                    .iter()
                    .map(|rec| (*rec, c.route(*prefix, rec)))
                    .collect();
                (*prefix, routes)
            })
            .collect()
    };
    assert_eq!(view(a), view(b), "pop {pop}: collector view");
    assert_eq!(a.generation(), b.generation(), "pop {pop}: generation");
    for prefix in &prefixes {
        assert_eq!(
            a.generation_of(prefix),
            b.generation_of(prefix),
            "pop {pop}: generation of {prefix}"
        );
    }
    assert_eq!(a.dropped(), b.dropped(), "pop {pop}");

    // Each stub's Adj-RIB-Out.
    for conn in &bulk.pop.peers {
        let advertised = |rt: &PopRuntime| -> Vec<(Prefix, PathAttributes)> {
            let stub = rt.stub(conn.peer).expect("stub per peer");
            assert!(stub.is_established());
            assert_eq!(stub.send_errors(), 0);
            stub.advertised().map(|(p, a)| (*p, a.clone())).collect()
        };
        assert_eq!(
            advertised(bulk),
            advertised(wire),
            "pop {pop}: peer {:?} advertised",
            conn.peer
        );
    }
}

/// Runs 20 epochs with the given runtimes and returns the report, every
/// recorded epoch serialized, and the session resets.
fn run(
    cfg: &SimConfig,
    deployment: &Deployment,
    pops: Option<Vec<PopRuntime>>,
) -> (RunReport, String, u64) {
    let mut engine = ScenarioBuilder::from_config(cfg.clone()).engine_with(deployment.clone());
    if let Some(pops) = pops {
        engine.pops = pops;
    }
    engine.run_epochs(20);
    let resets = engine.session_resets();
    let metrics = engine.take_metrics();
    let records =
        serde_json::to_string(&(&metrics.pop_epochs, &metrics.episodes, &metrics.billing))
            .expect("metrics serialize");
    (RunReport::from_metrics(&metrics), records, resets)
}

/// Peer failures, flap storms and update corruption at every PoP: each
/// revives peers over the wire from the replay table.
fn reviving_chaos(deployment: &Deployment) -> FaultSchedule {
    let mut events = Vec::new();
    for pop in &deployment.pops {
        let peer = |i: usize| FaultTarget::Peer {
            pop: pop.id.0 as usize,
            peer: pop.peers[i % pop.peers.len()].peer.0,
        };
        events.push(FaultEvent {
            t_start_secs: 120,
            duration_secs: 180,
            target: peer(0),
            kind: FaultKind::PeerFailure,
        });
        events.push(FaultEvent {
            t_start_secs: 300,
            duration_secs: 240,
            target: peer(1),
            kind: FaultKind::SessionFlapStorm { period_s: 20 },
        });
        events.push(FaultEvent {
            t_start_secs: 420,
            duration_secs: 180,
            target: peer(2),
            kind: FaultKind::UpdateCorruption { rate: 0.3 },
        });
    }
    FaultSchedule::new(events).expect("valid schedule")
}

fn check_world(seed: u64, v6_fraction: f64, med: bool) {
    let (cfg, deployment, rejected) = world(seed, v6_fraction, med);
    let wire: Vec<PopRuntime> = deployment
        .pops
        .iter()
        .map(|p| build_over_wire(&deployment, p.id, &cfg))
        .collect();
    for (pop, wire) in deployment.pops.iter().zip(&wire) {
        let bulk = PopRuntime::build(&deployment, pop.id, &cfg);
        assert_same_state(&bulk, wire, &deployment);
        for &(_, peer, idx) in rejected.iter().filter(|(p, ..)| *p == pop.id.0 as usize) {
            let prefix = deployment.universe.prefixes[idx as usize].prefix;
            assert!(
                bulk.router
                    .candidates(&prefix)
                    .iter()
                    .all(|r| r.source.peer != peer),
                "pop {}: {prefix} from {peer:?} was not rejected",
                pop.id.0
            );
        }
    }

    let calm = run(&cfg, &deployment, None);
    assert_eq!(
        calm,
        run(&cfg, &deployment, Some(wire)),
        "seed {seed}: calm runs differ"
    );

    let chaos = ScenarioBuilder::from_config(cfg)
        .chaos(reviving_chaos(&deployment))
        .build();
    let wire: Vec<PopRuntime> = deployment
        .pops
        .iter()
        .map(|p| build_over_wire(&deployment, p.id, &chaos))
        .collect();
    let bulk = run(&chaos, &deployment, None);
    assert!(bulk.2 > 0, "seed {seed}: the schedule reset no session");
    assert_eq!(
        bulk,
        run(&chaos, &deployment, Some(wire)),
        "seed {seed}: chaos runs differ"
    );
}

#[test]
fn dual_stack_with_med_matches_wire_replay() {
    check_world(3, 0.3, true);
}

#[test]
fn mostly_v6_without_med_matches_wire_replay() {
    check_world(8, 0.6, false);
}

#[test]
fn v4_only_matches_wire_replay() {
    check_world(21, 0.0, true);
}
