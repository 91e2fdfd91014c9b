//! The forwarding loop's FIB lookup cache: each lookup unit's
//! longest-match result, kept current by the router's FIB change log.
//!
//! A FIB change at prefix `P` can only move the longest match of the
//! units `P` contains. Under `Prefix` order (family, left-aligned bits,
//! length) those units form one contiguous run starting at the first
//! unit not below `P`, so each logged change re-resolves exactly that run
//! on its next lookup instead of the whole cache.

use std::collections::HashMap;
use std::sync::Arc;

use ef_bgp::route::EgressId;
use ef_bgp::router::BgpRouter;
use ef_net_types::Prefix;

/// The interface slot of an egress that is not one of the PoP's
/// interfaces: its load is not tracked (nothing reads it).
const UNTRACKED: u32 = u32::MAX;

/// One lookup unit's cached forwarding result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FibCacheEntry {
    /// Not looked up since a FIB change covering the unit.
    Unknown,
    /// The trie has no route for this unit.
    NoRoute,
    /// Longest-match result: the egress interface's slot in the PoP's
    /// interface list ([`UNTRACKED`] for any other egress) and whether
    /// the winning route is an override.
    Route { slot: u32, is_override: bool },
}

impl FibCacheEntry {
    /// A fresh trie walk for `unit`.
    fn resolve(router: &BgpRouter, unit: Prefix, slot_of: &HashMap<EgressId, usize>) -> Self {
        match router.fib_lookup(unit) {
            Some((_, e)) => FibCacheEntry::Route {
                slot: slot_of
                    .get(&e.egress)
                    .and_then(|&slot| u32::try_from(slot).ok())
                    .unwrap_or(UNTRACKED),
                is_override: e.is_override,
            },
            None => FibCacheEntry::NoRoute,
        }
    }
}

/// Per-lookup-unit cached results over a prefix universe. Unit code
/// `2 × prefix index + half` names a unit: half 0 is the whole prefix, or
/// its low half under split forwarding; half 1 is the high half.
pub(crate) struct FibCache {
    /// The universe, shared with the runtime; units derive from it.
    prefixes: Arc<[Prefix]>,
    /// Split forwarding: each splittable prefix is looked up as two
    /// halves, so /25 (or /49) overrides take effect.
    split: bool,
    /// Cached result per unit code.
    entries: Vec<FibCacheEntry>,
    /// Every unit code, sorted by the unit's prefix.
    by_prefix: Vec<u32>,
}

impl FibCache {
    /// An empty cache over `prefixes`, split into halves when `split`.
    pub(crate) fn new(prefixes: Arc<[Prefix]>, split: bool) -> Self {
        let mut cache = FibCache {
            entries: vec![FibCacheEntry::Unknown; 2 * prefixes.len()],
            prefixes,
            split,
            by_prefix: Vec::new(),
        };
        let code = |idx: usize, half: usize| {
            u32::try_from(2 * idx + half).expect("lookup unit codes fit in u32")
        };
        // A prefix's units sort right after it, so listing them in
        // universe order leaves the codes sorted unless one universe
        // prefix nests in another: the final sort then only confirms the
        // run in one pass, a fraction of sorting by unit outright.
        let mut order: Vec<usize> = (0..cache.prefixes.len()).collect();
        order.sort_unstable_by_key(|&idx| cache.prefixes[idx]);
        let mut by_prefix: Vec<u32> = order
            .into_iter()
            .flat_map(|idx| {
                let halves = cache.halves(idx).is_some();
                std::iter::once(code(idx, 0)).chain(halves.then(|| code(idx, 1)))
            })
            .collect();
        by_prefix.sort_unstable_by_key(|&c| cache.unit(c as usize));
        cache.by_prefix = by_prefix;
        cache
    }

    /// Marks stale every unit a FIB change may have moved: the units each
    /// listed prefix contains, or every unit when the changes were too
    /// many to list (`None`, see [`BgpRouter::take_fib_changes`]).
    pub(crate) fn invalidate(&mut self, changes: Option<Vec<Prefix>>) {
        let Some(changes) = changes else {
            self.entries.fill(FibCacheEntry::Unknown);
            return;
        };
        for changed in changes {
            let start = self
                .by_prefix
                .partition_point(|&c| self.unit(c as usize) < changed);
            for &c in &self.by_prefix[start..] {
                if !changed.contains(&self.unit(c as usize)) {
                    break;
                }
                self.entries[c as usize] = FibCacheEntry::Unknown;
            }
        }
    }

    /// Forwards `mbps` of universe prefix `idx`'s demand: each unit's
    /// share is added to its interface slot in `load`, and to `detoured`
    /// when an override carries it. Under split forwarding traffic inside
    /// a prefix is uniform, so each half carries half the demand and is
    /// looked up on its own (a /25 override captures exactly half).
    pub(crate) fn forward(
        &mut self,
        idx: usize,
        mbps: f64,
        router: &BgpRouter,
        slot_of: &HashMap<EgressId, usize>,
        load: &mut [f64],
        detoured: &mut f64,
    ) {
        let (shares, share) = match self.halves(idx) {
            Some(_) => (2, mbps / 2.0),
            None => (1, mbps),
        };
        if share <= 0.0 {
            return;
        }
        for half in 0..shares {
            if let FibCacheEntry::Route { slot, is_override } =
                self.lookup(2 * idx + half, router, slot_of)
            {
                if let Some(l) = load.get_mut(slot as usize) {
                    *l += share;
                }
                if is_override {
                    *detoured += share;
                }
            }
        }
    }

    /// The cached result for unit `code`, walking the trie on a miss.
    fn lookup(
        &mut self,
        code: usize,
        router: &BgpRouter,
        slot_of: &HashMap<EgressId, usize>,
    ) -> FibCacheEntry {
        match self.entries[code] {
            FibCacheEntry::Unknown => {
                let resolved = FibCacheEntry::resolve(router, self.unit(code), slot_of);
                self.entries[code] = resolved;
                resolved
            }
            cached => cached,
        }
    }

    /// Universe prefix `idx`'s two halves, when it is forwarded split.
    fn halves(&self, idx: usize) -> Option<(Prefix, Prefix)> {
        self.prefixes[idx].halves().filter(|_| self.split)
    }

    /// The prefix unit `code` looks up.
    fn unit(&self, code: usize) -> Prefix {
        let idx = code >> 1;
        match self.halves(idx) {
            Some((lo, hi)) => [lo, hi][code & 1],
            None => self.prefixes[idx],
        }
    }
}

#[cfg(test)]
impl FibCache {
    /// Asserts every unit's cached result equals a fresh trie walk, and
    /// returns how many units a shorter, covering prefix routes. Every
    /// unit is cached afterwards, so the next batch tests invalidation.
    pub(crate) fn assert_fresh(
        &mut self,
        router: &BgpRouter,
        slot_of: &HashMap<EgressId, usize>,
    ) -> usize {
        let mut covered = 0;
        for code in self.by_prefix.clone() {
            let unit = self.unit(code as usize);
            let fresh = FibCacheEntry::resolve(router, unit, slot_of);
            assert_eq!(
                self.lookup(code as usize, router, slot_of),
                fresh,
                "unit {unit}"
            );
            covered += router
                .fib_lookup(unit)
                .is_some_and(|(matched, _)| matched != unit) as usize;
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_bgp::attrs::{AsPath, PathAttributes};
    use ef_bgp::peer::{PeerId, PeerKind};
    use ef_bgp::policy::Policy;
    use ef_bgp::router::{PeerAttachment, PeerStub, RouterConfig};
    use ef_net_types::{Asn, Community};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::net::Ipv4Addr;

    const LOCAL_AS: Asn = Asn(32934);
    /// Transit and private peers; the controller pseudo-peer.
    const TRANSIT: u64 = 1;
    const PRIVATE: u64 = 2;
    const CONTROLLER: u64 = 100;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn marker() -> Community {
        Community::new(32934, 999)
    }

    /// Attaches `peer` and brings its session up.
    fn connect(router: &mut BgpRouter, peer: u64, kind: PeerKind) -> PeerStub {
        let policy = match kind {
            PeerKind::Controller => Policy::controller_import(marker()),
            _ => Policy::default_import(LOCAL_AS, kind),
        };
        let asn = if kind == PeerKind::Controller {
            LOCAL_AS
        } else {
            Asn(65000 + peer as u32)
        };
        router.add_peer(PeerAttachment {
            peer: PeerId(peer),
            peer_asn: asn,
            kind,
            egress: EgressId(peer as u32),
            policy,
            max_prefixes: 0,
        });
        let mut stub = PeerStub::new(PeerId(peer), asn, Ipv4Addr::new(10, 9, peer as u8, 1));
        stub.pump(router, 0);
        assert!(stub.is_established());
        stub
    }

    /// Attributes for an announcement from `peer`; overrides name their
    /// egress in the next hop and carry the marker.
    fn attrs_for(peer: u64, rng: &mut StdRng) -> PathAttributes {
        if peer == CONTROLLER {
            let egress = EgressId(rng.gen_range(1u32..=3));
            let mut attrs = PathAttributes {
                next_hop: egress.to_next_hop().ok(),
                ..Default::default()
            };
            attrs.add_community(marker());
            attrs
        } else {
            let asn = Asn(65000 + peer as u32);
            PathAttributes {
                as_path: AsPath::sequence((0..rng.gen_range(1..4)).map(|_| asn)),
                ..Default::default()
            }
        }
    }

    /// The nested route universe: per peer, the prefixes it may announce.
    /// Lookup units are mostly /24s and /48s; the routes cover them at
    /// every depth (the v4 default, /8-/16 aggregates, the units themselves,
    /// their /25 and /49 halves).
    fn route_pool(units: &[Prefix]) -> [(u64, Vec<Prefix>); 3] {
        let aggregates = ["10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/15", "172.16.0.0/12"];
        let mut transit: Vec<Prefix> = aggregates.iter().map(|a| p(a)).collect();
        let mut private = transit.clone();
        transit.extend([Prefix::DEFAULT_V4, p("2001:db8::/32")]);
        private.push(p("2001:db8:1::/47"));
        transit.extend(units);
        private.extend(units);
        let mut overrides = units.to_vec();
        overrides.extend(
            units
                .iter()
                .filter_map(|u| u.halves())
                .flat_map(|(lo, hi)| [lo, hi]),
        );
        [
            (TRANSIT, transit),
            (PRIVATE, private),
            (CONTROLLER, overrides),
        ]
    }

    fn universe() -> Arc<[Prefix]> {
        let mut units = Vec::new();
        for second in [1u8, 2, 3] {
            for third in 0..6u8 {
                units.push(Prefix::v4(Ipv4Addr::new(10, second, third, 0), 24));
            }
        }
        for third in 0..4u8 {
            units.push(Prefix::v4(Ipv4Addr::new(172, 16, third, 0), 24));
        }
        for i in 0..6u16 {
            units.push(p(&format!("2001:db8:{i}::/48")));
        }
        // Universe prefixes that nest others, out of order.
        units.extend([p("10.1.0.0/16"), p("2001:db8::/47")]);
        units.into()
    }

    #[test]
    fn cached_results_match_fresh_lookups_under_nested_churn() {
        let prefixes = universe();
        let pool = route_pool(&prefixes);
        // Egress 1 is no PoP interface: its routes still count as routes.
        let slot_of: HashMap<EgressId, usize> = [(EgressId(2), 0), (EgressId(3), 1)].into();
        for split in [false, true] {
            let mut rng = StdRng::seed_from_u64(0x0F1B_CACE ^ split as u64);
            let mut router = BgpRouter::new(RouterConfig {
                name: "pop0-pr0".into(),
                asn: LOCAL_AS,
                router_id: Ipv4Addr::new(10, 0, 0, 1),
            });
            let mut stubs: HashMap<u64, PeerStub> = [
                (TRANSIT, PeerKind::Transit),
                (PRIVATE, PeerKind::PrivatePeer),
                (CONTROLLER, PeerKind::Controller),
            ]
            .into_iter()
            .map(|(peer, kind)| (peer, connect(&mut router, peer, kind)))
            .collect();
            let mut cache = FibCache::new(prefixes.clone(), split);
            let (mut overflows, mut covered, mut checked) = (0, 0, 0);
            for batch in 0..120u64 {
                let now = batch + 1;
                // Peer flushes: the private peer alone, then every peer
                // at once, a flush as large as the FIB that overflows the
                // change log.
                let flapped: &[(u64, PeerKind)] = match batch % 40 {
                    15 => &[(PRIVATE, PeerKind::PrivatePeer)],
                    30 => &[
                        (TRANSIT, PeerKind::Transit),
                        (PRIVATE, PeerKind::PrivatePeer),
                        (CONTROLLER, PeerKind::Controller),
                    ],
                    _ => &[],
                };
                if !flapped.is_empty() {
                    for &(peer, kind) in flapped {
                        if let Some(stub) = stubs.get_mut(&peer) {
                            stub.shutdown(&mut router, now);
                        }
                        stubs.insert(peer, connect(&mut router, peer, kind));
                    }
                } else {
                    for _ in 0..rng.gen_range(1..12) {
                        // Organic routes outnumber overrides, as in a PoP.
                        let (peer, prefixes) = &pool[match rng.gen_range(0..10) {
                            0..=4 => 0,
                            5..=7 => 1,
                            _ => 2,
                        }];
                        let (peer, prefix) = (*peer, prefixes[rng.gen_range(0..prefixes.len())]);
                        let attrs = attrs_for(peer, &mut rng);
                        let stub = stubs.get_mut(&peer).unwrap();
                        if rng.gen_bool(0.7) {
                            stub.announce(&mut router, prefix, attrs, now);
                        } else {
                            stub.withdraw(&mut router, [prefix], now);
                        }
                    }
                }
                let changes = router.take_fib_changes();
                overflows += changes.is_none() as u32;
                cache.invalidate(changes);
                covered += cache.assert_fresh(&router, &slot_of);
                checked += cache.by_prefix.len();
            }
            assert!(overflows >= 3, "every full flush overflowed the log");
            assert!(
                covered * 10 > checked,
                "a covering prefix routed {covered} of {checked} unit checks"
            );
        }
    }
}
