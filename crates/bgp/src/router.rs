//! A peering router (PR): BGP sessions in, import policy, RIBs, decision
//! process, FIB out — plus the BMP feed the Edge Fabric controller taps.
//!
//! This is the device the controller manipulates. It has no knowledge of
//! Edge Fabric beyond one extra BGP session (the controller pseudo-peer)
//! whose routes carry a next hop encoding the target egress interface and a
//! `LOCAL_PREF` high enough to win the decision process — exactly the
//! injection mechanism of paper §4.3.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use bytes::Bytes;

use ef_net_types::{Asn, CompressedTrie, Prefix};

use crate::attrs::PathAttributes;
use crate::attrstore::{AttrId, AttrStore, RouteRec};
use crate::bmp::{BmpMessage, BmpPeerHeader};
use crate::message::{RefreshSubtype, RouteRefreshMessage, UpdateMessage};
use crate::peer::{PeerId, PeerKind};
use crate::policy::{Policy, PolicyVerdict};
use crate::rib::{AdjRibIn, BestChange, LocRib};
use crate::route::{EgressId, Route, RouteSource};
use crate::session::{Millis, Session, SessionConfig, SessionEvent, SessionStats};

/// Static identity of a router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Human-readable name, e.g. `"pop3-pr1"`; also the BMP sysName.
    pub name: String,
    /// Local ASN (the content provider's).
    pub asn: Asn,
    /// BGP router ID.
    pub router_id: Ipv4Addr,
}

/// How a peer is attached to this router.
#[derive(Debug, Clone)]
pub struct PeerAttachment {
    /// Global peer identity.
    pub peer: PeerId,
    /// Peer's ASN.
    pub peer_asn: Asn,
    /// Interconnect kind (drives default policy and reporting).
    pub kind: PeerKind,
    /// The egress interface routes from this peer forward onto.
    pub egress: EgressId,
    /// Import policy applied to this peer's announcements.
    pub policy: Policy,
    /// Maximum accepted prefixes from this peer (0 = unlimited). Exceeding
    /// the limit tears the session down with a Cease notification, the
    /// standard max-prefix protection against leaks and fat-finger
    /// announcements.
    pub max_prefixes: usize,
}

/// A forwarding entry: where packets for a prefix leave the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibEntry {
    /// Egress interface.
    pub egress: EgressId,
    /// The peer whose route won (for attribution in reports).
    pub peer: PeerId,
    /// True when the winning route was a controller override.
    pub is_override: bool,
}

/// The forwarding table with its change tracking. Every mutation goes
/// through [`apply_best_change`](Self::apply_best_change), which bumps the
/// version and logs the prefix it changed.
struct Fib {
    trie: CompressedTrie<FibEntry>,
    /// Monotonic counter bumped on every FIB mutation (install, replace,
    /// remove). Embedders can snapshot it to revalidate cached lookup
    /// results without walking the trie.
    version: u64,
    /// Prefixes whose entry changed since the last
    /// [`take_fib_changes`](BgpRouter::take_fib_changes), in mutation
    /// order. `None` once the log held as many entries as the trie holds
    /// prefixes: a change that large is reported as "everything", which
    /// keeps an undrained log at O(FIB).
    changes: Option<Vec<Prefix>>,
}

impl Fib {
    fn new() -> Self {
        Fib {
            trie: CompressedTrie::new(),
            version: 0,
            changes: Some(Vec::new()),
        }
    }

    fn apply_best_change(&mut self, prefix: Prefix, change: BestChange) {
        match change {
            BestChange::Unchanged => return,
            BestChange::NewBest(route) => {
                self.trie.insert(
                    prefix,
                    FibEntry {
                        egress: route.egress,
                        peer: route.source.peer,
                        is_override: route.is_override(),
                    },
                );
            }
            BestChange::Unreachable => {
                self.trie.remove(&prefix);
            }
        }
        self.version += 1;
        if let Some(log) = &mut self.changes {
            log.push(prefix);
            if log.len() >= self.trie.len() {
                self.changes = None;
            }
        }
    }
}

struct PeerState {
    attach: PeerAttachment,
    session: Session,
    adj_in: AdjRibIn,
    up: bool,
    /// Adj-RIB-In prefixes snapshotted when the peer's BoRR arrived; each
    /// re-announcement during the replay removes its prefix, and whatever
    /// remains at EoRR is stale and swept (RFC 7313 §4.2).
    stale_sweep: Option<BTreeSet<Prefix>>,
}

/// What import did with one announced prefix.
enum Imported {
    /// Accepted and installed, with the post-policy attributes.
    Accepted(PathAttributes),
    /// Rejected, removing the route the peer announced before.
    Withdrawn,
    /// Rejected, with nothing to remove.
    Rejected,
}

/// A router's initial table, handed to the controller's route collector so
/// it need not replay the load as BMP (see
/// [`BgpRouter::finish_table_load`]).
#[derive(Debug, Default)]
pub struct TableSeed {
    /// The Loc-RIB in arrival order: every slot, record and interned id
    /// as a BMP-fed collector would have built them.
    rib: LocRib,
    /// Per prefix, the arrival number of the last non-override route
    /// change the load made to it (1-based).
    last_arrival: HashMap<Prefix, u64>,
    /// Number of non-override route changes the load made.
    arrivals: u64,
}

impl TableSeed {
    /// The arrival-order Loc-RIB, each prefix's last arrival number, and
    /// the number of arrivals.
    pub fn into_parts(self) -> (LocRib, HashMap<Prefix, u64>, u64) {
        (self.rib, self.last_arrival, self.arrivals)
    }
}

/// A BGP peering router.
pub struct BgpRouter {
    cfg: RouterConfig,
    peers: HashMap<PeerId, PeerState>,
    loc_rib: LocRib,
    fib: Fib,
    bmp_queue: Vec<BmpMessage>,
    /// Locally originated prefixes (the content provider's own nets),
    /// exported to every real peer with the local ASN prepended.
    local_origins: Vec<Prefix>,
    /// Arrival stamps of the initial-table load in progress, taken by
    /// [`finish_table_load`](Self::finish_table_load).
    last_arrival: HashMap<Prefix, u64>,
    arrivals: u64,
}

impl BgpRouter {
    /// Creates a router with no peers. Emits a BMP Initiation so any
    /// monitoring station knows the feed (re)started.
    pub fn new(cfg: RouterConfig) -> Self {
        let bmp_queue = vec![BmpMessage::Initiation {
            sys_name: cfg.name.clone(),
        }];
        BgpRouter {
            cfg,
            peers: HashMap::new(),
            loc_rib: LocRib::new(),
            fib: Fib::new(),
            bmp_queue,
            local_origins: Vec::new(),
            last_arrival: HashMap::new(),
            arrivals: 0,
        }
    }

    /// Attributes this router exports with its own prefixes: origin IGP,
    /// the local ASN as the path (eBGP prepend), a synthetic next hop.
    fn export_attrs(&self) -> PathAttributes {
        PathAttributes {
            origin: crate::attrs::Origin::Igp,
            as_path: crate::attrs::AsPath::sequence([self.cfg.asn]),
            next_hop: Some(self.cfg.router_id),
            ..Default::default()
        }
    }

    /// Originates a locally owned prefix: it is announced immediately to
    /// every established real peer (not the controller pseudo-peer) and to
    /// every peer that comes up later. This is the provider's own address
    /// space — what the eyeball networks route *toward*.
    pub fn originate(&mut self, prefix: Prefix) {
        if self.local_origins.contains(&prefix) {
            return;
        }
        self.local_origins.push(prefix);
        let attrs = self.export_attrs();
        for state in self.peers.values_mut() {
            if state.up && state.attach.kind != PeerKind::Controller {
                let _ = state
                    .session
                    .send_update(UpdateMessage::announce(prefix, attrs.clone()));
            }
        }
    }

    /// Withdraws a locally originated prefix from every peer.
    pub fn withdraw_origin(&mut self, prefix: Prefix) {
        if let Some(pos) = self.local_origins.iter().position(|p| *p == prefix) {
            self.local_origins.remove(pos);
            for state in self.peers.values_mut() {
                if state.up && state.attach.kind != PeerKind::Controller {
                    let _ = state.session.send_update(UpdateMessage::withdraw([prefix]));
                }
            }
        }
    }

    /// The locally originated prefixes.
    pub fn local_origins(&self) -> &[Prefix] {
        &self.local_origins
    }

    /// Router name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Local ASN.
    pub fn asn(&self) -> Asn {
        self.cfg.asn
    }

    /// Attaches a peer and starts its session (local side). The remote side
    /// must drive the handshake by exchanging bytes via
    /// [`deliver`](Self::deliver) / [`collect_outbox`](Self::collect_outbox),
    /// or use [`PeerStub::pump`].
    pub fn add_peer(&mut self, attach: PeerAttachment) {
        let mut session = Session::new(SessionConfig::new(self.cfg.asn, self.cfg.router_id));
        session.start();
        session.transport_connected(0);
        self.peers.insert(
            attach.peer,
            PeerState {
                attach,
                session,
                adj_in: AdjRibIn::new(),
                up: false,
                stale_sweep: None,
            },
        );
    }

    /// Removes a peer entirely (deprovisioning), flushing its routes.
    pub fn remove_peer(&mut self, peer: PeerId, now: Millis) {
        if let Some(mut state) = self.peers.remove(&peer) {
            state.adj_in.clear();
            self.flush_peer_routes(peer, &state.attach, now, 2);
        }
    }

    /// True if the session with `peer` is established.
    pub fn peer_up(&self, peer: PeerId) -> bool {
        self.peers.get(&peer).map(|p| p.up).unwrap_or(false)
    }

    /// The attachment metadata for a peer.
    pub fn attachment(&self, peer: PeerId) -> Option<&PeerAttachment> {
        self.peers.get(&peer).map(|p| &p.attach)
    }

    /// Peers attached to this router.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        let mut v: Vec<PeerId> = self.peers.keys().copied().collect();
        v.sort();
        v
    }

    /// Feeds bytes arriving from `peer`'s remote endpoint.
    pub fn deliver(&mut self, peer: PeerId, bytes: &[u8], now: Millis) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let events = state.session.receive_bytes(bytes, now);
        self.process_events(peer, events, now);
    }

    /// Drains bytes this router wants to send to `peer`'s remote endpoint.
    pub fn collect_outbox(&mut self, peer: PeerId) -> Vec<Bytes> {
        self.peers
            .get_mut(&peer)
            .map(|p| p.session.take_outbox())
            .unwrap_or_default()
    }

    /// Advances session timers for every peer.
    pub fn tick(&mut self, now: Millis) {
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        for peer in ids {
            let events = match self.peers.get_mut(&peer) {
                Some(state) => state.session.tick(now),
                None => continue,
            };
            self.process_events(peer, events, now);
        }
    }

    fn process_events(&mut self, peer: PeerId, events: Vec<SessionEvent>, now: Millis) {
        for ev in events {
            match ev {
                SessionEvent::Up(open) => {
                    let export = self.export_attrs();
                    let origins = self.local_origins.clone();
                    if let Some(state) = self.peers.get_mut(&peer) {
                        state.up = true;
                        self.bmp_queue.push(BmpMessage::PeerUp(BmpPeerHeader {
                            peer,
                            peer_asn: open.asn,
                            peer_bgp_id: open.router_id,
                            timestamp_ms: now,
                        }));
                        // Export the provider's own prefixes to real peers.
                        if state.attach.kind != PeerKind::Controller {
                            for prefix in origins {
                                let _ = state
                                    .session
                                    .send_update(UpdateMessage::announce(prefix, export.clone()));
                            }
                        }
                    }
                }
                SessionEvent::Down(_) => {
                    if let Some(state) = self.peers.get_mut(&peer) {
                        state.up = false;
                        state.adj_in.clear();
                        state.stale_sweep = None;
                        let attach = state.attach.clone();
                        self.flush_peer_routes(peer, &attach, now, 1);
                    }
                }
                SessionEvent::Update(update) => self.apply_update(peer, update, now),
                SessionEvent::Refresh(refresh) => self.handle_refresh(peer, refresh, now),
            }
        }
    }

    /// Handles a ROUTE-REFRESH on `peer`'s session. As responder, a request
    /// is answered by replaying this router's Adj-RIB-Out toward the peer
    /// (its locally originated prefixes), bracketed with BoRR/EoRR when the
    /// session negotiated enhanced refresh. As requester, BoRR snapshots the
    /// Adj-RIB-In and EoRR sweeps whatever the replay did not re-announce.
    fn handle_refresh(&mut self, peer: PeerId, refresh: RouteRefreshMessage, now: Millis) {
        match refresh.subtype {
            RefreshSubtype::Request => {
                let export = self.export_attrs();
                let origins = self.local_origins.clone();
                if let Some(state) = self.peers.get_mut(&peer) {
                    let enhanced = state.session.negotiated().enhanced_refresh;
                    if enhanced {
                        let _ = state.session.send_refresh_marker(RefreshSubtype::BoRR);
                    }
                    if state.attach.kind != PeerKind::Controller {
                        for prefix in origins {
                            let _ = state
                                .session
                                .send_update(UpdateMessage::announce(prefix, export.clone()));
                        }
                    }
                    if enhanced {
                        let _ = state.session.send_refresh_marker(RefreshSubtype::EoRR);
                    }
                }
            }
            RefreshSubtype::BoRR => {
                if let Some(state) = self.peers.get_mut(&peer) {
                    state.stale_sweep = Some(state.adj_in.iter().map(|(p, _)| *p).collect());
                }
            }
            RefreshSubtype::EoRR => {
                let stale = self
                    .peers
                    .get_mut(&peer)
                    .and_then(|state| state.stale_sweep.take());
                if let Some(stale) = stale {
                    if !stale.is_empty() {
                        self.apply_update(peer, UpdateMessage::withdraw(stale), now);
                    }
                }
            }
        }
    }

    /// Asks `peer` to replay its Adj-RIB-Out (RFC 2918) — the recovery path
    /// used after RFC 7606 treat-as-withdraw damage instead of a session
    /// bounce. The sweep of stale paths arms itself when the peer's BoRR
    /// arrives.
    pub fn request_refresh(&mut self, peer: PeerId) -> Result<(), crate::session::SessionError> {
        match self.peers.get_mut(&peer) {
            Some(state) => state.session.request_refresh(),
            None => Err(crate::session::SessionError::NotEstablished),
        }
    }

    /// Snapshot of `peer`'s RFC 7606 / refresh counters, for telemetry.
    pub fn session_stats(&self, peer: PeerId) -> Option<SessionStats> {
        self.peers.get(&peer).map(|state| state.session.stats())
    }

    /// Lifetime sum of RFC 7606 treat-as-withdraw downgrades across all
    /// peers. One pass, no allocation — the health tier reads this every
    /// epoch.
    pub fn updates_downgraded_total(&self) -> u64 {
        self.peers
            .values()
            .map(|state| state.session.stats().updates_downgraded)
            .sum()
    }

    fn flush_peer_routes(
        &mut self,
        peer: PeerId,
        attach: &PeerAttachment,
        now: Millis,
        reason: u8,
    ) {
        let changes = self.loc_rib.withdraw_peer(peer);
        for (prefix, change) in changes {
            self.fib.apply_best_change(prefix, change);
        }
        self.bmp_queue.push(BmpMessage::PeerDown {
            peer: BmpPeerHeader {
                peer,
                peer_asn: attach.peer_asn,
                peer_bgp_id: self.cfg.router_id,
                timestamp_ms: now,
            },
            reason,
        });
    }

    /// Applies an UPDATE from `peer`: import policy, RIBs, FIB, BMP.
    fn apply_update(&mut self, peer: PeerId, update: UpdateMessage, now: Millis) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let peer_asn = state.attach.peer_asn;

        // During an enhanced-refresh replay, anything the peer re-announces
        // (or explicitly withdraws) is no longer a sweep candidate.
        if let Some(sweep) = state.stale_sweep.as_mut() {
            for prefix in update.announced.iter().chain(update.withdrawn.iter()) {
                sweep.remove(prefix);
            }
        }

        let mut accepted: Vec<(Prefix, PathAttributes)> = Vec::new();
        let mut effective_withdrawals: Vec<Prefix> = update.withdrawn.clone();

        for prefix in &update.announced {
            match Self::import_prefix(
                state,
                &mut self.loc_rib,
                &mut self.fib,
                *prefix,
                update.attrs.clone(),
            ) {
                Imported::Accepted(attrs) => accepted.push((*prefix, attrs)),
                Imported::Withdrawn => effective_withdrawals.push(*prefix),
                Imported::Rejected => {}
            }
        }

        for prefix in &update.withdrawn {
            state.adj_in.withdraw(prefix);
            let change = self.loc_rib.withdraw(prefix, peer);
            self.fib.apply_best_change(*prefix, change);
        }

        if self.enforce_max_prefixes(peer, now) {
            return;
        }

        // Mirror the post-policy view onto the BMP feed. Announcements that
        // shared attributes on the wire may have diverged post-policy, so
        // group by rewritten attribute set.
        let header = BmpPeerHeader {
            peer,
            peer_asn,
            peer_bgp_id: self.cfg.router_id,
            timestamp_ms: now,
        };
        if !effective_withdrawals.is_empty() {
            self.bmp_queue.push(BmpMessage::RouteMonitoring {
                peer: header,
                update: UpdateMessage::withdraw(effective_withdrawals),
            });
        }
        let mut grouped: Vec<(PathAttributes, Vec<Prefix>)> = Vec::new();
        for (prefix, attrs) in accepted {
            match grouped.iter_mut().find(|(a, _)| *a == attrs) {
                Some((_, list)) => list.push(prefix),
                None => grouped.push((attrs, vec![prefix])),
            }
        }
        for (attrs, announced) in grouped {
            self.bmp_queue.push(BmpMessage::RouteMonitoring {
                peer: header,
                update: UpdateMessage {
                    withdrawn: Vec::new(),
                    attrs,
                    announced,
                },
            });
        }
    }

    /// The per-prefix body of UPDATE processing, shared by the wire path
    /// and the initial-table load: import policy, then Adj-RIB-In and
    /// Loc-RIB install and the FIB update on accept, or treat-as-withdraw
    /// of the peer's previous route on reject.
    // Static over `&mut self` because callers hold a borrow into
    // `self.peers` while mutating the RIBs and FIB.
    fn import_prefix(
        state: &mut PeerState,
        loc_rib: &mut LocRib,
        fib: &mut Fib,
        prefix: Prefix,
        mut attrs: PathAttributes,
    ) -> Imported {
        let attach = &state.attach;
        let source = RouteSource {
            peer: attach.peer,
            peer_asn: attach.peer_asn,
            kind: attach.kind,
        };
        match attach.policy.apply(&prefix, &mut attrs, &source) {
            PolicyVerdict::Accept => {
                // Controller routes name their egress via the synthetic
                // next hop; organic routes use the attachment's egress.
                let egress = if attach.kind == PeerKind::Controller {
                    attrs
                        .next_hop
                        .and_then(EgressId::from_next_hop)
                        .unwrap_or(attach.egress)
                } else {
                    attach.egress
                };
                // Attribute sets are interned: both RIBs take a handle,
                // paying one deep clone per *distinct* set, not per route.
                state.adj_in.install_ref(prefix, &attrs, source, egress);
                let change = loc_rib.install_ref(prefix, &attrs, source, egress);
                fib.apply_best_change(prefix, change);
                Imported::Accepted(attrs)
            }
            PolicyVerdict::Reject => {
                // A re-announcement that now fails policy removes any
                // previously accepted route (treat as withdraw).
                if state.adj_in.withdraw(&prefix).is_none() {
                    return Imported::Rejected;
                }
                let change = loc_rib.withdraw(&prefix, source.peer);
                fib.apply_best_change(prefix, change);
                Imported::Withdrawn
            }
        }
    }

    /// Max-prefix protection: a peer over its limit is cut off with a
    /// Cease and its routes flushed. Returns true if that happened.
    fn enforce_max_prefixes(&mut self, peer: PeerId, now: Millis) -> bool {
        let Some(state) = self.peers.get_mut(&peer) else {
            return false;
        };
        let limit = state.attach.max_prefixes;
        if limit == 0 || state.adj_in.len() <= limit {
            return false;
        }
        let _ = state.session.stop();
        state.up = false;
        state.adj_in.clear();
        let attach = state.attach.clone();
        self.flush_peer_routes(peer, &attach, now, 3);
        true
    }

    /// Loads one route of the initial table of `peer`'s freshly
    /// established session straight into the RIBs and FIB: the same
    /// per-prefix import as an UPDATE arriving on the session
    /// (policy, Adj-RIB-In, Loc-RIB, FIB, max-prefix), with nothing
    /// encoded, decoded or mirrored onto the BMP feed. `attrs` must be
    /// what the wire would deliver — [`PeerStub::preload`] applies the
    /// sender's next-hop fill. The controller's view comes from
    /// [`finish_table_load`](Self::finish_table_load) instead of BMP.
    ///
    /// Returns whether the session is still established afterwards (false
    /// for an unknown or down peer, and after a max-prefix teardown).
    pub(crate) fn load_route(
        &mut self,
        peer: PeerId,
        prefix: Prefix,
        attrs: PathAttributes,
        now: Millis,
    ) -> bool {
        let Some(state) = self.peers.get_mut(&peer) else {
            return false;
        };
        if !state.up {
            return false;
        }
        let is_override = state.attach.kind == PeerKind::Controller;
        let imported = Self::import_prefix(state, &mut self.loc_rib, &mut self.fib, prefix, attrs);
        // Every non-override Loc-RIB change is one arrival, exactly the
        // BMP messages a collector would have counted.
        if !is_override && !matches!(imported, Imported::Rejected) {
            self.arrivals += 1;
            self.last_arrival.insert(prefix, self.arrivals);
        }
        !self.enforce_max_prefixes(peer, now)
    }

    /// Ends the initial-table load. The Loc-RIB is re-laid out
    /// prefix-sorted for the epoch loop's scans; its arrival-order layout,
    /// with the arrival stamps of every [`PeerStub::preload`], is returned
    /// as the [`TableSeed`] a route collector starts from — the structure
    /// it would have built by ingesting the load as BMP. A table announced
    /// over the wire reaches the collector as BMP instead, and its seed is
    /// not needed.
    pub fn finish_table_load(&mut self) -> TableSeed {
        let compacted = self.loc_rib.compacted();
        TableSeed {
            rib: std::mem::replace(&mut self.loc_rib, compacted),
            last_arrival: std::mem::take(&mut self.last_arrival),
            arrivals: std::mem::take(&mut self.arrivals),
        }
    }

    /// Monotonic FIB version: changes iff the FIB changed since the last
    /// observation, so `fib_version() == cached_version` proves every cached
    /// [`fib_lookup`](Self::fib_lookup) result is still current.
    pub fn fib_version(&self) -> u64 {
        self.fib.version
    }

    /// Takes the log of prefixes whose FIB entry changed since the last
    /// take, in mutation order (a prefix changed twice is listed twice).
    /// A change at prefix `P` can only move the longest match of keys `P`
    /// contains. `None` means the changes were too many to list — as many
    /// as the FIB holds prefixes — and every cached lookup is stale.
    pub fn take_fib_changes(&mut self) -> Option<Vec<Prefix>> {
        self.fib.changes.replace(Vec::new())
    }

    /// Longest-prefix-match forwarding lookup.
    pub fn fib_lookup(&self, key: Prefix) -> Option<(Prefix, &FibEntry)> {
        self.fib.trie.longest_match(key)
    }

    /// The exact FIB entry for a prefix, if installed.
    pub fn fib_entry(&self, prefix: &Prefix) -> Option<&FibEntry> {
        self.fib.trie.get(prefix)
    }

    /// Number of prefixes in the FIB.
    pub fn fib_len(&self) -> usize {
        self.fib.trie.len()
    }

    /// The router's full view of candidates for a prefix (all peers).
    pub fn candidates(&self, prefix: &Prefix) -> &[RouteRec] {
        self.loc_rib.candidates(prefix)
    }

    /// Candidates ranked best-first (allocating; hot paths use
    /// [`ranked_into`](Self::ranked_into)).
    pub fn ranked(&self, prefix: &Prefix) -> Vec<RouteRec> {
        self.loc_rib.ranked(prefix)
    }

    /// Candidates ranked best-first into a reused scratch buffer.
    pub fn ranked_into(&self, prefix: &Prefix, out: &mut Vec<RouteRec>) {
        self.loc_rib.ranked_into(prefix, out)
    }

    /// The decision winner for a prefix.
    pub fn best(&self, prefix: &Prefix) -> Option<&RouteRec> {
        self.loc_rib.best(prefix)
    }

    /// Materializes the full route for a Loc-RIB record (cold paths:
    /// reports, audits).
    pub fn rib_route(&self, prefix: Prefix, rec: &RouteRec) -> Route {
        self.loc_rib.route(prefix, rec)
    }

    /// The attribute store backing the Loc-RIB.
    pub fn rib_store(&self) -> &AttrStore {
        self.loc_rib.store()
    }

    /// Iterates `(prefix, best)` over the whole Loc-RIB.
    pub fn iter_best(&self) -> impl Iterator<Item = (&Prefix, &RouteRec)> {
        self.loc_rib.iter_best()
    }

    /// Iterates `(prefix, all candidates)`.
    pub fn iter_candidates(&self) -> impl Iterator<Item = (&Prefix, &[RouteRec])> {
        self.loc_rib.iter()
    }

    /// Total candidate routes across all prefixes.
    pub fn rib_route_count(&self) -> usize {
        self.loc_rib.route_count()
    }

    /// Distinct attribute sets interned in the Loc-RIB.
    pub fn rib_distinct_attrs(&self) -> usize {
        self.loc_rib.distinct_attrs()
    }

    /// Approximate resident bytes of the Loc-RIB's compact layout.
    pub fn rib_approx_bytes(&self) -> usize {
        self.loc_rib.approx_bytes()
    }

    /// Drains queued BMP messages (the monitoring feed).
    pub fn drain_bmp(&mut self) -> Vec<BmpMessage> {
        std::mem::take(&mut self.bmp_queue)
    }

    /// Produces the initial-state dump a freshly connected BMP station
    /// receives (RFC 7854 §3.3): Initiation, a PeerUp per established
    /// peer, and RouteMonitoring for every route currently in each
    /// Adj-RIB-In. A restarted Edge Fabric controller resynchronizes its
    /// collector from exactly this snapshot.
    pub fn bmp_snapshot(&self, now: Millis) -> Vec<BmpMessage> {
        let mut out = vec![BmpMessage::Initiation {
            sys_name: self.cfg.name.clone(),
        }];
        let mut peers: Vec<&PeerState> = self.peers.values().collect();
        peers.sort_by_key(|p| p.attach.peer);
        for state in peers {
            if !state.up {
                continue;
            }
            let header = BmpPeerHeader {
                peer: state.attach.peer,
                peer_asn: state.attach.peer_asn,
                peer_bgp_id: self.cfg.router_id,
                timestamp_ms: now,
            };
            out.push(BmpMessage::PeerUp(header));
            let mut entries: Vec<(Prefix, RouteRec)> =
                state.adj_in.iter().map(|(p, r)| (*p, *r)).collect();
            entries.sort_by_key(|(p, _)| *p);
            for (prefix, rec) in entries {
                out.push(BmpMessage::RouteMonitoring {
                    peer: header,
                    update: UpdateMessage {
                        withdrawn: Vec::new(),
                        attrs: state.adj_in.store().attrs(rec.attr).clone(),
                        announced: vec![prefix],
                    },
                });
            }
        }
        out
    }
}

/// A minimal remote BGP speaker: holds one session toward a router and
/// announces a configured route set. The topology uses one stub per peer
/// interconnect; the Edge Fabric injector uses the same machinery for the
/// controller pseudo-peer.
pub struct PeerStub {
    /// Identity this stub registers as on the router.
    pub peer: PeerId,
    session: Session,
    /// UPDATEs the router sent this peer (its export view of us).
    received: Vec<UpdateMessage>,
    /// Sends refused by the session (not established, or encode failure),
    /// recorded by the infallible convenience senders instead of panicking.
    send_errors: u64,
    /// This stub's intended Adj-RIB-Out: every prefix it currently
    /// advertises with the attributes last sent. A ROUTE-REFRESH request
    /// from the router is answered by replaying this map, which is what
    /// heals treat-as-withdraw damage without a session bounce. Attribute
    /// sets are interned in `adv_store` — at full-table scale this map is
    /// one of four per-route attribute copies the compact layout collapses.
    advertised: BTreeMap<Prefix, AttrId>,
    adv_store: AttrStore,
}

impl PeerStub {
    /// Creates the stub's session (not yet connected).
    pub fn new(peer: PeerId, asn: Asn, router_id: Ipv4Addr) -> Self {
        let mut session = Session::new(SessionConfig::new(asn, router_id));
        session.start();
        session.transport_connected(0);
        PeerStub {
            peer,
            session,
            received: Vec::new(),
            send_errors: 0,
            advertised: BTreeMap::new(),
            adv_store: AttrStore::new(),
        }
    }

    /// Announcements/withdrawals the router has exported to this peer.
    pub fn received_updates(&self) -> &[UpdateMessage] {
        &self.received
    }

    /// Sends dropped by the infallible convenience senders because the
    /// session refused them (not established, or encode failure).
    pub fn send_errors(&self) -> u64 {
        self.send_errors
    }

    /// True once the session is established.
    pub fn is_established(&self) -> bool {
        self.session.is_established()
    }

    /// Runs the handshake / delivers pending data both ways until quiescent.
    /// A ROUTE-REFRESH request from the router is answered in-line by
    /// replaying the advertised map (bracketed with BoRR/EoRR when the
    /// session negotiated enhanced refresh); the replay drains on the next
    /// shuttle round.
    pub fn pump(&mut self, router: &mut BgpRouter, now: Millis) {
        for _ in 0..8 {
            let to_router = self.session.take_outbox();
            let mut moved = !to_router.is_empty();
            for bytes in to_router {
                router.deliver(self.peer, &bytes, now);
            }
            let to_stub = router.collect_outbox(self.peer);
            moved |= !to_stub.is_empty();
            for bytes in to_stub {
                for event in self.session.receive_bytes(&bytes, now) {
                    match event {
                        SessionEvent::Update(update) => self.received.push(update),
                        SessionEvent::Refresh(r) if r.subtype == RefreshSubtype::Request => {
                            let enhanced = self.session.negotiated().enhanced_refresh;
                            if enhanced {
                                let _ = self.session.send_refresh_marker(RefreshSubtype::BoRR);
                            }
                            for (prefix, id) in &self.advertised {
                                let attrs = self.adv_store.attrs(*id).clone();
                                let _ = self
                                    .session
                                    .send_update(UpdateMessage::announce(*prefix, attrs));
                            }
                            if enhanced {
                                let _ = self.session.send_refresh_marker(RefreshSubtype::EoRR);
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// Asks the router to replay its exports toward this peer and pumps.
    pub fn request_refresh(
        &mut self,
        router: &mut BgpRouter,
        now: Millis,
    ) -> Result<(), crate::session::SessionError> {
        self.session.request_refresh()?;
        self.pump(router, now);
        Ok(())
    }

    /// Snapshot of this stub's session counters.
    pub fn session_stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// The attributes an announcement of `prefix` carries on the wire:
    /// IPv4 NLRI need a NEXT_HOP, so a missing one is filled with a
    /// documentation address (organic peers' egress is fixed by the
    /// attachment anyway).
    pub fn wire_attrs(prefix: &Prefix, mut attrs: PathAttributes) -> PathAttributes {
        if attrs.next_hop.is_none() && prefix.is_v4() {
            attrs.next_hop = Some(Ipv4Addr::new(192, 0, 2, 1));
        }
        attrs
    }

    /// Announces a prefix with the given attributes and pumps.
    ///
    /// INVARIANT: a single-prefix announce with a next hop is far below the
    /// wire size ceiling, so on an established session this cannot fail;
    /// callers pump/establish first. Failures are counted, never panicked.
    pub fn announce(
        &mut self,
        router: &mut BgpRouter,
        prefix: Prefix,
        attrs: PathAttributes,
        now: Millis,
    ) {
        let attrs = Self::wire_attrs(&prefix, attrs);
        if self
            .try_send_update(router, UpdateMessage::announce(prefix, attrs), now)
            .is_err()
        {
            self.send_errors += 1;
        }
    }

    /// The initial-table counterpart of [`announce`](Self::announce): the
    /// same next-hop fill and Adj-RIB-Out bookkeeping, with the route
    /// handed to the router's `load_route` instead of crossing the
    /// session. Only for attribute sets the codec round-trips unchanged
    /// (the generator's shapes; see the wire tests).
    pub fn preload(
        &mut self,
        router: &mut BgpRouter,
        prefix: Prefix,
        attrs: PathAttributes,
        now: Millis,
    ) {
        if !self.session.is_established() {
            self.send_errors += 1;
            return;
        }
        let attrs = Self::wire_attrs(&prefix, attrs);
        self.record_sent(&[], std::slice::from_ref(&prefix), &attrs);
        if !router.load_route(self.peer, prefix, attrs, now) {
            // The router dropped (or never had) the session: let its
            // NOTIFICATION reach this side, as the wire path's pump would.
            self.pump(router, now);
        }
    }

    /// This stub's Adj-RIB-Out: every prefix it advertises, with the
    /// attributes last sent, in prefix order.
    pub fn advertised(&self) -> impl Iterator<Item = (&Prefix, &PathAttributes)> {
        self.advertised
            .iter()
            .map(|(prefix, id)| (prefix, self.adv_store.attrs(*id)))
    }

    /// Withdraws prefixes and pumps. Failures are counted, never panicked.
    pub fn withdraw(
        &mut self,
        router: &mut BgpRouter,
        prefixes: impl IntoIterator<Item = Prefix>,
        now: Millis,
    ) {
        if self
            .try_send_update(router, UpdateMessage::withdraw(prefixes), now)
            .is_err()
        {
            self.send_errors += 1;
        }
    }

    /// Sends a raw UPDATE and pumps. Failures are counted, never panicked.
    pub fn send_update(&mut self, router: &mut BgpRouter, update: UpdateMessage, now: Millis) {
        if self.try_send_update(router, update, now).is_err() {
            self.send_errors += 1;
        }
    }

    /// Sends a raw UPDATE and pumps, surfacing session refusal as a typed
    /// error (the override injector's retry path needs to see failures).
    pub fn try_send_update(
        &mut self,
        router: &mut BgpRouter,
        update: UpdateMessage,
        now: Millis,
    ) -> Result<(), crate::session::SessionError> {
        self.session.send_update(update.clone())?;
        self.record_sent(&update.withdrawn, &update.announced, &update.attrs);
        self.pump(router, now);
        Ok(())
    }

    /// Adj-RIB-Out bookkeeping for one sent UPDATE.
    fn record_sent(&mut self, withdrawn: &[Prefix], announced: &[Prefix], attrs: &PathAttributes) {
        for prefix in withdrawn {
            if let Some(old) = self.advertised.remove(prefix) {
                self.adv_store.release(old);
            }
        }
        if !announced.is_empty() {
            // One intern per UPDATE; additional prefixes only bump the
            // refcount on the shared attribute set.
            let id = self.adv_store.intern(attrs);
            for (i, prefix) in announced.iter().enumerate() {
                if i > 0 {
                    self.adv_store.retain(id);
                }
                if let Some(old) = self.advertised.insert(*prefix, id) {
                    self.adv_store.release(old);
                }
            }
        }
    }

    /// Tears the session down administratively and pumps the NOTIFICATION.
    pub fn shutdown(&mut self, router: &mut BgpRouter, now: Millis) {
        let _ = self.session.stop();
        self.pump(router, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, PathAttributes};

    const LOCAL_AS: Asn = Asn(32934);

    fn router() -> BgpRouter {
        BgpRouter::new(RouterConfig {
            name: "pop1-pr1".into(),
            asn: LOCAL_AS,
            router_id: Ipv4Addr::new(10, 0, 0, 1),
        })
    }

    fn attach(peer: u64, asn: u32, kind: PeerKind, egress: u32) -> PeerAttachment {
        PeerAttachment {
            peer: PeerId(peer),
            peer_asn: Asn(asn),
            kind,
            egress: EgressId(egress),
            policy: Policy::default_import(LOCAL_AS, kind),
            max_prefixes: 0,
        }
    }

    fn stub(peer: u64, asn: u32) -> PeerStub {
        PeerStub::new(
            PeerId(peer),
            Asn(asn),
            Ipv4Addr::new(10, 9, (peer & 0xff) as u8, 1),
        )
    }

    fn attrs(path: &[u32]) -> PathAttributes {
        PathAttributes {
            as_path: AsPath::sequence(path.iter().map(|a| Asn(*a))),
            ..Default::default()
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn wire_peer(r: &mut BgpRouter, peer: u64, asn: u32, kind: PeerKind, egress: u32) -> PeerStub {
        r.add_peer(attach(peer, asn, kind, egress));
        let mut s = stub(peer, asn);
        s.pump(r, 0);
        assert!(s.is_established(), "handshake completed");
        assert!(r.peer_up(PeerId(peer)));
        s
    }

    #[test]
    fn peer_establishes_and_announces() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        let best = *r.best(&p("203.0.113.0/24")).unwrap();
        assert_eq!(best.source.peer, PeerId(1));
        assert_eq!(best.egress, EgressId(11));
        assert_eq!(
            best.key.local_pref,
            PeerKind::PrivatePeer.default_local_pref(),
            "import policy applied"
        );
        let materialized = r.rib_route(p("203.0.113.0/24"), &best);
        assert_eq!(
            materialized.attrs.local_pref,
            Some(PeerKind::PrivatePeer.default_local_pref()),
        );
        let fib = r.fib_entry(&p("203.0.113.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(11));
        assert!(!fib.is_override);
    }

    #[test]
    fn decision_prefers_peer_over_transit() {
        let mut r = router();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PublicPeer, 20);
        // Transit path is shorter, but the tiered policy prefers the peer.
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001, 64999]), 1);
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(20)
        );
        assert_eq!(r.candidates(&p("203.0.113.0/24")).len(), 2);
    }

    #[test]
    fn withdraw_falls_back_to_next_best() {
        let mut r = router();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(20)
        );
        peer.withdraw(&mut r, [p("203.0.113.0/24")], 2);
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(10)
        );
    }

    #[test]
    fn session_shutdown_flushes_routes() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        assert_eq!(r.fib_len(), 1);
        peer.shutdown(&mut r, 2);
        assert!(!r.peer_up(PeerId(2)));
        assert_eq!(r.fib_len(), 0);
        assert!(r.best(&p("203.0.113.0/24")).is_none());
    }

    #[test]
    fn policy_rejection_keeps_rib_clean() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::PublicPeer, 10);
        // /25 is over-specific under the default policy.
        peer.announce(&mut r, p("203.0.113.0/25"), attrs(&[65001]), 1);
        assert!(r.best(&p("203.0.113.0/25")).is_none());
        assert_eq!(r.fib_len(), 0);
    }

    #[test]
    fn as_loop_is_rejected() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::Transit, 10);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001, LOCAL_AS.0]), 1);
        assert!(r.best(&p("203.0.113.0/24")).is_none());
    }

    #[test]
    fn controller_override_steers_fib_and_reverts() {
        let mut r = router();
        let mut organic = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        let mut transit = wire_peer(&mut r, 2, 65010, PeerKind::Transit, 12);
        organic.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(11)
        );

        // Controller pseudo-peer with a marker-checking policy.
        let marker = ef_net_types::Community::new(32934, 999);
        r.add_peer(PeerAttachment {
            peer: PeerId(100),
            peer_asn: LOCAL_AS,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(marker),
            max_prefixes: 0,
        });
        let mut ctrl = stub(100, LOCAL_AS.0);
        ctrl.pump(&mut r, 2);
        assert!(r.peer_up(PeerId(100)));

        // Inject an override steering the prefix to the transit interface.
        let mut oattrs = PathAttributes {
            next_hop: Some(EgressId(12).to_next_hop().unwrap()),
            ..Default::default()
        };
        oattrs.add_community(marker);
        ctrl.announce(&mut r, p("203.0.113.0/24"), oattrs, 3);

        let fib = r.fib_entry(&p("203.0.113.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(12), "override steered the FIB");
        assert!(fib.is_override);

        // Withdrawal reverts to the organic best.
        ctrl.withdraw(&mut r, [p("203.0.113.0/24")], 4);
        let fib = r.fib_entry(&p("203.0.113.0/24")).unwrap();
        assert_eq!(fib.egress, EgressId(11));
        assert!(!fib.is_override);
    }

    #[test]
    fn unmarked_controller_route_is_rejected() {
        let mut r = router();
        let marker = ef_net_types::Community::new(32934, 999);
        r.add_peer(PeerAttachment {
            peer: PeerId(100),
            peer_asn: LOCAL_AS,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(marker),
            max_prefixes: 0,
        });
        let mut ctrl = stub(100, LOCAL_AS.0);
        ctrl.pump(&mut r, 0);
        ctrl.announce(
            &mut r,
            p("203.0.113.0/24"),
            PathAttributes {
                next_hop: Some(EgressId(5).to_next_hop().unwrap()),
                ..Default::default()
            },
            1,
        );
        assert!(r.best(&p("203.0.113.0/24")).is_none());
    }

    #[test]
    fn bmp_feed_reports_lifecycle() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 5);
        peer.withdraw(&mut r, [p("203.0.113.0/24")], 6);
        peer.shutdown(&mut r, 7);

        let feed = r.drain_bmp();
        let kinds: Vec<u8> = feed.iter().map(|m| m.type_code()).collect();
        // Initiation(4), PeerUp(3), RouteMonitoring announce(0),
        // RouteMonitoring withdraw(0), PeerDown(2).
        assert_eq!(kinds, vec![4, 3, 0, 0, 2]);

        // The announce message carries post-policy attributes.
        match &feed[2] {
            BmpMessage::RouteMonitoring { update, .. } => {
                assert_eq!(
                    update.attrs.local_pref,
                    Some(PeerKind::PrivatePeer.default_local_pref())
                );
                assert!(update
                    .attrs
                    .has_community(PeerKind::PrivatePeer.tag_community()));
            }
            other => panic!("expected RouteMonitoring, got {other:?}"),
        }
        // Draining again yields nothing.
        assert!(r.drain_bmp().is_empty());
    }

    #[test]
    fn fib_longest_match() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::Transit, 11);
        peer.announce(&mut r, p("10.0.0.0/8"), attrs(&[65001]), 1);
        peer.announce(&mut r, p("10.1.0.0/16"), attrs(&[65001, 65002]), 1);
        let (matched, _) = r.fib_lookup(p("10.1.2.0/24")).unwrap();
        assert_eq!(matched, p("10.1.0.0/16"));
        let (matched, _) = r.fib_lookup(p("10.2.0.0/24")).unwrap();
        assert_eq!(matched, p("10.0.0.0/8"));
    }

    #[test]
    fn origination_exports_to_existing_and_future_peers() {
        let mut r = router();
        let mut early = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        // Originate after the first peer is up: it gets it immediately.
        r.originate(p("157.240.0.0/17"));
        early.pump(&mut r, 1);
        let got = early.received_updates();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].announced, vec![p("157.240.0.0/17")]);
        assert_eq!(got[0].attrs.as_path.neighbor_as(), Some(LOCAL_AS));
        assert_eq!(got[0].attrs.origin, crate::attrs::Origin::Igp);

        // A peer that comes up later receives the export at session-up.
        let late = wire_peer(&mut r, 2, 65002, PeerKind::PublicPeer, 12);
        let got = late.received_updates();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].announced, vec![p("157.240.0.0/17")]);

        // Idempotent: re-originating the same prefix sends nothing new.
        let mut early2 = early;
        r.originate(p("157.240.0.0/17"));
        early2.pump(&mut r, 2);
        assert_eq!(early2.received_updates().len(), 1);
    }

    #[test]
    fn withdraw_origin_notifies_peers() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        r.originate(p("157.240.0.0/17"));
        r.withdraw_origin(p("157.240.0.0/17"));
        peer.pump(&mut r, 1);
        let got = peer.received_updates();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].withdrawn, vec![p("157.240.0.0/17")]);
        assert!(r.local_origins().is_empty());
    }

    #[test]
    fn controller_pseudo_peer_receives_no_exports() {
        let mut r = router();
        r.add_peer(PeerAttachment {
            peer: PeerId(100),
            peer_asn: LOCAL_AS,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(ef_net_types::Community::new(32934, 999)),
            max_prefixes: 0,
        });
        let mut ctrl = stub(100, LOCAL_AS.0);
        ctrl.pump(&mut r, 0);
        r.originate(p("157.240.0.0/17"));
        ctrl.pump(&mut r, 1);
        assert!(ctrl.received_updates().is_empty());
    }

    #[test]
    fn max_prefix_limit_tears_session_down() {
        let mut r = router();
        r.add_peer(PeerAttachment {
            peer: PeerId(1),
            peer_asn: Asn(65001),
            kind: PeerKind::PublicPeer,
            egress: EgressId(10),
            policy: Policy::default_import(LOCAL_AS, PeerKind::PublicPeer),
            max_prefixes: 3,
        });
        let mut s = stub(1, 65001);
        s.pump(&mut r, 0);
        for i in 0..3 {
            s.announce(&mut r, p(&format!("50.0.{i}.0/24")), attrs(&[65001]), 1);
        }
        assert!(r.peer_up(PeerId(1)));
        assert_eq!(r.fib_len(), 3);
        // The fourth prefix breaches the limit: session reset, routes flushed.
        s.announce(&mut r, p("50.0.3.0/24"), attrs(&[65001]), 2);
        assert!(!r.peer_up(PeerId(1)), "session torn down");
        assert_eq!(r.fib_len(), 0, "all routes flushed");
        // BMP reports the PeerDown with the max-prefix reason code.
        let feed = r.drain_bmp();
        assert!(feed
            .iter()
            .any(|m| matches!(m, BmpMessage::PeerDown { reason: 3, .. })));
    }

    #[test]
    fn session_reestablishes_after_teardown() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        s.shutdown(&mut r, 2);
        assert!(!r.peer_up(PeerId(1)));
        assert_eq!(r.fib_len(), 0);

        // Operational recovery: re-provision the peer (fresh sessions both
        // sides) and re-announce.
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 10);
        assert!(r.peer_up(PeerId(1)));
        assert_eq!(
            r.fib_entry(&p("203.0.113.0/24")).unwrap().egress,
            EgressId(11)
        );
    }

    #[test]
    fn fib_version_tracks_fib_mutations_only() {
        let mut r = router();
        let v0 = r.fib_version();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        assert_eq!(
            r.fib_version(),
            v0,
            "session handshakes leave the FIB alone"
        );

        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 1);
        let v1 = r.fib_version();
        assert!(v1 > v0, "install bumps the version");

        // A losing candidate changes the RIB but not the FIB best.
        peer.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        let v2 = r.fib_version();
        assert!(v2 > v1, "best switched to the preferred peer");

        // Re-announcing the identical losing route is FIB-invisible.
        transit.announce(&mut r, p("203.0.113.0/24"), attrs(&[65010]), 2);
        assert_eq!(r.fib_version(), v2, "unchanged best leaves the version");

        peer.shutdown(&mut r, 3);
        assert!(
            r.fib_version() > v2,
            "flushing a peer's winning route bumps the version"
        );
    }

    /// The change log since the last take, sorted.
    fn changes(r: &mut BgpRouter) -> Vec<Prefix> {
        let mut log = r.take_fib_changes().expect("log below the overflow bound");
        log.sort();
        log
    }

    #[test]
    fn fib_change_log_lists_every_mutating_path() {
        let mut r = router();
        let mut transit = wire_peer(&mut r, 1, 65010, PeerKind::Transit, 10);
        let mut peer = wire_peer(&mut r, 2, 65001, PeerKind::PrivatePeer, 20);
        // A background table keeps each step's log below the bound.
        for i in 0..16 {
            transit.announce(&mut r, p(&format!("60.0.{i}.0/24")), attrs(&[65010]), 1);
        }
        assert_eq!(r.take_fib_changes(), None, "the load outgrew the log");
        assert_eq!(changes(&mut r), vec![], "a second take is empty");

        let target = p("203.0.113.0/24");
        transit.announce(&mut r, target, attrs(&[65010]), 1);
        assert_eq!(changes(&mut r), vec![target], "install");
        peer.announce(&mut r, target, attrs(&[65001]), 1);
        assert_eq!(changes(&mut r), vec![target], "replace");
        transit.announce(&mut r, target, attrs(&[65010]), 2);
        assert_eq!(
            changes(&mut r),
            vec![],
            "a losing candidate is not a change"
        );
        transit.withdraw(&mut r, [p("60.0.0.0/24")], 2);
        assert_eq!(changes(&mut r), vec![p("60.0.0.0/24")], "withdraw");

        // A re-announcement that fails policy withdraws the accepted one.
        let looped = p("198.51.100.0/24");
        peer.announce(&mut r, looped, attrs(&[65001]), 3);
        assert_eq!(changes(&mut r), vec![looped]);
        peer.announce(&mut r, looped, attrs(&[65001, LOCAL_AS.0]), 3);
        assert_eq!(changes(&mut r), vec![looped], "treat-as-withdraw");

        // Override inject.
        let marker = ef_net_types::Community::new(32934, 999);
        r.add_peer(PeerAttachment {
            peer: PeerId(100),
            peer_asn: LOCAL_AS,
            kind: PeerKind::Controller,
            egress: EgressId(0),
            policy: Policy::controller_import(marker),
            max_prefixes: 0,
        });
        let mut ctrl = stub(100, LOCAL_AS.0);
        ctrl.pump(&mut r, 4);
        let mut oattrs = PathAttributes {
            next_hop: Some(EgressId(10).to_next_hop().unwrap()),
            ..Default::default()
        };
        oattrs.add_community(marker);
        ctrl.announce(&mut r, p("60.0.1.0/25"), oattrs, 4);
        assert_eq!(changes(&mut r), vec![p("60.0.1.0/25")], "override inject");

        // Peer flush: only the prefixes the peer was best for change.
        peer.shutdown(&mut r, 5);
        assert_eq!(changes(&mut r), vec![target], "peer flush");

        // Max-prefix teardown: the breaching install, then the flush.
        let mut limited = attach(3, 65003, PeerKind::PrivatePeer, 30);
        limited.max_prefixes = 1;
        r.add_peer(limited);
        let mut s = stub(3, 65003);
        s.pump(&mut r, 6);
        s.announce(&mut r, p("70.0.0.0/24"), attrs(&[65003]), 6);
        assert_eq!(changes(&mut r), vec![p("70.0.0.0/24")]);
        s.announce(&mut r, p("70.0.1.0/24"), attrs(&[65003]), 6);
        assert!(!r.peer_up(PeerId(3)));
        let p0 = p("70.0.0.0/24");
        let p1 = p("70.0.1.0/24");
        assert_eq!(changes(&mut r), vec![p0, p1, p1], "max-prefix teardown");

        // A flush as large as what the FIB keeps collapses the log.
        transit.shutdown(&mut r, 7);
        assert_eq!(r.take_fib_changes(), None, "overflow");
        assert_eq!(changes(&mut r), vec![]);
    }

    #[test]
    fn refresh_heals_treat_as_withdraw_and_sweeps_stale_paths() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        s.announce(&mut r, p("198.51.100.0/24"), attrs(&[65001]), 1);
        assert_eq!(r.fib_len(), 2);

        // A corrupted re-announcement of the first prefix: RFC 7606
        // downgrades it to a withdrawal instead of resetting the session.
        let mut reattrs = attrs(&[65001]);
        reattrs.next_hop = Some(Ipv4Addr::new(192, 0, 2, 1));
        let update = UpdateMessage::announce(p("203.0.113.0/24"), reattrs);
        let mut raw = crate::wire::encode_message(&crate::message::BgpMessage::Update(update))
            .unwrap()
            .to_vec();
        let wd_len = u16::from_be_bytes([raw[19], raw[20]]) as usize;
        raw[19 + 2 + wd_len + 2 + 2] = 0xEE; // ORIGIN length byte → garbage
        r.deliver(PeerId(1), &raw, 2);
        assert!(r.peer_up(PeerId(1)), "session survived the corruption");
        assert!(r.fib_entry(&p("203.0.113.0/24")).is_none(), "route lost");
        assert_eq!(r.session_stats(PeerId(1)).unwrap().updates_downgraded, 1);

        // A ghost route the peer never tracked in its Adj-RIB-Out (as if
        // its withdrawal was lost in the same damage window).
        let mut ghost_attrs = attrs(&[65001]);
        ghost_attrs.next_hop = Some(Ipv4Addr::new(192, 0, 2, 1));
        let ghost = UpdateMessage::announce(p("192.0.2.0/24"), ghost_attrs);
        let ghost_raw =
            crate::wire::encode_message(&crate::message::BgpMessage::Update(ghost)).unwrap();
        r.deliver(PeerId(1), &ghost_raw, 3);
        assert!(r.fib_entry(&p("192.0.2.0/24")).is_some());

        // ROUTE-REFRESH instead of a bounce: the replay restores the lost
        // route and the EoRR sweep removes the ghost.
        r.request_refresh(PeerId(1)).unwrap();
        s.pump(&mut r, 4);
        assert!(r.peer_up(PeerId(1)), "no session flap");
        assert!(r.fib_entry(&p("203.0.113.0/24")).is_some(), "healed");
        assert!(r.fib_entry(&p("198.51.100.0/24")).is_some(), "kept");
        assert!(r.fib_entry(&p("192.0.2.0/24")).is_none(), "ghost swept");
        assert_eq!(r.session_stats(PeerId(1)).unwrap().refreshes_sent, 1);
        assert_eq!(s.session_stats().refreshes_answered, 1);
        // No PeerDown appeared on the BMP feed at any point.
        assert!(r
            .drain_bmp()
            .iter()
            .all(|m| !matches!(m, BmpMessage::PeerDown { .. })));
    }

    #[test]
    fn stub_refresh_request_replays_router_exports() {
        let mut r = router();
        r.originate(p("157.240.0.0/17"));
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        assert_eq!(s.received_updates().len(), 1, "export at session-up");
        s.request_refresh(&mut r, 1).unwrap();
        let got = s.received_updates();
        assert_eq!(got.len(), 2, "refresh replayed the export");
        assert_eq!(got[1].announced, vec![p("157.240.0.0/17")]);
        assert_eq!(r.session_stats(PeerId(1)).unwrap().refreshes_answered, 1);
    }

    #[test]
    fn withdraw_during_replay_is_not_resurrected() {
        let mut r = router();
        let mut s = wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11);
        s.announce(&mut r, p("203.0.113.0/24"), attrs(&[65001]), 1);
        // The peer withdraws before answering: the replay must not bring
        // the prefix back, and the sweep must not double-withdraw.
        s.withdraw(&mut r, [p("203.0.113.0/24")], 2);
        r.request_refresh(PeerId(1)).unwrap();
        s.pump(&mut r, 3);
        assert!(r.fib_entry(&p("203.0.113.0/24")).is_none());
        assert!(r.peer_up(PeerId(1)));
    }

    #[test]
    fn preload_installs_what_announce_installs() {
        let routes = [
            (1, "203.0.113.0/24", vec![65001]),
            (2, "203.0.113.0/24", vec![65010, 65001]),
            (1, "2001:db8:1::/48", vec![65001]),
            (2, "198.51.100.0/25", vec![65010]), // over-specific
            (2, "198.51.100.0/24", vec![65010, LOCAL_AS.0]), // AS loop
            (1, "203.0.113.0/24", vec![65001, LOCAL_AS.0]), // loop withdraws
        ];
        let build = |bulk: bool| {
            let mut r = router();
            let mut stubs = [
                wire_peer(&mut r, 1, 65001, PeerKind::PrivatePeer, 11),
                wire_peer(&mut r, 2, 65010, PeerKind::Transit, 12),
            ];
            for (peer, prefix, path) in &routes {
                let stub = &mut stubs[*peer - 1];
                if bulk {
                    stub.preload(&mut r, p(prefix), attrs(path), 0);
                } else {
                    stub.announce(&mut r, p(prefix), attrs(path), 0);
                }
            }
            let seed = r.finish_table_load();
            (r, stubs, seed)
        };
        let (bulk, bulk_stubs, seed) = build(true);
        let (wire, wire_stubs, _) = build(false);
        for (prefix, recs) in wire.iter_candidates() {
            assert_eq!(bulk.candidates(prefix), recs);
            assert_eq!(bulk.fib_entry(prefix), wire.fib_entry(prefix));
        }
        assert_eq!(bulk.rib_route_count(), 2);
        assert_eq!(bulk.fib_len(), wire.fib_len());
        assert_eq!(bulk.fib_version(), wire.fib_version());
        assert_eq!(bulk.bmp_snapshot(0), wire.bmp_snapshot(0));
        for (a, b) in bulk_stubs.iter().zip(&wire_stubs) {
            assert!(a.advertised().eq(b.advertised()));
        }
        // Four Loc-RIB changes: three installs and the loop's withdrawal.
        assert_eq!(seed.arrivals, 4);
        assert_eq!(seed.last_arrival[&p("203.0.113.0/24")], 4);
        assert_eq!(seed.last_arrival[&p("2001:db8:1::/48")], 3);
        assert_eq!(seed.rib.route_count(), 2);
    }

    #[test]
    fn preload_over_the_prefix_limit_tears_the_session_down() {
        let mut r = router();
        let mut limited = attach(1, 65001, PeerKind::PublicPeer, 10);
        limited.max_prefixes = 1;
        r.add_peer(limited);
        let mut s = stub(1, 65001);
        s.pump(&mut r, 0);
        s.preload(&mut r, p("50.0.0.0/24"), attrs(&[65001]), 1);
        assert!(r.peer_up(PeerId(1)));
        s.preload(&mut r, p("50.0.1.0/24"), attrs(&[65001]), 2);
        assert!(!r.peer_up(PeerId(1)), "session torn down");
        assert!(!s.is_established(), "the Cease reached the stub");
        assert_eq!(r.fib_len(), 0);
        // A stub whose session is down counts the load as a failed send.
        s.preload(&mut r, p("50.0.2.0/24"), attrs(&[65001]), 3);
        assert_eq!(s.send_errors(), 1);
    }

    #[test]
    fn remove_peer_flushes() {
        let mut r = router();
        let mut peer = wire_peer(&mut r, 1, 65001, PeerKind::Transit, 11);
        peer.announce(&mut r, p("10.0.0.0/8"), attrs(&[65001]), 1);
        r.remove_peer(PeerId(1), 2);
        assert_eq!(r.fib_len(), 0);
        assert!(r.attachment(PeerId(1)).is_none());
    }
}
