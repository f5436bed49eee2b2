//! Cluster-level request dispatch: four balancing policies over a
//! two-level-u64 node-occupancy bitmap, plus the naive linear-scan
//! yardstick they are differentially tested against.
//!
//! A [`Dispatcher`] owns one tier's occupancy state (work quanta queued
//! per node) and answers "which node takes the next quantum?". The
//! production implementation, [`BitmapDispatcher`], keeps that state in a
//! [`NodeOccupancyMap`], so least-loaded picks are three bit scans — O(1)
//! in cluster size. [`ScanDispatcher`] is the frozen O(N) reference: a
//! plain occupancy array scanned left to right. Both consume *identical*
//! RNG draws and break ties toward the lowest node index, so a digest over
//! their decisions must match event for event — the cluster analogue of
//! the node equivalence suite.

use hipster_sim::{NodeOccupancyMap, SimRng};

/// The balancing policies the cluster tier ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Uniformly random node. One RNG draw per quantum.
    Random,
    /// Cycles through nodes in index order. No RNG draws.
    RoundRobin,
    /// The least-occupied node, ties to the lowest index. No RNG draws.
    LeastLoaded,
    /// Power-of-two-choices: sample two nodes, keep the less occupied
    /// (ties to the lower index). One RNG draw per quantum, split into
    /// two 32-bit probes.
    PowerOfTwo,
}

impl DispatchPolicy {
    /// All policies, in documentation order.
    pub const ALL: [DispatchPolicy; 4] = [
        DispatchPolicy::Random,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::PowerOfTwo,
    ];

    /// Stable lowercase name (used in traces, benches and CLIs).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::Random => "random",
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::PowerOfTwo => "power-of-two",
        }
    }

    /// Parses a [`name`](Self::name) back to a policy (`-`/`_` alike,
    /// case-insensitive; `p2c` is accepted for power-of-two).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().replace('_', "-").as_str() {
            "random" => Some(DispatchPolicy::Random),
            "round-robin" | "roundrobin" => Some(DispatchPolicy::RoundRobin),
            "least-loaded" | "leastloaded" => Some(DispatchPolicy::LeastLoaded),
            "power-of-two" | "poweroftwo" | "p2c" => Some(DispatchPolicy::PowerOfTwo),
            _ => None,
        }
    }
}

/// One tier's load balancer: occupancy bookkeeping plus quantum placement.
///
/// `pick` both chooses a node **and** charges the quantum to it, so the
/// occupancy signal the next decision sees already includes this one —
/// the property that makes least-loaded/P2C self-balancing within an
/// interval.
pub trait Dispatcher: std::fmt::Debug + Send {
    /// The balancing policy in force.
    fn policy(&self) -> DispatchPolicy;

    /// Number of nodes in the tier.
    fn len(&self) -> usize;

    /// `true` when the tier has no nodes (never, for the shipped impls).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node's current (clamped) occupancy in quanta.
    fn occupancy(&self, node: usize) -> u32;

    /// Sum of all clamped occupancies (the admission watermark signal).
    fn total(&self) -> u64;

    /// Overwrites a node's occupancy — interval-start carry from the
    /// previous interval's queue backlog.
    fn set_occupancy(&mut self, node: usize, occ: u32);

    /// Places one quantum: returns the chosen node and increments its
    /// occupancy. `rng` is consulted only by the randomized policies,
    /// and each policy draws a fixed number of values per call.
    fn pick(&mut self, rng: &mut SimRng) -> usize;

    /// Masks or unmasks a node. Masked (revoked) nodes are never
    /// returned by `pick`: a policy choice landing on one remaps to the
    /// next unmasked index, cyclically.
    fn set_masked(&mut self, node: usize, masked: bool);

    /// Whether `node` is currently masked.
    fn is_masked(&self, node: usize) -> bool;

    /// Teaches the dispatcher the failure-domain topology: `zone_of[i]`
    /// and `rack_of[i]` are node `i`'s zone and (global) rack indices.
    /// Until this is called the dispatcher is domain-blind and every
    /// pick is byte-identical to the topology-free implementation.
    fn set_topology(&mut self, zone_of: Vec<u16>, rack_of: Vec<u16>);

    /// Flags a whole domain (zone, or rack when `rack` is set) as
    /// degraded or recovered. Degraded domains steer P2C re-probes and
    /// retry placement away; they do **not** mask nodes (use
    /// [`Dispatcher::set_masked`] for hard revocations).
    fn set_domain_degraded(&mut self, rack: bool, index: usize, degraded: bool);

    /// Places one *retried* quantum. Identical to [`Dispatcher::pick`]
    /// unless a topology is installed and some (but not all) domains are
    /// degraded, in which case least-loaded spreads the retry across the
    /// least-occupied node of the surviving domains (ties to the lowest
    /// index, masked nodes skipped) without consuming RNG.
    fn pick_retry(&mut self, rng: &mut SimRng) -> usize;
}

/// Revocation mask shared by both dispatcher implementations. The remap
/// runs *after* the policy's own (possibly RNG-consuming) choice, so both
/// implementations keep identical RNG streams with or without masks, and
/// the O(N) scan only ever runs while a pick lands on a masked node.
/// With every node masked the raw candidate comes back unchanged — the
/// cluster layer strands work instead of dispatching in that regime.
#[derive(Debug, Default)]
struct NodeMask {
    masked: Vec<bool>,
    count: usize,
}

impl NodeMask {
    fn set(&mut self, node: usize, len: usize, masked: bool) {
        if self.masked.is_empty() {
            self.masked = vec![false; len];
        }
        if self.masked[node] != masked {
            self.masked[node] = masked;
            if masked {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }

    fn is_masked(&self, node: usize) -> bool {
        self.count > 0 && self.masked[node]
    }

    fn remap(&self, node: usize, len: usize) -> usize {
        if self.count == 0 || self.count >= len || !self.masked[node] {
            return node;
        }
        let mut i = node;
        loop {
            i = (i + 1) % len;
            if !self.masked[i] {
                return i;
            }
        }
    }
}

/// Failure-domain bookkeeping shared by both dispatcher implementations.
/// Tracks which zones/racks are degraded and maintains the per-node
/// degraded flags plus a healthy-node count, so pick-time queries are
/// O(1) and the O(N) recompute only runs on the rare domain transition.
#[derive(Debug, Default)]
struct DomainView {
    zone_of: Vec<u16>,
    rack_of: Vec<u16>,
    zone_bad: Vec<bool>,
    rack_bad: Vec<bool>,
    degraded: Vec<bool>,
    healthy: usize,
}

impl DomainView {
    fn install(&mut self, zone_of: Vec<u16>, rack_of: Vec<u16>) {
        assert_eq!(
            zone_of.len(),
            rack_of.len(),
            "zone/rack maps must cover the same nodes"
        );
        let zones = zone_of.iter().map(|&z| z as usize + 1).max().unwrap_or(0);
        let racks = rack_of.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        self.zone_bad = vec![false; zones];
        self.rack_bad = vec![false; racks];
        self.degraded = vec![false; zone_of.len()];
        self.healthy = zone_of.len();
        self.zone_of = zone_of;
        self.rack_of = rack_of;
    }

    fn armed(&self) -> bool {
        !self.zone_of.is_empty()
    }

    fn set_bad(&mut self, rack: bool, index: usize, bad: bool) {
        if !self.armed() {
            return;
        }
        let flags = if rack {
            &mut self.rack_bad
        } else {
            &mut self.zone_bad
        };
        if flags[index] == bad {
            return;
        }
        flags[index] = bad;
        self.healthy = 0;
        for node in 0..self.degraded.len() {
            let d = self.zone_bad[self.zone_of[node] as usize]
                || self.rack_bad[self.rack_of[node] as usize];
            self.degraded[node] = d;
            if !d {
                self.healthy += 1;
            }
        }
    }

    fn is_degraded(&self, node: usize) -> bool {
        self.armed() && self.degraded[node]
    }

    /// True when steering can help: some domain is degraded but healthy
    /// nodes survive elsewhere.
    fn has_degraded(&self) -> bool {
        self.armed() && self.healthy > 0 && self.healthy < self.degraded.len()
    }
}

/// Shared P2C candidate sampling: one RNG draw, halved into two 32-bit
/// words, each mapped to `[0, n)` by Lemire's multiply-shift. One draw
/// (instead of two `index` calls) keeps a P2C pick cheaper than a
/// least-loaded bitmap walk. Both dispatchers route through this one
/// function so their RNG consumption can never drift apart.
#[inline]
fn p2c_probes(rng: &mut SimRng, n: usize) -> (usize, usize) {
    debug_assert!(n > 0 && n <= u32::MAX as usize);
    let bits = rng.next_u64();
    let a = ((bits >> 32) * n as u64) >> 32;
    let b = ((bits & 0xffff_ffff) * n as u64) >> 32;
    (a as usize, b as usize)
}

/// Shared P2C comparison: the less-occupied candidate, ties toward the
/// lower index. Both dispatchers route through this one function so the
/// tie-break can never drift between them.
#[inline]
fn p2c_winner(a: usize, b: usize, occ_a: u32, occ_b: u32) -> usize {
    if occ_b < occ_a {
        b
    } else if occ_a < occ_b {
        a
    } else {
        a.min(b)
    }
}

/// Shared P2C pick with domain awareness. While degradation is active
/// (and healthy domains survive), a probe in a degraded domain loses the
/// occupancy comparison outright, and when *both* probes land degraded
/// one extra probe pair is drawn and judged the same way. With no
/// topology installed (or no degradation) this is byte-identical to the
/// plain pick: exactly one RNG draw, same winner. Both dispatchers route
/// through this one function.
#[inline]
fn p2c_domain_pick(
    rng: &mut SimRng,
    n: usize,
    view: &DomainView,
    occ: impl Fn(usize) -> u32,
) -> usize {
    let (a, b) = p2c_probes(rng, n);
    if !view.has_degraded() {
        return p2c_winner(a, b, occ(a), occ(b));
    }
    match (view.is_degraded(a), view.is_degraded(b)) {
        (false, false) => p2c_winner(a, b, occ(a), occ(b)),
        (false, true) => a,
        (true, false) => b,
        (true, true) => {
            let (c, d) = p2c_probes(rng, n);
            match (view.is_degraded(c), view.is_degraded(d)) {
                (false, false) => p2c_winner(c, d, occ(c), occ(d)),
                (false, true) => c,
                (true, false) => d,
                // Re-probe also missed the healthy domains: best of all
                // four by occupancy.
                (true, true) => {
                    let winner = p2c_winner(a, b, occ(a), occ(b));
                    let rewinner = p2c_winner(c, d, occ(c), occ(d));
                    p2c_winner(winner, rewinner, occ(winner), occ(rewinner))
                }
            }
        }
    }
}

/// Shared retry steering: the least-occupied unmasked node of the
/// surviving (non-degraded) domains, ties to the lowest index. `None`
/// when steering cannot help — no topology, no degradation, or every
/// healthy-domain node masked — in which case the caller falls back to
/// its normal pick. Consumes no RNG.
fn retry_scan(
    view: &DomainView,
    mask: &NodeMask,
    n: usize,
    occ: impl Fn(usize) -> u32,
) -> Option<usize> {
    if !view.has_degraded() {
        return None;
    }
    let mut best: Option<usize> = None;
    for node in 0..n {
        if view.is_degraded(node) || mask.is_masked(node) {
            continue;
        }
        best = match best {
            Some(b) if occ(node) >= occ(b) => Some(b),
            _ => Some(node),
        };
    }
    best
}

/// The production dispatcher. Least-loaded keeps its occupancies in a
/// [`NodeOccupancyMap`], so the global argmin is three bit scans; the
/// other policies only ever read *point* occupancies, so they keep a
/// flat array + running sum and skip the bitmap's summary maintenance.
/// Either way every pick is O(1) in cluster size.
#[derive(Debug)]
pub struct BitmapDispatcher {
    policy: DispatchPolicy,
    state: OccState,
    rr_next: usize,
    mask: NodeMask,
    view: DomainView,
}

/// Occupancy bookkeeping, shaped to what the policy actually queries.
#[derive(Debug)]
enum OccState {
    /// Global-argmin state for least-loaded.
    Bitmap(NodeOccupancyMap),
    /// Point-read state for random / round-robin / power-of-two.
    Flat { occ: Vec<u32>, cap: u32, sum: u64 },
}

impl OccState {
    fn len(&self) -> usize {
        match self {
            OccState::Bitmap(map) => map.len(),
            OccState::Flat { occ, .. } => occ.len(),
        }
    }

    fn occupancy(&self, node: usize) -> u32 {
        match self {
            OccState::Bitmap(map) => map.occupancy(node),
            OccState::Flat { occ, .. } => occ[node],
        }
    }

    fn total(&self) -> u64 {
        match self {
            OccState::Bitmap(map) => map.total(),
            OccState::Flat { sum, .. } => *sum,
        }
    }

    fn set(&mut self, node: usize, value: u32) {
        match self {
            OccState::Bitmap(map) => map.set(node, value),
            OccState::Flat { occ, cap, sum } => {
                let v = value.min(*cap);
                *sum = *sum - u64::from(occ[node]) + u64::from(v);
                occ[node] = v;
            }
        }
    }

    fn inc(&mut self, node: usize) {
        match self {
            OccState::Bitmap(map) => map.inc(node),
            OccState::Flat { occ, cap, sum } => {
                let v = occ[node].saturating_add(1).min(*cap);
                *sum = *sum - u64::from(occ[node]) + u64::from(v);
                occ[node] = v;
            }
        }
    }
}

impl BitmapDispatcher {
    /// Creates a dispatcher over `nodes` nodes whose occupancies clamp
    /// at `cap` (see [`NodeOccupancyMap::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(policy: DispatchPolicy, nodes: usize, cap: u32) -> Self {
        let state = match policy {
            DispatchPolicy::LeastLoaded => OccState::Bitmap(NodeOccupancyMap::new(nodes, cap)),
            _ => {
                assert!(nodes > 0, "a cluster tier needs at least one node");
                OccState::Flat {
                    occ: vec![0; nodes],
                    cap,
                    sum: 0,
                }
            }
        };
        BitmapDispatcher {
            policy,
            state,
            rr_next: 0,
            mask: NodeMask::default(),
            view: DomainView::default(),
        }
    }
}

impl Dispatcher for BitmapDispatcher {
    fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    fn len(&self) -> usize {
        self.state.len()
    }

    fn occupancy(&self, node: usize) -> u32 {
        self.state.occupancy(node)
    }

    fn total(&self) -> u64 {
        self.state.total()
    }

    fn set_occupancy(&mut self, node: usize, occ: u32) {
        self.state.set(node, occ);
    }

    fn pick(&mut self, rng: &mut SimRng) -> usize {
        let n = self.state.len();
        let node = match (self.policy, &self.state) {
            (DispatchPolicy::Random, _) => rng.index(n),
            (DispatchPolicy::RoundRobin, _) => {
                let node = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                node
            }
            (DispatchPolicy::LeastLoaded, OccState::Bitmap(map)) => {
                map.min_node().expect("non-empty tier")
            }
            (DispatchPolicy::LeastLoaded, OccState::Flat { .. }) => {
                unreachable!("least-loaded always builds the bitmap state")
            }
            (DispatchPolicy::PowerOfTwo, state) => {
                p2c_domain_pick(rng, n, &self.view, |i| state.occupancy(i))
            }
        };
        let node = self.mask.remap(node, n);
        self.state.inc(node);
        node
    }

    fn set_masked(&mut self, node: usize, masked: bool) {
        let n = self.state.len();
        self.mask.set(node, n, masked);
    }

    fn is_masked(&self, node: usize) -> bool {
        self.mask.is_masked(node)
    }

    fn set_topology(&mut self, zone_of: Vec<u16>, rack_of: Vec<u16>) {
        assert_eq!(
            zone_of.len(),
            self.state.len(),
            "topology must cover the tier"
        );
        self.view.install(zone_of, rack_of);
    }

    fn set_domain_degraded(&mut self, rack: bool, index: usize, degraded: bool) {
        self.view.set_bad(rack, index, degraded);
    }

    fn pick_retry(&mut self, rng: &mut SimRng) -> usize {
        if self.policy == DispatchPolicy::LeastLoaded {
            let n = self.state.len();
            let state = &self.state;
            if let Some(node) = retry_scan(&self.view, &self.mask, n, |i| state.occupancy(i)) {
                self.state.inc(node);
                return node;
            }
        }
        self.pick(rng)
    }
}

/// The frozen naive yardstick: a plain per-node occupancy array, with
/// least-loaded as a left-to-right linear scan (strict `<`, so ties keep
/// the lowest index). O(N) per pick — kept to prove the bitmap
/// dispatcher's decisions *and* its speed, never used in production
/// paths.
#[derive(Debug)]
pub struct ScanDispatcher {
    policy: DispatchPolicy,
    occ: Vec<u32>,
    cap: u32,
    sum: u64,
    rr_next: usize,
    mask: NodeMask,
    view: DomainView,
}

impl ScanDispatcher {
    /// Creates the reference dispatcher; parameters as
    /// [`BitmapDispatcher::new`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(policy: DispatchPolicy, nodes: usize, cap: u32) -> Self {
        assert!(nodes > 0, "a cluster tier needs at least one node");
        ScanDispatcher {
            policy,
            occ: vec![0; nodes],
            cap,
            sum: 0,
            rr_next: 0,
            mask: NodeMask::default(),
            view: DomainView::default(),
        }
    }

    fn bump(&mut self, node: usize) {
        let v = self.occ[node].saturating_add(1).min(self.cap);
        self.sum = self.sum - u64::from(self.occ[node]) + u64::from(v);
        self.occ[node] = v;
    }
}

impl Dispatcher for ScanDispatcher {
    fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    fn len(&self) -> usize {
        self.occ.len()
    }

    fn occupancy(&self, node: usize) -> u32 {
        self.occ[node]
    }

    fn total(&self) -> u64 {
        self.sum
    }

    fn set_occupancy(&mut self, node: usize, occ: u32) {
        let v = occ.min(self.cap);
        self.sum = self.sum - u64::from(self.occ[node]) + u64::from(v);
        self.occ[node] = v;
    }

    fn pick(&mut self, rng: &mut SimRng) -> usize {
        let n = self.occ.len();
        let node = match self.policy {
            DispatchPolicy::Random => rng.index(n),
            DispatchPolicy::RoundRobin => {
                let node = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                node
            }
            DispatchPolicy::LeastLoaded => {
                let mut best = 0;
                for (i, &o) in self.occ.iter().enumerate() {
                    if o < self.occ[best] {
                        best = i;
                    }
                }
                best
            }
            DispatchPolicy::PowerOfTwo => p2c_domain_pick(rng, n, &self.view, |i| self.occ[i]),
        };
        let node = self.mask.remap(node, n);
        self.bump(node);
        node
    }

    fn set_masked(&mut self, node: usize, masked: bool) {
        let n = self.occ.len();
        self.mask.set(node, n, masked);
    }

    fn is_masked(&self, node: usize) -> bool {
        self.mask.is_masked(node)
    }

    fn set_topology(&mut self, zone_of: Vec<u16>, rack_of: Vec<u16>) {
        assert_eq!(
            zone_of.len(),
            self.occ.len(),
            "topology must cover the tier"
        );
        self.view.install(zone_of, rack_of);
    }

    fn set_domain_degraded(&mut self, rack: bool, index: usize, degraded: bool) {
        self.view.set_bad(rack, index, degraded);
    }

    fn pick_retry(&mut self, rng: &mut SimRng) -> usize {
        if self.policy == DispatchPolicy::LeastLoaded {
            let n = self.occ.len();
            if let Some(node) = retry_scan(&self.view, &self.mask, n, |i| self.occ[i]) {
                self.bump(node);
                return node;
            }
        }
        self.pick(rng)
    }
}

/// Builds the tier's dispatcher: the bitmap implementation, or the scan
/// yardstick when `reference` is set (differential tests and benches).
pub fn build_dispatcher(
    policy: DispatchPolicy,
    nodes: usize,
    cap: u32,
    reference: bool,
) -> Box<dyn Dispatcher> {
    if reference {
        Box::new(ScanDispatcher::new(policy, nodes, cap))
    } else {
        Box::new(BitmapDispatcher::new(policy, nodes, cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives both dispatchers through the same churn and asserts every
    /// decision matches. (The proptest in `cluster_dispatch_differential`
    /// does this over arbitrary interleavings; this is the smoke case.)
    #[test]
    fn bitmap_matches_scan_on_every_policy() {
        for policy in DispatchPolicy::ALL {
            let (mut a, mut b) = (
                BitmapDispatcher::new(policy, 130, 16),
                ScanDispatcher::new(policy, 130, 16),
            );
            let (mut ra, mut rb) = (SimRng::seed(99), SimRng::seed(99));
            for round in 0..50 {
                for node in 0..130 {
                    let carry = ((node * 7 + round) % 19) as u32;
                    a.set_occupancy(node, carry);
                    b.set_occupancy(node, carry);
                }
                for _ in 0..260 {
                    assert_eq!(a.pick(&mut ra), b.pick(&mut rb), "{}", policy.name());
                }
                assert_eq!(a.total(), b.total());
            }
        }
    }

    /// Masked nodes are never returned, both implementations remap to
    /// the same survivor, and the RNG streams stay aligned through
    /// mask/unmask churn.
    #[test]
    fn masked_nodes_are_never_picked_and_impls_agree() {
        for policy in DispatchPolicy::ALL {
            let (mut a, mut b) = (
                BitmapDispatcher::new(policy, 9, 16),
                ScanDispatcher::new(policy, 9, 16),
            );
            let (mut ra, mut rb) = (SimRng::seed(5), SimRng::seed(5));
            for round in 0..40 {
                for node in 0..9 {
                    let m = (node + round) % 3 == 0;
                    a.set_masked(node, m);
                    b.set_masked(node, m);
                    a.set_occupancy(node, (node % 4) as u32);
                    b.set_occupancy(node, (node % 4) as u32);
                }
                for _ in 0..18 {
                    let pa = a.pick(&mut ra);
                    assert_eq!(pa, b.pick(&mut rb), "{}", policy.name());
                    assert!(!a.is_masked(pa), "{} picked a masked node", policy.name());
                }
            }
        }
    }

    /// With every node masked, pick falls back to the raw candidate (the
    /// cluster layer strands work before dispatching in that regime).
    #[test]
    fn fully_masked_tier_still_returns_a_candidate() {
        let mut d = BitmapDispatcher::new(DispatchPolicy::RoundRobin, 3, 4);
        let mut rng = SimRng::seed(1);
        for node in 0..3 {
            d.set_masked(node, true);
        }
        let p = d.pick(&mut rng);
        assert!(p < 3);
        d.set_masked(p, false);
        assert_eq!(d.pick(&mut rng), p, "only unmasked node wins the remap");
    }

    #[test]
    fn least_loaded_prefers_emptiest_then_lowest_index() {
        let mut d = BitmapDispatcher::new(DispatchPolicy::LeastLoaded, 8, 8);
        let mut rng = SimRng::seed(1);
        for node in 0..8 {
            d.set_occupancy(node, 2);
        }
        d.set_occupancy(5, 1);
        assert_eq!(d.pick(&mut rng), 5); // emptiest
        assert_eq!(d.pick(&mut rng), 0); // now all tie at 2 → lowest index
        assert_eq!(d.occupancy(5), 2);
    }

    /// Builds a 2-zone × 2-racks-per-zone topology over `n` nodes.
    fn toy_topology(n: usize) -> (Vec<u16>, Vec<u16>) {
        let per_rack = n / 4;
        let rack_of: Vec<u16> = (0..n).map(|i| (i / per_rack).min(3) as u16).collect();
        let zone_of: Vec<u16> = rack_of.iter().map(|&r| r / 2).collect();
        (zone_of, rack_of)
    }

    /// With a topology installed but nothing degraded, picks and RNG
    /// consumption are byte-identical to a topology-blind dispatcher.
    #[test]
    fn idle_topology_changes_nothing() {
        for policy in DispatchPolicy::ALL {
            let (mut plain, mut topo) = (
                BitmapDispatcher::new(policy, 16, 16),
                BitmapDispatcher::new(policy, 16, 16),
            );
            let (zone_of, rack_of) = toy_topology(16);
            topo.set_topology(zone_of, rack_of);
            let (mut ra, mut rb) = (SimRng::seed(3), SimRng::seed(3));
            for _ in 0..200 {
                assert_eq!(plain.pick(&mut ra), topo.pick(&mut rb), "{}", policy.name());
                assert_eq!(plain.pick_retry(&mut ra), topo.pick_retry(&mut rb));
            }
            assert_eq!(ra.next_u64(), rb.next_u64(), "RNG streams diverged");
        }
    }

    /// Degraded-domain steering: both implementations agree decision for
    /// decision through degrade/recover churn, for every policy.
    #[test]
    fn domain_steering_impls_agree() {
        for policy in DispatchPolicy::ALL {
            let (mut a, mut b) = (
                BitmapDispatcher::new(policy, 16, 16),
                ScanDispatcher::new(policy, 16, 16),
            );
            let (zone_of, rack_of) = toy_topology(16);
            a.set_topology(zone_of.clone(), rack_of.clone());
            b.set_topology(zone_of, rack_of);
            let (mut ra, mut rb) = (SimRng::seed(11), SimRng::seed(11));
            for round in 0..60 {
                a.set_domain_degraded(false, 0, round % 2 == 0);
                b.set_domain_degraded(false, 0, round % 2 == 0);
                a.set_domain_degraded(true, 3, round % 3 == 0);
                b.set_domain_degraded(true, 3, round % 3 == 0);
                for node in 0..16 {
                    let carry = ((node * 5 + round) % 11) as u32;
                    a.set_occupancy(node, carry);
                    b.set_occupancy(node, carry);
                }
                for q in 0..32 {
                    if q % 5 == 0 {
                        assert_eq!(a.pick_retry(&mut ra), b.pick_retry(&mut rb));
                    } else {
                        assert_eq!(a.pick(&mut ra), b.pick(&mut rb), "{}", policy.name());
                    }
                }
            }
        }
    }

    /// P2C steers away from a degraded zone: with zone 0 degraded, picks
    /// land in zone 1 far more often than the blind 50/50 split.
    #[test]
    fn p2c_reprobe_steers_away_from_degraded_zone() {
        let mut d = BitmapDispatcher::new(DispatchPolicy::PowerOfTwo, 16, 64);
        let (zone_of, rack_of) = toy_topology(16);
        let zone = zone_of.clone();
        d.set_topology(zone_of, rack_of);
        d.set_domain_degraded(false, 0, true);
        let mut rng = SimRng::seed(42);
        let mut healthy_picks = 0;
        for _ in 0..1000 {
            let p = d.pick(&mut rng);
            if zone[p] == 1 {
                healthy_picks += 1;
            }
            for node in 0..16 {
                d.set_occupancy(node, 0);
            }
        }
        assert!(
            healthy_picks > 650,
            "re-probe too weak: {healthy_picks}/1000 in healthy zone"
        );
    }

    /// Least-loaded retries go to the emptiest surviving-domain node and
    /// consume no RNG; once every domain is degraded they fall back to
    /// the plain pick.
    #[test]
    fn least_loaded_retry_spreads_across_surviving_domains() {
        let mut d = BitmapDispatcher::new(DispatchPolicy::LeastLoaded, 16, 64);
        let (zone_of, rack_of) = toy_topology(16);
        d.set_topology(zone_of, rack_of);
        d.set_domain_degraded(false, 1, true);
        for node in 0..16 {
            d.set_occupancy(node, if node < 8 { 4 } else { 0 });
        }
        // Zone 1 (nodes 8..16) is degraded and empty; zone 0 is loaded.
        // A plain least-loaded pick would choose node 8; the retry must
        // stay in the surviving zone 0.
        let mut rng = SimRng::seed(9);
        let before = rng.clone().next_u64();
        let p = d.pick_retry(&mut rng);
        assert_eq!(p, 0, "least-occupied surviving node, lowest index");
        assert_eq!(rng.next_u64(), before, "retry scan must not consume RNG");
        // Degrade the surviving zone too: no steering possible, plain pick.
        d.set_domain_degraded(false, 0, true);
        let mut rng = SimRng::seed(9);
        assert_eq!(d.pick_retry(&mut rng), 8, "fallback to plain least-loaded");
    }

    #[test]
    fn round_robin_cycles_and_names_parse() {
        let mut d = BitmapDispatcher::new(DispatchPolicy::RoundRobin, 3, 4);
        let mut rng = SimRng::seed(1);
        let picks: Vec<usize> = (0..4).map(|_| d.pick(&mut rng)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0], "round robin order");
        for p in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(
            DispatchPolicy::parse("P2C"),
            Some(DispatchPolicy::PowerOfTwo)
        );
        assert_eq!(DispatchPolicy::parse("weighted"), None);
    }
}
