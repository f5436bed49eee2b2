//! Cluster-level request dispatch: four balancing policies over one flat
//! per-node occupancy array.
//!
//! A [`Dispatcher`] owns one tier's occupancy state (work quanta queued
//! per node) and answers "which node takes the next quantum?". Random,
//! round-robin and power-of-two read point occupancies; least-loaded is a
//! left-to-right scan with a strict `<`, so ties go to the lowest node
//! index. That scan is O(N) per pick, but dispatch stays under 1% of a
//! cluster run's wall time even at 1024 nodes, where the node engines
//! take nearly all of it, so no index over the array pays for itself.

use hipster_sim::SimRng;

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
#[derive(Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    /// Clamped occupancy per node.
    occ: Vec<u32>,
    cap: u32,
    /// Sum of `occ`.
    sum: u64,
    rr_next: usize,
    /// Revocation mask, and how many nodes it covers.
    masked: Vec<bool>,
    n_masked: usize,
    view: DomainView,
}

/// Failure-domain bookkeeping. Tracks which zones/racks are degraded and
/// maintains the per-node degraded flags plus a healthy-node count, so
/// pick-time queries are O(1) and the O(N) recompute only runs on the
/// rare domain transition.
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

/// P2C candidate sampling: one RNG draw, halved into two 32-bit words,
/// each mapped to `[0, n)` by Lemire's multiply-shift.
#[inline]
fn p2c_probes(rng: &mut SimRng, n: usize) -> (usize, usize) {
    debug_assert!(n > 0 && n <= u32::MAX as usize);
    let bits = rng.next_u64();
    let a = ((bits >> 32) * n as u64) >> 32;
    let b = ((bits & 0xffff_ffff) * n as u64) >> 32;
    (a as usize, b as usize)
}

impl Dispatcher {
    /// Creates a dispatcher over `nodes` nodes, all at occupancy 0, whose
    /// occupancies clamp at `cap`. Pick `cap` comfortably above the
    /// per-interval quota: past it, "which overloaded node" no longer
    /// matters.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(policy: DispatchPolicy, nodes: usize, cap: u32) -> Self {
        assert!(nodes > 0, "a cluster tier needs at least one node");
        Dispatcher {
            policy,
            occ: vec![0; nodes],
            cap,
            sum: 0,
            rr_next: 0,
            masked: vec![false; nodes],
            n_masked: 0,
            view: DomainView::default(),
        }
    }

    /// The balancing policy in force.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The node's current (clamped) occupancy in quanta.
    pub fn occupancy(&self, node: usize) -> u32 {
        self.occ[node]
    }

    /// Sum of all clamped occupancies (the admission watermark signal).
    pub fn total(&self) -> u64 {
        self.sum
    }

    /// Overwrites a node's occupancy — interval-start carry from the
    /// previous interval's queue backlog.
    pub fn set_occupancy(&mut self, node: usize, occ: u32) {
        let v = occ.min(self.cap);
        self.sum = self.sum - u64::from(self.occ[node]) + u64::from(v);
        self.occ[node] = v;
    }

    fn bump(&mut self, node: usize) {
        self.set_occupancy(node, self.occ[node].saturating_add(1));
    }

    /// Places one quantum: returns the chosen node and increments its
    /// occupancy. `rng` is consulted only by the randomized policies,
    /// and each policy draws a fixed number of values per call.
    pub fn pick(&mut self, rng: &mut SimRng) -> usize {
        let n = self.occ.len();
        let node = match self.policy {
            DispatchPolicy::Random => rng.index(n),
            DispatchPolicy::RoundRobin => {
                let node = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                node
            }
            DispatchPolicy::LeastLoaded => self.least_occupied(|_| true).expect("non-empty tier"),
            DispatchPolicy::PowerOfTwo => self.p2c_pick(rng),
        };
        let node = self.remap(node);
        self.bump(node);
        node
    }

    /// Places one *retried* quantum. Identical to [`Dispatcher::pick`]
    /// unless a topology is installed and some (but not all) domains are
    /// degraded, in which case least-loaded spreads the retry across the
    /// least-occupied node of the surviving domains (ties to the lowest
    /// index, masked nodes skipped) without consuming RNG.
    pub fn pick_retry(&mut self, rng: &mut SimRng) -> usize {
        if self.policy == DispatchPolicy::LeastLoaded && self.view.has_degraded() {
            let survivor =
                self.least_occupied(|node| !self.view.is_degraded(node) && !self.masked[node]);
            if let Some(node) = survivor {
                self.bump(node);
                return node;
            }
        }
        self.pick(rng)
    }

    /// Masks or unmasks a node. Masked (revoked) nodes are never
    /// returned by `pick`: a policy choice landing on one remaps to the
    /// next unmasked index, cyclically.
    pub fn set_masked(&mut self, node: usize, masked: bool) {
        if self.masked[node] != masked {
            self.masked[node] = masked;
            if masked {
                self.n_masked += 1;
            } else {
                self.n_masked -= 1;
            }
        }
    }

    /// Whether `node` is currently masked.
    pub fn is_masked(&self, node: usize) -> bool {
        self.masked[node]
    }

    /// Teaches the dispatcher the failure-domain topology: `zone_of[i]`
    /// and `rack_of[i]` are node `i`'s zone and (global) rack indices.
    /// Until this is called the dispatcher is domain-blind, and while no
    /// domain is degraded every pick matches the domain-blind one.
    pub fn set_topology(&mut self, zone_of: Vec<u16>, rack_of: Vec<u16>) {
        assert_eq!(
            zone_of.len(),
            self.occ.len(),
            "topology must cover the tier"
        );
        self.view.install(zone_of, rack_of);
    }

    /// Flags a whole domain (zone, or rack when `rack` is set) as
    /// degraded or recovered. Degraded domains steer P2C re-probes and
    /// retry placement away; they do **not** mask nodes (use
    /// [`Dispatcher::set_masked`] for hard revocations).
    pub fn set_domain_degraded(&mut self, rack: bool, index: usize, degraded: bool) {
        self.view.set_bad(rack, index, degraded);
    }

    /// The least-occupied node among those `eligible` admits, ties to the
    /// lowest index: a left-to-right scan with a strict `<`.
    fn least_occupied(&self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (node, &occ) in self.occ.iter().enumerate() {
            if !eligible(node) {
                continue;
            }
            match best {
                Some(b) if occ >= self.occ[b] => {}
                _ => best = Some(node),
            }
        }
        best
    }

    /// The remap of a policy choice around the revocation mask. It runs
    /// *after* the policy's own (possibly RNG-consuming) choice, so masks
    /// never change the RNG stream, and the scan only runs while a pick
    /// lands on a masked node. With every node masked the raw candidate
    /// comes back unchanged — the cluster layer strands work instead of
    /// dispatching in that regime.
    fn remap(&self, node: usize) -> usize {
        let n = self.occ.len();
        if self.n_masked == 0 || self.n_masked >= n || !self.masked[node] {
            return node;
        }
        let mut i = node;
        loop {
            i = (i + 1) % n;
            if !self.masked[i] {
                return i;
            }
        }
    }

    /// The less-occupied of two P2C candidates, ties toward the lower
    /// index.
    fn p2c_winner(&self, a: usize, b: usize) -> usize {
        match self.occ[a].cmp(&self.occ[b]) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => a.min(b),
        }
    }

    /// P2C with domain awareness. While degradation is active (and
    /// healthy domains survive), a probe in a degraded domain loses the
    /// occupancy comparison outright, and when *both* probes land
    /// degraded one extra probe pair is drawn and judged the same way.
    /// With no topology installed (or no degradation) this is the plain
    /// pick: exactly one RNG draw.
    fn p2c_pick(&self, rng: &mut SimRng) -> usize {
        let n = self.occ.len();
        let (a, b) = p2c_probes(rng, n);
        if !self.view.has_degraded() {
            return self.p2c_winner(a, b);
        }
        let bad = |node| self.view.is_degraded(node);
        match (bad(a), bad(b)) {
            (false, false) => self.p2c_winner(a, b),
            (false, true) => a,
            (true, false) => b,
            (true, true) => {
                let (c, d) = p2c_probes(rng, n);
                match (bad(c), bad(d)) {
                    (false, false) => self.p2c_winner(c, d),
                    (false, true) => c,
                    (true, false) => d,
                    // Re-probe also missed the healthy domains: best of all
                    // four by occupancy.
                    (true, true) => self.p2c_winner(self.p2c_winner(a, b), self.p2c_winner(c, d)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Masked nodes are never returned, and a policy choice landing on
    /// one moves to the next unmasked index.
    #[test]
    fn masked_nodes_are_never_picked() {
        for policy in DispatchPolicy::ALL {
            let mut d = Dispatcher::new(policy, 9, 16);
            let mut rng = SimRng::seed(5);
            for round in 0..40 {
                for node in 0..9 {
                    d.set_masked(node, (node + round) % 3 == 0);
                    d.set_occupancy(node, (node % 4) as u32);
                }
                for _ in 0..18 {
                    let p = d.pick(&mut rng);
                    assert!(!d.is_masked(p), "{} picked a masked node", policy.name());
                }
            }
        }
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin, 4, 8);
        d.set_masked(1, true);
        d.set_masked(2, true);
        let mut rng = SimRng::seed(1);
        let picks: Vec<usize> = (0..4).map(|_| d.pick(&mut rng)).collect();
        assert_eq!(
            picks,
            vec![0, 3, 3, 3],
            "remap walks to the next unmasked index"
        );
    }

    /// With every node masked, pick falls back to the raw candidate (the
    /// cluster layer strands work before dispatching in that regime).
    #[test]
    fn fully_masked_tier_still_returns_a_candidate() {
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin, 3, 4);
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
        let mut d = Dispatcher::new(DispatchPolicy::LeastLoaded, 8, 8);
        let mut rng = SimRng::seed(1);
        for node in 0..8 {
            d.set_occupancy(node, 2);
        }
        d.set_occupancy(5, 1);
        assert_eq!(d.pick(&mut rng), 5); // emptiest
        assert_eq!(d.pick(&mut rng), 0); // now all tie at 2 → lowest index
        assert_eq!(d.occupancy(5), 2);
        assert_eq!(d.total(), 17);
        d.set_occupancy(3, 100);
        assert_eq!(d.occupancy(3), 8, "occupancy clamps at the cap");
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
                Dispatcher::new(policy, 16, 16),
                Dispatcher::new(policy, 16, 16),
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

    /// P2C steers away from a degraded zone: with zone 0 degraded, picks
    /// land in zone 1 far more often than the blind 50/50 split.
    #[test]
    fn p2c_reprobe_steers_away_from_degraded_zone() {
        let mut d = Dispatcher::new(DispatchPolicy::PowerOfTwo, 16, 64);
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
        let mut d = Dispatcher::new(DispatchPolicy::LeastLoaded, 16, 64);
        let (zone_of, rack_of) = toy_topology(16);
        d.set_topology(zone_of, rack_of);
        d.set_domain_degraded(false, 1, true);
        for node in 0..16 {
            d.set_occupancy(node, if node < 8 { 4 } else { 0 });
        }
        // Zone 1 (nodes 8..16) is degraded and empty; zone 0 is loaded.
        // A plain least-loaded pick would choose node 8; the retry must
        // stay in the surviving zone 0, skipping masked node 0.
        d.set_masked(0, true);
        let mut rng = SimRng::seed(9);
        let before = rng.clone().next_u64();
        let p = d.pick_retry(&mut rng);
        assert_eq!(p, 1, "least-occupied unmasked surviving node, lowest index");
        assert_eq!(rng.next_u64(), before, "retry scan must not consume RNG");
        // Degrade the surviving zone too: no steering possible, plain pick.
        d.set_domain_degraded(false, 0, true);
        let mut rng = SimRng::seed(9);
        assert_eq!(d.pick_retry(&mut rng), 8, "fallback to plain least-loaded");
    }

    #[test]
    fn round_robin_cycles_and_names_parse() {
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin, 3, 4);
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
