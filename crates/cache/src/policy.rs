//! Replacement policies: LRU, DRRIP and the paper's 5P.
//!
//! The baseline L3 policy is **5P** (§5.2): set sampling with five
//! insertion policies arbitrated by proportional counters. L2 uses plain
//! LRU ("we experimented with DIP/DRRIP at the L2 but did not observe any
//! significant performance gain over LRU"); DRRIP is provided for the
//! Figure 3 comparison.
//!
//! Per-line replacement state is a single byte owned by the policy:
//! an LRU age for the stack-based policies, an RRPV for DRRIP.

use bosim_types::{CoreId, ProportionalCounters, SplitMix64};

/// Context handed to the policy when a block is inserted.
#[derive(Debug, Clone, Copy)]
pub struct InsertCtx {
    /// True when the fill is a demand miss, false for prefetches.
    pub demand: bool,
    /// Core that caused the fill (L3 policies are core-aware).
    pub core: CoreId,
}

/// A cache replacement policy.
///
/// The cache array calls [`on_hit`](ReplacementPolicy::on_hit) on every
/// hit, [`victim`](ReplacementPolicy::victim) when it needs to evict from
/// a full set, and [`on_insert`](ReplacementPolicy::on_insert) after
/// placing a block into a way. `state` is the per-line replacement byte of
/// the set (one entry per way).
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Updates state on a cache hit ("upon a cache hit, the hitting block
    /// is always moved to the MRU position").
    fn on_hit(&mut self, set_idx: usize, state: &mut [u8], way: usize);

    /// Chooses a victim way in a full set (may mutate state, e.g. DRRIP
    /// ages the set while searching).
    fn victim(&mut self, set_idx: usize, state: &mut [u8]) -> usize;

    /// Updates state after inserting a block into `way`.
    fn on_insert(&mut self, set_idx: usize, state: &mut [u8], way: usize, ctx: InsertCtx);

    /// Policy name for statistics output.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------- LRU --

/// Moves `way` to the MRU position of an age-based stack.
fn lru_touch(state: &mut [u8], way: usize) {
    let old = state[way];
    for s in state.iter_mut() {
        if *s < old {
            *s += 1;
        }
    }
    state[way] = 0;
}

/// The LRU victim: the way with the maximal age.
fn lru_victim(state: &[u8]) -> usize {
    let mut best = 0;
    for (w, &s) in state.iter().enumerate() {
        if s > state[best] {
            best = w;
        }
    }
    best
}

/// Classical least-recently-used replacement with MRU insertion.
#[derive(Debug, Default)]
pub struct Lru;

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, _set: usize, state: &mut [u8], way: usize) {
        lru_touch(state, way);
    }

    fn victim(&mut self, _set: usize, state: &mut [u8]) -> usize {
        lru_victim(state)
    }

    fn on_insert(&mut self, _set: usize, state: &mut [u8], way: usize, _ctx: InsertCtx) {
        lru_touch(state, way);
    }

    fn name(&self) -> &'static str {
        "LRU"
    }
}

// -------------------------------------------------------------- DRRIP --

const RRPV_MAX: u8 = 3;

/// Dynamic re-reference interval prediction (Jaleel et al., ISCA 2010):
/// set-duels SRRIP against BRRIP.
#[derive(Debug)]
pub struct Drrip {
    rng: SplitMix64,
    psel: i32,
    psel_max: i32,
}

impl Drrip {
    /// Creates a DRRIP policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Drrip {
            rng: SplitMix64::new(seed),
            psel: 0,
            psel_max: 512,
        }
    }

    fn leader(&self, set: usize) -> Option<bool> {
        match set % 32 {
            0 => Some(true),   // SRRIP leader
            16 => Some(false), // BRRIP leader
            _ => None,
        }
    }

    fn use_srrip(&self, set: usize) -> bool {
        match self.leader(set) {
            Some(l) => l,
            None => self.psel <= 0,
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn on_hit(&mut self, _set: usize, state: &mut [u8], way: usize) {
        state[way] = 0;
    }

    fn victim(&mut self, _set: usize, state: &mut [u8]) -> usize {
        loop {
            for (w, &s) in state.iter().enumerate() {
                if s >= RRPV_MAX {
                    return w;
                }
            }
            for s in state.iter_mut() {
                *s += 1;
            }
        }
    }

    fn on_insert(&mut self, set: usize, state: &mut [u8], way: usize, ctx: InsertCtx) {
        if ctx.demand {
            match self.leader(set) {
                Some(true) => self.psel = (self.psel + 1).min(self.psel_max),
                Some(false) => self.psel = (self.psel - 1).max(-self.psel_max),
                None => {}
            }
        }
        // SRRIP leader/follower sets insert near-immediate; BRRIP sets
        // do so only with probability 1/32.
        let near = self.use_srrip(set) || self.rng.chance(1, 32);
        state[way] = if near { RRPV_MAX - 1 } else { RRPV_MAX };
    }

    fn name(&self) -> &'static str {
        "DRRIP"
    }
}

// ----------------------------------------------------------------- 5P --

/// The five insertion policies of 5P (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ip {
    /// IP1: MRU insertion (classical LRU).
    Mru,
    /// IP2: bimodal insertion (BIP, Qureshi et al.): MRU with a 1/32
    /// chance, otherwise LRU.
    Bip,
    /// IP3: MRU if demand miss, otherwise LRU (prefetch-aware).
    DemandMru,
    /// IP4: MRU if fetched from a core with a low miss rate.
    LowMissMru,
    /// IP5: MRU if demand miss from a core with a low miss rate.
    DemandLowMissMru,
}

const IPS: [Ip; 5] = [
    Ip::Mru,
    Ip::Bip,
    Ip::DemandMru,
    Ip::LowMissMru,
    Ip::DemandLowMissMru,
];

/// Leader-set offsets within each 128-set constituency (one per IP).
const LEADER_OFFSETS: [usize; 5] = [0, 25, 50, 75, 100];

/// Number of sets per constituency (§5.2: "a constituency size of 128
/// sets").
pub const FIVEP_CONSTITUENCY: usize = 128;

/// The paper's 5P L3 replacement policy (§5.2): five insertion policies,
/// set sampling, 12-bit proportional counters choosing the follower
/// policy, plus per-core miss-rate proportional counters for the
/// core-aware insertion policies IP4/IP5.
#[derive(Debug)]
pub struct FiveP {
    rng: SplitMix64,
    /// One 12-bit proportional counter per insertion policy.
    policy_counters: ProportionalCounters,
    /// One 12-bit proportional counter per core (miss-rate estimation).
    core_counters: ProportionalCounters,
}

impl FiveP {
    /// Creates a 5P policy for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize, seed: u64) -> Self {
        FiveP {
            rng: SplitMix64::new(seed),
            policy_counters: ProportionalCounters::new(5, 12),
            core_counters: ProportionalCounters::new(num_cores.max(1), 12),
        }
    }

    /// Which IP leads this set, if it is a leader set.
    fn leader(&self, set: usize) -> Option<usize> {
        let offset = set % FIVEP_CONSTITUENCY;
        LEADER_OFFSETS.iter().position(|&o| o == offset)
    }

    /// The insertion policy governing this set.
    fn policy_for(&self, set: usize) -> Ip {
        match self.leader(set) {
            Some(i) => IPS[i],
            // Followers use the policy with the lowest demand-miss count.
            None => IPS[self.policy_counters.argmin()],
        }
    }
}

impl ReplacementPolicy for FiveP {
    fn on_hit(&mut self, _set: usize, state: &mut [u8], way: usize) {
        lru_touch(state, way);
    }

    fn victim(&mut self, _set: usize, state: &mut [u8]) -> usize {
        lru_victim(state)
    }

    fn on_insert(&mut self, set: usize, state: &mut [u8], way: usize, ctx: InsertCtx) {
        // Track per-core fill rates for the core-aware policies.
        if ctx.core.index() < self.core_counters.len() {
            self.core_counters.increment(ctx.core.index());
        }
        // Demand-miss insertions into leader sets drive policy selection.
        if ctx.demand {
            if let Some(i) = self.leader(set) {
                self.policy_counters.increment(i);
            }
        }
        let low_miss = ctx.core.index() < self.core_counters.len()
            && self.core_counters.is_low(ctx.core.index());
        let mru = match self.policy_for(set) {
            Ip::Mru => true,
            Ip::Bip => self.rng.chance(1, 32),
            Ip::DemandMru => ctx.demand,
            Ip::LowMissMru => low_miss,
            Ip::DemandLowMissMru => ctx.demand && low_miss,
        };
        if mru {
            lru_touch(state, way);
        }
    }

    fn name(&self) -> &'static str {
        "5P"
    }
}

/// Which replacement policy a cache should use (configuration enum for
/// the Figure 3 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Classical LRU.
    Lru,
    /// Dynamic RRIP.
    Drrip,
    /// The paper's 5P policy.
    FiveP,
}

impl PolicyKind {
    /// Builds the policy object. `num_cores` is used by 5P only.
    pub fn build(self, num_cores: usize, seed: u64) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru),
            PolicyKind::Drrip => Box::new(Drrip::new(seed)),
            PolicyKind::FiveP => Box::new(FiveP::new(num_cores, seed)),
        }
    }

    /// Display label ("LRU", "DRRIP", "5P", ...).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::FiveP => "5P",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(demand: bool, core: u8) -> InsertCtx {
        InsertCtx {
            demand,
            core: CoreId(core),
        }
    }

    /// Fresh 4-way set state: ages 0..3 (way 0 is MRU).
    fn fresh_set() -> Vec<u8> {
        vec![0, 1, 2, 3]
    }

    #[test]
    fn lru_hit_moves_to_mru() {
        let mut p = Lru;
        let mut s = fresh_set();
        p.on_hit(0, &mut s, 3);
        assert_eq!(s, vec![1, 2, 3, 0]);
    }

    #[test]
    fn lru_victim_is_oldest() {
        let mut p = Lru;
        let mut s = vec![2, 0, 3, 1];
        assert_eq!(p.victim(0, &mut s), 2);
    }

    #[test]
    fn lru_ages_stay_a_permutation() {
        let mut p = Lru;
        let mut s = fresh_set();
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let w = rng.next_below(4) as usize;
            if rng.chance(1, 2) {
                p.on_hit(0, &mut s, w);
            } else {
                let v = p.victim(0, &mut s);
                p.on_insert(0, &mut s, v, ctx(true, 0));
            }
            let mut sorted = s.clone();
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2, 3], "ages must stay a permutation");
        }
    }

    #[test]
    fn drrip_hit_resets_rrpv() {
        let mut p = Drrip::new(1);
        let mut s = vec![3, 2, 1, 0];
        p.on_hit(0, &mut s, 0);
        assert_eq!(s[0], 0);
    }

    #[test]
    fn drrip_victim_finds_or_creates_rrpv3() {
        let mut p = Drrip::new(1);
        let mut s = vec![0, 1, 2, 2];
        let v = p.victim(0, &mut s);
        // After aging, some way reached RRPV 3.
        assert_eq!(s[v], 3);
    }

    #[test]
    fn fivep_leader_sets_are_disjoint_and_periodic() {
        let p = FiveP::new(4, 7);
        let mut leaders = 0;
        for set in 0..FIVEP_CONSTITUENCY {
            if p.leader(set).is_some() {
                leaders += 1;
            }
        }
        assert_eq!(leaders, 5);
        assert_eq!(p.leader(0), Some(0));
        assert_eq!(p.leader(FIVEP_CONSTITUENCY + 25), Some(1));
    }

    #[test]
    fn fivep_ip3_leader_inserts_prefetch_at_lru() {
        let mut p = FiveP::new(4, 7);
        let ip3_set = LEADER_OFFSETS[2];
        let mut s = fresh_set();
        p.on_insert(ip3_set, &mut s, 3, ctx(false, 0)); // prefetch fill
        assert_eq!(s[3], 3, "prefetch inserted at LRU in IP3 leader");
        let mut s2 = fresh_set();
        p.on_insert(ip3_set, &mut s2, 3, ctx(true, 0)); // demand fill
        assert_eq!(s2[3], 0, "demand inserted at MRU in IP3 leader");
    }

    #[test]
    fn fivep_follower_uses_lowest_counter_policy() {
        let mut p = FiveP::new(4, 7);
        // Drive demand misses into the IP1 leader so IP1's counter rises;
        // followers should then avoid IP1... i.e. argmin is another IP.
        let ip1_set = LEADER_OFFSETS[0];
        for _ in 0..50 {
            let mut s = fresh_set();
            p.on_insert(ip1_set, &mut s, 3, ctx(true, 0));
        }
        assert_ne!(p.policy_counters.argmin(), 0);
    }

    #[test]
    fn fivep_core_aware_low_miss_rate() {
        let mut p = FiveP::new(4, 7);
        // Core 0 fills a lot, core 1 rarely: core 1 is "low miss".
        for _ in 0..200 {
            let mut s = fresh_set();
            p.on_insert(7, &mut s, 3, ctx(true, 0));
        }
        for _ in 0..10 {
            let mut s = fresh_set();
            p.on_insert(7, &mut s, 3, ctx(true, 1));
        }
        assert!(p.core_counters.is_low(1));
        assert!(!p.core_counters.is_low(0));
        // IP4 leader: low-miss core inserts at MRU, high-miss at LRU.
        let ip4_set = LEADER_OFFSETS[3];
        let mut s = fresh_set();
        p.on_insert(ip4_set, &mut s, 3, ctx(false, 1));
        assert_eq!(s[3], 0);
        let mut s = fresh_set();
        p.on_insert(ip4_set, &mut s, 3, ctx(false, 0));
        assert_eq!(s[3], 3);
    }

    #[test]
    fn policy_kind_builds_all() {
        for k in [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::FiveP] {
            let p = k.build(4, 3);
            assert_eq!(p.name(), k.label());
        }
    }
}
