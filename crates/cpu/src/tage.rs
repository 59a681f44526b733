//! TAGE conditional branch predictor (Seznec & Michaud, JILP 2006).
//!
//! The paper's baseline front-end uses a 31KB TAGE and a 6KB ITTAGE
//! (Table 1). This is a standard TAGE: a bimodal base predictor plus N
//! partially-tagged tables indexed with geometrically increasing global
//! history lengths; prediction comes from the longest matching history,
//! with a "use alternate on newly allocated" (`use_alt`) tie-breaker and
//! usefulness-directed allocation.

use bosim_types::mix64;

/// Tagged tables. The sizes below make roughly the 31KB of Table 1:
/// 16K bimodal counters (4KB) plus 8 tagged tables of 1K entries (~2B
/// each, ~16KB) plus the history machinery.
const TAGE_TABLES: usize = 8;
/// log2 of bimodal entries.
const BIMODAL_BITS: u32 = 14;
/// log2 of entries per tagged table.
const TABLE_BITS: u32 = 10;
/// Entries per tagged table.
const TABLE_ENTRIES: usize = 1 << TABLE_BITS;
/// Tag width per tagged table.
const TAG_BITS: u32 = 11;
/// Global history length of each tagged table (geometric, ascending).
const HISTORY_LENGTHS: [u32; TAGE_TABLES] = [4, 8, 16, 32, 64, 120, 220, 400];
/// Global history bits kept: the longest history plus the bit it drops.
const GHIST_LEN: usize = HISTORY_LENGTHS[TAGE_TABLES - 1] as usize + 1;

/// Folded history register: compresses an arbitrary-length global history
/// into `out_bits` by circular XOR folding.
#[derive(Debug, Clone, Copy)]
struct Folded {
    value: u32,
    out_bits: u32,
    hist_len: u32,
}

impl Folded {
    fn new(hist_len: u32, out_bits: u32) -> Self {
        Folded {
            value: 0,
            out_bits,
            hist_len,
        }
    }

    /// Shifts in the newest history bit and drops the oldest.
    fn update(&mut self, new_bit: u32, dropped_bit: u32) {
        let mask = (1u32 << self.out_bits) - 1;
        // Rotate left by one and inject the new bit.
        self.value = ((self.value << 1) | new_bit) & mask
            ^ (self.value >> (self.out_bits - 1))
            // Remove the bit that falls off the end of the history.
            ^ (dropped_bit << (self.hist_len % self.out_bits)) & mask;
        self.value &= mask;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: i8,    // 3-bit signed counter, -4..=3; >= 0 predicts taken
    useful: u8, // 2-bit usefulness
}

/// Each tagged table's `(index, tag)` for one branch under the current
/// history: computed once per [`Tage::update`] and shared by the
/// prediction, the counter update and allocation.
type Slots = [(usize, u16); TAGE_TABLES];

/// The TAGE conditional-branch direction predictor.
#[derive(Debug)]
pub struct Tage {
    bimodal: Vec<i8>, // 2-bit counters, -2..=1; >= 0 taken
    tables: Vec<[TaggedEntry; TABLE_ENTRIES]>,
    /// Global history as a bit ring (bounded by the longest history).
    ghist: [u8; GHIST_LEN],
    ghist_pos: usize,
    folded_idx: [Folded; TAGE_TABLES],
    folded_tag0: [Folded; TAGE_TABLES],
    folded_tag1: [Folded; TAGE_TABLES],
    use_alt: i8,
    /// Deterministic allocation tie-breaking.
    rng_state: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Tage {
    /// Creates the ~31KB predictor of Table 1.
    pub fn with_defaults() -> Self {
        let folded = |bits: u32| std::array::from_fn(|t| Folded::new(HISTORY_LENGTHS[t], bits));
        Tage {
            bimodal: vec![0; 1 << BIMODAL_BITS],
            tables: vec![[TaggedEntry::default(); TABLE_ENTRIES]; TAGE_TABLES],
            ghist: [0; GHIST_LEN],
            ghist_pos: 0,
            folded_idx: folded(TABLE_BITS),
            folded_tag0: folded(TAG_BITS),
            folded_tag1: folded(TAG_BITS - 1),
            use_alt: 0,
            rng_state: 0x8005_1CE5,
            predictions: 0,
            mispredictions: 0,
        }
    }

    #[inline]
    fn bimodal_index(pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << BIMODAL_BITS) - 1)
    }

    /// Every tagged table's index and tag for `pc`.
    #[inline]
    fn slots(&self, pc: u64) -> Slots {
        std::array::from_fn(|t| {
            let h = self.folded_idx[t].value as u64;
            let mixed = (pc >> 2) ^ (pc >> (3 + t as u64)) ^ h;
            let tag =
                (pc >> 2) as u32 ^ self.folded_tag0[t].value ^ (self.folded_tag1[t].value << 1);
            (
                (mixed as usize) & (TABLE_ENTRIES - 1),
                (tag & ((1 << TAG_BITS) - 1)) as u16,
            )
        })
    }

    /// Returns `(provider_table, alt_table)` hit indices, longest first.
    fn matches(&self, slots: &Slots) -> (Option<usize>, Option<usize>) {
        let mut provider = None;
        let mut alt = None;
        for t in (0..TAGE_TABLES).rev() {
            let (idx, tag) = slots[t];
            if self.tables[t][idx].tag == tag {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(t);
                    break;
                }
            }
        }
        (provider, alt)
    }

    fn bimodal_pred(&self, pc: u64) -> bool {
        self.bimodal[Self::bimodal_index(pc)] >= 0
    }

    /// The alternate prediction: the second-longest match, else bimodal.
    fn alt_pred(&self, pc: u64, slots: &Slots, alt: Option<usize>) -> bool {
        match alt {
            Some(a) => self.tables[a][slots[a].0].ctr >= 0,
            None => self.bimodal_pred(pc),
        }
    }

    /// The prediction from a lookup's slots and matches.
    fn predict_at(
        &self,
        pc: u64,
        slots: &Slots,
        (provider, alt): (Option<usize>, Option<usize>),
    ) -> bool {
        match provider {
            Some(p) => {
                let e = &self.tables[p][slots[p].0];
                let weak = e.ctr == 0 || e.ctr == -1;
                if weak && e.useful == 0 && self.use_alt >= 0 {
                    self.alt_pred(pc, slots, alt)
                } else {
                    e.ctr >= 0
                }
            }
            None => self.bimodal_pred(pc),
        }
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        let slots = self.slots(pc);
        self.predict_at(pc, &slots, self.matches(&slots))
    }

    /// Predicts the conditional branch at `pc`, then trains on its
    /// actual outcome; call once per conditional branch. Returns
    /// whether the prediction was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let slots = self.slots(pc);
        let (provider, alt) = self.matches(&slots);
        let predicted = self.predict_at(pc, &slots, (provider, alt));
        let correct = predicted == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }

        // Provider counter update.
        match provider {
            Some(p) => {
                let alt_pred = self.alt_pred(pc, &slots, alt);
                let e = &mut self.tables[p][slots[p].0];
                let provider_pred = e.ctr >= 0;
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                // Usefulness: provider correct where alternate was wrong.
                if provider_pred == taken && alt_pred != taken {
                    e.useful = (e.useful + 1).min(3);
                }
                if provider_pred != taken && alt_pred == taken {
                    e.useful = e.useful.saturating_sub(1);
                    self.use_alt = (self.use_alt + 1).min(7);
                } else if provider_pred == taken && alt_pred != taken {
                    self.use_alt = (self.use_alt - 1).max(-8);
                }
            }
            None => {
                let c = &mut self.bimodal[Self::bimodal_index(pc)];
                *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
            }
        }

        // Allocation on misprediction: claim an entry in a longer table.
        if !correct {
            let start = provider.map(|p| p + 1).unwrap_or(0);
            self.rng_state = self
                .rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1);
            let skip = (self.rng_state >> 60) & 1; // light randomisation
            let mut allocated = false;
            let first = start + skip as usize;
            for (table, (idx, tag)) in self.tables.iter_mut().zip(slots).skip(first) {
                let e = &mut table[idx];
                if e.useful == 0 {
                    e.tag = tag;
                    e.ctr = if taken { 0 } else { -1 };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Age usefulness to make room next time.
                for (table, (idx, _)) in self.tables.iter_mut().zip(slots).skip(start) {
                    table[idx].useful = table[idx].useful.saturating_sub(1);
                }
            }
        }

        // Advance global history.
        self.push_history(taken);
        correct
    }

    fn push_history(&mut self, taken: bool) {
        self.ghist_pos = (self.ghist_pos + 1) % GHIST_LEN;
        self.ghist[self.ghist_pos] = taken as u8;
        let new_bit = taken as u32;
        for (t, &hl) in HISTORY_LENGTHS.iter().enumerate() {
            let dropped_idx = (self.ghist_pos + GHIST_LEN - hl as usize) % GHIST_LEN;
            let dropped = self.ghist[dropped_idx] as u32;
            self.folded_idx[t].update(new_bit, dropped);
            self.folded_tag0[t].update(new_bit, dropped);
            self.folded_tag1[t].update(new_bit, dropped);
        }
    }

    /// `(predictions, mispredictions)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

/// ITTAGE-style indirect-branch target predictor (scaled down to the ~6KB
/// Table 1 budget): a PC-indexed target cache plus two tagged
/// history-indexed tables.
#[derive(Debug)]
pub struct Ittage {
    base: Vec<(u32, u64)>,        // (partial pc tag, target)
    tagged: Vec<Vec<(u32, u64)>>, // per-table (tag, target)
    hist: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Ittage {
    /// Creates the default predictor (256-entry base, 2 × 256 tagged).
    pub fn with_defaults() -> Self {
        Ittage {
            base: vec![(0, 0); 256],
            tagged: vec![vec![(0, 0); 256]; 2],
            hist: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn base_idx(pc: u64) -> usize {
        (mix64(pc) as usize) & 255
    }

    fn tagged_idx(&self, pc: u64, t: usize) -> (usize, u32) {
        let hlen = if t == 0 { 8 } else { 32 };
        let h = self.hist & ((1u64 << hlen) - 1);
        let m = mix64(pc ^ h.wrapping_mul(0x9E37_79B9));
        ((m as usize) & 255, (m >> 32) as u32 | 1)
    }

    /// Predicts the target of the indirect branch at `pc`.
    pub fn predict(&self, pc: u64) -> u64 {
        for t in (0..self.tagged.len()).rev() {
            let (idx, tag) = self.tagged_idx(pc, t);
            let (etag, target) = self.tagged[t][idx];
            if etag == tag {
                return target;
            }
        }
        self.base[Self::base_idx(pc)].1
    }

    /// Updates with the actual target; returns whether the prediction was
    /// correct.
    pub fn update(&mut self, pc: u64, target: u64) -> bool {
        let predicted = self.predict(pc);
        let correct = predicted == target;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
            // Allocate in the shortest-history table that disagrees.
            for t in 0..self.tagged.len() {
                let (idx, tag) = self.tagged_idx(pc, t);
                if self.tagged[t][idx].0 != tag || self.tagged[t][idx].1 != target {
                    self.tagged[t][idx] = (tag, target);
                    break;
                }
            }
        }
        self.base[Self::base_idx(pc)] = (1, target);
        self.hist = (self.hist << 2) ^ mix64(target) & 3;
        correct
    }

    /// `(predictions, mispredictions)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_branch_is_learned() {
        let mut t = Tage::with_defaults();
        for _ in 0..64 {
            t.update(0x400100, true);
        }
        assert!(t.predict(0x400100));
        let (p, m) = t.stats();
        assert!(m < p / 4, "{m}/{p} mispredictions on always-taken");
    }

    #[test]
    fn alternating_pattern_is_learned_via_history() {
        let mut t = Tage::with_defaults();
        let mut wrong_late = 0;
        for i in 0..4000u64 {
            let taken = i % 2 == 0;
            let correct = t.update(0x400200, taken);
            if i > 2000 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 100,
            "alternating branch should be near-perfect, got {wrong_late} late errors"
        );
    }

    #[test]
    fn short_period_pattern_is_learned() {
        // Period-4 pattern TTNT requires history; bimodal alone fails.
        let mut t = Tage::with_defaults();
        let pattern = [true, true, false, true];
        let mut wrong_late = 0;
        for i in 0..8000u64 {
            let taken = pattern[(i % 4) as usize];
            let correct = t.update(0x400300, taken);
            if i > 4000 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 200,
            "period-4 pattern: {wrong_late} late errors"
        );
    }

    #[test]
    fn random_branches_mispredict_about_half() {
        let mut t = Tage::with_defaults();
        let mut x = 88172645463325252u64;
        let mut wrong = 0;
        let n = 20000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 1;
            if !t.update(0x400400, taken) {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / n as f64;
        assert!(
            (0.35..0.65).contains(&rate),
            "random branch misprediction rate {rate}"
        );
    }

    #[test]
    fn distinct_pcs_do_not_destructively_alias() {
        let mut t = Tage::with_defaults();
        let mut wrong_late = 0;
        for i in 0..6000u64 {
            let c1 = t.update(0x400500, true);
            let c2 = t.update(0x400504, false);
            if i > 3000 {
                wrong_late += (!c1) as u32 + (!c2) as u32;
            }
        }
        assert!(
            wrong_late < 60,
            "{wrong_late} late errors on two biased PCs"
        );
    }

    #[test]
    fn ittage_learns_stable_target() {
        let mut it = Ittage::with_defaults();
        for _ in 0..50 {
            it.update(0x400600, 0x500000);
        }
        assert_eq!(it.predict(0x400600), 0x500000);
    }

    #[test]
    fn ittage_history_distinguishes_targets() {
        // Alternating targets in a fixed global pattern: the tagged
        // tables should capture a good share after warmup.
        let mut it = Ittage::with_defaults();
        let targets = [0xA000u64, 0xB000];
        let mut wrong_late = 0;
        for i in 0..4000u64 {
            let tgt = targets[(i % 2) as usize];
            let correct = it.update(0x400700, tgt);
            if i >= 2000 && !correct {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 800,
            "alternating-target indirect: {wrong_late}/2000 late errors"
        );
    }
}
