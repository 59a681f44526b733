//! Access-pattern kernel implementations behind [`crate::synth`].
//!
//! Each kernel emits one loop iteration of µops at a time, with stable
//! per-slot PCs (so the PC-indexed DL1 stride prefetcher of §5.5 sees real
//! loops), explicit register dependences (so the core model's scoreboard
//! reproduces serialisation of pointer chases vs. the MLP of streams), and
//! deterministic pseudo-random decisions.

use crate::record::{MicroOp, Reg, UopKind};
use crate::synth::{
    layout, BranchyCfg, ChaseCfg, ComputeCfg, GatherCfg, KernelCfg, ScanWriteCfg, StreamCfg,
};
use bosim_types::{mix64, SplitMix64, LINE_BYTES};

/// Full-period LCG multiplier for power-of-two moduli (a ≡ 1 mod 4).
const LCG_MUL: u64 = 6364136223846793005;

/// µop emitter with automatic PC advance (4 bytes per µop).
struct Emitter<'a> {
    out: &'a mut Vec<MicroOp>,
    pc: u64,
}

impl<'a> Emitter<'a> {
    fn new(out: &'a mut Vec<MicroOp>, pc: u64) -> Self {
        Emitter { out, pc }
    }

    fn op(&mut self, kind: UopKind, dst: Option<Reg>, srcs: [Option<Reg>; 2]) {
        self.push(kind, 0, dst, srcs, false);
    }

    fn load(&mut self, vaddr: u64, dst: Reg, addr_src: Option<Reg>) {
        self.push(UopKind::Load, vaddr, Some(dst), [addr_src, None], false);
    }

    fn store(&mut self, vaddr: u64, data_src: Option<Reg>) {
        self.push(UopKind::Store, vaddr, None, [data_src, None], false);
    }

    fn branch(&mut self, taken: bool, target: u64) {
        self.push(UopKind::CondBranch, target, None, [None, None], taken);
    }

    fn push(
        &mut self,
        kind: UopKind,
        addr: u64,
        dst: Option<Reg>,
        srcs: [Option<Reg>; 2],
        taken: bool,
    ) {
        self.out.push(MicroOp {
            pc: self.pc,
            addr,
            kind,
            dst,
            srcs,
            taken,
        });
        self.pc += 4;
    }
}

/// Instantiated kernel state: one variant per [`KernelCfg`].
#[derive(Debug)]
pub(crate) enum KernelState {
    Stream(Stream),
    Chase(Chase),
    Gather(Gather),
    Compute(Compute),
    Branchy(Branchy),
    ScanWrite(ScanWrite),
}

impl KernelState {
    pub(crate) fn new(cfg: &KernelCfg, idx: usize, seed: u64) -> Self {
        match cfg {
            KernelCfg::Stream(c) => KernelState::Stream(Stream::new(c.clone(), idx, seed)),
            KernelCfg::Chase(c) => KernelState::Chase(Chase::new(c.clone(), idx, seed)),
            KernelCfg::Gather(c) => KernelState::Gather(Gather::new(c.clone(), idx, seed)),
            KernelCfg::Compute(c) => KernelState::Compute(Compute::new(c.clone(), idx, seed)),
            KernelCfg::Branchy(c) => KernelState::Branchy(Branchy::new(c.clone(), idx, seed)),
            KernelCfg::ScanWrite(c) => KernelState::ScanWrite(ScanWrite::new(c.clone(), idx, seed)),
        }
    }

    pub(crate) fn emit(&mut self, out: &mut Vec<MicroOp>) {
        match self {
            KernelState::Stream(k) => k.emit(out),
            KernelState::Chase(k) => k.emit(out),
            KernelState::Gather(k) => k.emit(out),
            KernelState::Compute(k) => k.emit(out),
            KernelState::Branchy(k) => k.emit(out),
            KernelState::ScanWrite(k) => k.emit(out),
        }
    }
}

/// Interleaved constant-stride streams.
#[derive(Debug)]
pub(crate) struct Stream {
    cfg: StreamCfg,
    code: u64,
    r: u8,
    cursors: Vec<u64>,
    pat_pos: Vec<usize>,
    /// In-line load position per stream (0..loads_per_line).
    sub: Vec<u32>,
    cur: usize,
    loads_since_store: u32,
    base: u64,
}

impl Stream {
    fn new(cfg: StreamCfg, idx: usize, _seed: u64) -> Self {
        assert!(cfg.streams >= 1, "need at least one stream");
        assert!(!cfg.pattern.is_empty(), "empty stride pattern");
        assert!(cfg.region_bytes >= LINE_BYTES, "region too small");
        assert!(cfg.loads_per_line >= 1, "loads_per_line must be >= 1");
        let n = cfg.streams as usize;
        Stream {
            code: layout::code_base(idx),
            r: layout::reg_base(idx),
            cursors: vec![0; n],
            pat_pos: vec![0; n],
            sub: vec![0; n],
            cur: 0,
            loads_since_store: 0,
            base: layout::data_base(idx),
            cfg,
        }
    }

    fn emit(&mut self, out: &mut Vec<MicroOp>) {
        let s = self.cur;
        self.cur = (self.cur + 1) % self.cursors.len();
        // Each stream accesses its own sub-region so streams do not alias.
        let stream_base = self.base + s as u64 * self.cfg.region_bytes.next_power_of_two() * 2;
        // Several loads walk each touched line before it advances.
        let in_line = (self.sub[s] as u64 * 8) % LINE_BYTES;
        let addr = stream_base + self.cursors[s] + in_line;

        let addr_reg = Reg(self.r);
        let data_reg = Reg(self.r + 2);
        let mut e = Emitter::new(out, self.code + s as u64 * 4096);
        // Induction-variable update: address is ready quickly (high MLP).
        e.op(UopKind::Int, Some(addr_reg), [Some(addr_reg), None]);
        e.load(addr, data_reg, Some(addr_reg));
        let kind = if self.cfg.fp {
            UopKind::Fp
        } else {
            UopKind::Int
        };
        for j in 0..self.cfg.compute_per_load {
            let c = Reg(self.r + 3 + (j % 3) as u8);
            e.op(kind, Some(c), [Some(data_reg), Some(c)]);
        }
        if self.cfg.store_every > 0 {
            self.loads_since_store += 1;
            if self.loads_since_store >= self.cfg.store_every {
                self.loads_since_store = 0;
                e.store(addr, Some(data_reg));
            }
        }
        e.branch(true, self.code + s as u64 * 4096);

        // Advance within the line, then along the stride pattern.
        self.sub[s] += 1;
        if self.sub[s] >= self.cfg.loads_per_line {
            self.sub[s] = 0;
            let step = self.cfg.pattern[self.pat_pos[s]];
            self.pat_pos[s] = (self.pat_pos[s] + 1) % self.cfg.pattern.len();
            let delta = step * LINE_BYTES as i64;
            let region = self.cfg.region_bytes;
            let next = self.cursors[s] as i64 + delta;
            self.cursors[s] = next.rem_euclid(region as i64) as u64;
        }
    }
}

/// Dependent pointer chase over a full-period LCG permutation walk.
#[derive(Debug)]
pub(crate) struct Chase {
    cfg: ChaseCfg,
    code: u64,
    r: u8,
    base: u64,
    mask: u64,
    idx: Vec<u64>,
    incs: Vec<u64>,
    cur: usize,
    loads_since_branch: u32,
    rng: SplitMix64,
}

impl Chase {
    fn new(cfg: ChaseCfg, idx_k: usize, seed: u64) -> Self {
        assert!(cfg.chains >= 1, "need at least one chain");
        let lines = (cfg.region_bytes / LINE_BYTES).next_power_of_two().max(64);
        let n = cfg.chains as usize;
        let mut rng = SplitMix64::new(seed ^ 0xC4A5E);
        let idx = (0..n).map(|_| rng.next_below(lines)).collect();
        // Odd increments give full period for power-of-two moduli.
        let incs = (0..n).map(|_| rng.next_u64() | 1).collect();
        Chase {
            code: layout::code_base(idx_k),
            r: layout::reg_base(idx_k),
            base: layout::data_base(idx_k),
            mask: lines - 1,
            idx,
            incs,
            cur: 0,
            loads_since_branch: 0,
            rng,
            cfg,
        }
    }

    fn emit(&mut self, out: &mut Vec<MicroOp>) {
        let c = self.cur;
        self.cur = (self.cur + 1) % self.idx.len();
        let chain_reg = Reg(self.r + 2 + (c % 6) as u8);
        let addr = self.base + self.idx[c] * LINE_BYTES;
        let mut e = Emitter::new(out, self.code);
        // The load's address depends on the previous load of the same
        // chain: true pointer chasing, serialised by memory latency.
        e.load(addr, chain_reg, Some(chain_reg));
        for _ in 0..self.cfg.compute_per_load {
            e.op(UopKind::Int, Some(chain_reg), [Some(chain_reg), None]);
        }
        if self.cfg.branch_every > 0 {
            self.loads_since_branch += 1;
            if self.loads_since_branch >= self.cfg.branch_every {
                self.loads_since_branch = 0;
                // Data-dependent branch: essentially unpredictable.
                let taken = self.rng.chance(1, 2);
                e.branch(taken, self.code + 256);
            }
        }
        e.branch(true, self.code);
        self.idx[c] = (self.idx[c].wrapping_mul(LCG_MUL).wrapping_add(self.incs[c])) & self.mask;
    }
}

/// Indexed gather: sequential index loads + dependent pseudo-random loads.
#[derive(Debug)]
pub(crate) struct Gather {
    cfg: GatherCfg,
    code: u64,
    r: u8,
    index_base: u64,
    data_base: u64,
    data_lines: u64,
    cursor: u64,
    ctr: u64,
    seed: u64,
}

impl Gather {
    fn new(cfg: GatherCfg, idx: usize, seed: u64) -> Self {
        let data_lines = (cfg.data_region_bytes / LINE_BYTES).max(64);
        Gather {
            code: layout::code_base(idx),
            r: layout::reg_base(idx),
            index_base: layout::data_base(idx),
            data_base: layout::data_base2(idx),
            data_lines,
            cursor: 0,
            ctr: 0,
            seed,
            cfg,
        }
    }

    fn emit(&mut self, out: &mut Vec<MicroOp>) {
        let addr_reg = Reg(self.r);
        let idx_reg = Reg(self.r + 2);
        let data_reg = Reg(self.r + 3);
        let mut e = Emitter::new(out, self.code);
        // Sequential index load (prefetchable).
        e.op(UopKind::Int, Some(addr_reg), [Some(addr_reg), None]);
        e.load(self.index_base + self.cursor, idx_reg, Some(addr_reg));
        // Gathered data load: address depends on the loaded index.
        let g = mix64(self.ctr ^ self.seed) % self.data_lines;
        e.load(self.data_base + g * LINE_BYTES, data_reg, Some(idx_reg));
        for j in 0..self.cfg.compute_per_pair {
            let c = Reg(self.r + 4 + (j % 3) as u8);
            e.op(UopKind::Int, Some(c), [Some(data_reg), Some(c)]);
        }
        e.branch(true, self.code);
        self.cursor = (self.cursor + 8) % self.cfg.index_region_bytes.max(64);
        self.ctr += 1;
    }
}

/// Compute-dominated loop.
#[derive(Debug)]
pub(crate) struct Compute {
    cfg: ComputeCfg,
    code: u64,
    r: u8,
    resident_base: u64,
    cursor: u64,
    iter: u64,
    rng: SplitMix64,
}

impl Compute {
    fn new(cfg: ComputeCfg, idx: usize, seed: u64) -> Self {
        assert!(cfg.ops_per_iter >= 1);
        assert!(cfg.chain_len >= 1);
        assert!(cfg.code_blocks >= 1);
        Compute {
            code: layout::code_base(idx),
            r: layout::reg_base(idx),
            resident_base: layout::data_base(idx),
            cursor: 0,
            iter: 0,
            rng: SplitMix64::new(seed ^ 0xC0301),
            cfg,
        }
    }

    fn emit(&mut self, out: &mut Vec<MicroOp>) {
        let block = (self.iter % self.cfg.code_blocks as u64) * 4096;
        let next_block = ((self.iter + 1) % self.cfg.code_blocks as u64) * 4096;
        self.iter += 1;
        let mut e = Emitter::new(out, self.code + block);
        let nchains = 4u32;
        for j in 0..self.cfg.ops_per_iter {
            if self.cfg.load_every > 0 && j % self.cfg.load_every == 0 {
                let addr_reg = Reg(self.r);
                e.op(UopKind::Int, Some(addr_reg), [Some(addr_reg), None]);
                e.load(
                    self.resident_base + self.cursor,
                    Reg(self.r + 2),
                    Some(addr_reg),
                );
                self.cursor = (self.cursor + 64) % self.cfg.resident_bytes.max(64);
                continue;
            }
            let chain = (j / self.cfg.chain_len) % nchains;
            let c = Reg(self.r + 3 + (chain % 5) as u8);
            let kind = if self.rng.chance(self.cfg.div_permille as u64, 1000) {
                if self.rng.chance(self.cfg.fp_permille as u64, 1000) {
                    UopKind::FpDiv
                } else {
                    UopKind::IntDiv
                }
            } else if self.rng.chance(self.cfg.fp_permille as u64, 1000) {
                UopKind::Fp
            } else {
                UopKind::Int
            };
            e.op(kind, Some(c), [Some(c), None]);
        }
        e.branch(true, self.code + next_block);
    }
}

/// Branchy kernel with a mix of predictable and data-dependent branches.
#[derive(Debug)]
pub(crate) struct Branchy {
    cfg: BranchyCfg,
    code: u64,
    r: u8,
    resident_base: u64,
    cursor: u64,
    iter: u64,
    rng: SplitMix64,
}

impl Branchy {
    fn new(cfg: BranchyCfg, idx: usize, seed: u64) -> Self {
        assert!(cfg.ops_per_branch >= 1);
        assert!(cfg.code_blocks >= 1);
        Branchy {
            code: layout::code_base(idx),
            r: layout::reg_base(idx),
            resident_base: layout::data_base(idx),
            cursor: 0,
            iter: 0,
            rng: SplitMix64::new(seed ^ 0xB9A2C4),
            cfg,
        }
    }

    fn emit(&mut self, out: &mut Vec<MicroOp>) {
        let block = (self.iter % self.cfg.code_blocks as u64) * 4096;
        let next_block = ((self.iter + 1) % self.cfg.code_blocks as u64) * 4096;
        self.iter += 1;
        let mut e = Emitter::new(out, self.code + block);
        for j in 0..self.cfg.ops_per_branch {
            if self.cfg.load_every > 0 && j % self.cfg.load_every == 0 {
                let addr_reg = Reg(self.r);
                e.op(UopKind::Int, Some(addr_reg), [Some(addr_reg), None]);
                e.load(
                    self.resident_base + self.cursor,
                    Reg(self.r + 2),
                    Some(addr_reg),
                );
                self.cursor = (self.cursor + 8 * 64 + 8) % self.cfg.resident_bytes.max(64);
                continue;
            }
            let c = Reg(self.r + 3 + (j % 4) as u8);
            e.op(UopKind::Int, Some(c), [Some(c), None]);
        }
        // Mid-block conditional branch: either loop-like (always taken) or
        // data dependent (random direction).
        let predictable = self.rng.chance(self.cfg.predictable_permille as u64, 1000);
        let taken = if predictable {
            true
        } else {
            self.rng.chance(self.cfg.taken_permille as u64, 1000)
        };
        e.branch(taken, self.code + block + 2048);
        e.branch(true, self.code + next_block);
    }
}

/// Sequential write scan: the §5.1 cache-thrashing micro-benchmark.
#[derive(Debug)]
pub(crate) struct ScanWrite {
    cfg: ScanWriteCfg,
    code: u64,
    r: u8,
    base: u64,
    cursor: u64,
}

impl ScanWrite {
    fn new(cfg: ScanWriteCfg, idx: usize, _seed: u64) -> Self {
        assert!(cfg.stores_per_iter >= 1);
        assert!(cfg.region_bytes >= LINE_BYTES);
        ScanWrite {
            code: layout::code_base(idx),
            r: layout::reg_base(idx),
            base: layout::data_base(idx),
            cursor: 0,
            cfg,
        }
    }

    fn emit(&mut self, out: &mut Vec<MicroOp>) {
        let addr_reg = Reg(self.r);
        let mut e = Emitter::new(out, self.code);
        for _ in 0..self.cfg.stores_per_iter {
            e.op(UopKind::Int, Some(addr_reg), [Some(addr_reg), None]);
            e.store(self.base + self.cursor, Some(Reg(self.r + 2)));
            for _ in 0..self.cfg.compute_per_store {
                e.op(
                    UopKind::Int,
                    Some(Reg(self.r + 3)),
                    [Some(Reg(self.r + 3)), None],
                );
            }
            self.cursor = (self.cursor + LINE_BYTES) % self.cfg.region_bytes;
        }
        e.branch(true, self.code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(k: &mut KernelState, iters: usize) -> Vec<MicroOp> {
        let mut out = Vec::new();
        for _ in 0..iters {
            k.emit(&mut out);
        }
        out
    }

    #[test]
    fn stream_pattern_5_lines_per_2_accesses() {
        // The lbm-like [3, 2] pattern: line deltas must cycle 3,2,3,2...
        let cfg = KernelCfg::Stream(StreamCfg {
            streams: 1,
            region_bytes: 1 << 24,
            pattern: vec![3, 2],
            loads_per_line: 1,
            compute_per_load: 0,
            fp: false,
            store_every: 0,
        });
        let mut k = KernelState::new(&cfg, 0, 7);
        let uops = collect(&mut k, 100);
        let lines: Vec<u64> = uops
            .iter()
            .filter(|u| u.is_load())
            .map(|u| u.addr / 64)
            .collect();
        for (i, w) in lines.windows(2).enumerate() {
            let expect = if i % 2 == 0 { 3 } else { 2 };
            assert_eq!(w[1] - w[0], expect, "at access {i}");
        }
    }

    #[test]
    fn chase_loads_depend_on_own_previous_value() {
        let cfg = KernelCfg::Chase(ChaseCfg {
            region_bytes: 1 << 20,
            chains: 2,
            compute_per_load: 1,
            branch_every: 0,
        });
        let mut k = KernelState::new(&cfg, 0, 9);
        let uops = collect(&mut k, 10);
        let loads: Vec<&MicroOp> = uops.iter().filter(|u| u.is_load()).collect();
        assert_eq!(loads.len(), 10);
        for l in &loads {
            // Address source register equals destination: serialised chain.
            assert_eq!(l.srcs[0], l.dst);
        }
        // Two chains use two distinct registers.
        let regs: std::collections::HashSet<_> = loads.iter().map(|l| l.dst).collect();
        assert_eq!(regs.len(), 2);
    }

    #[test]
    fn chase_addresses_cover_region_irregularly() {
        let cfg = KernelCfg::Chase(ChaseCfg {
            region_bytes: 1 << 16, // 1024 lines
            chains: 1,
            compute_per_load: 0,
            branch_every: 0,
        });
        let mut k = KernelState::new(&cfg, 0, 11);
        let uops = collect(&mut k, 512);
        let lines: Vec<u64> = uops
            .iter()
            .filter(|u| u.is_load())
            .map(|u| u.addr / 64)
            .collect();
        // Full-period LCG: no repeats within the period.
        let set: std::collections::HashSet<_> = lines.iter().collect();
        assert_eq!(set.len(), lines.len());
        // Not sequential: consecutive deltas vary.
        let deltas: std::collections::HashSet<i64> = lines
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        assert!(deltas.len() > 10, "chase looks too regular");
    }

    #[test]
    fn gather_data_load_depends_on_index_load() {
        let cfg = KernelCfg::Gather(GatherCfg {
            index_region_bytes: 1 << 20,
            data_region_bytes: 1 << 24,
            compute_per_pair: 2,
        });
        let mut k = KernelState::new(&cfg, 0, 13);
        let uops = collect(&mut k, 5);
        let loads: Vec<&MicroOp> = uops.iter().filter(|u| u.is_load()).collect();
        assert_eq!(loads.len(), 10);
        // Every second load (the gather) must consume the index register
        // written by the preceding load.
        for pair in loads.chunks(2) {
            assert_eq!(pair[1].srcs[0], pair[0].dst);
        }
    }

    #[test]
    fn scan_write_is_sequential_stores() {
        let cfg = KernelCfg::ScanWrite(ScanWriteCfg {
            region_bytes: 1 << 20,
            stores_per_iter: 4,
            compute_per_store: 1,
        });
        let mut k = KernelState::new(&cfg, 0, 17);
        let uops = collect(&mut k, 8);
        let lines: Vec<u64> = uops
            .iter()
            .filter(|u| u.is_store())
            .map(|u| u.addr / 64)
            .collect();
        assert_eq!(lines.len(), 32);
        for w in lines.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn compute_kernel_cycles_code_blocks() {
        let cfg = KernelCfg::Compute(ComputeCfg {
            ops_per_iter: 4,
            fp_permille: 500,
            div_permille: 10,
            chain_len: 2,
            resident_bytes: 4096,
            load_every: 0,
            code_blocks: 16,
        });
        let mut k = KernelState::new(&cfg, 0, 19);
        let uops = collect(&mut k, 64);
        let blocks: std::collections::HashSet<u64> = uops
            .iter()
            .map(|u| (u.pc - layout::code_base(0)) / 4096)
            .collect();
        assert_eq!(blocks.len(), 16, "should touch all 16 code blocks");
    }

    #[test]
    fn branchy_kernel_has_not_taken_branches() {
        let cfg = KernelCfg::Branchy(BranchyCfg {
            ops_per_branch: 2,
            taken_permille: 500,
            predictable_permille: 0,
            resident_bytes: 4096,
            load_every: 0,
            code_blocks: 1,
        });
        let mut k = KernelState::new(&cfg, 0, 23);
        let uops = collect(&mut k, 200);
        let branches: Vec<bool> = uops
            .iter()
            .filter(|u| u.kind.is_branch())
            .map(|u| u.taken)
            .collect();
        assert!(branches.iter().any(|&t| t));
        assert!(branches.iter().any(|&t| !t));
    }
}
