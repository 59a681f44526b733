//! The micro-op trace record.
//!
//! The paper's simulator is trace driven (§5): each trace records the
//! committed (correct-path) instruction stream. A [`MicroOp`] carries
//! everything the timing model needs: PC, operation class, register
//! dependences, memory address, and branch outcome.

/// An architectural register name in the trace's virtual register file.
///
/// The synthetic generators use a 64-register namespace; dependences are
/// expressed through these names and resolved by the core model's
/// scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// Number of architectural registers in the trace namespace.
pub const NUM_REGS: usize = 64;

impl Reg {
    /// The register index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Operation class of a micro-op, determining its execution latency and
/// which pipeline resources it uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// Simple integer ALU operation (1 cycle).
    Int,
    /// Integer multiply (3 cycles).
    IntMul,
    /// Integer divide (20 cycles, unpipelined in spirit).
    IntDiv,
    /// Floating-point add/mul (3 cycles).
    Fp,
    /// Floating-point divide / sqrt (18 cycles).
    FpDiv,
    /// Data load (latency from the memory hierarchy).
    Load,
    /// Data store (address generation; data leaves via the store buffer).
    Store,
    /// Conditional branch (direction predicted by TAGE).
    CondBranch,
    /// Unconditional direct jump (always taken).
    Jump,
    /// Indirect branch (target predicted by ITTAGE).
    IndirectBranch,
    /// No-op / fence placeholder.
    Nop,
}

impl UopKind {
    /// Fixed execution latency in cycles (loads/stores excluded: their
    /// latency comes from the memory hierarchy).
    #[inline]
    pub fn exec_latency(self) -> u64 {
        match self {
            UopKind::Int | UopKind::Nop | UopKind::Store => 1,
            UopKind::CondBranch | UopKind::Jump | UopKind::IndirectBranch => 1,
            UopKind::IntMul | UopKind::Fp => 3,
            UopKind::FpDiv => 18,
            UopKind::IntDiv => 20,
            UopKind::Load => 1, // address generation only
        }
    }

    /// True for any branch kind.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            UopKind::CondBranch | UopKind::Jump | UopKind::IndirectBranch
        )
    }

    /// True for loads and stores.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, UopKind::Load | UopKind::Store)
    }
}

/// One traced micro-op.
///
/// `Copy` and 24 bytes by design: the synthetic generators produce tens
/// of millions of these per second, and a decoded trace holds one per
/// µop. One address field serves both memory µops and branches, since a
/// µop is never both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// Virtual address of the instruction.
    pub pc: u64,
    /// A load's or store's data virtual address, a branch's target, and
    /// 0 for every other kind.
    pub addr: u64,
    /// Operation class.
    pub kind: UopKind,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// Whether a branch was taken on the traced (correct) path; false
    /// for every other kind.
    pub taken: bool,
}

impl MicroOp {
    /// A no-op with no dependences, useful as filler.
    pub fn nop(pc: u64) -> Self {
        MicroOp {
            pc,
            addr: 0,
            kind: UopKind::Nop,
            dst: None,
            srcs: [None, None],
            taken: false,
        }
    }

    /// True if this µop is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.kind == UopKind::Load
    }

    /// True if this µop is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.kind == UopKind::Store
    }

    /// The data virtual address of a load or store, `None` for every
    /// other kind.
    #[inline]
    pub fn data_addr(&self) -> Option<u64> {
        self.kind.is_mem().then_some(self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_ordered_sensibly() {
        assert!(UopKind::Int.exec_latency() < UopKind::IntMul.exec_latency());
        assert!(UopKind::IntMul.exec_latency() < UopKind::IntDiv.exec_latency());
        assert!(UopKind::Fp.exec_latency() < UopKind::FpDiv.exec_latency());
    }

    #[test]
    fn branch_predicate() {
        assert!(UopKind::CondBranch.is_branch());
        assert!(UopKind::Jump.is_branch());
        assert!(UopKind::IndirectBranch.is_branch());
        assert!(!UopKind::Load.is_branch());
    }

    #[test]
    fn mem_predicate() {
        assert!(UopKind::Load.is_mem());
        assert!(UopKind::Store.is_mem());
        assert!(!UopKind::Int.is_mem());
    }

    #[test]
    fn microop_is_small() {
        // Keep the record compact: generators stream millions of these,
        // and a decoded trace holds one per µop.
        assert_eq!(std::mem::size_of::<MicroOp>(), 24);
    }

    #[test]
    fn nop_has_no_side_effects() {
        let n = MicroOp::nop(0x400000);
        assert_eq!(n.pc, 0x400000);
        assert!(n.dst.is_none() && n.data_addr().is_none() && !n.taken);
    }
}
