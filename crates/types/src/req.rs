//! Request metadata shared across the memory hierarchy.
//!
//! As a request travels through the hierarchy, "some metadata (a few bits)
//! is associated with each request ... indicating its type (prefetch or
//! demand miss, instruction or data) and in which cache levels the block
//! will have to be inserted" (§5.4). [`ReqClass`] carries the type part;
//! level bookkeeping lives with the requests themselves in `bosim`.

use core::fmt;

/// Identifies one of the simulated cores (a `u8`, so at most 256).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Convenience accessor as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// What kind of access the core performed at the L1 level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store.
    Store,
    /// Instruction fetch.
    IFetch,
}

/// Classification of a request in the uncore.
///
/// The memory controller "does not distinguish between demand and prefetch
/// read requests" (§5.3) but caches and statistics do: prefetch requests
/// have the lowest priority for L3 access and may be cancelled at any time
/// (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqClass {
    /// Demand miss (instruction or data).
    Demand,
    /// Prefetch issued by the L1D-site prefetcher.
    L1Prefetch,
    /// Prefetch issued by the L2-site prefetcher.
    L2Prefetch,
    /// Prefetch issued by the L3-site prefetcher (fills the shared L3
    /// only; it has no core to forward to).
    L3Prefetch,
}

/// The cache levels of the simulated hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// First-level instruction cache.
    Il1,
    /// First-level data cache.
    Dl1,
    /// Private second-level cache.
    L2,
    /// Shared third-level cache.
    L3,
    /// Main memory.
    Dram,
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemLevel::Il1 => "IL1",
            MemLevel::Dl1 => "DL1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Dram => "DRAM",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(CoreId(2).to_string(), "core2");
        assert_eq!(MemLevel::L2.to_string(), "L2");
    }
}
