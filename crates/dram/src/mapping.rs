//! Physical-address-to-DRAM mapping (§5.3).
//!
//! "Let a32···a6 be the line address bits. The mapping for a line is:
//! Channel (1 bit) a11⊕a10⊕a9⊕a8; Bank (3 bits) (a16⊕a13, a15⊕a12,
//! a14⊕a11); Row offset (7 bits) (a13,a12,a11,a10,a9,a7,a6);
//! Row (a32,···,a17)."
//!
//! Bits are *byte-address* bits; a line address shifted left by 6 restores
//! them.

use bosim_types::LineAddr;

/// Independent channels, one controller each (Table 1: 2; the mapping's
/// one channel bit).
pub const CHANNELS: usize = 2;
/// Banks per channel (Table 1: 8 banks per chip, one rank; the
/// mapping's three bank bits).
pub const BANKS: usize = 8;

/// Location of a line in the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLoc {
    /// Channel index, below [`CHANNELS`].
    pub channel: u8,
    /// Bank index within the rank, below [`BANKS`].
    pub bank: u8,
    /// Row identifier.
    pub row: u64,
    /// Offset within the 8KB row buffer, in lines (0..128).
    pub row_offset: u8,
}

#[inline]
fn bit(addr: u64, i: u32) -> u64 {
    (addr >> i) & 1
}

/// Maps a physical line address to its DRAM location per §5.3.
pub fn map_line(line: LineAddr) -> DramLoc {
    let a = line.0 << 6; // restore byte-address bit positions
    let channel = (bit(a, 11) ^ bit(a, 10) ^ bit(a, 9) ^ bit(a, 8)) as u8;
    let bank = (((bit(a, 16) ^ bit(a, 13)) << 2)
        | ((bit(a, 15) ^ bit(a, 12)) << 1)
        | (bit(a, 14) ^ bit(a, 11))) as u8;
    let row_offset = ((bit(a, 13) << 6)
        | (bit(a, 12) << 5)
        | (bit(a, 11) << 4)
        | (bit(a, 10) << 3)
        | (bit(a, 9) << 2)
        | (bit(a, 7) << 1)
        | bit(a, 6)) as u8;
    let row = (a >> 17) & ((1 << 16) - 1);
    DramLoc {
        channel,
        bank,
        row,
        row_offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bosim_types::SplitMix64;

    #[test]
    fn sequential_lines_share_rows_and_alternate_channels() {
        // 16 consecutive lines (1KB) stay in the same row and channel
        // until byte bit 8 flips (every 4 lines): channel alternates with
        // period 4 lines.
        let c0 = map_line(LineAddr(0)).channel;
        let c4 = map_line(LineAddr(4)).channel;
        assert_ne!(c0, c4, "channel bit flips every 256 bytes");
        assert_eq!(map_line(LineAddr(0)).row, map_line(LineAddr(15)).row);
    }

    #[test]
    fn row_changes_every_128k_bytes() {
        // Row = a32..a17: changes every 2^17 bytes = 2^11 lines.
        let r0 = map_line(LineAddr(0)).row;
        let r1 = map_line(LineAddr(1 << 11)).row;
        assert_ne!(r0, r1);
        assert_eq!(r0, map_line(LineAddr((1 << 11) - 1)).row);
    }

    #[test]
    fn known_vector() {
        // a = 0: everything zero.
        let l = map_line(LineAddr(0));
        assert_eq!(l.channel, 0);
        assert_eq!(l.bank, 0);
        assert_eq!(l.row, 0);
        assert_eq!(l.row_offset, 0);
        // Byte bit 6 (line bit 0) is row-offset bit 0.
        assert_eq!(map_line(LineAddr(1)).row_offset, 1);
        // Byte bit 8 (line bit 2) flips the channel.
        assert_eq!(map_line(LineAddr(4)).channel, 1);
        // Byte bit 14 (line bit 8) flips bank bit 0.
        assert_eq!(map_line(LineAddr(1 << 8)).bank, 1);
        // Byte bit 16 (line bit 10) flips bank bit 2.
        assert_eq!(map_line(LineAddr(1 << 10)).bank, 4);
    }

    /// Random lines stay inside the controller's geometry and reach
    /// every (channel, bank) pair, so the constants and the bit mapping
    /// cannot drift apart.
    #[test]
    fn prop_fields_in_range() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [[false; BANKS]; CHANNELS];
        for _ in 0..512 {
            let l = map_line(LineAddr(rng.next_u64() % (1 << 33)));
            assert!((l.channel as usize) < CHANNELS);
            assert!((l.bank as usize) < BANKS);
            assert!(l.row_offset < 128);
            seen[l.channel as usize][l.bank as usize] = true;
        }
        assert!(seen.iter().flatten().all(|&s| s), "{seen:?}");
    }

    /// The mapping is a pure function of the line address.
    #[test]
    fn prop_same_line_same_loc() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..256 {
            let line = rng.next_u64() % (1 << 33);
            assert_eq!(map_line(LineAddr(line)), map_line(LineAddr(line)));
        }
    }
}
