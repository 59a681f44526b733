//! The host-speed probe.
//!
//! On a shared host, other tenants slow the simulator down by up to a
//! factor of two, in bursts lasting from a fraction of a second to
//! minutes. A fixed loop of harness code, timed next to each job, slows
//! down with them; dividing a repetition's host times by the probe's
//! slowness cancels most of that drift, while a change to the simulator
//! moves the simulator's times and leaves the probe alone.

use std::hint::black_box;
use std::time::Instant;

/// The probe's duration on an unloaded 2-vCPU cloud VM; it only sets the
/// scale of normalized seconds.
pub const NOMINAL_S: f64 = 0.010;

/// Times one pass of the probe: a register-only integer loop with
/// data-dependent branches, about 10 ms.
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..black_box(2_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else {
            acc ^= x.rotate_left((i & 31) as u32);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}
