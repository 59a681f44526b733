//! Each line marked `//~ LINT` must draw exactly that finding from CI's
//! library lint step, and no other line may draw one.

use rand::SeedableRng;
use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types clippy::disallowed_types
use std::hash::RandomState; //~ clippy::disallowed_types

struct Seeded;

impl SeedableRng for Seeded {
    fn from_entropy() -> Self {
        Seeded
    }
}

pub fn determinism() {
    let _ = std::time::Instant::now(); //~ clippy::disallowed_methods
    let _ = std::time::SystemTime::now(); //~ clippy::disallowed_methods
    rand::thread_rng(); //~ clippy::disallowed_methods
    let _ = Seeded::from_entropy(); //~ clippy::disallowed_methods
    getrandom::getrandom(); //~ clippy::disallowed_methods
    let _ = std::thread::spawn(|| ()); //~ clippy::disallowed_methods
    std::thread::scope(|_| ()); //~ clippy::disallowed_methods
    let _ = std::thread::Builder::new().spawn(|| ()); //~ clippy::disallowed_methods
}

pub fn scoped<'s>(s: &'s std::thread::Scope<'s, '_>) {
    let _ = std::thread::Builder::new().spawn_scoped(s, || ()); //~ clippy::disallowed_methods
}

pub fn panics(x: Option<u8>) -> u8 {
    let _ = x.unwrap(); //~ clippy::unwrap_used
    let _ = x.expect("some"); //~ clippy::expect_used
    if x.is_none() {
        panic!("none"); //~ clippy::panic
    }
    if x == Some(1) {
        todo!(); //~ clippy::todo
    }
    unimplemented!() //~ clippy::unimplemented
}

#[allow(dead_code, reason = "allow instead of expect")] //~ clippy::allow_attributes
fn unused() {}

#[expect(clippy::panic)] //~ clippy::allow_attributes_without_reason
pub fn no_reason() {
    panic!("no reason");
}

#[expect(clippy::unwrap_used, reason = "nothing here unwraps")] //~ unfulfilled_lint_expectations
pub fn stale() {}

pub type Map = HashMap<u8, u8>; //~ clippy::disallowed_types
pub type Set = HashSet<u8>; //~ clippy::disallowed_types
pub type State = RandomState; //~ clippy::disallowed_types
