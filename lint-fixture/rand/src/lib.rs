pub fn thread_rng() {}

pub trait SeedableRng {
    fn from_entropy() -> Self;
}
