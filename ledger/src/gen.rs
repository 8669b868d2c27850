//! The seeded input generator. Every workload input (load levels, DLR
//! perturbations, arrival times, request bodies) is drawn from a stream
//! derived from the `--seed` argument and a fixed stream name, so the same
//! seed gives the same inputs and two streams never share draws.

use ed_rng::SeedableRng;
pub use ed_rng::{Rng, StdRng};

/// FNV-1a over the stream name, so streams are keyed by stable strings.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stream `name` of the workload seed `seed`.
pub fn stream(seed: u64, name: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ fnv1a(name.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed, name| {
            let mut r = stream(seed, name);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "levels"), draw(7, "levels"));
        assert_ne!(draw(7, "levels"), draw(8, "levels"));
        assert_ne!(draw(7, "levels"), draw(7, "arrivals"));
    }
}
