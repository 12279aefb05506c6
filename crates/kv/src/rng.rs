//! Deterministic randomness for the workload generators and sweeps: the
//! harness's xoshiro256** ([`Rng`], re-exported from `utpr-qc` so there is
//! one generator in the workspace) and a salted seed mixer.

pub use utpr_qc::rng::Rng;

/// Salted splitmix64-style finalizer: derives independent per-thread,
/// per-op and per-trial values from one seed. Shared by the sweeps, the
/// server's shard routing and the benches, so their seeds stay comparable.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
