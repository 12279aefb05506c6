//! The repo benchmark (`utpr-benchmark`): six KV workloads from
//! `PageStore` to socket, one windowed estimator for every host-time
//! number, and an outside-in ladder that prices each layer by timing calls
//! into its public functions. See `README.md` beside this crate.

pub mod estimator;
pub mod host;
pub mod json;
pub mod report;
pub mod spec;
pub mod stream;
pub mod trace;
pub mod workloads;

/// What one workload run is asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Seconds of measured windows (the warm-up window, set-up and the
    /// correctness gates come on top).
    pub seconds: f64,
    pub trace: bool,
}
