//! The one estimator every host-time metric goes through.
//!
//! A measured phase is one unmeasured warm-up window followed by many
//! short, equal windows; the metric is computed per window and folded over
//! the windows. The reference host is a small shared VM whose neighbours
//! slow it by a third for seconds at a time, and only ever slow it: the
//! windows nearest the better end are the ones that measured the program
//! rather than the host. [`Fold::Undisturbed`] therefore reports the value
//! one window in [`ONE_IN`] beats — not the very best, so that no single
//! freak window sets the result. Where disturbance cuts both ways (two
//! threads contending for one lock run *faster* while the host holds one
//! of them back), [`Fold::Median`] is the honest fold. Either way one host
//! stall ruins one window, not the run. A percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it in every window.

use std::time::Instant;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no windows");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric is NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Whether a sample of `n` supports quantile `q`.
pub fn eligible(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND
}

/// One window of latency samples, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ns: Vec<u32>,
    sorted: bool,
}

impl Latencies {
    pub fn with_capacity(n: usize) -> Latencies {
        Latencies {
            ns: Vec::with_capacity(n),
            sorted: false,
        }
    }

    /// Records one sample, saturating at ~4.29 s.
    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn clear(&mut self) {
        self.ns.clear();
    }

    pub fn append(&mut self, other: &mut Latencies) {
        self.ns.append(&mut other.ns);
        self.sorted = false;
    }

    /// Nearest-rank quantile in microseconds, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        if !eligible(self.ns.len(), q) {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        Some(f64::from(self.ns[rank(self.ns.len(), q)]) / 1e3)
    }
}

/// What one window measured, folded as soon as the window ends so its
/// samples need not outlive it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    pub ops: u64,
    pub secs: f64,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    /// Latency samples the percentiles rest on.
    pub samples: usize,
}

impl Window {
    pub fn fold(ops: u64, secs: f64, lat: &mut Latencies) -> Window {
        Window {
            ops,
            secs,
            p50_us: lat.quantile_us(0.50),
            p99_us: lat.quantile_us(0.99),
            samples: lat.len(),
        }
    }
}

/// How a phase's windows fold into the value reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// The value one window in [`ONE_IN`] beats.
    Undisturbed,
    Median,
}

/// [`Fold::Undisturbed`] reports the window at rank `(n - 1) / ONE_IN`
/// from the better end of `n` windows.
pub const ONE_IN: usize = 50;

/// The value one window in [`ONE_IN`] beats: ranked from the low end when
/// lower is better, from the high end otherwise.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn undisturbed(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "no windows to fold");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric is NaN"));
    let rank = (v.len() - 1) / ONE_IN;
    if lower_is_better {
        v[rank]
    } else {
        v[v.len() - 1 - rank]
    }
}

/// What one call of `f` costs, for the probes that time a layer's function
/// from outside: `calls` calls in each of `chunks` chunks, nanoseconds per
/// call of each chunk, folded like any other host time. `f` gets the
/// running call index.
pub fn probe_ns(chunks: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per: Vec<f64> = (0..chunks)
        .map(|c| {
            let t0 = Instant::now();
            (c * calls..(c + 1) * calls).for_each(&mut f);
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    undisturbed(&per, true)
}

/// Summary of a phase's windows under one [`Fold`].
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub windows: usize,
    pub ops_per_s: f64,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    /// Smallest per-window sample count (what the percentiles rest on).
    pub samples_per_window: usize,
}

/// `f(window)` folded over `windows`, or `None` if any window has none.
pub fn fold_windows(
    windows: &[Window],
    fold: Fold,
    lower_is_better: bool,
    f: impl Fn(&Window) -> Option<f64>,
) -> Option<f64> {
    let per: Vec<f64> = windows.iter().map(f).collect::<Option<_>>()?;
    Some(match fold {
        Fold::Undisturbed => undisturbed(&per, lower_is_better),
        Fold::Median => median(&per),
    })
}

/// Folds a phase's windows into its summary.
///
/// # Panics
///
/// Panics when there are no windows.
pub fn summarize(windows: &[Window], fold: Fold) -> Summary {
    Summary {
        windows: windows.len(),
        ops_per_s: fold_windows(windows, fold, false, |w| Some(w.ops as f64 / w.secs))
            .expect("no windows"),
        p50_us: fold_windows(windows, fold, true, |w| w.p50_us),
        p99_us: fold_windows(windows, fold, true, |w| w.p99_us),
        samples_per_window: windows.iter().map(|w| w.samples).min().unwrap_or(0),
    }
}
