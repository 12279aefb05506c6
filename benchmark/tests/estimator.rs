//! The window folds and the percentile-eligibility rule on synthetic samples.

use utpr_benchmark::estimator::{
    eligible, median, summarize, undisturbed, Fold, Latencies, Window, MIN_BEYOND, ONE_IN,
};

fn window(ops: u64, secs: f64, lat_ns: impl Iterator<Item = u64>) -> Window {
    let mut lat = Latencies::default();
    lat_ns.for_each(|ns| lat.push(ns));
    Window::fold(ops, secs, &mut lat)
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn one_stalled_window_moves_neither_fold() {
    // Twelve windows of 1 000 ops at 1 µs each; window 5 also holds one
    // 200 ms host stall.
    let windows: Vec<Window> = (0..12)
        .map(|i| {
            let stall = if i == 5 { 200_000_000 } else { 0 };
            let lat = (0..1_000u64).map(move |n| if n == 500 { 1_000 + stall } else { 1_000 });
            window(1_000, (1_000_000 + stall) as f64 / 1e9, lat)
        })
        .collect();
    for fold in [Fold::Undisturbed, Fold::Median] {
        let s = summarize(&windows, fold);
        assert_eq!(s.windows, 12);
        assert_eq!(s.ops_per_s, 1e6, "{fold:?} reports a clean window");
        assert_eq!(s.p50_us, Some(1.0));
        assert_eq!(
            s.p99_us,
            Some(1.0),
            "one stalled sample sits beyond p99 of its window only"
        );
    }
    // The mean over all windows would have been off by more than 10x.
    let total_ops: u64 = windows.iter().map(|w| w.ops).sum();
    let total_secs: f64 = windows.iter().map(|w| w.secs).sum();
    assert!(total_ops as f64 / total_secs < 1e5);
}

#[test]
fn the_undisturbed_fold_reports_what_one_window_in_fifty_beats() {
    assert_eq!(ONE_IN, 50);
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(
        undisturbed(&hundred, true),
        2.0,
        "rank 99 / 50 = 1 from the low end"
    );
    assert_eq!(undisturbed(&hundred, false), 99.0, "and from the high end");
    // Up to fifty windows it is the best one; the fifty-first moves it inward.
    assert_eq!(undisturbed(&hundred[..50], true), 1.0);
    assert_eq!(undisturbed(&hundred[..51], true), 2.0);
    assert_eq!(undisturbed(&[7.0], false), 7.0);
}

#[test]
fn a_slow_host_for_most_of_the_run_moves_the_median_not_the_undisturbed_fold() {
    // 200 windows of 1 000 ops: the host is a third slower in 150 of them.
    let windows: Vec<Window> = (0..200)
        .map(|i| {
            let ns = if i % 4 == 0 { 1_000 } else { 1_500 };
            window(
                1_000,
                1_000.0 * ns as f64 / 1e9,
                (0..1_000).map(move |_| ns),
            )
        })
        .collect();
    let calm = summarize(&windows, Fold::Undisturbed);
    assert_eq!(
        (calm.ops_per_s, calm.p50_us, calm.p99_us),
        (1e6, Some(1.0), Some(1.0))
    );
    let mid = summarize(&windows, Fold::Median);
    assert_eq!(mid.p50_us, Some(1.5));
    assert!((mid.ops_per_s - 1e6 / 1.5).abs() < 1.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    // p99: 1 000 samples leave exactly ten beyond the nearest rank.
    assert!(eligible(1_000, 0.99));
    assert!(!eligible(999, 0.99));
    // p50: twenty samples leave ten beyond.
    assert!(eligible(20, 0.50));
    assert!(!eligible(19, 0.50));
    assert!(!eligible(0, 0.50));

    let mut lat = Latencies::default();
    (1..=999u64).for_each(|n| lat.push(n * 1_000));
    assert_eq!(lat.quantile_us(0.99), None);
    lat.push(1_000_000);
    assert_eq!(
        lat.quantile_us(0.99),
        Some(990.0),
        "nearest rank: the 990th of 1 000"
    );
    assert_eq!(lat.quantile_us(0.50), Some(500.0));
}

#[test]
fn a_percentile_is_reported_only_if_every_window_supports_it() {
    let full = || window(2_000, 1.0, (0..2_000u64).map(|n| n * 100));
    let windows = vec![
        full(),
        full(),
        window(500, 1.0, (0..500u64).map(|n| n * 100)),
    ];
    let s = summarize(&windows, Fold::Undisturbed);
    assert!(s.p50_us.is_some(), "every window holds enough for p50");
    assert_eq!(s.p99_us, None, "the 500-sample window cannot support p99");
    assert_eq!(s.samples_per_window, 500);
}

#[test]
fn latencies_saturate_instead_of_wrapping() {
    let mut lat = Latencies::default();
    (0..30).for_each(|_| lat.push(u64::MAX));
    assert_eq!(lat.quantile_us(0.5), Some(f64::from(u32::MAX) / 1e3));
}
