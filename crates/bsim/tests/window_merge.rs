//! Property tests for [`bsim::Histogram::merge`]: partitioning a sample
//! stream into histograms (cycle windows, fleet shards) and merging them
//! back together must reproduce the whole-run histogram exactly — counts,
//! sums, extremes, and every percentile. Per-window percentiles and the
//! fleet's cross-shard latency roll-up are trustworthy *because* they are
//! a lossless partition of the aggregate histogram, not a second
//! estimator that can drift.

use std::collections::BTreeMap;

use bsim::Histogram;
use proptest::prelude::*;

/// Deals `(key, value)` samples into one histogram per `part(key)`, then
/// asserts the merged parts equal recording every value into one.
fn merge_matches_whole(
    samples: &[(u64, u64)],
    part: impl Fn(u64) -> u64,
) -> Result<(), TestCaseError> {
    let mut parts: BTreeMap<u64, Histogram> = BTreeMap::new();
    let mut whole = Histogram::new();
    for &(key, value) in samples {
        parts.entry(part(key)).or_default().record(value);
        whole.record(value);
    }
    let mut merged = Histogram::new();
    for h in parts.values() {
        merged.merge(h);
    }
    prop_assert_eq!(merged.count(), whole.count());
    prop_assert_eq!(merged.sum(), whole.sum());
    prop_assert_eq!(merged.min(), whole.min());
    prop_assert_eq!(merged.max(), whole.max());
    for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
        prop_assert_eq!(merged.percentile(p), whole.percentile(p), "p{}", p);
    }
    Ok(())
}

proptest! {
    /// Tumbling windows of any width: the per-window histograms merge to
    /// the whole-run histogram at every percentile.
    #[test]
    fn windowed_histograms_merge_to_whole_run_totals(
        samples in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000_000), 0..200),
        width in 1u64..100_000,
    ) {
        merge_matches_whole(&samples, |cycle| cycle / width)?;
    }

    /// Shard-local histograms merge like one histogram — the fleet's
    /// latency aggregation has no estimator of its own.
    #[test]
    fn sharded_series_merge_like_one_series(
        samples in proptest::collection::vec((0u64..8, 0u64..1_000_000), 0..120),
        shards in 1u64..6,
    ) {
        merge_matches_whole(&samples, |key| key % shards)?;
    }
}
