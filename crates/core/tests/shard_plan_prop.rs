//! Property tests for `shard::plan_units`: for arbitrary `(n, unit)` the
//! planned units are contiguous, ascending, non-empty, balanced (every
//! unit but the last holds exactly `unit` indices, the last at most
//! that), and cover exactly `0..n` — the partition invariants every
//! executor transport's byte-identity rests on (the subprocess
//! transport's `K` shards are `plan_units(n, ⌈n/K⌉)`).
//!
//! Case counts are capped for CI-friendly wall time; override with
//! `PROPTEST_CASES` for a deep run.

use proptest::prelude::*;
use rv_core::shard::plan_units;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_partitions_0_to_n_into_balanced_contiguous_ranges(
        n in 0usize..3_000,
        unit in 0usize..4_000,
        shards in 1usize..4_000,
    ) {
        for unit in [unit, n.div_ceil(shards)] {
            let units = plan_units(n, unit);
            // The unit size clamps to at least 1: n == 0 plans nothing,
            // and no unit is ever empty.
            prop_assert_eq!(units.is_empty(), n == 0);
            prop_assert_eq!(units.len(), n.div_ceil(unit.max(1)));

            // Contiguous, disjoint, covering exactly 0..n in ascending
            // order: each range starts where the previous one ended.
            let mut next = 0;
            for r in &units {
                prop_assert_eq!(r.start, next);
                prop_assert!(!r.is_empty());
                prop_assert!(r.len() <= unit.max(1));
                next = r.end;
            }
            prop_assert_eq!(next, n);
            // Balanced: only the last unit may be short.
            for r in units.iter().rev().skip(1) {
                prop_assert_eq!(r.len(), unit.max(1));
            }
        }
        // The subprocess mapping never plans more units than shards.
        prop_assert!(plan_units(n, n.div_ceil(shards)).len() <= shards);
    }
}
