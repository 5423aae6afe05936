//! Helpers shared by the differential suites.

use std::collections::BTreeMap;

/// Asserts that two record streams carry the same records: each index
/// exactly once on either side, the same set of indices, and
/// byte-identical lines per index.
///
/// Arrival order is deliberately free. WIRE.md makes the `index` field
/// the reordering key: a worker streams records in completion order
/// (which varies with its thread count), while a cache replay streams
/// them in ascending order. Every byte of every record is still compared.
pub fn assert_same_records_by_index(got: &[(usize, String)], want: &[(usize, String)], ctx: &str) {
    let got = by_index(got, ctx, "received");
    let want = by_index(want, ctx, "expected");
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{ctx}: record index sets differ"
    );
    for (index, line) in &want {
        assert_eq!(
            got[index], *line,
            "{ctx}: record line {index} must be byte-identical"
        );
    }
}

fn by_index<'a>(lines: &'a [(usize, String)], ctx: &str, side: &str) -> BTreeMap<usize, &'a str> {
    let mut map = BTreeMap::new();
    for (index, line) in lines {
        assert!(
            map.insert(*index, line.as_str()).is_none(),
            "{ctx}: {side} record index {index} appears twice"
        );
    }
    map
}
