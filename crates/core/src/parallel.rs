//! Chunked parallel map over an index range, in safe code.
//!
//! The output is one buffer of `Option<R>` slots split into disjoint
//! `&mut` chunks. Workers claim the next chunk from a single
//! mutex-guarded chunk iterator (dynamic load balancing: fast workers
//! take the chunks slow workers never reach) and fill it in place, so
//! the only shared mutable state is one lock taken per claimed chunk and
//! a panic slot touched only when an item panics. The borrow checker
//! proves the chunks disjoint.
//!
//! Output order equals input order, so anything derived from the result
//! vector is independent of thread scheduling — the property
//! [`crate::batch`] builds its determinism guarantee on.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Upper bound on items per claimed chunk. Small enough for good load
/// balance on skewed workloads (one simulation can cost 10^6× another),
/// large enough that lock traffic is negligible for cheap closures.
const MAX_CHUNK: usize = 64;

/// Applies `f` to every index in `0..n` on `threads` workers (`0` = all
/// available cores) and returns the results in index order.
///
/// The calling thread is one of the workers: it spawns `threads - 1`
/// scoped threads and then drains the same chunk queue itself, so
/// `threads = 1` runs every item on the caller.
///
/// # Panics
///
/// If `f` panics for some item, no further chunks are claimed, every
/// finished result is dropped, and the panic is re-raised on the caller
/// as `par_map: worker panicked at item {i}: {msg}`.
pub fn par_map_indexed_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(4, |p| p.get()),
        t => t,
    }
    .min(n)
    .max(1);
    // ~8 chunks per worker keeps the tail balanced without hammering the
    // lock; cap so skewed items cannot hide inside huge chunks.
    let chunk = (n / (workers * 8)).clamp(1, MAX_CHUNK);

    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let chunks = Mutex::new(out.chunks_mut(chunk).enumerate());
    let stop = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    // `f` runs outside both locks and under `catch_unwind`, so nothing
    // panics while a lock is held and riding through poison is sound.
    let drain = || {
        while !stop.load(Ordering::Relaxed) {
            let claimed = chunks.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((c, slots)) = claimed else { break };
            for (i, slot) in (c * chunk..).zip(slots) {
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(value) => *slot = Some(value),
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        let mut first = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                        first.get_or_insert((i, payload));
                        return;
                    }
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(drain);
        }
        drain();
    });

    if let Some((i, payload)) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        let msg = payload_message(payload.as_ref());
        panic!("par_map: worker panicked at item {i}: {msg}");
    }
    // No panic means every chunk was claimed and filled. `map` (unlike
    // `flatten`) keeps the exact size, so the result is collected in place.
    out.into_iter()
        .map(|slot| slot.expect("no item panicked, so every slot is filled"))
        .collect()
}

/// Best-effort extraction of a human-readable panic message.
fn payload_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_indexed_with(0, items.len(), |i| items[i] * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let items: &[u64] = &[];
        let out: Vec<u64> = par_map_indexed_with(0, items.len(), |i| items[i]);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let items = [7u64];
        assert_eq!(par_map_indexed_with(0, 1, |i| items[i] + 1), vec![8]);
    }

    #[test]
    fn indexed_matches_slice_map() {
        let items: Vec<u64> = (0..257).map(|i| i * 3 + 1).collect();
        let a: Vec<u64> = items.iter().map(|x| x + 1).collect();
        let b = par_map_indexed_with(0, items.len(), |i| items[i] + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<u64> = (0..500).collect();
        let seq = par_map_indexed_with(1, items.len(), |i| items[i] ^ 0xABCD);
        for threads in [2, 3, 8] {
            assert_eq!(
                par_map_indexed_with(threads, items.len(), |i| items[i] ^ 0xABCD),
                seq
            );
        }
    }

    #[test]
    fn one_worker_runs_every_item_on_the_calling_thread() {
        // One-thread pool workers rely on this: `threads = 1` spawns no
        // thread at all.
        let caller = std::thread::current().id();
        let ids = par_map_indexed_with(1, 300, |_| std::thread::current().id());
        assert_eq!(ids.len(), 300);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn heavy_skewed_closure_is_correct() {
        // Item 0 is ~1000× the others: chunk stealing must still cover
        // everything exactly once.
        let items: Vec<u64> = (0..300).collect();
        let out = par_map_indexed_with(0, items.len(), |i| {
            let x = items[i];
            let spin = if x == 0 { 1_000_000 } else { 1_000 };
            let mut acc = x;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn non_copy_results_survive() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_indexed_with(0, items.len(), |i| vec![items[i]; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i as u64; 3]);
        }
    }

    #[test]
    fn panic_names_failing_index() {
        // `0` (auto, may be one worker on a 1-core box), `1` (the caller
        // alone) and `4` (parallel) must all surface the same shape.
        for threads in [0, 1, 4] {
            let items: Vec<u64> = (0..64).collect();
            let err = std::panic::catch_unwind(|| {
                par_map_indexed_with(threads, items.len(), |i| {
                    let x = items[i];
                    if x == 37 {
                        panic!("boom on {x}");
                    }
                    x
                })
            })
            .expect_err("must propagate the panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("item 37"), "threads={threads}: {msg}");
            assert!(msg.contains("boom on 37"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn panic_drops_completed_results() {
        // Exact accounting on the unwind path: every value constructed is
        // dropped exactly once (no leak, no double drop), and the failing
        // item never constructs one.
        static CONSTRUCTED: AtomicUsize = AtomicUsize::new(0);
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        static BUILT_100: AtomicBool = AtomicBool::new(false);
        struct Counted;
        impl Counted {
            fn new(x: u64) -> Self {
                CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
                if x == 100 {
                    BUILT_100.store(true, Ordering::Relaxed);
                }
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let items: Vec<u64> = (0..128).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_indexed_with(2, items.len(), |i| {
                let x = items[i];
                if x == 100 {
                    panic!("dropped");
                }
                Counted::new(x)
            })
        });
        assert!(result.is_err());
        let constructed = CONSTRUCTED.load(Ordering::Relaxed);
        let drops = DROPS.load(Ordering::Relaxed);
        assert_eq!(drops, constructed, "every constructed value drops once");
        assert!(!BUILT_100.load(Ordering::Relaxed), "item 100 never built");
    }
}
