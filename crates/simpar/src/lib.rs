//! # simpar — deterministic fork/join data parallelism
//!
//! The analytics kernels (Bonds, CSym, CNA) and the MD force loop all
//! parallelize the same way: split a contiguous index range `0..n` into
//! one chunk per worker, let each worker produce output it exclusively
//! owns, and combine the per-chunk partials **in chunk order**. Because
//! the chunk decomposition is a pure function of `(n, threads)` and no
//! worker ever observes another worker's output, the combined result is
//! bit-identical for any thread count — the repo's determinism contract
//! (DESIGN.md §7) extends to the parallel kernels for free.
//!
//! Three entry points cover the kernels' shapes:
//!
//! * [`map_chunks`] — each chunk maps to an owned partial; partials come
//!   back as a `Vec` in chunk order (concatenate or fold as needed).
//! * [`chunked_map_reduce`] — [`map_chunks`] plus an in-order fold, for
//!   kernels that reduce into one accumulator (e.g. a histogram).
//! * [`map_slices`] — the output buffer already exists; each worker gets
//!   the disjoint sub-slice it owns plus its global offset (the MD force
//!   loop writes `sys.force` in place this way).
//!
//! All three run the work inline on the caller's thread when
//! `threads <= 1` (or when there is only one chunk), so the serial path
//! spawns nothing. Workers are scoped (`std::thread::scope`; simpar's
//! `clippy.toml` omits the workspace's thread bans): no detached threads,
//! no 'static bounds, and a worker panic propagates to the caller.

#![warn(missing_docs)]

use std::ops::Range;

/// The canonical chunk decomposition of `0..n` over `threads` workers:
/// `min(threads, n)` contiguous ranges, each of size `ceil(n / workers)`
/// except possibly the last. A pure function of `(n, threads)` — every
/// simpar entry point and every test agrees on these boundaries.
pub fn chunks(n: usize, threads: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    let chunk = n.div_ceil(workers);
    let mut out = Vec::with_capacity(workers);
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Runs `map` over each chunk of `0..n` and returns the per-chunk results
/// **in chunk order**. With `threads <= 1` (or a single chunk) the maps
/// run inline on the caller's thread; otherwise each chunk runs on its own
/// scoped thread. Either way the returned `Vec` is identical.
pub fn map_chunks<R, F>(n: usize, threads: usize, map: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunks(n, threads);
    if ranges.len() <= 1 || threads <= 1 {
        return ranges.into_iter().map(map).collect();
    }
    let map = &map;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            ranges.into_iter().map(|r| scope.spawn(move || map(r))).collect();
        // Joining in spawn order IS chunk order: partials merge
        // deterministically no matter how the OS interleaved the workers.
        handles.into_iter().map(|h| h.join().expect("simpar worker panicked")).collect()
    })
}

/// [`map_chunks`] followed by an in-order fold of the partials into
/// `init`. The reduction runs on the caller's thread after every worker
/// has joined, so `reduce` needs no synchronization and observes partials
/// exactly in chunk order.
pub fn chunked_map_reduce<A, R, F, M>(n: usize, threads: usize, map: F, init: A, reduce: M) -> A
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
    M: FnMut(A, R) -> A,
{
    map_chunks(n, threads, map).into_iter().fold(init, reduce)
}

/// Splits `out` at the canonical chunk boundaries and runs
/// `map(chunk_range, sub_slice)` for each piece, returning the per-chunk
/// results in chunk order. Each worker exclusively owns its sub-slice, so
/// the writes are race-free by construction and the filled buffer is
/// bit-identical for any thread count.
pub fn map_slices<T, R, F>(out: &mut [T], threads: usize, map: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Range<usize>, &mut [T]) -> R + Sync,
{
    let n = out.len();
    let ranges = chunks(n, threads);
    if ranges.len() <= 1 || threads <= 1 {
        return ranges.into_iter().map(|r| map(r.clone(), &mut out[r])).collect();
    }
    let map = &map;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        let mut rest = out;
        for r in ranges {
            let (mine, tail) = rest.split_at_mut(r.len());
            rest = tail;
            handles.push(scope.spawn(move || map(r, mine)));
        }
        handles.into_iter().map(|h| h.join().expect("simpar worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_range_exactly_once() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 64, 2000] {
                let cs = chunks(n, threads);
                let mut expect = 0;
                for c in &cs {
                    assert_eq!(c.start, expect, "gap at n={n} threads={threads}");
                    assert!(c.end > c.start, "empty chunk at n={n} threads={threads}");
                    expect = c.end;
                }
                assert_eq!(expect, n, "coverage at n={n} threads={threads}");
                assert!(cs.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn map_chunks_partials_arrive_in_chunk_order() {
        for threads in [1usize, 2, 4, 16] {
            let parts = map_chunks(100, threads, |r| r.clone());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn results_are_identical_for_any_thread_count() {
        let work = |r: Range<usize>| -> Vec<u64> { r.map(|i| (i as u64).wrapping_mul(0x9E37)).collect() };
        let serial: Vec<u64> = map_chunks(257, 1, work).into_iter().flatten().collect();
        for threads in [2usize, 3, 8, 300] {
            let parallel: Vec<u64> = map_chunks(257, threads, work).into_iter().flatten().collect();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn chunked_map_reduce_folds_in_order() {
        // A deliberately non-commutative reduction: string concatenation
        // of per-chunk spans. Any out-of-order merge changes the result.
        let render = |r: Range<usize>| format!("[{}..{}]", r.start, r.end);
        let serial = chunked_map_reduce(10, 1, render, String::new(), |a, r| a + &r);
        assert_eq!(serial, "[0..10]");
        let parallel = chunked_map_reduce(10, 4, render, String::new(), |a, r| a + &r);
        assert_eq!(parallel, "[0..3][3..6][6..9][9..10]");
    }

    #[test]
    fn map_slices_fills_every_element_once() {
        for threads in [1usize, 2, 5, 33] {
            let mut out = vec![0u64; 97];
            let offsets = map_slices(&mut out, threads, |range, slice| {
                for (k, v) in slice.iter_mut().enumerate() {
                    *v = (range.start + k) as u64 + 1;
                }
                range.start
            });
            assert_eq!(out, (1..=97).collect::<Vec<u64>>(), "threads={threads}");
            // Offsets come back in chunk order.
            let mut sorted = offsets.clone();
            sorted.sort_unstable();
            assert_eq!(offsets, sorted);
        }
    }

    #[test]
    fn empty_input_spawns_nothing_and_returns_nothing() {
        assert!(chunks(0, 8).is_empty());
        assert!(map_chunks(0, 8, |r| r).is_empty());
        let mut empty: [u8; 0] = [];
        assert!(map_slices(&mut empty, 8, |_, _| ()).is_empty());
        assert_eq!(chunked_map_reduce(0, 8, |_| 1u64, 7u64, |a, b| a + b), 7);
    }

    #[test]
    fn more_threads_than_items_degrades_to_one_item_chunks() {
        let cs = chunks(3, 100);
        assert_eq!(cs, vec![0..1, 1..2, 2..3]);
    }
}
