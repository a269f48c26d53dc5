//! Execution strategy for the search engines: thread fan-out and deadlines.
//!
//! The container this workspace builds in has no access to crates.io, so the
//! usual `rayon` dependency is replaced by a deliberately small work-splitting
//! helper on `std::thread::scope`.  Every parallel search in this crate is
//! written so that its result is **bit-identical to the serial run**: work is
//! split into contiguous chunks that preserve the serial enumeration order,
//! each chunk is reduced with the same strictly-less comparison the serial
//! loop uses, and the per-chunk winners are folded left-to-right — so the
//! first minimum of the serial enumeration always wins, whatever the thread
//! count.

use std::time::Instant;

/// How a search is executed: how many worker threads to fan out to and an
/// optional wall-clock deadline after which the search returns its best
/// result so far (flagged as non-exhaustive).
#[derive(Clone, Copy, Debug, Default)]
pub struct Exec {
    /// Number of worker threads; `0` means "use available parallelism",
    /// `1` means fully serial.
    pub threads: usize,
    /// Absolute deadline; enumeration stops once it has passed.
    pub deadline: Option<Instant>,
}

impl Exec {
    /// Fully serial execution with no deadline.
    pub fn serial() -> Self {
        Exec {
            threads: 1,
            deadline: None,
        }
    }

    /// Execution on `threads` workers (`0` = auto) with no deadline.
    pub fn threaded(threads: usize) -> Self {
        Exec {
            threads,
            deadline: None,
        }
    }

    /// The concrete worker count this strategy resolves to.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
    }

    /// How many enumeration levels the exhaustive searches expand into
    /// parallel tasks: two (≈ `n²` tasks, for load balance — the shared
    /// incumbent makes the deeper split cheap to reduce) when fanning out,
    /// one when serial.  Results are bit-identical either way: tasks are
    /// reduced in serial enumeration order.
    pub fn split_depth(&self) -> usize {
        if self.effective_threads() > 1 {
            2
        } else {
            1
        }
    }

    /// `true` once the deadline (if any) has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Applies `f` to contiguous chunks of `items` (at most `threads` of them, in
/// order) and returns the per-chunk results in chunk order.  `f` receives the
/// chunk's base index into `items` so chunk-local winners can be reported as
/// global indices.
///
/// With `threads <= 1` or fewer than two items this degenerates to a single
/// call of `f(0, items)` on the current thread, so serial and parallel
/// callers share one code path.
pub fn par_chunks<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return vec![f(0, items)];
    }
    let chunk_len = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, chunk)| scope.spawn(move || f(i * chunk_len, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    })
}

/// [`par_chunks`] with **weighted** splitting: chunk boundaries are chosen
/// so that every chunk carries roughly `Σ weight / threads` of the total
/// weight instead of an equal item count.  Canonical orbit streams use this
/// with the orbit size as the weight — representatives standing for large
/// orbits cluster at one end of the stream, so equal-count chunks
/// load-imbalance badly as `n` grows.  Chunks stay contiguous and in order,
/// so any fold that is correct for [`par_chunks`] (first-minimum-wins in
/// particular) is bit-identical here too.
pub fn par_chunks_weighted<T, R, F, W>(threads: usize, items: &[T], weight: W, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
    W: Fn(&T) -> u64,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return vec![f(0, items)];
    }
    let total: u128 = items.iter().map(|t| weight(t) as u128).sum();
    let per_chunk = (total / threads as u128).max(1);
    // Greedy contiguous split: close a chunk once its weight reaches the
    // per-chunk share (always keeping at least one item per chunk).
    let mut bounds: Vec<usize> = Vec::with_capacity(threads + 1);
    bounds.push(0);
    let mut acc: u128 = 0;
    for (i, item) in items.iter().enumerate() {
        acc += weight(item) as u128;
        if acc >= per_chunk && bounds.len() < threads && i + 1 < items.len() {
            bounds.push(i + 1);
            acc = 0;
        }
    }
    bounds.push(items.len());
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                let chunk = &items[lo..hi];
                scope.spawn(move || f(lo, chunk))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    })
}

/// Folds per-chunk `(value, payload)` winners left-to-right with a strict
/// `<` comparison, reproducing the "first minimum wins" rule of a serial
/// enumeration loop.
pub fn fold_min<P>(parts: Vec<Option<(f64, P)>>) -> Option<(f64, P)> {
    let mut best: Option<(f64, P)> = None;
    for part in parts.into_iter().flatten() {
        if best.as_ref().is_none_or(|(b, _)| part.0 < *b) {
            best = Some(part);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_preserves_order_and_offsets() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 2, 3, 7] {
            let chunks = par_chunks(threads, &items, |base, chunk| (base, chunk.to_vec()));
            let mut flat = Vec::new();
            for (base, chunk) in chunks {
                assert_eq!(flat.len(), base);
                flat.extend(chunk);
            }
            assert_eq!(flat, items);
        }
    }

    #[test]
    fn weighted_chunks_preserve_order_and_balance_weight() {
        // Heavily skewed weights: the first item dwarfs the rest.
        let items: Vec<u64> = std::iter::once(1_000)
            .chain(std::iter::repeat_n(1, 99))
            .collect();
        for threads in [1, 2, 4, 7] {
            let chunks = par_chunks_weighted(
                threads,
                &items,
                |&w| w,
                |base, chunk| (base, chunk.to_vec()),
            );
            assert!(chunks.len() <= threads.max(1));
            let mut flat = Vec::new();
            for (base, chunk) in &chunks {
                assert_eq!(flat.len(), *base);
                assert!(!chunk.is_empty());
                flat.extend(chunk.iter().copied());
            }
            assert_eq!(flat, items);
            if threads >= 2 {
                // The heavy head is isolated into its own chunk.
                assert_eq!(chunks[0].1, vec![1_000]);
            }
        }
    }

    #[test]
    fn fold_min_takes_first_of_ties() {
        let parts = vec![Some((2.0, "a")), Some((1.0, "b")), Some((1.0, "c")), None];
        assert_eq!(fold_min(parts), Some((1.0, "b")));
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(Exec::threaded(0).effective_threads() >= 1);
        assert_eq!(Exec::serial().effective_threads(), 1);
    }
}
