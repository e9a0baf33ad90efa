//! Tile schedulers: the paper's **dynamic wavefront** (work queue +
//! atomic dependency tracking, §IV-A) and the preliminary version's
//! **static wavefront** (barrier per anti-diagonal) kept as the Fig. 6
//! comparison baseline.

use crate::grid::{TileGrid, TileId};
use crossbeam::deque::{Injector, Steal};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;

/// Runs `compute` over every tile respecting wavefront dependencies,
/// scheduling ready tiles through a shared thread-safe queue
/// (paper: "submatrices are scheduled in a thread-safe queue which allows
/// threads to add and extract work items concurrently").
///
/// `make_scratch` builds one per-worker scratch value; `compute`
/// receives up to `batch` ready — hence mutually independent — tiles at
/// once (a lane kernel fills vector lanes with them, paper Fig. 3), or
/// a shorter slice when fewer are ready. Returns the scratch values
/// for result merging.
///
/// The completion and queuing status of all submatrices is tracked in
/// preallocated arrays of atomic flags, exactly as the paper describes.
pub fn run_dynamic<W, M, F>(
    grid: &TileGrid,
    threads: usize,
    batch: usize,
    make_scratch: M,
    compute: F,
) -> Vec<W>
where
    W: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, &[TileId]) + Sync,
{
    assert!(threads >= 1 && batch >= 1);
    let deps: Vec<AtomicU8> = (0..grid.total())
        .map(|idx| {
            let t = TileId {
                ti: (idx / grid.mt) as u32,
                tj: (idx % grid.mt) as u32,
            };
            AtomicU8::new(grid.initial_deps(t))
        })
        .collect();
    let remaining = AtomicUsize::new(grid.total());
    let queue: Injector<TileId> = Injector::new();
    queue.push(TileId { ti: 0, tj: 0 });

    let release = |t: TileId| {
        // Decrement each successor's dependency count; the one that
        // reaches zero enqueues it (release/acquire pairing makes the
        // producer's border writes visible to the consumer).
        if (t.tj as usize) + 1 < grid.mt {
            let right = TileId {
                ti: t.ti,
                tj: t.tj + 1,
            };
            if deps[grid.index(right)].fetch_sub(1, Ordering::AcqRel) == 1 {
                queue.push(right);
            }
        }
        if (t.ti as usize) + 1 < grid.nt {
            let down = TileId {
                ti: t.ti + 1,
                tj: t.tj,
            };
            if deps[grid.index(down)].fetch_sub(1, Ordering::AcqRel) == 1 {
                queue.push(down);
            }
        }
    };

    let worker = || {
        let mut scratch = make_scratch();
        let mut ready: Vec<TileId> = Vec::with_capacity(batch);
        loop {
            ready.clear();
            // Pull up to `batch` ready tiles.
            while ready.len() < batch {
                match queue.steal() {
                    Steal::Success(t) => ready.push(t),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
            if ready.is_empty() {
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            }
            compute(&mut scratch, &ready);
            for &t in &ready {
                release(t);
            }
            remaining.fetch_sub(ready.len(), Ordering::AcqRel);
        }
        scratch
    };
    let scratches = run_workers(threads, |_| worker());
    debug_assert_eq!(remaining.load(Ordering::Acquire), 0);
    scratches
}

/// Runs `compute` with a **static** wavefront: every anti-diagonal is
/// split evenly among the threads, followed by a barrier — the schedule
/// of the paper's preliminary AnySeq version and of Parasail, reproduced
/// as the Fig. 6 baseline. Load imbalance (short diagonals near the
/// corners, uneven tile costs) and the `O(diagonals)` barriers are the
/// point: do not use this for real work.
pub fn run_static<W, M, F>(
    grid: &TileGrid,
    threads: usize,
    batch: usize,
    make_scratch: M,
    compute: F,
) -> Vec<W>
where
    W: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, &[TileId]) + Sync,
{
    assert!(threads >= 1 && batch >= 1);
    let barrier = Barrier::new(threads);
    run_workers(threads, |worker| {
        let mut scratch = make_scratch();
        for d in 0..grid.diagonals() {
            // Fixed round-robin assignment, no stealing; a worker's
            // share of the diagonal goes out `batch` tiles at a time.
            let mine: Vec<TileId> = grid.diagonal(d).skip(worker).step_by(threads).collect();
            for group in mine.chunks(batch) {
                compute(&mut scratch, group);
            }
            barrier.wait();
        }
        scratch
    })
}

/// The workspace's one compute-thread pool: runs `body(worker)` for
/// `worker` in `0..threads` (at least one) and returns the outputs in
/// worker order.
///
/// Caller-runs: worker 0 runs on the calling thread, next to
/// `threads − 1` scoped helpers, so a one-worker call spawns nothing
/// and worker 0's stage spans land on the caller's recorder. No thread
/// outlives the call. A worker's panic is re-raised on the caller once
/// the other workers have returned, so workers that wait on each other
/// (a barrier, a shared tile count) must not panic.
pub fn run_workers<W: Send>(threads: usize, body: impl Fn(usize) -> W + Sync) -> Vec<W> {
    if threads <= 1 {
        // No scope either: a one-worker call is a plain call.
        return vec![body(0)];
    }
    let body = &body;
    std::thread::scope(|sc| {
        let helpers: Vec<_> = (1..threads).map(|w| sc.spawn(move || body(w))).collect();
        let mut out = Vec::with_capacity(threads);
        out.push(body(0));
        let joined = helpers.into_iter().map(|h| h.join());
        out.extend(joined.map(|w| w.unwrap_or_else(|panic| std::panic::resume_unwind(panic))));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashSet;

    fn check_order(order: &[TileId], grid: &TileGrid) {
        // Every tile exactly once, and each tile appears after its deps.
        let mut pos = vec![usize::MAX; grid.total()];
        for (k, &t) in order.iter().enumerate() {
            assert_eq!(pos[grid.index(t)], usize::MAX, "tile computed twice");
            pos[grid.index(t)] = k;
        }
        assert!(pos.iter().all(|&p| p != usize::MAX), "missing tiles");
        for ti in 0..grid.nt as u32 {
            for tj in 0..grid.mt as u32 {
                let p = pos[grid.index(TileId { ti, tj })];
                if ti > 0 {
                    assert!(pos[grid.index(TileId { ti: ti - 1, tj })] < p);
                }
                if tj > 0 {
                    assert!(pos[grid.index(TileId { ti, tj: tj - 1 })] < p);
                }
            }
        }
    }

    #[test]
    fn dynamic_respects_dependencies() {
        let grid = TileGrid::new(97, 130, 16);
        for threads in [1, 2, 8] {
            let log = Mutex::new(Vec::new());
            run_dynamic(
                &grid,
                threads,
                1,
                || (),
                |_, tiles| {
                    log.lock().extend_from_slice(tiles);
                },
            );
            check_order(&log.into_inner(), &grid);
        }
    }

    #[test]
    fn dynamic_batch_pop_still_valid() {
        let grid = TileGrid::new(257, 257, 16);
        for batch in [2, 4, 16] {
            let log = Mutex::new(Vec::new());
            run_dynamic(
                &grid,
                4,
                batch,
                || (),
                |_, tiles| {
                    assert!(!tiles.is_empty() && tiles.len() <= batch);
                    // Batched tiles must be pairwise independent (no tile
                    // an ancestor of another): tiles popped together are
                    // all "ready", which for a wavefront means no two on
                    // the same row path... verify weaker: distinct.
                    let set: HashSet<_> = tiles.iter().map(|t| grid.index(*t)).collect();
                    assert_eq!(set.len(), tiles.len());
                    log.lock().extend_from_slice(tiles);
                },
            );
            check_order(&log.into_inner(), &grid);
        }
    }

    #[test]
    fn static_respects_dependencies() {
        let grid = TileGrid::new(100, 60, 8);
        for threads in [1, 3, 6] {
            let log = Mutex::new(Vec::new());
            run_static(
                &grid,
                threads,
                2,
                || (),
                |_, tiles| {
                    log.lock().extend_from_slice(tiles);
                },
            );
            check_order(&log.into_inner(), &grid);
        }
    }

    #[test]
    fn pool_runs_worker_zero_on_the_caller_and_returns_in_worker_order() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 5] {
            let out = run_workers(threads, |w| (w, std::thread::current().id()));
            assert_eq!(out.len(), threads);
            assert!(out.iter().enumerate().all(|(k, &(w, _))| k == w));
            assert_eq!(out[0].1, caller, "worker 0 is the calling thread");
            let ids: HashSet<_> = out.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids.len(), threads, "one thread per worker");
        }
        // A one-worker (or empty) budget runs inline and spawns nothing.
        for threads in [0, 1] {
            let out = run_workers(threads, |w| (w, std::thread::current().id()));
            assert_eq!(out, [(0, caller)]);
        }
    }

    #[test]
    fn pool_reraises_a_helper_panic_on_the_caller() {
        let done = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_workers(4, |w| {
                if w == 2 {
                    panic!("helper {w} failed");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "helper 2 failed");
        assert_eq!(
            done.load(Ordering::Relaxed),
            3,
            "the other workers ran to the end"
        );
    }

    #[test]
    fn scratches_returned_per_worker() {
        let grid = TileGrid::new(64, 64, 8);
        let scratches = run_dynamic(&grid, 4, 1, || 0usize, |count, tiles| *count += tiles.len());
        assert_eq!(scratches.len(), 4);
        assert_eq!(scratches.iter().sum::<usize>(), grid.total());
    }
}
