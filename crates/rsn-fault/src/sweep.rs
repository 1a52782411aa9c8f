//! Work-stealing sweep scheduler shared by every parallel fault-sweep
//! entry point (`metric`, `multi`, `diagnose`).
//!
//! Per-item costs in a fault sweep are skewed: a chunk of faults near the
//! scan-in port converges in one fixed-point round while a chunk of deep
//! control faults cascades for many. A static one-range-per-worker split
//! strands every other worker behind the unluckiest range. Here workers
//! instead claim one chunk at a time from a shared atomic cursor, so load
//! balances at chunk granularity no matter how skewed the items are.
//! Accessibility sweeps claim [`crate::LANES`]-item chunks, one
//! bit-parallel engine pass each.
//!
//! Telemetry: `fault.steal_batches` counts claimed chunks and
//! `fault.worker_utilization` reports the fraction of worker wall-time
//! spent evaluating (1.0 = perfectly balanced).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Evaluates every index of `0..len` across up to `threads` workers and
/// returns the results in index order.
///
/// Each worker owns one `state` (built by `make_state` on the worker
/// thread) and repeatedly claims the next `chunk` indices from a shared
/// atomic cursor until the range is exhausted; `eval(state, range, out)`
/// must push exactly one result per index of `range`, in order. With one
/// worker (or one chunk) everything runs inline on the calling thread
/// through the same claiming loop, so counters behave identically.
///
/// The scheduler itself never drops or duplicates an index: every index
/// is claimed by exactly one worker. Skip/quarantine policies belong to
/// `eval` (encode them in `R`).
pub(crate) fn run_stealing<R, S>(
    len: usize,
    threads: usize,
    chunk: usize,
    make_state: impl Fn() -> S + Sync,
    eval: impl Fn(&mut S, Range<usize>, &mut Vec<R>) + Sync,
) -> Vec<R>
where
    R: Send,
    S: Send,
{
    assert!(chunk > 0, "chunks must hold at least one index");
    let start = Instant::now();
    let cursor = AtomicUsize::new(0);
    let batches = AtomicUsize::new(0);
    let worker = |out: &mut Vec<(usize, R)>| {
        // Runs on the worker's own thread, so each worker traces onto its
        // own timeline row (`tid` = worker in the exported trace).
        let _trace = rsn_obs::TraceGuard::new("sweep_worker");
        let mut state = make_state();
        let mut results = Vec::with_capacity(chunk);
        loop {
            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
            if lo >= len {
                break;
            }
            rsn_obs::trace_instant("claim_batch");
            batches.fetch_add(1, Ordering::Relaxed);
            let hi = (lo + chunk).min(len);
            eval(&mut state, lo..hi, &mut results);
            assert_eq!(results.len(), hi - lo, "one result per claimed index");
            out.extend((lo..hi).zip(results.drain(..)));
        }
    };

    let threads = threads.clamp(1, len.div_ceil(chunk).max(1));
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(len);
    let mut busy = 0.0f64;
    if threads == 1 {
        worker(&mut collected);
        busy = start.elapsed().as_secs_f64();
    } else {
        // Report scopes are thread-local; re-enter the caller's scopes on
        // each worker so per-request metric attribution survives fan-out.
        let scopes = rsn_obs::scope_handles();
        let per_worker: Vec<(Vec<(usize, R)>, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let _guards: Vec<_> = scopes.iter().map(|h| h.enter()).collect();
                        let t0 = Instant::now();
                        let mut out = Vec::new();
                        worker(&mut out);
                        (out, t0.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        for (out, b) in per_worker {
            busy += b;
            collected.extend(out);
        }
    }

    rsn_obs::counter_add(
        "fault.steal_batches",
        batches.load(Ordering::Relaxed) as u64,
    );
    let wall = start.elapsed().as_secs_f64();
    if wall > 0.0 && len > 0 {
        rsn_obs::gauge_set(
            "fault.worker_utilization",
            (busy / (threads as f64 * wall)).min(1.0),
        );
    }

    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for (i, r) in collected {
        debug_assert!(slots[i].is_none(), "index {i} evaluated twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("scheduler claimed every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mid-sized chunk next to the 1- and 64-item ones.
    const BATCH: usize = 16;

    #[test]
    fn every_index_evaluated_exactly_once_in_order() {
        for threads in [1, 2, 4] {
            for len in [0, 1, BATCH - 1, BATCH, 3 * BATCH + 5] {
                for chunk in [1, BATCH, 64] {
                    let out = run_stealing(
                        len,
                        threads,
                        chunk,
                        || (),
                        |_, r, out| out.extend(r.map(|i| i * 2)),
                    );
                    assert_eq!(out, (0..len).map(|i| i * 2).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // With one thread the single state sees every index.
        let out = run_stealing(
            40,
            1,
            BATCH,
            || 0usize,
            |seen, r, out| {
                for _ in r {
                    *seen += 1;
                    out.push(*seen);
                }
            },
        );
        assert_eq!(out.last(), Some(&40));
    }
}
