//! Resource governance for long-running engines.
//!
//! Every potentially exponential engine in the toolchain — the CDCL SAT
//! solver, the branch-and-bound ILP, the BMC unrolling, whole-network
//! fault enumeration — accepts a shared [`Budget`] and polls it at its
//! natural work boundary (a conflict, a node, a fault). A budget combines
//! three independent limits:
//!
//! * a **wall-clock deadline** ([`Budget::with_deadline`]),
//! * a **work-unit limit** ([`Budget::with_work_limit`]) — the unit is
//!   whatever the polling engine counts (conflicts, nodes, faults), which
//!   makes limits deterministic and therefore testable,
//! * a **cooperative cancel flag** flipped from another thread through a
//!   [`CancelToken`].
//!
//! [`Budget::check`] is cheap enough for inner loops: a few relaxed
//! atomic operations, with the clock consulted only on the first check
//! and then once every 64 work units.
//! Exhaustion **latches**: once a budget has tripped, every subsequent
//! `check` fails with the same [`Reason`], so a pipeline of engines
//! sharing one budget degrades as a unit.
//!
//! Engines never panic or error out of a budget trip — they return their
//! best partial answer (`Unknown`, an unproven incumbent, a degraded
//! fallback) and the caller decides what that means. See DESIGN.md
//! §"Resource governance" for the per-engine degradation ladder.
//!
//! ```
//! use rsn_budget::{Budget, Reason};
//!
//! let budget = Budget::unlimited().with_work_limit(2);
//! assert!(budget.check().is_ok());
//! assert!(budget.check().is_ok());
//! assert_eq!(budget.check().unwrap_err().reason, Reason::WorkLimit);
//! // Latched: still exhausted, even though no more work is spent.
//! assert_eq!(budget.exhausted(), Some(Reason::WorkLimit));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budget stopped admitting work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work-unit limit was spent.
    WorkLimit,
    /// A [`CancelToken`] was cancelled.
    Cancelled,
}

impl Reason {
    /// Stable lowercase name, used in logs and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Reason::Deadline => "deadline",
            Reason::WorkLimit => "work_limit",
            Reason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The error returned by [`Budget::check`] once the budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// The limit that tripped first (latched).
    pub reason: Reason,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "budget exhausted ({})", self.reason)
    }
}

impl std::error::Error for Exhausted {}

/// Latched-reason encoding in `Inner::tripped`: 0 = live.
const LIVE: u8 = 0;

fn encode(reason: Reason) -> u8 {
    match reason {
        Reason::Deadline => 1,
        Reason::WorkLimit => 2,
        Reason::Cancelled => 3,
    }
}

fn decode(raw: u8) -> Option<Reason> {
    match raw {
        1 => Some(Reason::Deadline),
        2 => Some(Reason::WorkLimit),
        3 => Some(Reason::Cancelled),
        _ => None,
    }
}

/// Work units between two wall-clock reads of a budget with a deadline
/// (the clock is always read on the first check, so a zero deadline
/// trips deterministically).
const CLOCK_STRIDE: u64 = 64;

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    work_limit: u64,
    work: AtomicU64,
    cancelled: AtomicBool,
    tripped: AtomicU8,
}

/// A shareable deadline + work-unit budget with cooperative cancellation.
///
/// Cloning is cheap and every clone observes the same state (one shared
/// counter, one latch), so a budget handed to parallel workers bounds
/// their *combined* work. See the [crate docs](crate) for semantics.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no deadline and no work limit. [`Budget::check`]
    /// only fails after [`cancel`](Budget::cancel).
    pub fn unlimited() -> Budget {
        Budget {
            inner: Arc::new(Inner {
                deadline: None,
                work_limit: u64::MAX,
                work: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                tripped: AtomicU8::new(LIVE),
            }),
        }
    }

    /// Sets a wall-clock deadline `timeout` from now. A zero timeout
    /// trips on the very first check.
    #[must_use]
    pub fn with_deadline(self, timeout: Duration) -> Budget {
        self.rebuild(|inner| inner.deadline = Some(Instant::now() + timeout))
    }

    /// Sets the work-unit limit: the budget admits at most `limit` units
    /// through [`check`](Budget::check)/[`spend`](Budget::spend). A zero
    /// limit trips on the very first check.
    #[must_use]
    pub fn with_work_limit(self, limit: u64) -> Budget {
        self.rebuild(|inner| inner.work_limit = limit)
    }

    fn rebuild(self, f: impl FnOnce(&mut Inner)) -> Budget {
        // Builders run before the budget is shared; a fresh Arc keeps the
        // configuration immutable afterwards.
        let mut inner = Inner {
            deadline: self.inner.deadline,
            work_limit: self.inner.work_limit,
            work: AtomicU64::new(self.inner.work.load(Ordering::Relaxed)),
            cancelled: AtomicBool::new(self.inner.cancelled.load(Ordering::Relaxed)),
            tripped: AtomicU8::new(self.inner.tripped.load(Ordering::Relaxed)),
        };
        f(&mut inner);
        Budget {
            inner: Arc::new(inner),
        }
    }

    /// Spends one work unit; the common inner-loop call.
    ///
    /// # Errors
    ///
    /// Fails with the latched [`Reason`] once any limit has tripped.
    #[inline]
    pub fn check(&self) -> Result<(), Exhausted> {
        self.spend(1)
    }

    /// Spends `units` work units at once (batch accounting for engines
    /// whose natural boundary covers many units).
    ///
    /// # Errors
    ///
    /// Fails with the latched [`Reason`] once any limit has tripped.
    pub fn spend(&self, units: u64) -> Result<(), Exhausted> {
        let inner = &*self.inner;
        if let Some(reason) = decode(inner.tripped.load(Ordering::Relaxed)) {
            return Err(Exhausted { reason });
        }
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(self.trip(Reason::Cancelled));
        }
        if inner.deadline.is_none() && inner.work_limit == u64::MAX {
            return Ok(()); // unlimited: skip the shared-counter traffic
        }
        let done = inner.work.fetch_add(units, Ordering::Relaxed) + units;
        if done > inner.work_limit {
            return Err(self.trip(Reason::WorkLimit));
        }
        if let Some(deadline) = inner.deadline {
            let crossed_stride = done / CLOCK_STRIDE != (done - units) / CLOCK_STRIDE;
            if (done == units || crossed_stride) && Instant::now() >= deadline {
                return Err(self.trip(Reason::Deadline));
            }
        }
        Ok(())
    }

    /// Latches `reason` (first trip wins) and returns the latched error.
    fn trip(&self, reason: Reason) -> Exhausted {
        let _ = self.inner.tripped.compare_exchange(
            LIVE,
            encode(reason),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        Exhausted {
            reason: self.exhausted().unwrap_or(reason),
        }
    }

    /// The latched exhaustion reason, `None` while the budget is live.
    /// Only [`check`](Budget::check)/[`spend`](Budget::spend)/
    /// [`poll`](Budget::poll) latch — a deadline that passed without any
    /// engine noticing is not yet "exhausted".
    pub fn exhausted(&self) -> Option<Reason> {
        decode(self.inner.tripped.load(Ordering::Relaxed))
    }

    /// Non-spending status probe: latches and reports exhaustion like
    /// [`check`](Budget::check) (including an unconditional clock read)
    /// but consumes no work unit. Orchestrators call this between
    /// pipeline stages.
    pub fn poll(&self) -> Option<Reason> {
        if let Some(reason) = self.exhausted() {
            return Some(reason);
        }
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Some(self.trip(Reason::Cancelled).reason);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Some(self.trip(Reason::Deadline).reason);
            }
        }
        None
    }

    /// Flips the cooperative cancel flag; the next check fails with
    /// [`Reason::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// A clonable, `Send` handle that cancels this budget from another
    /// thread.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Work units spent so far (across all clones).
    pub fn work_done(&self) -> u64 {
        self.inner.work.load(Ordering::Relaxed)
    }

    /// Time until the deadline, `None` without one. Zero once passed.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// `true` if neither a deadline nor a work limit is configured (the
    /// budget can still be cancelled).
    pub fn is_unlimited(&self) -> bool {
        self.inner.deadline.is_none() && self.inner.work_limit == u64::MAX
    }
}

/// Cancels the [`Budget`] it was taken from; clonable and `Send`, so it
/// can live on a control thread, a signal handler or a watchdog.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// Flips the cancel flag; every budget clone observes it on its next
    /// check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once cancelled (by any token or the budget itself).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }
}

/// The workspace-wide default worker-thread count.
///
/// Reads the `RSN_THREADS` environment variable (any integer ≥ 1);
/// when unset or unparsable it falls back to
/// [`std::thread::available_parallelism`], and to 1 when even that is
/// unknown. The fault-sweep work-stealing scheduler sizes its worker
/// pool through this knob, and the miter benchmarks pass it to
/// `FaultDistinguisher::set_threads`, the one way into the SAT
/// portfolio (verification and BMC always solve serially). So one
/// variable pins the whole process to a core budget (e.g. in CI or
/// when benchmarking serial baselines).
///
/// Callers that need a cap apply it on top: `default_threads().min(16)`.
pub fn default_threads() -> usize {
    match std::env::var("RSN_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.check().expect("unlimited");
        }
        assert!(b.is_unlimited());
        assert_eq!(b.exhausted(), None);
        assert_eq!(b.poll(), None);
        assert_eq!(b.remaining_time(), None);
    }

    #[test]
    fn work_limit_trips_exactly_after_limit() {
        let b = Budget::unlimited().with_work_limit(3);
        assert!(b.check().is_ok());
        assert!(b.check().is_ok());
        assert!(b.check().is_ok());
        let err = b.check().unwrap_err();
        assert_eq!(err.reason, Reason::WorkLimit);
        assert_eq!(b.exhausted(), Some(Reason::WorkLimit));
    }

    #[test]
    fn zero_work_limit_trips_on_first_check() {
        let b = Budget::unlimited().with_work_limit(0);
        assert_eq!(b.check().unwrap_err().reason, Reason::WorkLimit);
    }

    #[test]
    fn zero_deadline_trips_on_first_check() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check().unwrap_err().reason, Reason::Deadline);
    }

    #[test]
    fn deadline_is_detected_within_one_clock_stride() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        // First check always reads the clock.
        assert_eq!(b.check().unwrap_err().reason, Reason::Deadline);

        let b = Budget::unlimited().with_deadline(Duration::from_millis(200));
        // The first check reads the clock before the deadline passes.
        assert!(b.check().is_ok());
        std::thread::sleep(Duration::from_millis(250));
        // The deadline has passed; the checks up to the next multiple of
        // the stride still succeed, the one that reaches it reads the
        // clock and trips.
        let mut passed = 0;
        loop {
            match b.check() {
                Ok(()) => passed += 1,
                Err(e) => {
                    assert_eq!(e.reason, Reason::Deadline);
                    break;
                }
            }
            assert!(
                passed < CLOCK_STRIDE,
                "overran the deadline by more than one stride"
            );
        }
        assert_eq!(passed, CLOCK_STRIDE - 2, "units 2..=63 skip the clock");
    }

    #[test]
    fn exhaustion_latches_first_reason() {
        let b = Budget::unlimited().with_work_limit(1);
        assert!(b.check().is_ok());
        assert_eq!(b.check().unwrap_err().reason, Reason::WorkLimit);
        b.cancel();
        // Already latched on WorkLimit; cancellation does not rewrite it.
        assert_eq!(b.check().unwrap_err().reason, Reason::WorkLimit);
    }

    #[test]
    fn cancel_token_trips_checks() {
        let b = Budget::unlimited();
        let token = b.cancel_token();
        assert!(b.check().is_ok());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.check().unwrap_err().reason, Reason::Cancelled);
        assert_eq!(b.exhausted(), Some(Reason::Cancelled));
    }

    #[test]
    fn cancel_token_works_across_threads() {
        let b = Budget::unlimited();
        let token = b.cancel_token();
        let handle = std::thread::spawn(move || token.cancel());
        handle.join().expect("cancel thread");
        assert_eq!(b.check().unwrap_err().reason, Reason::Cancelled);
    }

    #[test]
    fn clones_share_one_work_counter() {
        let b = Budget::unlimited().with_work_limit(4);
        let c = b.clone();
        assert!(b.check().is_ok());
        assert!(c.check().is_ok());
        assert!(b.check().is_ok());
        assert!(c.check().is_ok());
        assert_eq!(c.check().unwrap_err().reason, Reason::WorkLimit);
        assert_eq!(b.exhausted(), Some(Reason::WorkLimit));
        assert_eq!(b.work_done(), 5);
    }

    #[test]
    fn spend_accounts_batches() {
        let b = Budget::unlimited().with_work_limit(10);
        assert!(b.spend(7).is_ok());
        assert_eq!(b.spend(7).unwrap_err().reason, Reason::WorkLimit);
    }

    #[test]
    fn poll_does_not_spend_but_latches_deadline() {
        let b = Budget::unlimited().with_work_limit(5);
        assert_eq!(b.poll(), None);
        assert_eq!(b.work_done(), 0);

        let d = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(d.poll(), Some(Reason::Deadline));
        assert_eq!(d.check().unwrap_err().reason, Reason::Deadline);
    }

    #[test]
    fn remaining_time_counts_down() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let r = b.remaining_time().expect("has deadline");
        assert!(r <= Duration::from_secs(3600));
        assert!(r > Duration::from_secs(3590));
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(Reason::Deadline.as_str(), "deadline");
        assert_eq!(Reason::WorkLimit.as_str(), "work_limit");
        assert_eq!(Reason::Cancelled.as_str(), "cancelled");
        let e = Exhausted {
            reason: Reason::Deadline,
        };
        assert_eq!(e.to_string(), "budget exhausted (deadline)");
    }
}
