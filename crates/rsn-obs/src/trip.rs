//! First-trip budget backtraces: when an engine's budget trips (deadline,
//! work limit or cancellation), the engine records *where* — which span
//! path was live — so a [`RunReport`](crate::RunReport) can say not just
//! that a run degraded but in which phase the budget actually ran out.
//!
//! Recording is engine-initiated (the budget crate stays observability
//! free): each engine calls [`record_budget_trip`] at the point it
//! observes exhaustion. The table is bounded to [`MAX_BUDGET_TRIPS`]
//! entries per run — the first trips are the interesting ones; later
//! repeats only increment the dropped count implicit in `budget.exhausted`
//! counters.

use std::sync::Mutex;
use std::time::Instant;

use crate::span::current_path;
use crate::trace::trace_instant;

/// Maximum trips retained per run (between [`crate::reset`] calls).
pub const MAX_BUDGET_TRIPS: usize = 32;

/// One recorded budget trip.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetTrip {
    /// Engine that observed the trip (`"sat"`, `"ilp"`, `"fault"`, ...).
    pub engine: &'static str,
    /// The budget's latched reason (`"deadline"`, `"work_limit"`,
    /// `"cancelled"`).
    pub reason: String,
    /// Slash-joined span path live on the recording thread, empty when
    /// the trip happened outside any span.
    pub span_path: String,
    /// Milliseconds since the run began — the last [`crate::reset`], or
    /// the first trip of the process if reset was never called.
    pub at_ms: f64,
}

static TRIPS: Mutex<Vec<BudgetTrip>> = Mutex::new(Vec::new());
static RUN_START: Mutex<Option<Instant>> = Mutex::new(None);

fn run_elapsed_ms() -> f64 {
    let mut start = RUN_START.lock().unwrap();
    start
        .get_or_insert_with(Instant::now)
        .elapsed()
        .as_secs_f64()
        * 1e3
}

/// Records that `engine` observed its budget trip for reason `reason`,
/// capturing the calling thread's live span path and a run-relative
/// timestamp. Beyond [`MAX_BUDGET_TRIPS`] entries the call is a cheap
/// no-op; a `budget_trip` trace instant is still emitted while tracing.
pub fn record_budget_trip(engine: &'static str, reason: &str) {
    trace_instant("budget_trip");
    let mut trips = TRIPS.lock().unwrap();
    if trips.len() >= MAX_BUDGET_TRIPS {
        return;
    }
    let at_ms = run_elapsed_ms();
    trips.push(BudgetTrip {
        engine,
        reason: reason.to_string(),
        span_path: current_path(),
        at_ms,
    });
}

/// Clones all trips recorded since the last [`crate::reset`], in
/// recording order.
pub fn budget_trips() -> Vec<BudgetTrip> {
    TRIPS.lock().unwrap().clone()
}

pub(crate) fn reset_trips() {
    TRIPS.lock().unwrap().clear();
    // A reset delimits a run, so trip timestamps are row-relative in
    // drivers that reset between rows.
    *RUN_START.lock().unwrap() = Some(Instant::now());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests reset and fill the one process-wide table; run them one
    /// at a time, or one can fill the table between the other's reset and
    /// its recording.
    static TABLE: Mutex<()> = Mutex::new(());

    #[test]
    fn records_and_caps() {
        let _table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
        reset_trips();
        for _ in 0..(MAX_BUDGET_TRIPS + 5) {
            record_budget_trip("sat", "deadline");
        }
        let trips = budget_trips();
        assert_eq!(trips.len(), MAX_BUDGET_TRIPS);
        assert_eq!(trips[0].engine, "sat");
        assert_eq!(trips[0].reason, "deadline");
        reset_trips();
        assert!(budget_trips().is_empty());
    }

    #[test]
    fn captures_live_span_path() {
        let _table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
        reset_trips();
        {
            let _outer = crate::Span::enter("trip_outer");
            let _inner = _outer.child("trip_inner");
            record_budget_trip("ilp", "work_limit");
        }
        let trips = budget_trips();
        let t = trips.last().expect("one trip");
        assert_eq!(t.span_path, "trip_outer/trip_inner");
        assert!(t.at_ms >= 0.0);
        reset_trips();
    }
}
