//! Opt-in event tracing: timestamped span begin/end and instant events in
//! lock-light per-thread ring buffers, exportable as Chrome
//! `chrome://tracing` / Perfetto JSON.
//!
//! Tracing is disabled by default; every emission site costs exactly one
//! relaxed atomic load until [`set_trace_enabled`] (or the `RSN_TRACE`
//! environment variable: `1`/`true`/`on`) switches it on. When enabled,
//! each thread appends to its own fixed-capacity buffer behind its own
//! (uncontended) mutex, so workers never serialize against each other on
//! the hot path. Buffers are **bounded**: once a thread's buffer is full,
//! new events are dropped (never the recorded prefix — span begin/end
//! pairing of the retained prefix stays intact) and counted in
//! [`TraceThread::dropped`]. Capacity is [`DEFAULT_TRACE_CAP`] events per
//! thread.
//!
//! Timestamps are nanoseconds since a process-global epoch (first trace
//! use), monotone per thread. Thread ids are small sequential integers
//! assigned at a thread's first event — in a work-stealing sweep every
//! worker gets its own id, so the exported trace renders one timeline row
//! per worker.
//!
//! [`Span`](crate::Span) emits begin/end events automatically while
//! tracing is enabled, so every instrumented phase in the workspace shows
//! up without new call sites. [`TraceGuard`] is the standalone RAII
//! variant for regions that should appear in traces *without* entering
//! the span aggregate table, and [`trace_instant`] marks a point event
//! (a batch claim, a quarantine, a budget trip).
//!
//! [`crate::reset`] drains and discards all buffered events; the epoch is
//! deliberately kept so timestamps stay monotone across benchmark rows
//! that accumulate one trace file.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json_impl::Json;

/// Default per-thread event capacity (events, not bytes).
pub const DEFAULT_TRACE_CAP: usize = 1 << 18;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A region opened (`ph: "B"`).
    Begin,
    /// The most recent open region on this thread closed (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`, thread scope).
    Instant,
}

impl TraceEventKind {
    /// The Chrome trace `ph` phase letter.
    pub fn phase(self) -> &'static str {
        match self {
            TraceEventKind::Begin => "B",
            TraceEventKind::End => "E",
            TraceEventKind::Instant => "i",
        }
    }
}

/// One buffered event: a name, a kind and a timestamp relative to the
/// trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (span name, guard name or instant label).
    pub name: &'static str,
    /// Begin / end / instant.
    pub kind: TraceEventKind,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
}

/// All events one thread recorded, in emission order, plus its overflow
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceThread {
    /// Sequential thread id (stable for the thread's lifetime).
    pub tid: u64,
    /// Buffered events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events dropped after the buffer filled up.
    pub dropped: u64,
}

struct Ring {
    tid: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// Tri-state enabled flag: lazily initialized from `RSN_TRACE`.
const UNINIT: u8 = u8::MAX;
static ENABLED: AtomicU8 = AtomicU8::new(UNINIT);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINKS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<Mutex<Ring>>> = const { std::cell::OnceCell::new() };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// `true` while event tracing is on. One relaxed atomic load; every
/// emission site checks this first, so disabled tracing is near-free.
#[inline]
pub fn trace_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        UNINIT => {
            let on = std::env::var("RSN_TRACE").is_ok_and(|v| {
                matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on")
            });
            ENABLED.store(on as u8, Ordering::Relaxed);
            on
        }
        v => v != 0,
    }
}

/// Switches event tracing on or off (wins over `RSN_TRACE`).
pub fn set_trace_enabled(on: bool) {
    ENABLED.store(on as u8, Ordering::Relaxed);
}

fn with_ring(f: impl FnOnce(&mut Ring)) {
    LOCAL.with(|cell| {
        let arc = cell.get_or_init(|| {
            let ring = Arc::new(Mutex::new(Ring {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Vec::new(),
                dropped: 0,
            }));
            SINKS.lock().unwrap().push(Arc::clone(&ring));
            ring
        });
        f(&mut arc.lock().unwrap());
    });
}

/// Appends one event to the calling thread's buffer. Callers must have
/// checked [`trace_enabled`] already.
pub(crate) fn emit(name: &'static str, kind: TraceEventKind) {
    let ts_ns = epoch().elapsed().as_nanos() as u64;
    with_ring(|ring| {
        if ring.events.len() >= DEFAULT_TRACE_CAP {
            ring.dropped += 1;
        } else {
            ring.events.push(TraceEvent { name, kind, ts_ns });
        }
    });
}

/// Records a point event on the calling thread (no-op while tracing is
/// disabled).
#[inline]
pub fn trace_instant(name: &'static str) {
    if trace_enabled() {
        emit(name, TraceEventKind::Instant);
    }
}

/// RAII region marker: emits a begin event on construction and the
/// matching end event on drop, independent of the span aggregate table.
/// Does nothing (and allocates nothing) while tracing is disabled; the
/// enabled check is latched at construction so a guard never emits an
/// unmatched end.
pub struct TraceGuard {
    name: &'static str,
    armed: bool,
}

impl TraceGuard {
    /// Opens a traced region named `name` on the calling thread.
    pub fn new(name: &'static str) -> TraceGuard {
        let armed = trace_enabled();
        if armed {
            emit(name, TraceEventKind::Begin);
        }
        TraceGuard { name, armed }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.armed {
            emit(self.name, TraceEventKind::End);
        }
    }
}

/// Removes and returns everything buffered so far, one entry per thread
/// that recorded at least one event (or dropped some). Buffers of
/// threads that have exited are drained and released; live threads keep
/// their id and continue recording into an emptied buffer.
pub fn trace_drain() -> Vec<TraceThread> {
    let mut sinks = SINKS.lock().unwrap();
    let mut out = Vec::new();
    for sink in sinks.iter() {
        let mut ring = sink.lock().unwrap();
        if ring.events.is_empty() && ring.dropped == 0 {
            continue;
        }
        out.push(TraceThread {
            tid: ring.tid,
            events: std::mem::take(&mut ring.events),
            dropped: std::mem::take(&mut ring.dropped),
        });
        ring.events.shrink_to_fit();
    }
    // A thread-local handle holds one strong reference; once the thread
    // exits only the registry's reference remains and the (now drained)
    // ring can be released.
    sinks.retain(|s| Arc::strong_count(s) > 1);
    out.sort_by_key(|t| t.tid);
    out
}

pub(crate) fn reset_trace() {
    let _ = trace_drain();
}

/// Renders drained trace threads as a Chrome trace ("JSON object format"):
/// `{"traceEvents": [...], "displayTimeUnit": "ms", "droppedEvents": N}`.
/// Every event carries `pid: 1`, its recording thread's `tid`, a
/// microsecond `ts` and the `ph` phase (`B`/`E`/`i`; instants get thread
/// scope `s: "t"`). Each thread additionally gets a `thread_name`
/// metadata record, so Perfetto and `chrome://tracing` label the rows.
pub fn chrome_trace(threads: &[TraceThread]) -> Json {
    let mut events = Vec::new();
    let mut dropped_total = 0u64;
    for t in threads {
        let mut meta = Json::obj();
        meta.set("name", Json::Str("thread_name".to_string()));
        meta.set("ph", Json::Str("M".to_string()));
        meta.set("pid", Json::Num(1.0));
        meta.set("tid", Json::Num(t.tid as f64));
        let mut args = Json::obj();
        args.set("name", Json::Str(format!("worker-{}", t.tid)));
        meta.set("args", args);
        events.push(meta);
        dropped_total += t.dropped;
        for e in &t.events {
            let mut o = Json::obj();
            o.set("name", Json::Str(e.name.to_string()));
            o.set("ph", Json::Str(e.kind.phase().to_string()));
            o.set("pid", Json::Num(1.0));
            o.set("tid", Json::Num(t.tid as f64));
            o.set("ts", Json::Num(e.ts_ns as f64 / 1e3));
            if e.kind == TraceEventKind::Instant {
                o.set("s", Json::Str("t".to_string()));
            }
            events.push(o);
        }
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", Json::Str("ms".to_string()));
    doc.set("droppedEvents", Json::Num(dropped_total as f64));
    doc
}
