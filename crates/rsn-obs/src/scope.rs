//! Per-request report scopes.
//!
//! The global registry aggregates everything the process has done, which
//! is the right default for batch drivers but bleeds metrics across
//! concurrent requests in a resident service. A [`ScopeHandle`] is a
//! free-standing [`Registry`] that, while *entered* on a thread (via
//! [`ScopeGuard`]), receives a copy of every counter/gauge/histogram
//! write that thread makes. The global registry still sees every write —
//! scopes tee, they do not redirect — so process-wide views
//! (`/metrics`, drift tests, benchmark reports) are unaffected.
//!
//! Scopes are thread-local by design: two requests on different threads
//! each see only their own writes. Code that fans work out to helper
//! threads (the rsn-fault sweep scheduler) captures the spawning
//! thread's stack with [`scope_handles`] and re-enters it on each worker
//! so per-request attribution survives parallelism.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use crate::metrics::Registry;

/// A shared, thread-safe per-request metric sink. Cloning the handle
/// shares the underlying registry; writes tee into it from any thread
/// where the handle is entered.
#[derive(Debug, Clone, Default)]
pub struct ScopeHandle {
    inner: Arc<Mutex<Registry>>,
}

impl ScopeHandle {
    pub fn new() -> ScopeHandle {
        ScopeHandle::default()
    }

    /// Installs this scope on the current thread until the guard drops.
    pub fn enter(&self) -> ScopeGuard {
        STACK.with(|s| s.borrow_mut().push(self.clone()));
        ScopeGuard { _priv: () }
    }

    /// Clones the metrics accumulated in this scope so far.
    pub fn snapshot(&self) -> Registry {
        self.inner.lock().unwrap().clone()
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.inner.lock().unwrap().counter_add(name, delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.inner.lock().unwrap().gauge_set(name, value);
    }

    fn hist_record(&self, name: &str, value: u64) {
        self.inner.lock().unwrap().hist_record(name, value);
    }
}

/// RAII guard returned by [`ScopeHandle::enter`]; pops the scope from
/// the current thread's stack on drop.
#[must_use = "the scope is active only while the guard lives"]
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

thread_local! {
    static STACK: RefCell<Vec<ScopeHandle>> = const { RefCell::new(Vec::new()) };
}

/// The scopes currently entered on this thread, outermost first. Pass
/// the result to worker threads and [`ScopeHandle::enter`] each handle
/// there so the workers' metric writes stay attributed to the request
/// that spawned them.
pub fn scope_handles() -> Vec<ScopeHandle> {
    STACK.with(|s| s.borrow().clone())
}

pub(crate) fn tee_counter(name: &str, delta: u64) {
    STACK.with(|s| {
        for h in s.borrow().iter() {
            h.counter_add(name, delta);
        }
    });
}

pub(crate) fn tee_gauge(name: &str, value: f64) {
    STACK.with(|s| {
        for h in s.borrow().iter() {
            h.gauge_set(name, value);
        }
    });
}

pub(crate) fn tee_hist(name: &str, value: u64) {
    STACK.with(|s| {
        for h in s.borrow().iter() {
            h.hist_record(name, value);
        }
    });
}

pub(crate) fn tee_hist_merge(name: &str, hist: &crate::hist::Histogram) {
    STACK.with(|s| {
        for h in s.borrow().iter() {
            h.inner
                .lock()
                .unwrap()
                .histograms
                .entry(name.to_string())
                .or_default()
                .merge(hist);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_tees_and_isolates() {
        let a = ScopeHandle::new();
        let b = ScopeHandle::new();
        {
            let _g = a.enter();
            crate::counter_add("scope.test.a", 2);
        }
        {
            let _g = b.enter();
            crate::counter_add("scope.test.b", 3);
        }
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.counters.get("scope.test.a"), Some(&2));
        assert_eq!(sa.counters.get("scope.test.b"), None);
        assert_eq!(sb.counters.get("scope.test.b"), Some(&3));
        assert_eq!(sb.counters.get("scope.test.a"), None);
        // The global registry saw both.
        assert!(crate::counter_get("scope.test.a") >= 2);
        assert!(crate::counter_get("scope.test.b") >= 3);
    }

    #[test]
    fn nested_scopes_both_receive() {
        let outer = ScopeHandle::new();
        let inner = ScopeHandle::new();
        {
            let _o = outer.enter();
            {
                let _i = inner.enter();
                crate::counter_add("scope.test.nested", 1);
                crate::gauge_set("scope.test.gauge", 7.5);
                crate::hist_record("scope.test.hist", 9);
            }
            crate::counter_add("scope.test.nested", 1);
        }
        assert_eq!(outer.snapshot().counters.get("scope.test.nested"), Some(&2));
        assert_eq!(inner.snapshot().counters.get("scope.test.nested"), Some(&1));
        assert_eq!(inner.snapshot().gauges.get("scope.test.gauge"), Some(&7.5));
        assert_eq!(inner.snapshot().histograms["scope.test.hist"].count, 1);
    }

    #[test]
    fn handles_cross_threads() {
        let scope = ScopeHandle::new();
        let handles = {
            let _g = scope.enter();
            scope_handles()
        };
        assert_eq!(handles.len(), 1);
        let moved = handles;
        std::thread::spawn(move || {
            let guards: Vec<_> = moved.iter().map(|h| h.enter()).collect();
            crate::counter_add("scope.test.worker", 5);
            drop(guards);
        })
        .join()
        .unwrap();
        assert_eq!(scope.snapshot().counters.get("scope.test.worker"), Some(&5));
    }
}
