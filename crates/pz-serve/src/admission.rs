//! Admission control and load shedding.
//!
//! A serving host cannot run unboundedly many pipelines at once: beyond
//! the run-slot capacity, extra submissions queue, and beyond the queue
//! bound they are *shed* with a structured [`PzError::Overloaded`] rather
//! than allowed to hang or to drag every admitted run's latency down.
//! Shedding is deadline-aware on the way in (a run whose predicted queue
//! wait already blows its deadline is refused immediately — cheaper for
//! everyone than admitting a run that must fail) and on the way through (a
//! queued run whose deadline has passed when a slot frees is shed instead
//! of promoted).
//!
//! The controller is a state machine on the virtual clock: [`arrive`]
//! and [`finish`] take the time and return what they decided, and never
//! block. `ServeHost::serve` drives it from one thread. It also
//! implements [`pz_core::context::AdmissionGate`] for live callers
//! (`ServeHost::run_session`): the executor consults it at the top of
//! every run and releases the slot via RAII on every exit path, and a
//! live caller told "queued" is the one thing that waits — until another
//! run's `finish` admits or sheds it.
//!
//! [`arrive`]: AdmissionController::arrive
//! [`finish`]: AdmissionController::finish

use parking_lot::{Mutex, MutexGuard};
use pz_core::context::AdmissionGate;
use pz_core::error::{PzError, PzResult};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, PoisonError};

/// Capacity limits for a serving host.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Runs executing simultaneously. Must be ≥ 1.
    pub max_concurrent_runs: usize,
    /// Runs allowed to wait for a slot; submissions past this are shed.
    pub max_queued: usize,
    /// Seed for the expected run duration (virtual seconds) before any
    /// run has completed; the controller then tracks an EWMA.
    pub expected_run_secs: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_concurrent_runs: 4,
            max_queued: 8,
            expected_run_secs: 30.0,
        }
    }
}

/// Counters describing admissions and sheds so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct AdmissionStats {
    pub admitted: u64,
    /// Shed because the queue was full.
    pub shed_queue_full: u64,
    /// Shed because the (predicted or actual) queue wait blew the deadline.
    pub shed_deadline: u64,
    /// High-water mark of queued runs.
    pub max_queue_depth: usize,
    /// EWMA of how long completed runs held their slot (admission to
    /// finish), virtual seconds: the turnover a queued run waits on.
    pub ewma_run_secs: f64,
}

/// What [`AdmissionController::arrive`] decided for one submission.
#[derive(Debug)]
pub enum Decision {
    /// The run holds a slot under this ticket; `finish` it when it ends.
    Admitted(u64),
    /// The run waits under this ticket; a later `finish` admits or sheds it.
    Queued(u64),
    /// Refused with a structured [`PzError::Overloaded`].
    Shed(PzError),
}

#[derive(Default)]
struct AdmState {
    config: AdmissionConfig,
    /// Ticket → admission time of every run holding a slot.
    holders: HashMap<u64, f64>,
    /// Tickets waiting for a slot, first come first served, each with its
    /// absolute deadline.
    queue: VecDeque<(u64, Option<f64>)>,
    next_ticket: u64,
    stats: AdmissionStats,
}

impl AdmState {
    fn ticket(&mut self) -> u64 {
        self.next_ticket += 1;
        self.next_ticket
    }

    fn admit(&mut self, ticket: u64, now_secs: f64) {
        self.holders.insert(ticket, now_secs);
        self.stats.admitted += 1;
    }

    /// The error a queued run gets when its deadline passes before a slot
    /// frees.
    fn passed_while_queued(&self) -> PzError {
        PzError::Overloaded {
            reason: "deadline passed while queued".into(),
            retry_after_secs: self.stats.ewma_run_secs.max(1.0),
        }
    }

    fn arrive(&mut self, now_secs: f64, deadline_at_secs: Option<f64>) -> Decision {
        let config = self.config;
        // A free slot and nobody queued ahead.
        if self.holders.len() < config.max_concurrent_runs && self.queue.is_empty() {
            let ticket = self.ticket();
            self.admit(ticket, now_secs);
            return Decision::Admitted(ticket);
        }
        // Predicted wait from the back of the queue: each slot turns over
        // one queued run per EWMA run duration on average.
        let waiting = self.queue.len();
        let predicted =
            self.stats.ewma_run_secs * (waiting as f64 + 1.0) / config.max_concurrent_runs as f64;
        if waiting >= config.max_queued {
            self.stats.shed_queue_full += 1;
            return Decision::Shed(PzError::Overloaded {
                reason: format!("queue full ({waiting} waiting)"),
                retry_after_secs: predicted.max(1.0),
            });
        }
        // The predicted wait already blows the caller's deadline:
        // admitting it would only waste capacity.
        if let Some(d) = deadline_at_secs.filter(|d| now_secs + predicted >= *d) {
            self.stats.shed_deadline += 1;
            return Decision::Shed(PzError::Overloaded {
                reason: format!(
                    "predicted queue wait {predicted:.1}s blows deadline in {:.1}s",
                    d - now_secs
                ),
                retry_after_secs: predicted.max(1.0),
            });
        }
        let ticket = self.ticket();
        self.queue.push_back((ticket, deadline_at_secs));
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        Decision::Queued(ticket)
    }

    fn finish(&mut self, ticket: u64, now_secs: f64) -> Vec<(u64, PzResult<()>)> {
        // Only a ticket that holds a slot frees one: a second `finish`, or
        // one for a ticket never admitted, changes nothing.
        let Some(started) = self.holders.remove(&ticket) else {
            return Vec::new();
        };
        // EWMA with alpha 0.3: responsive to load shifts, stable against
        // one outlier run.
        let ewma = &mut self.stats.ewma_run_secs;
        *ewma = 0.7 * *ewma + 0.3 * (now_secs - started).max(0.0);
        let mut decided = Vec::new();
        while self.holders.len() < self.config.max_concurrent_runs {
            let Some((next, deadline)) = self.queue.pop_front() else {
                break;
            };
            if deadline.is_some_and(|d| now_secs >= d) {
                self.stats.shed_deadline += 1;
                decided.push((next, Err(self.passed_while_queued())));
            } else {
                self.admit(next, now_secs);
                decided.push((next, Ok(())));
            }
        }
        decided
    }
}

/// Bounded-queue admission controller with deadline-aware shedding.
/// Clones share state.
#[derive(Clone)]
pub struct AdmissionController {
    state: Arc<Mutex<AdmState>>,
    /// Wakes live callers queued in [`AdmissionGate::begin`] once a
    /// `finish` has decided their ticket.
    decided: Arc<Condvar>,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> Self {
        let config = AdmissionConfig {
            max_concurrent_runs: config.max_concurrent_runs.max(1),
            ..config
        };
        let stats = AdmissionStats {
            ewma_run_secs: config.expected_run_secs,
            ..AdmissionStats::default()
        };
        Self {
            state: Arc::new(Mutex::new(AdmState {
                config,
                stats,
                ..AdmState::default()
            })),
            decided: Arc::new(Condvar::new()),
        }
    }

    /// A submission at `now_secs` with an optional absolute deadline: it
    /// takes a free slot, joins the queue, or is shed.
    pub fn arrive(&self, now_secs: f64, deadline_at_secs: Option<f64>) -> Decision {
        self.state.lock().arrive(now_secs, deadline_at_secs)
    }

    /// The run holding `ticket` ended at `now_secs`. Each slot it frees
    /// promotes the queue head, or sheds the head if its deadline has
    /// passed; returns those decisions in queue order.
    pub fn finish(&self, ticket: u64, now_secs: f64) -> Vec<(u64, PzResult<()>)> {
        let decided = self.state.lock().finish(ticket, now_secs);
        if !decided.is_empty() {
            self.decided.notify_all();
        }
        decided
    }

    /// Block until a `finish` elsewhere decides `ticket`, which
    /// [`Self::arrive`] queued. Only a run queued behind live sessions on
    /// other threads ever waits: a ticket already decided returns at once.
    pub fn wait(&self, ticket: u64) -> PzResult<()> {
        self.wait_locked(self.state.lock(), ticket)
    }

    fn wait_locked(&self, st: MutexGuard<'_, AdmState>, ticket: u64) -> PzResult<()> {
        let st = (self.decided)
            .wait_while(st, |st| st.queue.iter().any(|(t, _)| *t == ticket))
            .unwrap_or_else(PoisonError::into_inner);
        let admitted = st.holders.contains_key(&ticket);
        admitted
            .then_some(())
            .ok_or_else(|| st.passed_while_queued())
    }

    /// Snapshot of admission counters.
    pub fn stats(&self) -> AdmissionStats {
        self.state.lock().stats
    }
}

impl AdmissionGate for AdmissionController {
    fn begin(&self, now_secs: f64, deadline_at_secs: Option<f64>) -> PzResult<u64> {
        let mut st = self.state.lock();
        match st.arrive(now_secs, deadline_at_secs) {
            Decision::Admitted(ticket) => Ok(ticket),
            Decision::Shed(e) => Err(e),
            // Still under the lock, so no `finish` can slip between the
            // decision and the wait.
            Decision::Queued(ticket) => self.wait_locked(st, ticket).map(|()| ticket),
        }
    }

    fn end(&self, ticket: u64, now_secs: f64) {
        self.finish(ticket, now_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{ServeConfig, ServeHost, SessionJob};
    use crate::tenant::TenantSpec;
    use pz_core::prelude::{Dataset, MemorySource, Schema};

    fn gate(max_runs: usize, max_queued: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            max_concurrent_runs: max_runs,
            max_queued,
            expected_run_secs: 10.0,
        })
    }

    fn admitted(d: Decision) -> u64 {
        match d {
            Decision::Admitted(t) => t,
            other => panic!("expected admission, got {other:?}"),
        }
    }

    fn queued(d: Decision) -> u64 {
        match d {
            Decision::Queued(t) => t,
            other => panic!("expected a queue place, got {other:?}"),
        }
    }

    fn shed(d: Decision) -> PzError {
        match d {
            Decision::Shed(e) => e,
            other => panic!("expected a shed, got {other:?}"),
        }
    }

    /// A host of one tenant whose `docs` dataset scans without a model
    /// call: its runs take no virtual time at all.
    fn host(max_runs: usize, max_queued: usize) -> ServeHost {
        let mut host = ServeHost::new(ServeConfig {
            admission: AdmissionConfig {
                max_concurrent_runs: max_runs,
                max_queued,
                expected_run_secs: 10.0,
            },
            shared_cache: true,
        });
        host.add_tenant(TenantSpec::new("t"));
        let items = vec![("a.txt".to_string(), "text".to_string())];
        let source = MemorySource::new("docs", Schema::text_file(), items);
        host.session_ctx("t")
            .expect("tenant just added")
            .registry
            .register(Arc::new(source));
        host
    }

    fn scan(session: &str, dataset: &str) -> SessionJob {
        let plan = Dataset::source(dataset).build().expect("static plan");
        SessionJob::new("t", session, plan)
    }

    #[test]
    fn admits_up_to_capacity_then_sheds_past_queue_bound() {
        let g = gate(2, 1);
        let a = admitted(g.arrive(0.0, None));
        let b = admitted(g.arrive(0.0, None));
        let c = queued(g.arrive(0.0, None));
        let err = shed(g.arrive(0.0, None));
        assert!(err.is_overloaded(), "{err}");
        assert!(err.to_string().contains("queue full"), "{err}");
        // The first slot to free goes to the queued run.
        assert_eq!(g.finish(a, 12.0).len(), 1);
        assert!(g.finish(b, 15.0).is_empty());
        assert!(g.finish(c, 20.0).is_empty());
        let s = g.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.shed_queue_full, 1);
        // EWMA moved off the 10s seed after three completions.
        assert!(s.ewma_run_secs > 10.0, "{}", s.ewma_run_secs);
        // Every slot is free again.
        admitted(g.arrive(20.0, None));
        admitted(g.arrive(20.0, None));
    }

    /// A batch arriving at one instant splits into slots, queue and sheds
    /// by capacity alone — even when a run takes no time at all.
    #[test]
    fn announced_batch_is_admitted_as_one_burst() {
        let host = host(2, 2);
        let jobs = (0..8).map(|i| scan(&format!("s{i}"), "docs")).collect();
        let report = host.serve(jobs);
        let shed: Vec<bool> = report.outcomes.iter().map(|o| o.shed()).collect();
        assert_eq!(shed, [false, false, false, false, true, true, true, true]);
        let sessions: Vec<&str> = report.outcomes.iter().map(|o| o.session.as_str()).collect();
        assert_eq!(sessions, ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"]);
        let stats = report.admission;
        assert_eq!((stats.admitted, stats.shed_queue_full), (4, 4));
        assert_eq!(stats.max_queue_depth, 2);
        // No slot is left held.
        let g = host.admission();
        admitted(g.arrive(0.0, None));
        admitted(g.arrive(0.0, None));
    }

    /// A job that fails to optimize gives its slot back like any other
    /// run: the rest of its batch runs.
    #[test]
    fn batch_member_that_never_arrives_is_written_off() {
        let host = host(1, 2);
        let jobs = vec![
            scan("s0", "docs"),
            scan("s1", "no-such-dataset"),
            scan("s2", "docs"),
        ];
        let report = host.serve(jobs);
        let ok: Vec<bool> = report.outcomes.iter().map(|o| o.result.is_ok()).collect();
        assert_eq!(ok, [true, false, true]);
        assert!(!report.outcomes[1].shed());
        assert_eq!(report.admission.admitted, 3);
        admitted(host.admission().arrive(0.0, None));
    }

    #[test]
    fn deadline_aware_shed_refuses_unmeetable_runs_immediately() {
        let g = gate(1, 8);
        let hold = admitted(g.arrive(0.0, None));
        // Predicted wait with one slot and empty queue is ewma = 10s; a
        // 5s deadline cannot be met from the back of the queue.
        let err = shed(g.arrive(0.0, Some(5.0)));
        assert!(err.is_overloaded());
        assert!(err.to_string().contains("deadline"), "{err}");
        assert_eq!(g.stats().shed_deadline, 1);
        // A roomy deadline queues fine and is admitted when the slot frees.
        let roomy = queued(g.arrive(0.0, Some(100.0)));
        let decided = g.finish(hold, 1.0);
        assert!(matches!(decided[..], [(t, Ok(()))] if t == roomy));
        // A queued run whose deadline passes before a slot frees is shed.
        let late = queued(g.arrive(1.0, Some(50.0)));
        let decided = g.finish(roomy, 60.0);
        assert!(matches!(&decided[..], [(t, Err(e))] if *t == late && e.is_overloaded()));
        assert_eq!(g.stats().shed_deadline, 2);
        // A decided ticket does not wait.
        assert!(g.wait(late).is_err());
    }

    #[test]
    fn fifo_order_among_queued_runs() {
        let g = gate(1, 8);
        let mut running = admitted(g.arrive(0.0, None));
        let waiting: Vec<u64> = (0..3).map(|_| queued(g.arrive(0.0, None))).collect();
        let mut order = Vec::new();
        for now in 1..=3 {
            let decided = g.finish(running, f64::from(now));
            let [(next, Ok(()))] = decided[..] else {
                panic!("one promotion per freed slot: {decided:?}");
            };
            order.push(next);
            running = next;
        }
        assert_eq!(order, waiting);
    }

    /// Ending a ticket that holds no slot — a second end, or a ticket
    /// never issued — frees nothing another run holds.
    #[test]
    fn ending_a_ticket_without_a_slot_frees_nothing() {
        let g = gate(1, 1);
        let a = g.begin(0.0, None).unwrap();
        g.end(a, 1.0);
        let b = g.begin(1.0, None).unwrap();
        let before = g.stats();
        g.end(a, 2.0);
        g.end(999, 2.0);
        assert_eq!(g.stats(), before);
        // b still holds the only slot: the next arrival queues, as it would
        // have before the stray ends.
        queued(g.arrive(2.0, None));
        g.end(b, 3.0);
    }
}
