//! Admission control and load shedding.
//!
//! A serving host cannot run unboundedly many pipelines at once: beyond
//! the run-slot capacity, extra submissions queue, and beyond the queue
//! bound they are *shed* with a structured [`PzError::Overloaded`] rather
//! than allowed to hang or to drag every admitted run's latency down.
//! Shedding is deadline-aware on the way in (a run whose predicted queue
//! wait already blows its deadline is refused immediately — cheaper for
//! everyone than admitting a run that must fail) and on the way through (a
//! queued run whose deadline passes while it waits is shed on wake-up).
//!
//! The controller implements [`pz_core::context::AdmissionGate`], so the
//! executor consults it at the top of every run and releases the slot via
//! RAII on every exit path.

use pz_core::context::AdmissionGate;
use pz_core::error::{PzError, PzResult};
use pz_llm::VirtualClock;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

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
    /// EWMA of completed run durations, virtual seconds.
    pub ewma_run_secs: f64,
}

struct AdmState {
    running: usize,
    queue: VecDeque<u64>,
    /// Ticket → admission time, for duration tracking.
    started_at: HashMap<u64, f64>,
    next_ticket: u64,
    ewma_run_secs: f64,
    stats: AdmissionStats,
    /// Members of an announced batch that have not reached the gate yet
    /// (see [`AdmissionController::expect_batch`]).
    batch_pending: usize,
}

impl AdmState {
    /// One batch member is accounted for; true when it was the last.
    fn batch_member_arrived(&mut self) -> bool {
        let was_pending = self.batch_pending > 0;
        self.batch_pending = self.batch_pending.saturating_sub(1);
        was_pending && self.batch_pending == 0
    }
}

/// Bounded-queue admission controller with deadline-aware shedding.
/// Clones share state.
#[derive(Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// The host's shared virtual clock: queued runs consult it on wake-up
    /// to detect a deadline that passed while the runs ahead advanced time.
    clock: VirtualClock,
    state: Arc<Mutex<AdmState>>,
    cond: Arc<Condvar>,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig, clock: VirtualClock) -> Self {
        let config = AdmissionConfig {
            max_concurrent_runs: config.max_concurrent_runs.max(1),
            ..config
        };
        Self {
            config,
            clock,
            state: Arc::new(Mutex::new(AdmState {
                running: 0,
                queue: VecDeque::new(),
                started_at: HashMap::new(),
                next_ticket: 1,
                ewma_run_secs: config.expected_run_secs,
                stats: AdmissionStats::default(),
                batch_pending: 0,
            })),
            cond: Arc::new(Condvar::new()),
        }
    }

    /// Predicted wait from the back of a queue of depth `depth`: each slot
    /// turns over one queued run per `ewma` seconds on average.
    fn predicted_wait_secs(&self, ewma: f64, depth: usize) -> f64 {
        ewma * (depth as f64 + 1.0) / self.config.max_concurrent_runs as f64
    }

    /// Announce `n` submissions that arrive *together*. Until every one of
    /// them has reached the gate (or been written off with
    /// [`Self::batch_member_gone`]) admitted runs are held at it, so the
    /// batch is admitted, queued and shed as the one burst it is — however
    /// fast its first runs are and however the OS staggers its threads.
    /// Without this, how much a host sheds under overload is a race
    /// between run length and thread wake-up.
    pub fn expect_batch(&self, n: usize) {
        self.state.lock().unwrap().batch_pending += n;
    }

    /// A batch member ended without ever reaching the gate (its plan failed
    /// to optimize, its thread panicked): stop holding the batch for it.
    pub fn batch_member_gone(&self) {
        if self.state.lock().unwrap().batch_member_arrived() {
            self.cond.notify_all();
        }
    }

    /// Snapshot of admission counters.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.state.lock().unwrap();
        AdmissionStats {
            ewma_run_secs: st.ewma_run_secs,
            ..st.stats
        }
    }

    /// Runs currently holding a slot.
    pub fn running(&self) -> usize {
        self.state.lock().unwrap().running
    }
}

impl AdmissionGate for AdmissionController {
    fn begin(&self, now_secs: f64, deadline_at_secs: Option<f64>) -> PzResult<u64> {
        let mut st = self.state.lock().unwrap();
        if st.batch_member_arrived() {
            self.cond.notify_all();
        }
        // Fast path: a free slot and nobody queued ahead.
        if st.running < self.config.max_concurrent_runs && st.queue.is_empty() {
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.running += 1;
            st.started_at.insert(ticket, now_secs);
            st.stats.admitted += 1;
            // Hold the slot, not the run, until the rest of the batch is in.
            drop(self.cond.wait_while(st, |st| st.batch_pending > 0).unwrap());
            return Ok(ticket);
        }
        // Shed: bounded queue.
        if st.queue.len() >= self.config.max_queued {
            st.stats.shed_queue_full += 1;
            let retry = self.predicted_wait_secs(st.ewma_run_secs, st.queue.len());
            return Err(PzError::Overloaded {
                reason: format!("queue full ({} waiting)", st.queue.len()),
                retry_after_secs: retry.max(1.0),
            });
        }
        // Shed: the predicted wait from the back of the queue already blows
        // the caller's deadline — admitting it would only waste capacity.
        let predicted = self.predicted_wait_secs(st.ewma_run_secs, st.queue.len());
        if let Some(d) = deadline_at_secs {
            if now_secs + predicted >= d {
                st.stats.shed_deadline += 1;
                return Err(PzError::Overloaded {
                    reason: format!(
                        "predicted queue wait {predicted:.1}s blows deadline in {:.1}s",
                        d - now_secs
                    ),
                    retry_after_secs: predicted.max(1.0),
                });
            }
        }
        // Queue (FIFO) and wait for a slot.
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        let depth = st.queue.len();
        st.stats.max_queue_depth = st.stats.max_queue_depth.max(depth);
        loop {
            if st.queue.front() == Some(&ticket) && st.running < self.config.max_concurrent_runs {
                st.queue.pop_front();
                st.running += 1;
                st.started_at.insert(ticket, now_secs);
                st.stats.admitted += 1;
                // The next queued run may also fit (slots free in bursts).
                self.cond.notify_all();
                return Ok(ticket);
            }
            st = self.cond.wait(st).unwrap();
            // Deadline passed while queued (the shared virtual clock is
            // advanced by the runs ahead of us): shed on wake.
            if let Some(d) = deadline_at_secs {
                if self.clock.now_secs() >= d {
                    st.queue.retain(|t| *t != ticket);
                    st.stats.shed_deadline += 1;
                    self.cond.notify_all();
                    return Err(PzError::Overloaded {
                        reason: "deadline passed while queued".into(),
                        retry_after_secs: st.ewma_run_secs.max(1.0),
                    });
                }
            }
        }
    }

    fn end(&self, ticket: u64, now_secs: f64) {
        let mut st = self.state.lock().unwrap();
        st.running = st.running.saturating_sub(1);
        if let Some(t0) = st.started_at.remove(&ticket) {
            let dur = (now_secs - t0).max(0.0);
            // EWMA with alpha 0.3: responsive to load shifts, stable
            // against one outlier run.
            st.ewma_run_secs = 0.7 * st.ewma_run_secs + 0.3 * dur;
        }
        drop(st);
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(max_runs: usize, max_queued: usize) -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig {
                max_concurrent_runs: max_runs,
                max_queued,
                expected_run_secs: 10.0,
            },
            VirtualClock::new(),
        )
    }

    #[test]
    fn admits_up_to_capacity_then_sheds_past_queue_bound() {
        let g = gate(2, 1);
        let a = g.begin(0.0, None).unwrap();
        let b = g.begin(0.0, None).unwrap();
        assert_eq!(g.running(), 2);
        // Third submission would queue; we shed the *fourth* by filling the
        // queue from another thread and submitting once more.
        let g2 = g.clone();
        let queued = std::thread::spawn(move || g2.begin(0.0, None));
        while g.state.lock().unwrap().queue.is_empty() {
            std::thread::yield_now();
        }
        let err = g.begin(0.0, None).unwrap_err();
        assert!(err.is_overloaded(), "{err}");
        assert!(err.to_string().contains("queue full"), "{err}");
        g.end(a, 12.0);
        let c = queued.join().unwrap().unwrap();
        g.end(b, 15.0);
        g.end(c, 20.0);
        let s = g.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.shed_queue_full, 1);
        assert_eq!(g.running(), 0);
        // EWMA moved off the 10s seed after three completions.
        assert!(s.ewma_run_secs > 10.0, "{}", s.ewma_run_secs);
    }

    /// An announced batch splits into slots, queue and sheds by capacity
    /// alone — even when a run takes no time at all, so the first ones
    /// would otherwise be long gone before the last submission arrives.
    #[test]
    fn announced_batch_is_admitted_as_one_burst() {
        for _ in 0..20 {
            let g = gate(2, 2);
            g.expect_batch(8);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        if let Ok(ticket) = g.begin(0.0, None) {
                            g.end(ticket, 1.0);
                        }
                    });
                }
            });
            let stats = g.stats();
            assert_eq!((stats.admitted, stats.shed_queue_full), (4, 4));
            assert_eq!(stats.max_queue_depth, 2);
            assert_eq!(g.running(), 0);
        }
    }

    #[test]
    fn batch_member_that_never_arrives_is_written_off() {
        let g = gate(2, 2);
        g.expect_batch(2);
        let g2 = g.clone();
        let held = std::thread::spawn(move || g2.begin(0.0, None));
        while g.running() == 0 {
            std::thread::yield_now();
        }
        // The slot is taken but the run is held for the second member…
        assert!(!held.is_finished());
        // …until that member is known not to be coming.
        g.batch_member_gone();
        let ticket = held.join().unwrap().unwrap();
        g.end(ticket, 1.0);
        // With no batch announced, nothing is ever held.
        let ticket = g.begin(1.0, None).unwrap();
        g.end(ticket, 2.0);
    }

    #[test]
    fn deadline_aware_shed_refuses_unmeetable_runs_immediately() {
        let g = gate(1, 8);
        let _hold = g.begin(0.0, None).unwrap();
        // Predicted wait with one slot and empty queue is ewma = 10s; a
        // 5s deadline cannot be met from the back of the queue.
        let err = g.begin(0.0, Some(5.0)).unwrap_err();
        assert!(err.is_overloaded());
        assert!(err.to_string().contains("deadline"), "{err}");
        assert_eq!(g.stats().shed_deadline, 1);
        // A roomy deadline queues fine.
        let g2 = g.clone();
        let h = std::thread::spawn(move || g2.begin(0.0, Some(100.0)));
        while g.state.lock().unwrap().queue.is_empty() {
            std::thread::yield_now();
        }
        g.end(_hold, 1.0);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn fifo_order_among_queued_runs() {
        let g = gate(1, 8);
        let hold = g.begin(0.0, None).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for i in 0..3u64 {
                let g = g.clone();
                let order = order.clone();
                s.spawn(move || {
                    // Serialize enqueue order by spinning until it's our turn
                    // to submit.
                    loop {
                        let st = g.state.lock().unwrap();
                        if st.queue.len() as u64 == i {
                            break;
                        }
                        drop(st);
                        std::thread::yield_now();
                    }
                    let t = g.begin(0.0, None).unwrap();
                    order.lock().unwrap().push(i);
                    g.end(t, 0.0);
                });
            }
            while g.state.lock().unwrap().queue.len() < 3 {
                std::thread::yield_now();
            }
            g.end(hold, 0.0);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }
}
