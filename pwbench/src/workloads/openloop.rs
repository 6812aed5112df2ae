//! Open-loop reads: single queries submitted to a `Server` on a schedule,
//! each answer timed from the moment it was due.

use crate::report::progress_attempt;
use crate::stats::{ms_between, Rng};
use pathweaver_core::serve::{QueryResult, QueryTicket, Server, SubmitError};
use pathweaver_gpusim::PipelineTimeline;
use pathweaver_search::BatchStats;
use pathweaver_vector::VectorSet;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// What a read asks.
#[derive(Debug)]
pub enum Read {
    /// Row of the workload's query set (has ground truth).
    Query(usize),
    /// The vector of an id whose delete was acknowledged before submission.
    Probe { deleted: u32, vector: Vec<f32> },
}

/// A submitted read on its way to the collector.
#[derive(Debug)]
pub struct Pending {
    pub read: Read,
    pub due: Instant,
    pub submitted: Instant,
    pub ticket: Result<QueryTicket, SubmitError>,
}

/// A finished read.
#[derive(Debug)]
pub struct Answer {
    pub read: Read,
    pub due: Instant,
    pub submitted: Instant,
    pub done: Instant,
    pub result: Result<QueryResult, String>,
}

/// Submits query rows on `schedule` (offsets from `start`, with rows),
/// handing each ticket to `tx`. Returns the generator's lag behind each due
/// time, ms.
pub fn generate(
    server: &Server,
    queries: &VectorSet,
    schedule: &[(Duration, usize)],
    start: Instant,
    tx: &Sender<Pending>,
) -> Vec<f64> {
    let mut lags = Vec::with_capacity(schedule.len());
    for &(offset, row) in schedule {
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        progress_attempt(1);
        let submitted = Instant::now();
        let ticket = server.try_submit(queries.row(row));
        lags.push(ms_between(due, submitted));
        if tx.send(Pending { read: Read::Query(row), due, submitted, ticket }).is_err() {
            break;
        }
    }
    lags
}

/// Waits for every pending read in submission order.
pub fn collect(rx: &Receiver<Pending>, mut on_answer: impl FnMut(Answer)) {
    for p in rx {
        let result = match p.ticket {
            Ok(t) => t.wait().map_err(|e| e.to_string()),
            Err(e) => Err(format!("submission rejected: {e}")),
        };
        let done = Instant::now();
        on_answer(Answer { read: p.read, due: p.due, submitted: p.submitted, done, result });
    }
}

/// `count` Poisson arrivals at `rate`, cycling through the query rows from
/// `*next_row`.
pub fn schedule(
    rng: &mut Rng,
    rate: f64,
    count: usize,
    rows: usize,
    next_row: &mut usize,
) -> Vec<(Duration, usize)> {
    crate::stats::poisson_schedule(rng, rate, count)
        .into_iter()
        .map(|offset| {
            let row = *next_row % rows;
            *next_row += 1;
            (offset, row)
        })
        .collect()
}

/// Search work of the batches a server ran during one phase: the stage
/// records appended since `before` records, and each batch's statistics.
#[derive(Debug, Default)]
pub struct PhaseWork {
    pub timeline: PipelineTimeline,
    pub batches: BTreeMap<u64, BatchStats>,
}

impl PhaseWork {
    /// Takes the records `server` appended after its first `before`.
    pub fn take_timeline(&mut self, server: &Server, before: usize) {
        for r in server.timeline().records().iter().skip(before) {
            self.timeline.push(*r);
        }
    }

    /// Merged statistics of every distinct batch.
    pub fn stats(&self) -> BatchStats {
        let mut s = BatchStats::default();
        for b in self.batches.values() {
            s.merge(b);
        }
        s
    }
}
