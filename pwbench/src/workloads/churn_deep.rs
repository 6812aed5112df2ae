//! `churn_deep`: the Deep-like index made durable (segment and WAL in a
//! scratch directory), wrapped in `ConcurrentIndex` with the background
//! maintainer running, and served through `Server::new_dynamic`.
//!
//! Phase 1 is a closed-loop bulk ingest. Phase 2 offers reads at a fixed
//! Poisson rate beside writes on a fixed schedule (inserts alternating with
//! deletes of the oldest id the benchmark inserted). Inserted rows are data
//! rows shifted away from every query, so the static ground truth stays
//! exact. After each acknowledged delete a probe read asks for the deleted
//! vector itself; no read submitted after that acknowledgement may return
//! the id. A closing burst of every query, all due at once, carries the
//! simulated clock.

use super::openloop::{self, Pending, PhaseWork, Read};
use super::{
    deep_config, deep_data, deep_params, setup_failed, translated, Ctx, EndToEnd, TempDir,
    DEEP_RECALL_FLOOR, SETUPS,
};
use crate::check::{check_hits, recall_at_10, Tally};
use crate::layers::{self, Input, Measured, SearchSource};
use crate::report::{progress_attempt, progress_done, Outcome};
use crate::stats::{cpu_ms, ms_between, percentile, repeated_setup, Rng};
use pathweaver_core::serve::{ServeConfig, Server};
use pathweaver_core::{ConcurrentIndex, DurableIndex, MaintainerHandle, PathWeaverIndex};
use pathweaver_vector::VectorSet;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of the run spent in the bulk-ingest phase.
const INGEST_SHARE: f64 = 0.3;
/// Inserts per ingest-rate sample; `throughput` is their median rate.
const INGEST_CHUNK: u64 = 25;
/// Windows the phase-2 read latencies are split into.
const WINDOWS: usize = 5;
/// Phase-2 offered read rate, queries/s.
const READ_QPS: f64 = 200.0;
/// Phase-2 write rate, writes/s (half inserts, half deletes).
const WRITE_RATE: f64 = 40.0;
/// Tombstone share at which the maintainer rebuilds a shard.
const REBUILD_THRESHOLD: f64 = 0.3;
/// Maintainer period.
const MAINTAIN_MS: f64 = 100.0;

/// Vectors this run inserted, by acknowledged id.
type Inserted = Mutex<HashMap<u32, Vec<f32>>>;
/// When each delete was acknowledged, by id.
type DeletedAt = Mutex<HashMap<u32, Instant>>;

/// One set-up: the durable concurrent index, its maintainer and server.
struct Churn {
    index: Arc<ConcurrentIndex>,
    maintainer: Option<MaintainerHandle>,
    server: Option<Server>,
    dir: PathBuf,
}

impl Churn {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server lives until drop")
    }
}

impl Drop for Churn {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        if let Some(m) = self.maintainer.take() {
            m.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn set_up(
    base: &VectorSet,
    tmp: &TempDir,
    i: usize,
    serve_config: &ServeConfig,
) -> Result<(Churn, pathweaver_graph::BuildReport), String> {
    let index = PathWeaverIndex::build(base, &deep_config()).map_err(|e| e.to_string())?;
    let report = index.build_report.clone();
    let dir = tmp.path().join(format!("setup-{i}"));
    let durable = DurableIndex::create(index, &dir).map_err(|e| e.to_string())?;
    let index = Arc::new(ConcurrentIndex::durable(durable));
    let mut churn = Churn { index, maintainer: None, server: None, dir };
    churn.maintainer = Some(
        churn.index.spawn_maintainer(REBUILD_THRESHOLD, MAINTAIN_MS).map_err(|e| e.to_string())?,
    );
    churn.server = Some(
        Server::new_dynamic(Arc::clone(&churn.index), serve_config.clone())
            .map_err(|e| e.to_string())?,
    );
    Ok((churn, report))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let w = deep_data(ctx.seed);
    let params = deep_params();
    let serve_config = ServeConfig { params, queue_capacity: 1 << 20, ..ServeConfig::default() };
    let tmp = match TempDir::new("churn_deep") {
        Ok(t) => t,
        Err(e) => return setup_failed("scratch directory", e),
    };
    let (built, setup_s) = repeated_setup(SETUPS, |i| set_up(&w.base, &tmp, i, &serve_config));
    let (churn, build_report) = match built {
        Ok(b) => b,
        Err(e) => return setup_failed("build, DurableIndex::create, maintainer and server", e),
    };
    let server = churn.server();
    let n = w.base.len();
    let mut rng = Rng::new(ctx.seed, 0xc4a7);
    let mut next_row = 0;
    let mut tally = Tally::default();
    let inserted: Inserted = Mutex::new(HashMap::new());
    let deleted_at: DeletedAt = Mutex::new(HashMap::new());
    let mut live: VecDeque<u32> = VecDeque::new();

    // Untimed warm-up reads.
    for row in 0..100 {
        progress_attempt(1);
        let verdict = server
            .try_submit(w.queries.row(row))
            .map_err(|e| e.to_string())
            .and_then(|t| t.wait().map_err(|e| e.to_string()))
            .and_then(|r| super::check_base(&w.base, w.queries.row(row), &r.hits, params.k));
        tally.record(verdict, None);
    }
    pathweaver_obs::reset();
    let cpu0 = cpu_ms();
    let t0 = Instant::now();

    // Phase 1: closed-loop bulk ingest.
    let mut measured = Measured::default();
    let ingest_until = Duration::from_secs_f64(ctx.seconds * INGEST_SHARE);
    let mut ingested = 0u64;
    let mut chunk_qps = Vec::new();
    let mut chunk_start = Instant::now();
    while t0.elapsed() < ingest_until {
        let v = translated(w.base.row(rng.below(n)));
        progress_attempt(1);
        let t = Instant::now();
        match churn.index.insert(&v) {
            Ok(id) => {
                measured.insert_ms.push(ms_between(t, Instant::now()));
                progress_done((id as usize) >= n);
                inserted.lock().expect("no panics while held").insert(id, v);
                live.push_back(id);
                ingested += 1;
                if ingested.is_multiple_of(INGEST_CHUNK) {
                    chunk_qps.push(INGEST_CHUNK as f64 / chunk_start.elapsed().as_secs_f64());
                    chunk_start = Instant::now();
                }
            }
            Err(e) => {
                progress_done(false);
                tally.first_error.get_or_insert(format!("insert: {e}"));
            }
        }
    }
    let ingest_s = t0.elapsed().as_secs_f64();

    // Phase 2: reads beside writes.
    let phase_s = (ctx.seconds - ingest_s).max(0.5);
    let read_count = (READ_QPS * phase_s) as usize;
    let reads = openloop::schedule(&mut rng, READ_QPS, read_count, w.queries.len(), &mut next_row);
    let writes = (WRITE_RATE * phase_s) as usize;
    let mut latency_ms = Vec::new();
    let mut work = PhaseWork::default();
    let mut answered = 0u64;
    let before = server.timeline().records().len();
    let (tx, rx) = std::sync::mpsc::channel::<Pending>();
    let start = Instant::now();
    let writer_rng = Rng::new(ctx.seed, 0x3717e);
    let (lags, written) = std::thread::scope(|s| {
        let (queries, reader_tx) = (&w.queries, tx.clone());
        let generator =
            s.spawn(move || openloop::generate(server, queries, &reads, start, &reader_tx));
        let writer = s.spawn(|| {
            write_phase(
                &churn.index,
                server,
                &w.base,
                writes,
                start,
                writer_rng,
                live,
                (&inserted, &deleted_at),
                tx,
            )
        });
        openloop::collect(&rx, |a| {
            answered += 1;
            let res = match a.result {
                Ok(r) => r,
                Err(e) => return tally.record(Err(e), None),
            };
            work.batches.insert(res.batch_id, res.stats);
            let query: &[f32] = match &a.read {
                Read::Query(row) => w.queries.row(*row),
                Read::Probe { vector, .. } => vector,
            };
            // An id published by an insert whose acknowledgement the writer
            // has not recorded yet: wait (bounded) for the record.
            for &(_, id) in &res.hits {
                for _ in 0..1000 {
                    if (id as usize) < n
                        || inserted.lock().expect("no panics while held").contains_key(&id)
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let verdict = {
                let ins = inserted.lock().expect("no panics while held");
                check_hits(query, &res.hits, params.k, |id| {
                    if (id as usize) < n {
                        Some(w.base.row(id as usize))
                    } else {
                        ins.get(&id).map(Vec::as_slice)
                    }
                })
            }
            .and_then(|()| {
                if let Read::Probe { deleted, .. } = a.read {
                    if res.hits.iter().any(|&(_, id)| id == deleted) {
                        return Err(format!("probe returned deleted id {deleted}"));
                    }
                }
                let del = deleted_at.lock().expect("no panics while held");
                let seen = res
                    .hits
                    .iter()
                    .find(|(_, id)| del.get(id).is_some_and(|&at| at <= a.submitted));
                match seen {
                    Some((_, id)) => {
                        Err(format!("id {id} returned after its delete was acknowledged"))
                    }
                    None => Ok(()),
                }
            });
            match a.read {
                Read::Query(row) => {
                    latency_ms.push(ms_between(a.due, a.done));
                    tally.record(verdict, Some(recall_at_10(&w.ground_truth, row, &res.hits)));
                }
                Read::Probe { .. } => tally.record(verdict, None),
            }
        });
        let lags = generator.join().unwrap_or_default();
        let written = writer.join().unwrap_or_else(|_| Written::panicked());
        (lags, written)
    });
    work.take_timeline(server, before);
    let phase_wall_s = start.elapsed().as_secs_f64();

    // A closing burst of every query, all due at once, through the churned
    // index: its full micro-batches carry the simulated clock.
    let phase_answered = answered;
    // The per-layer window ends with phase 2, before the closing burst.
    let window = pathweaver_obs::global_snapshot();
    let mut burst = PhaseWork::default();
    let before = server.timeline().records().len();
    progress_attempt(w.queries.len() as u64);
    match server.submit_batch(&w.queries) {
        Ok(tickets) => {
            for (row, t) in tickets.into_iter().enumerate() {
                let verdict = t.wait().map_err(|e| e.to_string()).and_then(|r| {
                    super::check_base(&w.base, w.queries.row(row), &r.hits, params.k)
                });
                tally.record(verdict, None);
            }
        }
        Err(e) => {
            for _ in 0..w.queries.len() {
                tally.record(Err(format!("burst submission rejected: {e}")), None);
            }
        }
    }
    burst.take_timeline(server, before);
    answered += w.queries.len() as u64;
    let cpu = cpu_ms() - cpu0;
    measured.lag_ms = lags;
    measured.insert_ms.extend(&written.insert_ms);
    measured.delete_ms = written.delete_ms;
    let write_failures = written.failures;

    let sim_s = burst.timeline.overlapped_makespan_s();
    let e2e = EndToEnd {
        setup_s,
        throughput: super::window_rate(&chunk_qps),
        latency_ms,
        windows: WINDOWS,
        recall: tally.recall(),
        sim_qps: w.queries.len() as f64 / sim_s.max(1e-300),
        cpu_ms: cpu,
        ops: ingested + answered + written.write_ms.len() as u64,
    };
    let mut outcome = Outcome {
        correct: tally.failed == 0
            && write_failures.is_empty()
            && tally.recall() >= DEEP_RECALL_FLOOR,
        end_to_end: e2e.metrics(),
        notes: vec![e2e.latency_note()],
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "churn_deep: ingest {ingested} inserts in {ingest_s:.2} s; then {phase_wall_s:.2} s of \
         {READ_QPS} reads/s beside {WRITE_RATE} writes/s ({} writes, {} probe reads); \
         recall@10 {:.4} (floor {DEEP_RECALL_FLOOR}); {} failed checks, {} failed writes",
        written.write_ms.len(),
        written.probes,
        tally.recall(),
        tally.failed,
        write_failures.len()
    ));
    outcome.notes.push(format!(
        "  ingest_per_s = {} writes/s; write_p50_ms = {} ms; write_p99_ms = {} ms",
        ingested as f64 / ingest_s,
        percentile(&written.write_ms, 50.0),
        percentile(&written.write_ms, 99.0)
    ));
    if let Some(e) = tally.first_error.as_ref().or(write_failures.first()) {
        outcome.notes.push(format!("first failure: {e}"));
    }

    if ctx.trace {
        let burst = w.queries.gather(&(0..256).collect::<Vec<_>>());
        measured.trace_overhead = layers::trace_overhead(|| {
            if let Ok(tickets) = server.submit_batch(&burst) {
                for t in tickets {
                    let _ = t.wait();
                }
            }
        });
        let index = Arc::clone(churn.index.pin().index());
        drop(churn);
        let mut source = SearchSource::default();
        source.add(&work.stats(), &work.timeline, phase_answered);
        let (per_layer, notes) = layers::collect(Input {
            index: &index,
            base: &w.base,
            queries: &w.queries,
            params,
            build: build_report,
            served: phase_answered,
            window,
            source: Some(source),
            node_batches: None,
            measured,
            tmp: tmp.path(),
        });
        outcome.per_layer = per_layer;
        outcome.notes.extend(notes);
    }
    outcome
}

/// What the phase-2 writer did.
struct Written {
    /// Write latency from due time, ms.
    write_ms: Vec<f64>,
    /// `insert` call times, ms.
    insert_ms: Vec<f64>,
    /// `delete` call times, ms.
    delete_ms: Vec<f64>,
    probes: u64,
    failures: Vec<String>,
}

impl Written {
    fn panicked() -> Self {
        Self {
            write_ms: Vec::new(),
            insert_ms: Vec::new(),
            delete_ms: Vec::new(),
            probes: 0,
            failures: vec!["writer thread panicked".into()],
        }
    }
}

/// Phase-2 writes on a fixed schedule: inserts alternate with deletes of
/// the oldest live inserted id. Each acknowledged delete is followed by a
/// probe read for the deleted vector, handed to the read collector.
#[allow(clippy::too_many_arguments)]
fn write_phase(
    index: &ConcurrentIndex,
    server: &Server,
    base: &VectorSet,
    writes: usize,
    start: Instant,
    mut rng: Rng,
    mut live: VecDeque<u32>,
    (inserted, deleted_at): (&Inserted, &DeletedAt),
    tx: std::sync::mpsc::Sender<Pending>,
) -> Written {
    let mut out = Written {
        write_ms: Vec::new(),
        insert_ms: Vec::new(),
        delete_ms: Vec::new(),
        probes: 0,
        failures: Vec::new(),
    };
    for j in 0..writes {
        let due = start + Duration::from_secs_f64(j as f64 / WRITE_RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        progress_attempt(1);
        let t = Instant::now();
        if j % 2 == 0 || live.is_empty() {
            let v = translated(base.row(rng.below(base.len())));
            match index.insert(&v) {
                Ok(id) => {
                    let end = Instant::now();
                    out.insert_ms.push(ms_between(t, end));
                    out.write_ms.push(ms_between(due, end));
                    progress_done((id as usize) >= base.len());
                    inserted.lock().expect("no panics while held").insert(id, v);
                    live.push_back(id);
                }
                Err(e) => {
                    progress_done(false);
                    out.failures.push(format!("insert: {e}"));
                }
            }
            continue;
        }
        let id = live.pop_front().expect("checked non-empty");
        match index.delete(id) {
            Ok(true) => {
                let end = Instant::now();
                out.delete_ms.push(ms_between(t, end));
                out.write_ms.push(ms_between(due, end));
                progress_done(true);
                deleted_at.lock().expect("no panics while held").insert(id, end);
                let vector = inserted.lock().expect("no panics while held")[&id].clone();
                progress_attempt(1);
                out.probes += 1;
                let submitted = Instant::now();
                let ticket = server.try_submit(&vector);
                let read = Read::Probe { deleted: id, vector };
                if tx.send(Pending { read, due: submitted, submitted, ticket }).is_err() {
                    break;
                }
            }
            Ok(false) => {
                progress_done(false);
                out.failures.push(format!("delete {id}: not live"));
            }
            Err(e) => {
                progress_done(false);
                out.failures.push(format!("delete {id}: {e}"));
            }
        }
    }
    out
}
