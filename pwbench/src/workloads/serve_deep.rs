//! `serve_deep`: open loop. Single queries arrive on a seeded Poisson
//! schedule at a `Server` over the Deep-like index on 2 devices, each timed
//! from its due time. A reference phase at a fixed rate gives the latency
//! figures; a ladder of rising rates then runs until a rung is far past
//! the p99 limit (or its share of the time is up), and the sustained rate
//! is where the p99 crosses the limit above the highest passing rung.
//! Final bursts, all due at once, give the saturation throughput.

use super::openloop::{self, PhaseWork, Read};
use super::{
    check_base, deep_config, deep_data, deep_params, setup_failed, Ctx, EndToEnd,
    DEEP_RECALL_FLOOR, SETUPS,
};
use crate::check::{recall_at_10, Tally};
use crate::layers::{self, Input, Measured, SearchSource};
use crate::report::Outcome;
use crate::stats::{cpu_ms, ms_between, percentile, repeated_setup, Rng};
use pathweaver_core::serve::{ServeConfig, Server};
use pathweaver_core::PathWeaverIndex;
use pathweaver_datasets::Workload;
use pathweaver_search::SearchParams;
use std::sync::Arc;
use std::time::Instant;

/// Offered rate of the reference phase, queries/s.
const REFERENCE_QPS: f64 = 250.0;
/// Share of the run spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.4;
/// First ladder rung and the ratio between rungs.
const LADDER_START_QPS: f64 = 800.0;
const LADDER_STEP: f64 = 1.25;
/// A rung this far past the limit is past the knee: the ladder stops.
const OVERLOAD_FACTOR: f64 = 4.0;
/// The ladder stops once this share of the run has passed.
const LADDER_END_SHARE: f64 = 0.7;
/// Saturation bursts per run, and queries per burst.
const BURSTS: usize = 3;
const BURST_QUERIES: usize = 2000;
/// Windows the reference-phase latencies are split into.
const WINDOWS: usize = 5;
/// Queries per rung: enough for ten samples above p99.
const RUNG_QUERIES: usize = 1000;
/// The p99 latency a sustained rate must meet.
const P99_LIMIT_MS: f64 = 100.0;

struct Phase {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    work: PhaseWork,
    answered: u64,
}

/// Offers `count` queries at `rate` and waits for every answer.
#[allow(clippy::too_many_arguments)]
fn phase(
    server: &Server,
    w: &Workload,
    params: &SearchParams,
    rate: f64,
    count: usize,
    rng: &mut Rng,
    next_row: &mut usize,
    tally: &mut Tally,
) -> Phase {
    let plan = openloop::schedule(rng, rate, count, w.queries.len(), next_row);
    let before = server.timeline().records().len();
    let mut out = Phase {
        latency_ms: Vec::new(),
        lag_ms: Vec::new(),
        work: PhaseWork::default(),
        answered: 0,
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let queries = &w.queries;
        let generator =
            s.spawn(move || openloop::generate(server, queries, &plan, Instant::now(), &tx));
        openloop::collect(&rx, |a| {
            let Read::Query(row) = a.read else { return };
            out.answered += 1;
            match a.result {
                Ok(res) => {
                    let verdict = check_base(&w.base, w.queries.row(row), &res.hits, params.k);
                    tally.record(verdict, Some(recall_at_10(&w.ground_truth, row, &res.hits)));
                    out.latency_ms.push(ms_between(a.due, a.done));
                    out.work.batches.insert(res.batch_id, res.stats);
                }
                Err(e) => tally.record(Err(e), None),
            }
        });
        out.lag_ms = generator.join().unwrap_or_default();
    });
    out.work.take_timeline(server, before);
    out
}

/// Where the p99 crosses the limit, interpolated on log scales between the
/// highest passing rung and the rung above it. A rung that fails below a
/// passing one is a passing stall, not the knee, and is skipped.
fn sustained(rungs: &[(f64, f64)]) -> f64 {
    let Some(top) = rungs.iter().rposition(|r| r.1 <= P99_LIMIT_MS) else {
        // Even the first rung missed: scale it by how far it missed.
        return rungs.first().map_or(0.0, |&(rf, pf)| rf * P99_LIMIT_MS / pf);
    };
    let (rp, pp) = rungs[top];
    match rungs.get(top + 1) {
        Some(&(rf, pf)) => {
            let f = ((P99_LIMIT_MS / pp).ln() / (pf / pp).ln()).clamp(0.0, 1.0);
            rp * (rf / rp).powf(f)
        }
        None => rp,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let w = deep_data(ctx.seed);
    let config = deep_config();
    let params = deep_params();
    let serve_config = ServeConfig { params, queue_capacity: 1 << 20, ..ServeConfig::default() };
    let (built, setup_s) = repeated_setup(SETUPS, |_| {
        let index = Arc::new(PathWeaverIndex::build(&w.base, &config).map_err(|e| e.to_string())?);
        let server =
            Server::new(Arc::clone(&index), serve_config.clone()).map_err(|e| e.to_string())?;
        Ok::<_, String>((index, server))
    });
    let (index, server) = match built {
        Ok(b) => b,
        Err(e) => return setup_failed("build and Server::new", e),
    };

    let mut rng = Rng::new(ctx.seed, 0x5e7e);
    let mut next_row = 0;
    let mut tally = Tally::default();
    // Untimed warm-up at the reference rate, answers still checked.
    phase(&server, &w, &params, REFERENCE_QPS, 200, &mut rng, &mut next_row, &mut tally);
    pathweaver_obs::reset();

    let cpu0 = cpu_ms();
    let t0 = Instant::now();
    let reference_count = (REFERENCE_QPS * REFERENCE_SHARE * ctx.seconds).ceil() as usize;
    let reference = phase(
        &server,
        &w,
        &params,
        REFERENCE_QPS,
        reference_count,
        &mut rng,
        &mut next_row,
        &mut tally,
    );
    // The per-layer window is the reference phase: the operating point the
    // latency figures describe.
    let window = pathweaver_obs::global_snapshot();
    let mut answered = reference.answered;
    let mut lag_ms = reference.lag_ms.clone();
    let mut rungs: Vec<(f64, f64)> = Vec::new();
    let mut rate = LADDER_START_QPS;
    while t0.elapsed().as_secs_f64() < LADDER_END_SHARE * ctx.seconds {
        let rung =
            phase(&server, &w, &params, rate, RUNG_QUERIES, &mut rng, &mut next_row, &mut tally);
        answered += rung.answered;
        lag_ms.extend(&rung.lag_ms);
        let p99 = percentile(&rung.latency_ms, 99.0);
        rungs.push((rate, p99));
        if p99 > OVERLOAD_FACTOR * P99_LIMIT_MS {
            break;
        }
        rate *= LADDER_STEP;
    }
    // Saturation: bursts far above what the server can take, all due at
    // once. Throughput is the median of their drain rates; their full
    // micro-batches carry the simulated clock.
    let (mut burst_qps, mut sim_queries, mut sim_s) = (Vec::new(), 0u64, 0.0f64);
    for _ in 0..BURSTS {
        let start = Instant::now();
        let burst =
            phase(&server, &w, &params, 1e9, BURST_QUERIES, &mut rng, &mut next_row, &mut tally);
        burst_qps.push(burst.answered as f64 / start.elapsed().as_secs_f64());
        sim_queries += burst.answered;
        sim_s += burst.work.timeline.overlapped_makespan_s();
        answered += burst.answered;
    }
    let cpu = cpu_ms() - cpu0;

    let e2e = EndToEnd {
        setup_s,
        throughput: super::window_rate(&burst_qps),
        latency_ms: reference.latency_ms.clone(),
        windows: WINDOWS,
        recall: tally.recall(),
        sim_qps: sim_queries as f64 / sim_s.max(1e-300),
        cpu_ms: cpu,
        ops: answered,
    };
    let mut outcome = Outcome {
        correct: tally.failed == 0 && tally.recall() >= DEEP_RECALL_FLOOR,
        end_to_end: e2e.metrics(),
        notes: vec![e2e.latency_note()],
        ..Outcome::default()
    };
    let ladder: Vec<String> =
        rungs.iter().map(|(r, p)| format!("{r:.0} qps: p99 {p:.2} ms")).collect();
    outcome.notes.push(format!(
        "serve_deep: reference {REFERENCE_QPS} qps x {reference_count} queries; ladder [{}]; \
         {BURSTS} saturation bursts of {BURST_QUERIES}; recall@10 {:.4} (floor {DEEP_RECALL_FLOOR}); \
         {} failed checks",
        ladder.join(", "),
        tally.recall(),
        tally.failed
    ));
    outcome.notes.push(format!(
        "  sustained_qps = {} queries/s (p99 limit {P99_LIMIT_MS} ms)",
        sustained(&rungs)
    ));
    if rungs.last().is_some_and(|r| r.1 <= OVERLOAD_FACTOR * P99_LIMIT_MS) {
        outcome.notes.push("ladder ended on time before a rung was past the knee".into());
    }
    if let Some(e) = &tally.first_error {
        outcome.notes.push(format!("first failed check: {e}"));
    }

    if ctx.trace {
        let burst = w.queries.gather(&(0..256).collect::<Vec<_>>());
        let measured = Measured {
            lag_ms,
            trace_overhead: layers::trace_overhead(|| {
                if let Ok(tickets) = server.submit_batch(&burst) {
                    for t in tickets {
                        let _ = t.wait();
                    }
                }
            }),
            ..Measured::default()
        };
        server.shutdown();
        let tmp = match super::TempDir::new("serve_deep") {
            Ok(t) => t,
            Err(e) => return setup_failed("scratch directory", e),
        };
        let mut source = SearchSource::default();
        source.add(&reference.work.stats(), &reference.work.timeline, reference.answered);
        let (per_layer, notes) = layers::collect(Input {
            index: &index,
            base: &w.base,
            queries: &w.queries,
            params,
            build: index.build_report.clone(),
            served: reference.answered,
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
