//! `batch_wiki`: offline closed loop. `search_pipelined` answers 64-query
//! batches of the Wiki-like profile (768-d, 6000 base rows, 512 queries) on
//! 4 simulated devices, at a DGS operating point above 0.95 recall@10.
//! Whole passes over the query set repeat until the run's time is up;
//! throughput (queries over the pass's summed batch times, so the
//! benchmark's own checking is not counted) and latency percentiles are
//! medians over the passes.

use super::{check_base, setup_failed, Ctx, EndToEnd, SETUPS};
use crate::check::{recall_at_10, Tally};
use crate::layers::{self, Input, Measured, SearchSource};
use crate::report::{progress_attempt, Outcome};
use crate::stats::{cpu_ms, ms_between, repeated_setup};
use pathweaver_core::{PathWeaverConfig, PathWeaverIndex};
use pathweaver_datasets::DatasetProfile;
use pathweaver_search::{DgsParams, SearchParams};
use pathweaver_vector::VectorSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERIES: usize = 512;
const BATCH: usize = 64;
const RECALL_FLOOR: f64 = 0.9;

fn params() -> SearchParams {
    SearchParams {
        beam: 256,
        candidates: 64,
        patience: 32,
        max_iterations: 192,
        dgs: Some(DgsParams::default()),
        ..SearchParams::default()
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let w = super::corpus(DatasetProfile::wiki_like(), QUERIES, ctx.seed);
    let config = PathWeaverConfig::test_scale(4);
    let params = params();
    let (built, setup_s) = repeated_setup(SETUPS, |_| PathWeaverIndex::build(&w.base, &config));
    let index = match built {
        Ok(i) => Arc::new(i),
        Err(e) => return setup_failed("PathWeaverIndex::build", e),
    };
    let batches: Vec<VectorSet> = (0..QUERIES / BATCH)
        .map(|b| w.queries.gather(&(b * BATCH..(b + 1) * BATCH).collect::<Vec<_>>()))
        .collect();

    // Untimed warm-up: pool workers and page faults settle first.
    index.search_pipelined(&batches[0], &params);
    pathweaver_obs::reset();

    let mut tally = Tally::default();
    let mut latency_ms = Vec::new();
    let mut measured = Measured::default();
    let mut source = SearchSource::default();
    let (mut sim_queries, mut sim_s) = (0u64, 0.0f64);
    let mut served = 0u64;
    let mut last_end: Option<Instant> = None;
    let limit = Duration::from_secs_f64(ctx.seconds);
    let mut pass_qps = Vec::new();
    let cpu0 = cpu_ms();
    let t0 = Instant::now();
    for pass in 0.. {
        let mut pass_s = 0.0;
        for (b, batch) in batches.iter().enumerate() {
            progress_attempt(batch.len() as u64);
            let start = Instant::now();
            if let Some(end) = last_end {
                measured.lag_ms.push(ms_between(end, start));
            }
            let out = index.search_pipelined(batch, &params);
            let end = Instant::now();
            last_end = Some(end);
            pass_s += (end - start).as_secs_f64();
            for (i, hits) in out.hits.iter().enumerate() {
                let row = b * BATCH + i;
                let verdict = check_base(&w.base, w.queries.row(row), hits, params.k);
                tally.record(verdict, Some(recall_at_10(&w.ground_truth, row, hits)));
                latency_ms.push(ms_between(start, end));
            }
            served += batch.len() as u64;
            // Every pass is the same deterministic work; the first one
            // carries the simulated clock and the search statistics.
            if pass == 0 {
                sim_queries += batch.len() as u64;
                sim_s += out.makespan_s;
                source.add(&out.stats, &out.timeline, batch.len() as u64);
            }
        }
        pass_qps.push(QUERIES as f64 / pass_s);
        if t0.elapsed() >= limit {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = cpu_ms() - cpu0;
    let window = pathweaver_obs::global_snapshot();

    let e2e = EndToEnd {
        setup_s,
        throughput: super::window_rate(&pass_qps),
        windows: pass_qps.len(),
        latency_ms,
        recall: tally.recall(),
        sim_qps: sim_queries as f64 / sim_s.max(1e-300),
        cpu_ms: cpu,
        ops: served,
    };
    let mut outcome = Outcome {
        correct: tally.failed == 0 && tally.recall() >= RECALL_FLOOR,
        end_to_end: e2e.metrics(),
        notes: vec![e2e.latency_note()],
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "batch_wiki: {} passes of {QUERIES} queries in {BATCH}-query batches, {wall_s:.2} s; \
         recall@10 {:.4} (floor {RECALL_FLOOR}); {} failed checks",
        served / QUERIES as u64,
        tally.recall(),
        tally.failed
    ));
    let rates: Vec<String> = pass_qps.iter().map(|r| format!("{r:.0}")).collect();
    outcome.notes.push(format!("  per-pass queries/s: {}", rates.join(" ")));
    if let Some(e) = &tally.first_error {
        outcome.notes.push(format!("first failed check: {e}"));
    }

    if ctx.trace {
        measured.trace_overhead = layers::trace_overhead(|| {
            for b in &batches[..2] {
                index.search_pipelined(b, &params);
            }
        });
        let tmp = match super::TempDir::new("batch_wiki") {
            Ok(t) => t,
            Err(e) => return setup_failed("scratch directory", e),
        };
        let (per_layer, notes) = layers::collect(Input {
            index: &index,
            base: &w.base,
            queries: &w.queries,
            params,
            build: index.build_report.clone(),
            served,
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
