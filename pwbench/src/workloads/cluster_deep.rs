//! `cluster_deep`: closed loop with one client. `Router::search` sends
//! 8-query requests to the Deep-like collection split into 2 contiguous
//! partitions on 2 nodes over the loopback TCP transport. Whole passes over
//! the query set repeat until the run's time is up; throughput (queries
//! over the pass's summed request times) and latency percentiles are
//! medians over the passes.

use super::{
    deep_config, deep_data, deep_params, setup_failed, Ctx, EndToEnd, TempDir, DEEP_RECALL_FLOOR,
    SETUPS,
};
use crate::check::{check_hits, recall_at_10, Tally};
use crate::layers::{self, Input, Measured};
use crate::report::{progress_attempt, Outcome};
use crate::stats::{cpu_ms, ms_between, repeated_setup};
use pathweaver_core::cluster::ring::HashRing;
use pathweaver_core::cluster::{build_partitions, partition_rows, LocalCluster, TransportKind};
use pathweaver_core::ClusterConfig;
use pathweaver_graph::BuildReport;
use pathweaver_vector::VectorSet;
use std::time::{Duration, Instant};

const PARTITIONS: usize = 2;
const NODES: usize = 2;
/// Queries per request.
const REQUEST: usize = 8;

/// The cluster configuration, with the first ring seed from the default
/// upward that places the two partitions on different nodes.
fn spread_config() -> ClusterConfig {
    let mut config =
        ClusterConfig { partitions: PARTITIONS, replication: 1, ..ClusterConfig::default() };
    let nodes: Vec<u64> = (0..NODES as u64).collect();
    while {
        let ring = HashRing::new(&nodes, config.vnodes, config.seed);
        ring.replicas(0, 1) == ring.replicas(1, 1)
    } {
        config.seed += 1;
    }
    config
}

pub fn run(ctx: &Ctx) -> Outcome {
    let w = deep_data(ctx.seed);
    let config = deep_config();
    let params = deep_params();
    let cluster_config = spread_config();
    let (built, setup_s) = repeated_setup(SETUPS, |_| {
        let parts = build_partitions(&w.base, &config, PARTITIONS).map_err(|e| e.to_string())?;
        let cluster = LocalCluster::launch_with_partitions(
            &parts,
            &cluster_config,
            NODES,
            TransportKind::Tcp,
            &[],
        )
        .map_err(|e| e.to_string())?;
        Ok::<_, String>((parts, cluster))
    });
    let (parts, cluster) = match built {
        Ok(b) => b,
        Err(e) => return setup_failed("build_partitions and LocalCluster::launch", e),
    };
    let ranges = partition_rows(w.base.len(), PARTITIONS);
    let batches: Vec<VectorSet> = (0..w.queries.len() / REQUEST)
        .map(|b| w.queries.gather(&(b * REQUEST..(b + 1) * REQUEST).collect::<Vec<_>>()))
        .collect();
    let router = cluster.router();

    // Untimed warm-up requests.
    for b in &batches[..4] {
        let _ = router.search(b, &params);
    }
    pathweaver_obs::reset();

    let mut tally = Tally::default();
    let mut measured = Measured::default();
    let mut latency_ms = Vec::new();
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
            let result = router.search(batch, &params);
            let end = Instant::now();
            last_end = Some(end);
            pass_s += (end - start).as_secs_f64();
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    for _ in 0..batch.len() {
                        tally.record(Err(format!("request failed: {e}")), None);
                    }
                    continue;
                }
            };
            let ms = ms_between(start, end);
            latency_ms.push(ms);
            measured.request_ms.push(ms);
            measured.attempts += out.attempts;
            for (i, hits) in out.hits.iter().enumerate() {
                let row = b * REQUEST + i;
                // An id must fall in some partition's row range, and the
                // row there must lie at exactly the reported distance.
                let verdict = check_hits(w.queries.row(row), hits, params.k, |id| {
                    let id = id as usize;
                    ranges.iter().any(|r| r.contains(&id)).then(|| w.base.row(id))
                });
                tally.record(verdict, Some(recall_at_10(&w.ground_truth, row, hits)));
            }
            served += batch.len() as u64;
            // Every pass is the same deterministic work; the first carries
            // the simulated clock (partitions run concurrently, so a
            // request takes its slowest partition's makespan).
            if pass == 0 {
                sim_queries += batch.len() as u64;
                sim_s += out.makespan_s;
            }
        }
        pass_qps.push(w.queries.len() as f64 / pass_s);
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
        correct: tally.failed == 0 && tally.recall() >= DEEP_RECALL_FLOOR,
        end_to_end: e2e.metrics(),
        notes: vec![e2e.latency_note()],
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "cluster_deep: {} requests of {REQUEST} queries in {wall_s:.2} s; placement {:?}; \
         recall@10 {:.4} (floor {DEEP_RECALL_FLOOR}); {} failed checks",
        measured.request_ms.len(),
        router.placement(),
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
            for b in &batches[..20] {
                let _ = router.search(b, &params);
            }
        });
        cluster.shutdown();
        let tmp = match TempDir::new("cluster_deep") {
            Ok(t) => t,
            Err(e) => return setup_failed("scratch directory", e),
        };
        let mut build = BuildReport::new();
        for p in &parts {
            let r = &p.index.build_report;
            build.graph_build_s += r.graph_build_s;
            build.intershard_s += r.intershard_s;
            build.ghost_s += r.ghost_s;
            build.dirtable_s += r.dirtable_s;
            build.quantize_s += r.quantize_s;
        }
        let (per_layer, notes) = layers::collect(Input {
            index: &parts[0].index,
            base: &w.base,
            queries: &w.queries,
            params,
            build,
            served,
            window,
            source: None,
            node_batches: Some(&batches),
            measured,
            tmp: tmp.path(),
        });
        outcome.per_layer = per_layer;
        outcome.notes.extend(notes);
    }
    outcome
}
