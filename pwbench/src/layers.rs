//! Per-layer metrics for traced runs.
//!
//! Two sources feed them. Counters the program already returns or records
//! (`BatchStats`, `CostCounters` via the stage timeline, `BuildReport`,
//! `ClusterOutput`, the `pathweaver-obs` registry) describe the workload's
//! own measured window. Probes time calls into each layer's public
//! functions from this file, on the workload's own index and queries, after
//! the window has ended; a layer the workload's traffic does not reach (the
//! store on `batch_wiki`, say) is measured by its probe alone.

use crate::report::{metric, Metric};
use crate::stats::{median, percentile};
use pathweaver_core::cluster::{ClusterPartition, LocalCluster, TransportKind};
use pathweaver_core::serve::{serve_once, ServeConfig, Server};
use pathweaver_core::{ClusterConfig, ConcurrentIndex, DurableIndex, PathWeaverIndex};
use pathweaver_gpusim::PipelineTimeline;
use pathweaver_graph::BuildReport;
use pathweaver_obs::MetricsSnapshot;
use pathweaver_search::{BatchStats, EntryPolicy, SearchParams};
use pathweaver_vector::VectorSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.graph_s", "s"),
    ("build.aux_s", "s"),
    ("vector.l2_ns_per_call", "ns"),
    ("search.dist_calcs_per_query", "count"),
    ("search.visits_per_query", "count"),
    ("search.iterations_per_query", "count"),
    ("search.hash_probes_per_query", "count"),
    ("search.discard_ratio", "fraction"),
    ("search.dgs_skip_ratio", "fraction"),
    ("search.vector_bytes_per_query", "bytes"),
    ("search.kernel_ms_per_query", "ms"),
    ("pipeline.stage0_ms", "ms"),
    ("pipeline.later_stage_ms", "ms"),
    ("sim.stage0_share", "fraction"),
    ("sim.dist_fraction", "fraction"),
    ("sim.comm_bytes_per_query", "bytes"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.batch_size_mean", "queries"),
    ("serve.once_setup_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("dyn.insert_ms_p50", "ms"),
    ("dyn.delete_ms_p50", "ms"),
    ("dyn.rebuilds", "count"),
    ("serve.snapshot_lag_p99", "versions"),
    ("store.segment_write_s", "s"),
    ("store.wal_ms_per_write", "ms"),
    ("cluster.node_ms_p50", "ms"),
    ("cluster.rpc_ms_p50", "ms"),
    ("cluster.attempts_per_request", "count"),
    ("pool.dispatch_us", "us"),
    ("obs.trace_overhead", "fraction"),
];

/// Search work of the measured window, as the program reported it.
#[derive(Debug, Default)]
pub struct SearchSource {
    /// Merged statistics of every batch served.
    pub stats: BatchStats,
    /// Stage records of every batch served.
    pub timeline: PipelineTimeline,
    /// Queries those batches answered.
    pub queries: u64,
}

impl SearchSource {
    /// Adds one batch.
    pub fn add(&mut self, stats: &BatchStats, timeline: &PipelineTimeline, queries: u64) {
        self.stats.merge(stats);
        self.timeline.extend(timeline);
        self.queries += queries;
    }
}

/// Timings a workload measured itself for the layers it exercises.
#[derive(Debug, Default)]
pub struct Measured {
    /// Generator lag (open loop) or client turnaround (closed loop), ms.
    pub lag_ms: Vec<f64>,
    /// `ConcurrentIndex::insert` call times, ms (`churn_deep`).
    pub insert_ms: Vec<f64>,
    /// `ConcurrentIndex::delete` call times, ms (`churn_deep`).
    pub delete_ms: Vec<f64>,
    /// `Router::search` request times, ms (`cluster_deep`).
    pub request_ms: Vec<f64>,
    /// RPC attempts over all requests (`cluster_deep`).
    pub attempts: u64,
    /// `obs.trace_overhead`, measured by the workload.
    pub trace_overhead: f64,
}

/// Everything the per-layer collection needs from a workload.
pub struct Input<'a> {
    /// Index the probes run on (for `cluster_deep`, partition 0).
    pub index: &'a Arc<PathWeaverIndex>,
    /// Base rows of that index, for translated probe inserts.
    pub base: &'a VectorSet,
    /// The workload's queries.
    pub queries: &'a VectorSet,
    /// The workload's search parameters.
    pub params: SearchParams,
    /// Build phases of the workload's last set-up (summed over partitions).
    pub build: BuildReport,
    /// Queries the measured window served.
    pub served: u64,
    /// The obs registry right after the measured window.
    pub window: MetricsSnapshot,
    /// The window's own search statistics, or `None` to take them from the
    /// node probe (`cluster_deep`, whose `ClusterOutput` carries none).
    pub source: Option<SearchSource>,
    /// Request batches for the node probe (`cluster_deep`).
    pub node_batches: Option<&'a [VectorSet]>,
    pub measured: Measured,
    /// Scratch directory for the store probe.
    pub tmp: &'a Path,
}

/// Runs the probes and assembles every per-layer metric.
pub fn collect(mut input: Input<'_>) -> (Vec<Metric>, Vec<String>) {
    let mut out: Vec<Metric> = Vec::new();
    let mut notes = Vec::new();
    let w = &input.window;
    let q = input.served.max(1) as f64;

    let b = &input.build;
    out.push(metric("build.graph_s", b.graph_build_s, "s"));
    out.push(metric("build.aux_s", b.intershard_s + b.ghost_s + b.dirtable_s + b.quantize_s, "s"));
    out.push(metric("vector.l2_ns_per_call", l2_ns_per_call(input.base, input.queries), "ns"));

    // Ring-stage counters (the gpu-sim bridge): only searches that ran
    // through the device ring, not the neighbour searches of inserts.
    let counter = |name: &str| w.counters.get(name).copied().unwrap_or(0) as f64;
    out.push(metric("search.dist_calcs_per_query", counter("pipeline.dist_calcs") / q, "count"));
    out.push(metric("search.visits_per_query", counter("pipeline.nodes_visited") / q, "count"));
    out.push(metric("search.iterations_per_query", counter("pipeline.iterations") / q, "count"));
    out.push(metric("search.hash_probes_per_query", counter("pipeline.hash_probes") / q, "count"));

    let node = node_probe(&input);
    let source = match input.source.take() {
        Some(s) => s,
        None => node.source,
    };
    let st = &source.stats;
    out.push(metric(
        "search.discard_ratio",
        st.discarded as f64 / (st.visits.max(1)) as f64,
        "fraction",
    ));
    let dgs = w.gauges.get("search.dgs.skip_rate").copied().unwrap_or(0.0);
    out.push(metric("search.dgs_skip_ratio", dgs, "fraction"));
    out.push(metric(
        "search.vector_bytes_per_query",
        counter("pipeline.vector_bytes") / q,
        "bytes",
    ));
    out.push(metric("search.kernel_ms_per_query", kernel_ms_per_query(&input), "ms"));

    let hist_mean_ms = |pred: &dyn Fn(usize) -> bool| {
        let (mut sum, mut n) = (0u64, 0u64);
        for (name, h) in &w.histograms {
            let stage = name
                .strip_prefix("pipeline.stage")
                .and_then(|r| r.strip_suffix(".wall_ns"))
                .and_then(|s| s.parse::<usize>().ok());
            if stage.is_some_and(pred) {
                sum += h.sum;
                n += h.count;
            }
        }
        sum as f64 / n.max(1) as f64 / 1e6
    };
    out.push(metric("pipeline.stage0_ms", hist_mean_ms(&|s| s == 0), "ms"));
    out.push(metric("pipeline.later_stage_ms", hist_mean_ms(&|s| s > 0), "ms"));

    let tl = &source.timeline;
    let total: f64 = tl.records().iter().map(|r| r.breakdown.total_s()).sum();
    let stage0: f64 =
        tl.records().iter().filter(|r| r.stage == 0).map(|r| r.breakdown.total_s()).sum();
    out.push(metric("sim.stage0_share", stage0 / total.max(1e-300), "fraction"));
    out.push(metric("sim.dist_fraction", tl.aggregate().dist_fraction(), "fraction"));
    let comm = tl.aggregate_counters().comm_bytes as f64 / source.queries.max(1) as f64;
    out.push(metric("sim.comm_bytes_per_query", comm, "bytes"));

    // Serving histograms come from the window when its traffic went through
    // a `Server`; `batch_wiki`'s does not, so its come from the node probe's
    // `serve_once` calls.
    let serve_snap = if w.histograms.contains_key("serve.queue_wall_ns") {
        w.clone()
    } else {
        notes.push("serve.* histograms: from the node probe's serve_once calls".into());
        pathweaver_obs::global_snapshot()
    };
    let hist = |name: &str| serve_snap.histograms.get(name).copied().unwrap_or_default();
    let queue = hist("serve.queue_wall_ns");
    out.push(metric("serve.queue_wait_ms_p50", queue.p50 as f64 / 1e6, "ms"));
    out.push(metric("serve.queue_wait_ms_p99", queue.p99 as f64 / 1e6, "ms"));
    let e2e = hist("serve.e2e_wall_ns");
    out.push(metric("serve.exec_ms_p50", e2e.p50.saturating_sub(queue.p50) as f64 / 1e6, "ms"));
    out.push(metric("serve.batch_size_mean", hist("serve.batch_size").mean, "queries"));
    out.push(metric("serve.once_setup_ms", once_setup_ms(&input), "ms"));
    out.push(metric("loadgen.lag_ms_p99", percentile(&input.measured.lag_ms, 99.0), "ms"));

    let store = store_probe(&input, &mut notes);
    let (ins, del) = if input.measured.insert_ms.is_empty() {
        (store.mem_insert_ms, store.mem_delete_ms)
    } else {
        (median(&input.measured.insert_ms), median(&input.measured.delete_ms))
    };
    out.push(metric("dyn.insert_ms_p50", ins, "ms"));
    out.push(metric("dyn.delete_ms_p50", del, "ms"));
    out.push(metric("dyn.rebuilds", counter("dyn.rebuilds"), "count"));
    let lag = w.histograms.get("serve.snapshot_lag").map_or(0, |h| h.p99);
    out.push(metric("serve.snapshot_lag_p99", lag as f64, "versions"));
    out.push(metric("store.segment_write_s", store.segment_write_s, "s"));
    out.push(metric("store.wal_ms_per_write", store.wal_ms_per_write, "ms"));

    let node_p50 = median(&node.node_ms);
    let (request_p50, attempts) = if input.measured.request_ms.is_empty() {
        (median(&node.request_ms), node.attempts_per_request)
    } else {
        let m = &input.measured;
        (median(&m.request_ms), m.attempts as f64 / m.request_ms.len() as f64)
    };
    out.push(metric("cluster.node_ms_p50", node_p50, "ms"));
    out.push(metric("cluster.rpc_ms_p50", request_p50 - node_p50, "ms"));
    out.push(metric("cluster.attempts_per_request", attempts, "count"));
    out.push(metric("pool.dispatch_us", pool_dispatch_us(&mut notes), "us"));
    out.push(metric("obs.trace_overhead", input.measured.trace_overhead, "fraction"));

    debug_assert!(out.iter().map(|m| m.name).eq(PER_LAYER.iter().map(|&(n, _)| n)));
    (out, notes)
}

/// Relative cost of metrics recording on `work`: median of three
/// alternating (off, on) pairs, as `on / off - 1`. Leaves recording on.
pub fn trace_overhead(mut work: impl FnMut()) -> f64 {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        pathweaver_obs::set_enabled(false);
        let t = Instant::now();
        work();
        off.push(t.elapsed().as_secs_f64());
        pathweaver_obs::set_enabled(true);
        let t = Instant::now();
        work();
        on.push(t.elapsed().as_secs_f64());
    }
    median(&on) / median(&off).max(1e-12) - 1.0
}

/// Benchmark-timed `l2_squared` at the workload's dimension.
fn l2_ns_per_call(base: &VectorSet, queries: &VectorSet) -> f64 {
    const CALLS: usize = 40_000;
    let rows = base.len().min(512);
    let query = queries.row(0);
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0.0f32;
            for i in 0..CALLS {
                acc += pathweaver_vector::l2_squared(black_box(base.row(i % rows)), query);
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e9 / CALLS as f64
        })
        .collect();
    median(&runs)
}

/// Benchmark-timed `ShardIndex::search_local` on shard 0, entered as the
/// pipeline's first stage enters it.
fn kernel_ms_per_query(input: &Input<'_>) -> f64 {
    let shard = &input.index.shards[0];
    let n = input.queries.len().min(64);
    let batch = input.queries.gather(&(0..n).collect::<Vec<_>>());
    let entries = [EntryPolicy::Random { count: input.params.candidates }];
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(shard.search_local(
                &batch,
                &input.params,
                &entries,
                shard.ghost.is_some(),
                &input.index.config,
            ));
            t.elapsed().as_secs_f64() * 1e3 / n as f64
        })
        .collect();
    median(&runs)
}

/// Benchmark-timed `Server::new` plus `shutdown` with no queries.
fn once_setup_ms(input: &Input<'_>) -> f64 {
    let config = ServeConfig { params: input.params, ..ServeConfig::default() };
    let runs: Vec<f64> = (0..9)
        .filter_map(|_| {
            let t = Instant::now();
            let server = Server::new(Arc::clone(input.index), config.clone()).ok()?;
            server.shutdown();
            Some(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    median(&runs)
}

/// Argument that makes the benchmark binary run only the pool probe.
pub const POOL_PROBE_FLAG: &str = "--pool-probe";

/// Benchmark-timed `parallel_for` of two trivial items with the pool on (2
/// threads), in a child process: the pool's known use-after-free can kill
/// the process that uses it, and the run must survive that.
fn pool_dispatch_us(notes: &mut Vec<String>) -> f64 {
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe).arg(POOL_PROBE_FLAG).env("PATHWEAVER_THREADS", "2").output()
    });
    match child {
        Ok(out) if out.status.success() => {
            String::from_utf8_lossy(&out.stdout).trim().parse().unwrap_or(0.0)
        }
        Ok(out) => {
            notes.push(format!("pool probe: child process ended with {}", out.status));
            0.0
        }
        Err(e) => {
            notes.push(format!("pool probe: cannot run the child process: {e}"));
            0.0
        }
    }
}

/// The pool probe's child: prints microseconds per call.
pub fn pool_probe_child() {
    const CALLS: usize = 2_000;
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                pathweaver_util::parallel_for(2, |i| {
                    black_box(i);
                });
            }
            t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    println!("{}", median(&runs));
}

struct NodeProbe {
    node_ms: Vec<f64>,
    request_ms: Vec<f64>,
    attempts_per_request: f64,
    source: SearchSource,
}

/// `serve_once` on the probe index, timed per batch. With request batches
/// given (`cluster_deep`) it replays them on partition 0; otherwise it boots
/// a one-node loopback-TCP cluster over the index and times `Router::search`
/// beside `serve_once` on the same 8-query batch.
fn node_probe(input: &Input<'_>) -> NodeProbe {
    let mut probe = NodeProbe {
        node_ms: Vec::new(),
        request_ms: Vec::new(),
        attempts_per_request: 0.0,
        source: SearchSource::default(),
    };
    let serve = |batch: &VectorSet, probe: &mut NodeProbe| {
        let t = Instant::now();
        if let Ok(out) = serve_once(input.index, batch, &input.params) {
            probe.node_ms.push(t.elapsed().as_secs_f64() * 1e3);
            probe.source.add(&out.stats, &out.timeline, batch.len() as u64);
        }
    };
    if let Some(batches) = input.node_batches {
        for b in batches {
            serve(b, &mut probe);
        }
        return probe;
    }
    let batch = input.queries.gather(&(0..input.queries.len().min(8)).collect::<Vec<_>>());
    let part = ClusterPartition {
        index: Arc::clone(input.index),
        global_ids: Arc::new((0..input.index.num_vectors as u32).collect()),
    };
    let Ok(cluster) = LocalCluster::launch_with_partitions(
        &[part],
        &ClusterConfig::default(),
        1,
        TransportKind::Tcp,
        &[],
    ) else {
        return probe;
    };
    let mut attempts = 0u64;
    for _ in 0..30 {
        serve(&batch, &mut probe);
        let t = Instant::now();
        if let Ok(out) = cluster.router().search(&batch, &input.params) {
            probe.request_ms.push(t.elapsed().as_secs_f64() * 1e3);
            attempts += out.attempts;
        }
    }
    probe.attempts_per_request = attempts as f64 / probe.request_ms.len().max(1) as f64;
    cluster.shutdown();
    probe
}

struct StoreProbe {
    segment_write_s: f64,
    wal_ms_per_write: f64,
    mem_insert_ms: f64,
    mem_delete_ms: f64,
}

/// `DurableIndex::create` of the probe index, then one write sequence (16
/// translated inserts, then their deletes) applied to the durable
/// `ConcurrentIndex` and to an in-memory twin.
fn store_probe(input: &Input<'_>, notes: &mut Vec<String>) -> StoreProbe {
    let mut probe = StoreProbe {
        segment_write_s: 0.0,
        wal_ms_per_write: 0.0,
        mem_insert_ms: 0.0,
        mem_delete_ms: 0.0,
    };
    let dir = input.tmp.join("store-probe");
    let t = Instant::now();
    let durable = match DurableIndex::create((**input.index).clone(), &dir) {
        Ok(d) => d,
        Err(e) => {
            notes.push(format!("store probe: DurableIndex::create failed: {e}"));
            return probe;
        }
    };
    probe.segment_write_s = t.elapsed().as_secs_f64();
    let durable = ConcurrentIndex::durable(durable);
    let memory = ConcurrentIndex::new((**input.index).clone());
    let rows: Vec<Vec<f32>> = (0..16)
        .map(|i| crate::workloads::translated(input.base.row(i * 7 % input.base.len())))
        .collect();
    let run = |ci: &ConcurrentIndex| -> Option<(Vec<f64>, Vec<f64>)> {
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        let mut ids = Vec::new();
        for v in &rows {
            let t = Instant::now();
            ids.push(ci.insert(v).ok()?);
            ins.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for id in ids {
            let t = Instant::now();
            ci.delete(id).ok()?;
            del.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Some((ins, del))
    };
    match (run(&durable), run(&memory)) {
        (Some((di, dd)), Some((mi, md))) => {
            let writes = (di.len() + dd.len()) as f64;
            let durable_ms: f64 = di.iter().chain(&dd).sum();
            let memory_ms: f64 = mi.iter().chain(&md).sum();
            probe.wal_ms_per_write = (durable_ms - memory_ms) / writes;
            probe.mem_insert_ms = median(&mi);
            probe.mem_delete_ms = median(&md);
        }
        _ => notes.push("store probe: a probe write failed".into()),
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    probe
}
