//! The four workloads and what they share.

pub mod batch_wiki;
pub mod churn_deep;
pub mod cluster_deep;
pub mod openloop;
pub mod serve_deep;

use crate::check::check_hits;
use crate::report::{metric, Metric, Outcome};
use crate::stats::{median, peak_rss_mb, percentile};
use pathweaver_core::PathWeaverConfig;
use pathweaver_datasets::query::split_queries;
use pathweaver_datasets::{brute_force_knn, DatasetProfile, Scale, SyntheticSpec, Workload};
use pathweaver_search::{DgsParams, SearchParams};
use pathweaver_vector::VectorSet;
use std::path::{Path, PathBuf};

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Shift added to every coordinate of an inserted vector. Synthetic data
/// lies within a few units of the origin, so a shifted row is farther from
/// every query than any base row and the static ground truth stays exact.
pub const TRANSLATION: f32 = 40.0;

/// A data-distribution row moved away from every query.
pub fn translated(row: &[f32]) -> Vec<f32> {
    row.iter().map(|x| x + TRANSLATION).collect()
}

/// Seed of the synthetic corpora's geometry (cluster centres and rows).
/// It is fixed, like a real corpus; `--seed` chooses which rows are held
/// out as queries, so run-to-run differences are sampling, not a different
/// data set.
const CORPUS_SEED: u64 = 0x9e_2025;

/// A bench-scale corpus of `profile` with `queries` rows held out as
/// queries (chosen by `seed`) and their brute-force ground truth.
pub fn corpus(profile: DatasetProfile, queries: usize, seed: u64) -> Workload {
    let spec = profile.base_spec(Scale::Bench, CORPUS_SEED);
    let all = SyntheticSpec { len: spec.len + queries, ..spec }.generate();
    let (base, queries) = split_queries(&all, queries, seed);
    let ground_truth = brute_force_knn(&base, &queries, 10);
    Workload { name: profile.name.to_string(), base, queries, ground_truth }
}

/// The Deep-like data set: 96-d, 30k base rows, 1000 held-out queries.
pub fn deep_data(seed: u64) -> Workload {
    corpus(DatasetProfile::deep10m_like(), 1000, seed)
}

/// The Deep-like index configuration: the test-scale preset (degree 16)
/// on 2 simulated devices.
pub fn deep_config() -> PathWeaverConfig {
    PathWeaverConfig::test_scale(2)
}

/// The search operating point shared by the Deep-like workloads: a
/// 128-wide beam with DGS, about 0.9 recall@10 on this data.
pub fn deep_params() -> SearchParams {
    SearchParams {
        beam: 128,
        candidates: 64,
        patience: 32,
        max_iterations: 192,
        dgs: Some(DgsParams::default()),
        ..SearchParams::default()
    }
}

/// Recall@10 below which a Deep-like run is incorrect.
pub const DEEP_RECALL_FLOOR: f64 = 0.85;

/// A directory under `.bench_tmp/` in the working directory, removed on
/// drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `.bench_tmp/<tag>-<pid>`, emptying any leftover of the same
    /// name.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_tmp` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub struct EndToEnd {
    /// Median wall time of one set-up, s.
    pub setup_s: f64,
    /// Completed operations per wall second (see the README per workload).
    pub throughput: f64,
    /// Read latencies in completion order, ms.
    pub latency_ms: Vec<f64>,
    /// Consecutive windows the latencies are split into: each percentile
    /// is the median of the windows' percentiles, so one stalled stretch
    /// of a run moves it by one window, not all of it.
    pub windows: usize,
    pub recall: f64,
    pub sim_qps: f64,
    /// Process CPU time over the measured window, ms.
    pub cpu_ms: f64,
    /// Operations completed in the measured window.
    pub ops: u64,
}

impl EndToEnd {
    /// Read latency p50 and p99 (medians over the windows) with the sample
    /// count: printed, not gated (see the README).
    pub fn latency_note(&self) -> String {
        format!(
            "  latency_p50_ms = {} ms; latency_p99_ms = {} ms ({} samples in {} windows)",
            windowed(&self.latency_ms, self.windows, 50.0),
            windowed(&self.latency_ms, self.windows, 99.0),
            self.latency_ms.len(),
            self.windows
        )
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("throughput", self.throughput, "ops/s"),
            metric("recall_at_10", self.recall, "fraction"),
            metric("sim_qps", self.sim_qps, "queries/s"),
            metric("cpu_ms_per_op", self.cpu_ms / self.ops.max(1) as f64, "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

/// Throughput from per-window rates: their 90th percentile (nearest rank),
/// the run's least-disturbed windows. On a host whose hypervisor takes a
/// varying share of the CPU, a window slowed by that is not the system's
/// rate; with a handful of windows this is the best one.
pub fn window_rate(rates: &[f64]) -> f64 {
    percentile(rates, 90.0)
}

/// Median over `windows` consecutive equal chunks of `samples` of each
/// chunk's percentile `p`.
pub fn windowed(samples: &[f64], windows: usize, p: f64) -> f64 {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    let per: Vec<f64> = samples.chunks(size).map(|c| percentile(c, p)).collect();
    median(&per)
}

/// The outcome of a run whose set-up failed: nothing was measured.
pub fn setup_failed(what: &str, err: impl std::fmt::Display) -> Outcome {
    Outcome { notes: vec![format!("set-up failed: {what}: {err}")], ..Outcome::default() }
}

/// Checks a served answer against the base rows `0..base.len()`.
pub fn check_base(
    base: &VectorSet,
    query: &[f32],
    hits: &[(f32, u32)],
    k: usize,
) -> Result<(), String> {
    check_hits(query, hits, k, |id| ((id as usize) < base.len()).then(|| base.row(id as usize)))
}
