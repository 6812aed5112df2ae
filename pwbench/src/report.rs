//! Operation accounting, the run deadline, and the result line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static DONE: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

fn bump(counter: &AtomicU64, n: u64) {
    // Relaxed: each counter is a statistic read on its own; nothing is
    // published through it.
    counter.fetch_add(n, Ordering::Relaxed);
}

fn read(counter: &AtomicU64) -> u64 {
    // Relaxed: as in `bump`, a lone statistic.
    counter.load(Ordering::Relaxed)
}

/// Counts `n` operations as attempted.
pub fn progress_attempt(n: u64) {
    bump(&ATTEMPTED, n);
}

/// Counts one attempted operation as finished, failed unless `ok`.
pub fn progress_done(ok: bool) {
    if !ok {
        bump(&FAILED, 1);
    }
    bump(&DONE, 1);
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// All answer checks and aggregate floors passed.
    pub correct: bool,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Prints the notes and the one-line JSON result, returning the exit code.
pub fn finish(outcome: &Outcome, trace: bool) -> i32 {
    for n in &outcome.notes {
        println!("{n}");
    }
    let shown = if trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in if trace { &outcome.end_to_end } else { &outcome.per_layer } {
        println!("  (info) {} = {} {}", m.name, m.value, m.unit);
    }
    let attempted = read(&ATTEMPTED);
    let failed = read(&FAILED) + attempted.saturating_sub(read(&DONE));
    let correct = outcome.correct && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, shown));
    if correct {
        0
    } else {
        1
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Ends the process if the run overruns `limit` or stops making progress
/// for `stall` once operations have started: the attempted and failed
/// counts so far are printed (every unfinished operation counts as failed)
/// and the exit code is 3. Nothing is retried.
pub fn start_watchdog(limit: Duration, stall: Duration) {
    let started = Instant::now();
    let spawned = std::thread::Builder::new().name("pwbench-watchdog".into()).spawn(move || {
        let mut last = (0, 0);
        let mut last_change = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(250));
            let now = (read(&ATTEMPTED), read(&DONE));
            if now != last {
                last = now;
                last_change = Instant::now();
            }
            let stalled = now.0 > 0 && last_change.elapsed() > stall;
            if stalled || started.elapsed() > limit {
                let why = if stalled { "no progress" } else { "deadline passed" };
                println!(
                    "pwbench: {why} after {:.1} s; {} of {} operations finished",
                    started.elapsed().as_secs_f64(),
                    now.1,
                    now.0
                );
                let failed = read(&FAILED) + now.0.saturating_sub(now.1);
                println!("{}", result_line(false, now.0.max(1), failed.max(1), &[]));
                std::process::exit(3);
            }
        }
    });
    if let Err(e) = spawned {
        eprintln!("pwbench: cannot start the watchdog: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("a_ms", 1.5, "ms"), metric("b", 2.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
