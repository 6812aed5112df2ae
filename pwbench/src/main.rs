//! `pwbench`: the PathWeaver system benchmark.
//!
//! ```text
//! pwbench --workload <batch_wiki|serve_deep|churn_deep|cluster_deep>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets the system up
//! several times (`setup_s` is the median), measures for `--seconds`
//! seconds through the public API, checks every answer against
//! computations made here, and prints one JSON result line last: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (with the
//! `pathweaver-obs` registry on) with `--trace 1`. See `README.md`.

mod check;
mod layers;
mod report;
mod stats;
mod workloads;

use std::time::Duration;
use workloads::Ctx;

/// Workload names, as `--workload` takes them.
const WORKLOADS: &[&str] = &["batch_wiki", "serve_deep", "churn_deep", "cluster_deep"];

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {}", WORKLOADS.join(", ")));
    }
    let seed = value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((workload, Ctx { seed, seconds, trace }))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(layers::POOL_PROBE_FLAG) {
        layers::pool_probe_child();
        return;
    }
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pwbench: {e}");
            std::process::exit(2);
        }
    };
    // The worker pool stays off (`PATHWEAVER_THREADS=1`: every
    // `parallel_for` runs serially on its caller, read on every call). Runs
    // with the pool on died of SIGSEGV now and then, in set-up as well as
    // in serving: the pool's known use-after-free. Only the
    // `pool.dispatch_us` probe turns it on, in a child process.
    std::env::set_var("PATHWEAVER_THREADS", "1");
    // Metrics recording only in traced runs, whatever the environment says;
    // structured traces never (they grow without bound).
    pathweaver_obs::set_tracing(false);
    pathweaver_obs::set_enabled(ctx.trace);
    println!(
        "pwbench {workload}: seed {}, {} s, trace {}, PATHWEAVER_THREADS=1, simd {}, nproc {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        pathweaver_vector::active_simd_level().name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    // Well inside the 180 s a run may take; a run with no finished
    // operation for 60 s has hung.
    report::start_watchdog(Duration::from_secs(150), Duration::from_secs(60));

    let outcome = match workload.as_str() {
        "batch_wiki" => workloads::batch_wiki::run(&ctx),
        "serve_deep" => workloads::serve_deep::run(&ctx),
        "churn_deep" => workloads::churn_deep::run(&ctx),
        _ => workloads::cluster_deep::run(&ctx),
    };
    let code = report::finish(&outcome, ctx.trace);
    std::process::exit(code);
}
