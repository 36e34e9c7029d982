//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). The lines before it hold the run's provenance, its
//! simulation digest and the workload-specific figures. Exits 1 when an
//! output check fails and 2 on bad arguments or a refused environment.

use protean_perfbench::cli::{Args, USAGE};
use protean_perfbench::host;
use protean_perfbench::metrics::{END_TO_END, PER_LAYER};
use protean_sim::json::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set = host::set_toggles();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: these toggles change what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }

    let outcome = protean_perfbench::run(&args);

    let root = host::checkout_root();
    let provenance = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds.as_secs())),
        ("git_rev", Json::str(host::git_rev(&root))),
        ("source_hash", Json::str(host::source_hash(&root))),
        ("rustc", Json::str(host::rustc_version())),
        ("nproc", Json::U64(host::nproc() as u64)),
        ("workers", Json::U64(outcome.workers as u64)),
        ("roster_hash", Json::str(outcome.roster_hash.clone())),
        (
            "tracing_overhead_s",
            outcome.tracing_overhead_s.map_or(Json::Null, Json::F64),
        ),
    ]);
    println!("{}", Json::obj([("provenance", provenance)]).render());
    println!(
        "{}",
        Json::obj([("sim_digest", Json::str(outcome.sim_digest.clone()))]).render()
    );
    let workload_metrics = outcome.workload_metrics.iter().map(|(name, unit, value)| {
        (
            *name,
            Json::obj([("value", Json::F64(*value)), ("unit", Json::str(*unit))]),
        )
    });
    println!(
        "{}",
        Json::obj([("workload_metrics", Json::obj(workload_metrics))]).render()
    );
    if !outcome.host_values.is_empty() {
        let host_values = outcome
            .host_values
            .iter()
            .map(|(name, v)| (*name, Json::F64(*v)));
        let host_time = Json::obj([
            ("calibration_scale", Json::F64(outcome.calibration_scale)),
            ("metrics", Json::obj(host_values)),
        ]);
        println!("{}", Json::obj([("host_time", host_time)]).render());
    }
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let line = if args.trace {
        outcome.result_line(PER_LAYER, true)
    } else {
        outcome.result_line(END_TO_END, false)
    };
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
