//! The end-to-end benchmark: host wall time, peak memory and set-up time of
//! four whole workloads, each repetition in a process of its own.
//!
//! ```text
//! bench run [--seed S] [--out FILE]      every workload, 9 timed reps each
//! bench compare A.json B.json            two result files, row by row
//! bench --workload W --seed S --seconds T --trace 0     the driver's contract
//! ```
//!
//! This binary couples to the simulator only through
//! `experiments::Scenario`, the CLI's flag grammar and `exec_campaign_run`.

mod child;
mod compare;
mod measure;

use bft_sim_bench::alloc_counter::CountingAllocator;
use bft_sim_benchmark::harness::{
    host_header, host_load_guard, load_bounds, parse_seed_and_out, print_result_line,
    recorded_fingerprint, write_json, ContractArgs, Summary,
};
use bft_sim_benchmark::workloads::{Workload, DEFAULT_SEED};
use bft_sim_core::json::Json;

use measure::{measure, Measurement, Stop, SETUPS, TIMED_REPS};

// The `bft-sim` binary users run installs this allocator (one relaxed atomic
// increment per allocation); the workloads are measured under it too.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

pub const RUN_FORMAT: &str = "bft-sim-benchmark-run-v1";

/// A later commit whose simulated behaviour differs from the recorded
/// default-seed fingerprint is flagged, not failed: a protocol fix may
/// legitimately change it, a pure speed-up must not.
fn fingerprint_changed(m: &Measurement, seed: u64) -> bool {
    seed == DEFAULT_SEED
        && recorded_fingerprint(m.workload).is_some_and(|recorded| &recorded != m.fingerprint())
}

/// A metric in a result file: the reported `value`, its unit, and the
/// summary of the samples behind it.
fn metric_json(value: f64, summary: Summary, unit: &str) -> Json {
    let Json::Obj(mut pairs) = summary.to_json() else {
        unreachable!("summaries serialise as objects");
    };
    pairs.insert(0, ("value".to_string(), Json::from(value)));
    pairs.insert(1, ("unit".to_string(), Json::from(unit)));
    Json::Obj(pairs)
}

fn workload_json(m: &Measurement, seed: u64) -> Json {
    let (runs, failed) = (m.runs(), m.failed_runs());
    let wall = m.wall_s();
    let rep = &m.reps[0];
    Json::obj([
        ("name", Json::from(m.workload.name())),
        ("runs", Json::from(runs)),
        ("failed_runs", Json::from(failed)),
        ("failure_share", Json::from(failed as f64 / runs as f64)),
        ("fingerprint", m.fingerprint().clone()),
        (
            "fingerprint_changed",
            Json::from(fingerprint_changed(m, seed)),
        ),
        ("wall_s", metric_json(m.wall_value(), wall, "s")),
        (
            "peak_rss_mb",
            metric_json(m.peak_rss_mb().median, m.peak_rss_mb(), "MB"),
        ),
        ("setup_s", metric_json(m.setup_s().median, m.setup_s(), "s")),
        // Not gated: derived from a deterministic count and wall_s, so a
        // bound on them would bound wall_s twice.
        (
            "events_per_s",
            Json::from(rep.events as f64 / m.wall_value()),
        ),
        ("runs_per_s", Json::from(rep.runs as f64 / m.wall_value())),
    ])
}

fn print_table(measurements: &[Measurement], seed: u64) {
    println!("all times are host time; simulated time appears only in fingerprints");
    println!("wall_s reports the lower quartile of the timed reps, the others their median");
    for m in measurements {
        println!("{}", m.workload.name());
        for (name, value, s, unit) in [
            ("wall_s", m.wall_value(), m.wall_s(), "s"),
            ("peak_rss_mb", m.peak_rss_mb().median, m.peak_rss_mb(), "MB"),
            ("setup_s", m.setup_s().median, m.setup_s(), "s"),
        ] {
            println!(
                "  {name:<12} {value:>9.4} {unit:<2}  (median {:.4}  q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  n = {})",
                s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        }
        let rep = &m.reps[0];
        println!(
            "  failed_runs {} / {} runs   events_per_s {:.0} 1/s   runs_per_s {:.1} 1/s",
            m.failed_runs(),
            m.runs(),
            rep.events as f64 / m.wall_value(),
            rep.runs as f64 / m.wall_value(),
        );
        println!("  fingerprint {}", m.fingerprint().dump());
        if fingerprint_changed(m, seed) {
            println!(
                "  !!! FINGERPRINT CHANGED: simulated behaviour differs from fingerprints.json !!!"
            );
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (seed, out) = parse_seed_and_out(args, "")?;
    let bounds = load_bounds()?;
    let (load_start, mut noisy) = host_load_guard();
    let measurements = measure(
        &Workload::ALL,
        seed,
        Stop::Reps(TIMED_REPS),
        |w, what, s| {
            eprintln!("{:<16} {what:<9} {s:.3} s", w.name());
        },
    )?;
    print_table(&measurements, seed);

    for m in &measurements {
        for (name, bound) in &bounds {
            let spread = match name.as_str() {
                "wall_s" => m.wall_s().spread(),
                "peak_rss_mb" => m.peak_rss_mb().spread(),
                _ => continue, // three set-ups are too few for quartiles
            };
            if spread > *bound {
                noisy = true;
                println!(
                    "noisy host: {} {name} IQR/median {spread:.3} exceeds its bound {bound}",
                    m.workload.name()
                );
            }
        }
    }

    let mut pairs = vec![("format", Json::from(RUN_FORMAT))];
    pairs.extend(host_header(seed, load_start));
    pairs.extend([
        ("setups", Json::from(SETUPS)),
        ("timed_reps", Json::from(TIMED_REPS)),
        ("noisy_host", Json::from(noisy)),
        (
            "workloads",
            Json::Arr(
                measurements
                    .iter()
                    .map(|m| workload_json(m, seed))
                    .collect(),
            ),
        ),
    ]);
    write_json(&out, &Json::obj(pairs))?;
    println!("results -> {}", out.display());
    if measurements.iter().any(|m| m.failed_runs() > 0) {
        return Err("some runs failed".into());
    }
    Ok(())
}

/// The driver's contract: one workload, timed for `--seconds`, one result
/// object as the last line of stdout.
fn contract(args: &[String]) -> Result<(), String> {
    let args = ContractArgs::parse(args)?;
    if args.trace {
        return Err("--trace 1 is the tracer binary's job (see benchmark/run.sh)".into());
    }
    let measured = measure(
        &[args.workload],
        args.seed,
        Stop::Seconds(args.seconds),
        |w, what, s| {
            eprintln!("{:<16} {what:<9} {s:.3} s", w.name());
        },
    )?;
    let m = &measured[0];
    if fingerprint_changed(m, args.seed) {
        eprintln!(
            "!!! FINGERPRINT CHANGED: simulated behaviour differs from fingerprints.json !!!"
        );
    }
    let failed = m.failed_runs();
    print_result_line(
        failed == 0,
        m.runs(),
        failed,
        &[
            ("wall_s", m.wall_value(), "s"),
            ("peak_rss_mb", m.peak_rss_mb().median, "MB"),
            ("setup_s", m.setup_s().median, "s"),
        ],
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child::main(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(flag) if flag.starts_with("--") => contract(&args),
        _ => Err(
            "usage: bench run [--seed S] [--out FILE] | bench compare A.json B.json | \
                  bench --workload W --seed S --seconds T --trace 0"
                .into(),
        ),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
