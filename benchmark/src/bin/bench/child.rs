//! One repetition, in a process of its own: `bench child <workload> <seed> <dir>`.
//!
//! A fresh process per repetition gives every rep a cold heap and makes
//! `VmHWM` the peak of exactly one run. The parent redirects this process's
//! stdout to `<dir>/stdout.txt`, so the fuzz report the CLI prints can be
//! read back and checked here, inside the timed region.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bft_sim_benchmark::workloads::{self, fnv1a_hex, SingleRun, Workload};
use bft_sim_cli::campaign::exec_campaign_run;
use bft_sim_core::json::Json;
use bft_simulator::experiments::Scenario;

const RESULT_FILE: &str = "result.json";
pub const STDOUT_FILE: &str = "stdout.txt";

/// What one repetition measured and computed: written by the child into its
/// directory, read back by the parent.
#[derive(Debug, Clone)]
pub struct Rep {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub runs: u64,
    pub failed_runs: u64,
    pub events: u64,
    pub fingerprint: Json,
}

impl Rep {
    fn write(&self, dir: &Path) -> Result<(), String> {
        let json = Json::obj([
            ("wall_s", Json::from(self.wall_s)),
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            ("runs", Json::from(self.runs)),
            ("failed_runs", Json::from(self.failed_runs)),
            ("events", Json::from(self.events)),
            ("fingerprint", self.fingerprint.clone()),
        ]);
        let path = dir.join(RESULT_FILE);
        std::fs::write(&path, json.dump_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    pub fn read(dir: &Path) -> Result<Rep, String> {
        let path = dir.join(RESULT_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("bad {}: {e}", path.display()))?;
        let lacks = |key: &str| format!("{} lacks '{key}'", path.display());
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| lacks(key))
        };
        let count = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| lacks(key))
        };
        Ok(Rep {
            wall_s: num("wall_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            runs: count("runs")?,
            failed_runs: count("failed_runs")?,
            events: count("events")?,
            fingerprint: json
                .get("fingerprint")
                .cloned()
                .ok_or_else(|| lacks("fingerprint"))?,
        })
    }
}

/// What one repetition computed. A *run* is one simulation: one per rep for
/// the single-run workloads, one scenario of the sweep, one campaign unit.
struct Outcome {
    runs: u64,
    failed_runs: u64,
    events: u64,
    /// Simulated quantities only; must repeat exactly from rep to rep.
    fingerprint: Json,
}

fn single(run: SingleRun) -> Outcome {
    let scenario = Scenario::new(run.protocol, run.n).with_decisions(run.decisions);
    let result = scenario.run(run.seed);
    let decisions = result.decisions_completed();
    let ok = result.is_clean() && decisions == run.decisions;
    let mean_latency = result
        .avg_latency_per_decision(run.decisions as usize)
        .map_or(0, |d| d.as_micros());
    Outcome {
        runs: 1,
        failed_runs: u64::from(!ok),
        events: result.events_processed,
        fingerprint: Json::obj([
            ("events_processed", Json::from(result.events_processed)),
            ("decisions", Json::from(decisions)),
            ("honest_messages", Json::from(result.honest_messages)),
            ("queue_high_water", Json::from(result.queue_high_water)),
            ("sim_end_micros", Json::from(result.end_time.as_micros())),
            ("sim_mean_decision_latency_micros", Json::from(mean_latency)),
        ]),
    }
}

fn fuzz(seed: u64, dir: &Path) -> Result<Outcome, String> {
    let args = workloads::fuzz_plan(seed).cli_args(&dir.join("repros"));
    let exit_code = match bft_sim_cli::parse_args(&args).and_then(bft_sim_cli::execute) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fuzz: {e}");
            e.code
        }
    };
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    let path = dir.join(STDOUT_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let report = Json::parse(&text).map_err(|e| format!("fuzz report is not JSON: {e}"))?;
    let count = |key: &str| {
        report
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("fuzz report lacks '{key}'"))
    };
    let panicked = count("panicked_scenarios")?;
    let runs = count("runs")? + panicked;
    let failed = count("violating_scenarios")? + panicked;
    let events = count("events_processed")?;
    Ok(Outcome {
        runs,
        // A non-zero exit with a clean-looking report still fails the rep.
        failed_runs: if exit_code != 0 {
            failed.max(1)
        } else {
            failed
        },
        events,
        fingerprint: Json::obj([
            ("events_processed", Json::from(events)),
            ("scenarios", Json::from(runs)),
            ("report_fnv", Json::from(fnv1a_hex(text.as_bytes()))),
        ]),
    })
}

fn campaign(dir: &Path) -> Result<Outcome, String> {
    let report = exec_campaign_run(&workloads::campaign_run_spec(dir))
        .map_err(|e| format!("campaign run failed (exit {}): {e}", e.code))?
        .ok_or("campaign run returned no report")?;
    let count = |key: &str| {
        report
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("campaign report lacks '{key}'"))
    };
    // The report carries per-cell event summaries; mean × count is the sum.
    let events: f64 = report
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("campaign report lacks 'cells'")?
        .iter()
        .filter_map(|cell| cell.get("events"))
        .filter_map(|s| Some(s.get("mean")?.as_f64()? * s.get("count")?.as_f64()?))
        .sum();
    let events = events.round() as u64;
    Ok(Outcome {
        runs: count("units")?,
        failed_runs: count("violated")? + count("panicked")?,
        events,
        fingerprint: Json::obj([
            ("events_processed", Json::from(events)),
            ("units", Json::from(count("units")?)),
            (
                "report_fnv",
                Json::from(fnv1a_hex(report.dump_pretty().as_bytes())),
            ),
        ]),
    })
}

/// Peak resident set size of this process so far, in kB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [workload, seed, dir] = args else {
        return Err("usage: bench child <workload> <seed> <dir>".into());
    };
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
    let dir = Path::new(dir);

    // Timed region: from before any configuration is built until the
    // outcome is in hand and checked. Process spawn and exit are excluded.
    let start = Instant::now();
    let outcome = match workloads::single_run(workload, seed) {
        Some(run) => single(run),
        None if workload == Workload::FuzzNetSweep => fuzz(seed, dir)?,
        None => campaign(dir)?,
    };
    let wall_s = start.elapsed().as_secs_f64();

    Rep {
        wall_s,
        peak_rss_mb: peak_rss_kb()? as f64 / 1024.0,
        runs: outcome.runs,
        failed_runs: outcome.failed_runs,
        events: outcome.events,
        fingerprint: outcome.fingerprint,
    }
    .write(dir)
}
