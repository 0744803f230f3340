//! What both binaries need that is not about a workload: order statistics,
//! the driver's command-line contract and result line, the benchmark's
//! directories, and the host description every result file carries.

use std::path::{Path, PathBuf};
use std::process::Command;

use bft_sim_core::json::Json;

use crate::workloads::Workload;

/// The benchmark's own directory (the package root, fixed at build time; the
/// driver builds inside the checkout it runs in).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch space for repetition directories; inside the checkout, ignored by
/// git, emptied by whoever created an entry.
pub fn tmp_dir() -> PathBuf {
    bench_dir().join("tmp")
}

pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// Five-number summary of a sample. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the spread
/// this benchmark prints is the spread its driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let quantile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            n,
            min,
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            max,
        })
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("min", Json::from(self.min)),
            ("q1", Json::from(self.q1)),
            ("median", Json::from(self.median)),
            ("q3", Json::from(self.q3)),
            ("max", Json::from(self.max)),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Summary> {
        let f = |key| json.get(key).and_then(Json::as_f64);
        Some(Summary {
            n: json.get("n")?.as_u64()? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

/// `--workload W --seed N --seconds S --trace 0|1`, the arguments the driver
/// appends to `BENCHMARK.json`'s command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContractArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl ContractArgs {
    pub fn parse(args: &[String]) -> Result<ContractArgs, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed".to_string())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or("bad --seconds")?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("bad --trace (use 0 or 1)".into()),
                    })
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(ContractArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// `{"<name>": {"value": v, "unit": u}, …}`, the shape the driver reads and
/// the result files keep.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    )
}

/// Prints the driver's result object as the last line of stdout.
pub fn print_result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{}", line.dump());
}

/// `[--seed S] [--out FILE]`, the arguments of `bench run` and `tracer
/// trace`. Without `--out` the file is `results/latest-<kind>seed<S>.json`.
pub fn parse_seed_and_out(args: &[String], kind: &str) -> Result<(u64, PathBuf), String> {
    let mut seed = crate::workloads::DEFAULT_SEED;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let out = out.unwrap_or_else(|| results_dir().join(format!("latest-{kind}seed{seed}.json")));
    Ok((seed, out))
}

/// Writes `json` (pretty, newline-terminated) to `path`, creating its
/// directory.
pub fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, json.dump_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The regression bound of every end-to-end metric, read from the
/// `BENCHMARK.json` beside the benchmark's directory — the one place they
/// are fixed.
pub fn load_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("bad {}: {e}", path.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{} lacks 'end_to_end'", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
        })
        .collect()
}

/// The committed default-seed fingerprint of `workload`, if any.
pub fn recorded_fingerprint(workload: Workload) -> Option<Json> {
    let text = std::fs::read_to_string(bench_dir().join("fingerprints.json")).ok()?;
    let json = Json::parse(&text).ok()?;
    json.get("workloads")?.get(workload.name()).cloned()
}

/// The 1-minute load average, or `None` off Linux.
pub fn load_1m() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The host guard, taken before a run: the 1-minute load, and whether it
/// exceeds half the cores — other work is then likely to disturb timings,
/// which is said on stdout.
pub fn host_load_guard() -> (Option<f64>, bool) {
    let load = load_1m();
    let loaded = load.is_some_and(|l| l > 0.5 * host_threads() as f64);
    if loaded {
        println!("noisy host: 1-minute load {load:?} before the run");
    }
    (load, loaded)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header every result file starts with: what was measured, on what.
pub fn host_header(seed: u64, load_start: Option<f64>) -> Vec<(&'static str, Json)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = |l: Option<f64>| l.map_or(Json::Null, Json::from);
    vec![
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        ("nproc", Json::from(host_threads())),
        ("cpu_model", Json::from(cpu)),
        ("seed", Json::from(seed)),
        ("loadavg_1m_start", load(load_start)),
        ("loadavg_1m_end", load(load_1m())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!((s.n, s.min, s.max), (9, 1.0, 9.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[3.0]).unwrap().median, 3.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.5, 2.25, 9.0]).unwrap();
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }

    #[test]
    fn contract_args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = ContractArgs::parse(&argv(
            "--workload pbft_n512 --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::PbftN512);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(
            ContractArgs::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err()
        );
        assert!(ContractArgs::parse(&argv("--workload pbft_n512 --seed 1 --seconds 1")).is_err());
        assert!(
            ContractArgs::parse(&argv("--workload pbft_n512 --seed 1 --seconds 0 --trace 0"))
                .is_err()
        );
    }
}
