//! The parent side: run repetitions as child processes, one at a time, and
//! summarise them into the end-to-end metrics.

use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use bft_sim_benchmark::harness::{tmp_dir, Summary};
use bft_sim_benchmark::workloads::{self, Workload};
use bft_sim_core::json::Json;

use crate::child::{Rep, STDOUT_FILE};

/// Set-ups per workload per invocation. Each starts from an empty directory,
/// generates the inputs and runs one untimed repetition, so together they
/// are also the warm-up. `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Timed repetitions per workload in `bench run`.
pub const TIMED_REPS: usize = 9;
/// Fewest timed repetitions a time-boxed run accepts before stopping.
const MIN_TIMED_REPS: usize = 3;

/// When to stop taking timed repetitions.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many per workload.
    Reps(usize),
    /// Once this many seconds of timed repetitions have passed.
    Seconds(f64),
}

/// All repetitions of one workload in one invocation.
#[derive(Debug)]
pub struct Measurement {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    pub reps: Vec<Rep>,
}

impl Measurement {
    pub fn wall_s(&self) -> Summary {
        self.summary(|r| r.wall_s)
    }

    /// The `wall_s` this invocation reports: the lower quartile of its timed
    /// repetitions, not their median. On a shared host the disturbance is
    /// one-sided (a rep is only ever slowed) and comes in phases of 10–30 s,
    /// so the lower quartile of a ~20 s window repeats about twice as closely
    /// as its median (IQR/median 5–10 % against 10–13 % over windows of ten
    /// reps, from 113 consecutive reps of each single-run workload).
    pub fn wall_value(&self) -> f64 {
        self.wall_s().q1
    }

    pub fn peak_rss_mb(&self) -> Summary {
        self.summary(|r| r.peak_rss_mb)
    }

    pub fn setup_s(&self) -> Summary {
        Summary::of(&self.setup_s).expect("every measurement has set-ups")
    }

    fn summary(&self, f: impl Fn(&Rep) -> f64) -> Summary {
        let values: Vec<f64> = self.reps.iter().map(f).collect();
        Summary::of(&values).expect("every measurement has timed reps")
    }

    /// Simulations attempted across the timed repetitions.
    pub fn runs(&self) -> u64 {
        self.reps.iter().map(|r| r.runs).sum()
    }

    /// Failed simulations, plus one for every repetition whose fingerprint
    /// disagrees with the first: same inputs must give the same simulation.
    pub fn failed_runs(&self) -> u64 {
        let mismatched = self
            .reps
            .iter()
            .filter(|r| r.fingerprint != self.reps[0].fingerprint)
            .count() as u64;
        self.reps.iter().map(|r| r.failed_runs).sum::<u64>() + mismatched
    }

    pub fn fingerprint(&self) -> &Json {
        &self.reps[0].fingerprint
    }
}

fn rep_dir(tag: &str) -> PathBuf {
    tmp_dir().join(format!("{}-{tag}", std::process::id()))
}

/// Runs one repetition in a fresh directory and a fresh process; removes the
/// directory afterwards. Returns the child's measurements and the host
/// seconds the whole call took (input generation + spawn + run + clean-up).
fn run_rep(workload: Workload, seed: u64, tag: &str) -> Result<(Rep, f64), String> {
    let start = Instant::now();
    let dir = rep_dir(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    workloads::write_inputs(workload, seed, &dir)?;
    let file = |name: &str| {
        File::create(dir.join(name))
            .map_err(|e| format!("cannot create {name} in {}: {e}", dir.display()))
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .args(["child", workload.name(), &seed.to_string()])
        .arg(&dir)
        .stdin(Stdio::null())
        .stdout(file(STDOUT_FILE)?)
        .stderr(file("stderr.txt")?)
        .status()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !status.success() {
        let stderr = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{} child failed ({status}); stderr ends:\n{}",
            workload.name(),
            tail.into_iter().rev().collect::<Vec<_>>().join("\n")
        ));
    }
    let rep = Rep::read(&dir)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok((rep, start.elapsed().as_secs_f64()))
}

/// Measures `workloads` round-robin (w1, w2, …, w1, …) so host drift hits
/// all of them alike; children run strictly one at a time while this process
/// waits. `progress` is told about each finished repetition.
pub fn measure(
    workloads: &[Workload],
    seed: u64,
    stop: Stop,
    mut progress: impl FnMut(Workload, &str, f64),
) -> Result<Vec<Measurement>, String> {
    let mut out: Vec<Measurement> = workloads
        .iter()
        .map(|&workload| Measurement {
            workload,
            setup_s: Vec::new(),
            reps: Vec::new(),
        })
        .collect();
    for round in 0..SETUPS {
        for m in &mut out {
            let (_, took) = run_rep(m.workload, seed, &format!("setup{round}"))?;
            progress(m.workload, "set-up", took);
            m.setup_s.push(took);
        }
    }
    let timed = Instant::now();
    for round in 0.. {
        let done = match stop {
            Stop::Reps(n) => round >= n,
            Stop::Seconds(s) => round >= MIN_TIMED_REPS && timed.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        for m in &mut out {
            let (rep, _) = run_rep(m.workload, seed, &format!("rep{round}"))?;
            progress(m.workload, "timed rep", rep.wall_s);
            m.reps.push(rep);
        }
    }
    Ok(out)
}
