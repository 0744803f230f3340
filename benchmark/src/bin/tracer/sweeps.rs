//! The traced sweeps. `ScenarioSpec` builds its network and adversary
//! privately, so no shim can be slipped inside a fuzz scenario or a campaign
//! unit. What *can* be done from outside is to re-implement the outer loop
//! from public pieces, with a span around each call — and to prove the loop
//! did the same work as the untraced path (same event count for the fuzz
//! sweep, byte-identical report for the campaign).

use std::path::Path;
use std::time::Instant;

use bft_sim_benchmark::workloads::{self, FuzzPlan, FUZZ_PROTOCOLS};
use bft_sim_cli::campaign::exec_campaign_run;
use bft_sim_core::campaign::{
    final_report, mix_seed, Checkpoint, Manifest, Unit, UnitOutcome, UnitRecord,
};
use bft_sim_core::json::Json;
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_core::sweep::sweep;
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_simcheck::{
    fuzz_many, run_unit, ChurnSpec, DelaySpec, FuzzOptions, NetSpec, RunMode, ScenarioSpec,
    TopologyKind, UnitRun,
};

use crate::spans::Span;

/// One job of a traced sweep: when it ran (ns since the sweep's epoch) and
/// what it produced.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub start_ns: u64,
    /// End of scenario generation / unit mapping; start of the run.
    pub built_ns: u64,
    pub end_ns: u64,
    pub events: u64,
    pub violations: u64,
}

/// What a traced sweep measured.
pub struct SweepTrace {
    pub wall_s: f64,
    pub threads: usize,
    pub jobs: Vec<Job>,
    /// Host seconds inside `sweep::sweep` calls (all of `wall_s` for the
    /// fuzz sweep; the campaign also serialises checkpoints between calls).
    pub sweep_wall_s: f64,
}

impl SweepTrace {
    pub fn events(&self) -> u64 {
        self.jobs.iter().map(|j| j.events).sum()
    }

    pub fn violations(&self) -> u64 {
        self.jobs.iter().map(|j| j.violations).sum()
    }

    pub fn gen_s(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.built_ns - j.start_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    pub fn unit_run_s(&self) -> f64 {
        self.run_ns().iter().sum::<u64>() as f64 / 1e9
    }

    pub fn run_ns(&self) -> Vec<u64> {
        self.jobs.iter().map(|j| j.end_ns - j.built_ns).collect()
    }

    /// Σ per-job time, measured inside the closure handed to `sweep::sweep`.
    pub fn busy_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.end_ns - j.start_ns).sum::<u64>() as f64 / 1e9
    }

    /// Share of the worker threads' time inside `sweep::sweep` spent on jobs.
    pub fn efficiency(&self) -> f64 {
        self.busy_s() / (self.threads as f64 * self.sweep_wall_s)
    }

    pub fn spans(&self, job_name: &'static str, build_name: &'static str, out: &mut Vec<Span>) {
        for (i, j) in self.jobs.iter().enumerate() {
            let rep = i as u32;
            out.push(Span::new(job_name, j.start_ns, j.end_ns, "sweep", rep));
            out.push(Span::new(build_name, j.start_ns, j.built_ns, job_name, rep));
            out.push(Span::new("run", j.built_ns, j.end_ns, job_name, rep));
        }
    }
}

/// The options the CLI derives from the fuzz workload's argv: the CLI's
/// defaults plus the plan's protocols, threads and network block.
pub fn fuzz_options(plan: &FuzzPlan) -> FuzzOptions {
    let (seed, crashes, min_down_ms, max_down_ms) = plan.churn;
    FuzzOptions {
        protocols: FUZZ_PROTOCOLS.to_vec(),
        threads: plan.threads,
        net_override: Some(NetSpec {
            topology: TopologyKind::parse(plan.topology).expect("a known topology"),
            bandwidth: Some(plan.bandwidth),
            topology_seed: 0,
            churn: Some(ChurnSpec {
                seed,
                crashes,
                min_down_ms,
                max_down_ms,
            }),
        }),
        ..FuzzOptions::default()
    }
}

/// `fuzz_many`'s per-seed loop with a span around generation and run.
pub fn traced_fuzz(plan: &FuzzPlan) -> Result<SweepTrace, String> {
    let opts = fuzz_options(plan);
    let seeds: Vec<u64> = (plan.seeds.0..plan.seeds.1).collect();
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let results = sweep(seeds.len(), opts.threads, |i| -> Result<Job, String> {
        let start_ns = now();
        let mut spec = ScenarioSpec::generate(
            seeds[i],
            &opts.protocols,
            opts.intensity_permille,
            opts.max_actions,
            opts.inject_bug,
            opts.fault_preset,
        );
        spec.net = opts.net_override;
        let built_ns = now();
        let run = spec.run_with(RunMode::Generate, opts.scheduler)?;
        Ok(Job {
            start_ns,
            built_ns,
            end_ns: now(),
            events: run.result.events_processed,
            violations: run.violations.len() as u64,
        })
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let jobs = results
        .into_iter()
        .map(|r| r.map_err(|p| p.to_string())?)
        .collect::<Result<Vec<Job>, String>>()?;
    Ok(SweepTrace {
        wall_s,
        threads: opts.threads,
        jobs,
        sweep_wall_s: wall_s,
    })
}

/// The untraced reference for the fuzz sweep: `fuzz_many`, which is what the
/// CLI calls. Returns (events processed, failed scenarios, host seconds).
pub fn untraced_fuzz(plan: &FuzzPlan) -> Result<(u64, u64, f64), String> {
    let opts = fuzz_options(plan);
    let start = Instant::now();
    let report = fuzz_many(plan.seeds.0..plan.seeds.1, &opts)?;
    let wall_s = start.elapsed().as_secs_f64();
    let failed = report.outcomes.len() as u64 + report.panicked;
    Ok((report.events_processed, failed, wall_s))
}

/// The unit → scenario mapping of `bft-sim campaign` (private to the CLI),
/// restated from public pieces for the axes the workload's manifest uses.
/// The byte-identical report proves the restatement.
fn unit_scenario(manifest: &Manifest, unit: &Unit<'_>) -> Result<ScenarioSpec, String> {
    let kind = ProtocolKind::parse(unit.protocol)
        .ok_or_else(|| format!("unknown protocol \"{}\"", unit.protocol))?;
    let mut spec = ScenarioSpec::baseline(kind);
    spec.n = unit.n;
    spec.seed = mix_seed(unit.seed, 0);
    spec.genesis_seed = mix_seed(unit.seed, 1);
    spec.adversary_seed = mix_seed(unit.seed, 2);
    spec.delay = match unit.delay {
        "uniform" => DelaySpec::Uniform {
            lo_micros: 50_000,
            hi_micros: 300_000,
        },
        "normal" => DelaySpec::Normal {
            mean_micros: 250_000,
            std_micros: 50_000,
        },
        other => return Err(format!("delay \"{other}\" is not used by the workload")),
    };
    if unit.net != "none" {
        return Err(format!("net \"{}\" is not used by the workload", unit.net));
    }
    if unit.attack > 0 {
        spec.intensity_permille = unit.attack;
        spec.max_actions = manifest.max_actions;
    }
    Ok(spec)
}

/// What the traced campaign measured beyond its unit sweep.
pub struct CampaignTrace {
    pub sweep: SweepTrace,
    pub manifest_parse_s: f64,
    pub ckpt_writes: u64,
    /// Bytes written across all checkpoint rewrites.
    pub ckpt_bytes: u64,
    pub ckpt_write_s: f64,
    pub report_s: f64,
    /// One `Checkpoint::load` of the final checkpoint, driven directly after
    /// the traced region (the untraced run never loads).
    pub ckpt_load_s: f64,
    pub report: Json,
    /// Spans of the non-sweep calls: (name, start ns, end ns).
    pub calls: Vec<(&'static str, u64, u64)>,
}

/// `exec_campaign_run`'s loop — load manifest, run batches of units,
/// checkpoint after each, derive the report — with a span around each call.
pub fn traced_campaign(dir: &Path) -> Result<CampaignTrace, String> {
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut calls = Vec::new();
    let mut timed = |name: &'static str, start: u64| {
        let end = now();
        calls.push((name, start, end));
        (end - start) as f64 / 1e9
    };

    let t = now();
    let path = workloads::manifest_path(dir);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let manifest = Manifest::from_json(&Json::parse(&text)?)?;
    let manifest_parse_s = timed("manifest_parse", t);

    let checkpoint_path = dir.join("traced.checkpoint.json");
    let mut checkpoint = Checkpoint::new(manifest.hash(), (0, 1));
    let total = manifest.total_units();
    let (mut jobs, mut sweep_wall_s) = (Vec::with_capacity(total), 0.0);
    let (mut ckpt_writes, mut ckpt_bytes, mut ckpt_write_s) = (0u64, 0u64, 0.0);
    for batch_start in (0..total).step_by(manifest.checkpoint_every) {
        let batch_end = (batch_start + manifest.checkpoint_every).min(total);
        let t = now();
        let runs = sweep(
            batch_end - batch_start,
            1,
            |j| -> Result<(Job, UnitRun), String> {
                let start_ns = now();
                let unit = manifest.unit(batch_start + j);
                let scenario = unit_scenario(&manifest, &unit)?;
                let built_ns = now();
                let run = run_unit(&scenario, SchedulerKind::default())?;
                let job = Job {
                    start_ns,
                    built_ns,
                    end_ns: now(),
                    events: run.events_processed,
                    violations: run.violations.len() as u64 + u64::from(run.panic.is_some()),
                };
                Ok((job, run))
            },
        );
        sweep_wall_s += (now() - t) as f64 / 1e9;
        for (j, outcome) in runs.into_iter().enumerate() {
            let (job, run) = outcome.map_err(|p| p.to_string())??;
            jobs.push(job);
            if !run.violations.is_empty() || run.panic.is_some() {
                return Err(format!("unit {} did not run clean", batch_start + j));
            }
            if let Some(obs) = &run.observability {
                for h in &obs.delivery_latency {
                    checkpoint.delivery_latency.merge(h);
                }
                for h in &obs.decision_interval {
                    checkpoint.decision_interval.merge(h);
                }
            }
            checkpoint.records.push(UnitRecord {
                index: batch_start + j,
                outcome: UnitOutcome::Clean,
                events: run.events_processed,
                decisions: run.decisions,
                honest_messages: run.honest_messages,
                latency_micros: run.latency_micros,
            });
        }
        let t = now();
        checkpoint.save_atomic(&checkpoint_path)?;
        ckpt_write_s += timed("checkpoint_write", t);
        ckpt_writes += 1;
        ckpt_bytes += std::fs::metadata(&checkpoint_path).map_or(0, |m| m.len());
    }
    let t = now();
    let report = final_report(&manifest, &checkpoint)?;
    let report_s = timed("final_report", t);
    let wall_s = epoch.elapsed().as_secs_f64();

    let t = now();
    let loaded = Checkpoint::load(&checkpoint_path)?;
    let ckpt_load_s = timed("checkpoint_load", t);
    if loaded != checkpoint {
        return Err("the checkpoint did not survive a save/load round trip".into());
    }
    Ok(CampaignTrace {
        sweep: SweepTrace {
            wall_s,
            threads: 1,
            jobs,
            sweep_wall_s,
        },
        manifest_parse_s,
        ckpt_writes,
        ckpt_bytes,
        ckpt_write_s,
        report_s,
        ckpt_load_s,
        report,
        calls,
    })
}

/// The untraced reference for the campaign: the CLI's own executor on the
/// same manifest. Returns (report, host seconds).
pub fn untraced_campaign(dir: &Path) -> Result<(Json, f64), String> {
    let spec = workloads::campaign_run_spec(dir);
    let start = Instant::now();
    let report = exec_campaign_run(&spec)
        .map_err(|e| e.to_string())?
        .ok_or("campaign run returned no report")?;
    Ok((report, start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_benchmark::harness::tmp_dir;

    #[test]
    fn traced_fuzz_does_the_work_of_fuzz_many() {
        let plan = FuzzPlan {
            seeds: (1000, 1048),
            ..workloads::fuzz_plan(1)
        };
        let traced = traced_fuzz(&plan).unwrap();
        let (events, failed, _) = untraced_fuzz(&plan).unwrap();
        assert_eq!(traced.jobs.len(), 48);
        assert_eq!(traced.events(), events);
        assert_eq!((traced.violations(), failed), (0, 0));
        assert!(traced.efficiency() > 0.0 && traced.efficiency() <= 1.0);
    }

    #[test]
    fn traced_campaign_report_is_byte_identical_to_the_cli_report() {
        let dir = tmp_dir().join(format!("{}-test-campaign", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut manifest = workloads::campaign_manifest(1);
        manifest.seeds.1 = manifest.seeds.0 + 4; // 96 units, 6 checkpoints
        std::fs::write(
            workloads::manifest_path(&dir),
            manifest.to_json().dump_pretty(),
        )
        .unwrap();

        let traced = traced_campaign(&dir).unwrap();
        let (report, _) = untraced_campaign(&dir).unwrap();
        assert_eq!(traced.report.dump_pretty(), report.dump_pretty());
        assert_eq!(traced.sweep.jobs.len(), 96);
        assert_eq!(traced.ckpt_writes, 6);
        assert!(traced.ckpt_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
