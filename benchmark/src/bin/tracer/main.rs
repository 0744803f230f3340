//! The traced run: per-layer counts and host times for each workload,
//! measured from outside the program.
//!
//! ```text
//! tracer trace [--seed S] [--out FILE]     all four workloads
//! tracer --workload W --seed S --seconds T --trace 1     the driver's contract
//! ```
//!
//! End-to-end metrics never come from here — they come from the untraced
//! `bench`. This binary couples to the engine's traits (`NetworkModel`,
//! `Adversary`, `Protocol`, `StepObserver`, `Scheduler`), so an engine change
//! may break it without touching the gate.

mod drives;
mod shims;
mod single;
mod spans;
mod sweeps;

use std::time::Instant;

use bft_sim_bench::alloc_counter::CountingAllocator;
use bft_sim_benchmark::harness::{
    host_header, host_load_guard, metrics_json, parse_seed_and_out, print_result_line,
    recorded_fingerprint, results_dir, tmp_dir, write_json, ContractArgs, Metric, Summary,
};
use bft_sim_benchmark::workloads::{self, SingleRun, Workload, DEFAULT_SEED};
use bft_sim_core::json::Json;
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_protocols::registry::ProtocolKind;

use spans::Span;
use sweeps::SweepTrace;

// Counts allocations for `allocs` / `allocs_per_event`; `bench` runs under
// the same allocator, as does the `bft-sim` binary.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run reports
/// all of them; a metric that does not apply to a workload reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("traced_wall_s", "s"),
    ("untraced_wall_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("timer_pair_ns", "ns"),
    ("timer_correction_s", "s"),
    ("shim_call_ns", "ns"),
    ("shim_overhead_s", "s"),
    ("shares_unresolved", "count"),
    ("sched_ops", "count"),
    ("sched_replay_s.heap", "s"),
    ("sched_replay_s.wheel", "s"),
    ("sched_peak_resident", "count"),
    ("sched_tombstones_popped", "count"),
    ("engine_residual_s", "s"),
    ("events_processed", "count"),
    ("queue_high_water", "count"),
    ("allocs", "count"),
    ("allocs_per_event", "count"),
    ("net_decide_calls", "count"),
    ("net_decide_s", "s"),
    ("net_drops", "count"),
    ("net_queued", "count"),
    ("net_decide_ns_per_call.sampled", "ns"),
    ("net_decide_ns_per_call.bandwidth", "ns"),
    ("net_decide_ns_per_call.churned", "ns"),
    ("adv_attack_calls", "count"),
    ("adv_s", "s"),
    ("adv_fates.deliver", "count"),
    ("adv_fates.delayed", "count"),
    ("adv_fates.dropped", "count"),
    ("proto_calls.init", "count"),
    ("proto_calls.on_message", "count"),
    ("proto_calls.on_timer", "count"),
    ("proto_handler_s", "s"),
    ("oracle_observer_s", "s"),
    ("oracle_check_s", "s"),
    ("oracle_violations", "count"),
    ("obs_overhead_ratio.n16", "ratio"),
    ("obs_overhead_ratio.workload", "ratio"),
    ("sweep_jobs", "count"),
    ("sweep_busy_s", "s"),
    ("sweep_efficiency", "ratio"),
    ("gen_s", "s"),
    ("unit_run_s", "s"),
    ("unit_run_us.q1", "us"),
    ("unit_run_us.median", "us"),
    ("unit_run_us.q3", "us"),
    ("unit_run_us.max", "us"),
    ("ckpt_writes", "count"),
    ("ckpt_bytes", "count"),
    ("ckpt_write_s", "s"),
    ("ckpt_load_s", "s"),
    ("report_s", "s"),
    ("manifest_parse_s", "s"),
];

/// Interleaved on/off pairs behind each `obs_overhead_ratio`.
const OBS_PAIRS: usize = 7;

/// The per-layer numbers of one workload.
struct Layers {
    values: Vec<f64>,
    spans: Vec<Span>,
    /// Simulations traced, and how many of them failed or diverged from the
    /// untraced reference.
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"));
        self.values[i] = value;
    }

    fn get(&self, name: &str) -> f64 {
        let i = PER_LAYER.iter().position(|(n, _)| *n == name);
        self.values[i.expect("a per-layer metric")]
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| (name, value, unit))
            .collect()
    }

    /// Counts a divergence between the traced and the untraced run.
    fn diverged(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("DIVERGED: {what}"));
    }
}

/// What every traced run reports: the overhead of tracing, and the direct
/// drives that need no simulation.
fn common(layers: &mut Layers, traced_wall_s: f64, untraced_wall_s: f64, seed: u64) {
    layers.set("traced_wall_s", traced_wall_s);
    layers.set("untraced_wall_s", untraced_wall_s);
    layers.set("trace_overhead_ratio", traced_wall_s / untraced_wall_s);
    let (sampled, bandwidth, churned) = drives::net_decide_ns_per_call(&workloads::fuzz_plan(seed));
    layers.set("net_decide_ns_per_call.sampled", sampled);
    layers.set("net_decide_ns_per_call.bandwidth", bandwidth);
    layers.set("net_decide_ns_per_call.churned", churned);
    let small = SingleRun {
        protocol: ProtocolKind::Pbft,
        n: 16,
        decisions: 200,
        seed,
    };
    layers.set(
        "obs_overhead_ratio.n16",
        single::obs_overhead_ratio(small, OBS_PAIRS),
    );
}

fn trace_single(workload: Workload, run: SingleRun) -> Layers {
    let mut layers = Layers::new();
    let pair_ns = shims::timer_pair_ns();
    let shim_ns = shims::shim_call_ns();

    let start = Instant::now();
    let bare = single::scenario(run).run(run.seed);
    let untraced_wall_s = start.elapsed().as_secs_f64();
    let traced = single::traced(run);
    let (t, s) = (&traced.result, &traced.state);

    layers.attempted = 1;
    if !t.is_clean() || traced.oracle_violations > 0 {
        layers.failed += 1;
        layers.notes.push("the traced run was not clean".into());
    }
    for (what, a, b) in [
        (
            "events_processed",
            t.events_processed,
            bare.events_processed,
        ),
        ("honest_messages", t.honest_messages, bare.honest_messages),
        (
            "queue_high_water",
            t.queue_high_water as u64,
            bare.queue_high_water as u64,
        ),
        (
            "end_time",
            t.end_time.as_micros(),
            bare.end_time.as_micros(),
        ),
    ] {
        if a != b {
            layers.diverged(format!("{what}: traced {a}, untraced {b}"));
        }
    }

    // Scheduler: replay the logged operation stream on every backend. The
    // residual below uses the backend the run itself used.
    let timers = s.timers_fired + t.skipped_cancelled_timers;
    let own_backend = single::scenario(run).scheduler;
    let mut own_replay_s = 0.0;
    for kind in SchedulerKind::ALL {
        let start_ns = s.epoch.elapsed().as_nanos() as u64;
        let replay = single::replay(kind, &s.ops);
        let end_ns = s.epoch.elapsed().as_nanos() as u64;
        layers
            .spans
            .push(Span::new("sched_replay", start_ns, end_ns, "rep", 0));
        layers.set(&format!("sched_replay_s.{}", kind.name()), replay.secs);
        if kind == own_backend {
            own_replay_s = replay.secs;
            // Cancelled timers are counted by the engine but invisible to the
            // shims, so they are in `sched_ops` and not in the replay.
            layers.set(
                "sched_ops",
                (replay.schedules + replay.pops + t.skipped_cancelled_timers) as f64,
            );
        }
        if replay.peak_len.abs_diff(t.queue_high_water) as u64 > timers {
            layers.diverged(format!(
                "{kind} replay peaks at {} entries, the engine at {} (±{timers} timers)",
                replay.peak_len, t.queue_high_water
            ));
        }
    }
    layers.set("sched_peak_resident", t.scheduler.peak_resident as f64);
    layers.set(
        "sched_tombstones_popped",
        t.scheduler.tombstones_popped as f64,
    );

    let net_s = s.net.busy_s(pair_ns);
    let adv_s = s.adv_attack.busy_s(pair_ns) + s.adv_other.busy_s(pair_ns);
    let proto_s = s.proto_init.busy_s(pair_ns)
        + s.proto_message.busy_s(pair_ns)
        + s.proto_timer.busy_s(pair_ns);
    let observer_s = s.observer.busy_s(pair_ns);
    // What the shims themselves cost outside their own busy intervals sits in
    // the engine's time; take the calibrated estimate out of the residual.
    let shim_overhead_s = s.shim_calls() as f64 * (shim_ns - pair_ns).max(0.0) / 1e9;
    let residual =
        traced.wall_s - net_s - adv_s - proto_s - observer_s - own_replay_s - shim_overhead_s;
    layers.set("engine_residual_s", residual);
    layers.set("timer_pair_ns", pair_ns);
    layers.set("timer_correction_s", s.shim_calls() as f64 * pair_ns / 1e9);
    layers.set("shim_call_ns", shim_ns);
    layers.set("shim_overhead_s", shim_overhead_s);

    layers.set("events_processed", t.events_processed as f64);
    layers.set("queue_high_water", t.queue_high_water as f64);
    layers.set("allocs", traced.allocs as f64);
    layers.set(
        "allocs_per_event",
        traced.allocs as f64 / t.events_processed as f64,
    );
    layers.set("net_decide_calls", s.net.calls as f64);
    layers.set("net_decide_s", net_s);
    layers.set("net_drops", s.net_drops as f64);
    layers.set("net_queued", s.net_queued as f64);
    layers.set("adv_attack_calls", s.adv_attack.calls as f64);
    layers.set("adv_s", adv_s);
    layers.set("adv_fates.deliver", s.fate_deliver as f64);
    layers.set("adv_fates.delayed", s.fate_delayed as f64);
    layers.set("adv_fates.dropped", s.fate_dropped as f64);
    layers.set("proto_calls.init", s.proto_init.calls as f64);
    layers.set("proto_calls.on_message", s.proto_message.calls as f64);
    layers.set("proto_calls.on_timer", s.proto_timer.calls as f64);
    layers.set("proto_handler_s", proto_s);
    layers.set("oracle_observer_s", observer_s);
    layers.set("oracle_check_s", traced.oracle_check_s);
    layers.set("oracle_violations", traced.oracle_violations as f64);

    let wall_ns = (traced.wall_s * 1e9) as u64;
    layers.spans.push(Span::new("rep", 0, wall_ns, "", 0));
    layers.spans.push(Span::new(
        "run",
        traced.run_span.0,
        traced.run_span.1,
        "rep",
        0,
    ));
    if let Some((start, end)) = s.init_span {
        layers
            .spans
            .push(Span::new("init_phase", start, end, "run", 0));
    }

    common(&mut layers, traced.wall_s, untraced_wall_s, run.seed);
    layers.set(
        "obs_overhead_ratio.workload",
        single::obs_overhead_ratio(run, OBS_PAIRS),
    );

    // Shares mean nothing when tracing dominated the run, or when the layers
    // claim more than 5 % over the wall they are shares of.
    if layers.get("trace_overhead_ratio") > 2.0 || residual < -0.05 * traced.wall_s {
        layers.set("shares_unresolved", 1.0);
        layers
            .notes
            .push(format!("{}: layer shares are UNRESOLVED", workload.name()));
    }
    layers
}

fn sweep_metrics(layers: &mut Layers, sweep: &SweepTrace) {
    layers.attempted = sweep.jobs.len() as u64;
    layers.failed += sweep.violations();
    layers.set("events_processed", sweep.events() as f64);
    layers.set("oracle_violations", sweep.violations() as f64);
    layers.set("sweep_jobs", sweep.jobs.len() as f64);
    layers.set("sweep_busy_s", sweep.busy_s());
    layers.set("sweep_efficiency", sweep.efficiency());
    layers.set("gen_s", sweep.gen_s());
    layers.set("unit_run_s", sweep.unit_run_s());
    let micros: Vec<f64> = sweep.run_ns().iter().map(|&ns| ns as f64 / 1e3).collect();
    let q = Summary::of(&micros).expect("a sweep has jobs");
    layers.set("unit_run_us.q1", q.q1);
    layers.set("unit_run_us.median", q.median);
    layers.set("unit_run_us.q3", q.q3);
    layers.set("unit_run_us.max", q.max);
    let wall_ns = (sweep.wall_s * 1e9) as u64;
    layers.spans.push(Span::new("rep", 0, wall_ns, "", 0));
    layers.spans.push(Span::new("sweep", 0, wall_ns, "rep", 0));
}

fn trace_fuzz(seed: u64) -> Result<Layers, String> {
    let mut layers = Layers::new();
    let plan = workloads::fuzz_plan(seed);
    let (events, failed, untraced_wall_s) = sweeps::untraced_fuzz(&plan)?;
    let traced = sweeps::traced_fuzz(&plan)?;
    sweep_metrics(&mut layers, &traced);
    traced.spans("scenario", "generate", &mut layers.spans);
    layers.failed += failed;
    if traced.events() != events {
        layers.diverged(format!(
            "traced sweep processed {} events, fuzz_many {events}",
            traced.events()
        ));
    }
    common(&mut layers, traced.wall_s, untraced_wall_s, seed);
    Ok(layers)
}

fn trace_campaign(seed: u64) -> Result<Layers, String> {
    let mut layers = Layers::new();
    let dir = tmp_dir().join(format!("{}-trace", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    workloads::write_inputs(Workload::CampaignCkpt, seed, &dir)?;
    let outcome = sweeps::untraced_campaign(&dir)
        .and_then(|untraced| Ok((untraced, sweeps::traced_campaign(&dir)?)));
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    let ((report, untraced_wall_s), traced) = outcome?;

    sweep_metrics(&mut layers, &traced.sweep);
    traced.sweep.spans("unit", "map_unit", &mut layers.spans);
    for &(name, start, end) in &traced.calls {
        layers.spans.push(Span::new(name, start, end, "rep", 0));
    }
    if traced.report.dump_pretty() != report.dump_pretty() {
        layers.diverged("traced campaign report differs from exec_campaign_run's".into());
    }
    layers.set("ckpt_writes", traced.ckpt_writes as f64);
    layers.set("ckpt_bytes", traced.ckpt_bytes as f64);
    layers.set("ckpt_write_s", traced.ckpt_write_s);
    layers.set("ckpt_load_s", traced.ckpt_load_s);
    layers.set("report_s", traced.report_s);
    layers.set("manifest_parse_s", traced.manifest_parse_s);
    common(&mut layers, traced.sweep.wall_s, untraced_wall_s, seed);
    Ok(layers)
}

fn trace_workload(workload: Workload, seed: u64) -> Result<Layers, String> {
    let mut layers = match workloads::single_run(workload, seed) {
        Some(run) => trace_single(workload, run),
        None if workload == Workload::FuzzNetSweep => trace_fuzz(seed)?,
        None => trace_campaign(seed)?,
    };
    // At the default seed the committed fingerprint is what `bench` saw on
    // the untraced path: the traced run must have processed the same events.
    if seed == DEFAULT_SEED {
        let recorded = recorded_fingerprint(workload)
            .and_then(|f| f.get("events_processed").and_then(Json::as_u64));
        let traced = layers.get("events_processed") as u64;
        if recorded.is_some_and(|r| r != traced) {
            layers.diverged(format!(
                "traced {traced} events, fingerprints.json records {recorded:?}"
            ));
        }
    }
    Ok(layers)
}

fn print_layers(workload: Workload, layers: &Layers) {
    println!("{} (all times are host time)", workload.name());
    for (name, value, unit) in layers.metrics() {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for note in &layers.notes {
        println!("  {note}");
    }
}

fn layers_json(workload: Workload, layers: &Layers, spans: bool) -> Json {
    let mut pairs = vec![
        ("workload", Json::from(workload.name())),
        ("attempted", Json::from(layers.attempted)),
        ("failed", Json::from(layers.failed)),
        (
            "notes",
            Json::Arr(
                layers
                    .notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&layers.metrics())),
    ];
    if spans {
        pairs.push((
            "spans",
            Json::Arr(layers.spans.iter().map(|s| s.to_json()).collect()),
        ));
    }
    Json::obj(pairs)
}

/// Spans go to `results/trace-<workload>.json`, written once tracing ended.
fn write_spans(workload: Workload, layers: &Layers) -> Result<(), String> {
    let path = results_dir().join(format!("trace-{}.json", workload.name()));
    write_json(&path, &layers_json(workload, layers, true))
}

fn trace(args: &[String]) -> Result<(), String> {
    let (seed, out) = parse_seed_and_out(args, "layers-")?;
    let (load_start, noisy) = host_load_guard();
    let mut summaries = Vec::new();
    let mut failed = 0;
    for workload in Workload::ALL {
        let layers = trace_workload(workload, seed)?;
        print_layers(workload, &layers);
        write_spans(workload, &layers)?;
        failed += layers.failed;
        summaries.push(layers_json(workload, &layers, false));
    }
    let mut pairs = vec![("format", Json::from("bft-sim-benchmark-trace-v1"))];
    pairs.extend(host_header(seed, load_start));
    pairs.extend([
        ("obs_pairs", Json::from(OBS_PAIRS)),
        ("noisy_host", Json::from(noisy)),
        ("workloads", Json::Arr(summaries)),
    ]);
    write_json(&out, &Json::obj(pairs))?;
    println!("per-layer summary -> {}", out.display());
    if failed > 0 {
        return Err(format!("{failed} traced run(s) failed or diverged"));
    }
    Ok(())
}

/// The driver's contract with `--trace 1`: one workload's per-layer metrics
/// as the last line of stdout. The traced work is fixed by the workload, so
/// `--seconds` is accepted and not needed.
fn contract(args: &[String]) -> Result<(), String> {
    let args = ContractArgs::parse(args)?;
    if !args.trace {
        return Err("--trace 0 is the bench binary's job (see benchmark/run.sh)".into());
    }
    let layers = trace_workload(args.workload, args.seed)?;
    for note in &layers.notes {
        eprintln!("{note}");
    }
    write_spans(args.workload, &layers)?;
    print_result_line(
        layers.failed == 0,
        layers.attempted,
        layers.failed,
        &layers.metrics(),
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace") => trace(&args[1..]),
        Some(flag) if flag.starts_with("--") => contract(&args),
        _ => Err("usage: tracer trace [--seed S] [--out FILE] | \
                  tracer --workload W --seed S --seconds T --trace 1"
            .into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_benchmark::harness::bench_dir;

    /// `PER_LAYER` and `BENCHMARK.json` list the same metrics, in order.
    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let text = std::fs::read_to_string(bench_dir().join("..").join("BENCHMARK.json")).unwrap();
        let json = Json::parse(&text).unwrap();
        let declared: Vec<(String, String)> = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(ours, declared);
    }
}
