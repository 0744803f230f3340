//! Generators for every figure of the paper's evaluation (§IV).
//!
//! Each function reproduces the data series of one figure; the benchmark
//! harnesses in `bft-sim-bench` print them as tables, and miniature
//! versions are asserted in the integration tests. Repetition counts are
//! parameters so tests can run small and benches can run the paper's 100.

use std::time::Instant;

use bft_sim_baseline::{BaselineConfig, BaselineSim};
use bft_sim_core::dist::Dist;
use bft_sim_core::ids::NodeId;
use bft_sim_core::metrics::Summary;
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_protocols::ProtocolParams;

use super::{AttackSpec, Scenario};

/// A `(protocol, x, latency, messages)` data point shared by most figures.
#[derive(Debug, Clone)]
pub struct Point {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// The x-axis label (environment, λ, fail-stop count, …).
    pub x: String,
    /// Latency in seconds (mean ± sd over repetitions).
    pub latency: Summary,
    /// Honest messages per decision (mean ± sd).
    pub messages: Summary,
    /// Fraction of repetitions that hit the time cap without deciding.
    pub timeout_rate: f64,
}

fn measure(scenario: &Scenario, reps: usize, base_seed: u64, x: impl Into<String>) -> Point {
    let results = scenario.run_many(reps, base_seed);
    let timeouts = results.iter().filter(|r| r.timed_out).count();
    for r in &results {
        assert!(
            r.safety_violation.is_none(),
            "{}: safety violated: {:?}",
            scenario.kind,
            r.safety_violation
        );
    }
    Point {
        protocol: scenario.kind,
        x: x.into(),
        latency: scenario.latency_summary(&results),
        messages: scenario.message_summary(&results),
        timeout_rate: timeouts as f64 / reps.max(1) as f64,
    }
}

// ---------------------------------------------------------------- Fig. 2

/// One row of the Fig. 2 speed/scale comparison.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// System size.
    pub n: usize,
    /// Event-level simulator wall-clock (ms, mean ± sd).
    pub core_wall_ms: Summary,
    /// Events the event-level simulator processed.
    pub core_events: u64,
    /// Packet-level baseline wall-clock (ms), `None` if it failed.
    pub baseline_wall_ms: Option<Summary>,
    /// Events the baseline processed, if it ran.
    pub baseline_events: Option<u64>,
    /// `true` when the baseline refused the size (modelled out-of-memory),
    /// as BFTSim does beyond 32 nodes.
    pub baseline_oom: bool,
}

/// Fig. 2: simulation time for PBFT, ours vs the packet-level baseline,
/// λ = 1000 ms, delays N(250, 50). `baseline_cap` skips baseline sizes
/// above it (they would only report OOM anyway — which is recorded).
pub fn fig2(sizes: &[usize], reps: usize, base_seed: u64) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let scenario = Scenario::new(ProtocolKind::Pbft, n);
        let mut core_walls = Vec::new();
        let mut core_events = 0;
        let _ = scenario.run(base_seed); // warm-up, untimed
        for rep in 0..reps.max(1) {
            let start = Instant::now();
            let result = scenario.run(base_seed + rep as u64);
            core_walls.push(start.elapsed().as_secs_f64() * 1000.0);
            assert!(result.is_clean(), "fig2 core run failed at n={n}");
            core_events = result.events_processed;
        }

        let base_cfg = BaselineConfig::new(n).with_seed(base_seed);
        let params = ProtocolParams::new(base_cfg.n, base_cfg.f, 7);
        let (baseline_wall_ms, baseline_events, baseline_oom) =
            match BaselineSim::new(base_cfg.clone(), bft_sim_protocols::pbft::factory(params)) {
                Err(_) => (None, None, true),
                Ok(_) => {
                    let mut walls = Vec::new();
                    let mut events = 0;
                    let mut oom = false;
                    for rep in 0..reps.max(1) {
                        let cfg = BaselineConfig::new(n).with_seed(base_seed + rep as u64);
                        let sim = BaselineSim::new(cfg, bft_sim_protocols::pbft::factory(params))
                            .expect("size accepted above");
                        let start = Instant::now();
                        match sim.run() {
                            Ok(res) => {
                                walls.push(start.elapsed().as_secs_f64() * 1000.0);
                                events = res.events_processed;
                            }
                            Err(_) => oom = true,
                        }
                    }
                    if walls.is_empty() {
                        (None, None, true)
                    } else {
                        (Some(Summary::of(&walls)), Some(events), oom)
                    }
                }
            };

        rows.push(Fig2Row {
            n,
            core_wall_ms: Summary::of(&core_walls),
            core_events,
            baseline_wall_ms,
            baseline_events,
            baseline_oom,
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig. 3

/// Fig. 3(a)+(b): all eight protocols across the four network environments
/// (λ = 1000 ms). Returns one [`Point`] per (protocol, environment); the
/// latency field is Fig. 3a, the messages field Fig. 3b.
pub fn fig3(n: usize, reps: usize, base_seed: u64) -> Vec<Point> {
    let envs = bft_sim_net::scenarios::fig3_environments();
    let mut points = Vec::new();
    for kind in ProtocolKind::all() {
        for env in envs {
            let label = match env {
                Dist::Normal { mu, sigma } => format!("N({mu:.0},{sigma:.0})"),
                other => format!("{other:?}"),
            };
            let scenario = Scenario::new(kind, n).with_delay(env);
            points.push(measure(&scenario, reps, base_seed, label));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 4

/// Fig. 4: latency when the timeout is overestimated — λ swept upward with
/// the network fixed at N(250, 50). Responsive protocols stay flat; the
/// synchronous ones scale with λ.
pub fn fig4(n: usize, reps: usize, base_seed: u64, lambdas: &[f64]) -> Vec<Point> {
    let mut points = Vec::new();
    for kind in ProtocolKind::all() {
        for &lambda in lambdas {
            let scenario = Scenario::new(kind, n).with_lambda(lambda);
            points.push(measure(
                &scenario,
                reps,
                base_seed,
                format!("λ={lambda:.0}"),
            ));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 5

/// Fig. 5: latency when the timeout is underestimated — partially
/// synchronous protocols only, λ swept below the actual delay, N(250, 50).
pub fn fig5(n: usize, reps: usize, base_seed: u64, lambdas: &[f64]) -> Vec<Point> {
    let kinds = [
        ProtocolKind::Pbft,
        ProtocolKind::HotStuffNs,
        ProtocolKind::LibraBft,
    ];
    let mut points = Vec::new();
    for kind in kinds {
        for &lambda in lambdas {
            let scenario = Scenario::new(kind, n)
                .with_lambda(lambda)
                // HotStuff+NS can wander for minutes here (that is the
                // finding); give it room before calling a timeout.
                .with_time_cap_s(900.0);
            points.push(measure(
                &scenario,
                reps,
                base_seed,
                format!("λ={lambda:.0}"),
            ));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 6

/// Fig. 6: time usage under a network partition that resolves at
/// `resolve_s` seconds. Includes Algorand (the partition-resilient
/// synchronous protocol), async BA, and the partially synchronous trio.
pub fn fig6(n: usize, reps: usize, base_seed: u64, resolve_s: f64) -> Vec<Point> {
    let kinds = [
        ProtocolKind::Algorand,
        ProtocolKind::AsyncBa,
        ProtocolKind::Pbft,
        ProtocolKind::HotStuffNs,
        ProtocolKind::LibraBft,
    ];
    kinds
        .into_iter()
        .map(|kind| {
            // The attacker *drops* cross-partition traffic (§III-C), except
            // against async BA, whose asynchronous model promises eventual
            // delivery — there the attacker delays instead (also §III-C).
            let attack = AttackSpec::Partition {
                start_ms: 0,
                end_ms: (resolve_s * 1000.0) as u64,
                drop: kind != ProtocolKind::AsyncBa,
            };
            // Fig. 6 reports *termination* time (when the first consensus
            // completes), so the pipelined protocols are measured to one
            // decision here rather than their usual ten-decision average.
            let scenario = Scenario::new(kind, n)
                .with_attack(attack)
                .with_decisions(1)
                .with_time_cap_s(900.0);
            measure(&scenario, reps, base_seed, format!("resolve@{resolve_s}s"))
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 7

/// Fig. 7: latency across different numbers of fail-stop nodes
/// (λ = 1000 ms, N(1000, 300)).
pub fn fig7(n: usize, reps: usize, base_seed: u64, failstop_counts: &[usize]) -> Vec<Point> {
    let mut points = Vec::new();
    for kind in ProtocolKind::all() {
        for &k in failstop_counts {
            if k > kind.default_f(n) {
                continue; // beyond the protocol's fault budget
            }
            let scenario = Scenario::new(kind, n)
                .with_delay(Dist::normal(1000.0, 300.0))
                .with_attack(AttackSpec::FailStopLast(k))
                .with_time_cap_s(900.0);
            points.push(measure(&scenario, reps, base_seed, format!("crash={k}")));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 8

/// Fig. 8: the static attack (left) and the rushing adaptive attack
/// (right) against the three ADD+ variants. Returns points labelled
/// `static`/`adaptive`/`none`.
pub fn fig8(n: usize, reps: usize, base_seed: u64) -> Vec<Point> {
    let variants = [
        ProtocolKind::AddV1,
        ProtocolKind::AddV2,
        ProtocolKind::AddV3,
    ];
    let mut points = Vec::new();
    for kind in variants {
        let f = kind.default_f(n);
        for (label, attack) in [
            ("none", AttackSpec::None),
            ("static", AttackSpec::AddStatic(f)),
            ("adaptive", AttackSpec::AddAdaptive),
        ] {
            let scenario = Scenario::new(kind, n)
                .with_attack(attack)
                .with_time_cap_s(900.0);
            points.push(measure(&scenario, reps, base_seed, label));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 9

/// Fig. 9: each node's view over time during a HotStuff+NS execution with
/// an underestimated timeout (λ = 150 ms, N(250, 50)) — the
/// view-synchronisation visualisation. Returns `(node, [(t_secs, view)])`
/// per node for a single seeded run.
pub fn fig9(n: usize, seed: u64) -> Vec<(NodeId, Vec<(f64, u64)>)> {
    let scenario = Scenario {
        trace: TraceLevel::Events,
        ..Scenario::new(ProtocolKind::HotStuffNs, n)
            .with_lambda(150.0)
            .with_time_cap_s(900.0)
    };
    let result = scenario.run(seed);
    NodeId::all(n)
        .map(|id| {
            let timeline = result
                .trace
                .view_timeline(id)
                .into_iter()
                .map(|(t, v)| (t.as_secs_f64(), v))
                .collect();
            (id, timeline)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_row_shape() {
        let rows = fig2(&[4], 1, 11);
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].baseline_oom);
        assert!(rows[0].core_events > 0);
        assert!(rows[0].baseline_events.unwrap() > rows[0].core_events);
    }

    #[test]
    fn fig9_produces_view_timelines() {
        let lines = fig9(4, 3);
        assert_eq!(lines.len(), 4);
        for (_, timeline) in &lines {
            assert!(!timeline.is_empty());
        }
    }
}
