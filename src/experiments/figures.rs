//! Generators for every figure of the paper's evaluation (§IV).
//!
//! Each function reproduces the data series of one figure. `bft-sim fig N`
//! runs them at the paper's settings, the constants below, and prints them;
//! `tests/experiments.rs` asserts miniature versions. Sizes, grids and
//! repetition counts are parameters so the tests can run small.

use std::time::Instant;

use bft_sim_core::ids::NodeId;
use bft_sim_core::metrics::{Cell, RunResult};
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_simcheck::{AttackSpec, DelaySpec, PartitionSpec, ScenarioSpec};

use super::{paper_spec, repeat};

// The paper's settings: what `bft-sim fig N` runs.
/// System size of Figs. 3–9.
pub const N: usize = 16;
/// Repetitions per point of Figs. 3–8.
pub const REPS: usize = 100;
/// Fig. 2's system sizes: to the largest the paper's simulator ran.
pub const FIG2_SIZES: [usize; 8] = [4, 8, 16, 32, 64, 128, 256, 512];
/// Fig. 2's timed runs per size.
pub const FIG2_REPS: usize = 10;
/// Fig. 3's four N(μ, σ) delays (ms), from fast and stable to slow and unstable.
const FIG3_DELAYS_MS: [(u64, u64); 4] = [(250, 50), (500, 100), (1000, 300), (1000, 1000)];
/// Fig. 4's λ values (ms), from the network's delay upward.
pub const FIG4_LAMBDAS: [u64; 5] = [1000, 1500, 2000, 2500, 3000];
/// Fig. 5's λ values (ms), from below the network's delay upward.
pub const FIG5_LAMBDAS: [u64; 5] = [150, 250, 500, 1000, 2000];
/// When Fig. 6's partition resolves (s).
pub const FIG6_RESOLVE_S: u64 = 20;
/// Fig. 7's fail-stop counts.
pub const FIG7_CRASHES: [usize; 6] = [0, 1, 2, 3, 4, 5];
/// Fig. 9's run: a seed whose views diverge, as the paper's one execution
/// shows the pathology rather than a typical run.
pub const FIG9_SEED: u64 = 167;

/// The base seed of Fig. `fig` (2..=8).
pub const fn seed(fig: u8) -> u64 {
    0xF160 + fig as u64
}

/// A `(protocol, x, latency, messages)` data point shared by most figures.
#[derive(Debug, Clone)]
pub struct Point {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// The x-axis label (environment, λ, fail-stop count, …).
    pub x: String,
    /// Latency (s): one [`RunResult::latency_sample`] per repetition.
    pub latency: Cell,
    /// Honest messages per decision (the run's total when nothing decided).
    pub messages: Cell,
}

impl Point {
    /// The point that `results`, repetitions of `spec`, make, labelled `x`.
    ///
    /// # Errors
    ///
    /// A repetition violates safety.
    pub fn of(
        spec: &ScenarioSpec,
        results: &[RunResult],
        x: impl Into<String>,
    ) -> Result<Point, String> {
        if let Some(v) = results.iter().find_map(|r| r.safety_violation.as_ref()) {
            return Err(format!("safety violation: {v}"));
        }
        let k = spec.target_decisions;
        Ok(Point {
            protocol: spec.protocol,
            x: x.into(),
            latency: Cell::of(results.iter().map(|r| r.latency_sample(k))),
            messages: Cell::of(results.iter().map(|r| (r.messages_per_decision(), false))),
        })
    }

    /// Share of repetitions the time cap cut short.
    pub fn capped_share(&self) -> f64 {
        self.latency.capped as f64 / self.latency.count.max(1) as f64
    }
}

/// A figure's point: `spec` [`repeat`]ed `reps` times from `base_seed`,
/// labelled `x`. The figures' runs all build and are all safe.
fn point(spec: &ScenarioSpec, reps: usize, base_seed: u64, x: impl Into<String>) -> Point {
    let results = repeat(spec, reps, base_seed);
    let point = results.and_then(|results| Point::of(spec, &results, x));
    point.unwrap_or_else(|e| panic!("{}: {e}", spec.protocol))
}

// ---------------------------------------------------------------- Fig. 2

// Fig. 2 as the paper prints it: PBFT, λ = 1000 ms, delays N(250, 50), the
// authors' JavaScript simulator on their 2019 machine against BFTSim
// (P2 over ns-2). Both printed times are at 32 nodes.
/// The paper's simulator at 32 nodes (ms).
const PAPER_SIM_MS_AT_32: f64 = 38.0;
/// BFTSim at 32 nodes (ms).
const PAPER_BFTSIM_MS_AT_32: f64 = 19_400.0;
/// BFTSim's largest size: it runs out of memory beyond.
const PAPER_BFTSIM_MAX_N: usize = 32;
/// The largest size the paper's simulator runs.
const PAPER_SIM_MAX_N: usize = 512;

/// One row of Fig. 2: the event engine's wall time at one size.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// System size.
    pub n: usize,
    /// Wall-clock per run (ms).
    pub wall_ms: Cell,
    /// Events the run processed.
    pub events: u64,
}

/// Fig. 2: wall time to simulate PBFT to one decision, λ = 1000 ms, delays
/// N(250, 50): an untimed warm-up run at `base_seed`, whose event count is
/// the row's, then `reps` timed runs per size.
/// [`fig2_paper_column`] is the paper's side of the figure.
pub fn fig2(sizes: &[usize], reps: usize, base_seed: u64) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let run = |seed| {
            let spec = ScenarioSpec {
                seed,
                ..paper_spec(ProtocolKind::Pbft, n)
            };
            spec.simulate(TraceLevel::Decisions)
                .expect("Fig. 2's runs build")
        };
        let mut walls = Vec::new();
        let events = run(base_seed).events_processed;
        for rep in 0..reps.max(1) {
            let start = Instant::now();
            let result = run(base_seed + rep as u64);
            walls.push((start.elapsed().as_secs_f64() * 1000.0, false));
            assert!(result.is_clean(), "fig2 run failed at n={n}");
        }
        rows.push(Fig2Row {
            n,
            wall_ms: Cell::of(walls),
            events,
        });
    }
    rows
}

/// What the paper's Fig. 2 prints at size `n`, to show beside a measured
/// [`Fig2Row`]: both simulators' times at 32 nodes, BFTSim's
/// out-of-memory above 32, `-` where the paper prints nothing.
pub fn fig2_paper_column(n: usize) -> String {
    match n {
        32 => format!(
            "{PAPER_SIM_MS_AT_32} ms; BFTSim {} s",
            PAPER_BFTSIM_MS_AT_32 / 1000.0
        ),
        n if n > PAPER_BFTSIM_MAX_N && n <= PAPER_SIM_MAX_N => "BFTSim out of memory".into(),
        _ => "-".into(),
    }
}

// ---------------------------------------------------------------- Fig. 3

/// Fig. 3(a)+(b): all eight protocols across the four network environments
/// (λ = 1000 ms). Returns one [`Point`] per (protocol, environment); the
/// latency field is Fig. 3a, the messages field Fig. 3b.
pub fn fig3(n: usize, reps: usize, base_seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for kind in ProtocolKind::all() {
        for (mu, sigma) in FIG3_DELAYS_MS {
            let spec = ScenarioSpec {
                delay: DelaySpec::Normal {
                    mean_micros: mu * 1000,
                    std_micros: sigma * 1000,
                },
                ..paper_spec(kind, n)
            };
            points.push(point(&spec, reps, base_seed, format!("N({mu},{sigma})")));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 4

/// Fig. 4: latency when the timeout is overestimated — λ swept upward with
/// the network fixed at N(250, 50). Responsive protocols stay flat; the
/// synchronous ones scale with λ.
pub fn fig4(n: usize, reps: usize, base_seed: u64, lambdas: &[u64]) -> Vec<Point> {
    let mut points = Vec::new();
    for kind in ProtocolKind::all() {
        for &lambda in lambdas {
            let spec = ScenarioSpec {
                lambda_micros: lambda * 1000,
                ..paper_spec(kind, n)
            };
            points.push(point(&spec, reps, base_seed, format!("λ={lambda}")));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 5

/// Fig. 5: latency when the timeout is underestimated — partially
/// synchronous protocols only, λ swept below the actual delay, N(250, 50).
pub fn fig5(n: usize, reps: usize, base_seed: u64, lambdas: &[u64]) -> Vec<Point> {
    let kinds = [
        ProtocolKind::Pbft,
        ProtocolKind::HotStuffNs,
        ProtocolKind::LibraBft,
    ];
    let mut points = Vec::new();
    for kind in kinds {
        for &lambda in lambdas {
            let spec = ScenarioSpec {
                lambda_micros: lambda * 1000,
                // HotStuff+NS can wander for minutes here (that is the
                // finding); give it room before calling a timeout.
                time_cap_secs: 900,
                ..paper_spec(kind, n)
            };
            points.push(point(&spec, reps, base_seed, format!("λ={lambda}")));
        }
    }
    points
}

// ---------------------------------------------------------------- Fig. 6

/// Fig. 6: time usage under a network partition that resolves at
/// `resolve_s` seconds. Includes Algorand (the partition-resilient
/// synchronous protocol), async BA, and the partially synchronous trio.
pub fn fig6(n: usize, reps: usize, base_seed: u64, resolve_s: u64) -> Vec<Point> {
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
            let partition = PartitionSpec {
                start_ms: 0,
                end_ms: resolve_s * 1000,
                drop: kind != ProtocolKind::AsyncBa,
            };
            // Fig. 6 reports *termination* time (when the first consensus
            // completes), so the pipelined protocols are measured to one
            // decision here rather than their usual ten-decision average.
            let spec = ScenarioSpec {
                partition: Some(partition),
                target_decisions: 1,
                time_cap_secs: 900,
                ..paper_spec(kind, n)
            };
            point(&spec, reps, base_seed, format!("resolve@{resolve_s}s"))
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
            let spec = ScenarioSpec {
                delay: DelaySpec::Normal {
                    mean_micros: 1_000_000,
                    std_micros: 300_000,
                },
                attack: Some(AttackSpec::FailStopLast { k }),
                time_cap_secs: 900,
                ..paper_spec(kind, n)
            };
            points.push(point(&spec, reps, base_seed, format!("crash={k}")));
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
            ("none", None),
            ("static", Some(AttackSpec::AddStatic { k: f })),
            ("adaptive", Some(AttackSpec::AddAdaptive)),
        ] {
            let spec = ScenarioSpec {
                attack,
                time_cap_secs: 900,
                ..paper_spec(kind, n)
            };
            points.push(point(&spec, reps, base_seed, label));
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
    let spec = ScenarioSpec {
        seed,
        lambda_micros: 150_000,
        time_cap_secs: 900,
        ..paper_spec(ProtocolKind::HotStuffNs, n)
    };
    let result = spec
        .simulate(TraceLevel::Events)
        .expect("Fig. 9's run builds");
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
        assert_eq!(rows[0].n, 4);
        assert!(rows[0].events > 0);
        // The count is the warm-up run's, whatever the number of timed runs.
        assert_eq!(fig2(&[16], 1, 11)[0].events, fig2(&[16], 3, 11)[0].events);
        assert_eq!(fig2_paper_column(32), "38 ms; BFTSim 19.4 s");
        assert_eq!(fig2_paper_column(64), "BFTSim out of memory");
        assert_eq!(fig2_paper_column(4), "-");
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
