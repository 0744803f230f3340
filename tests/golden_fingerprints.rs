//! Golden behavior-fingerprint corpus: the coverage fuzzer's
//! [`run_fingerprint`] value for a pinned set of scenarios — every protocol
//! under the calm and chaos fault presets — is committed in
//! `tests/golden/fingerprints.json`, and a fresh run must reproduce each
//! one exactly.
//!
//! The fingerprint is the coverage search's entire notion of novelty, so a
//! silent change to it (observability signature, timing buckets, decision
//! accounting, fault semantics) would invisibly reshape what the fuzzer
//! explores and invalidate stored coverage baselines. This test makes such
//! changes loud: they require re-blessing the corpus.
//!
//! The two chained protocols (HotStuff+NS, LibraBFT) carry six more rows
//! each at n = 16, on the paths the quiet baseline never reaches: view
//! thrash under an underestimated λ (Fig. 5), a 0–20 s partition in hold and
//! in drop mode, both half/half (Fig. 6) and 12/4 (the minority fetches the
//! blocks it missed), and f fail-stopped nodes (Fig. 7). Those rows pin,
//! beside the fingerprint, an FNV-1a of the full trace JSON kept at
//! `TraceLevel::Messages` (`"<key>#trace"`), so any change to the order or
//! content of what a replica sends, reports or decides is loud. Every
//! protocol also carries a `"<protocol>/golden#trace"` row: the same FNV-1a
//! at `tests/golden_traces.rs`'s pinned configuration, the byte pin its
//! committed files are not; that run is repeated at the two lower trace
//! levels, which must change nothing but the trace.
//!
//! Two kinds of row pin what a run shows of its last events. Every protocol
//! has a `"<protocol>/trace-json"` row: the FNV-1a of the document
//! `bft-sim trace <protocol> --json --last-k 64` prints for its baseline
//! scenario. `"panic/last-events#k<k>"` is the FNV-1a of the JSON of the last
//! 64 events of a PBFT run whose node 0 panics at its k-th delivery.
//!
//! `"pbft/cross-validation"` and its `#trace` row pin the PBFT run once used
//! to cross-validate the engine against a packet-level simulator (n = 7,
//! constant 100 ms delay, seed 5, 3 decisions); the trace pin covers every
//! node's decided values.
//!
//! `"figures/fig2"` … `"figures/fig9"` pin the figure path: the FNV-1a of
//! one miniature of each figure at the paper's grids and seeds, n = 16 and
//! two repetitions for Figs. 3–8, over every point's protocol, x label and
//! the `f64` bits of its latency and message cells' count, mean, sd and min,
//! and of its capped share.
//! Fig. 2's row covers its events column only (the wall column is host
//! time); Fig. 9's covers the view timelines. `"figures/censored"` pins
//! every field of both cells of Fig. 3's N(1000,1000) HotStuff+NS point at
//! its first ten seeds, one of them capped: the only row whose cell holds a
//! censored sample.
//!
//! To regenerate after an *intentional* behaviour change:
//! `BFT_SIM_BLESS=1 cargo test --test golden_fingerprints`.

use bft_sim_core::buggify::FaultPreset;
use bft_sim_core::json::Json;
use bft_sim_core::obs::DEFAULT_LAST_K;
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_simcheck::{run_fingerprint, CheckedRun, RunMode, ScenarioSpec};
use bft_simulator::prelude::*;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fingerprints.json")
}

/// The pinned corpus: each protocol's baseline scenario under both the calm
/// and the chaos preset (fault seed 5). Keys are `"<protocol>/<preset>"`.
fn compute_corpus() -> Vec<(String, u64)> {
    let mut corpus = Vec::new();
    for kind in ProtocolKind::extended() {
        for preset in [FaultPreset::Calm, FaultPreset::Chaos] {
            let spec = ScenarioSpec {
                fault_preset: preset,
                fault_seed: if preset == FaultPreset::Calm { 0 } else { 5 },
                ..ScenarioSpec::baseline(kind)
            };
            let run = spec
                .run_observed(RunMode::Generate, TraceLevel::Decisions)
                .expect("baseline run");
            corpus.push((
                format!("{}/{}", kind.name(), preset.name()),
                run_fingerprint(&run),
            ));
        }
    }
    corpus.extend(chained_rows());
    corpus.extend(golden_trace_rows());
    corpus.extend(trace_json_rows());
    corpus.extend(panic_rows());
    corpus.extend(cross_validation_rows());
    corpus.extend(figure_rows());
    corpus
}

/// Miniature figures at the paper's grids and seeds: n = 16, two
/// repetitions per point of Figs. 3–8.
fn figure_rows() -> Vec<(String, u64)> {
    use bft_simulator::experiments::figures::{self, seed, Point, N};
    use bft_simulator::experiments::{paper_spec, repeat};
    let points = |points: Vec<Point>| {
        let mut text = String::new();
        for p in &points {
            let (l, m) = (&p.latency, &p.messages);
            text += &format!(
                "{} {} {} {:x} {:x} {:x} {} {:x} {:x} {:x} {:x}\n",
                p.protocol.name(),
                p.x,
                l.count,
                l.mean.to_bits(),
                l.std_dev.to_bits(),
                l.min.to_bits(),
                m.count,
                m.mean.to_bits(),
                m.std_dev.to_bits(),
                m.min.to_bits(),
                p.capped_share().to_bits(),
            );
        }
        fnv1a(text.as_bytes())
    };
    let reps = 2;
    let cell = |c: &Cell| {
        let q = |q: Option<f64>| q.map_or("capped".into(), |q| format!("{:x}", q.to_bits()));
        let bits = [c.mean, c.std_dev, c.min, c.max].map(|x| format!("{:x}", x.to_bits()));
        let quartiles = [c.q1, c.median, c.q3].map(q);
        format!(
            "{} {} {} {}",
            c.count,
            c.capped,
            bits.join(" "),
            quartiles.join(" ")
        )
    };
    let widest = ScenarioSpec {
        delay: DelaySpec::Normal {
            mean_micros: 1_000_000,
            std_micros: 1_000_000,
        },
        ..paper_spec(ProtocolKind::HotStuffNs, N)
    };
    let results = repeat(&widest, 10, seed(3)).unwrap();
    let censored = Point::of(&widest, &results, "").unwrap();
    let censored = format!("{}\n{}", cell(&censored.latency), cell(&censored.messages));
    let events: Vec<String> = figures::fig2(&[4, 8, 16, 32], 1, seed(2))
        .iter()
        .map(|row| format!("{} {}", row.n, row.events))
        .collect();
    let views: Vec<String> = figures::fig9(N, figures::FIG9_SEED)
        .iter()
        .map(|(node, timeline)| {
            let entries = timeline
                .iter()
                .map(|(t, v)| format!("{:x}:{v}", t.to_bits()));
            format!("{node} {}", entries.collect::<Vec<_>>().join(" "))
        })
        .collect();
    vec![
        ("figures/fig2".into(), fnv1a(events.join("\n").as_bytes())),
        (
            "figures/fig3".into(),
            points(figures::fig3(N, reps, seed(3))),
        ),
        (
            "figures/fig4".into(),
            points(figures::fig4(N, reps, seed(4), &figures::FIG4_LAMBDAS)),
        ),
        (
            "figures/fig5".into(),
            points(figures::fig5(N, reps, seed(5), &figures::FIG5_LAMBDAS)),
        ),
        (
            "figures/fig6".into(),
            points(figures::fig6(N, reps, seed(6), figures::FIG6_RESOLVE_S)),
        ),
        (
            "figures/fig7".into(),
            points(figures::fig7(N, reps, seed(7), &figures::FIG7_CRASHES)),
        ),
        (
            "figures/fig8".into(),
            points(figures::fig8(N, reps, seed(8))),
        ),
        ("figures/fig9".into(), fnv1a(views.join("\n").as_bytes())),
        ("figures/censored".into(), fnv1a(censored.as_bytes())),
    ]
}

/// The `bft-sim trace <protocol> --json --last-k 64` document of every
/// protocol's baseline scenario, as the CLI builds it: one run with every
/// event traced, whose last 64 events go beside the observability snapshot.
fn trace_json_rows() -> Vec<(String, u64)> {
    ProtocolKind::extended()
        .into_iter()
        .map(|kind| {
            let spec = ScenarioSpec::baseline(kind);
            let run = spec
                .run_observed(RunMode::Generate, TraceLevel::Messages)
                .expect("baseline run");
            let trace = &run.result.trace;
            let recent: Vec<TraceEvent> = trace
                .events()
                .skip(trace.len().saturating_sub(DEFAULT_LAST_K))
                .collect();
            let obs = run
                .result
                .observability
                .as_ref()
                .expect("observability is on");
            let doc = Json::obj([
                ("scenario", spec.to_json()),
                ("events_processed", Json::from(run.result.events_processed)),
                (
                    "decisions_completed",
                    Json::from(run.result.decisions_completed()),
                ),
                ("observability", obs.to_json(DEFAULT_LAST_K, &recent)),
            ]);
            let key = format!("{}/trace-json", kind.name());
            (key, fnv1a(doc.dump_pretty().as_bytes()))
        })
        .collect()
}

/// A protocol that is `inner` until its `k`-th delivery, where it panics.
#[derive(Debug)]
struct PanicAt {
    inner: Box<dyn Protocol>,
    left: u32,
}

impl Protocol for PanicAt {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.inner.init(ctx);
    }
    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        self.left -= 1;
        assert!(self.left > 0, "panic at the pinned delivery");
        self.inner.on_message(msg, ctx);
    }
    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        self.inner.on_timer(timer, ctx);
    }
}

/// The last 64 events of a PBFT run (n = 4, seed 5) whose node 0 panics at
/// its k-th delivery: early, while fewer than 64 events exist, and late.
/// They come from the trace [`Simulation::run_caught`] hands back.
fn panic_rows() -> Vec<(String, u64)> {
    [2, 15]
        .into_iter()
        .map(|k| {
            let kind = ProtocolKind::Pbft;
            let cfg = kind
                .configure(RunConfig::new(4).with_seed(5).with_lambda_ms(1000.0))
                .with_target_decisions(3)
                .with_trace(TraceLevel::Messages);
            let inner = kind.factory(&cfg, 23);
            let factory = move |id: NodeId| -> Box<dyn Protocol> {
                let left = if id == NodeId::new(0) { k } else { u32::MAX };
                Box::new(PanicAt {
                    inner: inner.create(id),
                    left,
                })
            };
            let sim = SimulationBuilder::new(cfg)
                .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
                .observability(ObsConfig::default().with_classifier(kind.phase_classifier()))
                .protocols(factory)
                .build()
                .expect("valid config");
            let Err(trace) = sim.run_caught() else {
                panic!("k = {k}: the run did not panic")
            };
            let skip = trace.len().saturating_sub(DEFAULT_LAST_K);
            let json = Json::Arr(trace.events().skip(skip).map(|e| e.to_json()).collect());
            (
                format!("panic/last-events#k{k}"),
                fnv1a(json.dump().as_bytes()),
            )
        })
        .collect()
}

/// Byte pins for `tests/golden_traces.rs`'s configuration (n = 7, seed 5,
/// genesis 23), kept at `TraceLevel::Messages` so every payload type is in
/// the trace: the FNV-1a of each protocol's trace JSON under
/// `"<protocol>/golden#trace"`. The committed golden files only pin the
/// decided values; these pin every event.
///
/// The same run at the two lower levels must be the same run: retention
/// changes what the trace keeps and nothing else.
fn golden_trace_rows() -> Vec<(String, u64)> {
    ProtocolKind::extended()
        .into_iter()
        .map(|kind| {
            let cfg = kind.configure(
                RunConfig::new(7)
                    .with_seed(5)
                    .with_lambda_ms(1000.0)
                    .with_time_cap(SimDuration::from_secs(900.0)),
            );
            let [decisions, events, messages] = [
                TraceLevel::Decisions,
                TraceLevel::Events,
                TraceLevel::Messages,
            ]
            .map(|level| {
                let cfg = cfg.clone().with_trace(level);
                let factory = kind.factory(&cfg, 23);
                SimulationBuilder::new(cfg)
                    .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
                    .observability(ObsConfig::default().with_classifier(kind.phase_classifier()))
                    .protocols(factory)
                    .build()
                    .expect("valid config")
                    .run()
            });
            assert!(
                messages.is_clean(),
                "{kind}: {:?}",
                messages.safety_violation
            );
            for (level, kept) in [
                (TraceLevel::Decisions, &decisions),
                (TraceLevel::Events, &events),
            ] {
                assert_retention_is_inert(kind, level, kept, &messages, &cfg);
            }
            let trace = fnv1a(messages.trace.to_json().dump().as_bytes());
            (format!("{}/golden#trace", kind.name()), trace)
        })
        .collect()
}

/// `kept`, recorded at `level`, against `full`, the same run recorded at
/// `TraceLevel::Messages`: every field but the trace equal, the same
/// decisions and exclusions in the trace, the same oracle verdicts.
fn assert_retention_is_inert(
    kind: ProtocolKind,
    level: TraceLevel,
    kept: &RunResult,
    full: &RunResult,
    cfg: &RunConfig,
) {
    assert_same_but_trace(kind, level, kept, full);
    let verdicts = |r: &RunResult| {
        OracleSuite::standard().check(&OracleInput::from_result(
            r,
            None,
            kind.expectations(cfg, true),
        ))
    };
    assert_eq!(verdicts(kept), verdicts(full), "{kind} at {level:?}");
}

/// Every field of `kept` but the trace equal to `full`'s, and the same
/// decisions and exclusions in the trace.
fn assert_same_but_trace(
    kind: ProtocolKind,
    level: TraceLevel,
    kept: &RunResult,
    full: &RunResult,
) {
    let untraced = |r: &RunResult| RunResult {
        trace: Trace::default(),
        ..r.clone()
    };
    assert_eq!(untraced(kept), untraced(full), "{kind} at {level:?}");
    assert!(
        kept.trace.decisions().eq(full.trace.decisions()),
        "{kind} at {level:?}: decisions"
    );
    let excluded = |r: &RunResult| -> Vec<NodeId> {
        r.trace
            .events()
            .filter(|e| matches!(e.kind, TraceKind::Crashed | TraceKind::Corrupted))
            .map(|e| e.node)
            .collect()
    };
    assert_eq!(excluded(kept), excluded(full), "{kind} at {level:?}");
}

/// The retention check again under the chaos fault preset, torn writes
/// armed. A torn write draws how much of a dispatch's output survives from
/// the length of that output, protocol reports included, so a level that
/// dropped a report instead of keeping its slot would tear other writes and
/// run another run. At every level the checked run must be the same: the
/// result but its trace, the perturbations applied and the oracle verdicts.
#[test]
fn retention_is_inert_under_chaos() {
    use bft_sim_core::buggify::FaultKind;
    for kind in [
        ProtocolKind::Pbft,
        ProtocolKind::HotStuffNs,
        ProtocolKind::LibraBft,
        ProtocolKind::Tendermint,
    ] {
        let mut torn = 0;
        for fault_seed in 0..8 {
            let spec = ScenarioSpec {
                n: 7,
                seed: 5,
                delay: DelaySpec::Uniform {
                    lo_micros: 50_000,
                    hi_micros: 400_000,
                },
                target_decisions: 20,
                fault_preset: FaultPreset::Chaos,
                fault_seed,
                ..ScenarioSpec::baseline(kind)
            };
            let [decisions, events, messages] = [
                TraceLevel::Decisions,
                TraceLevel::Events,
                TraceLevel::Messages,
            ]
            .map(|level| {
                spec.run_observed(RunMode::Generate, level)
                    .expect("scenario runs")
            });
            torn += messages
                .script
                .faults
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::TornWrite { .. }))
                .count();
            for (level, kept) in [
                (TraceLevel::Decisions, &decisions),
                (TraceLevel::Events, &events),
            ] {
                assert_same_but_trace(kind, level, &kept.result, &messages.result);
                assert_eq!(kept.script, messages.script, "{kind} at {level:?}: script");
                assert_eq!(
                    kept.violations, messages.violations,
                    "{kind} at {level:?}: verdicts"
                );
            }
        }
        assert!(torn > 0, "{kind}: no torn write to guard");
    }
}

/// One chained-protocol run at n = 16 (seed 3, genesis 7).
fn chained_row(
    key: String,
    kind: ProtocolKind,
    lambda_ms: f64,
    delay: Dist,
    attack: impl Adversary + 'static,
) -> [(String, u64); 2] {
    let cfg = kind.configure(
        RunConfig::new(16)
            .with_seed(3)
            .with_lambda_ms(lambda_ms)
            .with_time_cap(SimDuration::from_secs(900.0)),
    );
    pinned_row(key, kind, cfg, 7, SampledNetwork::new(delay), attack)
}

/// One run of `cfg` with every event traced and observability on: its
/// fingerprint under `key`, the FNV-1a of its trace JSON under
/// `"<key>#trace"`.
fn pinned_row(
    key: String,
    kind: ProtocolKind,
    cfg: RunConfig,
    genesis_seed: u64,
    network: impl NetworkModel + 'static,
    attack: impl Adversary + 'static,
) -> [(String, u64); 2] {
    let cfg = cfg.with_trace(TraceLevel::Messages);
    let factory = kind.factory(&cfg, genesis_seed);
    let result = SimulationBuilder::new(cfg)
        .network(network)
        .adversary(attack)
        .observability(ObsConfig::default().with_classifier(kind.phase_classifier()))
        .protocols(factory)
        .build()
        .expect("valid config")
        .run();
    assert!(result.is_clean(), "{key}: {:?}", result.safety_violation);
    let obs = result.observability.as_ref().expect("observability is on");
    if key.contains("minority") {
        // These rows exist to cover SyncReq / SyncResp; make sure they do.
        assert!(obs.phase_total("sync") > 0, "{key}: no block sync");
    }
    let trace = fnv1a(result.trace.to_json().dump().as_bytes());
    let run = CheckedRun {
        result,
        script: Default::default(),
        violations: Vec::new(),
    };
    [
        (format!("{key}#trace"), trace),
        (key, run_fingerprint(&run)),
    ]
}

fn chained_rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for kind in [ProtocolKind::HotStuffNs, ProtocolKind::LibraBft] {
        let key = |row: &str| format!("{}/{row}", kind.name());
        let paper = Dist::normal(250.0, 50.0);
        // Half/half: neither side has a quorum (Fig. 6). 12/4: the majority
        // commits on, and the minority must fetch what it missed.
        let split = |majority: usize, cross| {
            PartitionAttack::new(PartitionPlan::new(
                (0..16).map(|i| (i >= majority) as u32).collect(),
                SimTime::ZERO,
                SimTime::from_millis(20_000),
                cross,
            ))
        };
        rows.extend(chained_row(
            key("thrash"),
            kind,
            150.0,
            paper,
            NullAdversary,
        ));
        for (name, majority) in [("partition", 8), ("minority", 12)] {
            for (mode, cross) in [
                ("hold", CrossTraffic::HoldUntilResolve),
                ("drop", CrossTraffic::Drop),
            ] {
                let attack = split(majority, cross);
                rows.extend(chained_row(
                    key(&format!("{name}-{mode}")),
                    kind,
                    1000.0,
                    paper,
                    attack,
                ));
            }
        }
        rows.extend(chained_row(
            key("failstop"),
            kind,
            1000.0,
            Dist::normal(1000.0, 300.0),
            FailStop::last_k(16, kind.default_f(16)),
        ));
    }
    rows
}

/// PBFT on a constant 100 ms delay (below λ, so no view change): n = 7,
/// seed 5, 3 decisions, genesis 11.
fn cross_validation_rows() -> [(String, u64); 2] {
    let cfg = RunConfig::new(7)
        .with_seed(5)
        .with_target_decisions(3)
        .with_time_cap(SimDuration::from_secs(120.0));
    pinned_row(
        "pbft/cross-validation".into(),
        ProtocolKind::Pbft,
        cfg,
        11,
        ConstantNetwork::new(SimDuration::from_millis(100.0)),
        NullAdversary,
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn corpus_json(corpus: &[(String, u64)]) -> Json {
    Json::Obj(
        corpus
            .iter()
            .map(|(key, fp)| (key.clone(), Json::from(format!("{fp:016x}").as_str())))
            .collect(),
    )
}

#[test]
fn fingerprints_match_committed_golden_corpus() {
    let corpus = compute_corpus();
    let path = golden_path();
    let bless = std::env::var("BFT_SIM_BLESS").is_ok();
    if bless || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, corpus_json(&corpus).dump_pretty()).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    for (key, fp) in &corpus {
        let want = golden
            .get(key)
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{key}: missing from golden corpus — re-bless"));
        assert_eq!(
            format!("{fp:016x}"),
            want,
            "{key}: fingerprint diverged from the committed corpus \
             (BFT_SIM_BLESS=1 to re-bless after an intentional change)"
        );
    }
    let Json::Obj(entries) = &golden else {
        panic!("golden corpus must be an object");
    };
    assert_eq!(
        entries.len(),
        corpus.len(),
        "golden corpus has stale extra entries — re-bless"
    );
}

#[test]
fn golden_corpus_separates_calm_from_chaos() {
    // The corpus must not be vacuous: for at least one protocol the chaos
    // preset has to reach a behavior calm never shows. (Not asserted per
    // protocol — a fast single-decision protocol can finish before any
    // fault lands.)
    let corpus = compute_corpus();
    let mut separated = 0;
    for kind in ProtocolKind::extended() {
        let calm = corpus
            .iter()
            .find(|(k, _)| k == &format!("{}/calm", kind.name()));
        let chaos = corpus
            .iter()
            .find(|(k, _)| k == &format!("{}/chaos", kind.name()));
        if let (Some((_, a)), Some((_, b))) = (calm, chaos) {
            if a != b {
                separated += 1;
            }
        }
    }
    assert!(
        separated > 0,
        "chaos fingerprints collide with calm on every protocol"
    );
}
