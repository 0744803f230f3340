//! Determinism and validator-replay guarantees: a seeded run is perfectly
//! reproducible, and the recorded delivery schedule replays to identical
//! decisions — the repository's analogue of the paper's trace
//! cross-validation (§III-D).

use bft_simulator::prelude::*;

fn build(kind: ProtocolKind, seed: u64) -> Simulation {
    let cfg = kind.configure(
        RunConfig::new(10)
            .with_seed(seed)
            .with_lambda_ms(1000.0)
            .with_time_cap(SimDuration::from_secs(900.0)),
    );
    let factory = kind.factory(&cfg, 23);
    SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(factory)
        .build()
        .unwrap()
}

#[test]
fn every_protocol_is_bitwise_deterministic_per_seed() {
    for kind in ProtocolKind::extended() {
        let a = build(kind, 99).run();
        let b = build(kind, 99).run();
        assert_eq!(a.end_time, b.end_time, "{kind}: end time");
        assert_eq!(a.honest_messages, b.honest_messages, "{kind}: messages");
        assert_eq!(a.events_processed, b.events_processed, "{kind}: events");
        assert_eq!(a.trace, b.trace, "{kind}: full trace");
    }
}

#[test]
fn seed_sweep_reproduces_results_and_schedules_bit_for_bit() {
    // The fuzzer's foundation: for every protocol and a sweep of seeds, two
    // independent runs must agree on the *entire* RunResult (decisions,
    // counters, trace) and on every recorded delivery fate.
    let record = |kind: ProtocolKind, seed: u64| -> (RunResult, DeliverySchedule) {
        let cfg = kind.configure(
            RunConfig::new(7)
                .with_seed(seed)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(900.0)),
        );
        let factory = kind.factory(&cfg, 23);
        SimulationBuilder::new(cfg)
            .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
            .protocols(factory)
            .build()
            .unwrap()
            .run_recorded()
    };
    for kind in ProtocolKind::extended() {
        for seed in 0..8 {
            let (result_a, schedule_a) = record(kind, seed);
            let (result_b, schedule_b) = record(kind, seed);
            assert_eq!(result_a, result_b, "{kind} seed {seed}: RunResult");
            assert_eq!(schedule_a, schedule_b, "{kind} seed {seed}: schedule");
            assert!(
                result_a.is_clean(),
                "{kind} seed {seed}: {:?}",
                result_a.safety_violation
            );
        }
    }
}

#[test]
fn different_seeds_change_executions() {
    for kind in [
        ProtocolKind::Pbft,
        ProtocolKind::LibraBft,
        ProtocolKind::AsyncBa,
    ] {
        let a = build(kind, 1).run();
        let b = build(kind, 2).run();
        assert_ne!(
            (a.end_time, a.events_processed),
            (b.end_time, b.events_processed),
            "{kind}: seeds 1 and 2 coincided suspiciously"
        );
    }
}

#[test]
fn recorded_schedules_replay_to_identical_decisions() {
    for kind in ProtocolKind::extended() {
        let cfg = kind.configure(
            RunConfig::new(7)
                .with_seed(5)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(900.0)),
        );
        let factory = kind.factory(&cfg, 23);
        let (original, schedule) = SimulationBuilder::new(cfg.clone())
            .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
            .protocols(factory)
            .build()
            .unwrap()
            .run_recorded();
        assert!(
            original.is_clean(),
            "{kind}: {:?}",
            original.safety_violation
        );

        // Replay with a different seed and a dummy network: the schedule
        // dictates every delivery, so the decisions must match exactly.
        let replay_cfg = RunConfig {
            seed: 0xDEAD,
            ..cfg
        };
        let factory = kind.factory(&replay_cfg, 23);
        let replayed = SimulationBuilder::new(replay_cfg)
            .network(ConstantNetwork::new(SimDuration::ZERO))
            .protocols(factory)
            .replay_schedule(schedule)
            .build()
            .unwrap()
            .run();
        Validator::check_replay(&original, &replayed)
            .unwrap_or_else(|e| panic!("{kind}: replay diverged: {e}"));
    }
}

#[test]
fn replay_detects_tampered_results() {
    let cfg = ProtocolKind::Pbft.configure(RunConfig::new(4).with_seed(1));
    let factory = ProtocolKind::Pbft.factory(&cfg, 23);
    let (mut original, schedule) = SimulationBuilder::new(cfg.clone())
        .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
        .protocols(factory)
        .build()
        .unwrap()
        .run_recorded();

    // Tamper with the recorded ground truth: claim node 0 decided another
    // value. The validator must notice.
    original.decided[0][0].1 = Value::new(0xBAD);
    let factory = ProtocolKind::Pbft.factory(&cfg, 23);
    let replayed = SimulationBuilder::new(cfg)
        .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
        .protocols(factory)
        .replay_schedule(schedule)
        .build()
        .unwrap()
        .run();
    assert!(Validator::check_replay(&original, &replayed).is_err());
}

#[test]
fn repetition_parallelism_does_not_change_results() {
    use bft_simulator::experiments::{paper_spec, repeat};
    // `repeat` fans out over threads; results must match a serial loop.
    let spec = paper_spec(ProtocolKind::Pbft, 7);
    let parallel = repeat(&spec, 8, 100).unwrap();
    let serial: Vec<RunResult> = (0..8)
        .map(|i| {
            let spec = ScenarioSpec {
                seed: 100 + i,
                ..spec.clone()
            };
            spec.simulate(TraceLevel::Decisions).unwrap()
        })
        .collect();
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.end_time, s.end_time);
        assert_eq!(p.honest_messages, s.honest_messages);
    }
}
