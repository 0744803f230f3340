//! Miniature versions of every figure and table in the paper's evaluation,
//! asserting the qualitative claims end-to-end. The full-size sweeps are
//! `bft-sim fig N` and `bft-sim table N`; these run with few repetitions so
//! the whole evaluation is exercised by `cargo test`.

use bft_simulator::experiments::figures::{self, Point};
use bft_simulator::experiments::{loc, paper_spec, repeat};
use bft_simulator::prelude::*;
use bft_simulator::sim_core::json::Json;
use bft_simulator::simcheck::RunMode;

/// The point `reps` repetitions of `spec` from `base_seed` make; every
/// repetition must be safe.
fn measure(spec: &ScenarioSpec, reps: usize, base_seed: u64) -> Point {
    let results = repeat(spec, reps, base_seed).unwrap();
    Point::of(spec, &results, "").unwrap()
}

fn mean(points: &[figures::Point], proto: ProtocolKind, x: &str) -> f64 {
    points
        .iter()
        .find(|p| p.protocol == proto && p.x == x)
        .unwrap_or_else(|| panic!("missing point {proto} {x}"))
        .latency
        .mean
}

#[test]
fn fig2_every_size_runs_clean_and_events_grow_with_n() {
    // Deterministic facts only: `fig2` asserts every run is clean, and wall
    // time belongs to the release-built `bft-sim fig 2`.
    let rows = figures::fig2(&[8, 32, 64], 1, 0x2222);
    let sizes: Vec<usize> = rows.iter().map(|r| r.n).collect();
    assert_eq!(sizes, [8, 32, 64]);
    for w in rows.windows(2) {
        assert!(
            w[0].events < w[1].events,
            "events must grow with n: {} at n = {}, {} at n = {}",
            w[0].events,
            w[0].n,
            w[1].events,
            w[1].n
        );
    }
}

#[test]
fn fig3_hotstuff_wins_latency_and_messages_on_the_default_network() {
    let reps = 3;
    let mut latencies = Vec::new();
    let mut messages = Vec::new();
    for kind in ProtocolKind::all() {
        let point = measure(&paper_spec(kind, 16), reps, 0x3333);
        latencies.push((kind, point.latency.mean));
        messages.push((kind, point.messages.mean));
    }
    let best_latency = latencies
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap()
        .0;
    let best_messages = messages
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap()
        .0;
    assert_eq!(best_latency, ProtocolKind::HotStuffNs, "latency winner");
    assert_eq!(best_messages, ProtocolKind::HotStuffNs, "message winner");
}

#[test]
#[ignore = "divergence: PBFT churns through view changes and HotStuff+NS has a heavy tail at N(1000,1000) (EXPERIMENTS.md divergence 1)"]
fn fig3_pbft_edges_out_hotstuff_ns_at_the_widest_delays() {
    // The paper: HotStuff+NS has the lowest latency everywhere except at
    // N(1000,1000), where PBFT is slightly faster.
    let latency = |kind| {
        let spec = ScenarioSpec {
            delay: DelaySpec::Normal {
                mean_micros: 1_000_000,
                std_micros: 1_000_000,
            },
            ..paper_spec(kind, 16)
        };
        measure(&spec, 5, 0x3333).latency.mean
    };
    let [pbft, hotstuff, libra] = [
        ProtocolKind::Pbft,
        ProtocolKind::HotStuffNs,
        ProtocolKind::LibraBft,
    ]
    .map(latency);
    assert!(
        pbft <= hotstuff && hotstuff <= libra,
        "PBFT {pbft:.2} s, HotStuff+NS {hotstuff:.2} s, LibraBFT {libra:.2} s"
    );
}

#[test]
fn fig4_only_synchronous_protocols_pay_for_an_overestimated_timeout() {
    let points = figures::fig4(16, 2, 0x4444, &[1000, 3000]);
    for kind in ProtocolKind::all() {
        let low = mean(&points, kind, "λ=1000");
        let high = mean(&points, kind, "λ=3000");
        let growth = high / low.max(1e-9);
        if kind.responsive() {
            assert!(
                growth < 1.2,
                "{kind} is responsive but grew {growth:.2}x with λ"
            );
        } else {
            assert!(
                growth > 2.0,
                "{kind} is timer-paced but only grew {growth:.2}x with λ"
            );
        }
    }
}

#[test]
fn fig5_hotstuff_ns_destabilises_when_lambda_is_underestimated() {
    // Aggregate several seeds: HotStuff+NS at λ=150 must be measurably
    // slower and *much* noisier than at λ=1000, while LibraBFT stays flat.
    let points = figures::fig5(16, 10, 0x5555, &[150, 1000]);
    let hs_low = mean(&points, ProtocolKind::HotStuffNs, "λ=150");
    let hs_ok = mean(&points, ProtocolKind::HotStuffNs, "λ=1000");
    assert!(
        hs_low > 1.15 * hs_ok,
        "HotStuff+NS should degrade: {hs_low:.2} vs {hs_ok:.2}"
    );
    let hs_sd = points
        .iter()
        .find(|p| p.protocol == ProtocolKind::HotStuffNs && p.x == "λ=150")
        .unwrap()
        .latency
        .std_dev;
    assert!(hs_sd > 0.05, "instability should show as variance: {hs_sd}");

    let libra_low = mean(&points, ProtocolKind::LibraBft, "λ=150");
    let libra_ok = mean(&points, ProtocolKind::LibraBft, "λ=1000");
    assert!(
        libra_low < 1.15 * libra_ok,
        "LibraBFT must stay flat: {libra_low:.2} vs {libra_ok:.2}"
    );
}

#[test]
#[ignore = "divergence: HotStuff+NS's mean grows ~1.4x, not the paper's 5.3x (EXPERIMENTS.md divergence 2)"]
fn fig5_hotstuff_ns_mean_at_least_triples_when_lambda_is_underestimated() {
    let points = figures::fig5(16, 10, 0x5555, &[150, 1000]);
    let low = mean(&points, ProtocolKind::HotStuffNs, "λ=150");
    let ok = mean(&points, ProtocolKind::HotStuffNs, "λ=1000");
    assert!(low >= 3.0 * ok, "HotStuff+NS: {low:.2} s vs {ok:.2} s");
}

#[test]
fn fig6_partition_recovery_is_fast_except_for_hotstuff_ns() {
    let resolve = 20.0;
    let points = figures::fig6(16, 1, 0x6666, 20);
    for p in &points {
        let extra = p.latency.mean - resolve;
        assert!(
            p.latency.mean >= resolve * 0.99,
            "{}: decided during the partition?",
            p.protocol
        );
        if p.protocol == ProtocolKind::HotStuffNs {
            assert!(
                extra > 30.0,
                "HotStuff+NS should overshoot by ~100 s, got {extra:.1}"
            );
        } else {
            assert!(
                extra < 10.0,
                "{} should recover within seconds, got {extra:.1}",
                p.protocol
            );
        }
    }
}

#[test]
fn ablation_retransmission_not_timer_arithmetic_drives_partition_recovery() {
    // DESIGN.md §8: HotStuff+NS only has its local, exponentially grown view
    // timers to re-converge after a partition, so it pays a large penalty
    // however long the split lasted. The three pacemakers that re-send their
    // synchronisation votes recover within seconds at either length.
    for resolve_s in [5, 40] {
        for kind in [
            ProtocolKind::HotStuffNs,
            ProtocolKind::LibraBft,
            ProtocolKind::Pbft,
            ProtocolKind::Tendermint,
        ] {
            let spec = ScenarioSpec {
                partition: Some(PartitionSpec {
                    start_ms: 0,
                    end_ms: resolve_s * 1000,
                    drop: true,
                }),
                target_decisions: 1,
                time_cap_secs: 1800,
                ..paper_spec(kind, 16)
            };
            // `measure` refuses an unsafe run.
            let point = measure(&spec, 1, 0xAB1A);
            let overhead = point.latency.mean - resolve_s as f64;
            if kind == ProtocolKind::HotStuffNs {
                assert!(
                    overhead > 30.0,
                    "{kind} after a {resolve_s} s split: {overhead:.1} s"
                );
            } else {
                assert!(
                    overhead < 10.0,
                    "{kind} after a {resolve_s} s split: {overhead:.1} s"
                );
            }
        }
    }
}

#[test]
fn fig7_fail_stop_hurts_partially_synchronous_protocols_more() {
    let points = figures::fig7(16, 2, 0x7777, &[0, 4]);
    // Synchronous protocols barely notice; LibraBFT degrades noticeably.
    let algo_growth = mean(&points, ProtocolKind::Algorand, "crash=4")
        / mean(&points, ProtocolKind::Algorand, "crash=0");
    let libra_growth = mean(&points, ProtocolKind::LibraBft, "crash=4")
        / mean(&points, ProtocolKind::LibraBft, "crash=0");
    assert!(algo_growth < 2.0, "algorand grew {algo_growth:.2}x");
    assert!(libra_growth > 2.0, "librabft only grew {libra_growth:.2}x");
}

#[test]
fn fig8_static_and_adaptive_attacks_separate_the_add_variants() {
    let points = figures::fig8(16, 1, 0x8888);
    let m = |proto, x| mean(&points, proto, x);

    // Static: v1 pays ~f extra iterations; v2 and v3 are untouched.
    assert!(m(ProtocolKind::AddV1, "static") > 3.0 * m(ProtocolKind::AddV1, "none"));
    assert!(m(ProtocolKind::AddV2, "static") <= 1.01 * m(ProtocolKind::AddV2, "none"));
    assert!(m(ProtocolKind::AddV3, "static") <= 1.01 * m(ProtocolKind::AddV3, "none"));

    // Adaptive: v2 pays ~f extra iterations; v3 is untouched.
    assert!(m(ProtocolKind::AddV2, "adaptive") > 3.0 * m(ProtocolKind::AddV2, "none"));
    assert!(m(ProtocolKind::AddV3, "adaptive") <= 1.01 * m(ProtocolKind::AddV3, "none"));
}

#[test]
fn fig9_view_timelines_cover_every_node_and_grow_monotonically() {
    let lines = figures::fig9(16, 167);
    assert_eq!(lines.len(), 16);
    for (node, timeline) in &lines {
        assert!(!timeline.is_empty(), "{node} has no view entries");
        assert!(
            timeline.windows(2).all(|w| w[0].1 < w[1].1),
            "{node}: views must increase"
        );
        assert!(
            timeline.windows(2).all(|w| w[0].0 <= w[1].0),
            "{node}: time must be monotone"
        );
    }
    // The chosen seed exhibits divergence: some node reaches a view far
    // ahead of another at the same moment during the run.
    let spread_seen = {
        let end = lines
            .iter()
            .flat_map(|(_, t)| t.last().map(|&(s, _)| s))
            .fold(0.0f64, f64::max);
        (0..=(end as u64)).any(|sec| {
            let views: Vec<u64> = lines
                .iter()
                .map(|(_, t)| {
                    t.iter()
                        .take_while(|&&(ts, _)| ts <= sec as f64)
                        .last()
                        .map(|&(_, v)| v)
                        .unwrap_or(0)
                })
                .collect();
            views.iter().max().unwrap() - views.iter().min().unwrap() >= 2
        })
    };
    assert!(spread_seen, "expected view divergence in the fig9 seed");
}

#[test]
fn table1_and_table2_report_compact_implementations() {
    let t1 = loc::table1();
    assert_eq!(t1.len(), 8);
    // The paper's point: protocols are expressible in a few hundred lines.
    for row in &t1 {
        assert!(row.loc < 1500, "{} too large: {}", row.name, row.loc);
    }
    let t2 = loc::table2();
    assert_eq!(t2.len(), 4);
    for row in &t2 {
        assert!(row.loc < 200, "{} too large: {}", row.name, row.loc);
    }
}

#[test]
fn intro_claim_partition_attack_denies_service_while_active() {
    // The liveness half of the motivation: during an unresolved partition
    // no partially-synchronous protocol can decide.
    for kind in [ProtocolKind::Pbft, ProtocolKind::LibraBft] {
        let spec = ScenarioSpec {
            seed: 3,
            partition: Some(PartitionSpec {
                start_ms: 0,
                end_ms: 3_600_000, // never resolves within the cap
                drop: true,
            }),
            target_decisions: 1,
            time_cap_secs: 120,
            ..paper_spec(kind, 16)
        };
        let r = spec.simulate(TraceLevel::Decisions).unwrap();
        assert!(r.timed_out, "{kind} decided through a partition?");
        assert!(r.safety_violation.is_none());
    }
}

/// A figure run is a file: Fig. 7's PBFT crash = 5 cell and the first capped
/// HotStuff+NS run of Fig. 3's N(1000,1000) cell survive `to_json` /
/// `from_json` unchanged, and the checked run of each has the very result
/// of the unchecked one the figure measures. So do a generated spec under
/// the `chaos` fault preset and one whose net block churns nodes.
#[test]
fn figure_runs_round_trip_as_scenario_files() {
    let crash5 = ScenarioSpec {
        delay: DelaySpec::Normal {
            mean_micros: 1_000_000,
            std_micros: 300_000,
        },
        attack: Some(AttackSpec::FailStopLast { k: 5 }),
        time_cap_secs: 900,
        ..paper_spec(ProtocolKind::Pbft, figures::N)
    };
    // The spec is the figure's cell: same point from the same seeds.
    let cell = &figures::fig7(figures::N, 2, figures::seed(7), &[5])[..];
    let cell = cell
        .iter()
        .find(|p| p.protocol == ProtocolKind::Pbft)
        .unwrap();
    let ours = measure(&crash5, 2, figures::seed(7));
    assert_eq!((ours.latency, ours.messages), (cell.latency, cell.messages));

    let widest = ScenarioSpec {
        delay: DelaySpec::Normal {
            mean_micros: 1_000_000,
            std_micros: 1_000_000,
        },
        ..paper_spec(ProtocolKind::HotStuffNs, figures::N)
    };
    let capped = (0..figures::REPS as u64)
        .map(|i| ScenarioSpec {
            seed: figures::seed(3) + i,
            ..widest.clone()
        })
        .find(|spec| spec.simulate(TraceLevel::Decisions).unwrap().timed_out)
        .expect("Fig. 3's N(1000,1000) cell has a capped HotStuff+NS run");

    let all = ProtocolKind::all();
    let generated = |preset, keep: fn(&ScenarioSpec) -> bool| {
        (0..)
            .map(|seed| ScenarioSpec::generate(seed, &all, 500, 48, false, preset))
            .find(keep)
            .unwrap()
    };
    let chaos = generated(FaultPreset::Chaos, |spec| {
        spec.fault_preset == FaultPreset::Chaos && spec.net.is_none()
    });
    let churned = generated(FaultPreset::Calm, |spec| {
        spec.net.is_some_and(|net| net.churn.is_some())
    });

    for spec in [
        ScenarioSpec {
            seed: figures::seed(7),
            ..crash5
        },
        capped,
        chaos,
        churned,
    ] {
        let text = spec.to_json().dump_pretty();
        let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec, "{text}");
        let unchecked = spec.simulate(TraceLevel::Decisions).unwrap();
        let checked = spec.run(RunMode::Generate).unwrap().result;
        assert!(checked == unchecked, "{text}");
    }
}

/// A capped run is a censored sample at its lower bound: Fig. 3's first
/// capped HotStuff+NS run at N(1000,1000) (seed 61 800) decided 8 of its 10
/// decisions before the 600 s cap, so its per-decision latency is at least
/// 600 s / 10. Ranked above every complete run with the cell's other capped
/// run among its first ten seeds, it leaves the median exact and hides q3.
#[test]
fn a_capped_run_is_a_censored_sample_ranked_last() {
    let widest = ScenarioSpec {
        delay: DelaySpec::Normal {
            mean_micros: 1_000_000,
            std_micros: 1_000_000,
        },
        ..paper_spec(ProtocolKind::HotStuffNs, figures::N)
    };
    let results = repeat(&widest, 10, figures::seed(3)).unwrap();
    let samples: Vec<(f64, bool)> = results.iter().map(|r| r.latency_sample(10)).collect();
    assert_eq!(figures::seed(3) + 5, 61_800);
    assert_eq!(results[5].decisions_completed(), 8);
    assert_eq!(samples[5], (60.0, true));
    let capped: Vec<usize> = (0..10).filter(|&i| samples[i].1).collect();
    assert_eq!(capped, [5, 7], "{samples:?}");

    let cell = measure(&widest, 10, figures::seed(3)).latency;
    assert_eq!((cell.count, cell.capped, cell.max), (10, 2, 60.0));
    // Exclusive quartiles at n = 10 weight ranks 2–3, 5–6 and 8–9: the
    // complete samples fill ranks 1–8, the censored ones 9 and 10.
    let mut complete: Vec<f64> = samples.iter().filter(|s| !s.1).map(|s| s.0).collect();
    complete.sort_by(f64::total_cmp);
    let q = |lo: usize, w: f64| (complete[lo] * (4.0 - w) + complete[lo + 1] * w) / 4.0;
    assert_eq!(cell.q1, Some(q(1, 3.0)));
    assert_eq!(cell.median, Some(q(4, 2.0)));
    assert_eq!(cell.q3, None);
}
