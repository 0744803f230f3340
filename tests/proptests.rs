//! Randomised property tests over the simulator's core invariants:
//! distribution bounds, clock monotonicity, safety under randomized
//! adversaries within the fault budget, and quorum-certificate algebra.
//!
//! Each test draws its cases from a seeded [`SmallRng`], so failures are
//! reproducible: the case seed is printed in the assertion message.

use bft_simulator::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Delay sampling never produces a negative duration, for any
/// distribution parameters.
#[test]
fn sampled_delays_are_never_negative() {
    let mut gen = SmallRng::seed_from_u64(0xDE1A);
    for case in 0..CASES {
        let mu = gen.gen_range(-2000.0..2000.0);
        let sigma = gen.gen_range(0.0..2000.0);
        let seed: u64 = gen.gen();
        let mut rng = SmallRng::seed_from_u64(seed);
        let dist = Dist::normal(mu, sigma);
        for _ in 0..64 {
            let d = dist.sample_delay(&mut rng);
            assert!(
                d.as_millis_f64() >= 0.0,
                "case {case}: normal({mu}, {sigma}) seed {seed} sampled negative"
            );
        }
    }
}

/// Uniform sampling respects its bounds for arbitrary ranges.
#[test]
fn uniform_respects_bounds() {
    let mut gen = SmallRng::seed_from_u64(0x0B0);
    for case in 0..CASES {
        let lo = gen.gen_range(0.0..1000.0);
        let width = gen.gen_range(0.0..1000.0);
        let seed: u64 = gen.gen();
        let mut rng = SmallRng::seed_from_u64(seed);
        let dist = Dist::uniform(lo, lo + width);
        for _ in 0..64 {
            let x = dist.sample(&mut rng);
            assert!(
                x >= lo && x <= lo + width.max(f64::EPSILON),
                "case {case}: uniform({lo}, {}) seed {seed} sampled {x}",
                lo + width
            );
        }
    }
}

/// Draws one of each [`Dist`] variant with randomised parameters.
fn arbitrary_dists(gen: &mut SmallRng) -> Vec<Dist> {
    vec![
        Dist::constant(gen.gen_range(0.0..5000.0)),
        Dist::uniform(gen.gen_range(0.0..2000.0), gen.gen_range(2000.0..6000.0)),
        Dist::normal(gen.gen_range(-1000.0..4000.0), gen.gen_range(0.0..2000.0)),
        Dist::exponential(gen.gen_range(0.1..3000.0)),
        Dist::poisson(gen.gen_range(0.1..1000.0)),
    ]
}

/// `BoundedNetwork` never proposes a delay above its bound, for every
/// distribution variant and arbitrary parameters.
#[test]
fn bounded_network_never_exceeds_its_bound() {
    let mut gen = SmallRng::seed_from_u64(0xB0B0);
    for case in 0..CASES {
        let bound_ms = gen.gen_range(1.0..3000.0);
        let seed: u64 = gen.gen();
        for dist in arbitrary_dists(&mut gen) {
            let mut net = BoundedNetwork::new(dist, bound_ms);
            let mut rng = SmallRng::seed_from_u64(seed);
            for sample in 0..64 {
                let now = SimTime::from_millis(sample * 17);
                let d = net
                    .decide(NodeId::new(0), NodeId::new(1), now, 64, &mut rng)
                    .delay()
                    .unwrap();
                assert!(
                    d <= net.bound(),
                    "case {case}: {dist:?} bound {bound_ms} ms seed {seed} \
                     proposed {} ms",
                    d.as_millis_f64()
                );
            }
        }
    }
}

/// `GstNetwork` delivery-time guarantee, across every `Dist` variant:
/// a message sent at `now ≥ GST` arrives within `post_bound`; a message
/// sent before GST arrives no later than `GST + post_bound` (the in-flight
/// cap of the Dwork–Lynch–Stockmeyer model).
#[test]
fn gst_network_delays_respect_the_stabilisation_contract() {
    let mut gen = SmallRng::seed_from_u64(0x6057);
    for case in 0..CASES {
        let gst_ms = gen.gen_range(0.0..4000.0);
        let post_bound_ms = gen.gen_range(1.0..2000.0);
        let seed: u64 = gen.gen();
        let pre_dists = arbitrary_dists(&mut gen);
        let post_dists = arbitrary_dists(&mut gen);
        for (pre, post) in pre_dists.into_iter().zip(post_dists) {
            let mut net = GstNetwork::new(pre, post, gst_ms, post_bound_ms);
            let post_bound = SimDuration::from_millis(post_bound_ms);
            let deadline = net.gst() + post_bound;
            let mut rng = SmallRng::seed_from_u64(seed);
            for sample in 0..64 {
                // Sprinkle send times on both sides of GST.
                let now = SimTime::from_millis((sample * 131) % (gst_ms as u64 * 2 + 100));
                let d = net
                    .decide(NodeId::new(0), NodeId::new(1), now, 64, &mut rng)
                    .delay()
                    .unwrap();
                if now >= net.gst() {
                    assert!(
                        d <= post_bound,
                        "case {case}: post-GST delay {} ms exceeds bound \
                         {post_bound_ms} ms ({pre:?}/{post:?}, seed {seed})",
                        d.as_millis_f64()
                    );
                } else {
                    assert!(
                        now + d <= deadline,
                        "case {case}: pre-GST send at {} ms would deliver at \
                         {} ms, after GST({gst_ms}) + bound({post_bound_ms}) \
                         ({pre:?}/{post:?}, seed {seed})",
                        now.as_millis_f64(),
                        (now + d).as_millis_f64()
                    );
                }
            }
        }
    }
}

/// FIFO per link: with a constant propagation delay, messages queued on one
/// bandwidth-limited link never reorder — arrival times are non-decreasing
/// in send order, for arbitrary send times and message sizes.
#[test]
fn bandwidth_link_is_fifo() {
    let mut gen = SmallRng::seed_from_u64(0xF1F0);
    for case in 0..CASES {
        let bw = gen.gen_range(100u64..100_000);
        let prop_ms = gen.gen_range(0.0..500.0);
        let seed: u64 = gen.gen();
        let topo = LinkTopology::full_mesh(2, Dist::constant(prop_ms), Some(bw)).unwrap();
        let mut net = BandwidthNetwork::new(topo);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for send in 0..64 {
            // Non-decreasing send times with random gaps and sizes.
            now += SimDuration::from_micros(gen.gen_range(0..200_000));
            let bytes = gen.gen_range(1..50_000);
            let d = net
                .decide(NodeId::new(0), NodeId::new(1), now, bytes, &mut rng)
                .delivery()
                .unwrap();
            let arrival = now + d.delay;
            assert!(
                arrival >= last_arrival,
                "case {case}: send {send} (bw {bw} B/s, prop {prop_ms} ms, seed \
                 {seed}) arrives at {} before its predecessor at {}",
                arrival.as_millis_f64(),
                last_arrival.as_millis_f64()
            );
            last_arrival = arrival;
        }
    }
}

/// The simulation clock is monotone: trace events appear in
/// non-decreasing time order in every run.
#[test]
fn trace_times_are_monotone() {
    let mut gen = SmallRng::seed_from_u64(0x7173);
    for case in 0..16 {
        let seed: u64 = gen.gen();
        let mu = gen.gen_range(10.0..800.0);
        let cfg = ProtocolKind::Pbft.configure(
            RunConfig::new(4)
                .with_seed(seed)
                .with_time_cap(SimDuration::from_secs(600.0)),
        );
        let factory = ProtocolKind::Pbft.factory(&cfg, 1);
        let r = SimulationBuilder::new(cfg)
            .network(SampledNetwork::new(Dist::normal(mu, mu / 4.0)))
            .protocols(factory)
            .build()
            .unwrap()
            .run();
        let times: Vec<_> = r.trace.events().map(|e| e.time).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "case {case}: seed {seed} mu {mu} produced a non-monotone trace"
        );
    }
}

/// Safety holds for the quorum-based protocols under an adversary that
/// randomly drops and delays up to its budget of traffic.
#[test]
fn safety_under_random_drop_and_delay() {
    struct Chaos {
        drop_pct: u32,
        delay: SimDuration,
        counter: u64,
    }
    impl Adversary for Chaos {
        fn attack(
            &mut self,
            msg: &mut Message,
            proposed: SimDuration,
            _api: &mut AdversaryApi<'_>,
        ) -> Fate {
            self.counter = self
                .counter
                .wrapping_mul(6364136223846793005)
                .wrapping_add(msg.src().as_u32() as u64 + 1442695040888963407);
            if (self.counter >> 33) % 100 < self.drop_pct as u64 {
                Fate::Drop
            } else if (self.counter >> 13) & 1 == 1 {
                Fate::Deliver(proposed + self.delay)
            } else {
                Fate::Deliver(proposed)
            }
        }
    }
    let mut gen = SmallRng::seed_from_u64(0xC4A05);
    for case in 0..12 {
        let seed: u64 = gen.gen();
        let drop_pct = gen.gen_range(0u64..25) as u32;
        let delay_ms = gen.gen_range(0u64..2000) as f64;
        for kind in [
            ProtocolKind::Pbft,
            ProtocolKind::HotStuffNs,
            ProtocolKind::LibraBft,
        ] {
            let cfg = kind.configure(
                RunConfig::new(7)
                    .with_seed(seed)
                    .with_time_cap(SimDuration::from_secs(120.0)),
            );
            let factory = kind.factory(&cfg, 3);
            let r = SimulationBuilder::new(cfg)
                .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
                .adversary(Chaos {
                    drop_pct,
                    delay: SimDuration::from_millis(delay_ms),
                    counter: seed,
                })
                .protocols(factory)
                .build()
                .unwrap()
                .run();
            // Liveness may legitimately fail under chaos; safety never may.
            assert!(
                r.safety_violation.is_none(),
                "case {case}: {kind} violated safety (seed {seed}, drop {drop_pct}%, \
                 delay {delay_ms} ms): {:?}",
                r.safety_violation
            );
        }
    }
}

/// Quorum certificates form exactly once and only at the threshold.
#[test]
fn vote_tracker_threshold_property() {
    use bft_sim_crypto::{hash::Digest, quorum::VoteTracker, signature::sign};
    let mut gen = SmallRng::seed_from_u64(0x90C);
    for case in 0..CASES {
        let threshold = gen.gen_range(1u64..20) as usize;
        let voters = gen.gen_range(1u64..40) as usize;
        let mut tracker = VoteTracker::new(threshold);
        let digest = Digest::of_bytes(b"prop");
        let mut formed = 0;
        for v in 0..voters {
            let sig = sign(NodeId::new(v as u32), digest);
            if tracker.add(1, digest, sig).is_some() {
                formed += 1;
                assert_eq!(
                    v + 1,
                    threshold,
                    "case {case}: QC formed at the wrong count"
                );
            }
        }
        assert_eq!(formed, usize::from(voters >= threshold), "case {case}");
        assert_eq!(tracker.count(1, digest), voters, "case {case}");
    }
}

/// SignerSet behaves like a set of node ids.
#[test]
fn signer_set_models_a_set() {
    use bft_sim_crypto::quorum::SignerSet;
    use std::collections::BTreeSet;
    let mut gen = SmallRng::seed_from_u64(0x5E7);
    for case in 0..CASES {
        let len = gen.gen_range(0u64..64) as usize;
        let ids: Vec<u32> = (0..len).map(|_| gen.gen_range(0u64..500) as u32).collect();
        let mut set = SignerSet::new();
        let mut model = BTreeSet::new();
        for &id in &ids {
            let newly = set.insert(NodeId::new(id));
            assert_eq!(newly, model.insert(id), "case {case}: insert({id})");
        }
        assert_eq!(set.len(), model.len(), "case {case}");
        let enumerated: Vec<u32> = set.iter().map(|n| n.as_u32()).collect();
        let expected: Vec<u32> = model.iter().copied().collect();
        assert_eq!(enumerated, expected, "case {case}");
    }
}

/// Message counting is conserved: every honest transmission is either
/// delivered within the run, dropped by the adversary, or still in
/// flight at the end — and replay schedules record exactly one fate
/// per transmission.
#[test]
fn schedule_records_one_fate_per_transmission() {
    let mut gen = SmallRng::seed_from_u64(0xFA7E);
    for case in 0..16 {
        let seed: u64 = gen.gen();
        let cfg = ProtocolKind::AsyncBa.configure(
            RunConfig::new(4)
                .with_seed(seed)
                .with_time_cap(SimDuration::from_secs(300.0)),
        );
        let factory = ProtocolKind::AsyncBa.factory(&cfg, 2);
        let (result, schedule) = SimulationBuilder::new(cfg)
            .network(SampledNetwork::new(Dist::normal(100.0, 25.0)))
            .protocols(factory)
            .build()
            .unwrap()
            .run_recorded();
        assert_eq!(
            schedule.len() as u64,
            result.honest_messages,
            "case {case}: seed {seed}"
        );
    }
}
