//! The one run description. A [`ScenarioSpec`] pins *everything* a run
//! depends on — protocol, scale, seeds, delay distribution, partition
//! window, the paper's attacks, adversary budget — as plain integers, so the
//! spec itself is the reproducer. Figures, `run` and `compare` execute it
//! unchecked ([`ScenarioSpec::simulate`]); fuzz scenarios are drawn by
//! [`ScenarioSpec::generate`] and executed (and oracle-checked) by
//! [`ScenarioSpec::run`] in one of three modes:
//!
//! - [`RunMode::Generate`] — the adversary rolls fresh actions within its
//!   budget and logs them;
//! - [`RunMode::Scripted`] — a previously logged action list is re-applied
//!   verbatim (the shrinker's probe mode);
//! - [`RunMode::Replay`] — a recorded [`DeliverySchedule`] is replayed with
//!   the adversary bypassed entirely (the engine's validator path).
//!
//! No run records its delivery schedule except under
//! [`ScenarioSpec::run_recorded`], which the shrinker calls once, on a
//! minimised failure it can turn into a schedule replay. Every other checked
//! run (fuzz, campaign, coverage and every ddmin probe) pays nothing for it.

use bft_sim_attacks::{
    AddAdaptiveRushingAttack, AddStaticAttack, FailStop, FuzzAction, FuzzBudget, PartitionAttack,
    RandomizedAdversary,
};
use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::buggify::{FaultAction, FaultInjector, FaultLog, FaultPreset, FaultStats};
use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::{Simulation, SimulationBuilder};
use bft_sim_core::json::{self, Fields, Json};
use bft_sim_core::message::Message;
use bft_sim_core::metrics::RunResult;
use bft_sim_core::network::{NetworkModel, SampledNetwork};
use bft_sim_core::obs::{ObsConfig, DEFAULT_LAST_K};
use bft_sim_core::oracle::{Expectations, OracleInput, OracleSuite, OracleViolation, OutageWindow};
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_core::time::SimDuration;
use bft_sim_core::trace::{TraceEvent, TraceLevel};
use bft_sim_core::validator::DeliverySchedule;
use bft_sim_net::churn::{ChurnPlan, ChurnedNetwork};
use bft_sim_net::topology::{BandwidthNetwork, LinkTopology};
use bft_sim_protocols::registry::ProtocolKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A network delay distribution with integer-microsecond parameters, so the
/// spec JSON round-trips exactly (no float formatting involved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelaySpec {
    /// Every message takes exactly `micros`.
    Constant {
        /// The fixed delay.
        micros: u64,
    },
    /// Uniform in `[lo_micros, hi_micros)`.
    Uniform {
        /// Lower bound (inclusive).
        lo_micros: u64,
        /// Upper bound (exclusive).
        hi_micros: u64,
    },
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Mean delay.
        mean_micros: u64,
        /// Standard deviation.
        std_micros: u64,
    },
}

impl DelaySpec {
    /// The engine-facing distribution (milliseconds, as [`Dist`] expects).
    pub fn to_dist(self) -> Dist {
        let ms = |micros: u64| micros as f64 / 1000.0;
        match self {
            DelaySpec::Constant { micros } => Dist::constant(ms(micros)),
            DelaySpec::Uniform {
                lo_micros,
                hi_micros,
            } => Dist::uniform(ms(lo_micros), ms(hi_micros)),
            DelaySpec::Normal {
                mean_micros,
                std_micros,
            } => Dist::normal(ms(mean_micros), ms(std_micros)),
        }
    }

    /// The distribution mean in microseconds; ring topologies use it as the
    /// per-hop latency and the clustered shape scales its WAN links from it.
    pub(crate) fn mean_micros(self) -> u64 {
        match self {
            DelaySpec::Constant { micros } => micros,
            DelaySpec::Uniform {
                lo_micros,
                hi_micros,
            } => lo_micros / 2 + hi_micros / 2,
            DelaySpec::Normal { mean_micros, .. } => mean_micros,
        }
    }

    /// Externally tagged JSON, mirroring the schedule-fate format.
    pub(crate) fn to_json(self) -> Json {
        match self {
            DelaySpec::Constant { micros } => {
                Json::obj([("Constant", Json::obj([("micros", Json::from(micros))]))])
            }
            DelaySpec::Uniform {
                lo_micros,
                hi_micros,
            } => Json::obj([(
                "Uniform",
                Json::obj([
                    ("lo_micros", Json::from(lo_micros)),
                    ("hi_micros", Json::from(hi_micros)),
                ]),
            )]),
            DelaySpec::Normal {
                mean_micros,
                std_micros,
            } => Json::obj([(
                "Normal",
                Json::obj([
                    ("mean_micros", Json::from(mean_micros)),
                    ("std_micros", Json::from(std_micros)),
                ]),
            )]),
        }
    }

    /// Parses the format produced by [`DelaySpec::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed per [`bft_sim_core::json`]'s artifact parsing policy.
    pub(crate) fn from_json(json: &Json) -> Result<DelaySpec, String> {
        let (tag, body) = json::variant(json, "delay")?;
        let unknown = || format!("delay: unknown variant \"{tag}\"");
        let mut f = body.ok_or_else(unknown)?;
        let delay = match tag {
            "Constant" => DelaySpec::Constant {
                micros: f.req("micros", json::int)?,
            },
            "Uniform" => DelaySpec::Uniform {
                lo_micros: f.req("lo_micros", json::int)?,
                hi_micros: f.req("hi_micros", json::int)?,
            },
            "Normal" => DelaySpec::Normal {
                mean_micros: f.req("mean_micros", json::int)?,
                std_micros: f.req("std_micros", json::int)?,
            },
            _ => return Err(unknown()),
        };
        f.finish()?;
        Ok(delay)
    }
}

/// A half/half network split over a time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Partition start (ms).
    pub start_ms: u64,
    /// Partition end (ms).
    pub end_ms: u64,
    /// `true` drops cross traffic; `false` holds it until resolution.
    pub drop: bool,
}

impl PartitionSpec {
    /// The spec as a JSON object.
    pub(crate) fn to_json(self) -> Json {
        Json::obj([
            ("start_ms", Json::from(self.start_ms)),
            ("end_ms", Json::from(self.end_ms)),
            ("drop", Json::from(self.drop)),
        ])
    }

    /// Parses the format produced by [`PartitionSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed per [`bft_sim_core::json`]'s artifact parsing policy, or a
    /// window [`PartitionAttack::check_window`] rejects.
    pub(crate) fn from_json(json: &Json) -> Result<PartitionSpec, String> {
        let mut f = Fields::of(json, "partition")?;
        let spec = PartitionSpec {
            start_ms: f.req("start_ms", json::int)?,
            end_ms: f.req("end_ms", json::int)?,
            drop: f.req("drop", json::boolean)?,
        };
        f.finish()?;
        PartitionAttack::check_window(spec.start_ms, spec.end_ms)?;
        Ok(spec)
    }
}

/// The paper's attacks besides the partition (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSpec {
    /// Fail-stop the last `k` nodes at start (Fig. 7).
    FailStopLast {
        /// Nodes crashed.
        k: usize,
    },
    /// Fail-stop the first `k` round-robin leaders (Fig. 8, left).
    AddStatic {
        /// Leaders crashed.
        k: usize,
    },
    /// Rushing adaptive leader corruption (Fig. 8, right).
    AddAdaptive,
}

impl AttackSpec {
    /// # Errors
    ///
    /// `k` exceeds `protocol`'s fault budget at `n`: the engine would stop
    /// there, having crashed the wrong nodes.
    pub fn check_budget(self, protocol: ProtocolKind, n: usize) -> Result<(), String> {
        let f = protocol.default_f(n);
        match self {
            AttackSpec::FailStopLast { k } | AttackSpec::AddStatic { k } if k > f => Err(format!(
                "an attack on {k} nodes exceeds {protocol}'s fault budget f = {f} at n = {n}"
            )),
            _ => Ok(()),
        }
    }

    fn build(self, n: usize) -> Box<dyn Adversary> {
        match self {
            AttackSpec::FailStopLast { k } => Box::new(FailStop::last_k(n, k)),
            AttackSpec::AddStatic { k } => Box::new(AddStaticAttack::new(k)),
            AttackSpec::AddAdaptive => Box::new(AddAdaptiveRushingAttack::new()),
        }
    }

    /// Externally tagged JSON, like [`DelaySpec`]'s.
    pub(crate) fn to_json(self) -> Json {
        let with_k =
            |tag: &'static str, k: usize| Json::obj([(tag, Json::obj([("k", Json::from(k))]))]);
        match self {
            AttackSpec::FailStopLast { k } => with_k("FailStopLast", k),
            AttackSpec::AddStatic { k } => with_k("AddStatic", k),
            AttackSpec::AddAdaptive => Json::from("AddAdaptive"),
        }
    }

    /// Parses the format produced by [`AttackSpec::to_json`].
    pub(crate) fn from_json(json: &Json) -> Result<AttackSpec, String> {
        let with_k = |mut f: Fields<'_>| -> Result<usize, String> {
            let k = f.req("k", json::int)?;
            f.finish()?;
            Ok(k)
        };
        match json::variant(json, "attack")? {
            ("FailStopLast", Some(f)) => Ok(AttackSpec::FailStopLast { k: with_k(f)? }),
            ("AddStatic", Some(f)) => Ok(AttackSpec::AddStatic { k: with_k(f)? }),
            ("AddAdaptive", None) => Ok(AttackSpec::AddAdaptive),
            (tag, _) => Err(format!("attack: unknown variant \"{tag}\"")),
        }
    }
}

/// The topology shape of a scenario's link-level network block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Every ordered pair connected; latency is the scenario's delay
    /// distribution on every link.
    FullMesh,
    /// Fully connected ring embedding: per-link latency grows with ring
    /// distance (the delay mean per hop).
    Ring,
    /// Partially connected ring: long-range links are pruned by the
    /// topology seed; immediate neighbours always stay connected.
    RingGradient,
    /// Two fast LAN clusters joined by slower WAN links; the bandwidth cap
    /// applies to the WAN links only.
    Clustered,
}

impl TopologyKind {
    /// The spec-facing name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TopologyKind::FullMesh => "full_mesh",
            TopologyKind::Ring => "ring",
            TopologyKind::RingGradient => "ring_gradient",
            TopologyKind::Clustered => "clustered",
        }
    }

    /// Parses what `TopologyKind::name` prints.
    pub fn parse(name: &str) -> Option<TopologyKind> {
        match name {
            "full_mesh" => Some(TopologyKind::FullMesh),
            "ring" => Some(TopologyKind::Ring),
            "ring_gradient" => Some(TopologyKind::RingGradient),
            "clustered" => Some(TopologyKind::Clustered),
            _ => None,
        }
    }
}

/// A seeded node-churn schedule: `crashes` staggered down-windows drawn
/// from `seed`, each lasting `[min_down_ms, max_down_ms)`, spread over the
/// scenario's time cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Seed of the schedule's own RNG (independent of every other seed).
    pub seed: u64,
    /// Number of down-windows to draw.
    pub crashes: u64,
    /// Minimum down time (ms, inclusive).
    pub min_down_ms: u64,
    /// Maximum down time (ms, exclusive).
    pub max_down_ms: u64,
}

impl ChurnSpec {
    /// The spec as a JSON object.
    pub(crate) fn to_json(self) -> Json {
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("crashes", Json::from(self.crashes)),
            ("min_down_ms", Json::from(self.min_down_ms)),
            ("max_down_ms", Json::from(self.max_down_ms)),
        ])
    }

    /// Parses the format produced by [`ChurnSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed per [`bft_sim_core::json`]'s artifact parsing policy.
    pub(crate) fn from_json(json: &Json) -> Result<ChurnSpec, String> {
        let mut f = Fields::of(json, "churn")?;
        let spec = ChurnSpec {
            seed: f.req("seed", json::int)?,
            crashes: f.req("crashes", json::int)?,
            min_down_ms: f.req("min_down_ms", json::int)?,
            max_down_ms: f.req("max_down_ms", json::int)?,
        };
        f.finish()?;
        Ok(spec)
    }
}

/// Link-level network realism: topology shape, per-link bandwidth and node
/// churn. A spec without this block runs the legacy delay-only sampled
/// network; a `full_mesh` block with unlimited bandwidth and no churn is
/// bit-identical to that legacy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetSpec {
    /// The topology shape.
    pub topology: TopologyKind,
    /// Per-link capacity in bytes per second; `None` = unlimited.
    pub bandwidth: Option<u64>,
    /// Shape seed for [`TopologyKind::RingGradient`]; 0 (and omitted from
    /// JSON) for the deterministic shapes.
    pub topology_seed: u64,
    /// Optional node-churn schedule layered over the topology.
    pub churn: Option<ChurnSpec>,
}

impl NetSpec {
    /// The spec as a JSON object; unset options are omitted so the block
    /// stays minimal.
    pub(crate) fn to_json(self) -> Json {
        let mut pairs = vec![("topology".to_string(), Json::from(self.topology.name()))];
        if let Some(bw) = self.bandwidth {
            pairs.push(("bandwidth".to_string(), Json::from(bw)));
        }
        if self.topology_seed != 0 {
            pairs.push(("topology_seed".to_string(), Json::from(self.topology_seed)));
        }
        if let Some(churn) = self.churn {
            pairs.push(("churn".to_string(), churn.to_json()));
        }
        Json::Obj(pairs)
    }

    /// Parses the format produced by [`NetSpec::to_json`]: `"topology"` is
    /// required, the options `to_json` omits when unset may be absent.
    ///
    /// # Errors
    ///
    /// Malformed per [`bft_sim_core::json`]'s artifact parsing policy, or an
    /// unknown topology name.
    pub(crate) fn from_json(json: &Json) -> Result<NetSpec, String> {
        let mut f = Fields::of(json, "net")?;
        let spec = NetSpec {
            topology: f.req("topology", |v| {
                let name = json::string(v)?;
                TopologyKind::parse(&name).ok_or_else(|| format!("unknown topology \"{name}\""))
            })?,
            bandwidth: f.opt("bandwidth", json::int)?,
            topology_seed: f.opt_or("topology_seed", 0, json::int)?,
            churn: f.opt("churn", ChurnSpec::from_json)?,
        };
        f.finish()?;
        Ok(spec)
    }
}

/// One fully pinned fuzz scenario. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// Number of nodes.
    pub n: usize,
    /// The run seed (network sampling, protocol randomness).
    pub seed: u64,
    /// Genesis seed for proposal digests.
    pub genesis_seed: u64,
    /// The protocols' timeout parameter λ, in microseconds.
    pub lambda_micros: u64,
    /// Network delay distribution.
    pub delay: DelaySpec,
    /// Optional link-level network block (topology, bandwidth, churn);
    /// absent = the legacy delay-only network.
    pub net: Option<NetSpec>,
    /// Optional half/half partition window.
    pub partition: Option<PartitionSpec>,
    /// Optional fail-stop or ADD+ attack; the generator never draws one.
    pub attack: Option<AttackSpec>,
    /// Seed for the randomized adversary's own RNG (independent of `seed`).
    pub adversary_seed: u64,
    /// Adversary intensity in permille (0 = benign, 1000 = full budget).
    pub intensity_permille: u64,
    /// Hard cap on adversary actions; `0` disables the adversary.
    pub max_actions: u64,
    /// Decisions every correct node must reach.
    pub target_decisions: u64,
    /// Simulated-time cap in seconds.
    pub time_cap_secs: u64,
    /// Arms the feature-gated seeded safety bug (`testbug`).
    pub inject_bug: bool,
    /// Injection delay of the seeded bug's forged certificate, microseconds.
    /// Only meaningful with `inject_bug`; the default (1 ms) rushes the
    /// forgery in long before any honest quorum can form.
    pub bug_delay_micros: u64,
    /// Buggify fault-catalog intensity (see [`bft_sim_core::buggify`]).
    pub fault_preset: FaultPreset,
    /// Seed for the fault injector's own RNG (independent of `seed` and
    /// `adversary_seed`); irrelevant under [`FaultPreset::Calm`].
    pub fault_seed: u64,
}

/// How [`ScenarioSpec::run`] drives the adversary.
#[derive(Debug, Clone, Copy)]
pub enum RunMode<'a> {
    /// Roll fresh adversary actions and fault-catalog faults from the
    /// scenario's budget and preset, logging both.
    Generate,
    /// Re-apply exactly these previously logged adversary actions and fault
    /// actions.
    Scripted {
        /// The adversary actions to re-apply, by message index.
        actions: &'a [FuzzAction],
        /// The fault-catalog actions to re-apply, by site index.
        faults: &'a [FaultAction],
    },
    /// Replay a recorded delivery schedule; the adversary and the fault
    /// injector are bypassed (the recorded fates already embody wire faults).
    Replay(&'a DeliverySchedule),
}

/// A finished, oracle-checked run. It holds no delivery schedule:
/// [`ScenarioSpec::run_recorded`] returns one beside the run.
#[derive(Debug)]
pub struct CheckedRun {
    /// The engine's metrics and trace.
    pub result: RunResult,
    /// The adversary actions that were applied (empty in replay mode).
    pub actions: Vec<FuzzAction>,
    /// The fault-catalog actions that were applied (empty in replay mode and
    /// under [`FaultPreset::Calm`]).
    pub fault_actions: Vec<FaultAction>,
    /// Per-kind counters of the applied fault-catalog actions.
    pub fault_stats: FaultStats,
    /// Every oracle violation the suite found (empty = clean).
    pub violations: Vec<OracleViolation>,
}

/// A spec's simulation, built but not yet run, with what checking its run
/// needs.
struct Built {
    sim: Simulation,
    expect: Expectations,
    /// The adversary actions applied so far (none in replay mode).
    actions: Box<dyn Fn() -> Vec<FuzzAction>>,
    fault_log: Option<FaultLog>,
}

impl CheckedRun {
    /// Whether the named oracle fired on this run.
    pub(crate) fn violates(&self, oracle: &str) -> bool {
        self.violations.iter().any(|v| v.oracle == oracle)
    }
}

/// The scales the generator draws from, weighted toward small (fast) runs.
const SCALES: [usize; 6] = [4, 4, 7, 7, 10, 16];

impl ScenarioSpec {
    /// A quiet single-run scenario: constant 100 ms delays, no partition, no
    /// adversary. The starting point for hand-built specs and `from_json`.
    pub fn baseline(protocol: ProtocolKind) -> ScenarioSpec {
        ScenarioSpec {
            protocol,
            n: 4,
            seed: 0,
            genesis_seed: 7,
            lambda_micros: 1_000_000,
            delay: DelaySpec::Constant { micros: 100_000 },
            net: None,
            partition: None,
            attack: None,
            adversary_seed: 0,
            intensity_permille: 0,
            max_actions: 0,
            target_decisions: protocol.measured_decisions(),
            time_cap_secs: 900,
            inject_bug: false,
            bug_delay_micros: 1_000,
            fault_preset: FaultPreset::Calm,
            fault_seed: 0,
        }
    }

    /// Draws a scenario from `scenario_seed`: protocol from `protocols`,
    /// scale from {4, 7, 10, 16} (small-biased), one of three delay
    /// distributions bounded well under λ = 1 s, ~30% fully benign runs,
    /// ~25% of the rest partitioned. `inject_bug` forces PBFT (the seeded
    /// bug forges PBFT commit certificates). `fault_preset` selects the
    /// buggify catalog intensity; benign draws stay [`FaultPreset::Calm`]
    /// (a benign run with injected faults would not be benign). The fault
    /// seed is drawn last, so every earlier field is unchanged from what the
    /// same `scenario_seed` drew before the catalog existed.
    pub fn generate(
        scenario_seed: u64,
        protocols: &[ProtocolKind],
        intensity_permille: u64,
        max_actions: u64,
        inject_bug: bool,
        fault_preset: FaultPreset,
    ) -> ScenarioSpec {
        assert!(
            !protocols.is_empty(),
            "generate needs at least one protocol"
        );
        let mut rng = SmallRng::seed_from_u64(scenario_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let protocol = if inject_bug {
            ProtocolKind::Pbft
        } else {
            protocols[rng.gen_range(0..protocols.len() as u64) as usize]
        };
        let n = SCALES[rng.gen_range(0..SCALES.len() as u64) as usize];
        let seed = rng.gen_range(0..u64::MAX);
        let adversary_seed = rng.gen_range(0..u64::MAX);
        let genesis_seed = rng.gen_range(1..u64::MAX);
        let delay = match rng.gen_range(0..3u64) {
            0 => DelaySpec::Constant { micros: 100_000 },
            1 => DelaySpec::Uniform {
                lo_micros: 50_000,
                hi_micros: 300_000,
            },
            _ => DelaySpec::Normal {
                mean_micros: 250_000,
                std_micros: 50_000,
            },
        };
        let benign = rng.gen_bool(0.3) && !inject_bug;
        let partitioned = rng.gen_bool(0.25) && !benign;
        let partition = partitioned.then(|| {
            let start_ms = rng.gen_range(0..2_000u64);
            let dur_ms = rng.gen_range(1_000..8_000u64);
            PartitionSpec {
                start_ms,
                end_ms: start_ms + dur_ms,
                drop: rng.gen_bool(0.5),
            }
        });
        let fault_seed = rng.gen_range(0..u64::MAX);
        let fault_preset = if benign {
            FaultPreset::Calm
        } else {
            fault_preset
        };
        // The link-level network block is drawn after every legacy field, so
        // a given scenario_seed draws the same protocol/scale/seeds/delay it
        // always has. Benign draws stay on the legacy delay-only network (a
        // pruned topology or churn window could legitimately stall liveness);
        // bug-injection runs do too, so the forged certificate always lands.
        let with_net = rng.gen_bool(0.25) && !benign && !inject_bug;
        let net = with_net.then(|| {
            let topology = match rng.gen_range(0..4u64) {
                0 => TopologyKind::FullMesh,
                1 => TopologyKind::Ring,
                2 => TopologyKind::RingGradient,
                _ => TopologyKind::Clustered,
            };
            let bandwidth = rng
                .gen_bool(0.5)
                .then(|| rng.gen_range(10_000..1_000_000u64));
            let topology_seed = if topology == TopologyKind::RingGradient {
                rng.gen_range(1..u64::MAX)
            } else {
                0
            };
            let churn = rng.gen_bool(0.3).then(|| ChurnSpec {
                seed: rng.gen_range(0..u64::MAX),
                crashes: rng.gen_range(1..4u64),
                min_down_ms: 500,
                max_down_ms: 4_000,
            });
            NetSpec {
                topology,
                bandwidth,
                topology_seed,
                churn,
            }
        });
        ScenarioSpec {
            protocol,
            n,
            seed,
            genesis_seed,
            lambda_micros: 1_000_000,
            delay,
            net,
            partition,
            attack: None,
            adversary_seed,
            intensity_permille,
            max_actions: if benign { 0 } else { max_actions },
            target_decisions: protocol.measured_decisions(),
            time_cap_secs: 900,
            inject_bug,
            bug_delay_micros: 1_000,
            fault_preset,
            // A calm spec never builds an injector, and its JSON form omits
            // the faults block entirely — zero the seed so the omission
            // round-trips exactly.
            fault_seed: if fault_preset == FaultPreset::Calm {
                0
            } else {
                fault_seed
            },
        }
    }

    /// Whether a [`RunMode::Generate`] run of this spec stays entirely
    /// inside the protocol's fault and network model, so the termination
    /// oracle is owed a decision.
    pub(crate) fn is_benign(&self) -> bool {
        self.net.is_none()
            && self.partition.is_none()
            && self.attack.is_none()
            && self.max_actions == 0
            && !self.inject_bug
            && self.fault_preset == FaultPreset::Calm
    }

    /// Whether the *only* thing taking a [`RunMode::Generate`] run of this
    /// spec outside the protocol's model is scheduled churn on an otherwise
    /// unrestricted network: full-mesh topology, no bandwidth cap, no
    /// partition, no adversary budget, no seeded bug, calm faults. Such runs
    /// still owe termination, but with per-node decision debt suspended
    /// across the scheduled down-windows (the termination oracle's
    /// churn-aware reading). Restricted topologies and bandwidth caps stay
    /// exempt — multi-hop latency and queueing can stall progress without
    /// any protocol bug.
    pub(crate) fn churn_only(&self) -> bool {
        let unrestricted = |net: NetSpec| {
            net.churn.is_some() && net.topology == TopologyKind::FullMesh && net.bandwidth.is_none()
        };
        self.net.is_some_and(unrestricted)
            && ScenarioSpec {
                net: None,
                ..self.clone()
            }
            .is_benign()
    }

    /// The scheduled churn windows of this spec as oracle-facing
    /// [`OutageWindow`]s (empty without a churn block). Rebuilt
    /// deterministically from the same seed and horizon the network stack
    /// uses, so the oracle sees exactly the schedule the run executed.
    ///
    /// # Errors
    ///
    /// Returns a message when the churn block is degenerate (same conditions
    /// as [`ChurnPlan::staggered`]).
    pub(crate) fn outage_windows(&self) -> Result<Vec<OutageWindow>, String> {
        let Some(c) = self.net.and_then(|n| n.churn) else {
            return Ok(Vec::new());
        };
        let plan = ChurnPlan::staggered(
            self.n,
            c.seed,
            c.crashes as usize,
            c.min_down_ms,
            c.max_down_ms,
            self.time_cap_secs.saturating_mul(1_000),
        )
        .map_err(|e| format!("scenario churn: {e}"))?;
        Ok(plan
            .windows()
            .iter()
            .map(|w| OutageWindow {
                node: w.node,
                start: w.start,
                end: w.end,
            })
            .collect())
    }

    fn config(&self) -> RunConfig {
        self.protocol
            .configure(
                RunConfig::new(self.n)
                    .with_seed(self.seed)
                    .with_lambda_ms(self.lambda_micros as f64 / 1000.0)
                    .with_time_cap(SimDuration::from_secs(self.time_cap_secs as f64)),
            )
            .with_target_decisions(self.target_decisions)
    }

    /// The engine-facing network stack: the legacy delay-only sampled
    /// network when no [`NetSpec`] block is present, otherwise a
    /// bandwidth/topology stack with optional churn layered on top. Ring
    /// shapes use the delay mean as the per-hop latency; the clustered shape
    /// uses the delay distribution on LAN links and 4× the mean (with the
    /// bandwidth cap) on WAN links.
    ///
    /// # Errors
    ///
    /// Returns a message when the block describes a degenerate topology or
    /// churn schedule ([`bft_sim_core::error::SimError::InvalidConfig`]).
    fn network(&self) -> Result<Box<dyn NetworkModel>, String> {
        let Some(net) = self.net else {
            return Ok(Box::new(SampledNetwork::new(self.delay.to_dist())));
        };
        let hop_ms = self.delay.mean_micros() as f64 / 1000.0;
        let topo = match net.topology {
            TopologyKind::FullMesh => {
                LinkTopology::full_mesh(self.n, self.delay.to_dist(), net.bandwidth)
            }
            TopologyKind::Ring => LinkTopology::ring(self.n, hop_ms, net.bandwidth),
            TopologyKind::RingGradient => {
                LinkTopology::ring_gradient(self.n, hop_ms, net.bandwidth, net.topology_seed)
            }
            TopologyKind::Clustered => LinkTopology::clustered(
                self.n,
                self.delay.to_dist(),
                None,
                Dist::constant(hop_ms * 4.0),
                net.bandwidth,
            ),
        }
        .map_err(|e| format!("scenario net: {e}"))?;
        let base = BandwidthNetwork::new(topo);
        match net.churn {
            None => Ok(Box::new(base)),
            Some(c) => {
                let plan = ChurnPlan::staggered(
                    self.n,
                    c.seed,
                    c.crashes as usize,
                    c.min_down_ms,
                    c.max_down_ms,
                    self.time_cap_secs.saturating_mul(1_000),
                )
                .map_err(|e| format!("scenario churn: {e}"))?;
                Ok(Box::new(ChurnedNetwork::new(base, plan)))
            }
        }
    }

    #[cfg(feature = "testbug")]
    fn extra_adversary(&self) -> Result<Option<Box<dyn Adversary>>, String> {
        Ok(self.inject_bug.then(|| {
            Box::new(crate::testbug::QuorumForgeAdversary::with_delay_micros(
                self.bug_delay_micros,
            )) as Box<dyn Adversary>
        }))
    }

    #[cfg(not(feature = "testbug"))]
    fn extra_adversary(&self) -> Result<Option<Box<dyn Adversary>>, String> {
        if self.inject_bug {
            return Err(
                "scenario arms the seeded bug: rebuild with --features testbug to run it".into(),
            );
        }
        Ok(None)
    }

    /// Runs the scenario in `mode` and checks it against the standard oracle
    /// suite. Same spec + same mode ⇒ bit-identical [`CheckedRun`].
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration is rejected by the engine or
    /// the spec needs the `testbug` feature and it is not compiled in.
    pub fn run(&self, mode: RunMode<'_>) -> Result<CheckedRun, String> {
        self.execute(mode, false, TraceLevel::Decisions, false)
            .map(|(run, _)| run)
    }

    /// [`run`](ScenarioSpec::run), and the delivery schedule the run applied:
    /// one fate per honest transmission, in send order, which
    /// [`RunMode::Replay`] reproduces the run from (a replay records the
    /// fates it applied, the λ-delay deliveries past a short schedule's end
    /// included). The recorder changes nothing else, so the [`CheckedRun`]
    /// is the one `run` returns. The shrinker is its only caller outside
    /// tests: no other run pays 16 bytes per transmission for a schedule.
    ///
    /// # Errors
    ///
    /// Same as [`run`](ScenarioSpec::run).
    pub fn run_recorded(
        &self,
        mode: RunMode<'_>,
    ) -> Result<(CheckedRun, DeliverySchedule), String> {
        self.execute(mode, false, TraceLevel::Decisions, true)
    }

    /// [`run`](ScenarioSpec::run). Single backend; kept for benchmark/'s
    /// tracer, remove with its replay follow-up (ROADMAP item 1).
    ///
    /// # Errors
    ///
    /// Same as [`run`](ScenarioSpec::run).
    pub fn run_with(
        &self,
        mode: RunMode<'_>,
        _scheduler: SchedulerKind,
    ) -> Result<CheckedRun, String> {
        self.run(mode)
    }

    /// [`run`](ScenarioSpec::run) with observability on, labelled with the
    /// protocol's own phases, and the trace kept at `trace`. Both are
    /// *execution* options, not part of the scenario: everything they record
    /// derives from simulated quantities, so the run itself is bit-identical
    /// with them on or off.
    ///
    /// # Errors
    ///
    /// Same as [`run`](ScenarioSpec::run).
    pub fn run_observed(&self, mode: RunMode<'_>, trace: TraceLevel) -> Result<CheckedRun, String> {
        self.execute(mode, true, trace, false).map(|(run, _)| run)
    }

    /// The last [`DEFAULT_LAST_K`] events of this spec's
    /// [`RunMode::Generate`] run with observability on, oldest first. No run
    /// keeps them: the spec is run again with every event traced and the
    /// tail of that trace is taken, up to the panic when the run panics.
    pub(crate) fn last_events(&self) -> Vec<TraceEvent> {
        let built = self
            .build(RunMode::Generate, true, TraceLevel::Messages)
            .expect("a spec that ran once builds again");
        let trace = match built.sim.run_caught() {
            Ok(result) => result.trace,
            Err(trace) => trace,
        };
        let skip = trace.len().saturating_sub(DEFAULT_LAST_K);
        trace.events().skip(skip).collect()
    }

    /// The checked run, and its delivery schedule when `record` (else an
    /// empty one: nothing is recorded).
    fn execute(
        &self,
        mode: RunMode<'_>,
        observed: bool,
        trace: TraceLevel,
        record: bool,
    ) -> Result<(CheckedRun, DeliverySchedule), String> {
        let Built {
            sim,
            expect,
            actions,
            fault_log,
        } = self.build(mode, observed, trace)?;
        let (result, schedule) = if record {
            sim.run_recorded()
        } else {
            (sim.run(), DeliverySchedule::default())
        };
        let actions = actions();
        let violations =
            OracleSuite::standard().check(&OracleInput::from_result(&result, None, expect));
        let (fault_actions, fault_stats) = match fault_log {
            Some(log) => (log.snapshot(), log.stats()),
            None => (Vec::new(), FaultStats::default()),
        };
        let run = CheckedRun {
            result,
            actions,
            fault_actions,
            fault_stats,
            violations,
        };
        Ok((run, schedule))
    }

    /// The [`RunMode::Generate`] run, unchecked: no oracle suite. Same
    /// [`RunResult`] as [`run`](ScenarioSpec::run).
    ///
    /// # Errors
    ///
    /// Same as [`run`](ScenarioSpec::run).
    pub fn simulate(&self, trace: TraceLevel) -> Result<RunResult, String> {
        Ok(self.build(RunMode::Generate, false, trace)?.sim.run())
    }

    /// The engine run of this spec in `mode`, built but not yet run.
    fn build(&self, mode: RunMode<'_>, observed: bool, trace: TraceLevel) -> Result<Built, String> {
        let kind = self.protocol;
        let cfg = self.config().with_trace(trace);
        let benign = match mode {
            RunMode::Generate => self.is_benign(),
            // A script replaces the budget and the preset.
            RunMode::Scripted { actions, faults } => {
                let unscripted = ScenarioSpec {
                    max_actions: 0,
                    fault_preset: FaultPreset::Calm,
                    ..self.clone()
                };
                actions.is_empty() && faults.is_empty() && unscripted.is_benign()
            }
            // A replayed schedule may embody drops; liveness is never owed.
            RunMode::Replay(_) => false,
        };
        // Churn-only specs owe termination too, with decision debt suspended
        // across the scheduled down-windows.
        let churn_owed = match mode {
            RunMode::Generate => self.churn_only(),
            RunMode::Scripted { actions, faults } => {
                actions.is_empty() && faults.is_empty() && self.churn_only()
            }
            RunMode::Replay(_) => false,
        };
        let mut expect = kind.expectations(&cfg, benign || churn_owed);
        if churn_owed {
            expect.outages = self.outage_windows()?;
        }
        let factory = kind.factory(&cfg, self.genesis_seed);
        let network = self.network()?;
        let mut builder = SimulationBuilder::new(cfg)
            .network(network)
            .protocols(factory);
        if observed {
            builder = builder
                .observability(ObsConfig::default().with_classifier(kind.phase_classifier()));
        }

        let (sim, actions, fault_log) = match mode {
            RunMode::Replay(schedule) => {
                let mut replay = schedule.clone();
                replay.rewind();
                let sim = builder
                    .replay_schedule(replay)
                    .build()
                    .map_err(|e| format!("replay build failed: {e}"))?;
                (sim, Box::new(Vec::new) as Box<_>, None)
            }
            RunMode::Generate | RunMode::Scripted { .. } => {
                let fuzz = match mode {
                    RunMode::Generate => RandomizedAdversary::generate(
                        self.adversary_seed,
                        FuzzBudget::with_intensity(
                            self.intensity_permille as f64 / 1000.0,
                            self.max_actions,
                        ),
                    ),
                    RunMode::Scripted { actions, .. } => RandomizedAdversary::scripted(actions),
                    RunMode::Replay(_) => unreachable!("handled above"),
                };
                let injector = match mode {
                    RunMode::Generate => (self.fault_preset != FaultPreset::Calm).then(|| {
                        FaultInjector::generate(self.fault_seed, self.fault_preset.config(), self.n)
                    }),
                    RunMode::Scripted { faults, .. } => {
                        (!faults.is_empty()).then(|| FaultInjector::scripted(faults))
                    }
                    RunMode::Replay(_) => unreachable!("handled above"),
                };
                let log = fuzz.log_handle();
                let fault_log: Option<FaultLog> = injector.as_ref().map(FaultInjector::log_handle);
                let partition = self.partition.map(|p| {
                    let attack = PartitionAttack::halves(self.n, p.start_ms, p.end_ms, p.drop)?;
                    Ok::<_, String>(Box::new(attack) as Box<dyn Adversary>)
                });
                let layers = partition.transpose()?.into_iter();
                builder = builder.adversary(Stack {
                    layers: layers.chain(self.attack.map(|a| a.build(self.n))).collect(),
                    fuzz,
                    extra: self.extra_adversary()?,
                });
                if let Some(injector) = injector {
                    builder = builder.faults(injector);
                }
                let sim = builder.build().map_err(|e| format!("build failed: {e}"))?;
                (sim, Box::new(move || log.snapshot()) as Box<_>, fault_log)
            }
        };
        Ok(Built {
            sim,
            expect,
            actions,
            fault_log,
        })
    }

    /// The spec as a JSON object (the reproducer's `"scenario"` field).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("protocol".to_string(), Json::from(self.protocol.name())),
            ("n".to_string(), Json::from(self.n)),
            ("seed".to_string(), Json::from(self.seed)),
            ("genesis_seed".to_string(), Json::from(self.genesis_seed)),
            ("lambda_micros".to_string(), Json::from(self.lambda_micros)),
            ("delay".to_string(), self.delay.to_json()),
        ];
        // Like the faults block, the net block is omitted when absent, so
        // legacy specs serialise byte-identically to the old format.
        if let Some(net) = self.net {
            pairs.push(("net".to_string(), net.to_json()));
        }
        if let Some(p) = self.partition {
            pairs.push(("partition".to_string(), p.to_json()));
        }
        if let Some(a) = self.attack {
            pairs.push(("attack".to_string(), a.to_json()));
        }
        pairs.extend([
            (
                "adversary_seed".to_string(),
                Json::from(self.adversary_seed),
            ),
            (
                "intensity_permille".to_string(),
                Json::from(self.intensity_permille),
            ),
            ("max_actions".to_string(), Json::from(self.max_actions)),
            (
                "target_decisions".to_string(),
                Json::from(self.target_decisions),
            ),
            ("time_cap_secs".to_string(), Json::from(self.time_cap_secs)),
            ("inject_bug".to_string(), Json::from(self.inject_bug)),
        ]);
        if self.bug_delay_micros != 1_000 {
            pairs.push((
                "bug_delay_micros".to_string(),
                Json::from(self.bug_delay_micros),
            ));
        }
        // The faults block is omitted for calm specs, so pre-catalog repro
        // files and calm specs serialise byte-identically to the old format.
        if self.fault_preset != FaultPreset::Calm {
            pairs.push((
                "faults".to_string(),
                Json::obj([
                    ("preset", Json::from(self.fault_preset.name())),
                    ("seed", Json::from(self.fault_seed)),
                ]),
            ));
        }
        Json::Obj(pairs)
    }

    /// Parses the format produced by [`ScenarioSpec::to_json`]. `"protocol"`
    /// is required; every other field may be absent and then keeps its
    /// [`ScenarioSpec::baseline`] value, so a hand-written scenario file
    /// states only what it changes.
    ///
    /// # Errors
    ///
    /// Malformed per [`bft_sim_core::json`]'s artifact parsing policy, an
    /// unknown protocol or fault preset, an `n` that [`check_node_count`]
    /// rejects, a zero `lambda_micros`, or an attack beyond the fault budget
    /// ([`AttackSpec::check_budget`]).
    pub fn from_json(json: &Json) -> Result<ScenarioSpec, String> {
        let mut f = Fields::of(json, "scenario")?;
        let protocol = f.req("protocol", |v| {
            let name = json::string(v)?;
            ProtocolKind::parse(&name).ok_or_else(|| format!("unknown protocol \"{name}\""))
        })?;
        let base = ScenarioSpec::baseline(protocol);
        let mut faults = f.sub("faults")?;
        let spec = ScenarioSpec {
            protocol,
            n: f.opt_or("n", base.n, |v| json::int(v).and_then(check_node_count))?,
            seed: f.opt_or("seed", base.seed, json::int)?,
            genesis_seed: f.opt_or("genesis_seed", base.genesis_seed, json::int)?,
            lambda_micros: f.opt_or("lambda_micros", base.lambda_micros, |v| {
                match json::int(v)? {
                    0 => Err("must be positive".to_string()),
                    lambda => Ok(lambda),
                }
            })?,
            delay: f.opt_or("delay", base.delay, DelaySpec::from_json)?,
            net: f.opt("net", NetSpec::from_json)?,
            partition: f.opt("partition", PartitionSpec::from_json)?,
            attack: f.opt("attack", AttackSpec::from_json)?,
            adversary_seed: f.opt_or("adversary_seed", base.adversary_seed, json::int)?,
            intensity_permille: f.opt_or(
                "intensity_permille",
                base.intensity_permille,
                json::int,
            )?,
            max_actions: f.opt_or("max_actions", base.max_actions, json::int)?,
            target_decisions: f.opt_or("target_decisions", base.target_decisions, json::int)?,
            time_cap_secs: f.opt_or("time_cap_secs", base.time_cap_secs, json::int)?,
            inject_bug: f.opt_or("inject_bug", base.inject_bug, json::boolean)?,
            bug_delay_micros: f.opt_or("bug_delay_micros", base.bug_delay_micros, json::int)?,
            fault_preset: faults.opt_or("preset", base.fault_preset, |v| {
                FaultPreset::parse(&json::string(v)?)
            })?,
            fault_seed: faults.opt_or("seed", base.fault_seed, json::int)?,
        };
        faults.finish()?;
        f.finish()?;
        if let Some(attack) = spec.attack {
            attack.check_budget(protocol, spec.n)?;
        }
        Ok(spec)
    }
}

/// The node counts a scenario may have: n = 3f + 1 needs f ≥ 1 (with f = 0 a
/// node's own vote is a quorum, a slot completes inside the handler that
/// proposed it and the protocols recurse without bound), and node ids are
/// 32-bit. The one statement of the rule: CLI flags, scenario files and
/// campaign manifests all come through here, and get `n` back.
///
/// # Errors
///
/// `n` is below 4 or above `u32::MAX`.
pub fn check_node_count(n: usize) -> Result<usize, String> {
    if n < 4 {
        Err(format!("{n} nodes is below the minimum of 4 (n = 3f + 1)"))
    } else if n > u32::MAX as usize {
        Err(format!("{n} nodes is above the maximum of {}", u32::MAX))
    } else {
        Ok(n)
    }
}

/// The composed scenario adversary: the partition rules, then the paper's
/// attack (a message one layer drops never reaches the next, mirroring a
/// real network split), then the randomized fuzzer, with an optional extra
/// adversary (the seeded bug) riding along for init/timers.
struct Stack {
    layers: Vec<Box<dyn Adversary>>,
    fuzz: RandomizedAdversary,
    extra: Option<Box<dyn Adversary>>,
}

impl Adversary for Stack {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        for adv in self.layers.iter_mut().chain(&mut self.extra) {
            adv.init(api);
        }
    }

    fn attack(
        &mut self,
        msg: &mut Message,
        mut proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        for layer in &mut self.layers {
            match layer.attack(msg, proposed, api) {
                Fate::Drop => return Fate::Drop,
                Fate::Deliver(d) => proposed = d,
            }
        }
        self.fuzz.attack(msg, proposed, api)
    }

    fn on_timer(&mut self, tag: u64, api: &mut AdversaryApi<'_>) {
        for adv in self.layers.iter_mut().chain(&mut self.extra) {
            adv.on_timer(tag, api);
        }
    }

    fn name(&self) -> &'static str {
        "simcheck"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-mesh block with the given bandwidth cap and no churn.
    fn full_mesh(bandwidth: Option<u64>) -> NetSpec {
        NetSpec {
            topology: TopologyKind::FullMesh,
            bandwidth,
            topology_seed: 0,
            churn: None,
        }
    }

    #[test]
    fn baseline_pbft_run_is_clean() {
        let spec = ScenarioSpec::baseline(ProtocolKind::Pbft);
        assert!(spec.is_benign());
        let (run, schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.actions.is_empty());
        assert!(!schedule.is_empty());
        assert!(run.result.is_clean());
    }

    #[test]
    fn churn_only_runs_owe_no_false_termination_violations() {
        // Full-mesh + churn with a tight time cap: down-windows land right
        // on top of the decision rounds, so a down node misses slots, global
        // completions stall and the run times out — exactly the shape that
        // used to produce false liveness violations. The churn-aware oracle
        // must excuse every such stall while still checking safety.
        let mut stalled = 0;
        for churn_seed in 0..12u64 {
            let spec = ScenarioSpec {
                n: 4,
                time_cap_secs: 10,
                net: Some(NetSpec {
                    topology: TopologyKind::FullMesh,
                    bandwidth: None,
                    topology_seed: 0,
                    churn: Some(ChurnSpec {
                        seed: churn_seed,
                        crashes: 3,
                        min_down_ms: 2_000,
                        max_down_ms: 4_000,
                    }),
                }),
                ..ScenarioSpec::baseline(ProtocolKind::Pbft)
            };
            assert!(spec.churn_only());
            assert!(!spec.is_benign(), "churn-only is not benign");
            let run = spec.run(RunMode::Generate).unwrap();
            assert!(
                run.violations.is_empty(),
                "churn seed {churn_seed}: {:?}",
                run.violations
            );
            if run.result.timed_out || run.result.decisions_completed() < spec.target_decisions {
                stalled += 1;
            }
        }
        assert!(
            stalled > 0,
            "no churn schedule clipped a decision round; the regression shape was never exercised"
        );

        // A bandwidth cap (or non-mesh topology) leaves the old exemption in
        // place: termination is simply not owed, churn or not.
        let capped = ScenarioSpec {
            net: Some(NetSpec {
                topology: TopologyKind::FullMesh,
                bandwidth: Some(64_000),
                topology_seed: 0,
                churn: Some(ChurnSpec {
                    seed: 1,
                    crashes: 1,
                    min_down_ms: 500,
                    max_down_ms: 4_000,
                }),
            }),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        assert!(!capped.churn_only());
    }

    #[test]
    fn generation_is_deterministic_and_varied() {
        let kinds = ProtocolKind::extended();
        let a = ScenarioSpec::generate(42, &kinds, 500, 48, false, FaultPreset::Calm);
        let b = ScenarioSpec::generate(42, &kinds, 500, 48, false, FaultPreset::Calm);
        assert_eq!(a, b, "same seed must draw the same scenario");

        let scales: std::collections::HashSet<usize> = (0..64)
            .map(|s| ScenarioSpec::generate(s, &kinds, 500, 48, false, FaultPreset::Calm).n)
            .collect();
        assert!(scales.len() > 1, "64 seeds must cover several scales");
        let benign = (0..64)
            .filter(|&s| {
                ScenarioSpec::generate(s, &kinds, 500, 48, false, FaultPreset::Calm).is_benign()
            })
            .count();
        assert!((5..60).contains(&benign), "benign mix off: {benign}/64");
    }

    #[test]
    fn runs_are_reproducible() {
        let kinds = [ProtocolKind::Pbft, ProtocolKind::HotStuffNs];
        let spec = ScenarioSpec::generate(7, &kinds, 500, 48, false, FaultPreset::Calm);
        let (a, a_schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        let (b, b_schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a_schedule, b_schedule);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn scripted_replay_matches_the_generated_run() {
        let spec = ScenarioSpec {
            intensity_permille: 500,
            max_actions: 32,
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let generated = spec.run(RunMode::Generate).unwrap();
        assert!(!generated.actions.is_empty(), "budget must act on PBFT");
        let scripted = spec
            .run(RunMode::Scripted {
                actions: &generated.actions,
                faults: &[],
            })
            .unwrap();
        assert_eq!(scripted.result, generated.result);
        assert_eq!(scripted.actions, generated.actions);
    }

    #[test]
    fn schedule_replay_reproduces_decisions() {
        let spec = ScenarioSpec {
            delay: DelaySpec::Normal {
                mean_micros: 250_000,
                std_micros: 50_000,
            },
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let (original, schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        let replayed = spec.run(RunMode::Replay(&schedule)).unwrap();
        assert!(replayed.violations.is_empty(), "{:?}", replayed.violations);
        assert_eq!(replayed.result.decided, original.result.decided);
    }

    #[test]
    fn observability_does_not_perturb_the_run() {
        let spec = ScenarioSpec::generate(
            9,
            &ProtocolKind::extended(),
            500,
            48,
            false,
            FaultPreset::Calm,
        );
        let (plain, plain_schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        let (observed, observed_schedule) = spec
            .execute(RunMode::Generate, true, TraceLevel::Decisions, true)
            .unwrap();
        let mut stripped = observed.result.clone();
        stripped.observability = None;
        assert_eq!(stripped, plain.result, "instrumentation changed the run");
        assert_eq!(observed_schedule, plain_schedule);
        assert_eq!(observed.actions, plain.actions);
        assert_eq!(observed.violations, plain.violations);

        let obs = observed.result.observability.unwrap();
        assert_eq!(
            obs.phase_total(bft_sim_core::obs::UNCLASSIFIED_PHASE),
            0,
            "the scenario's classifier must label its own protocol's traffic"
        );

        // The rebuilt last events are the tail of the run's full trace.
        let traced = spec
            .run_observed(RunMode::Generate, TraceLevel::Messages)
            .unwrap();
        let trace = &traced.result.trace;
        assert!(trace.len() > DEFAULT_LAST_K);
        let tail: Vec<TraceEvent> = trace.events().skip(trace.len() - DEFAULT_LAST_K).collect();
        assert_eq!(spec.last_events(), tail);
    }

    #[test]
    fn large_n_runs_agree_across_sweep_threads() {
        // Determinism must survive the n = 256 regime, where the event queue
        // is three orders of magnitude deeper and the flow matrices switch
        // to the sparse representation.
        let spec = ScenarioSpec {
            n: 256,
            target_decisions: 2,
            delay: DelaySpec::Normal {
                mean_micros: 250_000,
                std_micros: 50_000,
            },
            ..ScenarioSpec::baseline(ProtocolKind::HotStuffNs)
        };
        let (serial, serial_schedule) = spec
            .execute(RunMode::Generate, true, TraceLevel::Decisions, true)
            .unwrap();
        let obs = serial.result.observability.as_ref().unwrap();
        assert!(
            obs.to_json(0, &[]).dump_pretty().contains("\"cells\""),
            "n = 256 flows must serialise in the sparse form"
        );
        // The thread axis composes with scale: sweeping the same large spec
        // in parallel yields runs bit-identical to the serial run (modulo
        // the instrumentation block the sweep runs don't enable).
        let mut plain = serial.result.clone();
        plain.observability = None;
        let swept =
            bft_sim_core::sweep::sweep(4, 4, |_| spec.run_recorded(RunMode::Generate).unwrap());
        for slot in swept {
            let (run, schedule) = slot.expect("no sweep panic");
            assert_eq!(plain, run.result);
            assert_eq!(serial_schedule, schedule);
        }
    }

    #[test]
    fn partitioned_pbft_stays_safe() {
        let spec = ScenarioSpec {
            partition: Some(PartitionSpec {
                start_ms: 0,
                end_ms: 5_000,
                drop: true,
            }),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        assert!(!spec.is_benign());
        let run = spec.run(RunMode::Generate).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let latency = run.result.latency().unwrap().as_secs_f64();
        assert!(latency >= 5.0, "decided during the partition: {latency}");
    }

    #[test]
    fn spec_json_round_trips() {
        let kinds = ProtocolKind::extended();
        for seed in 0..16 {
            let spec = ScenarioSpec::generate(seed, &kinds, 500, 48, false, FaultPreset::Calm);
            let text = spec.to_json().dump_pretty();
            let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "seed {seed}");
        }
    }

    #[test]
    fn spec_json_is_strict() {
        let err = ScenarioSpec::from_json(&Json::parse("{\"n\": 4}").unwrap()).unwrap_err();
        assert!(err.contains("missing \"protocol\""), "{err}");
        let err = ScenarioSpec::from_json(
            &Json::parse("{\"protocol\": \"pbft\", \"nodes\": 4}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown field \"nodes\""), "{err}");
        let err =
            ScenarioSpec::from_json(&Json::parse("{\"protocol\": \"raft\"}").unwrap()).unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }

    #[test]
    fn attack_json_round_trips_and_ends_the_liveness_debt() {
        for attack in [
            AttackSpec::FailStopLast { k: 1 },
            AttackSpec::AddStatic { k: 1 },
            AttackSpec::AddAdaptive,
        ] {
            let spec = ScenarioSpec {
                attack: Some(attack),
                ..ScenarioSpec::baseline(ProtocolKind::AddV1)
            };
            assert!(!spec.is_benign() && !spec.churn_only());
            let text = spec.to_json().dump_pretty();
            let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec, "{text}");
            let checked = spec.run(RunMode::Generate).unwrap();
            assert!(checked.violations.is_empty(), "{:?}", checked.violations);
            assert_eq!(
                checked.result,
                spec.simulate(TraceLevel::Decisions).unwrap()
            );
        }
        let legacy = ScenarioSpec::baseline(ProtocolKind::Pbft).to_json();
        assert!(!legacy.dump_pretty().contains("attack"));
        let err = ScenarioSpec::from_json(
            &Json::parse("{\"protocol\": \"pbft\", \"attack\": \"Meteor\"}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown variant \"Meteor\""), "{err}");
    }

    /// A baseline spec with the chaos catalog armed: no adversary budget, no
    /// partition — every perturbation comes from the fault injector.
    fn chaos_spec() -> ScenarioSpec {
        ScenarioSpec {
            fault_preset: FaultPreset::Chaos,
            fault_seed: 0xFA_17,
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let spec = chaos_spec();
        assert!(!spec.is_benign(), "an armed catalog ends the liveness debt");
        let first = spec.run(RunMode::Generate).unwrap();
        assert!(
            first.fault_stats.total() > 0,
            "chaos must fire on a full PBFT run: {:?}",
            first.fault_stats
        );
        assert_eq!(
            first.fault_stats.total() as usize,
            first.fault_actions.len()
        );
        assert!(first.violations.is_empty(), "{:?}", first.violations);
        let second = spec.run(RunMode::Generate).unwrap();
        assert_eq!(first.result, second.result);
        assert_eq!(first.fault_actions, second.fault_actions);
        assert_eq!(first.fault_stats, second.fault_stats);
        assert_eq!(first.violations, second.violations);
    }

    #[test]
    fn scripted_faults_reproduce_a_faulted_run() {
        let spec = chaos_spec();
        let (generated, generated_schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        assert!(!generated.fault_actions.is_empty());
        // Replaying the fault log verbatim (scripted mode ignores the
        // preset) must reproduce the run bit for bit — the property the
        // shrinker's fault ddmin rests on.
        let calm_replayer = ScenarioSpec {
            fault_preset: FaultPreset::Calm,
            fault_seed: 0,
            ..spec.clone()
        };
        let (scripted, scripted_schedule) = calm_replayer
            .run_recorded(RunMode::Scripted {
                actions: &[],
                faults: &generated.fault_actions,
            })
            .unwrap();
        assert_eq!(scripted.result, generated.result);
        assert_eq!(scripted_schedule, generated_schedule);
        assert_eq!(scripted.fault_stats, generated.fault_stats);
        // Scripted application can interleave kinds differently across
        // sites; compare as sets keyed by site + index.
        let key = |a: &bft_sim_core::buggify::FaultAction| (a.kind.site() as u8, a.index);
        let mut a = generated.fault_actions.clone();
        let mut b = scripted.fault_actions.clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn calm_preset_is_bit_identical_to_no_injector_and_never_fires() {
        let plain = ScenarioSpec::baseline(ProtocolKind::Pbft);
        let calm = ScenarioSpec {
            fault_preset: FaultPreset::Calm,
            fault_seed: 999, // must be irrelevant
            ..plain.clone()
        };
        let a = plain.run(RunMode::Generate).unwrap();
        let b = calm.run(RunMode::Generate).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(b.fault_stats.total(), 0);
        assert!(b.fault_actions.is_empty());
    }

    #[test]
    fn fault_block_json_round_trips_and_stays_out_of_calm_specs() {
        let chaos = chaos_spec();
        let text = chaos.to_json().dump_pretty();
        assert!(text.contains("\"faults\""), "{text}");
        assert!(text.contains("\"chaos\""), "{text}");
        let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, chaos);

        // Calm specs serialise byte-identically to the pre-catalog format,
        // and pre-catalog files (no faults block) parse unchanged.
        let calm = ScenarioSpec::baseline(ProtocolKind::Pbft);
        let calm_text = calm.to_json().dump_pretty();
        assert!(!calm_text.contains("faults"), "{calm_text}");
        let back = ScenarioSpec::from_json(&Json::parse(&calm_text).unwrap()).unwrap();
        assert_eq!(back.fault_preset, FaultPreset::Calm);
        assert_eq!(back.fault_seed, 0);

        let err = ScenarioSpec::from_json(
            &Json::parse(
                "{\"protocol\": \"pbft\", \"faults\": {\"preset\": \"chaos\", \"volume\": 9}}",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown field \"faults.volume\""), "{err}");
        let err = ScenarioSpec::from_json(
            &Json::parse("{\"protocol\": \"pbft\", \"faults\": {\"preset\": \"mayhem\"}}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown fault preset"), "{err}");
    }

    /// A net block with every option armed, for round-trip tests.
    fn rich_net() -> NetSpec {
        NetSpec {
            topology: TopologyKind::RingGradient,
            bandwidth: Some(64_000),
            topology_seed: 0xF00D,
            churn: Some(ChurnSpec {
                seed: 11,
                crashes: 2,
                min_down_ms: 500,
                max_down_ms: 4_000,
            }),
        }
    }

    #[test]
    fn net_block_json_round_trips_and_stays_out_of_legacy_specs() {
        let spec = ScenarioSpec {
            net: Some(rich_net()),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        assert!(!spec.is_benign(), "a net block ends the liveness debt");
        let text = spec.to_json().dump_pretty();
        assert!(text.contains("\"net\""), "{text}");
        assert!(text.contains("\"ring_gradient\""), "{text}");
        let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);

        // Minimal block: unset options are omitted.
        let minimal = ScenarioSpec {
            net: Some(full_mesh(None)),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let text = minimal.to_json().dump_pretty();
        assert!(!text.contains("bandwidth"), "{text}");
        assert!(!text.contains("topology_seed"), "{text}");
        assert!(!text.contains("churn"), "{text}");
        let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, minimal);

        // Legacy specs carry no net block at all.
        let legacy = ScenarioSpec::baseline(ProtocolKind::Pbft);
        assert!(!legacy.to_json().dump_pretty().contains("\"net\""));

        let err = ScenarioSpec::from_json(
            &Json::parse("{\"protocol\": \"pbft\", \"net\": {\"topology\": \"torus\"}}").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");
        let err = ScenarioSpec::from_json(
            &Json::parse(
                "{\"protocol\": \"pbft\", \"net\": {\"topology\": \"ring\", \"mtu\": 1500}}",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown field \"mtu\""), "{err}");
    }

    #[test]
    fn degenerate_net_blocks_are_rejected_at_run_time() {
        let spec = ScenarioSpec {
            net: Some(full_mesh(Some(0))),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let err = spec.run(RunMode::Generate).unwrap_err();
        assert!(err.contains("bandwidth must be positive"), "{err}");

        let spec = ScenarioSpec {
            net: Some(NetSpec {
                churn: Some(ChurnSpec {
                    seed: 1,
                    crashes: 1,
                    min_down_ms: 5_000,
                    max_down_ms: 5_000,
                }),
                ..full_mesh(None)
            }),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let err = spec.run(RunMode::Generate).unwrap_err();
        assert!(err.contains("down-time range is empty"), "{err}");
    }

    #[test]
    fn unlimited_full_mesh_matches_the_delay_only_network() {
        // The legacy-equivalence acceptance criterion: a full mesh with
        // unlimited bandwidth and no churn consumes the same RNG stream as
        // the delay-only sampled network, so the runs are bit-identical.
        let legacy = ScenarioSpec {
            delay: DelaySpec::Normal {
                mean_micros: 250_000,
                std_micros: 50_000,
            },
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let meshed = ScenarioSpec {
            net: Some(full_mesh(None)),
            ..legacy.clone()
        };
        let (a, a_schedule) = legacy.run_recorded(RunMode::Generate).unwrap();
        let (b, b_schedule) = meshed.run_recorded(RunMode::Generate).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a_schedule, b_schedule);
    }

    #[test]
    fn narrow_links_shift_the_latency_distribution() {
        // The contention acceptance criterion: the same scenario over narrow
        // links queues messages and measurably shifts delivery latencies.
        let legacy = ScenarioSpec::baseline(ProtocolKind::Pbft);
        let contended = ScenarioSpec {
            net: Some(full_mesh(Some(2_000))),
            ..legacy.clone()
        };
        let obs = |spec: &ScenarioSpec| {
            spec.run_observed(RunMode::Generate, TraceLevel::Decisions)
                .unwrap()
                .result
                .observability
                .unwrap()
        };
        let fast = obs(&legacy);
        let slow = obs(&contended);
        assert_eq!(
            fast.link_queue_delay.count(),
            0,
            "unlimited links never queue"
        );
        assert!(
            slow.link_queue_delay.count() > 0,
            "narrow links must queue traffic"
        );
        assert!(
            !slow.link_queues.is_empty(),
            "per-link queue stats must identify the bottlenecks"
        );
        let mean_latency = |o: &bft_sim_core::obs::Observability| {
            let (sum, n) = o.delivery_latency.iter().fold((0u64, 0u64), |(s, c), h| {
                (s + h.sum_micros(), c + h.count())
            });
            sum as f64 / n.max(1) as f64
        };
        assert!(
            mean_latency(&slow) > mean_latency(&fast),
            "serialization + queueing must slow deliveries: {} <= {}",
            mean_latency(&slow),
            mean_latency(&fast)
        );
    }

    #[test]
    fn bandwidth_and_churn_runs_agree_across_threads() {
        // The full stack — ring-gradient topology, narrow links, churn —
        // must stay byte-identical across sweep thread counts (the
        // determinism acceptance criterion).
        let spec = ScenarioSpec {
            net: Some(rich_net()),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let (serial, serial_schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        for threads in [1, 4] {
            let swept = bft_sim_core::sweep::sweep(threads, threads, |_| {
                spec.run_recorded(RunMode::Generate).unwrap()
            });
            for slot in swept {
                let (run, schedule) = slot.expect("no sweep panic");
                assert_eq!(serial.result, run.result, "threads={threads}");
                assert_eq!(serial_schedule, schedule, "threads={threads}");
            }
        }
    }

    /// `run` and `run_recorded` agree on everything but the schedule.
    fn assert_recording_is_inert(spec: &ScenarioSpec, mode: RunMode<'_>, what: &str) {
        let plain = spec.run(mode).unwrap();
        let (recorded, _) = spec.run_recorded(mode).unwrap();
        assert_eq!(plain.result, recorded.result, "{what}");
        assert_eq!(plain.actions, recorded.actions, "{what}");
        assert_eq!(plain.fault_actions, recorded.fault_actions, "{what}");
        assert_eq!(plain.fault_stats, recorded.fault_stats, "{what}");
        assert_eq!(plain.violations, recorded.violations, "{what}");
    }

    #[test]
    fn recording_the_schedule_is_inert() {
        // Recording is opt-in because nothing but the shrinker reads the
        // schedule; turning it on must change nothing else, in every mode.
        let protocols = [
            ProtocolKind::Pbft,
            ProtocolKind::HotStuffNs,
            ProtocolKind::Tendermint,
        ];
        for kind in protocols {
            let busy = ScenarioSpec {
                intensity_permille: 500,
                max_actions: 32,
                fault_preset: FaultPreset::Chaos,
                fault_seed: 0xFA_17,
                ..ScenarioSpec::baseline(kind)
            };
            let churned = ScenarioSpec {
                net: Some(rich_net()),
                ..busy.clone()
            };
            for (spec, shape) in [(&busy, "busy"), (&churned, "churned")] {
                let what = format!("{kind} {shape}");
                assert_recording_is_inert(spec, RunMode::Generate, &format!("{what} generate"));

                let (generated, schedule) = spec.run_recorded(RunMode::Generate).unwrap();
                assert!(!generated.actions.is_empty(), "{what}: no action script");
                assert!(
                    !generated.fault_actions.is_empty(),
                    "{what}: no fault script"
                );
                let scripted = RunMode::Scripted {
                    actions: &generated.actions,
                    faults: &generated.fault_actions,
                };
                assert_recording_is_inert(spec, scripted, &format!("{what} scripted"));

                let prefix = schedule.truncated(schedule.len() / 2);
                assert!(!prefix.is_empty(), "{what}: empty schedule");
                let replay = RunMode::Replay(&prefix);
                assert_recording_is_inert(spec, replay, &format!("{what} replay"));
            }
        }
    }
}
