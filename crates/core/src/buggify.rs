//! The buggify fault catalog: seeded, deterministic fault injection.
//!
//! Following the FoundationDB/TigerBeetle deterministic-simulation-testing
//! recipe, the engine exposes a small set of *injection sites* — timer
//! arming, wire transmission, and node dispatch — at which a
//! [`FaultInjector`] may perturb the run: skew a timer, deliver a message
//! twice, delay a reorder burst, drop traffic aimed at one victim, or tear
//! a node's action batch in half (a partial/torn state write). All faults
//! are sampled from the injector's *own* seeded RNG and logged as
//! [`FaultAction`]s against their site's visit index, and a log re-runs
//! verbatim in **scripted** mode: the injector is a policy over the
//! [`Perturber`] that the randomized adversary shares.
//!
//! Fault intensity is chosen via [`FaultPreset`]: `calm` injects nothing
//! (and is bit-identical to running without an injector), `moderate`
//! enables timing faults (skew, duplicates, reorder bursts), and `chaos`
//! adds targeted drops and torn writes.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::ids::NodeId;
use crate::json::{self, Json};
use crate::perturb::{self, Action, ActionLog, Draw, Perturber};
use crate::time::SimDuration;

/// Where in the engine a fault applies. Each site keeps its own 0-based
/// visit counter, so a fault's `index` is stable across replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// One wire transmission ([`route`](crate::engine) call), in send order.
    Wire,
    /// One timer arming (`Action::SetTimer`), in arming order.
    Timer,
    /// One node dispatch (init, message, or timer handler), in order.
    Dispatch,
}

/// One concrete fault from the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The armed timer's delay is scaled by `factor_permille / 1000`.
    TimerSkew {
        /// Scale factor in permille; 500 halves the delay, 2000 doubles it.
        factor_permille: u64,
    },
    /// The message is delivered normally *and* a second copy arrives
    /// `extra_micros` after it; a dropped message has no copy.
    DuplicateDelivery {
        /// Delay of the duplicate copy, measured from the original's
        /// delivery.
        extra_micros: u64,
    },
    /// The message is delayed by `extra_micros` on top of its proposed
    /// delay — generated in bursts so consecutive messages swap order.
    ReorderDelay {
        /// Extra delay added on top of the proposed delivery delay.
        extra_micros: u64,
    },
    /// The message is dropped iff it is addressed to `dst` (the injector's
    /// victim in generate mode).
    TargetedDrop {
        /// The victim destination; transmissions to other nodes pass.
        dst: NodeId,
    },
    /// The dispatched node's buffered *output* actions (sends, broadcasts,
    /// timer ops) are truncated to the first `keep` — a partial/torn state
    /// write: the node's internal state advanced, but part of its output
    /// never happened. Oracle reports (`Decide`, `EnterView`, `Custom`)
    /// are never torn: they describe state the node already committed
    /// internally, and suppressing them would blind the safety checker
    /// instead of perturbing the protocol.
    TornWrite {
        /// Number of leading actions that survive.
        keep: u64,
    },
}

impl FaultKind {
    /// The injection site this fault kind applies at.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::TimerSkew { .. } => FaultSite::Timer,
            FaultKind::DuplicateDelivery { .. }
            | FaultKind::ReorderDelay { .. }
            | FaultKind::TargetedDrop { .. } => FaultSite::Wire,
            FaultKind::TornWrite { .. } => FaultSite::Dispatch,
        }
    }
}

/// One logged fault: `kind` applied at the `index`-th visit of its site
/// (see [`FaultKind::site`]).
pub type FaultAction = Action<FaultKind>;

/// Per-kind counts of a fault log, for "fires iff enabled" checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Applied [`FaultKind::TimerSkew`] count.
    pub timer_skews: u64,
    /// Applied [`FaultKind::DuplicateDelivery`] count.
    pub duplicates: u64,
    /// Applied [`FaultKind::ReorderDelay`] count.
    pub reorders: u64,
    /// Applied [`FaultKind::TargetedDrop`] count.
    pub targeted_drops: u64,
    /// Applied [`FaultKind::TornWrite`] count.
    pub torn_writes: u64,
}

impl FaultStats {
    /// The per-kind counts of `log`.
    pub fn of(log: &[FaultAction]) -> FaultStats {
        let mut stats = FaultStats::default();
        for action in log {
            match action.kind {
                FaultKind::TimerSkew { .. } => stats.timer_skews += 1,
                FaultKind::DuplicateDelivery { .. } => stats.duplicates += 1,
                FaultKind::ReorderDelay { .. } => stats.reorders += 1,
                FaultKind::TargetedDrop { .. } => stats.targeted_drops += 1,
                FaultKind::TornWrite { .. } => stats.torn_writes += 1,
            }
        }
        stats
    }
}

/// Per-site probabilities and magnitudes for generate mode. Probabilities
/// are in permille (0..=1000) so configs hash and compare exactly. The
/// default is all zeros: no site ever fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Permille chance an armed timer is skewed.
    pub(crate) timer_skew_permille: u32,
    /// Minimum skew factor, permille.
    pub(crate) skew_min_permille: u64,
    /// Maximum skew factor, permille (exclusive).
    pub(crate) skew_max_permille: u64,
    /// Permille chance a wire message is duplicated.
    pub(crate) duplicate_permille: u32,
    /// Maximum duplicate delay, microseconds (exclusive).
    pub(crate) duplicate_max_micros: u64,
    /// Permille chance a reorder burst starts at a wire message.
    pub(crate) reorder_permille: u32,
    /// Messages per reorder burst (the trigger included).
    pub(crate) reorder_burst: u32,
    /// Maximum extra reorder delay, microseconds (exclusive).
    pub(crate) reorder_max_micros: u64,
    /// Permille chance a victim-bound wire message is dropped.
    pub(crate) drop_permille: u32,
    /// Permille chance a dispatch's action batch is torn.
    pub(crate) torn_permille: u32,
    /// Hard cap on applied faults per run; 0 disables the catalog.
    pub(crate) max_faults: u64,
}

/// Named fault-catalog intensity, selectable per scenario and recorded in
/// `bft-sim-repro-v1` files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPreset {
    /// No faults; bit-identical to running without an injector.
    #[default]
    Calm,
    /// Timing faults only: timer skew, duplicate delivery, reorder bursts.
    Moderate,
    /// Everything: timing faults plus targeted drops and torn writes.
    Chaos,
}

impl FaultPreset {
    /// The stable name used in CLI flags and repro files.
    pub fn name(self) -> &'static str {
        match self {
            FaultPreset::Calm => "calm",
            FaultPreset::Moderate => "moderate",
            FaultPreset::Chaos => "chaos",
        }
    }

    /// Parses [`name`](FaultPreset::name) output.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "calm" => Ok(FaultPreset::Calm),
            "moderate" => Ok(FaultPreset::Moderate),
            "chaos" => Ok(FaultPreset::Chaos),
            other => Err(format!("unknown fault preset \"{other}\"")),
        }
    }

    /// The generate-mode config this preset stands for.
    pub fn config(self) -> FaultConfig {
        match self {
            FaultPreset::Calm => FaultConfig::default(),
            FaultPreset::Moderate => FaultConfig {
                timer_skew_permille: 40,
                skew_min_permille: 500,
                skew_max_permille: 3_000,
                duplicate_permille: 30,
                duplicate_max_micros: 400_000,
                reorder_permille: 25,
                reorder_burst: 4,
                reorder_max_micros: 250_000,
                drop_permille: 0,
                torn_permille: 0,
                max_faults: 64,
            },
            FaultPreset::Chaos => FaultConfig {
                timer_skew_permille: 80,
                skew_min_permille: 250,
                skew_max_permille: 4_000,
                duplicate_permille: 60,
                duplicate_max_micros: 800_000,
                reorder_permille: 50,
                reorder_burst: 6,
                reorder_max_micros: 500_000,
                drop_permille: 120,
                torn_permille: 15,
                max_faults: 160,
            },
        }
    }

    /// Whether this preset can emit `kind` at all (magnitudes aside).
    pub fn enables(self, kind: FaultKind) -> bool {
        let cfg = self.config();
        match kind {
            FaultKind::TimerSkew { .. } => cfg.timer_skew_permille > 0,
            FaultKind::DuplicateDelivery { .. } => cfg.duplicate_permille > 0,
            FaultKind::ReorderDelay { .. } => cfg.reorder_permille > 0,
            FaultKind::TargetedDrop { .. } => cfg.drop_permille > 0,
            FaultKind::TornWrite { .. } => cfg.torn_permille > 0,
        }
    }
}

/// The deterministic fault injector: the catalog's policy over a
/// [`Perturber`] with one site per [`FaultSite`]. Construct with
/// [`generate`](FaultInjector::generate) or
/// [`scripted`](FaultInjector::scripted), clone out the
/// [`log_handle`](FaultInjector::log_handle), and install it via
/// `SimulationBuilder::faults`.
#[derive(Debug)]
pub struct FaultInjector {
    script: Perturber<FaultKind, 3>,
    /// Generate mode's rates; calm (unread) when scripted.
    cfg: FaultConfig,
    /// Victim of targeted drops, fixed per injector from the fault seed.
    target: NodeId,
    /// Remaining messages in the current reorder burst.
    burst_left: u32,
}

impl FaultInjector {
    /// Creates a generating injector with its own RNG seeded from `seed`.
    ///
    /// The seed is independent of the run and adversary seeds on purpose:
    /// the same fault pattern can be aimed at different network samples and
    /// attack sequences. `n` fixes the targeted-drop victim (`seed % n`).
    pub fn generate(seed: u64, cfg: FaultConfig, n: usize) -> Self {
        FaultInjector {
            script: Perturber::generate(seed, cfg.max_faults),
            cfg,
            target: NodeId::new((seed % n.max(1) as u64) as u32),
            burst_left: 0,
        }
    }

    /// Creates a scripted injector that re-applies exactly `actions`.
    ///
    /// Duplicate indices at the same site keep the last occurrence.
    pub fn scripted(actions: &[FaultAction]) -> Self {
        FaultInjector {
            script: Perturber::scripted(actions, |kind| kind.site() as usize),
            cfg: FaultConfig::default(),
            target: NodeId::new(0),
            burst_left: 0,
        }
    }

    /// A shared handle onto the fault log; clone it out before moving the
    /// injector into a `SimulationBuilder`.
    pub fn log_handle(&self) -> ActionLog<FaultKind> {
        self.script.log_handle()
    }

    /// Visits the wire site for a message addressed to `dst` and returns
    /// the fault to apply, if any: a targeted drop, a duplicate or a reorder
    /// delay. Called by the engine on every routed transmission, in send
    /// order.
    pub(crate) fn on_wire(&mut self, dst: NodeId) -> Option<FaultKind> {
        let (cfg, target, burst_left) = (&self.cfg, self.target, &mut self.burst_left);
        self.script
            .visit(FaultSite::Wire as usize, |draw| match draw {
                // A scripted drop only ever hit its recorded victim; keep that
                // meaning when the script is replayed or shrunk.
                Draw::Script(FaultKind::TargetedDrop { dst: victim }) if victim != dst => None,
                Draw::Script(kind) => Some(kind),
                Draw::Roll(rng) => {
                    // One roll per capability, in a fixed order, every message —
                    // the RNG consumption pattern must not depend on earlier
                    // outcomes or the fault sequence loses its meaning when
                    // shrunk (same rule as the randomized adversary).
                    let drop = roll(rng, cfg.drop_permille);
                    let dup = roll(rng, cfg.duplicate_permille);
                    let reorder = roll(rng, cfg.reorder_permille);
                    let dup_extra = range(rng, cfg.duplicate_max_micros);
                    let reorder_extra = range(rng, cfg.reorder_max_micros);
                    if *burst_left > 0 {
                        *burst_left -= 1;
                        Some(FaultKind::ReorderDelay {
                            extra_micros: reorder_extra,
                        })
                    } else if drop && dst == target {
                        Some(FaultKind::TargetedDrop { dst })
                    } else if dup {
                        Some(FaultKind::DuplicateDelivery {
                            extra_micros: dup_extra,
                        })
                    } else if reorder {
                        *burst_left = cfg.reorder_burst.saturating_sub(1);
                        Some(FaultKind::ReorderDelay {
                            extra_micros: reorder_extra,
                        })
                    } else {
                        None
                    }
                }
            })
    }

    /// Visits the timer site for an armed delay and returns the (possibly
    /// skewed) delay to use. Called on every `SetTimer`, in arming order.
    pub(crate) fn on_timer(&mut self, delay: SimDuration) -> SimDuration {
        let cfg = &self.cfg;
        let kind = self
            .script
            .visit(FaultSite::Timer as usize, |draw| match draw {
                Draw::Script(kind) => Some(kind),
                Draw::Roll(rng) => {
                    let hit = roll(rng, cfg.timer_skew_permille);
                    let span = cfg.skew_max_permille.saturating_sub(cfg.skew_min_permille);
                    let factor = cfg.skew_min_permille + range(rng, span);
                    hit.then_some(FaultKind::TimerSkew {
                        factor_permille: factor,
                    })
                }
            });
        match kind {
            Some(FaultKind::TimerSkew { factor_permille }) => {
                SimDuration::from_micros(delay.as_micros().saturating_mul(factor_permille) / 1_000)
            }
            _ => delay,
        }
    }

    /// Visits the dispatch site for a node that buffered `len` actions and
    /// returns how many to keep, if the batch is torn. Called after every
    /// protocol handler, in dispatch order.
    pub(crate) fn on_dispatch(&mut self, len: usize) -> Option<usize> {
        let cfg = &self.cfg;
        let kind = self
            .script
            .visit(FaultSite::Dispatch as usize, |draw| match draw {
                Draw::Script(kind) => Some(kind),
                Draw::Roll(rng) => {
                    let hit = roll(rng, cfg.torn_permille);
                    let keep = range(rng, len.max(1) as u64);
                    (hit && len > 0).then_some(FaultKind::TornWrite { keep })
                }
            });
        match kind {
            Some(FaultKind::TornWrite { keep }) => Some((keep as usize).min(len)),
            _ => None,
        }
    }
}

/// Rolls a permille-probability event.
fn roll(rng: &mut SmallRng, permille: u32) -> bool {
    rng.gen_range(0..1000u32) < permille
}

/// Samples `0..max`, or 0 when the range is empty.
fn range(rng: &mut SmallRng, max: u64) -> u64 {
    if max == 0 {
        0
    } else {
        rng.gen_range(0..max)
    }
}

/// Serializes a list of fault actions for repro files.
pub fn fault_actions_to_json(actions: &[FaultAction]) -> Json {
    perturb::to_json(actions, "index", |kind| {
        let (tag, field, value) = match kind {
            FaultKind::TimerSkew { factor_permille } => {
                ("TimerSkew", "factor_permille", factor_permille)
            }
            FaultKind::DuplicateDelivery { extra_micros } => {
                ("DuplicateDelivery", "extra_micros", extra_micros)
            }
            FaultKind::ReorderDelay { extra_micros } => {
                ("ReorderDelay", "extra_micros", extra_micros)
            }
            FaultKind::TargetedDrop { dst } => ("TargetedDrop", "dst", u64::from(dst.as_u32())),
            FaultKind::TornWrite { keep } => ("TornWrite", "keep", keep),
        };
        Json::obj([(tag, Json::obj([(field, Json::from(value))]))])
    })
}

/// Parses the format produced by [`fault_actions_to_json`].
///
/// # Errors
///
/// Malformed per [`crate::json`]'s artifact parsing policy; the message
/// names the offending entry's index.
pub fn fault_actions_from_json(json: &Json) -> Result<Vec<FaultAction>, String> {
    perturb::from_json(json, "index", "fault action", fault_kind_from_json)
        .map_err(|e| format!("fault_actions: {e}"))
}

fn fault_kind_from_json(kind: &Json) -> Result<FaultKind, String> {
    let (tag, body) = json::variant(kind, "kind")?;
    let unknown = || format!("unknown kind \"{tag}\"");
    let mut f = body.ok_or_else(unknown)?;
    let kind = match tag {
        "TimerSkew" => FaultKind::TimerSkew {
            factor_permille: f.req("factor_permille", json::int)?,
        },
        "DuplicateDelivery" => FaultKind::DuplicateDelivery {
            extra_micros: f.req("extra_micros", json::int)?,
        },
        "ReorderDelay" => FaultKind::ReorderDelay {
            extra_micros: f.req("extra_micros", json::int)?,
        },
        "TargetedDrop" => FaultKind::TargetedDrop {
            dst: NodeId::new(f.req("dst", json::int)?),
        },
        "TornWrite" => FaultKind::TornWrite {
            keep: f.req("keep", json::int)?,
        },
        _ => return Err(unknown()),
    };
    f.finish()?;
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log of 200 visits to each site, in the engine's interleaving.
    fn drain(mut fi: FaultInjector) -> Vec<FaultAction> {
        let log = fi.log_handle();
        for i in 0..200u32 {
            fi.on_wire(NodeId::new(i % 4));
            fi.on_timer(SimDuration::from_micros(1_000));
            fi.on_dispatch(3);
        }
        drop(fi);
        log.take()
    }

    fn drain_generate(seed: u64, cfg: FaultConfig) -> (Vec<FaultAction>, FaultStats) {
        let actions = drain(FaultInjector::generate(seed, cfg, 4));
        let stats = FaultStats::of(&actions);
        (actions, stats)
    }

    #[test]
    fn calm_config_never_fires() {
        let (actions, stats) = drain_generate(7, FaultPreset::Calm.config());
        assert!(actions.is_empty());
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = FaultPreset::Chaos.config();
        let (a1, s1) = drain_generate(9, cfg);
        let (a2, s2) = drain_generate(9, cfg);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert!(!a1.is_empty(), "chaos must fire over 200 site visits");
        let (a3, _) = drain_generate(10, cfg);
        assert_ne!(a1, a3, "different seeds must differ");
    }

    #[test]
    fn chaos_fires_every_kind_and_moderate_only_timing_kinds() {
        let mut chaos = FaultStats::default();
        let mut moderate = FaultStats::default();
        for seed in 0..32 {
            let (_, s) = drain_generate(seed, FaultPreset::Chaos.config());
            chaos.timer_skews += s.timer_skews;
            chaos.duplicates += s.duplicates;
            chaos.reorders += s.reorders;
            chaos.targeted_drops += s.targeted_drops;
            chaos.torn_writes += s.torn_writes;
            let (_, s) = drain_generate(seed, FaultPreset::Moderate.config());
            moderate.timer_skews += s.timer_skews;
            moderate.duplicates += s.duplicates;
            moderate.reorders += s.reorders;
            moderate.targeted_drops += s.targeted_drops;
            moderate.torn_writes += s.torn_writes;
        }
        assert!(chaos.timer_skews > 0);
        assert!(chaos.duplicates > 0);
        assert!(chaos.reorders > 0);
        assert!(chaos.targeted_drops > 0);
        assert!(chaos.torn_writes > 0);
        assert!(moderate.timer_skews > 0);
        assert!(moderate.duplicates > 0);
        assert!(moderate.reorders > 0);
        assert_eq!(moderate.targeted_drops, 0, "moderate never drops");
        assert_eq!(moderate.torn_writes, 0, "moderate never tears");
    }

    #[test]
    fn scripted_mode_reapplies_the_generated_log() {
        let cfg = FaultPreset::Chaos.config();
        let (a1, _) = drain_generate(9, cfg);
        let mut a2 = drain(FaultInjector::scripted(&a1));
        // Scripted application visits sites in engine order, which may
        // interleave kinds differently from generation order; compare as
        // sets (the pairs are unique by site + index).
        let key = |a: &FaultAction| (a.kind.site() as u8, a.index);
        a2.sort_by_key(key);
        let mut a1s = a1.clone();
        a1s.sort_by_key(key);
        assert_eq!(a1s, a2, "script must apply exactly the recorded faults");
    }

    #[test]
    fn scripted_targeted_drop_only_hits_its_victim() {
        let script = [FaultAction {
            index: 0,
            kind: FaultKind::TargetedDrop {
                dst: NodeId::new(2),
            },
        }];
        let mut fi = FaultInjector::scripted(&script);
        assert_eq!(fi.on_wire(NodeId::new(1)), None);
        let mut fi = FaultInjector::scripted(&script);
        assert_eq!(fi.on_wire(NodeId::new(2)), Some(script[0].kind));
    }

    #[test]
    fn max_faults_caps_the_catalog() {
        let cfg = FaultConfig {
            max_faults: 3,
            ..FaultPreset::Chaos.config()
        };
        let (actions, _) = drain_generate(9, cfg);
        assert_eq!(actions.len(), 3);
    }

    #[test]
    fn timer_skew_scales_the_delay() {
        let script = [FaultAction {
            index: 1,
            kind: FaultKind::TimerSkew {
                factor_permille: 2_000,
            },
        }];
        let mut fi = FaultInjector::scripted(&script);
        let d = SimDuration::from_micros(500);
        assert_eq!(fi.on_timer(d), d, "index 0 untouched");
        assert_eq!(fi.on_timer(d), SimDuration::from_micros(1_000));
    }

    #[test]
    fn torn_write_keep_is_clamped_to_len() {
        let script = [FaultAction {
            index: 0,
            kind: FaultKind::TornWrite { keep: 10 },
        }];
        let mut fi = FaultInjector::scripted(&script);
        assert_eq!(fi.on_dispatch(2), Some(2));
    }

    #[test]
    fn preset_names_round_trip() {
        for p in [FaultPreset::Calm, FaultPreset::Moderate, FaultPreset::Chaos] {
            assert_eq!(FaultPreset::parse(p.name()), Ok(p));
        }
        assert!(FaultPreset::parse("mayhem").is_err());
    }

    #[test]
    fn actions_json_round_trip() {
        let actions = vec![
            FaultAction {
                index: 3,
                kind: FaultKind::TimerSkew {
                    factor_permille: 1_500,
                },
            },
            FaultAction {
                index: 0,
                kind: FaultKind::DuplicateDelivery { extra_micros: 250 },
            },
            FaultAction {
                index: 7,
                kind: FaultKind::ReorderDelay { extra_micros: 99 },
            },
            FaultAction {
                index: 8,
                kind: FaultKind::TargetedDrop {
                    dst: NodeId::new(3),
                },
            },
            FaultAction {
                index: 2,
                kind: FaultKind::TornWrite { keep: 1 },
            },
        ];
        let text = fault_actions_to_json(&actions).dump_pretty();
        let back = fault_actions_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, actions);
    }

    #[test]
    fn actions_json_rejects_garbage() {
        let err = fault_actions_from_json(&Json::parse("[{\"index\": 1}]").unwrap()).unwrap_err();
        assert!(err.contains("entry #0"), "{err}");
        assert!(err.contains("kind"), "{err}");
        let err = fault_actions_from_json(
            &Json::parse("[{\"index\": 1, \"kind\": {\"Explode\": {}}}]").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
    }
}
