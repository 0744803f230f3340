//! # bft-sim-cli
//!
//! Command-line front end for the BFT simulator. The paper's workflow —
//! "write a configuration specifying the network model and parameters, the
//! BFT protocol, and optionally the attack scenario" — maps to flags or a
//! JSON config file:
//!
//! ```text
//! bft-sim run --protocol pbft --nodes 16 --lambda 1000 \
//!             --delay-mu 250 --delay-sigma 50 --reps 100
//! bft-sim run --config experiment.json
//! bft-sim compare --nodes 16 --reps 20
//! bft-sim fig 5
//! bft-sim table 1
//! bft-sim trace pbft --json
//! bft-sim list
//! ```
//!
//! Every command's operands and flags are rows of one table (`COMMANDS`)
//! read by one loop (`drive`), and `usage()` prints its synopses from the same
//! rows; DESIGN.md §17 states the grammar and where a new flag goes.
//!
//! ## Exit codes
//!
//! The binary maps every failure class to a distinct exit code, so scripts
//! and CI can tell a crash from a caught bug:
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0    | success (for `fuzz`: clean sweep; for `repro`: the oracle fired) |
//! | 1    | runtime failure — simulation error, I/O error |
//! | 2    | usage or parse error — bad flags, malformed config file |
//! | 3    | `fuzz` / `campaign` found oracle violations or panicked runs |
//! | 4    | artifact error — an unreadable or malformed repro, manifest, or checkpoint file, or a repro that no longer reproduces |
//! | 101  | the process itself panicked (Rust's default panic exit) |

pub mod campaign;

pub(crate) use campaign::{emit_report, emit_status, CampaignStatusSpec};
pub use campaign::{
    exec_campaign_merge, exec_campaign_run, exec_campaign_status, load_manifest, CampaignMergeSpec,
    CampaignRunSpec,
};

use bft_sim_core::buggify::FaultPreset;
use bft_sim_core::json::{self, Fields, Json};
use bft_sim_simcheck::{check_node_count, AttackSpec, DelaySpec, PartitionSpec, ScenarioSpec};
use bft_simulator::experiments::{self, figures, loc};
use bft_simulator::prelude::{PartitionAttack, ProtocolKind};
use std::ops::RangeInclusive;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one scenario (repeatedly) and print its metrics.
    Run(RunSpec),
    /// Run every protocol under one network condition.
    Compare(RunSpec),
    /// Regenerate one of the paper's figures.
    Fig(u8),
    /// Regenerate one of the paper's tables.
    Table(u8),
    /// Sweep deterministic fuzz scenarios, oracle-check every run, shrink
    /// violations to repro files.
    Fuzz(FuzzSpec),
    /// Replay a repro file and confirm its oracle still fires.
    Repro {
        /// Path to a `bft-sim-repro-v1` JSON file.
        path: String,
    },
    /// Run one scenario with full observability and print its
    /// instrumentation (histograms, flow matrix, view timings, last events).
    Trace(TraceSpec),
    /// Run (or resume) a manifest-driven campaign sweep.
    CampaignRun(CampaignRunSpec),
    /// Merge shard checkpoints into a campaign's final report.
    CampaignMerge(CampaignMergeSpec),
    /// Replay a campaign journal and print how far it is.
    CampaignStatus(CampaignStatusSpec),
    /// List available protocols.
    List,
    /// Print usage.
    Help,
}

/// Scenario parameters shared by `run` and `compare` (JSON-compatible, so
/// `--config file.json` loads the same structure).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Protocol short name (ignored by `compare`).
    pub(crate) protocol: String,
    /// Number of nodes.
    pub(crate) nodes: usize,
    /// Timeout parameter λ in ms.
    pub(crate) lambda_ms: f64,
    /// Mean network delay (ms).
    pub(crate) delay_mu: f64,
    /// Network delay standard deviation (ms).
    pub(crate) delay_sigma: f64,
    /// Repetitions.
    pub(crate) reps: usize,
    /// Base RNG seed.
    pub(crate) seed: u64,
    /// Attack: `none`, `failstop:K`, `partition:START_MS:END_MS`,
    /// `add-static:K`, `add-adaptive`.
    pub(crate) attack: String,
    /// Emit JSON instead of a table.
    pub(crate) json: bool,
    /// Computation-cost model for throughput estimation:
    /// `none`, `ed25519`, `rsa2048` or `mac`.
    pub(crate) cost: String,
}

impl RunSpec {
    /// Parses a spec from a JSON config object; absent fields keep their
    /// [`RunSpec::default`] values.
    ///
    /// # Errors
    ///
    /// Malformed per [`bft_sim_core::json`]'s artifact parsing policy (so a
    /// typo in a config file surfaces as an unknown field).
    pub fn from_json(json: &Json) -> Result<RunSpec, String> {
        let mut f = Fields::of(json, "config")?;
        let base = RunSpec::default();
        let spec = RunSpec {
            protocol: f.opt_or("protocol", base.protocol, json::string)?,
            nodes: f.opt_or("nodes", base.nodes, json::int)?,
            lambda_ms: f.opt_or("lambda_ms", base.lambda_ms, json::float)?,
            delay_mu: f.opt_or("delay_mu", base.delay_mu, json::float)?,
            delay_sigma: f.opt_or("delay_sigma", base.delay_sigma, json::float)?,
            reps: f.opt_or("reps", base.reps, json::int)?,
            seed: f.opt_or("seed", base.seed, json::int)?,
            attack: f.opt_or("attack", base.attack, json::string)?,
            json: f.opt_or("json", base.json, json::boolean)?,
            cost: f.opt_or("cost", base.cost, json::string)?,
        };
        f.finish()?;
        Ok(spec)
    }

    /// Serialises the spec as a JSON config object (the format
    /// [`RunSpec::from_json`] reads back).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol.as_str())),
            ("nodes", Json::from(self.nodes)),
            ("lambda_ms", Json::from(self.lambda_ms)),
            ("delay_mu", Json::from(self.delay_mu)),
            ("delay_sigma", Json::from(self.delay_sigma)),
            ("reps", Json::from(self.reps)),
            ("seed", Json::from(self.seed)),
            ("attack", Json::from(self.attack.as_str())),
            ("json", Json::from(self.json)),
            ("cost", Json::from(self.cost.as_str())),
        ])
    }
}

/// Parameters of a `bft-sim fuzz` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzSpec {
    /// Scenario seed range, half-open.
    pub seeds: (u64, u64),
    /// `all` or a comma-separated list of protocol short names.
    pub protocols: String,
    /// Adversary intensity in permille.
    pub intensity_permille: u64,
    /// Per-run cap on adversary actions.
    pub max_actions: u64,
    /// Arm the feature-gated seeded safety bug (needs `--features testbug`).
    pub inject_bug: bool,
    /// Directory repro files are written to.
    pub out_dir: String,
    /// Emit a JSON report instead of text.
    pub json: bool,
    /// Worker threads for the sweep (0 = available parallelism). The report
    /// is byte-identical at any thread count.
    pub threads: usize,
    /// Instrument every run (`--obs`): the report gains an `observability`
    /// block, repros and failures carry their last trace events. Everything
    /// else in the report is byte-identical with it on or off.
    pub observability: bool,
    /// `--n N`: force every generated scenario to `N` nodes instead of the
    /// generator's small-biased scales. The large-n smoke knob.
    pub n_override: Option<usize>,
    /// `--preset calm|moderate|chaos`: fault-catalog preset armed in every
    /// generated scenario (calm = no injection, the default).
    pub fault_preset: FaultPreset,
    /// `--coverage`: run the coverage-guided corpus search instead of the
    /// per-seed sweep. `--seeds A..B` then means master seed `A` with a
    /// budget of `B − A` runs, and the report gains a `coverage` block.
    pub coverage: bool,
    /// `--blind` (with `--coverage`): same budget and coverage accounting,
    /// but the corpus loop stays off — the comparison baseline.
    pub blind: bool,
    /// `--corpus-dir DIR` (with `--coverage`): persist the search corpus in
    /// `DIR/corpus.json` — loaded before the search starts (a cold directory
    /// starts empty) and written back after it, so successive invocations
    /// (e.g. cached CI jobs) resume from the previous frontier.
    pub corpus_dir: Option<String>,
    /// `--net-preset SPEC`: pin every scenario's link-level network block
    /// (topology, bandwidth cap, churn) to one shape — see the usage string
    /// for the spec grammar.
    pub net_preset: Option<String>,
}

impl Default for FuzzSpec {
    fn default() -> Self {
        FuzzSpec {
            seeds: (0, 32),
            protocols: "all".into(),
            intensity_permille: 500,
            max_actions: 48,
            inject_bug: false,
            out_dir: ".".into(),
            json: false,
            threads: 0,
            observability: false,
            n_override: None,
            fault_preset: FaultPreset::Calm,
            coverage: false,
            blind: false,
            corpus_dir: None,
            net_preset: None,
        }
    }
}

/// Parameters of a `bft-sim trace` run: one scenario executed with full
/// observability, its instrumentation printed as tables or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// A protocol short name (baseline scenario) or a path to a
    /// `ScenarioSpec` JSON file (as embedded in repro files).
    pub(crate) scenario: String,
    /// Overrides the scenario's run seed.
    pub(crate) seed: Option<u64>,
    /// How many of the run's last events the dump shows.
    pub(crate) last_k: usize,
    /// Emit JSON instead of tables.
    pub(crate) json: bool,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            scenario: String::new(),
            seed: None,
            last_k: bft_sim_core::obs::DEFAULT_LAST_K,
            json: false,
        }
    }
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            protocol: "pbft".into(),
            nodes: 16,
            lambda_ms: 1000.0,
            delay_mu: 250.0,
            delay_sigma: 50.0,
            reps: 10,
            seed: 0,
            attack: "none".into(),
            json: false,
            cost: "none".into(),
        }
    }
}

/// Errors surfaced to the CLI user, carrying the process exit code the
/// binary exits with. See [the exit-code map](crate#exit-codes).
#[derive(Debug, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description, printed to stderr.
    pub message: String,
    /// The process exit code for this class of error.
    pub code: i32,
}

impl CliError {
    /// A usage or parse error — bad flags, malformed config file. Exit 2.
    pub(crate) fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// A runtime failure — simulation error, I/O error. Exit 1.
    pub(crate) fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 1,
        }
    }

    /// A fuzz sweep that found oracle violations or panicked runs. Exit 3.
    pub(crate) fn violation(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 3,
        }
    }

    /// An artifact error — an unreadable or malformed repro, manifest, or
    /// checkpoint file, or a repro that no longer reproduces. Exit 4.
    pub(crate) fn repro(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 4,
        }
    }
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parses the attack flag syntax into a scenario's `attack` and `partition`
/// fields.
pub(crate) fn parse_attack(
    s: &str,
) -> Result<(Option<AttackSpec>, Option<PartitionSpec>), CliError> {
    fn parse<T: std::str::FromStr>(what: &str, text: &str) -> Result<T, CliError> {
        text.parse()
            .map_err(|_| CliError::usage(format!("bad {what}: {text}")))
    }
    let parts: Vec<&str> = s.split(':').collect();
    let attack = |attack| Ok((Some(attack), None));
    match parts.as_slice() {
        ["none"] => Ok((None, None)),
        ["failstop", k] => attack(AttackSpec::FailStopLast {
            k: parse("failstop count", k)?,
        }),
        ["partition", start, end] => {
            let start_ms = parse("partition start", start)?;
            let end_ms = parse("partition end", end)?;
            PartitionAttack::check_window(start_ms, end_ms).map_err(CliError::usage)?;
            let drop = false;
            Ok((
                None,
                Some(PartitionSpec {
                    start_ms,
                    end_ms,
                    drop,
                }),
            ))
        }
        ["add-static", k] => attack(AttackSpec::AddStatic {
            k: parse("add-static count", k)?,
        }),
        ["add-adaptive"] => attack(AttackSpec::AddAdaptive),
        _ => Err(CliError::usage(format!(
            "unknown attack '{s}' (try none, failstop:K, partition:S:E, add-static:K, add-adaptive)"
        ))),
    }
}

/// Everything an argv can fill in, whichever command it names. A command's
/// `finish` checks its own part and wraps it in a [`Command`].
#[derive(Default)]
struct Spec {
    run: RunSpec,
    fuzz: FuzzSpec,
    trace: TraceSpec,
    campaign_run: CampaignRunSpec,
    campaign_merge: CampaignMergeSpec,
    campaign_status: CampaignStatusSpec,
    fig_or_table: u8,
    repro_path: String,
}

/// One thing an argv may hold; a command's rows, in order, are its synopsis.
/// A `name` that starts with `--` is a flag, and `value` the placeholder for
/// the token that follows it (`None` makes the flag a switch, whose `set`
/// sees `""`). Any other `name` is an operand's placeholder: operands are
/// required, and one ending in `...` (the last) takes every further one too.
struct Arg {
    name: &'static str,
    value: Option<&'static str>,
    set: Setter,
}

impl Arg {
    fn is_flag(&self) -> bool {
        self.name.starts_with("--")
    }
}

/// Parses a flag's value or an operand into its place in the [`Spec`].
type Setter = fn(&mut Spec, &str) -> Result<(), CliError>;

/// One command: what its argv may hold, what `usage()` says about it, and
/// the checks that turn a filled [`Spec`] into a [`Command`].
struct Cmd {
    path: &'static [&'static str],
    args: &'static [Arg],
    about: &'static str,
    /// Cross-flag and range checks, `--config` and flags alike.
    finish: fn(Spec) -> Result<Command, CliError>,
}

const fn arg(name: &'static str, value: Option<&'static str>, set: Setter) -> Arg {
    Arg { name, value, set }
}

/// Stores a parsed value: what lets a table row be one expression.
fn set<T>(slot: &mut T, value: Result<T, CliError>) -> Result<(), CliError> {
    *slot = value?;
    Ok(())
}

/// The numeric reader behind every `bad --X`.
fn num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError::usage(format!("bad {flag}")))
}

/// `check_node_count`, reported under the flag that carried the count.
fn node_count(flag: &str, n: usize) -> Result<usize, CliError> {
    check_node_count(n).map_err(|e| CliError::usage(format!("{flag}: {e}")))
}

/// The operand of `fig` / `table`: a number within `valid`.
fn numbered(what: &str, valid: RangeInclusive<u8>, text: &str) -> Result<u8, CliError> {
    let n = text.parse();
    let n = n.map_err(|_| CliError::usage(format!("bad {what}: {text}")))?;
    if !valid.contains(&n) {
        return Err(CliError::usage(format!("no {what} {n} (valid: {valid:?})")));
    }
    Ok(n)
}

/// `--intensity` as `num` names it and as its range check repeats it.
const INTENSITY: &str = "--intensity (permille, 0..=1000)";

/// The flag whose file is the base the other flags override.
const CONFIG: &str = "--config";

const RUN_ARGS: &[Arg] = &[
    arg(CONFIG, Some("FILE.json"), |s, v| {
        let loaded = json::load(v, "config", RunSpec::from_json);
        set(&mut s.run, loaded.map_err(CliError::usage))
    }),
    arg("--protocol", Some("NAME"), |s, v| {
        set(&mut s.run.protocol, Ok(v.into()))
    }),
    arg("--nodes", Some("N"), |s, v| {
        set(&mut s.run.nodes, num("--nodes", v))
    }),
    arg("--lambda", Some("MS"), |s, v| {
        set(&mut s.run.lambda_ms, num("--lambda", v))
    }),
    arg("--delay-mu", Some("MS"), |s, v| {
        set(&mut s.run.delay_mu, num("--delay-mu", v))
    }),
    arg("--delay-sigma", Some("MS"), |s, v| {
        set(&mut s.run.delay_sigma, num("--delay-sigma", v))
    }),
    arg("--reps", Some("K"), |s, v| {
        set(&mut s.run.reps, num("--reps", v))
    }),
    arg("--seed", Some("S"), |s, v| {
        set(&mut s.run.seed, num("--seed", v))
    }),
    arg("--attack", Some("SPEC"), |s, v| {
        set(&mut s.run.attack, Ok(v.into()))
    }),
    arg("--cost", Some("none|ed25519|rsa2048|mac"), |s, v| {
        set(&mut s.run.cost, Ok(v.into()))
    }),
    arg("--json", None, |s, _| set(&mut s.run.json, Ok(true))),
];

const FUZZ_ARGS: &[Arg] = &[
    arg("--seeds", Some("A..B|N"), |s, v| {
        set(&mut s.fuzz.seeds, parse_seed_range(v))
    }),
    arg("--protocols", Some("all|p1,p2,..."), |s, v| {
        set(&mut s.fuzz.protocols, Ok(v.into()))
    }),
    arg("--intensity", Some("PERMILLE"), |s, v| {
        set(&mut s.fuzz.intensity_permille, num(INTENSITY, v))
    }),
    arg("--max-actions", Some("K"), |s, v| {
        set(&mut s.fuzz.max_actions, num("--max-actions", v))
    }),
    arg("--inject-bug", None, |s, _| {
        set(&mut s.fuzz.inject_bug, Ok(true))
    }),
    arg("--out", Some("DIR"), |s, v| {
        set(&mut s.fuzz.out_dir, Ok(v.into()))
    }),
    arg("--json", None, |s, _| set(&mut s.fuzz.json, Ok(true))),
    arg("--obs", None, |s, _| {
        set(&mut s.fuzz.observability, Ok(true))
    }),
    arg("--threads", Some("N"), |s, v| {
        set(&mut s.fuzz.threads, threads(v))
    }),
    arg("--n", Some("NODES"), |s, v| {
        let n = num("--n (node count)", v).and_then(|n| node_count("--n", n));
        set(&mut s.fuzz.n_override, n.map(Some))
    }),
    arg("--preset", Some("calm|moderate|chaos"), |s, v| {
        let preset = FaultPreset::parse(v).map_err(|_| {
            CliError::usage(format!("bad --preset '{v}' (use calm, moderate, or chaos)"))
        });
        set(&mut s.fuzz.fault_preset, preset)
    }),
    // A malformed spec is rejected here; `run_fuzz` parses it again to use it.
    arg("--net-preset", Some("SPEC"), |s, v| {
        let checked = parse_net_preset(v).map(|_| Some(v.into()));
        set(&mut s.fuzz.net_preset, checked)
    }),
    arg("--coverage", None, |s, _| {
        set(&mut s.fuzz.coverage, Ok(true))
    }),
    arg("--blind", None, |s, _| set(&mut s.fuzz.blind, Ok(true))),
    arg("--corpus-dir", Some("DIR"), |s, v| {
        set(&mut s.fuzz.corpus_dir, Ok(Some(v.into())))
    }),
];

const TRACE_ARGS: &[Arg] = &[
    arg("SCENARIO", None, |s, v| {
        set(&mut s.trace.scenario, Ok(v.into()))
    }),
    arg("--seed", Some("S"), |s, v| {
        set(&mut s.trace.seed, num("--seed", v).map(Some))
    }),
    arg("--last-k", Some("K"), |s, v| {
        set(&mut s.trace.last_k, num("--last-k", v))
    }),
    arg("--json", None, |s, _| set(&mut s.trace.json, Ok(true))),
];

const CAMPAIGN_RUN_ARGS: &[Arg] = &[
    arg("MANIFEST.json", None, |s, v| {
        set(&mut s.campaign_run.manifest, Ok(v.into()))
    }),
    arg("--checkpoint", Some("FILE"), |s, v| {
        set(&mut s.campaign_run.checkpoint, Ok(Some(v.into())))
    }),
    arg("--resume", None, |s, _| {
        set(&mut s.campaign_run.resume, Ok(true))
    }),
    arg("--shard", Some("I/M"), |s, v| {
        set(&mut s.campaign_run.shard, parse_shard(v))
    }),
    arg("--threads", Some("N"), |s, v| {
        set(&mut s.campaign_run.threads, threads(v))
    }),
    arg("--out", Some("DIR"), |s, v| {
        set(&mut s.campaign_run.out_dir, Ok(v.into()))
    }),
    arg("--json", None, |s, _| {
        set(&mut s.campaign_run.json, Ok(true))
    }),
    arg("--report", Some("FILE"), |s, v| {
        set(&mut s.campaign_run.report, Ok(Some(v.into())))
    }),
    arg("--max-units", Some("K"), |s, v| {
        set(
            &mut s.campaign_run.max_units,
            num("--max-units", v).map(Some),
        )
    }),
];

const CAMPAIGN_MERGE_ARGS: &[Arg] = &[
    arg("MANIFEST.json", None, |s, v| {
        set(&mut s.campaign_merge.manifest, Ok(v.into()))
    }),
    arg("CKPT...", None, |s, v| {
        s.campaign_merge.checkpoints.push(v.into());
        Ok(())
    }),
    arg("--json", None, |s, _| {
        set(&mut s.campaign_merge.json, Ok(true))
    }),
    arg("--report", Some("FILE"), |s, v| {
        set(&mut s.campaign_merge.report, Ok(Some(v.into())))
    }),
];

/// Every command `bft-sim` has, in the order `usage()` lists them. A new
/// flag is a row in its command's slice: that parses it, documents it and
/// puts it under the hostile-argv test.
static COMMANDS: &[Cmd] = &[
    Cmd {
        path: &["run"],
        args: RUN_ARGS,
        about: "run one protocol's scenario --reps times and print its metrics; the \
                --config file is the base, every other flag overrides it in any order",
        finish: |s| check_run(s.run).map(Command::Run),
    },
    Cmd {
        path: &["compare"],
        args: RUN_ARGS,
        about: "the same scenario under all eight protocols (--protocol is ignored)",
        finish: |s| check_run(s.run).map(Command::Compare),
    },
    Cmd {
        path: &["fig"],
        args: &[arg("N", None, |s, v| {
            set(&mut s.fig_or_table, numbered("figure", 2..=9, v))
        })],
        about: "regenerate figure N (2..=9) at the paper's settings",
        finish: |s| Ok(Command::Fig(s.fig_or_table)),
    },
    Cmd {
        path: &["table"],
        args: &[arg("N", None, |s, v| {
            set(&mut s.fig_or_table, numbered("table", 1..=2, v))
        })],
        about: "regenerate table N (1 or 2) beside the paper's counts",
        finish: |s| Ok(Command::Table(s.fig_or_table)),
    },
    Cmd {
        path: &["fuzz"],
        args: FUZZ_ARGS,
        about: "sweep deterministic fuzz scenarios across N worker threads (0 = all cores, \
                at most 256; output is byte-identical at any thread count) over at most \
                1000000 runs, oracle-check every run, shrink violations to repro files; \
                exits non-zero when any oracle fires or any run panics; --obs instruments \
                every run: the report gains an observability block and repros/failures \
                carry their last trace events, with everything else byte-identical; --n \
                forces every scenario to NODES nodes (≥ 4) for large-n smoke sweeps; \
                --preset arms the buggify fault catalog (timer skew, duplicates, reorders, \
                targeted drops, torn writes) in every scenario; --coverage runs the corpus-driven coverage search instead \
                of the per-seed sweep (--seeds A..B = master seed A, budget B−A; the \
                report gains a coverage block), --blind (with --coverage) keeps its \
                accounting but disables the corpus loop (the comparison baseline), and \
                --corpus-dir (with --coverage) persists the corpus in DIR/corpus.json \
                across invocations (loaded before the search, written back after — the CI \
                cache knob); --net-preset pins every scenario's link-level network block \
                to one shape: TOPOLOGY[:bw=BYTES_PER_SEC][:seed=S] \
                [:churn=SEED,CRASHES,MIN_MS,MAX_MS] with topologies full_mesh | ring | \
                ring_gradient | clustered, e.g. ring_gradient:bw=200000:churn=5,2,500,4000",
        finish: |s| check_fuzz(s.fuzz).map(Command::Fuzz),
    },
    Cmd {
        path: &["campaign", "run"],
        args: CAMPAIGN_RUN_ARGS,
        about: "run a bft-sim-campaign-v1 parameter grid (protocol × n × delay × net × \
                attack × seed), appending one line to the checkpoint journal every \
                checkpoint_every units so a kill at any instant loses at most one batch; \
                --resume continues from the journal (verifying the manifest hash, dropping \
                a line the kill cut short; a missing checkpoint starts fresh); --shard I/M \
                runs every M-th unit starting at I, for fan-out across processes or \
                machines; --max-units pauses after K units (at a batch boundary); the final \
                report is byte-identical whether the campaign ran straight through, was \
                killed and resumed, or was sharded and merged — at any --threads (0 = \
                all cores, at most 256)",
        finish: |s| Ok(Command::CampaignRun(s.campaign_run)),
    },
    Cmd {
        path: &["campaign", "merge"],
        args: CAMPAIGN_MERGE_ARGS,
        about: "merge every shard's checkpoint journal into the final report",
        finish: |s| Ok(Command::CampaignMerge(s.campaign_merge)),
    },
    Cmd {
        path: &["campaign", "status"],
        args: &[
            arg("JOURNAL", None, |s, v| {
                set(&mut s.campaign_status.journal, Ok(v.into()))
            }),
            arg("--json", None, |s, _| {
                set(&mut s.campaign_status.json, Ok(true))
            }),
        ],
        about: "replay a campaign's journal (a run's checkpoint file — finished, still \
                running or killed) and print units done out of those assigned, how many \
                ended clean, violated or panicked, the journal lines replayed and whether \
                a torn tail was dropped; --json prints the same as an object",
        finish: |s| Ok(Command::CampaignStatus(s.campaign_status)),
    },
    Cmd {
        path: &["repro"],
        args: &[arg("FILE.json", None, |s, v| {
            set(&mut s.repro_path, Ok(v.into()))
        })],
        about: "replay a bft-sim-repro-v1 file and confirm its oracle still fires",
        finish: |s| Ok(Command::Repro { path: s.repro_path }),
    },
    Cmd {
        path: &["trace"],
        args: TRACE_ARGS,
        about: "run one scenario (a protocol short name, or a scenario JSON file as \
                embedded in repro files) with full observability and print per-node \
                latency/decision histograms, per-link queueing stats (hottest bottleneck \
                links first, for scenarios with a bandwidth-capped net block), the \
                per-phase message-flow matrix, view timings and the last-K trace events",
        finish: |s| Ok(Command::Trace(s.trace)),
    },
    Cmd {
        path: &["list"],
        args: &[],
        about: "list protocols",
        finish: |_| Ok(Command::List),
    },
];

fn is_help(arg: &str) -> bool {
    matches!(arg, "--help" | "-h")
}

/// Parses argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let (first, rest) = match args.split_first() {
        Some((first, rest)) if first != "help" && !is_help(first) => (first, rest),
        _ => return Ok(Command::Help),
    };
    let named = |cmd: &&Cmd| cmd.path.iter().eq(args.iter().take(cmd.path.len()));
    match (COMMANDS.iter().find(named), first.as_str(), rest.first()) {
        (Some(cmd), ..) => drive(cmd, &args[cmd.path.len()..]),
        (None, "campaign", None) => Err(CliError::usage(
            "campaign needs a subcommand: run, merge or status",
        )),
        (None, "campaign", Some(sub)) if is_help(sub) => Ok(Command::Help),
        (None, "campaign", Some(sub)) => Err(CliError::usage(format!(
            "unknown campaign subcommand '{sub}' (use run, merge or status)"
        ))),
        (None, other, _) => Err(CliError::usage(format!("unknown command '{other}'"))),
    }
}

/// The one loop over argv. A `--token` must be a flag of `cmd` and, unless a
/// switch, takes the next token as its value whatever that looks like;
/// `--help` / `-h` anywhere else asks for the usage text; any other token
/// fills the next operand slot. Values are applied once the whole argv has
/// been read, the `--config` file first, so that flags override it wherever
/// it stands; `cmd.finish` then checks the result.
fn drive(cmd: &Cmd, args: &[String]) -> Result<Command, CliError> {
    let mut config = None;
    let mut settings: Vec<(Setter, &str)> = Vec::new();
    let mut operands = cmd.args.iter().filter(|row| !row.is_flag());
    let repeated = cmd.args.iter().find(|row| row.name.ends_with("..."));
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if is_help(arg) {
            return Ok(Command::Help);
        }
        let (row, value) = if arg.starts_with("--") {
            let named = cmd.args.iter().find(|row| row.name == arg);
            let flag = named.ok_or_else(|| CliError::usage(format!("unknown flag '{arg}'")))?;
            let value = match flag.value {
                Some(_) => {
                    let next = it.next();
                    next.ok_or_else(|| CliError::usage(format!("{arg} needs a value")))?
                }
                None => "",
            };
            (flag, value)
        } else {
            let slot = operands.next().or(repeated);
            let unexpected = || CliError::usage(format!("unexpected argument '{arg}'"));
            (slot.ok_or_else(unexpected)?, arg)
        };
        if arg != CONFIG {
            settings.push((row.set, value));
        } else if config.replace((row.set, value)).is_some() {
            return Err(CliError::usage("--config given twice"));
        }
    }
    if let Some(absent) = operands.next() {
        let name = cmd.path.join(" ");
        return Err(CliError::usage(format!("{name} needs {}", absent.name)));
    }
    let mut spec = Spec::default();
    for (set, value) in config.into_iter().chain(settings) {
        set(&mut spec, value)?;
    }
    (cmd.finish)(spec)
}

/// Most repetitions `run`/`compare` accept, and most runs a `fuzz --seeds`
/// range spans: every run's result is held until the report is written.
const MAX_REPS: usize = 1_000_000;

/// Most worker threads `fuzz` and `campaign run` start. Their reports are
/// byte-identical at any thread count, so the bound changes no output.
const MAX_THREADS: usize = 256;

/// `--threads`: 0 (all cores) to [`MAX_THREADS`].
fn threads(text: &str) -> Result<usize, CliError> {
    let n = num("--threads", text)?;
    if n > MAX_THREADS {
        return Err(CliError::usage(format!(
            "--threads must be at most {MAX_THREADS}"
        )));
    }
    Ok(n)
}

/// λ, μ and σ must be what a [`ScenarioSpec`] can hold ([`timing`]). The
/// results of all repetitions are held at once, so zero repetitions report
/// nothing and a count beyond `MAX_REPS` is a typo.
fn check_run(spec: RunSpec) -> Result<RunSpec, CliError> {
    node_count("--nodes", spec.nodes)?;
    if !(1..=MAX_REPS).contains(&spec.reps) {
        return Err(CliError::usage(format!(
            "--reps must be between 1 and {MAX_REPS}"
        )));
    }
    timing(&spec)?;
    Ok(spec)
}

/// λ and the delays in the whole microseconds a [`ScenarioSpec`] holds,
/// exactly: it turns them back into the same `f64` milliseconds. The engine
/// rejects a λ that is not positive.
fn timing(spec: &RunSpec) -> Result<(u64, DelaySpec), CliError> {
    let micros = |flag: &str, ms: f64| {
        let micros = (ms * 1000.0).round();
        // Below 2^64 the cast is exact.
        let exact = ms >= 0.0 && micros < 2f64.powi(64) && micros / 1000.0 == ms;
        let usage = format!("{flag} must be a whole number of microseconds, 0 to 2^64");
        exact.then_some(micros as u64).ok_or(CliError::usage(usage))
    };
    let lambda = micros("--lambda", spec.lambda_ms)?;
    if lambda == 0 {
        return Err(CliError::usage("--lambda must be positive"));
    }
    let delay = DelaySpec::Normal {
        mean_micros: micros("--delay-mu", spec.delay_mu)?,
        std_micros: micros("--delay-sigma", spec.delay_sigma)?,
    };
    Ok((lambda, delay))
}

/// `FuzzBudget` would clamp an intensity above 1000‰ while the scenario and
/// repro files recorded the unclamped figure; the coverage-only flags mean
/// nothing to the per-seed sweep.
fn check_fuzz(spec: FuzzSpec) -> Result<FuzzSpec, CliError> {
    if spec.intensity_permille > 1000 {
        return Err(CliError::usage(format!("bad {INTENSITY}")));
    }
    if spec.blind && !spec.coverage {
        return Err(CliError::usage("--blind only applies to --coverage runs"));
    }
    if spec.corpus_dir.is_some() && !spec.coverage {
        return Err(CliError::usage(
            "--corpus-dir only applies to --coverage runs",
        ));
    }
    Ok(spec)
}

/// Parses `--shard` syntax: `I/M` with `I < M`.
fn parse_shard(s: &str) -> Result<(u32, u32), CliError> {
    let bad = || CliError::usage(format!("bad --shard '{s}' (use I/M, e.g. 0/4)"));
    let (i, m) = s.split_once('/').ok_or_else(bad)?;
    let shard = (i.parse().map_err(|_| bad())?, m.parse().map_err(|_| bad())?);
    if shard.1 == 0 || shard.0 >= shard.1 {
        return Err(CliError::usage(format!(
            "bad --shard '{s}' (shard index must be below the shard count)"
        )));
    }
    Ok(shard)
}

/// Parses `--seeds` syntax: `A..B` (half-open) or a bare count `N` (= `0..N`),
/// spanning at most [`MAX_REPS`] seeds.
fn parse_seed_range(s: &str) -> Result<(u64, u64), CliError> {
    let bad = || CliError::usage(format!("bad --seeds '{s}' (use A..B or a count N)"));
    let (lo, hi) = match s.split_once("..") {
        Some((lo, hi)) => (
            lo.parse().map_err(|_| bad())?,
            hi.parse().map_err(|_| bad())?,
        ),
        None => (0, s.parse().map_err(|_| bad())?),
    };
    if hi <= lo {
        return Err(CliError::usage(format!("empty seed range '{s}'")));
    }
    if hi - lo > MAX_REPS as u64 {
        return Err(CliError::usage(format!(
            "--seeds '{s}' spans more than {MAX_REPS} runs"
        )));
    }
    Ok((lo, hi))
}

/// Parses a `--net-preset` spec:
/// `TOPOLOGY[:bw=BYTES_PER_SEC][:seed=S][:churn=SEED,CRASHES,MIN_MS,MAX_MS]`
/// — e.g. `ring_gradient:bw=200000:seed=7:churn=5,2,500,4000`.
pub(crate) fn parse_net_preset(s: &str) -> Result<bft_sim_simcheck::NetSpec, CliError> {
    use bft_sim_simcheck::{ChurnSpec, NetSpec, TopologyKind};

    let mut parts = s.split(':');
    let topo = parts.next().unwrap_or("");
    let topology = TopologyKind::parse(topo).ok_or_else(|| {
        CliError::usage(format!(
            "bad --net-preset topology '{topo}' \
             (use full_mesh, ring, ring_gradient, or clustered)"
        ))
    })?;
    let mut net = NetSpec {
        topology,
        bandwidth: None,
        topology_seed: 0,
        churn: None,
    };
    for part in parts {
        let (key, val) = part.split_once('=').ok_or_else(|| {
            CliError::usage(format!(
                "bad --net-preset part '{part}' (expected key=value)"
            ))
        })?;
        match key {
            "bw" => {
                net.bandwidth = Some(val.parse().map_err(|_| {
                    CliError::usage("bad --net-preset bw (bytes per second)".to_string())
                })?)
            }
            "seed" => {
                net.topology_seed = val
                    .parse()
                    .map_err(|_| CliError::usage("bad --net-preset seed".to_string()))?
            }
            "churn" => {
                let nums: Vec<u64> = val
                    .split(',')
                    .map(|v| v.parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| {
                        CliError::usage(
                            "bad --net-preset churn (SEED,CRASHES,MIN_MS,MAX_MS)".to_string(),
                        )
                    })?;
                let [seed, crashes, min_down_ms, max_down_ms] = nums[..] else {
                    return Err(CliError::usage(
                        "bad --net-preset churn (SEED,CRASHES,MIN_MS,MAX_MS)".to_string(),
                    ));
                };
                net.churn = Some(ChurnSpec {
                    seed,
                    crashes,
                    min_down_ms,
                    max_down_ms,
                });
            }
            other => {
                return Err(CliError::usage(format!(
                    "unknown --net-preset key '{other}' (use bw, seed, or churn)"
                )))
            }
        }
    }
    Ok(net)
}

/// Resolves `all` or a comma-separated protocol list.
fn parse_protocol_list(s: &str) -> Result<Vec<ProtocolKind>, CliError> {
    if s == "all" {
        return Ok(ProtocolKind::extended().to_vec());
    }
    s.split(',')
        .map(|name| {
            let name = name.trim();
            ProtocolKind::parse(name)
                .ok_or_else(|| CliError::usage(format!("unknown protocol '{name}'")))
        })
        .collect()
}

/// The scenario `run` and `compare` execute for `kind`: the paper's
/// defaults with the spec's size, timing and attack, which must be within
/// `kind`'s fault budget ([`AttackSpec::check_budget`]).
fn scenario(kind: ProtocolKind, spec: &RunSpec) -> Result<ScenarioSpec, CliError> {
    let (attack, partition) = parse_attack(&spec.attack)?;
    if let Some(attack) = attack {
        attack
            .check_budget(kind, spec.nodes)
            .map_err(|e| CliError::usage(format!("--attack {}: {e}", spec.attack)))?;
    }
    let (lambda_micros, delay) = timing(spec)?;
    Ok(ScenarioSpec {
        lambda_micros,
        delay,
        attack,
        partition,
        ..experiments::paper_spec(kind, spec.nodes)
    })
}

/// Runs `scenario` per the spec's repetitions: its point and, under the
/// spec's cost model, the estimated sustainable decisions per second.
///
/// # Errors
///
/// Returns [`CliError`] for an unknown cost model or if any repetition
/// reports a safety violation.
fn run_one(scenario: &ScenarioSpec, spec: &RunSpec) -> Result<Report, CliError> {
    use bft_simulator::experiments::cost::CostModel;
    let cost_model = match spec.cost.as_str() {
        "none" => None,
        "ed25519" => Some(CostModel::ed25519()),
        "rsa2048" => Some(CostModel::rsa2048()),
        "mac" => Some(CostModel::mac()),
        other => return Err(CliError::usage(format!("unknown cost model '{other}'"))),
    };
    let results = experiments::repeat(scenario, spec.reps, spec.seed).map_err(CliError::runtime)?;
    let point = figures::Point::of(scenario, &results, "").map_err(CliError::runtime)?;
    // The estimate reads the first repetition.
    let estimate = cost_model.map(|model| model.estimate(&results[0]).max_decisions_per_sec);
    Ok((point, estimate))
}

/// One protocol's row of `run` / `compare`: [`run_one`]'s result.
type Report = (figures::Point, Option<f64>);

/// Executes a parsed command, writing human or JSON output to stdout.
///
/// # Errors
///
/// Returns [`CliError`] for unknown protocols/attacks and simulation-level
/// failures; parse errors are reported by [`parse_args`].
pub fn execute(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            println!("{}", usage());
        }
        Command::List => {
            println!(
                "{:<14} {:<24} {:<10} responsive",
                "protocol", "network model", "measured"
            );
            for kind in ProtocolKind::extended() {
                println!(
                    "{:<14} {:<24} {:<10} {}",
                    kind.name(),
                    kind.network_assumption().to_string(),
                    format!("{} dec.", kind.measured_decisions()),
                    kind.responsive()
                );
            }
        }
        Command::Run(spec) => {
            let kind = ProtocolKind::parse(&spec.protocol)
                .ok_or_else(|| CliError::usage(format!("unknown protocol '{}'", spec.protocol)))?;
            let report = run_one(&scenario(kind, &spec)?, &spec)?;
            emit(&[report], spec.json);
        }
        Command::Compare(spec) => {
            let scenarios = ProtocolKind::all().map(|kind| scenario(kind, &spec));
            let mut reports = Vec::new();
            for scenario in scenarios.into_iter().collect::<Result<Vec<_>, _>>()? {
                reports.push(run_one(&scenario, &spec)?);
            }
            emit(&reports, spec.json);
        }
        Command::Fuzz(spec) => run_fuzz(&spec)?,
        Command::Repro { path } => run_repro(&path)?,
        Command::Trace(spec) => run_trace(&spec)?,
        Command::CampaignRun(spec) => {
            if let Some(report) = exec_campaign_run(&spec)? {
                emit_report(&report, spec.json, spec.report.as_deref())?;
            }
        }
        Command::CampaignMerge(spec) => {
            let report = exec_campaign_merge(&spec)?;
            emit_report(&report, spec.json, spec.report.as_deref())?;
        }
        Command::CampaignStatus(spec) => {
            emit_status(&exec_campaign_status(&spec.journal)?, spec.json);
        }
        Command::Fig(which) => run_figure(which),
        Command::Table(which) => run_table(which),
    }
    Ok(())
}

/// Serialises a fuzz report as the `bft-sim fuzz --json` document.
/// `repro_paths` pairs with `report.outcomes` (one written repro file per
/// violating scenario). Deterministic: byte-identical for the same report,
/// which is itself byte-identical at any thread count.
pub fn fuzz_report_json(
    spec: &FuzzSpec,
    report: &bft_sim_simcheck::FuzzReport,
    repro_paths: &[String],
) -> Json {
    let outcomes = report
        .outcomes
        .iter()
        .zip(repro_paths)
        .map(|(o, path)| {
            Json::obj([
                ("scenario_seed", Json::from(o.scenario_seed)),
                (
                    "violations",
                    Json::Arr(
                        o.violations
                            .iter()
                            .map(|v| Json::from(v.as_str()))
                            .collect(),
                    ),
                ),
                ("repro", Json::from(path.as_str())),
            ])
        })
        .collect();
    let failures = report
        .failures
        .iter()
        .map(|f| {
            let mut pairs = vec![
                ("scenario_seed".to_string(), Json::from(f.scenario_seed)),
                ("panic".to_string(), Json::from(f.message.as_str())),
            ];
            if !f.last_events.is_empty() {
                pairs.push((
                    "last_events".to_string(),
                    Json::Arr(f.last_events.iter().map(|e| e.to_json()).collect()),
                ));
            }
            Json::Obj(pairs)
        })
        .collect();
    let mut pairs = vec![
        (
            "seeds".to_string(),
            Json::obj([
                ("lo", Json::from(spec.seeds.0)),
                ("hi", Json::from(spec.seeds.1)),
            ]),
        ),
        ("runs".to_string(), Json::from(report.runs)),
        (
            "events_processed".to_string(),
            Json::from(report.events_processed),
        ),
        (
            "skipped_cancelled_timers".to_string(),
            Json::from(report.skipped_cancelled_timers),
        ),
        (
            "skipped_excluded_nodes".to_string(),
            Json::from(report.skipped_excluded_nodes),
        ),
        (
            "violating_scenarios".to_string(),
            Json::from(report.outcomes.len()),
        ),
        ("outcomes".to_string(), Json::Arr(outcomes)),
        (
            "panicked_scenarios".to_string(),
            Json::from(report.panicked),
        ),
        ("failures".to_string(), Json::Arr(failures)),
    ];
    if spec.fault_preset != FaultPreset::Calm {
        pairs.push((
            "fault_preset".to_string(),
            Json::from(spec.fault_preset.name()),
        ));
    }
    if let Some(coverage) = &report.coverage {
        pairs.push(("coverage".to_string(), coverage.to_json()));
    }
    if let Some(obs) = &report.observability {
        pairs.push(("observability".to_string(), obs.to_json()));
    }
    Json::Obj(pairs)
}

/// Runs a `bft-sim fuzz` sweep: per-seed scenario generation (sharded across
/// `--threads` workers), oracle checks, shrinking, and one repro file per
/// violation.
fn run_fuzz(spec: &FuzzSpec) -> Result<(), CliError> {
    let protocols = parse_protocol_list(&spec.protocols)?;
    let net_override = spec
        .net_preset
        .as_deref()
        .map(parse_net_preset)
        .transpose()?;
    let opts = bft_sim_simcheck::FuzzOptions {
        protocols,
        intensity_permille: spec.intensity_permille,
        max_actions: spec.max_actions,
        inject_bug: spec.inject_bug,
        threads: spec.threads,
        observability: spec.observability,
        n_override: spec.n_override,
        net_override,
        fault_preset: spec.fault_preset,
        ..bft_sim_simcheck::FuzzOptions::default()
    };
    let start = std::time::Instant::now();
    let report = if spec.coverage {
        let budget = spec.seeds.1.saturating_sub(spec.seeds.0);
        let dir = spec.corpus_dir.as_ref().map(std::path::Path::new);
        bft_sim_simcheck::fuzz_coverage_in_dir(spec.seeds.0, budget, !spec.blind, &opts, dir)
            .map_err(CliError::runtime)?
    } else {
        bft_sim_simcheck::fuzz_many(spec.seeds.0..spec.seeds.1, &opts).map_err(CliError::runtime)?
    };
    let wall = start.elapsed().as_secs_f64();
    let mut repro_paths = Vec::new();
    for outcome in &report.outcomes {
        let path = std::path::Path::new(&spec.out_dir).join(format!(
            "repro-seed{}-{}.json",
            outcome.scenario_seed, outcome.repro.oracle
        ));
        std::fs::create_dir_all(&spec.out_dir)
            .map_err(|e| CliError::runtime(format!("cannot create {}: {e}", spec.out_dir)))?;
        std::fs::write(&path, outcome.repro.to_json().dump_pretty())
            .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", path.display())))?;
        repro_paths.push(path.display().to_string());
    }
    if spec.json {
        println!(
            "{}",
            fuzz_report_json(spec, &report, &repro_paths).dump_pretty()
        );
    } else {
        for (outcome, path) in report.outcomes.iter().zip(&repro_paths) {
            println!("seed {}:", outcome.scenario_seed);
            for v in &outcome.violations {
                println!("  {v}");
            }
            println!("  shrunk repro -> {path}");
        }
        for failure in &report.failures {
            println!(
                "seed {}: PANICKED: {}",
                failure.scenario_seed, failure.message
            );
        }
        if let Some(coverage) = &report.coverage {
            println!(
                "coverage [{}]: {} distinct fingerprints over {} runs \
                 ({} mutated, {} fresh, corpus {}, {} new/1k)",
                if coverage.corpus_mode {
                    "corpus"
                } else {
                    "blind"
                },
                coverage.distinct_fingerprints,
                coverage.runs,
                coverage.mutated_runs,
                coverage.fresh_runs,
                coverage.corpus_size,
                coverage.new_per_1k(),
            );
            if coverage.loaded_corpus > 0 {
                println!(
                    "corpus dir: {} entries loaded from a previous search",
                    coverage.loaded_corpus
                );
            }
            let curve: Vec<String> = coverage
                .curve
                .iter()
                .map(|&(runs, distinct)| format!("{runs}:{distinct}"))
                .collect();
            println!("coverage curve: {}", curve.join(" "));
        }
        println!(
            "fuzz: {} scenarios ({} violating, {} panicked), {} events, {:.1} ms",
            report.runs,
            report.outcomes.len(),
            report.failures.len(),
            report.events_processed,
            wall * 1e3,
        );
    }
    if report.clean() {
        Ok(())
    } else {
        Err(CliError::violation(format!(
            "{} of {} scenarios violated an oracle, {} panicked",
            report.outcomes.len(),
            report.runs + report.failures.len() as u64,
            report.failures.len()
        )))
    }
}

/// Replays a repro file and reports whether its oracle still fires.
fn run_repro(path: &str) -> Result<(), CliError> {
    let repro =
        json::load(path, "repro", bft_sim_simcheck::Repro::from_json).map_err(CliError::repro)?;
    let violation = repro
        .check()
        .map_err(|e| CliError::repro(format!("{path}: {e}")))?;
    println!("reproduced: {violation}");
    Ok(())
}

/// Runs one scenario with full observability and prints its instrumentation.
fn run_trace(spec: &TraceSpec) -> Result<(), CliError> {
    use bft_sim_core::trace::{TraceEvent, TraceLevel};
    use bft_sim_simcheck::{RunMode, ScenarioSpec};

    let mut scenario = if std::path::Path::new(&spec.scenario).is_file() {
        json::load(&spec.scenario, "scenario", ScenarioSpec::from_json).map_err(CliError::usage)?
    } else if let Some(kind) = ProtocolKind::parse(&spec.scenario) {
        ScenarioSpec::baseline(kind)
    } else {
        return Err(CliError::usage(format!(
            "'{}' is neither a protocol name nor a scenario JSON file",
            spec.scenario
        )));
    };
    if let Some(seed) = spec.seed {
        scenario.seed = seed;
    }
    let run = scenario
        .run_observed(RunMode::Generate, TraceLevel::Messages)
        .map_err(CliError::runtime)?;
    let obs = run
        .result
        .observability
        .as_ref()
        .expect("trace always runs with observability on");
    let trace = &run.result.trace;
    let recent: Vec<TraceEvent> = trace
        .events()
        .skip(trace.len().saturating_sub(spec.last_k))
        .collect();

    if spec.json {
        // Scenario + observability only: both derive purely from simulated
        // quantities, so this document is byte-identical from run to run.
        let doc = Json::obj([
            ("scenario", scenario.to_json()),
            ("events_processed", Json::from(run.result.events_processed)),
            (
                "decisions_completed",
                Json::from(run.result.decisions_completed()),
            ),
            ("observability", obs.to_json(spec.last_k, &recent)),
        ]);
        println!("{}", doc.dump_pretty());
        return Ok(());
    }

    println!(
        "scenario: {} n={} seed={} ({} events, {} decisions{})",
        scenario.protocol.name(),
        scenario.n,
        scenario.seed,
        run.result.events_processed,
        run.result.decisions_completed(),
        if run.violations.is_empty() {
            ", clean".to_string()
        } else {
            format!(", {} violations", run.violations.len())
        },
    );
    println!();
    println!("delivery latency (µs):");
    println!(
        "{:<6} {:>8} {:>10} {:>10} {:>10}",
        "node", "count", "mean", "min", "max"
    );
    for (node, h) in obs.delivery_latency.iter().enumerate() {
        if h.is_empty() {
            continue;
        }
        println!(
            "n{:<5} {:>8} {:>10.1} {:>10} {:>10}",
            node,
            h.count(),
            h.mean_micros(),
            h.min_micros(),
            h.max_micros()
        );
    }
    println!();
    println!("decision intervals (µs):");
    println!(
        "{:<6} {:>8} {:>10} {:>10} {:>10}",
        "node", "count", "mean", "min", "max"
    );
    for (node, h) in obs.decision_interval.iter().enumerate() {
        if h.is_empty() {
            continue;
        }
        println!(
            "n{:<5} {:>8} {:>10.1} {:>10} {:>10}",
            node,
            h.count(),
            h.mean_micros(),
            h.min_micros(),
            h.max_micros()
        );
    }
    if !obs.link_queues.is_empty() {
        println!();
        println!("link queueing (µs) — hottest links first:");
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>10}",
            "link", "waits", "mean wait", "max wait", "peak depth"
        );
        let mut links: Vec<_> = obs.link_queues.iter().collect();
        // Hottest first: total time spent waiting on the link, then the
        // (src, dst) order for a deterministic tie-break.
        links.sort_by(|a, b| {
            b.queued
                .sum_micros()
                .cmp(&a.queued.sum_micros())
                .then((a.src, a.dst).cmp(&(b.src, b.dst)))
        });
        for l in links {
            println!(
                "n{} -> n{:<5} {:>8} {:>10.1} {:>10} {:>10}",
                l.src,
                l.dst,
                l.queued.count(),
                l.queued.mean_micros(),
                l.queued.max_micros(),
                l.peak_depth
            );
        }
        println!(
            "  total: {} waits, mean {:.1} µs",
            obs.link_queue_delay.count(),
            obs.link_queue_delay.mean_micros()
        );
    }
    println!();
    println!("message flows (src rows × dst columns):");
    for flow in &obs.flows {
        println!(
            "  phase {} ({} messages):",
            flow.phase,
            obs.phase_total(&flow.phase)
        );
        for src in 0..obs.nodes {
            let row: Vec<String> = (0..obs.nodes)
                .map(|dst| format!("{:>6}", flow.get(src, dst)))
                .collect();
            println!("    n{src}: {}", row.join(" "));
        }
    }
    if !obs.views.is_empty() {
        println!();
        println!("view timings (µs):");
        println!(
            "{:<6} {:>12} {:>12} {:>8}",
            "view", "first entry", "last entry", "entries"
        );
        for v in &obs.views {
            println!(
                "{:<6} {:>12} {:>12} {:>8}",
                v.view,
                v.first_entry.as_micros(),
                v.last_entry.as_micros(),
                v.entries
            );
        }
    }
    println!();
    println!("last {} events:", recent.len());
    for e in &recent {
        println!(
            "  t={:<10} n{:<3} {:?}",
            e.time.as_micros(),
            e.node.as_u32(),
            e.kind
        );
    }
    Ok(())
}

/// Prints the rows as a table or as JSON, where an absent estimate is
/// omitted.
fn emit(reports: &[Report], json: bool) {
    if json {
        let rows = reports.iter().map(|(p, estimate)| {
            let mut pairs = vec![
                ("protocol", Json::from(p.protocol.name())),
                ("latency_mean_s", Json::from(p.latency.mean)),
                ("latency_sd_s", Json::from(p.latency.std_dev)),
                ("messages_mean", Json::from(p.messages.mean)),
                ("messages_sd", Json::from(p.messages.std_dev)),
                ("timeout_rate", Json::from(p.timeout_rate)),
                ("reps", Json::from(p.latency.count)),
            ];
            pairs.extend(estimate.map(|t| ("est_max_decisions_per_sec", Json::from(t))));
            Json::obj(pairs)
        });
        println!("{}", Json::Arr(rows.collect()).dump_pretty());
        return;
    }
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>9} {:>14}",
        "protocol", "lat (s)", "±sd", "msgs/dec", "±sd", "timeouts", "est. dec/s"
    );
    for (p, estimate) in reports {
        let throughput = estimate.map_or_else(|| "-".into(), |t| format!("{t:.1}"));
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>12.1} {:>12.1} {:>8.0}% {:>14}",
            p.protocol.name(),
            p.latency.mean,
            p.latency.std_dev,
            p.messages.mean,
            p.messages.std_dev,
            p.timeout_rate * 100.0,
            throughput
        );
    }
}

/// `bft-sim fig N`: figure N at the paper's settings (`figures::N`,
/// `figures::REPS` and the per-figure grids and seeds), with the paper's
/// findings printed beside ours.
fn run_figure(which: u8) {
    use figures::{N, REPS};
    let (seed, resolve_s) = (figures::seed(which), figures::FIG6_RESOLVE_S);
    let (title, setting, points) = match which {
        2 => {
            println!("\n=== Fig. 2 — simulation speed & scale ===");
            println!("PBFT, lambda = 1000 ms, delays N(250, 50); wall-clock per run\n");
            println!("{:<6} {:>24} {:>12}   paper", "n", "ours (wall)", "events");
            for row in figures::fig2(&figures::FIG2_SIZES, figures::FIG2_REPS, seed) {
                let wall = fmt_summary(&row.wall_ms, "ms");
                let paper = figures::fig2_paper_column(row.n);
                println!("{:<6} {wall:>24} {:>12}   {paper}", row.n, row.events);
            }
            return;
        }
        3 => (
            "performance across different delays",
            format!("all 8 protocols, n = {N}, lambda = 1000 ms"),
            figures::fig3(N, REPS, seed),
        ),
        4 => (
            "latency with an overestimated timeout",
            format!("n = {N}, delays N(250, 50)"),
            figures::fig4(N, REPS, seed, &figures::FIG4_LAMBDAS),
        ),
        5 => (
            "latency with an underestimated timeout",
            format!("partially synchronous protocols, n = {N}, N(250, 50)"),
            figures::fig5(N, REPS, seed, &figures::FIG5_LAMBDAS),
        ),
        6 => (
            "time usage under a network partition attack",
            format!("halved network, resolves at {resolve_s} s; n = {N}, lambda = 1000 ms"),
            figures::fig6(N, REPS, seed, resolve_s),
        ),
        7 => (
            "time usage vs number of fail-stop nodes",
            format!("n = {N}, lambda = 1000 ms, delays N(1000, 300)"),
            figures::fig7(N, REPS, seed, &figures::FIG7_CRASHES),
        ),
        8 => (
            "static (left) and rushing-adaptive (right) attacks on ADD+",
            format!("n = {N}, f = (n-1)/2, lambda = 1000 ms"),
            figures::fig8(N, REPS, seed),
        ),
        _ => return print_fig9(),
    };
    println!("\n=== Fig. {which} — {title} ===\n{setting}, {REPS} repetitions\n");
    print_latency_table(&points);
    let lat = |protocol: &str, x: &str| latency(&points, protocol, x);
    match which {
        3 => {
            let [hs, pbft] = ["hotstuff-ns", "pbft"].map(|p| lat(p, "N(250,50)"));
            println!("\nHotStuff+NS vs PBFT under N(250,50):   {hs:.2}s vs {pbft:.2}s");
            let [hs, pbft] = ["hotstuff-ns", "pbft"].map(|p| lat(p, "N(1000,1000)"));
            println!("HotStuff+NS vs PBFT under N(1000,1000): {hs:.2}s vs {pbft:.2}s");
        }
        4 => {
            let expected = ["timer-paced: expected ~3x", "responsive: expected ~1x"];
            println!();
            for kind in ProtocolKind::all() {
                let name = kind.name();
                let growth = lat(name, "λ=3000") / lat(name, "λ=1000").max(1e-9);
                let expected = expected[usize::from(kind.responsive())];
                println!("{name:<12} latency growth 1000->3000 ms: {growth:5.2}x ({expected})");
            }
        }
        5 => {
            let [low, ok] = ["λ=150", "λ=1000"].map(|x| lat("hotstuff-ns", x));
            println!("\nHotStuff+NS at λ=150 vs λ=1000: {low:.1}s vs {ok:.1}s (paper: 5.3x degradation, up to ~80 s worst case)");
            let [low, ok] = ["λ=150", "λ=1000"].map(|x| lat("librabft", x));
            println!("LibraBFT    at λ=150 vs λ=1000: {low:.1}s vs {ok:.1}s (paper: flat)");
        }
        6 => {
            println!();
            for p in &points {
                let (name, extra) = (p.protocol.name(), p.latency.mean - resolve_s as f64);
                println!("{name:<12} terminates {extra:7.1} s after the partition resolves");
            }
        }
        8 => {
            let [s1, s2, s3] = ["add-v1", "add-v2", "add-v3"].map(|v| lat(v, "static"));
            let [a1, a2, a3] = ["add-v1", "add-v2", "add-v3"].map(|v| lat(v, "adaptive"));
            println!("\nstatic:   v1 {s1:.1}s  v2 {s2:.1}s  v3 {s3:.1}s   (paper: v1 grows ~f iterations, v2/v3 flat)");
            println!("adaptive: v1 {a1:.1}s  v2 {a2:.1}s  v3 {a3:.1}s   (paper: v2 grows ~f iterations, v3 flat)");
        }
        _ => {} // Fig. 7 is its table
    }
}

/// Fig. 9: each node's view timeline, then how many distinct views the
/// nodes hold at each second of simulated time.
fn print_fig9() {
    use std::collections::HashSet;
    let (n, seed) = (figures::N, figures::FIG9_SEED);
    println!("\n=== Fig. 9 — per-node views during HotStuff+NS execution ===");
    println!("n = {n}, lambda = 150 ms, delays N(250, 50), seed {seed}\n");
    let timelines = figures::fig9(n, seed);
    let last_entries = timelines.iter().flat_map(|(_, t)| t.last());
    let end = last_entries.fold(0.0f64, |end, &(t, _)| end.max(t));
    println!("run spanned {end:.1} s of simulated time\n");
    for (node, timeline) in &timelines {
        let entries = timeline.iter().map(|(t, v)| format!("{t:.1}s->v{v}"));
        println!("{node}: {}", entries.collect::<Vec<_>>().join(" "));
    }
    println!("\nview divergence per second (1 = synchronized):");
    let mut strip = String::new();
    for sec in 0..end.ceil() as u64 + 1 {
        // The view a node holds at `sec`: its timeline is in time order.
        let now = sec as f64;
        let held = |t: &[(f64, u64)]| t.iter().rev().find(|e| e.0 <= now).map_or(0, |e| e.1);
        let views: HashSet<u64> = timelines.iter().map(|(_, t)| held(t)).collect();
        strip.push(char::from_digit(views.len().min(9) as u32, 10).unwrap_or('9'));
        if sec % 80 == 79 {
            strip.push('\n');
        }
    }
    println!("{strip}");
}

/// `bft-sim table N`: our implementation line counts, then the paper's.
fn run_table(which: u8) {
    let detail = "implementation LoC (non-blank, non-comment, excluding unit tests)";
    if which == 1 {
        println!("\n=== Table I — implemented BFT protocols ===\n{detail}\n");
        println!("{:<14} {:<24} {:>6}", "protocol", "network model", "LoC");
        for row in loc::table1() {
            println!("{:<14} {:<24} {:>6}", row.name, row.network, row.loc);
        }
        println!("\npaper (JavaScript): ADD+ 304/307/376, Algorand 387, async BA 265,");
        println!("                    PBFT 606, HotStuff+NS 502, LibraBFT 568");
    } else {
        println!("\n=== Table II — implemented attacks ===\n{detail}\n");
        println!(
            "{:<20} {:<22} {:>6}",
            "attack", "attacker capability", "LoC"
        );
        for row in loc::table2() {
            println!("{:<20} {:<22} {:>6}", row.name, row.capability, row.loc);
        }
        println!("\npaper (JavaScript): partition 86, ADD+ static 86, ADD+ adaptive 117");
    }
}

/// Mean latency of `protocol` at `x`, NaN when the figure has no such point.
fn latency(points: &[figures::Point], protocol: &str, x: &str) -> f64 {
    let point = points
        .iter()
        .find(|p| p.protocol.name() == protocol && p.x == x);
    point.map_or(f64::NAN, |p| p.latency.mean)
}

/// Mean ± sd with a unit, `-` for an empty summary.
fn fmt_summary(s: &bft_sim_core::metrics::Summary, unit: &str) -> String {
    if s.count == 0 {
        return "-".to_string();
    }
    format!("{:9.3} ± {:7.3} {unit}", s.mean, s.std_dev)
}

/// Figure points as one latency / messages / timeout-share row each.
fn print_latency_table(points: &[figures::Point]) {
    println!(
        "{:<12} {:<16} {:>24} {:>24} {:>9}",
        "protocol", "x", "latency (s)", "msgs/decision", "timeouts"
    );
    for p in points {
        println!(
            "{:<12} {:<16} {:>24} {:>24} {:>8.0}%",
            p.protocol.name(),
            p.x,
            fmt_summary(&p.latency, "s"),
            fmt_summary(&p.messages, ""),
            p.timeout_rate * 100.0
        );
    }
}

/// A line break in the usage text: the prose and the continuation lines of a
/// synopsis start at column 21.
const BREAK: &str = "\n                     ";

/// Appends `words` to `out` separated by spaces, breaking before a word that
/// would pass column 78.
fn wrap(out: &mut String, words: impl Iterator<Item = impl AsRef<str>>) {
    for word in words {
        let line = out.rsplit('\n').next().unwrap_or_default();
        let full = line.chars().count() + 1 + word.as_ref().chars().count() > 78;
        // Nothing separates a line's first word from its indent.
        if !line.trim().is_empty() {
            out.push_str(if full { BREAK } else { " " });
        }
        out.push_str(word.as_ref());
    }
}

/// One command's part of the usage text: the synopsis its table row
/// generates, then its prose.
fn section(cmd: &Cmd) -> String {
    let mut out = format!("    bft-sim {}", cmd.path.join(" "));
    let synopsis = cmd.args.iter().map(|row| match row.value {
        Some(value) => format!("[{} {value}]", row.name),
        None if row.is_flag() => format!("[{}]", row.name),
        None => row.name.to_string(),
    });
    wrap(&mut out, synopsis);
    out.push_str(BREAK);
    wrap(&mut out, cmd.about.split_whitespace());
    out
}

/// The usage text: a generated section per row of the command table.
pub fn usage() -> String {
    let sections: Vec<String> = COMMANDS.iter().map(section).collect();
    format!(
        "bft-sim — discrete-event simulator for BFT protocols

USAGE:
{}
    bft-sim help     print this text (as --help or -h does anywhere)

ATTACK SPECS:
    none | failstop:K | partition:START_MS:END_MS | add-static:K | add-adaptive

EXIT CODES:
    0 success   1 runtime failure   2 usage/parse error
    3 fuzz/campaign found violations or panicked runs
    4 artifact error (repro, manifest, or checkpoint file)   101 panic",
        sections.join("\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn fmt_summary_handles_empty_summaries() {
        use bft_sim_core::metrics::Summary;
        assert_eq!(fmt_summary(&Summary::default(), "s"), "-");
        assert!(fmt_summary(&Summary::of(&[1.0, 2.0]), "s").contains("1.500"));
    }

    #[test]
    fn parses_commands() {
        assert_eq!(parse_args(&args(&["list"])).unwrap(), Command::List);
        assert_eq!(parse_args(&args(&["fig", "5"])).unwrap(), Command::Fig(5));
        assert_eq!(
            parse_args(&args(&["table", "1"])).unwrap(),
            Command::Table(1)
        );
        assert!(parse_args(&args(&["fig", "12"])).is_err());
        assert!(parse_args(&args(&["bogus"])).is_err());
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn trailing_arguments_are_usage_errors() {
        for (argv, extra) in [
            (&["fig", "2", "extra"][..], "extra"),
            (&["table", "1", "junk"][..], "junk"),
            (&["list", "junk"][..], "junk"),
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert_eq!(err.code, 2, "{argv:?}");
            assert_eq!(err.message, format!("unexpected argument '{extra}'"));
        }
    }

    #[test]
    fn the_scheduler_flag_is_gone() {
        for argv in [
            &["fuzz", "--scheduler", "heap"][..],
            &["trace", "pbft", "--scheduler", "heap"][..],
            &["campaign", "run", "m.json", "--scheduler", "heap"][..],
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert_eq!(err.code, 2, "{argv:?}");
            assert_eq!(err.message, "unknown flag '--scheduler'", "{argv:?}");
        }
    }

    #[test]
    fn degenerate_run_parameters_are_usage_errors() {
        for (flag, value) in [
            ("--nodes", "0"),
            ("--nodes", "3"),
            ("--lambda", "0"),
            ("--lambda", "-1"),
            ("--lambda", "nan"),
            ("--lambda", "inf"),
            ("--delay-mu", "nan"),
            ("--delay-sigma", "inf"),
            ("--delay-sigma", "-1"),
            ("--nodes", "4294967297"),
            ("--reps", "0"),
            ("--reps", "1000001"),
            ("--reps", "18446744073709551615"),
        ] {
            for cmd in ["run", "compare"] {
                let err = parse_args(&args(&[cmd, flag, value])).unwrap_err();
                assert_eq!(err.code, 2, "{cmd} {flag} {value}");
                assert!(err.message.contains(flag), "{cmd} {flag} {value}: {err}");
            }
        }
        assert!(parse_args(&args(&["run", "--nodes", "4", "--lambda", "0.5"])).is_ok());
    }

    #[test]
    fn parses_run_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--protocol",
            "librabft",
            "--nodes",
            "7",
            "--lambda",
            "500",
            "--reps",
            "3",
            "--attack",
            "failstop:2",
            "--json",
        ]))
        .unwrap();
        let Command::Run(spec) = cmd else {
            panic!("expected run");
        };
        assert_eq!(spec.protocol, "librabft");
        assert_eq!(spec.nodes, 7);
        assert_eq!(spec.lambda_ms, 500.0);
        assert_eq!(spec.reps, 3);
        assert!(spec.json);
        assert_eq!(
            parse_attack(&spec.attack).unwrap(),
            (Some(AttackSpec::FailStopLast { k: 2 }), None)
        );
    }

    #[test]
    fn parses_attacks() {
        assert_eq!(parse_attack("none").unwrap(), (None, None));
        let partition = PartitionSpec {
            start_ms: 100,
            end_ms: 2000,
            drop: false,
        };
        assert_eq!(
            parse_attack("partition:100:2000").unwrap(),
            (None, Some(partition))
        );
        assert_eq!(
            parse_attack("add-adaptive").unwrap(),
            (Some(AttackSpec::AddAdaptive), None)
        );
        assert!(parse_attack("meteor").is_err());
        assert!(parse_attack("partition:10:5").is_err(), "inverted window");
    }

    #[test]
    fn attacks_beyond_the_fault_budget_are_usage_errors() {
        let spec = |attack: &str| RunSpec {
            attack: attack.into(),
            ..RunSpec::default()
        };
        for attack in ["failstop:6", "failstop:99", "add-static:6"] {
            let err = scenario(ProtocolKind::Pbft, &spec(attack)).unwrap_err();
            assert_eq!(err.code, 2, "{attack}");
            assert!(err.message.contains("pbft's fault budget f = 5"), "{err}");
        }
        // ADD+ tolerates ⌊(n−1)/2⌋ = 7 at n = 16. `compare` fails whole,
        // naming the first protocol whose budget is exceeded.
        assert!(scenario(ProtocolKind::AddV1, &spec("failstop:7")).is_ok());
        let err = execute(Command::Compare(spec("failstop:6"))).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("algorand's fault budget"), "{err}");
    }

    #[test]
    fn timings_must_be_whole_microseconds() {
        let spec = |lambda_ms, delay_mu| RunSpec {
            lambda_ms,
            delay_mu,
            ..RunSpec::default()
        };
        let (lambda, delay) = timing(&spec(0.5, 1.1)).unwrap();
        assert_eq!(lambda, 500);
        assert_eq!(delay.to_dist(), bft_sim_core::dist::Dist::normal(1.1, 50.0));
        for (lambda, mu) in [
            (0.0001, 250.0),
            (1000.0, -5.0),
            (1000.0, 0.0005),
            (1e17, 250.0),
        ] {
            assert_eq!(
                timing(&spec(lambda, mu)).unwrap_err().code,
                2,
                "{lambda} {mu}"
            );
        }
    }

    #[test]
    fn run_one_produces_a_report() {
        let spec = RunSpec {
            nodes: 4,
            reps: 2,
            ..RunSpec::default()
        };
        let (point, _) = run_one(&scenario(ProtocolKind::Pbft, &spec).unwrap(), &spec).unwrap();
        assert_eq!(point.protocol, ProtocolKind::Pbft);
        assert!(point.latency.mean > 0.0);
        assert_eq!(point.timeout_rate, 0.0);
    }

    #[test]
    fn unknown_protocol_is_an_error() {
        let spec = RunSpec {
            protocol: "raft".into(),
            ..RunSpec::default()
        };
        assert!(execute(Command::Run(spec)).is_err());
    }

    #[test]
    fn parses_fuzz_flags() {
        let cmd = parse_args(&args(&[
            "fuzz",
            "--seeds",
            "3..9",
            "--protocols",
            "pbft,hotstuff-ns",
            "--intensity",
            "250",
            "--max-actions",
            "12",
            "--inject-bug",
            "--out",
            "repros",
            "--json",
            "--threads",
            "4",
            "--preset",
            "chaos",
            "--coverage",
            "--blind",
            "--corpus-dir",
            "corpus",
            "--net-preset",
            "ring_gradient:bw=200000:churn=5,2,500,4000",
        ]))
        .unwrap();
        let Command::Fuzz(spec) = cmd else {
            panic!("expected fuzz");
        };
        assert_eq!(spec.seeds, (3, 9));
        assert_eq!(spec.protocols, "pbft,hotstuff-ns");
        assert_eq!(spec.intensity_permille, 250);
        assert_eq!(spec.max_actions, 12);
        assert!(spec.inject_bug);
        assert_eq!(spec.out_dir, "repros");
        assert!(spec.json);
        assert_eq!(spec.threads, 4);
        assert_eq!(spec.fault_preset, FaultPreset::Chaos);
        assert!(spec.coverage);
        assert!(spec.blind);
        assert_eq!(spec.corpus_dir.as_deref(), Some("corpus"));
        assert_eq!(
            spec.net_preset.as_deref(),
            Some("ring_gradient:bw=200000:churn=5,2,500,4000")
        );
        assert!(parse_args(&args(&["fuzz", "--preset", "wild"])).is_err());
        assert!(
            parse_args(&args(&["fuzz", "--blind"])).is_err(),
            "--blind without --coverage must be a usage error"
        );
        assert!(
            parse_args(&args(&["fuzz", "--corpus-dir", "c"])).is_err(),
            "--corpus-dir without --coverage must be a usage error"
        );
        assert!(
            parse_args(&args(&["fuzz", "--net-preset", "torus"])).is_err(),
            "an unknown topology must be rejected at parse time"
        );
        assert_eq!(
            parse_args(&args(&["fuzz"])).unwrap(),
            Command::Fuzz(FuzzSpec::default())
        );
        assert!(!FuzzSpec::default().observability);
        assert!(parse_args(&args(&["fuzz", "--threads", "x"])).is_err());
        let Command::Fuzz(spec) = parse_args(&args(&["fuzz", "--obs"])).unwrap() else {
            panic!("expected fuzz");
        };
        assert!(spec.observability);
    }

    #[test]
    fn parses_net_presets() {
        use bft_sim_simcheck::{ChurnSpec, NetSpec, TopologyKind};

        assert_eq!(
            parse_net_preset("full_mesh").unwrap(),
            NetSpec {
                topology: TopologyKind::FullMesh,
                bandwidth: None,
                topology_seed: 0,
                churn: None,
            }
        );
        assert_eq!(
            parse_net_preset("ring_gradient:bw=200000:seed=7:churn=5,2,500,4000").unwrap(),
            NetSpec {
                topology: TopologyKind::RingGradient,
                bandwidth: Some(200_000),
                topology_seed: 7,
                churn: Some(ChurnSpec {
                    seed: 5,
                    crashes: 2,
                    min_down_ms: 500,
                    max_down_ms: 4_000,
                }),
            }
        );
        for bad in [
            "",
            "torus",
            "ring:bw",
            "ring:bw=fast",
            "ring:churn=5,2",
            "ring:lanes=4",
        ] {
            assert!(parse_net_preset(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parses_trace_flags() {
        let cmd = parse_args(&args(&[
            "trace", "pbft", "--seed", "11", "--last-k", "16", "--json",
        ]))
        .unwrap();
        let Command::Trace(spec) = cmd else {
            panic!("expected trace");
        };
        assert_eq!(spec.scenario, "pbft");
        assert_eq!(spec.seed, Some(11));
        assert_eq!(spec.last_k, 16);
        assert!(spec.json);

        let err = parse_args(&args(&["trace"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(parse_args(&args(&["trace", "pbft", "extra"])).is_err());
        assert!(parse_args(&args(&["trace", "pbft", "--last-k", "x"])).is_err());
    }

    #[test]
    fn trace_command_runs_for_pbft_and_hotstuff() {
        for protocol in ["pbft", "hotstuff-ns"] {
            execute(Command::Trace(TraceSpec {
                scenario: protocol.into(),
                json: true,
                ..TraceSpec::default()
            }))
            .unwrap_or_else(|e| panic!("trace {protocol} failed: {e}"));
        }
        let err = execute(Command::Trace(TraceSpec {
            scenario: "raft".into(),
            ..TraceSpec::default()
        }))
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("neither"), "{err}");
    }

    #[test]
    fn error_constructors_carry_the_documented_codes() {
        assert_eq!(CliError::runtime("x").code, 1);
        assert_eq!(CliError::usage("x").code, 2);
        assert_eq!(CliError::violation("x").code, 3);
        assert_eq!(CliError::repro("x").code, 4);
    }

    /// `cmd`'s path and a stand-in for each operand, then `tail`.
    fn argv_for(cmd: &Cmd, tail: &[&str]) -> Vec<String> {
        let operands = cmd.args.iter().filter(|row| !row.is_flag());
        let head = cmd.path.iter().copied().chain(operands.map(|_| "1"));
        head.chain(tail.iter().copied()).map(String::from).collect()
    }

    /// Walks the table itself, so a new flag is covered the day it is added.
    #[test]
    fn every_row_of_the_table_refuses_hostile_argv() {
        // Placeholders that promise a number; `MS` alone reads a float.
        const NUMERIC: [&str; 6] = ["N", "MS", "K", "S", "PERMILLE", "NODES"];
        let mut numeric_rows = 0;
        for cmd in COMMANDS {
            let refused = |tail: &[&str]| {
                let argv = argv_for(cmd, tail);
                let err = parse_args(&argv).expect_err(&format!("{argv:?} must be refused"));
                assert_eq!(err.code, 2, "{argv:?}: {err}");
                err.message
            };
            assert_eq!(
                refused(&["--no-such-flag"]),
                "unknown flag '--no-such-flag'"
            );
            assert_eq!(parse_args(&argv_for(cmd, &["--help"])), Ok(Command::Help));
            assert_eq!(parse_args(&argv_for(cmd, &["-h"])), Ok(Command::Help));
            let mut operands = cmd.args.iter().filter(|row| !row.is_flag());
            if !operands.clone().any(|row| row.name.ends_with("...")) {
                assert_eq!(refused(&["stray"]), "unexpected argument 'stray'");
            }
            if let Some(first) = operands.next() {
                let bare: Vec<String> = cmd.path.iter().map(|s| s.to_string()).collect();
                let err = parse_args(&bare).unwrap_err();
                let expected = format!("{} needs {}", cmd.path.join(" "), first.name);
                assert_eq!((err.code, err.message), (2, expected));
            }
            for row in cmd.args.iter().filter(|row| row.value.is_some()) {
                assert_eq!(refused(&[row.name]), format!("{} needs a value", row.name));
                if !NUMERIC.contains(&row.value.unwrap()) {
                    continue;
                }
                numeric_rows += 1;
                let hostile: &[&str] = match row.value {
                    Some("MS") => &["x", ""],
                    _ => &["x", "", "-1"],
                };
                for value in hostile {
                    let message = refused(&[row.name, value]);
                    assert!(
                        message.contains(row.name),
                        "{} {value:?}: {message}",
                        row.name
                    );
                }
            }
        }
        assert_eq!(numeric_rows, 20, "run and compare share their six");
    }

    /// A flag cannot exist without being documented, or be documented
    /// without existing.
    #[test]
    fn usage_is_generated_from_the_table() {
        let text = usage();
        for cmd in COMMANDS {
            let part = section(cmd);
            assert!(text.contains(&part), "usage() lacks {:?}", cmd.path);
            for row in cmd.args {
                let shown = match row.value {
                    Some(value) => format!("[{} {value}]", row.name),
                    None if row.is_flag() => format!("[{}]", row.name),
                    None => row.name.to_string(),
                };
                assert!(part.contains(&shown), "{:?} lacks {shown}", cmd.path);
            }
            for word in part.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if word.starts_with("--") {
                    let known = cmd.args.iter().any(|row| row.name == word);
                    assert!(known, "{:?} documents {word}, which it lacks", cmd.path);
                }
            }
            assert!(
                part.lines().all(|line| line.chars().count() <= 84),
                "{part}"
            );
        }
        let flags: usize = COMMANDS
            .iter()
            .map(|cmd| cmd.args.iter().filter(|row| row.is_flag()).count())
            .sum();
        assert_eq!(flags, 40 + RUN_ARGS.len(), "`compare` shares `run`'s rows");
    }

    #[test]
    fn the_config_file_is_the_base_wherever_it_stands() {
        let path = std::env::temp_dir().join("bft_sim_cli_test_config_order.json");
        std::fs::write(&path, r#"{"nodes": 4, "reps": 2}"#).unwrap();
        let path = path.to_str().unwrap();
        let flags = ["--protocol", "hotstuff-ns", "--reps", "3", "--json"];
        let left = [&["run", "--config", path][..], &flags].concat();
        let right = [&["run"][..], &flags, &["--config", path]].concat();
        let expected = Command::Run(RunSpec {
            protocol: "hotstuff-ns".into(),
            nodes: 4,
            reps: 3,
            json: true,
            ..RunSpec::default()
        });
        assert_eq!(parse_args(&args(&left)).unwrap(), expected);
        assert_eq!(parse_args(&args(&right)).unwrap(), expected);
        // One base: a second file is refused, and a file's values still meet
        // the range checks.
        let twice = ["run", "--config", path, "--config", path];
        let err = parse_args(&args(&twice)).unwrap_err();
        assert_eq!(
            (err.code, err.message.as_str()),
            (2, "--config given twice")
        );
        std::fs::write(path, r#"{"reps": 0}"#).unwrap();
        let err = parse_args(&args(&["run", "--config", path])).unwrap_err();
        assert_eq!(err.message, "--reps must be between 1 and 1000000");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn documented_ranges_are_enforced() {
        let err = parse_args(&args(&["fuzz", "--intensity", "1001"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert_eq!(err.message, "bad --intensity (permille, 0..=1000)");
        assert!(parse_args(&args(&["fuzz", "--intensity", "1000"])).is_ok());
        // A range is collected and a slot held per run, and a thread started
        // per worker: neither may be unbounded. Parsing starts nothing.
        for (argv, message) in [
            (
                &["fuzz", "--seeds", "0..18446744073709551615"][..],
                "--seeds '0..18446744073709551615' spans more than 1000000 runs",
            ),
            (
                &["fuzz", "--coverage", "--seeds", "7..1000008"],
                "--seeds '7..1000008' spans more than 1000000 runs",
            ),
            (
                &["fuzz", "--threads", "257"],
                "--threads must be at most 256",
            ),
            (
                &[
                    "campaign",
                    "run",
                    "m.json",
                    "--threads",
                    "18446744073709551615",
                ],
                "--threads must be at most 256",
            ),
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert_eq!((err.code, err.message.as_str()), (2, message), "{argv:?}");
        }
        let Command::Fuzz(spec) = parse_args(&args(&[
            "fuzz",
            "--coverage",
            "--seeds",
            "7..1000007",
            "--threads",
            "256",
        ]))
        .unwrap() else {
            panic!("expected fuzz");
        };
        assert_eq!((spec.seeds, spec.threads), ((7, 1_000_007), 256));
        let cmd = parse_args(&args(&["campaign", "run", "m.json", "--threads", "256"]));
        assert!(matches!(cmd, Ok(Command::CampaignRun(spec)) if spec.threads == 256));
        assert_eq!(
            parse_args(&args(&["campaign", "--help"])),
            Ok(Command::Help)
        );
    }

    #[test]
    fn parses_seed_ranges() {
        assert_eq!(parse_seed_range("0..32").unwrap(), (0, 32));
        assert_eq!(parse_seed_range("8").unwrap(), (0, 8));
        assert!(parse_seed_range("9..9").is_err());
        assert!(parse_seed_range("5..2").is_err());
        assert!(parse_seed_range("x..y").is_err());
        assert_eq!(parse_seed_range("1000000").unwrap(), (0, 1_000_000));
        assert!(parse_seed_range("1000001").is_err());
    }

    #[test]
    fn parses_repro_command() {
        assert_eq!(
            parse_args(&args(&["repro", "r.json"])).unwrap(),
            Command::Repro {
                path: "r.json".into()
            }
        );
        assert!(parse_args(&args(&["repro"])).is_err());
        assert!(parse_args(&args(&["repro", "a.json", "b.json"])).is_err());
    }

    #[test]
    fn parses_protocol_lists() {
        assert_eq!(
            parse_protocol_list("all").unwrap(),
            ProtocolKind::extended().to_vec()
        );
        assert_eq!(
            parse_protocol_list("pbft, tendermint").unwrap(),
            vec![ProtocolKind::Pbft, ProtocolKind::Tendermint]
        );
        assert!(parse_protocol_list("raft").is_err());
    }

    #[test]
    fn fuzz_sweep_over_honest_protocols_is_clean() {
        let spec = FuzzSpec {
            seeds: (0, 2),
            protocols: "pbft".into(),
            out_dir: std::env::temp_dir()
                .join("bft_sim_cli_fuzz_test")
                .display()
                .to_string(),
            ..FuzzSpec::default()
        };
        execute(Command::Fuzz(spec)).expect("honest pbft sweep must be clean");
    }

    #[test]
    fn repro_command_surfaces_missing_and_stale_files() {
        let err = execute(Command::Repro {
            path: "/nonexistent/repro.json".into(),
        })
        .unwrap_err();
        assert_eq!(err.code, 4, "unreadable repro file must exit 4");
        assert!(err.message.contains("cannot read"), "{err}");
        // A syntactically valid repro whose oracle cannot fire is reported
        // as stale rather than silently succeeding.
        let repro = bft_sim_simcheck::Repro {
            spec: bft_sim_simcheck::ScenarioSpec::baseline(ProtocolKind::Pbft),
            actions: Vec::new(),
            fault_actions: Vec::new(),
            schedule: None,
            oracle: "agreement".into(),
            detail: "synthetic".into(),
            last_events: Vec::new(),
        };
        let path = std::env::temp_dir().join("bft_sim_cli_stale_repro.json");
        std::fs::write(&path, repro.to_json().dump_pretty()).unwrap();
        let err = execute(Command::Repro {
            path: path.display().to_string(),
        })
        .unwrap_err();
        assert_eq!(err.code, 4, "stale repro must exit 4");
        assert!(err.message.contains("no longer reproduces"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_file_round_trip() {
        let spec = RunSpec {
            protocol: "algorand".into(),
            nodes: 10,
            ..RunSpec::default()
        };
        let json = spec.to_json().dump_pretty();
        let path = std::env::temp_dir().join("bft_sim_cli_test_config.json");
        std::fs::write(&path, &json).unwrap();
        let cmd = parse_args(&args(&["run", "--config", path.to_str().unwrap()])).unwrap();
        let Command::Run(loaded) = cmd else {
            panic!("expected run");
        };
        assert_eq!(loaded, spec);
        let _ = std::fs::remove_file(&path);
    }
}
