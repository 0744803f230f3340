//! # bft-sim-cli
//!
//! Command-line front end for the BFT simulator. The paper's workflow —
//! "write a configuration specifying the network model and parameters, the
//! BFT protocol, and optionally the attack scenario" — maps to a scenario
//! file (the JSON that `trace` runs and every repro embeds), to flags that
//! each edit one field of the paper's default scenario, or to both:
//!
//! ```text
//! bft-sim run --protocol pbft --nodes 16 --lambda 1000 \
//!             --delay-mu 250 --delay-sigma 50 --reps 100
//! bft-sim run --config scenario.json --reps 100
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
//! | 2    | usage or parse error — bad flags, malformed scenario or `--config` file |
//! | 3    | `fuzz` / `campaign` found oracle violations or panicked runs |
//! | 4    | artifact error — an unreadable or malformed repro, manifest, or checkpoint file, or a repro that no longer reproduces |
//! | 101  | the process itself panicked (Rust's default panic exit) |

/// `println!`, or `eprintln!` as `out!(stderr: ..)`, that drops write
/// errors: what a closed pipe refuses (`bft-sim trace pbft | head -1`) is
/// lost instead of panicking, so the command still exits with its own code.
macro_rules! out {
    (stderr: $($fmt:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($fmt)*);
    }};
    ($($fmt:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($fmt)*);
    }};
}

pub mod campaign;

pub(crate) use campaign::{emit_report, emit_status, CampaignStatusSpec};
pub use campaign::{
    exec_campaign_merge, exec_campaign_run, exec_campaign_status, load_manifest, CampaignMergeSpec,
    CampaignRunSpec,
};

use bft_sim_core::buggify::FaultPreset;
use bft_sim_core::json::{self, Json};
use bft_sim_core::metrics::Cell;
use bft_sim_simcheck::{check_node_count, AttackSpec, DelaySpec, PartitionSpec, ScenarioSpec};
use bft_simulator::experiments::{self, figures, loc};
use bft_simulator::net::topology::check_link_nodes;
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

/// What `run` and `compare` execute: a scenario, as a `--config` scenario
/// file states it and each scenario flag edits one field of it, repeated
/// `reps` times from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The scenario (`compare` swaps in each protocol in turn).
    pub(crate) scenario: ScenarioSpec,
    /// Repetitions.
    pub(crate) reps: usize,
    /// Emit JSON instead of a table.
    pub(crate) json: bool,
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
            scenario: experiments::paper_spec(ProtocolKind::Pbft, 16),
            reps: 10,
            json: false,
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

/// Each scenario flag edits one field of the `--config` scenario, or of
/// [`RunSpec::default`]'s.
const RUN_ARGS: &[Arg] = &[
    arg(CONFIG, Some("FILE.json"), |s, v| {
        let loaded = json::load(v, "config", ScenarioSpec::from_json);
        set(&mut s.run.scenario, loaded.map_err(CliError::usage))
    }),
    arg("--protocol", Some("NAME"), |s, v| {
        let kind = ProtocolKind::parse(v)
            .ok_or_else(|| CliError::usage(format!("unknown protocol '{v}'")))?;
        retarget(&mut s.run.scenario, kind);
        Ok(())
    }),
    arg("--nodes", Some("N"), |s, v| {
        set(&mut s.run.scenario.n, num("--nodes", v))
    }),
    arg("--lambda", Some("MS"), |s, v| {
        set(&mut s.run.scenario.lambda_micros, micros("--lambda", v))
    }),
    arg("--delay-mu", Some("MS"), |s, v| {
        set(normal_delay(&mut s.run.scenario).0, micros("--delay-mu", v))
    }),
    arg("--delay-sigma", Some("MS"), |s, v| {
        set(
            normal_delay(&mut s.run.scenario).1,
            micros("--delay-sigma", v),
        )
    }),
    arg("--reps", Some("K"), |s, v| {
        set(&mut s.run.reps, num("--reps", v))
    }),
    arg("--seed", Some("S"), |s, v| {
        set(&mut s.run.scenario.seed, num("--seed", v))
    }),
    arg("--attack", Some("SPEC"), |s, v| {
        (s.run.scenario.attack, s.run.scenario.partition) = parse_attack(v)?;
        Ok(())
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
    // Any generated seed may draw a link-level net, so `--n` meets its bound.
    arg("--n", Some("NODES"), |s, v| {
        let n = num("--n (node count)", v)
            .and_then(|n| node_count("--n", n))
            .and_then(|n| check_link_nodes(n).map_err(|e| CliError::usage(format!("--n: {e}"))));
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
];

/// Every command `bft-sim` has, in the order `usage()` lists them. A new
/// flag is a row in its command's slice: that parses it, documents it and
/// puts it under the hostile-argv test.
static COMMANDS: &[Cmd] = &[
    Cmd {
        path: &["run"],
        args: RUN_ARGS,
        about: "run one protocol's scenario --reps times and print its metrics; the \
                --config scenario file (as trace runs it) is the base, and every other \
                flag edits one field of it, in any order",
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
                targeted drops, torn writes) in every scenario; --net-preset pins every scenario's link-level network block \
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

/// The flags' n must be one a scenario may have (a `--config` file's
/// already is), and λ positive. The results of all repetitions are held at
/// once, so zero repetitions report nothing and a count beyond `MAX_REPS`
/// is a typo.
fn check_run(spec: RunSpec) -> Result<RunSpec, CliError> {
    let n = node_count("--nodes", spec.scenario.n)?;
    if spec.scenario.net.is_some() {
        check_link_nodes(n).map_err(|e| CliError::usage(format!("--nodes: {e}")))?;
    }
    if !(1..=MAX_REPS).contains(&spec.reps) {
        return Err(CliError::usage(format!(
            "--reps must be between 1 and {MAX_REPS}"
        )));
    }
    if spec.scenario.lambda_micros == 0 {
        return Err(CliError::usage("--lambda must be positive"));
    }
    Ok(spec)
}

/// A flag's milliseconds in the whole microseconds a [`ScenarioSpec`]
/// holds, exactly: it turns them back into the same `f64` milliseconds.
fn micros(flag: &str, text: &str) -> Result<u64, CliError> {
    let ms: f64 = num(flag, text)?;
    let micros = (ms * 1000.0).round();
    // Below 2^64 the cast is exact.
    let exact = ms >= 0.0 && micros < 2f64.powi(64) && micros / 1000.0 == ms;
    let usage = format!("{flag} must be a whole number of microseconds, 0 to 2^64");
    exact.then_some(micros as u64).ok_or(CliError::usage(usage))
}

/// The mean and σ of `scenario`'s normal delay, for `--delay-mu` and
/// `--delay-sigma` to edit; a delay that is not normal first becomes the
/// paper's N(250, 50).
fn normal_delay(scenario: &mut ScenarioSpec) -> (&mut u64, &mut u64) {
    if !matches!(scenario.delay, DelaySpec::Normal { .. }) {
        scenario.delay = RunSpec::default().scenario.delay;
    }
    match &mut scenario.delay {
        DelaySpec::Normal {
            mean_micros,
            std_micros,
        } => (mean_micros, std_micros),
        _ => unreachable!("the delay was made normal above"),
    }
}

/// Runs `scenario` under `kind`, for its measured decisions: what `--protocol`
/// does, and `compare` for each protocol.
fn retarget(scenario: &mut ScenarioSpec, kind: ProtocolKind) {
    scenario.protocol = kind;
    scenario.target_decisions = kind.measured_decisions();
}

/// `FuzzBudget` would clamp an intensity above 1000‰ while the scenario and
/// repro files recorded the unclamped figure.
fn check_fuzz(spec: FuzzSpec) -> Result<FuzzSpec, CliError> {
    if spec.intensity_permille > 1000 {
        return Err(CliError::usage(format!("bad {INTENSITY}")));
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
    net.check()
        .map_err(|e| CliError::usage(format!("bad --net-preset: {e}")))?;
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

/// `scenario` under `kind` ([`retarget`]), its attack within `kind`'s
/// fault budget ([`AttackSpec::check_budget`]).
fn with_protocol(scenario: &ScenarioSpec, kind: ProtocolKind) -> Result<ScenarioSpec, CliError> {
    let mut scenario = scenario.clone();
    retarget(&mut scenario, kind);
    check_budget(&scenario)?;
    Ok(scenario)
}

/// The flags may have moved `n` or the attack since the file was checked.
fn check_budget(scenario: &ScenarioSpec) -> Result<(), CliError> {
    let Some(attack) = scenario.attack else {
        return Ok(());
    };
    attack
        .check_budget(scenario.protocol, scenario.n)
        .map_err(CliError::usage)
}

/// Runs `scenario` per the spec's repetitions, from the scenario's seed:
/// one protocol's row of `run` / `compare`.
///
/// # Errors
///
/// Returns [`CliError`] if any repetition reports a safety violation.
fn run_one(scenario: &ScenarioSpec, reps: usize) -> Result<figures::Point, CliError> {
    let results = experiments::repeat(scenario, reps, scenario.seed).map_err(CliError::runtime)?;
    figures::Point::of(scenario, &results, "").map_err(CliError::runtime)
}

/// Executes a parsed command, writing human or JSON output to stdout.
///
/// # Errors
///
/// Returns [`CliError`] for unknown protocols/attacks and simulation-level
/// failures; parse errors are reported by [`parse_args`].
pub fn execute(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            out!("{}", usage());
        }
        Command::List => {
            out!(
                "{:<14} {:<24} {:<10} responsive",
                "protocol",
                "network model",
                "measured"
            );
            for kind in ProtocolKind::extended() {
                out!(
                    "{:<14} {:<24} {:<10} {}",
                    kind.name(),
                    kind.network_assumption().to_string(),
                    format!("{} dec.", kind.measured_decisions()),
                    kind.responsive()
                );
            }
        }
        Command::Run(spec) => {
            check_budget(&spec.scenario)?;
            emit(&[run_one(&spec.scenario, spec.reps)?], spec.json);
        }
        Command::Compare(spec) => {
            let scenarios = ProtocolKind::all().map(|kind| with_protocol(&spec.scenario, kind));
            let mut reports = Vec::new();
            for scenario in scenarios.into_iter().collect::<Result<Vec<_>, _>>()? {
                reports.push(run_one(&scenario, spec.reps)?);
            }
            emit(&reports, spec.json);
        }
        Command::Fuzz(spec) => run_fuzz(&spec)?,
        Command::Repro { path } => run_repro(&path)?,
        Command::Trace(spec) => run_trace(&spec)?,
        Command::CampaignRun(spec) => {
            if let Some(report) = exec_campaign_run(&spec)? {
                emit_report(&report, spec.json)?;
            }
        }
        Command::CampaignMerge(spec) => {
            let report = exec_campaign_merge(&spec)?;
            emit_report(&report, spec.json)?;
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
    let report = bft_sim_simcheck::fuzz_many(spec.seeds.0..spec.seeds.1, &opts)
        .map_err(CliError::runtime)?;
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
        out!(
            "{}",
            fuzz_report_json(spec, &report, &repro_paths).dump_pretty()
        );
    } else {
        for (outcome, path) in report.outcomes.iter().zip(&repro_paths) {
            out!("seed {}:", outcome.scenario_seed);
            for v in &outcome.violations {
                out!("  {v}");
            }
            out!("  shrunk repro -> {path}");
        }
        for failure in &report.failures {
            out!(
                "seed {}: PANICKED: {}",
                failure.scenario_seed,
                failure.message
            );
        }
        out!(
            "fuzz: {} scenarios ({} violating, {} panicked), {} events, {:.1} ms",
            report.runs,
            report.outcomes.len(),
            report.panicked,
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
            report.runs + report.panicked,
            report.panicked
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
    out!("reproduced: {violation}");
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
        out!("{}", doc.dump_pretty());
        return Ok(());
    }

    out!(
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
    for (title, hists) in [
        ("delivery latency", &obs.delivery_latency),
        ("decision intervals", &obs.decision_interval),
    ] {
        out!();
        out!("{title} (µs):");
        out!(
            "{:<6} {:>8} {:>10} {:>10} {:>10}",
            "node",
            "count",
            "mean",
            "min",
            "max"
        );
        for (node, h) in hists.iter().enumerate().filter(|(_, h)| !h.is_empty()) {
            out!(
                "n{:<5} {:>8} {:>10.1} {:>10} {:>10}",
                node,
                h.count(),
                h.mean_micros(),
                h.min_micros(),
                h.max_micros()
            );
        }
    }
    if !obs.link_queues.is_empty() {
        out!();
        out!("link queueing (µs) — hottest links first:");
        out!(
            "{:<12} {:>8} {:>10} {:>10} {:>10}",
            "link",
            "waits",
            "mean wait",
            "max wait",
            "peak depth"
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
            out!(
                "n{} -> n{:<5} {:>8} {:>10.1} {:>10} {:>10}",
                l.src,
                l.dst,
                l.queued.count(),
                l.queued.mean_micros(),
                l.queued.max_micros(),
                l.peak_depth
            );
        }
        out!(
            "  total: {} waits, mean {:.1} µs",
            obs.link_queue_delay.count(),
            obs.link_queue_delay.mean_micros()
        );
    }
    out!();
    out!("message flows (src rows × dst columns):");
    for flow in &obs.flows {
        out!(
            "  phase {} ({} messages):",
            flow.phase,
            obs.phase_total(&flow.phase)
        );
        for src in 0..obs.nodes {
            let row: Vec<String> = (0..obs.nodes)
                .map(|dst| format!("{:>6}", flow.get(src, dst)))
                .collect();
            out!("    n{src}: {}", row.join(" "));
        }
    }
    if !obs.views.is_empty() {
        out!();
        out!("view timings (µs):");
        out!(
            "{:<6} {:>12} {:>12} {:>8}",
            "view",
            "first entry",
            "last entry",
            "entries"
        );
        for v in &obs.views {
            out!(
                "{:<6} {:>12} {:>12} {:>8}",
                v.view,
                v.first_entry.as_micros(),
                v.last_entry.as_micros(),
                v.entries
            );
        }
    }
    out!();
    out!("last {} events:", recent.len());
    for e in &recent {
        out!(
            "  t={:<10} n{:<3} {:?}",
            e.time.as_micros(),
            e.node.as_u32(),
            e.kind
        );
    }
    Ok(())
}

/// Prints the rows as a table or as JSON, where a quartile that reads a
/// capped run is `null`.
fn emit(reports: &[figures::Point], json: bool) {
    if json {
        let rows = reports.iter().map(|p| {
            let quartile = |q: Option<f64>| q.map_or(Json::Null, Json::from);
            Json::obj([
                ("protocol", Json::from(p.protocol.name())),
                ("latency_mean_s", Json::from(p.latency.mean)),
                ("latency_sd_s", Json::from(p.latency.std_dev)),
                ("latency_median_s", quartile(p.latency.median)),
                ("latency_q1_s", quartile(p.latency.q1)),
                ("latency_q3_s", quartile(p.latency.q3)),
                ("messages_mean", Json::from(p.messages.mean)),
                ("messages_sd", Json::from(p.messages.std_dev)),
                ("timeout_rate", Json::from(p.capped_share())),
                ("reps", Json::from(p.latency.count)),
            ])
        });
        out!("{}", Json::Arr(rows.collect()).dump_pretty());
        return;
    }
    let header = point_row(None);
    out!("{:<14} {header}", "protocol");
    for p in reports {
        out!("{:<14} {}", p.protocol.name(), point_row(Some(p)));
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
            out!("\n=== Fig. 2 — simulation speed & scale ===");
            out!("PBFT, lambda = 1000 ms, delays N(250, 50); wall-clock per run\n");
            let header = format!("{:>24} {:>26}", "ours (wall)", "median [q1, q3]");
            out!("{:<6} {header} {:>12}   paper", "n", "events");
            for row in figures::fig2(&figures::FIG2_SIZES, figures::FIG2_REPS, seed) {
                let [wall, quartiles] = fmt_cell(&row.wall_ms, "ms");
                let (n, events, paper) = (row.n, row.events, figures::fig2_paper_column(row.n));
                out!("{n:<6} {wall:>24} {quartiles:>26} {events:>12}   {paper}");
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
    out!("\n=== Fig. {which} — {title} ===\n{setting}, {REPS} repetitions\n");
    out!("{:<12} {:<16} {}", "protocol", "x", point_row(None));
    for p in &points {
        let row = point_row(Some(p));
        out!("{:<12} {:<16} {row}", p.protocol.name(), p.x);
    }
    let at = |name: &str, x: &str| {
        let is = |p: &&figures::Point| p.protocol.name() == name && p.x == x;
        points.iter().find(is).expect("the figure has the point")
    };
    let lat = |name: &str, x: &str| at(name, x).latency.mean;
    match which {
        3 => {
            out!();
            for x in ["N(250,50)", "N(1000,1000)"] {
                let line = versus(at("hotstuff-ns", x), at("pbft", x));
                out!("HotStuff+NS vs PBFT under {x}: {line}");
            }
        }
        4 => {
            let expected = ["timer-paced: expected ~3x", "responsive: expected ~1x"];
            out!();
            for kind in ProtocolKind::all() {
                let name = kind.name();
                let growth = lat(name, "λ=3000") / lat(name, "λ=1000").max(1e-9);
                let expected = expected[usize::from(kind.responsive())];
                out!("{name:<12} latency growth 1000->3000 ms: {growth:5.2}x ({expected})");
            }
        }
        5 => {
            let line = versus(at("hotstuff-ns", "λ=150"), at("hotstuff-ns", "λ=1000"));
            out!("\nHotStuff+NS at λ=150 vs λ=1000: {line} (paper: 5.3x degradation, up to ~80 s worst case)");
            let line = versus(at("librabft", "λ=150"), at("librabft", "λ=1000"));
            out!("LibraBFT    at λ=150 vs λ=1000: {line} (paper: flat)");
        }
        6 => {
            out!();
            for p in &points {
                let (name, extra) = (p.protocol.name(), p.latency.mean - resolve_s as f64);
                out!("{name:<12} terminates {extra:7.1} s after the partition resolves");
            }
        }
        8 => {
            let [s1, s2, s3] = ["add-v1", "add-v2", "add-v3"].map(|v| lat(v, "static"));
            let [a1, a2, a3] = ["add-v1", "add-v2", "add-v3"].map(|v| lat(v, "adaptive"));
            out!("\nstatic:   v1 {s1:.1}s  v2 {s2:.1}s  v3 {s3:.1}s   (paper: v1 grows ~f iterations, v2/v3 flat)");
            out!("adaptive: v1 {a1:.1}s  v2 {a2:.1}s  v3 {a3:.1}s   (paper: v2 grows ~f iterations, v3 flat)");
        }
        _ => {} // Fig. 7 is its table
    }
}

/// Fig. 9: each node's view timeline, then how many distinct views the
/// nodes hold at each second of simulated time.
fn print_fig9() {
    use std::collections::HashSet;
    let (n, seed) = (figures::N, figures::FIG9_SEED);
    out!("\n=== Fig. 9 — per-node views during HotStuff+NS execution ===");
    out!("n = {n}, lambda = 150 ms, delays N(250, 50), seed {seed}\n");
    let timelines = figures::fig9(n, seed);
    let last_entries = timelines.iter().flat_map(|(_, t)| t.last());
    let end = last_entries.fold(0.0f64, |end, &(t, _)| end.max(t));
    out!("run spanned {end:.1} s of simulated time\n");
    for (node, timeline) in &timelines {
        let entries = timeline.iter().map(|(t, v)| format!("{t:.1}s->v{v}"));
        out!("{node}: {}", entries.collect::<Vec<_>>().join(" "));
    }
    out!("\nview divergence per second (1 = synchronized):");
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
    out!("{strip}");
}

/// `bft-sim table N`: our implementation line counts, then the paper's.
fn run_table(which: u8) {
    let detail = "implementation LoC (non-blank, non-comment, excluding unit tests)";
    if which == 1 {
        out!("\n=== Table I — implemented BFT protocols ===\n{detail}\n");
        out!("{:<14} {:<24} {:>6}", "protocol", "network model", "LoC");
        for row in loc::table1() {
            out!("{:<14} {:<24} {:>6}", row.name, row.network, row.loc);
        }
        out!("\npaper (JavaScript): ADD+ 304/307/376, Algorand 387, async BA 265,");
        out!("                    PBFT 606, HotStuff+NS 502, LibraBFT 568");
    } else {
        out!("\n=== Table II — implemented attacks ===\n{detail}\n");
        out!(
            "{:<20} {:<22} {:>6}",
            "attack",
            "attacker capability",
            "LoC"
        );
        for row in loc::table2() {
            out!("{:<20} {:<22} {:>6}", row.name, row.capability, row.loc);
        }
        out!("\npaper (JavaScript): partition 86, ADD+ static 86, ADD+ adaptive 117");
    }
}

/// Two points' latency for a paper-comparison line: the mean beside the
/// median [q1, q3] and the capped share, which show whether a tail carries it.
fn versus(a: &figures::Point, b: &figures::Point) -> String {
    let [a, b] = [a, b].map(|p| {
        let (mean, [_, median]) = (p.latency.mean, fmt_cell(&p.latency, ""));
        let capped = 100.0 * p.capped_share();
        format!("mean {mean:.2} s, median {median} s, capped {capped:.0}%")
    });
    format!("{a} vs {b}")
}

/// The statistic columns of every `run`, `compare` and figure table, the
/// header's for `None`: latency mean ± sd and median [q1, q3], messages per
/// decision, and the share of capped runs.
fn point_row(point: Option<&figures::Point>) -> String {
    let Some(p) = point else {
        let latency = format!("{:>24} {:>26}", "latency (s)", "median [q1, q3]");
        return format!("{latency} {:>24} {:>9}", "msgs/decision", "timeouts");
    };
    let [latency, quartiles] = fmt_cell(&p.latency, "s");
    let ([messages, _], capped) = (fmt_cell(&p.messages, ""), 100.0 * p.capped_share());
    format!("{latency:>24} {quartiles:>26} {messages:>24} {capped:>8.0}%")
}

/// A cell's `mean ± sd unit` and `median [q1, q3]`; a quartile that reads a
/// capped run prints as `capped`.
fn fmt_cell(cell: &Cell, unit: &str) -> [String; 2] {
    let q = |q: Option<f64>| q.map_or_else(|| "capped".into(), |q| format!("{q:.3}"));
    let mean = format!("{:9.3} ± {:7.3} {unit}", cell.mean, cell.std_dev);
    let quartiles = format!("{} [{}, {}]", q(cell.median), q(cell.q1), q(cell.q3));
    [mean, quartiles]
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
    fn cells_print_capped_quartiles_as_capped() {
        let cell = Cell::of([(1.0, false), (2.0, false), (9.0, true), (4.0, false)]);
        let [mean, quartiles] = fmt_cell(&cell, "s");
        assert_eq!(mean, "    4.000 ±   3.559 s");
        assert_eq!(quartiles, "3.000 [1.250, capped]");
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
    fn the_coverage_flags_are_gone() {
        for (argv, flag) in [
            (&["fuzz", "--coverage", "--blind"][..], "--coverage"),
            (&["fuzz", "--blind"][..], "--blind"),
            (&["fuzz", "--corpus-dir", "c"][..], "--corpus-dir"),
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert_eq!(err.code, 2, "{argv:?}");
            assert_eq!(err.message, format!("unknown flag '{flag}'"), "{argv:?}");
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
        let scenario = &spec.scenario;
        assert_eq!(scenario.protocol, ProtocolKind::LibraBft);
        assert_eq!(
            scenario.target_decisions, 10,
            "librabft's measured decisions"
        );
        assert_eq!(scenario.n, 7);
        assert_eq!(scenario.lambda_micros, 500_000);
        assert_eq!(spec.reps, 3);
        assert!(spec.json);
        assert_eq!(scenario.attack, Some(AttackSpec::FailStopLast { k: 2 }));
        assert_eq!(scenario.partition, None);
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
        let spec = |attack: &str| {
            let mut spec = RunSpec::default();
            let scenario = &mut spec.scenario;
            (scenario.attack, scenario.partition) = parse_attack(attack).unwrap();
            spec
        };
        for attack in ["failstop:6", "failstop:99", "add-static:6"] {
            let err = execute(Command::Run(spec(attack))).unwrap_err();
            assert_eq!(err.code, 2, "{attack}");
            assert!(err.message.contains("pbft's fault budget f = 5"), "{err}");
        }
        // ADD+ tolerates ⌊(n−1)/2⌋ = 7 at n = 16. `compare` fails whole,
        // naming the first protocol whose budget is exceeded.
        assert!(with_protocol(&spec("failstop:7").scenario, ProtocolKind::AddV1).is_ok());
        let err = execute(Command::Compare(spec("failstop:6"))).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("algorand's fault budget"), "{err}");
    }

    #[test]
    fn timings_must_be_whole_microseconds() {
        assert_eq!(micros("--lambda", "0.5").unwrap(), 500);
        let Command::Run(spec) = parse_args(&args(&["run", "--delay-mu", "1.1"])).unwrap() else {
            panic!("expected run");
        };
        let delay = spec.scenario.delay.to_dist();
        assert_eq!(delay, bft_sim_core::dist::Dist::normal(1.1, 50.0));
        for (flag, ms) in [
            ("--lambda", "0.0001"),
            ("--delay-mu", "-5"),
            ("--delay-mu", "0.0005"),
            ("--lambda", "1e17"),
        ] {
            let err = micros(flag, ms).unwrap_err();
            assert_eq!(err.code, 2, "{flag} {ms}");
            assert_eq!(
                err.message,
                format!("{flag} must be a whole number of microseconds, 0 to 2^64")
            );
        }
        // A delay that is not normal becomes the paper's N(250, 50) first.
        let mut scenario = ScenarioSpec::baseline(ProtocolKind::Pbft);
        *normal_delay(&mut scenario).1 = 20_000;
        let delay = DelaySpec::Normal {
            mean_micros: 250_000,
            std_micros: 20_000,
        };
        assert_eq!(scenario.delay, delay);
    }

    #[test]
    fn run_one_produces_a_report() {
        let scenario = ScenarioSpec {
            n: 4,
            ..RunSpec::default().scenario
        };
        let point = run_one(&scenario, 2).unwrap();
        assert_eq!(point.protocol, ProtocolKind::Pbft);
        assert!(point.latency.mean > 0.0);
        assert_eq!(point.capped_share(), 0.0);
    }

    #[test]
    fn unknown_protocol_is_an_error() {
        for cmd in ["run", "compare"] {
            let err = parse_args(&args(&[cmd, "--protocol", "raft"])).unwrap_err();
            assert_eq!(err.code, 2, "{cmd}");
            assert_eq!(err.message, "unknown protocol 'raft'");
        }
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
        assert_eq!(
            spec.net_preset.as_deref(),
            Some("ring_gradient:bw=200000:churn=5,2,500,4000")
        );
        assert!(parse_args(&args(&["fuzz", "--preset", "wild"])).is_err());
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
        assert_eq!(flags, 34 + RUN_ARGS.len(), "`compare` shares `run`'s rows");
    }

    #[test]
    fn the_config_file_is_the_base_wherever_it_stands() {
        let path = std::env::temp_dir().join("bft_sim_cli_test_config_order.json");
        std::fs::write(&path, r#"{"protocol": "pbft", "n": 4, "seed": 5}"#).unwrap();
        let path = path.to_str().unwrap();
        let flags = ["--protocol", "hotstuff-ns", "--reps", "3", "--json"];
        let left = [&["run", "--config", path][..], &flags].concat();
        let right = [&["run"][..], &flags, &["--config", path]].concat();
        let expected = Command::Run(RunSpec {
            scenario: ScenarioSpec {
                n: 4,
                seed: 5,
                ..ScenarioSpec::baseline(ProtocolKind::HotStuffNs)
            },
            reps: 3,
            json: true,
        });
        assert_eq!(parse_args(&args(&left)).unwrap(), expected);
        assert_eq!(parse_args(&args(&right)).unwrap(), expected);
        // One base: a second file is refused, and a file's values meet the
        // scenario file's own checks.
        let twice = ["run", "--config", path, "--config", path];
        let err = parse_args(&args(&twice)).unwrap_err();
        assert_eq!(
            (err.code, err.message.as_str()),
            (2, "--config given twice")
        );
        std::fs::write(path, r#"{"protocol": "pbft", "n": 3}"#).unwrap();
        let err = parse_args(&args(&["run", "--config", path])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("n = 3f + 1"), "{err}");
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
                &["fuzz", "--seeds", "7..1000008"],
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
            script: Default::default(),
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
        let scenario = ScenarioSpec {
            n: 10,
            seed: 3,
            delay: DelaySpec::Uniform {
                lo_micros: 50_000,
                hi_micros: 300_000,
            },
            ..ScenarioSpec::baseline(ProtocolKind::Algorand)
        };
        let path = std::env::temp_dir().join("bft_sim_cli_test_config.json");
        std::fs::write(&path, scenario.to_json().dump_pretty()).unwrap();
        let cmd = parse_args(&args(&["run", "--config", path.to_str().unwrap()])).unwrap();
        let expected = RunSpec {
            scenario,
            ..RunSpec::default()
        };
        assert_eq!(cmd, Command::Run(expected));
        let _ = std::fs::remove_file(&path);
    }
}
