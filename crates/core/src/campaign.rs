//! Resumable parameter-grid campaigns: the manifest / journal / report
//! formats and the deterministic expansion, sharding and merge semantics
//! behind `bft-sim campaign`.
//!
//! A **manifest** (`bft-sim-campaign-v1` JSON) describes a parameter grid —
//! protocol × node count × delay distribution × net preset × attack
//! intensity × seed range — that [`Manifest::unit`] expands deterministically
//! into ordered **work units** (seed varies fastest, so the units of one
//! grid **cell** are contiguous). This module is protocol-agnostic: grid
//! entries are validated strings, interpreted by the executor in the CLI
//! crate, so `core` keeps its single-dependency footprint.
//!
//! A **journal** (`bft-sim-campaign-journal-v1`, JSON Lines) is a campaign's
//! durable progress: a [`JournalHeader`] line, then one compact line per
//! completed [`Batch`] of `checkpoint_every` units — that batch's
//! [`UnitRecord`]s and what they alone added to the streaming aggregates
//! (bucket-wise-merged [`Histogram`]s). [`JournalWriter::append`] writes a
//! line with one `write_all`, so a batch costs its own bytes however many
//! units came before it. [`Journal::replay`] folds the lines back into the
//! in-memory [`Checkpoint`]; whatever follows the last newline is a torn
//! tail — a write a kill cut short — and is dropped, so a SIGKILL at any
//! moment loses at most the batch in flight. A complete line that does not
//! parse is an error naming its line number. Resume verifies the manifest
//! hash ([`Manifest::hash`]) and continues from the first incomplete unit.
//!
//! Because every aggregate either derives from per-unit records (tallies,
//! per-cell [`Cell`]s, recomputed in unit order) or merges with
//! commutative-and-associative `u64` arithmetic (histograms), the **final
//! report** ([`final_report`]) is byte-identical whether the campaign ran
//! straight through, was killed and resumed, or was sharded with
//! `--shard i/m` across processes and merged with [`merge_checkpoints`].

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::fasthash::FastHasher;
use crate::json::{self, Fields, Json};
use crate::metrics::Cell;
use crate::obs::Histogram;

/// Format tag of a campaign manifest document.
pub(crate) const MANIFEST_FORMAT: &str = "bft-sim-campaign-v1";

/// Format tag on the header line of a campaign journal.
pub(crate) const JOURNAL_FORMAT: &str = "bft-sim-campaign-journal-v1";

/// Format tag of a campaign final report document.
pub(crate) const REPORT_FORMAT: &str = "bft-sim-campaign-report-v1";

/// A campaign parameter grid. Axis entries the executor interprets
/// (protocol names, delay names, net presets) are kept as validated strings
/// so this module stays protocol-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Protocol names (the CLI's protocol grammar, e.g. `"pbft"`).
    pub protocols: Vec<String>,
    /// Node counts.
    pub nodes: Vec<usize>,
    /// Delay-distribution names: `"constant"`, `"uniform"` or `"normal"`
    /// (the scenario generator's three parameterizations).
    pub delays: Vec<String>,
    /// Net presets in the CLI's `--net-preset` grammar, or `"none"` for the
    /// legacy delay-only network.
    pub nets: Vec<String>,
    /// Adversary intensities in permille; `0` runs the unit benign.
    pub attacks: Vec<u64>,
    /// Scenario seed range, half-open: seeds `lo..hi`.
    pub seeds: (u64, u64),
    /// Checkpoint interval: units per batch, and so per journal line and
    /// per flush.
    pub checkpoint_every: usize,
    /// Per-run cap on adversary actions for units with a nonzero attack.
    pub max_actions: u64,
}

/// One expanded work unit of a campaign grid: the parameter combination at
/// a given unit index. Borrowed from the manifest that expanded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit<'a> {
    /// Position in the campaign's deterministic unit order.
    pub(crate) index: usize,
    /// The grid cell this unit belongs to (`index / seeds-per-cell`).
    pub(crate) cell: usize,
    /// Protocol name.
    pub protocol: &'a str,
    /// Node count.
    pub n: usize,
    /// Delay-distribution name.
    pub delay: &'a str,
    /// Net preset (or `"none"`).
    pub net: &'a str,
    /// Adversary intensity in permille.
    pub attack: u64,
    /// Scenario seed.
    pub seed: u64,
}

impl Manifest {
    /// Validates the grid: every axis non-empty, a non-empty seed range, a
    /// positive checkpoint interval, and a total unit count that fits in
    /// `usize`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.protocols.is_empty() {
            return Err("manifest: protocols must be non-empty".into());
        }
        if self.nodes.is_empty() {
            return Err("manifest: nodes must be non-empty".into());
        }
        if self.nodes.contains(&0) {
            return Err("manifest: node counts must be positive".into());
        }
        if self.delays.is_empty() {
            return Err("manifest: delays must be non-empty".into());
        }
        if self.nets.is_empty() {
            return Err("manifest: nets must be non-empty".into());
        }
        if self.attacks.is_empty() {
            return Err("manifest: attacks must be non-empty".into());
        }
        if self.seeds.0 >= self.seeds.1 {
            return Err(format!(
                "manifest: seed range [{}, {}) is empty",
                self.seeds.0, self.seeds.1
            ));
        }
        if self.checkpoint_every == 0 {
            return Err("manifest: checkpoint_every must be positive".into());
        }
        let seeds = usize::try_from(self.seeds.1 - self.seeds.0)
            .map_err(|_| "manifest: seed range too large".to_string())?;
        self.protocols
            .len()
            .checked_mul(self.nodes.len())
            .and_then(|t| t.checked_mul(self.delays.len()))
            .and_then(|t| t.checked_mul(self.nets.len()))
            .and_then(|t| t.checked_mul(self.attacks.len()))
            .and_then(|t| t.checked_mul(seeds))
            .ok_or_else(|| "manifest: grid size overflows".to_string())?;
        Ok(())
    }

    /// Number of seeds per grid cell.
    pub(crate) fn seeds_per_cell(&self) -> usize {
        (self.seeds.1 - self.seeds.0) as usize
    }

    /// Number of grid cells (parameter combinations excluding the seed).
    pub(crate) fn total_cells(&self) -> usize {
        self.protocols.len()
            * self.nodes.len()
            * self.delays.len()
            * self.nets.len()
            * self.attacks.len()
    }

    /// Total number of work units in the campaign.
    pub fn total_units(&self) -> usize {
        self.total_cells() * self.seeds_per_cell()
    }

    /// The work unit at `index` in the campaign's deterministic order:
    /// lexicographic over (protocol, n, delay, net, attack, seed), with the
    /// seed varying fastest — so a grid cell's units are contiguous.
    ///
    /// # Panics
    ///
    /// Panics when `index >= total_units()` (a caller bug; campaign loops
    /// iterate an assigned-unit list derived from the same manifest).
    pub fn unit(&self, index: usize) -> Unit<'_> {
        assert!(index < self.total_units(), "unit index out of range");
        let seeds = self.seeds_per_cell();
        let cell = index / seeds;
        let seed = self.seeds.0 + (index % seeds) as u64;
        let mut rest = cell;
        let attack = self.attacks[rest % self.attacks.len()];
        rest /= self.attacks.len();
        let net = &self.nets[rest % self.nets.len()];
        rest /= self.nets.len();
        let delay = &self.delays[rest % self.delays.len()];
        rest /= self.delays.len();
        let n = self.nodes[rest % self.nodes.len()];
        rest /= self.nodes.len();
        let protocol = &self.protocols[rest];
        Unit {
            index,
            cell,
            protocol,
            n,
            delay,
            net,
            attack,
            seed,
        }
    }

    /// The canonical JSON form — the form [`hash`](Manifest::hash) digests,
    /// and the one [`from_json`](Manifest::from_json) round-trips.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::from(MANIFEST_FORMAT)),
            (
                "protocols",
                Json::Arr(
                    self.protocols
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            ),
            (
                "nodes",
                Json::Arr(self.nodes.iter().map(|&n| Json::from(n)).collect()),
            ),
            (
                "delays",
                Json::Arr(self.delays.iter().map(|d| Json::from(d.as_str())).collect()),
            ),
            (
                "nets",
                Json::Arr(self.nets.iter().map(|n| Json::from(n.as_str())).collect()),
            ),
            (
                "attacks",
                Json::Arr(self.attacks.iter().map(|&a| Json::from(a)).collect()),
            ),
            (
                "seeds",
                Json::obj([
                    ("lo", Json::from(self.seeds.0)),
                    ("hi", Json::from(self.seeds.1)),
                ]),
            ),
            ("checkpoint_every", Json::from(self.checkpoint_every)),
            ("max_actions", Json::from(self.max_actions)),
        ])
    }

    /// Parses and validates a manifest document; every field is required.
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy, a foreign
    /// `format` tag, or a grid [`validate`](Manifest::validate) rejects.
    pub fn from_json(json: &Json) -> Result<Manifest, String> {
        let mut f = Fields::of(json, "manifest")?;
        let format = f.req("format", json::string)?;
        if format != MANIFEST_FORMAT {
            return Err(format!("manifest: unsupported format \"{format}\""));
        }
        let mut seeds = f.sub("seeds")?;
        let manifest = Manifest {
            protocols: f.req("protocols", json::list(json::string))?,
            nodes: f.req("nodes", json::list(json::int))?,
            delays: f.req("delays", json::list(json::string))?,
            nets: f.req("nets", json::list(json::string))?,
            attacks: f.req("attacks", json::list(json::int))?,
            seeds: (seeds.req("lo", json::int)?, seeds.req("hi", json::int)?),
            checkpoint_every: f.req("checkpoint_every", json::int)?,
            max_actions: f.req("max_actions", json::int)?,
        };
        seeds.finish()?;
        f.finish()?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// The manifest's identity hash: a deterministic [`FastHasher`] digest
    /// of the canonical JSON bytes, hex-encoded. Resume and merge verify it
    /// so a checkpoint can never be applied to an edited grid.
    pub fn hash(&self) -> String {
        let mut hasher = FastHasher::default();
        hasher.write(self.to_json().dump().as_bytes());
        format!("{:016x}", hasher.finish())
    }
}

/// SplitMix64 over a seed and a stream index: derives the independent
/// engine / adversary / genesis seed streams of a work unit from its
/// manifest seed. A pure function with no platform dependence, so unit →
/// scenario mapping is stable everywhere.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How one work unit ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitOutcome {
    /// Ran to completion with no oracle violations.
    Clean,
    /// Ran to completion and violated at least one oracle.
    Violated {
        /// Human-readable `[oracle] detail` lines.
        violations: Vec<String>,
        /// Path of the written repro file, when one was produced.
        repro: Option<String>,
    },
    /// Panicked mid-run; isolated and recorded instead of aborting the
    /// campaign.
    Panicked {
        /// The panic message.
        message: String,
    },
}

/// One completed work unit's durable record, as stored in a journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitRecord {
    /// The unit's index in the manifest's deterministic order.
    pub index: usize,
    /// How the unit ended.
    pub outcome: UnitOutcome,
    /// Engine events dispatched (0 for panicked units).
    pub events: u64,
    /// Consensus slots completed by every live honest node.
    pub decisions: u64,
    /// Honest wire messages sent.
    pub honest_messages: u64,
    /// Time to the first completed decision, in microseconds.
    pub latency_micros: Option<u64>,
}

impl UnitRecord {
    /// Serialise the record.
    pub(crate) fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("index".to_string(), Json::from(self.index)),
            (
                "outcome".to_string(),
                Json::from(match &self.outcome {
                    UnitOutcome::Clean => "clean",
                    UnitOutcome::Violated { .. } => "violated",
                    UnitOutcome::Panicked { .. } => "panicked",
                }),
            ),
            ("events".to_string(), Json::from(self.events)),
            ("decisions".to_string(), Json::from(self.decisions)),
            (
                "honest_messages".to_string(),
                Json::from(self.honest_messages),
            ),
        ];
        if let Some(latency) = self.latency_micros {
            pairs.push(("latency_micros".to_string(), Json::from(latency)));
        }
        match &self.outcome {
            UnitOutcome::Clean => {}
            UnitOutcome::Violated { violations, repro } => {
                pairs.push((
                    "violations".to_string(),
                    Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
                ));
                if let Some(path) = repro {
                    pairs.push(("repro".to_string(), Json::from(path.as_str())));
                }
            }
            UnitOutcome::Panicked { message } => {
                pairs.push(("panic".to_string(), Json::from(message.as_str())));
            }
        }
        Json::Obj(pairs)
    }

    /// Parses a record. The outcome-specific fields (`violations`, `repro`,
    /// `panic`) must match the declared outcome.
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy, or the
    /// outcome and its fields disagree.
    pub(crate) fn from_json(json: &Json) -> Result<UnitRecord, String> {
        let mut f = Fields::of(json, "unit record")?;
        let index: usize = f.req("index", json::int)?;
        let outcome = f.req("outcome", json::string)?;
        let events = f.req("events", json::int)?;
        let decisions = f.req("decisions", json::int)?;
        let honest_messages = f.req("honest_messages", json::int)?;
        let latency_micros = f.opt("latency_micros", json::int)?;
        let violations = f.opt("violations", json::list(json::string))?;
        let repro = f.opt("repro", json::string)?;
        let panic = f.opt("panic", json::string)?;
        f.finish()?;
        let outcome = match outcome.as_str() {
            "clean" => {
                if violations.is_some() || repro.is_some() || panic.is_some() {
                    return Err(format!(
                        "unit record {index}: clean outcome carries violation/panic fields"
                    ));
                }
                UnitOutcome::Clean
            }
            "violated" => {
                let violations = violations.ok_or_else(|| {
                    format!("unit record {index}: violated outcome without violations")
                })?;
                if violations.is_empty() {
                    return Err(format!(
                        "unit record {index}: violated outcome with empty violations"
                    ));
                }
                if panic.is_some() {
                    return Err(format!(
                        "unit record {index}: violated outcome carries a panic field"
                    ));
                }
                UnitOutcome::Violated { violations, repro }
            }
            "panicked" => {
                if violations.is_some() || repro.is_some() {
                    return Err(format!(
                        "unit record {index}: panicked outcome carries violation fields"
                    ));
                }
                UnitOutcome::Panicked {
                    message: panic.ok_or_else(|| {
                        format!("unit record {index}: panicked outcome without a panic message")
                    })?,
                }
            }
            other => return Err(format!("unit record {index}: unknown outcome \"{other}\"")),
        };
        Ok(UnitRecord {
            index,
            outcome,
            events,
            decisions,
            honest_messages,
            latency_micros,
        })
    }
}

/// A journal's first line: the grid and shard the batches below belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`Manifest::hash`] of the grid.
    pub manifest_hash: String,
    /// Shard assignment `(index, count)`; `(0, 1)` for unsharded runs.
    pub shard: (u32, u32),
    /// How many units this shard runs in all — what progress is out of.
    pub assigned: usize,
}

impl JournalHeader {
    /// Serialise the header line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::from(JOURNAL_FORMAT)),
            ("manifest_hash", Json::from(self.manifest_hash.as_str())),
            (
                "shard",
                Json::obj([
                    ("index", Json::from(self.shard.0)),
                    ("count", Json::from(self.shard.1)),
                ]),
            ),
            ("assigned", Json::from(self.assigned)),
        ])
    }

    /// Parses a header line.
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy, a foreign
    /// `format` tag, or a shard index not below its count.
    pub fn from_json(json: &Json) -> Result<JournalHeader, String> {
        let mut f = Fields::of(json, "journal header")?;
        let format = f.req("format", json::string)?;
        if format != JOURNAL_FORMAT {
            return Err(format!("journal header: unsupported format \"{format}\""));
        }
        let manifest_hash = f.req("manifest_hash", json::string)?;
        let mut pair = f.sub("shard")?;
        let shard: (u32, u32) = (pair.req("index", json::int)?, pair.req("count", json::int)?);
        pair.finish()?;
        let assigned = f.req("assigned", json::int)?;
        f.finish()?;
        if shard.1 == 0 || shard.0 >= shard.1 {
            return Err(format!(
                "journal header: invalid shard {}/{}",
                shard.0, shard.1
            ));
        }
        Ok(JournalHeader {
            manifest_hash,
            shard,
            assigned,
        })
    }
}

/// One journal line after the header: the units a batch completed and what
/// they alone added to the aggregates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Batch {
    /// The batch's units, by ascending index.
    pub records: Vec<UnitRecord>,
    /// Wire-message delivery latencies of these units only.
    pub delivery_latency: Histogram,
    /// Decision intervals of these units only.
    pub decision_interval: Histogram,
}

impl Batch {
    /// Serialise the batch line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "records",
                Json::Arr(self.records.iter().map(UnitRecord::to_json).collect()),
            ),
            ("delivery_latency", self.delivery_latency.to_json()),
            ("decision_interval", self.decision_interval.to_json()),
        ])
    }

    /// Parses a batch line. The histograms must pass
    /// `Histogram::from_json` consistency validation.
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy, or a batch
    /// of no units (a run never completes one).
    pub fn from_json(json: &Json) -> Result<Batch, String> {
        let histogram = |json: &Json| Histogram::from_json(json).map_err(|e| e.to_string());
        let mut f = Fields::of(json, "journal batch")?;
        let batch = Batch {
            records: f.req("records", json::list(UnitRecord::from_json))?,
            delivery_latency: f.req("delivery_latency", histogram)?,
            decision_interval: f.req("decision_interval", histogram)?,
        };
        f.finish()?;
        if batch.records.is_empty() {
            return Err("journal batch: \"records\" is empty".into());
        }
        Ok(batch)
    }
}

/// A campaign's progress in memory — what replaying a journal yields:
/// per-unit records plus streaming observability aggregates, bound to a
/// manifest by its hash and to a shard assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// [`Manifest::hash`] of the grid this checkpoint belongs to.
    pub manifest_hash: String,
    /// Shard assignment `(index, count)`; `(0, 1)` for unsharded runs and
    /// merged checkpoints.
    pub shard: (u32, u32),
    /// Completed units, sorted by ascending index.
    pub records: Vec<UnitRecord>,
    /// Wire-message delivery latencies, merged across all completed units.
    pub delivery_latency: Histogram,
    /// Decision intervals, merged across all completed units.
    pub decision_interval: Histogram,
}

/// [`Histogram::merge`] adds bucket counts unchecked, and a histogram's
/// `count` is the sum of its buckets: where the counts fit, every bucket does.
fn fold(into: &mut Histogram, delta: &Histogram) -> Result<(), String> {
    let total = into.count().checked_add(delta.count());
    total.ok_or("histogram counts overflow u64")?;
    into.merge(delta);
    Ok(())
}

impl Checkpoint {
    /// An empty checkpoint for the given manifest hash and shard.
    pub fn new(manifest_hash: String, shard: (u32, u32)) -> Self {
        Checkpoint {
            manifest_hash,
            shard,
            records: Vec::new(),
            delivery_latency: Histogram::new(),
            decision_interval: Histogram::new(),
        }
    }

    /// Folds one completed batch in: records extended, histograms merged.
    ///
    /// # Errors
    ///
    /// A unit index at or below the one before it (within the batch or
    /// across batches), or histogram counts that overflow — either is a
    /// corrupt journal, never a batch the run loop built.
    pub fn apply(&mut self, batch: Batch) -> Result<(), String> {
        let mut last = self.records.last().map(|r| r.index);
        for record in &batch.records {
            if last.is_some_and(|last| record.index <= last) {
                return Err(format!("records out of order at index {}", record.index));
            }
            last = Some(record.index);
        }
        fold(&mut self.delivery_latency, &batch.delivery_latency)?;
        fold(&mut self.decision_interval, &batch.decision_interval)?;
        self.records.extend(batch.records);
        Ok(())
    }

    /// Writes the checkpoint as a whole journal in one go — header, then
    /// everything as a single batch line — to a `.tmp` sibling that then
    /// replaces `path` with a rename. The header's `assigned` is the number
    /// of records held. For tests and tools; a campaign run appends.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn save_atomic(&self, path: &Path) -> Result<(), String> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let header = JournalHeader {
            manifest_hash: self.manifest_hash.clone(),
            shard: self.shard,
            assigned: self.records.len(),
        };
        let mut writer = JournalWriter::create(&tmp, &header)?;
        if !self.records.is_empty() {
            writer.append(&Batch {
                records: self.records.clone(),
                delivery_latency: self.delivery_latency.clone(),
                decision_interval: self.decision_interval.clone(),
            })?;
        }
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("cannot rename {} to {}: {e}", tmp.display(), path.display()))
    }

    /// Replays the journal at `path` ([`Journal::load`]).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure, a malformed line, or a file with
    /// no complete header line.
    pub fn load(path: &Path) -> Result<Checkpoint, String> {
        let journal = Journal::load(path)?;
        let headless = || format!("bad journal {}: no complete header line", path.display());
        journal.map(|j| j.checkpoint).ok_or_else(headless)
    }
}

/// What replaying a journal found.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The header's `assigned`.
    pub assigned: usize,
    /// The state after the last complete line.
    pub checkpoint: Checkpoint,
    /// Complete batch lines replayed.
    pub lines: usize,
    /// Bytes up to and including the last newline: where appending resumes.
    pub len: u64,
    /// Whether bytes followed the last newline (and were dropped).
    pub torn_tail: bool,
}

impl Journal {
    /// Replays journal bytes. What follows the last newline is a torn tail
    /// and is ignored; `None` means not even the header line is complete, so
    /// nothing was recorded.
    ///
    /// # Errors
    ///
    /// A complete line that is not what its position calls for — `line N: …`
    /// — or more units recorded than the header assigned.
    pub fn replay(bytes: &[u8]) -> Result<Option<Journal>, String> {
        let Some(end) = bytes.iter().rposition(|&b| b == b'\n') else {
            return Ok(None);
        };
        let at = |line: usize| move |e: String| format!("line {line}: {e}");
        let mut lines = bytes[..end].split(|&b| b == b'\n').map(|line| {
            let text = std::str::from_utf8(line).map_err(|_| "not UTF-8".to_string());
            text.and_then(Json::parse)
        });
        let header = lines.next().expect("split yields at least one piece");
        let header = header
            .and_then(|json| JournalHeader::from_json(&json))
            .map_err(at(1))?;
        let mut checkpoint = Checkpoint::new(header.manifest_hash, header.shard);
        let mut replayed = 0;
        for line in lines {
            replayed += 1;
            line.and_then(|json| Batch::from_json(&json))
                .and_then(|batch| checkpoint.apply(batch))
                .map_err(at(replayed + 1))?;
        }
        if checkpoint.records.len() > header.assigned {
            return Err(format!(
                "{} units recorded, but the header assigned {}",
                checkpoint.records.len(),
                header.assigned
            ));
        }
        Ok(Some(Journal {
            assigned: header.assigned,
            checkpoint,
            lines: replayed,
            len: end as u64 + 1,
            torn_tail: end + 1 < bytes.len(),
        }))
    }

    /// Reads and replays the journal file at `path`.
    ///
    /// # Errors
    ///
    /// The file cannot be read, or [`replay`](Journal::replay) rejects it.
    pub fn load(path: &Path) -> Result<Option<Journal>, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Journal::replay(&bytes).map_err(|e| format!("bad journal {}: {e}", path.display()))
    }
}

/// A journal file held open for appending. Nothing is `fsync`ed: a line
/// handed to the OS survives the process being killed, not the machine
/// losing power.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Starts a journal at `path`, replacing whatever is there, with its
    /// header line.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<JournalWriter, String> {
        let file =
            File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let path = path.to_path_buf();
        let mut writer = JournalWriter { file, path };
        writer.write_line(&header.to_json())?;
        Ok(writer)
    }

    /// Reopens a replayed journal to append after its first `keep` bytes
    /// ([`Journal::len`]), cutting a torn tail off first.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn reopen(path: &Path, keep: u64) -> Result<JournalWriter, String> {
        let file = OpenOptions::new().append(true).open(path);
        let file = file
            .and_then(|file| file.set_len(keep).map(|()| file))
            .map_err(|e| format!("cannot reopen {}: {e}", path.display()))?;
        let path = path.to_path_buf();
        Ok(JournalWriter { file, path })
    }

    /// Appends one completed batch as one line, in one write.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn append(&mut self, batch: &Batch) -> Result<(), String> {
        self.write_line(&batch.to_json())
    }

    fn write_line(&mut self, line: &Json) -> Result<(), String> {
        let mut text = line.dump();
        text.push('\n');
        let written = self.file.write_all(text.as_bytes());
        written
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }
}

/// The unit indexes assigned to shard `(index, count)`: every index
/// congruent to the shard index modulo the shard count, in ascending order.
/// Round-robin keeps each shard's workload representative of the whole grid
/// (contiguous block splits would hand one shard all the large-n cells).
///
/// # Errors
///
/// Returns a message when the shard spec is out of range.
pub fn shard_units(manifest: &Manifest, shard: (u32, u32)) -> Result<Vec<usize>, String> {
    if shard.1 == 0 || shard.0 >= shard.1 {
        return Err(format!("invalid shard {}/{}", shard.0, shard.1));
    }
    Ok((0..manifest.total_units())
        .filter(|i| (i % shard.1 as usize) as u32 == shard.0)
        .collect())
}

/// Merges shard checkpoints into a single complete checkpoint: verifies
/// every part against the manifest hash, unions the records (rejecting
/// duplicates), and folds the histogram aggregates. Histogram merge is
/// commutative and associative (`u64` bucket adds, min/max folds), so the
/// merged aggregates are byte-identical to a straight-through run's.
///
/// # Errors
///
/// Returns a message on hash mismatch, duplicate units, or incomplete
/// coverage of `0..total_units`.
pub fn merge_checkpoints(manifest: &Manifest, parts: &[Checkpoint]) -> Result<Checkpoint, String> {
    let hash = manifest.hash();
    let mut merged = Checkpoint::new(hash.clone(), (0, 1));
    for part in parts {
        if part.manifest_hash != hash {
            return Err(format!(
                "checkpoint manifest hash {} does not match the manifest ({hash}); \
                 was the grid edited?",
                part.manifest_hash
            ));
        }
        merged.records.extend(part.records.iter().cloned());
        fold(&mut merged.delivery_latency, &part.delivery_latency)?;
        fold(&mut merged.decision_interval, &part.decision_interval)?;
    }
    merged.records.sort_by_key(|r| r.index);
    for pair in merged.records.windows(2) {
        if pair[1].index == pair[0].index {
            return Err(format!(
                "merge: unit {} appears in more than one checkpoint",
                pair[0].index
            ));
        }
    }
    let total = manifest.total_units();
    if merged.records.len() != total {
        return Err(format!(
            "merge: {}/{total} units completed; run the missing shards to completion first",
            merged.records.len()
        ));
    }
    Ok(merged)
}

fn summary_json(samples: &[f64]) -> Json {
    let s = Cell::of(samples.iter().map(|&x| (x, false)));
    Json::obj([
        ("count", Json::from(s.count)),
        ("mean", Json::from(s.mean)),
        ("std_dev", Json::from(s.std_dev)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
    ])
}

/// Builds the campaign's final report from a complete checkpoint. Every
/// figure derives from the per-unit records in unit order (tallies, the
/// per-cell [`Cell`]s) or from the order-independent histogram
/// aggregates, so the report is byte-identical however the units were
/// executed: straight through, killed-and-resumed, or sharded-and-merged,
/// at any thread count.
///
/// # Errors
///
/// Returns a message when the checkpoint does not match the manifest or
/// does not cover every unit.
pub fn final_report(manifest: &Manifest, checkpoint: &Checkpoint) -> Result<Json, String> {
    let hash = manifest.hash();
    if checkpoint.manifest_hash != hash {
        return Err(format!(
            "checkpoint manifest hash {} does not match the manifest ({hash})",
            checkpoint.manifest_hash
        ));
    }
    let total = manifest.total_units();
    if checkpoint.records.len() != total {
        return Err(format!(
            "campaign incomplete: {}/{total} units recorded",
            checkpoint.records.len()
        ));
    }
    for (i, record) in checkpoint.records.iter().enumerate() {
        if record.index != i {
            return Err(format!(
                "campaign records skip unit {i} (found {})",
                record.index
            ));
        }
    }

    let mut clean = 0u64;
    let mut violated = 0u64;
    let mut panicked = 0u64;
    let mut first_panic: Option<(usize, &str)> = None;
    let mut oracle_tally: BTreeMap<String, u64> = BTreeMap::new();
    for record in &checkpoint.records {
        match &record.outcome {
            UnitOutcome::Clean => clean += 1,
            UnitOutcome::Violated { violations, .. } => {
                violated += 1;
                for line in violations {
                    // Violation lines are "[oracle] detail".
                    let oracle = line
                        .strip_prefix('[')
                        .and_then(|rest| rest.split_once(']'))
                        .map(|(name, _)| name)
                        .unwrap_or("unknown");
                    *oracle_tally.entry(oracle.to_string()).or_insert(0) += 1;
                }
            }
            UnitOutcome::Panicked { message } => {
                panicked += 1;
                if first_panic.is_none() {
                    first_panic = Some((record.index, message));
                }
            }
        }
    }

    let seeds = manifest.seeds_per_cell();
    let cells: Vec<Json> = (0..manifest.total_cells())
        .map(|cell| {
            let descriptor = manifest.unit(cell * seeds);
            let records = &checkpoint.records[cell * seeds..(cell + 1) * seeds];
            let mut cell_clean = 0u64;
            let mut cell_violated = 0u64;
            let mut cell_panicked = 0u64;
            let mut latencies = Vec::new();
            let mut events = Vec::new();
            let mut messages = Vec::new();
            for record in records {
                match &record.outcome {
                    UnitOutcome::Clean => cell_clean += 1,
                    UnitOutcome::Violated { .. } => cell_violated += 1,
                    UnitOutcome::Panicked { .. } => {
                        cell_panicked += 1;
                        continue; // panicked units carry no metrics
                    }
                }
                if let Some(latency) = record.latency_micros {
                    latencies.push(latency as f64);
                }
                events.push(record.events as f64);
                messages.push(record.honest_messages as f64);
            }
            Json::obj([
                ("protocol", Json::from(descriptor.protocol)),
                ("n", Json::from(descriptor.n)),
                ("delay", Json::from(descriptor.delay)),
                ("net", Json::from(descriptor.net)),
                ("attack", Json::from(descriptor.attack)),
                ("units", Json::from(seeds)),
                ("clean", Json::from(cell_clean)),
                ("violated", Json::from(cell_violated)),
                ("panicked", Json::from(cell_panicked)),
                ("latency_micros", summary_json(&latencies)),
                ("events", summary_json(&events)),
                ("honest_messages", summary_json(&messages)),
            ])
        })
        .collect();

    let mut pairs = vec![
        ("format".to_string(), Json::from(REPORT_FORMAT)),
        ("manifest_hash".to_string(), Json::from(hash.as_str())),
        ("units".to_string(), Json::from(total)),
        ("clean".to_string(), Json::from(clean)),
        ("violated".to_string(), Json::from(violated)),
        ("panicked".to_string(), Json::from(panicked)),
    ];
    if let Some((unit, message)) = first_panic {
        pairs.push((
            "first_panic".to_string(),
            Json::obj([("unit", Json::from(unit)), ("message", Json::from(message))]),
        ));
    }
    pairs.push((
        "violations".to_string(),
        Json::Obj(
            oracle_tally
                .into_iter()
                .map(|(oracle, count)| (oracle, Json::from(count)))
                .collect(),
        ),
    ));
    pairs.push(("cells".to_string(), Json::Arr(cells)));
    pairs.push((
        "observability".to_string(),
        Json::obj([
            ("delivery_latency", checkpoint.delivery_latency.to_json()),
            ("decision_interval", checkpoint.decision_interval.to_json()),
        ]),
    ));
    Ok(Json::Obj(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn small_manifest() -> Manifest {
        Manifest {
            protocols: vec!["pbft".into(), "hotstuff-ns".into()],
            nodes: vec![4, 7],
            delays: vec!["constant".into()],
            nets: vec!["none".into(), "full_mesh:churn=5,2,500,4000".into()],
            attacks: vec![0, 500],
            seeds: (10, 13),
            checkpoint_every: 4,
            max_actions: 48,
        }
    }

    #[test]
    fn grid_expands_deterministically_with_seed_fastest() {
        let m = small_manifest();
        assert_eq!(m.seeds_per_cell(), 3);
        assert_eq!(m.total_cells(), 16);
        assert_eq!(m.total_units(), 48);

        // Seed varies fastest: the first cell's units are contiguous.
        let u0 = m.unit(0);
        assert_eq!(
            (u0.protocol, u0.n, u0.delay, u0.net, u0.attack, u0.seed),
            ("pbft", 4, "constant", "none", 0, 10)
        );
        assert_eq!(u0.cell, 0);
        assert_eq!(m.unit(1).seed, 11);
        assert_eq!(m.unit(2).seed, 12);
        // Then the attack axis, then net, then n, then protocol.
        let u3 = m.unit(3);
        assert_eq!((u3.cell, u3.attack, u3.seed), (1, 500, 10));
        let u6 = m.unit(6);
        assert_eq!(u6.net, "full_mesh:churn=5,2,500,4000");
        let last = m.unit(47);
        assert_eq!(
            (last.protocol, last.n, last.attack, last.seed),
            ("hotstuff-ns", 7, 500, 12)
        );
        // Every index maps to a distinct combination.
        let combos: std::collections::HashSet<String> = (0..m.total_units())
            .map(|i| {
                let u = m.unit(i);
                format!(
                    "{}|{}|{}|{}|{}|{}",
                    u.protocol, u.n, u.delay, u.net, u.attack, u.seed
                )
            })
            .collect();
        assert_eq!(combos.len(), m.total_units());
    }

    #[test]
    fn manifest_round_trips_and_hash_pins_the_grid() {
        let m = small_manifest();
        let json = m.to_json();
        let back = Manifest::from_json(&json).unwrap();
        assert_eq!(back, m);
        let reparsed = Json::parse(&json.dump_pretty()).unwrap();
        assert_eq!(Manifest::from_json(&reparsed).unwrap(), m);

        assert_eq!(m.hash(), back.hash(), "hash is a pure function");
        let mut edited = m.clone();
        edited.seeds = (10, 14);
        assert_ne!(m.hash(), edited.hash(), "an edited grid must re-hash");

        // Strictness: unknown fields and empty axes are rejected.
        let mut junk = json.clone();
        if let Json::Obj(fields) = &mut junk {
            fields.push(("threads".into(), Json::from(4u64)));
        }
        assert!(Manifest::from_json(&junk)
            .unwrap_err()
            .contains("unknown field"));
        let mut empty = m.clone();
        empty.protocols.clear();
        assert!(Manifest::from_json(&empty.to_json()).is_err());
        let mut inverted = m.clone();
        inverted.seeds = (5, 5);
        assert!(Manifest::from_json(&inverted.to_json()).is_err());
    }

    #[test]
    fn mix_seed_is_stable_and_stream_separated() {
        // Pinned values: the unit → scenario mapping must never drift.
        assert_eq!(mix_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(mix_seed(7, 0), mix_seed(7, 1));
        assert_ne!(mix_seed(7, 0), mix_seed(8, 0));
    }

    fn record(index: usize, latency: Option<u64>) -> UnitRecord {
        UnitRecord {
            index,
            outcome: UnitOutcome::Clean,
            events: 100 + index as u64,
            decisions: 10,
            honest_messages: 50,
            latency_micros: latency,
        }
    }

    #[test]
    fn unit_record_round_trips_every_outcome() {
        let clean = record(3, Some(1_000));
        assert_eq!(UnitRecord::from_json(&clean.to_json()).unwrap(), clean);

        let violated = UnitRecord {
            outcome: UnitOutcome::Violated {
                violations: vec!["[agreement] slot 0: n1 decided 2 but n0 decided 1".into()],
                repro: Some("out/repro-unit7-agreement.json".into()),
            },
            ..record(7, None)
        };
        assert_eq!(
            UnitRecord::from_json(&violated.to_json()).unwrap(),
            violated
        );

        let panicked = UnitRecord {
            outcome: UnitOutcome::Panicked {
                message: "index out of bounds".into(),
            },
            events: 0,
            decisions: 0,
            honest_messages: 0,
            latency_micros: None,
            index: 9,
        };
        assert_eq!(
            UnitRecord::from_json(&panicked.to_json()).unwrap(),
            panicked
        );

        // Outcome-specific fields must match the declared outcome.
        let mut mismatched = clean.to_json();
        if let Json::Obj(fields) = &mut mismatched {
            fields.push(("panic".into(), Json::from("boom")));
        }
        assert!(UnitRecord::from_json(&mismatched).is_err());
    }

    /// A fresh scratch directory per test so parallel tests never share files.
    fn scratch(test: &str) -> PathBuf {
        let name = format!("bft-sim-journal-{test}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `size` clean units starting at `first`, with something in both
    /// histograms.
    fn batch(first: usize, size: usize) -> Batch {
        let mut batch = Batch::default();
        for index in first..first + size {
            batch.records.push(record(index, Some(500 + index as u64)));
            let micros = SimDuration::from_micros(100 + index as u64);
            batch.delivery_latency.record(micros);
            batch.decision_interval.record(micros);
        }
        batch
    }

    fn header(assigned: usize) -> JournalHeader {
        JournalHeader {
            manifest_hash: small_manifest().hash(),
            shard: (0, 1),
            assigned,
        }
    }

    #[test]
    fn journal_replays_to_the_state_its_batches_built() {
        let dir = scratch("replay");
        let path = dir.join("ck.json");
        let header = header(48);
        let mut expected = Checkpoint::new(header.manifest_hash.clone(), header.shard);
        let mut writer = JournalWriter::create(&path, &header).unwrap();
        for first in [0, 4, 8] {
            writer.append(&batch(first, 4)).unwrap();
            expected.apply(batch(first, 4)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let journal = Journal::load(&path).unwrap().unwrap();
        assert_eq!(journal.checkpoint, expected);
        assert_eq!((journal.assigned, journal.lines), (48, 3));
        assert_eq!(
            (journal.len, journal.torn_tail),
            (bytes.len() as u64, false)
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), expected);

        // A torn tail is dropped on load and cut off before the next append:
        // the file ends up byte-identical to the untorn one.
        let last_line = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let torn = Journal::load(&path).unwrap().unwrap();
        assert_eq!((torn.lines, torn.torn_tail), (2, true));
        assert_eq!(torn.len, last_line as u64);
        assert_eq!(torn.checkpoint.records.len(), 8);
        let mut writer = JournalWriter::reopen(&path, torn.len).unwrap();
        writer.append(&batch(8, 4)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // No complete header line: nothing was recorded.
        assert_eq!(Journal::replay(b""), Ok(None));
        assert_eq!(Journal::replay(&bytes[..20]), Ok(None));
        assert!(Checkpoint::load(&dir.join("absent")).is_err());
        std::fs::write(&path, &bytes[..20]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.contains("no complete header line"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_complete_line_that_does_not_parse_names_its_line_number() {
        let line = |json: Json| json.dump() + "\n";
        let good = [
            line(header(12).to_json()),
            line(batch(0, 4).to_json()),
            line(batch(4, 4).to_json()),
        ];
        let replay = |lines: &[&str]| Journal::replay(lines.concat().as_bytes());
        assert!(replay(&[&good[0], &good[1], &good[2]]).is_ok());
        let err = |lines: &[&str]| replay(lines).unwrap_err();

        let cut = &good[2][..good[2].len() - 9];
        assert!(err(&[&good[0], &good[1], cut, "\n"]).starts_with("line 3: "));
        assert!(err(&[&good[0], "\n", &good[1]]).starts_with("line 2: "));
        assert!(err(&[&good[1], &good[2]]).starts_with("line 1: journal header: "));
        let twice = err(&[&good[0], &good[0]]);
        assert!(twice.starts_with("line 2: journal batch: "), "{twice}");
        // Non-ascending across lines: swapped, and repeated.
        for lines in [
            [&good[0], &good[2], &good[1]],
            [&good[0], &good[1], &good[1]],
        ] {
            let lines = lines.map(String::as_str);
            assert_eq!(err(&lines), "line 3: records out of order at index 0");
        }
        let empty = line(Batch::default().to_json());
        let message = err(&[&good[0], &empty]);
        assert_eq!(message, "line 2: journal batch: \"records\" is empty");
        let utf8 = replay(&[&good[0], "\u{fffd}"]).unwrap().unwrap();
        assert!(utf8.torn_tail, "bytes after the last newline never parse");
        let mut bytes = good[0].clone().into_bytes();
        bytes.extend([0xff, b'\n']);
        assert_eq!(Journal::replay(&bytes).unwrap_err(), "line 2: not UTF-8");
        // More units than the header assigned; counts that overflow.
        let small = line(header(7).to_json());
        let over = err(&[&small, &good[1], &good[2]]);
        assert_eq!(over, "8 units recorded, but the header assigned 7");
        let huge = format!(
            "{{\"count\":{0},\"sum_micros\":{0},\"min_micros\":1,\"max_micros\":1,\
             \"buckets\":[[1,{0}]]}}",
            u64::MAX
        );
        let heavy = |index: usize| {
            let record = record(index, None).to_json().dump();
            format!(
                "{{\"records\":[{record}],\"delivery_latency\":{huge},\
                 \"decision_interval\":{huge}}}\n"
            )
        };
        let overflow = err(&[&good[0], &heavy(0), &heavy(1)]);
        assert_eq!(overflow, "line 3: histogram counts overflow u64");
    }

    #[test]
    fn hostile_strings_stay_on_one_journal_line() {
        let dir = scratch("strings");
        let path = dir.join("ck.json");
        let nasty = "line one\nline \"two\"\r\n\\ \u{1}\u{2028}";
        let mut ck = Checkpoint::new(small_manifest().hash(), (0, 1));
        ck.records.push(UnitRecord {
            outcome: UnitOutcome::Panicked {
                message: nasty.into(),
            },
            ..record(0, None)
        });
        ck.records.push(UnitRecord {
            outcome: UnitOutcome::Violated {
                violations: vec![format!("[agreement] {nasty}")],
                repro: Some(format!("out/{nasty}.json")),
            },
            ..record(1, None)
        });
        ck.save_atomic(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches('\n').count(), 2, "header and one batch line");
        assert!(text.ends_with('\n'));
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // An empty checkpoint is a header alone, and overwriting goes
        // through the same temp-and-rename path.
        let empty = Checkpoint::new(ck.manifest_hash.clone(), (1, 3));
        empty.save_atomic(&path).unwrap();
        assert_eq!(Journal::load(&path).unwrap().unwrap().lines, 0);
        assert_eq!(Checkpoint::load(&path).unwrap(), empty);
        assert!(!dir.join("ck.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The regression counter behind the journal: what a batch costs to
    /// record does not depend on how many units were recorded before it.
    #[test]
    fn bytes_per_batch_do_not_grow_with_units_recorded() {
        let dir = scratch("bytes");
        let path = dir.join("ck.json");
        let (units, every) = (4608, 16);
        let mut writer = JournalWriter::create(&path, &header(units)).unwrap();
        let size = || std::fs::metadata(&path).unwrap().len();
        let mut grew = Vec::new();
        for first in (0..units).step_by(every) {
            let before = size();
            writer.append(&batch(first, every)).unwrap();
            grew.push(size() - before);
        }
        // From the second batch to the last a record's index gains two
        // digits, its events and latency one each; a histogram's sum, min and
        // max may gain one each too. Nothing else may differ.
        let (second, last) = (grew[1], grew[grew.len() - 1]);
        let digits = 4 * every as u64 + 6;
        assert!(last.abs_diff(second) <= digits, "{second} → {last}");
        assert!(size() < 2_000_000, "{} bytes for {units} units", size());
        assert_eq!(Checkpoint::load(&path).unwrap().records.len(), units);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_partition_the_units() {
        let m = small_manifest();
        let a = shard_units(&m, (0, 3)).unwrap();
        let b = shard_units(&m, (1, 3)).unwrap();
        let c = shard_units(&m, (2, 3)).unwrap();
        let mut all: Vec<usize> = a.iter().chain(&b).chain(&c).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..m.total_units()).collect::<Vec<_>>());
        assert!(shard_units(&m, (3, 3)).is_err());
        assert!(shard_units(&m, (0, 0)).is_err());
        assert_eq!(shard_units(&m, (0, 1)).unwrap().len(), m.total_units());
    }

    #[test]
    fn merged_shards_report_identically_to_a_straight_run() {
        let m = small_manifest();
        let hash = m.hash();
        let total = m.total_units();

        // A synthetic "straight through" checkpoint covering every unit.
        let mut straight = Checkpoint::new(hash.clone(), (0, 1));
        for i in 0..total {
            let mut r = record(i, (i % 3 != 0).then(|| 1_000 + i as u64));
            if i == 5 {
                r.outcome = UnitOutcome::Violated {
                    violations: vec!["[termination] run stopped".into()],
                    repro: None,
                };
            }
            if i == 9 {
                r.outcome = UnitOutcome::Panicked {
                    message: "boom".into(),
                };
                r.latency_micros = None;
            }
            straight
                .delivery_latency
                .record(SimDuration::from_micros(i as u64 * 10));
            straight.records.push(r);
        }

        // The same records dealt round-robin onto two shards.
        let mut shard0 = Checkpoint::new(hash.clone(), (0, 2));
        let mut shard1 = Checkpoint::new(hash.clone(), (1, 2));
        for r in &straight.records {
            let target = if r.index % 2 == 0 {
                &mut shard0
            } else {
                &mut shard1
            };
            target.records.push(r.clone());
            target
                .delivery_latency
                .record(SimDuration::from_micros(r.index as u64 * 10));
        }

        let merged = merge_checkpoints(&m, &[shard0.clone(), shard1.clone()]).unwrap();
        let a = final_report(&m, &straight).unwrap().dump_pretty();
        let b = final_report(&m, &merged).unwrap().dump_pretty();
        assert_eq!(a, b, "sharded+merged report must match the straight run");
        // Merge order does not matter either.
        let swapped = merge_checkpoints(&m, &[shard1.clone(), shard0.clone()]).unwrap();
        assert_eq!(final_report(&m, &swapped).unwrap().dump_pretty(), a);

        // The report carries the tallies and the first panic.
        let report = final_report(&m, &straight).unwrap();
        assert_eq!(report.get("violated").and_then(Json::as_u64), Some(1));
        assert_eq!(report.get("panicked").and_then(Json::as_u64), Some(1));
        assert_eq!(
            report
                .get("first_panic")
                .and_then(|p| p.get("unit"))
                .and_then(Json::as_u64),
            Some(9)
        );
        assert_eq!(
            report
                .get("violations")
                .and_then(|v| v.get("termination"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            report.get("cells").and_then(Json::as_arr).unwrap().len(),
            m.total_cells()
        );

        // Incomplete coverage is an error, not a silent partial report.
        let incomplete = merge_checkpoints(&m, &[shard0.clone()]);
        assert!(incomplete.unwrap_err().contains("units completed"));
        // Duplicate units are rejected.
        let dup = merge_checkpoints(&m, &[shard0.clone(), shard0.clone(), shard1]);
        assert!(dup.unwrap_err().contains("more than one checkpoint"));
        // A checkpoint from an edited grid is rejected by hash.
        let mut edited = m.clone();
        edited.max_actions = 99;
        assert!(final_report(&edited, &straight)
            .unwrap_err()
            .contains("does not match"));
    }
}
