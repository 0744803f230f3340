//! The `bft-sim campaign` subcommand: resumable, shardable parameter-grid
//! sweeps driven by a `bft-sim-campaign-v1` manifest.
//!
//! The grid mechanics — manifest expansion, the journal, sharding,
//! merging, report derivation — live in [`bft_sim_core::campaign`]. This
//! module owns what only the CLI layer knows: how a grid axis value maps to
//! a concrete [`ScenarioSpec`] (protocol names, delay presets, the
//! `--net-preset` grammar), the batch execution loop over [`run_unit`], the
//! repro files written for violated units, and the progress/report output.
//!
//! [`exec_campaign_run`] and [`exec_campaign_merge`] return the final
//! report as a [`Json`] value instead of printing it, so the byte-identity
//! integration test can drive whole campaigns in-process and compare
//! documents.

use std::path::{Path, PathBuf};

use bft_sim_core::campaign::{
    final_report, merge_checkpoints, mix_seed, shard_units, Batch, Checkpoint, Journal,
    JournalHeader, JournalWriter, Manifest, Unit, UnitOutcome, UnitRecord,
};
use bft_sim_core::json::{self, Json};
use bft_sim_core::sweep::sweep;
use bft_sim_simcheck::{check_node_count, run_unit, DelaySpec, ScenarioSpec, UnitRun};
use bft_simulator::net::topology::check_link_nodes;
use bft_simulator::prelude::ProtocolKind;

use crate::{parse_net_preset, CliError};

/// Per-node delivery-latency and decision-interval histograms harvested from
/// a unit's observability block, ready to merge into its batch's
/// aggregates. `None` when the unit panicked before producing them.
type UnitHistograms = Option<(
    Vec<bft_sim_core::obs::Histogram>,
    Vec<bft_sim_core::obs::Histogram>,
)>;

/// Parameters of a `bft-sim campaign run` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRunSpec {
    /// Path of the `bft-sim-campaign-v1` manifest file.
    pub manifest: String,
    /// Journal file path; `None` derives one next to the manifest
    /// (shard-qualified when sharded).
    pub checkpoint: Option<String>,
    /// Continue from an existing journal instead of refusing to overwrite
    /// it. A missing file, or one whose header line a kill cut short,
    /// resumes from nothing — a fresh start — so retry loops need no
    /// existence probe.
    pub resume: bool,
    /// Shard assignment `(index, count)`; `(0, 1)` runs the whole grid.
    pub shard: (u32, u32),
    /// Worker threads per batch (0 = available parallelism). The report is
    /// byte-identical at any thread count.
    pub threads: usize,
    /// Directory repro files for violated units are written to.
    pub out_dir: String,
    /// Print the final report as JSON instead of a text summary.
    pub json: bool,
    /// Stop (at a batch boundary) after completing this many units in this
    /// invocation — the deterministic stand-in for a mid-flight kill, used
    /// by the resume tests and handy for time-boxed CI slices.
    pub max_units: Option<usize>,
}

impl Default for CampaignRunSpec {
    fn default() -> Self {
        CampaignRunSpec {
            manifest: String::new(),
            checkpoint: None,
            resume: false,
            shard: (0, 1),
            threads: 0,
            out_dir: ".".into(),
            json: false,
            max_units: None,
        }
    }
}

/// Parameters of a `bft-sim campaign status` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStatusSpec {
    /// The journal file to replay.
    pub(crate) journal: String,
    /// Print the status as a JSON object instead of one line of text.
    pub(crate) json: bool,
}

/// Parameters of a `bft-sim campaign merge` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignMergeSpec {
    /// Path of the manifest the shard checkpoints were produced from.
    pub manifest: String,
    /// The shard checkpoint files to merge.
    pub checkpoints: Vec<String>,
    /// Print the final report as JSON instead of a text summary.
    pub json: bool,
}

/// Loads and validates a campaign manifest: the JSON must parse, the
/// document must round-trip the strict schema, and every grid axis value
/// must be meaningful to this binary (protocol names, delay presets, net
/// presets) — checked up front so a typo fails before any unit runs.
pub fn load_manifest(path: &str) -> Result<Manifest, CliError> {
    let checked = |json: &Json| {
        let manifest = Manifest::from_json(json)?;
        for &n in &manifest.nodes {
            check_node_count(n).map_err(|e| format!("manifest: bad \"nodes\": {e}"))?;
        }
        for protocol in &manifest.protocols {
            if ProtocolKind::parse(protocol).is_none() {
                return Err(format!("unknown protocol \"{protocol}\""));
            }
        }
        for delay in &manifest.delays {
            DelaySpec::named(delay)?;
        }
        for net in manifest.nets.iter().filter(|net| *net != "none") {
            parse_net_preset(net).map_err(|e| format!("net \"{net}\": {e}"))?;
            for &n in &manifest.nodes {
                check_link_nodes(n).map_err(|e| format!("manifest: net \"{net}\": {e}"))?;
            }
        }
        Ok(manifest)
    };
    json::load(path, "manifest", checked).map_err(CliError::repro)
}

/// Maps one expanded work unit to the scenario it runs. Every derived seed
/// comes from [`mix_seed`] over the unit's manifest seed, so the mapping is
/// a pure function of the manifest — the determinism the resume/shard
/// byte-identity guarantee rests on.
fn unit_scenario(manifest: &Manifest, unit: &Unit<'_>) -> Result<ScenarioSpec, CliError> {
    let kind = ProtocolKind::parse(unit.protocol)
        .ok_or_else(|| CliError::repro(format!("unknown protocol \"{}\"", unit.protocol)))?;
    let mut spec = ScenarioSpec::baseline(kind);
    spec.n = unit.n;
    spec.seed = mix_seed(unit.seed, 0);
    spec.genesis_seed = mix_seed(unit.seed, 1);
    spec.adversary_seed = mix_seed(unit.seed, 2);
    spec.delay = DelaySpec::named(unit.delay).map_err(CliError::repro)?;
    if unit.net != "none" {
        spec.net = Some(parse_net_preset(unit.net)?);
    }
    if unit.attack > 0 {
        spec.intensity_permille = unit.attack;
        spec.max_actions = manifest.max_actions;
    }
    Ok(spec)
}

/// The default checkpoint path for a manifest: the manifest path with its
/// `.json` suffix swapped for `.checkpoint.json`, shard-qualified when the
/// run is sharded so concurrent shards never race on one file.
pub(crate) fn default_checkpoint_path(manifest_path: &str, shard: (u32, u32)) -> String {
    let base = manifest_path.strip_suffix(".json").unwrap_or(manifest_path);
    if shard.1 > 1 {
        format!("{base}.shard{}of{}.checkpoint.json", shard.0, shard.1)
    } else {
        format!("{base}.checkpoint.json")
    }
}

/// Turns one completed unit into its durable record, writing a repro file
/// when the unit violated an oracle.
fn record_of(
    unit_index: usize,
    run: UnitRun,
    out_dir: &str,
) -> Result<(UnitRecord, UnitHistograms), CliError> {
    if let Some(message) = run.panic {
        return Ok((
            UnitRecord {
                index: unit_index,
                outcome: UnitOutcome::Panicked { message },
                events: 0,
                decisions: 0,
                honest_messages: 0,
                latency_micros: None,
            },
            None,
        ));
    }
    let outcome = if run.violations.is_empty() {
        UnitOutcome::Clean
    } else {
        let repro_path = run.repro.as_ref().map(|repro| {
            let path =
                Path::new(out_dir).join(format!("repro-unit{unit_index}-{}.json", repro.oracle));
            path.display().to_string()
        });
        if let (Some(repro), Some(path)) = (&run.repro, &repro_path) {
            std::fs::create_dir_all(out_dir)
                .map_err(|e| CliError::runtime(format!("cannot create {out_dir}: {e}")))?;
            std::fs::write(path, repro.to_json().dump_pretty())
                .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
        }
        UnitOutcome::Violated {
            violations: run.violations,
            repro: repro_path,
        }
    };
    let histograms = run
        .observability
        .map(|obs| (obs.delivery_latency, obs.decision_interval));
    Ok((
        UnitRecord {
            index: unit_index,
            outcome,
            events: run.events_processed,
            decisions: run.decisions,
            honest_messages: run.honest_messages,
            latency_micros: run.latency_micros,
        },
        histograms,
    ))
}

/// Resume's checks: the journal at `path` belongs to this grid and shard
/// (`header`), and holds this shard's (`assigned`) first units in order.
fn check_resumable(
    journal: &Journal,
    header: &JournalHeader,
    assigned: &[usize],
    path: &Path,
) -> Result<(), CliError> {
    let (hash, ck, path) = (&header.manifest_hash, &journal.checkpoint, path.display());
    if ck.manifest_hash != *hash {
        return Err(CliError::repro(format!(
            "checkpoint {path} was produced from manifest {} but this manifest \
             hashes to {hash}; was the grid edited mid-campaign?",
            ck.manifest_hash
        )));
    }
    if ck.shard != header.shard {
        return Err(CliError::repro(format!(
            "checkpoint {path} belongs to shard {}/{}, not {}/{}",
            ck.shard.0, ck.shard.1, header.shard.0, header.shard.1
        )));
    }
    if journal.assigned != header.assigned {
        return Err(CliError::repro(format!(
            "checkpoint {path} says its shard has {} units, but this shard has {}",
            journal.assigned, header.assigned
        )));
    }
    for (position, record) in ck.records.iter().enumerate() {
        if assigned.get(position) != Some(&record.index) {
            return Err(CliError::repro(format!(
                "checkpoint {path} records unit {} at position {position}, but this \
                 shard's unit there is {:?}",
                record.index,
                assigned.get(position)
            )));
        }
    }
    Ok(())
}

/// Runs (or resumes) a campaign, appending one journal line per completed
/// batch. Returns the final report when this invocation completed an
/// unsharded grid, `None` when it stopped early (`--max-units`) or finished
/// one shard of a sharded run (whose report comes from `campaign merge`).
///
/// # Errors
///
/// Artifact errors (malformed manifest/journal, a journal from an edited
/// grid) exit 4; refusing to clobber a journal without `--resume` and I/O
/// failures exit 1.
pub fn exec_campaign_run(spec: &CampaignRunSpec) -> Result<Option<Json>, CliError> {
    let manifest = load_manifest(&spec.manifest)?;
    let assigned = shard_units(&manifest, spec.shard).map_err(CliError::usage)?;
    let header = JournalHeader {
        manifest_hash: manifest.hash(),
        shard: spec.shard,
        assigned: assigned.len(),
    };
    let checkpoint_path = PathBuf::from(
        spec.checkpoint
            .clone()
            .unwrap_or_else(|| default_checkpoint_path(&spec.manifest, spec.shard)),
    );

    let replayed = if checkpoint_path.exists() {
        if !spec.resume {
            return Err(CliError::runtime(format!(
                "checkpoint {} already exists; pass --resume to continue it \
                 or delete it to start over",
                checkpoint_path.display()
            )));
        }
        Journal::load(&checkpoint_path).map_err(CliError::repro)?
    } else {
        None
    };
    let (mut checkpoint, writer) = match replayed {
        Some(journal) => {
            check_resumable(&journal, &header, &assigned, &checkpoint_path)?;
            let writer = JournalWriter::reopen(&checkpoint_path, journal.len);
            (journal.checkpoint, writer)
        }
        None => (
            Checkpoint::new(header.manifest_hash.clone(), header.shard),
            JournalWriter::create(&checkpoint_path, &header),
        ),
    };
    let mut writer = writer.map_err(CliError::runtime)?;

    let mut completed_now = 0usize;
    let mut cursor = checkpoint.records.len();
    while cursor < assigned.len() {
        if spec.max_units.is_some_and(|cap| completed_now >= cap) {
            out!(
                stderr: "campaign: pausing after {completed_now} units this invocation \
                 ({}/{} total); resume with --resume",
                checkpoint.records.len(),
                assigned.len()
            );
            return Ok(None);
        }
        let batch_end = cursor
            .saturating_add(manifest.checkpoint_every)
            .min(assigned.len());
        let units = &assigned[cursor..batch_end];
        let runs = sweep(units.len(), spec.threads, |j| {
            let unit = manifest.unit(units[j]);
            let scenario = unit_scenario(&manifest, &unit)?;
            run_unit(&scenario, Default::default()).map_err(CliError::runtime)
        });
        let mut batch = Batch::default();
        for (j, outcome) in runs.into_iter().enumerate() {
            // run_unit already isolates engine panics; a panic at the sweep
            // layer (spec construction) is still recorded rather than torn
            // out of the campaign.
            let run = UnitRun::from_slot(outcome)?;
            let (record, histograms) = record_of(units[j], run, &spec.out_dir)?;
            if let Some((delivery, interval)) = histograms {
                for h in &delivery {
                    batch.delivery_latency.merge(h);
                }
                for h in &interval {
                    batch.decision_interval.merge(h);
                }
            }
            batch.records.push(record);
        }
        writer.append(&batch).map_err(CliError::runtime)?;
        checkpoint.apply(batch).map_err(CliError::runtime)?;
        completed_now += batch_end - cursor;
        cursor = batch_end;
        out!(
            stderr: "campaign: {}/{} units checkpointed to {}",
            checkpoint.records.len(),
            assigned.len(),
            checkpoint_path.display()
        );
    }

    if spec.shard.1 > 1 {
        out!(
            stderr: "campaign: shard {}/{} complete ({} units); merge every shard's \
             checkpoint with `bft-sim campaign merge`",
            spec.shard.0,
            spec.shard.1,
            assigned.len()
        );
        return Ok(None);
    }
    let report = final_report(&manifest, &checkpoint).map_err(CliError::runtime)?;
    Ok(Some(report))
}

/// Merges shard checkpoints into the campaign's final report.
///
/// # Errors
///
/// Every merge failure — hash mismatch, duplicate or missing units,
/// malformed files — is an artifact error (exit 4).
pub fn exec_campaign_merge(spec: &CampaignMergeSpec) -> Result<Json, CliError> {
    let manifest = load_manifest(&spec.manifest)?;
    let parts = spec
        .checkpoints
        .iter()
        .map(|path| Checkpoint::load(Path::new(path)).map_err(CliError::repro))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge_checkpoints(&manifest, &parts).map_err(CliError::repro)?;
    final_report(&manifest, &merged).map_err(CliError::repro)
}

/// Replays a journal and says how far its campaign is: units done out of
/// those assigned, how they ended, the journal lines replayed and whether a
/// torn tail was dropped. A function of the file's bytes alone — a journal
/// holds no wall-clock field to report.
///
/// # Errors
///
/// An unreadable or malformed journal is an artifact error (exit 4); one
/// with no complete header line has recorded nothing, which is a status.
pub fn exec_campaign_status(path: &str) -> Result<Json, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::repro(format!("cannot read {path}: {e}")))?;
    let journal =
        Journal::replay(&bytes).map_err(|e| CliError::repro(format!("bad journal {path}: {e}")))?;
    let journal = journal.as_ref();
    let records = journal.map_or(&[][..], |j| &j.checkpoint.records);
    let mut tally = [0usize; 3];
    for record in records {
        tally[match record.outcome {
            UnitOutcome::Clean => 0,
            UnitOutcome::Violated { .. } => 1,
            UnitOutcome::Panicked { .. } => 2,
        }] += 1;
    }
    Ok(Json::obj([
        ("done", Json::from(records.len())),
        (
            "assigned",
            journal.map_or(Json::Null, |j| Json::from(j.assigned)),
        ),
        ("clean", Json::from(tally[0])),
        ("violated", Json::from(tally[1])),
        ("panicked", Json::from(tally[2])),
        ("lines", Json::from(journal.map_or(0, |j| j.lines))),
        (
            "torn_tail",
            Json::from(journal.map_or(!bytes.is_empty(), |j| j.torn_tail)),
        ),
    ]))
}

/// Prints a status ([`exec_campaign_status`]) as JSON or as one line.
pub(crate) fn emit_status(status: &Json, json: bool) {
    if json {
        out!("{}", status.dump_pretty());
        return;
    }
    let torn = match status.get("torn_tail").and_then(Json::as_bool) {
        Some(true) => ", torn tail dropped",
        _ => "",
    };
    let Some(assigned) = status.get("assigned").and_then(Json::as_u64) else {
        out!("campaign: no complete header line, nothing recorded{torn}");
        return;
    };
    let count = |key: &str| status.get(key).and_then(Json::as_u64).unwrap_or_default();
    out!(
        "campaign: {}/{assigned} units done — {} clean, {} violated, {} panicked \
         ({} journal lines{torn})",
        count("done"),
        count("clean"),
        count("violated"),
        count("panicked"),
        count("lines")
    );
}

/// Prints a final report (JSON or text summary) and maps violated/panicked
/// units to the violation exit code.
pub(crate) fn emit_report(report: &Json, json: bool) -> Result<(), CliError> {
    let count = |key: &str| report.get(key).and_then(Json::as_u64).unwrap_or_default();
    let (units, clean, violated, panicked) = (
        count("units"),
        count("clean"),
        count("violated"),
        count("panicked"),
    );
    if json {
        out!("{}", report.dump_pretty());
    } else {
        out!("campaign: {units} units — {clean} clean, {violated} violated, {panicked} panicked");
        if let Some(tally) = report.get("violations").and_then(|v| match v {
            Json::Obj(pairs) if !pairs.is_empty() => Some(pairs),
            _ => None,
        }) {
            for (oracle, n) in tally {
                out!("  {oracle}: {} units", n.as_u64().unwrap_or_default());
            }
        }
        if let Some(first) = report.get("first_panic") {
            out!(
                "  first panic: unit {}: {}",
                first.get("unit").and_then(Json::as_u64).unwrap_or_default(),
                first
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
            );
        }
    }
    if violated + panicked > 0 {
        Err(CliError::violation(format!(
            "{violated} of {units} units violated an oracle, {panicked} panicked"
        )))
    } else {
        Ok(())
    }
}
