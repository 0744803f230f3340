//! Coverage-guided schedule fuzzing: behavior fingerprints and the
//! corpus-driven search loop.
//!
//! Blind seed sweeps ([`fuzz_many`](crate::fuzz::fuzz_many)) treat every
//! scenario draw as equally interesting. This module adds the
//! coverage-feedback half of the FoundationDB/TigerBeetle recipe:
//!
//! 1. every instrumented run is reduced to a **behavior fingerprint**
//!    ([`run_fingerprint`]) — a deliberately coarse structural signature
//!    (per-phase flow shapes, view-timeline size, log₂-bucketed timing and
//!    delivery aggregates) combined with the sorted per-node decision
//!    counts, the timeout flag, and the violated oracles;
//! 2. fingerprints feed a **seen set**; a run whose fingerprint is novel
//!    promotes its scenario into a bounded **corpus**;
//! 3. the search loop ([`fuzz_coverage`]) prefers **mutating** corpus
//!    entries over fresh draws — re-seeding knobs, but also walking
//!    dimensions the generator's prior pins constant (timeout λ, delay
//!    magnitudes, decision targets, wider partition windows) — steering
//!    the budget toward behaviors blind sampling has zero density on.
//!
//! The loop is deterministic at any `--threads`: scenario construction
//! consumes a single master RNG sequentially between batches, the batch
//! itself runs through [`bft_sim_core::sweep::sweep`] (which reassembles
//! results in submission order), and all corpus/statistics folding happens
//! sequentially.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bft_sim_core::fasthash::{FastHasher, FastSet};
use bft_sim_core::json::{self, Json};
use bft_sim_core::sweep::sweep;

use crate::fuzz::{run_job, FuzzOptions, FuzzReport, UnitRun};
use crate::scenario::{CheckedRun, DelaySpec, PartitionSpec, ScenarioSpec};

/// Scenario scales the mutator may re-draw (the generator's set).
const SCALES: [usize; 4] = [4, 7, 10, 16];

/// Scenarios per batch. Fixed (never derived from the thread count) so the
/// master RNG consumption — and therefore every scenario of the search —
/// is identical at any `--threads`.
const BATCH: usize = 32;

/// Upper bound on retained corpus entries; oldest are evicted first.
const CORPUS_CAP: usize = 256;

/// File name the persisted corpus lives under inside a `--corpus-dir`.
pub(crate) const CORPUS_FILE: &str = "corpus.json";

/// Loads a persisted corpus from `dir/`[`CORPUS_FILE`].
///
/// A missing file (or directory) is an empty corpus, not an error — the
/// first run of a cached CI job starts cold. Entries come back in file
/// order, oldest first, matching the eviction order they were saved in.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read, is not
/// valid JSON, is not an array, or holds a malformed scenario.
pub(crate) fn load_corpus(dir: &Path) -> Result<Vec<ScenarioSpec>, String> {
    let path = dir.join(CORPUS_FILE);
    if !path.exists() {
        return Ok(Vec::new());
    }
    json::load(&path, "corpus", json::list(ScenarioSpec::from_json))
        .map_err(|e| format!("corpus: {e}"))
}

/// Persists a corpus to `dir/`[`CORPUS_FILE`] (creating `dir` if needed),
/// oldest entry first so a later [`load_corpus`] restores eviction order.
///
/// # Errors
///
/// Returns a message when the directory cannot be created or the file
/// cannot be written.
pub(crate) fn save_corpus<'a>(
    dir: &Path,
    corpus: impl IntoIterator<Item = &'a ScenarioSpec>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("corpus: cannot create {}: {e}", dir.display()))?;
    let path = dir.join(CORPUS_FILE);
    let json = Json::Arr(corpus.into_iter().map(ScenarioSpec::to_json).collect());
    let mut text = json.dump_pretty();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("corpus: cannot write {}: {e}", path.display()))
}

/// Ceiling on the permille chance that a corpus-mode run mutates a corpus
/// entry instead of drawing a fresh scenario. The live rate is adaptive —
/// see [`mutate_permille`].
const MUTATE_MAX_PERMILLE: u32 = 850;

/// Floor on the mutation rate once the corpus is non-empty. High enough
/// that exploitation engages within small budgets (a few hundred runs)
/// where the duplicate signal is still weak — which is exactly where
/// rare-bug discovery benchmarks live — while fresh draws keep a majority
/// until saturation actually ramps the rate past it.
const MUTATE_MIN_PERMILLE: u32 = 400;

/// The adaptive mutation rate: exploitation ramps with observed saturation.
///
/// While fresh draws are still mostly novel, mutating is wasted budget —
/// the generator's prior is itself the frontier. As duplicates accumulate
/// (`runs - distinct` grows), the prior is exhausted and the budget shifts
/// toward mutating known-novel corpus entries, up to
/// [`MUTATE_MAX_PERMILLE`]. Both inputs come from the sequentially folded
/// stats, so the rate — and therefore the whole search — is identical at
/// any thread count.
fn mutate_permille(runs: u64, distinct: u64) -> u32 {
    if runs == 0 {
        return MUTATE_MIN_PERMILLE;
    }
    let dup_permille = (runs.saturating_sub(distinct) * 1000 / runs) as u32;
    (2 * dup_permille).clamp(MUTATE_MIN_PERMILLE, MUTATE_MAX_PERMILLE)
}

/// Reduces one oracle-checked, *instrumented* run to its behavior
/// fingerprint.
///
/// The fingerprint deliberately quantizes everything continuous (floor-log₂
/// buckets), aggregates per-node quantities across the whole run, and
/// ignores the concrete decided *values* (which vary with every seed), so
/// that runs differing only in jitter, per-node noise, or in which random
/// value won collide, while structural novelty separates: the sorted
/// decision-count multiset, per-phase flow magnitude and density, how many
/// views the run visited, the overall delivery volume and latency octave,
/// the decision cadence octave, timeouts, and violated oracles.
///
/// Coarseness is the point: the generator's prior must *saturate* this
/// space under blind random search, so that corpus-driven mutation — which
/// can walk λ, delay magnitudes, decision targets and partition windows
/// beyond the prior — has a measurable frontier to push
/// (`distinct_fingerprints` is the coverage metric the whole search
/// optimizes). A finer signature would make every chaos run look novel and
/// reduce the search to blind sampling with extra bookkeeping.
pub fn run_fingerprint(run: &CheckedRun) -> u64 {
    /// Floor-log₂ bucket (0 for 0, else `floor(log2(v)) + 1`).
    fn bucket(v: u64) -> u64 {
        64 - v.leading_zeros() as u64
    }
    let mut h = FastHasher::default();
    h.write_u64(run.result.timed_out as u64);
    // The decision-count multiset: which progress profile the run reached,
    // not which node reached it.
    h.write_u64(run.result.decided.len() as u64);
    let mut counts: Vec<u64> = run.result.decided.iter().map(|d| d.len() as u64).collect();
    counts.sort_unstable();
    for c in counts {
        h.write_u64(c);
    }
    if let Some(obs) = &run.result.observability {
        // Per-phase flow shape: magnitude and edge-density octaves.
        h.write_u64(obs.flows.len() as u64);
        for f in &obs.flows {
            h.write(f.phase.as_bytes());
            h.write_u64(bucket(f.total()));
            h.write_u64(bucket(f.nonzero_cells() as u64));
        }
        // View-timeline size: how far view synchronisation wandered.
        h.write_u64(obs.views.len() as u64);
        h.write_u64(bucket(obs.views.iter().map(|v| v.entries).sum()));
        // Run-wide delivery volume and latency octave (count-weighted grand
        // mean over the per-node histograms — per-node means are noise).
        let deliveries: u64 = obs.delivery_latency.iter().map(|n| n.count()).sum();
        let latency_sum: f64 = obs
            .delivery_latency
            .iter()
            .map(|n| n.mean_micros() * n.count() as f64)
            .sum();
        h.write_u64(bucket(deliveries));
        h.write_u64(bucket(grand_mean(latency_sum, deliveries)));
        // Decision cadence octave.
        let decisions: u64 = obs.decision_interval.iter().map(|n| n.count()).sum();
        let interval_sum: f64 = obs
            .decision_interval
            .iter()
            .map(|n| n.mean_micros() * n.count() as f64)
            .sum();
        h.write_u64(bucket(grand_mean(interval_sum, decisions)));
    }
    h.write_u64(run.violations.len() as u64);
    for v in &run.violations {
        h.write(v.oracle.as_bytes());
    }
    h.finish()
}

/// Count-weighted grand mean, truncated to micros (0 when nothing was
/// counted). All inputs are simulated quantities, so the result — like
/// every fingerprint component — is identical across threads and backends.
fn grand_mean(weighted_sum: f64, count: u64) -> u64 {
    if count == 0 {
        0
    } else {
        (weighted_sum / count as f64) as u64
    }
}

/// Coverage accounting for one [`fuzz_coverage`] search, reported in the
/// fuzz report JSON (`"coverage"` block) and by `bft-sim fuzz --coverage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageStats {
    /// `true` when the corpus loop was active; `false` for a blind search
    /// under the same accounting (the comparison baseline).
    pub corpus_mode: bool,
    /// The run budget the search was given.
    pub(crate) budget: u64,
    /// Runs actually executed (equals `budget` unless it was zero).
    pub runs: u64,
    /// Distinct behavior fingerprints observed.
    pub distinct_fingerprints: u64,
    /// Corpus entries retained at the end (≤ the cap).
    pub corpus_size: u64,
    /// Corpus entries seeded from a persisted `--corpus-dir` before the
    /// search started (0 when none was given or the directory was cold).
    pub loaded_corpus: u64,
    /// Runs whose scenario was a mutation of a corpus entry.
    pub mutated_runs: u64,
    /// Runs whose scenario was a fresh generator draw.
    pub fresh_runs: u64,
    /// 1-based index of the first violating run, when any violated.
    pub first_violation_run: Option<u64>,
    /// Coverage growth checkpoints: `(runs_so_far, distinct_fingerprints)`,
    /// roughly ten per search, always ending at the final totals.
    pub curve: Vec<(u64, u64)>,
}

impl CoverageStats {
    /// Distinct fingerprints per thousand runs (integer arithmetic, so the
    /// report stays byte-identical everywhere).
    pub fn new_per_1k(&self) -> u64 {
        (self.distinct_fingerprints * 1_000)
            .checked_div(self.runs)
            .unwrap_or(0)
    }

    /// The stats as a JSON object (the report's `coverage` block).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            (
                "mode".to_string(),
                Json::from(if self.corpus_mode { "corpus" } else { "blind" }),
            ),
            ("budget".to_string(), Json::from(self.budget)),
            ("runs".to_string(), Json::from(self.runs)),
            (
                "distinct_fingerprints".to_string(),
                Json::from(self.distinct_fingerprints),
            ),
            ("corpus_size".to_string(), Json::from(self.corpus_size)),
        ];
        // Omitted when zero so pre-persistence reports stay byte-identical.
        if self.loaded_corpus > 0 {
            pairs.push(("loaded_corpus".to_string(), Json::from(self.loaded_corpus)));
        }
        pairs.extend([
            ("mutated_runs".to_string(), Json::from(self.mutated_runs)),
            ("fresh_runs".to_string(), Json::from(self.fresh_runs)),
            ("new_per_1k".to_string(), Json::from(self.new_per_1k())),
        ]);
        if let Some(first) = self.first_violation_run {
            pairs.push(("first_violation_run".to_string(), Json::from(first)));
        }
        pairs.push((
            "curve".to_string(),
            Json::Arr(
                self.curve
                    .iter()
                    .map(|&(runs, distinct)| {
                        Json::Arr(vec![Json::from(runs), Json::from(distinct)])
                    })
                    .collect(),
            ),
        ));
        Json::Obj(pairs)
    }
}

/// Whether a scenario's drawn knobs land in the narrow window that arms the
/// latent seeded bug under [`FuzzOptions::latent_bug`]: PBFT at a realistic
/// scale, normally distributed delays, and a drop partition — a conjunction
/// blind random search hits about once per hundred draws.
fn latent_window(spec: &ScenarioSpec) -> bool {
    spec.protocol == bft_sim_protocols::registry::ProtocolKind::Pbft
        && spec.n >= 10
        && matches!(spec.delay, DelaySpec::Normal { .. })
        && spec.partition.is_some_and(|p| p.drop)
}

/// Mutates one corpus entry: one or two knobs are re-drawn, the rest kept.
/// Pure function of the parent and the RNG state.
///
/// Structural knobs are weighted over seed reshuffles: the fingerprint
/// quantizes away most seed-level jitter, so structure is where novelty
/// lives. Crucially, several arms step *outside*
/// [`ScenarioSpec::generate`]'s prior — partitions draw from a wider window
/// (later starts, longer outages), and λ, delay magnitudes and decision
/// targets walk octave by octave from values the generator pins constant —
/// so successive mutations carry the corpus into regions blind sampling has
/// zero probability of reaching. That asymmetry is the whole reason the
/// corpus search beats a blind one on `distinct_fingerprints`.
fn mutate(parent: &ScenarioSpec, rng: &mut SmallRng, opts: &FuzzOptions) -> ScenarioSpec {
    let mut spec = parent.clone();
    // Mutants always fuzz at the search's intensity: a benign parent is in
    // the corpus for its behavior, not its idleness.
    spec.intensity_permille = opts.intensity_permille;
    spec.max_actions = opts.max_actions;
    spec.fault_preset = opts.fault_preset;
    if opts.net_override.is_some() {
        spec.net = opts.net_override;
    }
    // Timing walks (λ, delay magnitude) are only safe for protocols whose
    // safety does not lean on a synchrony bound: a partially-synchronous or
    // asynchronous protocol must tolerate any delay, but stretching delays
    // past a synchronous protocol's Δ assumption manufactures violations
    // the protocol never promised to prevent.
    let timing_walk_safe = spec.protocol.network_assumption()
        != bft_sim_protocols::registry::NetworkAssumption::Synchronous;
    let tweaks = 1 + rng.gen_range(0..2u32);
    for _ in 0..tweaks {
        match rng.gen_range(0..14u32) {
            0 => spec.seed = rng.gen_range(0..u64::MAX),
            1 => spec.adversary_seed = rng.gen_range(0..u64::MAX),
            2 => spec.fault_seed = rng.gen_range(0..u64::MAX),
            3 => spec.genesis_seed = rng.gen_range(1..u64::MAX),
            4 => {
                if opts.n_override.is_none() {
                    spec.n = SCALES[rng.gen_range(0..SCALES.len() as u64) as usize];
                }
            }
            5 => {
                // Class switches reset to the prior's parameters — kept
                // rare relative to the octave walks below, because a
                // switch discards structure (a walked magnitude, a
                // delay-class-dependent behavior) the corpus was keeping.
                spec.delay = match rng.gen_range(0..3u64) {
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
            }
            6..=8 => {
                // Walk the delay magnitude one octave — the generator pins
                // delay parameters, so successive halvings/doublings reach
                // latency regimes blind sampling never draws.
                let up = rng.gen_bool(0.5);
                if timing_walk_safe {
                    spec.delay = scale_delay(spec.delay, up);
                } else {
                    spec.seed = rng.gen_range(0..u64::MAX);
                }
            }
            9 | 10 => {
                // Walk the timeout λ one octave: the λ-vs-delay ratio is
                // the under/over-estimated-timeout axis of the paper's
                // Fig. 4/5, and the generator pins λ at 1 s.
                let up = rng.gen_bool(0.5);
                if timing_walk_safe {
                    spec.lambda_micros = scale_octave(spec.lambda_micros, up, LAMBDA_RANGE);
                } else {
                    spec.seed = rng.gen_range(0..u64::MAX);
                }
            }
            11 => {
                // Walk the decision target — a different progress horizon
                // is a different run shape. One-shot protocols stay at one
                // decision: their runs do not extend.
                let measured = spec.protocol.measured_decisions();
                let up = rng.gen_bool(0.5);
                if measured > 1 {
                    spec.target_decisions =
                        scale_octave(spec.target_decisions, up, (1, 4 * measured));
                } else {
                    spec.seed = rng.gen_range(0..u64::MAX);
                }
            }
            _ => {
                // Partitions mostly *perturb* rather than toggle: corpus
                // entries are partition-rich (outages breed novel
                // behavior), and preserving that structure while re-drawing
                // the window and drop/hold mode is what lets the search
                // close in on partition-dependent bugs — removal stays as
                // the rare escape hatch.
                spec.partition = match spec.partition {
                    Some(_) if rng.gen_bool(0.25) => None,
                    _ => {
                        let start_ms = rng.gen_range(0..4_000u64);
                        let dur_ms = rng.gen_range(1_000..16_000u64);
                        Some(PartitionSpec {
                            start_ms,
                            end_ms: start_ms + dur_ms,
                            drop: rng.gen_bool(0.5),
                        })
                    }
                };
            }
        }
    }
    spec
}

/// λ bounds the mutator may walk within (µs): an octave below the delay
/// prior's floor to two octaves above the generator's pinned 1 s.
const LAMBDA_RANGE: (u64, u64) = (250_000, 4_000_000);

/// Mean-delay bounds for [`scale_delay`] (µs): an eighth of the prior's
/// constant delay down, one order of magnitude up. Every protocol in the
/// walk's gate backs off its timeout exponentially, so even a 1.6 s wire
/// against a 250 ms λ terminates well inside the scenario time cap.
const DELAY_RANGE: (u64, u64) = (12_500, 1_600_000);

/// One-octave walk (double or halve, clamped), the mutator's step for
/// every pinned continuous knob.
fn scale_octave(v: u64, up: bool, (lo, hi): (u64, u64)) -> u64 {
    let scaled = if up { v.saturating_mul(2) } else { v / 2 };
    scaled.clamp(lo, hi)
}

/// Scales a delay spec's parameters one octave, preserving its class.
fn scale_delay(delay: DelaySpec, up: bool) -> DelaySpec {
    let s = |v: u64| scale_octave(v, up, DELAY_RANGE);
    match delay {
        DelaySpec::Constant { micros } => DelaySpec::Constant { micros: s(micros) },
        DelaySpec::Uniform {
            lo_micros,
            hi_micros,
        } => {
            let lo = s(lo_micros);
            DelaySpec::Uniform {
                lo_micros: lo,
                hi_micros: s(hi_micros).max(lo + 1),
            }
        }
        DelaySpec::Normal {
            mean_micros,
            std_micros,
        } => DelaySpec::Normal {
            mean_micros: s(mean_micros),
            std_micros: s(std_micros),
        },
    }
}

/// Runs a coverage-guided (or, with `corpus_mode` off, blind-but-accounted)
/// fuzz search of `budget` scenarios and returns the usual [`FuzzReport`]
/// with its `coverage` block filled in.
///
/// Every run is the checked job [`fuzz_many`](crate::fuzz::fuzz_many) runs,
/// always instrumented — fingerprints need the observability signature —
/// and its record folds into the report through the same method, so
/// violating runs shrink to repros and panicked runs count exactly as in a
/// blind sweep. The report's `observability` aggregate is only populated
/// when [`FuzzOptions::observability`] asks for it; this loop keeps only the
/// seen set, the corpus and `CoverageStats`. `FuzzOutcome::scenario_seed`
/// holds the 1-based run index (scenarios here come from the master RNG and
/// the corpus, not from a user-supplied seed list).
///
/// Deterministic: same `master_seed`, `budget`, `corpus_mode`, and options
/// ⇒ byte-identical report at any thread count.
///
/// # Errors
///
/// Returns a message when a scenario cannot be built (e.g. a bug-armed
/// scenario without the `testbug` feature compiled in).
pub fn fuzz_coverage(
    master_seed: u64,
    budget: u64,
    corpus_mode: bool,
    opts: &FuzzOptions,
) -> Result<FuzzReport, String> {
    fuzz_coverage_in_dir(master_seed, budget, corpus_mode, opts, None)
}

/// [`fuzz_coverage`] with corpus persistence: when `corpus_dir` is given,
/// the corpus is seeded from `CORPUS_FILE` in `dir` before the search (a
/// cold directory starts empty) and written back after it, so successive
/// invocations — e.g. CI jobs restoring the directory from a cache —
/// resume the search from the previous frontier instead of re-deriving it
/// from scratch. Loaded entries act as mutation parents from run one;
/// their count is reported in `CoverageStats::loaded_corpus`.
///
/// Determinism is unchanged: the search is a pure function of
/// (`master_seed`, `budget`, `corpus_mode`, `opts`, the loaded file
/// bytes), still byte-identical at any thread count.
///
/// # Errors
///
/// Returns a message when a scenario cannot be built, or when the corpus
/// file exists but cannot be read/parsed or written back.
pub fn fuzz_coverage_in_dir(
    master_seed: u64,
    budget: u64,
    corpus_mode: bool,
    opts: &FuzzOptions,
    corpus_dir: Option<&Path>,
) -> Result<FuzzReport, String> {
    let mut master = SmallRng::seed_from_u64(master_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut seen: FastSet<u64> = FastSet::default();
    let mut corpus: VecDeque<ScenarioSpec> = VecDeque::new();
    let mut loaded = 0u64;
    if let Some(dir) = corpus_dir {
        for spec in load_corpus(dir)? {
            corpus.push_back(spec);
            if corpus.len() > CORPUS_CAP {
                corpus.pop_front();
            } else {
                loaded += 1;
            }
        }
    }
    let mut stats = CoverageStats {
        corpus_mode,
        budget,
        runs: 0,
        distinct_fingerprints: 0,
        corpus_size: 0,
        loaded_corpus: loaded,
        mutated_runs: 0,
        fresh_runs: 0,
        first_violation_run: None,
        curve: Vec::new(),
    };
    let mut report = FuzzReport::new(opts);
    let mark_every = budget.div_ceil(10).max(1);
    let mut next_mark = mark_every;

    while stats.runs < budget {
        let batch_len = BATCH.min((budget - stats.runs) as usize);
        // Scenario construction consumes `master` strictly sequentially —
        // the only ordering that is identical at every thread count.
        let mut batch: Vec<(ScenarioSpec, bool)> = Vec::with_capacity(batch_len);
        let permille = mutate_permille(stats.runs, seen.len() as u64);
        for _ in 0..batch_len {
            let mutated =
                corpus_mode && !corpus.is_empty() && master.gen_range(0..1000u32) < permille;
            let mut spec = if mutated {
                // Sample parents from the *recent* half of the corpus: an
                // entry admitted late is novel against everything before
                // it, so recency is a free proxy for rarity — mutating the
                // frontier extends octave walks and keeps rare structure
                // (partitions, skewed timing) in the mutant population
                // instead of re-diluting it with the prior's bulk.
                let half = corpus.len().div_ceil(2);
                let parent = (corpus.len() - half) + master.gen_range(0..half as u64) as usize;
                mutate(&corpus[parent], &mut master, opts)
            } else {
                opts.generate(master.gen_range(0..u64::MAX))
            };
            if opts.latent_bug {
                spec.inject_bug = latent_window(&spec);
            }
            batch.push((spec, mutated));
        }

        let results = sweep(batch.len(), opts.threads, |i| {
            let run_index = stats.runs + 1 + i as u64;
            run_job(&batch[i].0, true).map_err(|e| format!("run {run_index}: {e}"))
        });

        for (slot, (spec, mutated)) in results.into_iter().zip(&batch) {
            stats.runs += 1;
            let run_index = stats.runs;
            if *mutated {
                stats.mutated_runs += 1;
            } else {
                stats.fresh_runs += 1;
            }
            let run = UnitRun::from_slot(slot)?;
            if let Some(message) = &run.panic {
                // A panic is novel behavior too, but a crashing scenario
                // never enters the corpus: mutating it would spend the
                // budget re-crashing.
                let mut h = FastHasher::default();
                h.write(message.as_bytes());
                seen.insert(h.finish());
            } else if seen.insert(run.fingerprint) {
                corpus.push_back(spec.clone());
                if corpus.len() > CORPUS_CAP {
                    corpus.pop_front();
                }
            }
            if run.panic.is_some() || run.repro.is_some() {
                stats.first_violation_run.get_or_insert(run_index);
            }
            report.fold(run_index, run);
        }

        stats.distinct_fingerprints = seen.len() as u64;
        while stats.runs >= next_mark {
            stats
                .curve
                .push((next_mark.min(stats.runs), stats.distinct_fingerprints));
            next_mark += mark_every;
        }
    }

    stats.distinct_fingerprints = seen.len() as u64;
    stats.corpus_size = corpus.len() as u64;
    if stats.curve.last().map(|&(r, _)| r) != Some(stats.runs) && stats.runs > 0 {
        stats.curve.push((stats.runs, stats.distinct_fingerprints));
    }
    if let Some(dir) = corpus_dir {
        save_corpus(dir, &corpus)?;
    }
    report.coverage = Some(stats);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::RunMode;
    use bft_sim_core::buggify::FaultPreset;
    use bft_sim_core::trace::TraceLevel;
    use bft_sim_protocols::registry::ProtocolKind;

    fn chaos_opts() -> FuzzOptions {
        FuzzOptions {
            protocols: vec![ProtocolKind::Pbft, ProtocolKind::HotStuffNs],
            fault_preset: FaultPreset::Chaos,
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn fingerprints_separate_structure_not_noise() {
        let base = ScenarioSpec::baseline(ProtocolKind::Pbft);
        let observed = |spec: &ScenarioSpec| {
            spec.run_observed(RunMode::Generate, TraceLevel::Decisions)
                .unwrap()
        };
        let a = observed(&base);
        let b = observed(&base);
        assert_eq!(
            run_fingerprint(&a),
            run_fingerprint(&b),
            "identical runs must collide"
        );
        let other = ScenarioSpec {
            target_decisions: 3,
            ..base.clone()
        };
        let c = observed(&other);
        assert_ne!(
            run_fingerprint(&a),
            run_fingerprint(&c),
            "structurally different runs must separate"
        );
    }

    #[test]
    fn coverage_search_is_deterministic_across_threads() {
        let serial = FuzzOptions {
            threads: 1,
            ..chaos_opts()
        };
        let parallel = FuzzOptions {
            threads: 4,
            ..serial.clone()
        };
        let a = fuzz_coverage(11, 96, true, &serial).unwrap();
        let b = fuzz_coverage(11, 96, true, &parallel).unwrap();
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        assert_eq!(a.failures, b.failures);
        let (ca, cb) = (a.coverage.unwrap(), b.coverage.unwrap());
        assert_eq!(ca, cb);
        assert_eq!(ca.to_json().dump_pretty(), cb.to_json().dump_pretty());
        assert_eq!(ca.runs, 96);
        assert_eq!(ca.mutated_runs + ca.fresh_runs, 96);
        assert!(ca.distinct_fingerprints > 1, "{ca:?}");
        assert!(ca.corpus_size > 0);
        assert!(ca.mutated_runs > 0, "the corpus loop must engage: {ca:?}");
        assert_eq!(ca.curve.last(), Some(&(96, ca.distinct_fingerprints)));
    }

    #[test]
    fn chaos_coverage_run_stays_clean_on_honest_protocols() {
        // The catalog's faults all stay inside (or adjacent to) the
        // protocols' fault model, and non-calm presets suspend the liveness
        // debt — so honest protocols must survive a chaos search with no
        // violations. (This is also what keeps the CI smoke job at exit 0.)
        let report = fuzz_coverage(3, 48, true, &chaos_opts()).unwrap();
        assert_eq!(report.runs, 48);
        assert!(
            report.outcomes.is_empty() && report.failures.is_empty(),
            "chaos fuzzing found: {:?} / {:?}",
            report
                .outcomes
                .iter()
                .map(|o| (o.scenario_seed, &o.violations))
                .collect::<Vec<_>>(),
            report.failures
        );
    }

    #[test]
    fn corpus_dir_round_trips_and_warm_starts_the_search() {
        let dir = std::env::temp_dir().join(format!("bft-sim-corpus-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = chaos_opts();
        // Cold start: no file yet — loads empty, saves the corpus it built.
        let first = fuzz_coverage_in_dir(29, 48, true, &opts, Some(&dir)).unwrap();
        let cold = first.coverage.unwrap();
        assert_eq!(cold.loaded_corpus, 0);
        assert!(cold.corpus_size > 0);
        assert!(
            !cold.to_json().dump_pretty().contains("loaded_corpus"),
            "a cold search must not sprout the loaded_corpus key"
        );
        let saved = load_corpus(&dir).unwrap();
        assert_eq!(saved.len() as u64, cold.corpus_size);
        // Warm start: the saved file seeds the next search's corpus.
        let second = fuzz_coverage_in_dir(31, 48, true, &opts, Some(&dir)).unwrap();
        let warm = second.coverage.unwrap();
        assert_eq!(warm.loaded_corpus, cold.corpus_size);
        assert!(warm.to_json().dump_pretty().contains("loaded_corpus"));
        // The warm run wrote its own corpus back over the file.
        assert_eq!(load_corpus(&dir).unwrap().len() as u64, warm.corpus_size);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_corpus_files_are_rejected() {
        let dir =
            std::env::temp_dir().join(format!("bft-sim-corpus-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(load_corpus(&dir).unwrap(), Vec::new(), "cold dir is empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CORPUS_FILE);
        std::fs::write(&path, "not json").unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert!(err.starts_with("corpus:"), "{err}");
        std::fs::write(&path, "{}").unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert!(err.contains("array"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_mode_outgrows_blind_on_a_small_budget() {
        // The full 5k-run comparison lives in the experiments suite; this
        // is the cheap monotonicity smoke — corpus mode must at least match
        // blind search on distinct fingerprints with the same budget.
        let opts = chaos_opts();
        let corpus = fuzz_coverage(17, 96, true, &opts).unwrap();
        let blind = fuzz_coverage(17, 96, false, &opts).unwrap();
        let (c, b) = (corpus.coverage.unwrap(), blind.coverage.unwrap());
        assert_eq!(b.mutated_runs, 0, "blind mode must never mutate");
        assert!(
            c.distinct_fingerprints >= b.distinct_fingerprints,
            "corpus {} < blind {}",
            c.distinct_fingerprints,
            b.distinct_fingerprints
        );
    }
}
