//! The four benchmark workloads: their names, how a seed becomes inputs, and
//! the parameters both binaries derive their runs from.
//!
//! This is the only code `bench` (the end-to-end gate) and `tracer` (the
//! per-layer run) share that knows what a workload *is*. It couples to
//! nothing but `ProtocolKind` names, the campaign `Manifest` schema and the
//! CLI's argument types, so an engine-trait change cannot break it.

use std::path::{Path, PathBuf};

use bft_sim_cli::campaign::CampaignRunSpec;
use bft_sim_core::campaign::Manifest;
use bft_sim_protocols::registry::ProtocolKind;

/// The seed the committed fingerprints (`fingerprints.json`) were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// One named set of inputs. Every workload is a closed-loop batch job: the
/// simulator runs flat out until the work is done; there is no arrival
/// schedule and no latency limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PbftN512,
    HotstuffN1024,
    FuzzNetSweep,
    CampaignCkpt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PbftN512,
        Workload::HotstuffN1024,
        Workload::FuzzNetSweep,
        Workload::CampaignCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PbftN512 => "pbft_n512",
            Workload::HotstuffN1024 => "hotstuff_n1024",
            Workload::FuzzNetSweep => "fuzz_net_sweep",
            Workload::CampaignCkpt => "campaign_ckpt",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A single simulation on the paper's default network N(250, 50), λ = 1 s,
/// no attack, observability off, default scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SingleRun {
    pub protocol: ProtocolKind,
    pub n: usize,
    pub decisions: u64,
    pub seed: u64,
}

/// The two single-run workloads, or `None` for the sweeps.
///
/// `pbft_n512` is the Fig. 2 right-hand regime: all-to-all phases hold n²
/// deliveries in the queue, so scheduler, routing and memory traffic dominate
/// and handlers do little. `hotstuff_n1024` is the same scale with the
/// opposite shape: linear communication keeps the queue shallow, so protocol
/// handlers and quorum bookkeeping dominate. A deep-queue optimisation must
/// move the first and leave the second alone.
pub fn single_run(workload: Workload, seed: u64) -> Option<SingleRun> {
    match workload {
        Workload::PbftN512 => Some(SingleRun {
            protocol: ProtocolKind::Pbft,
            n: 512,
            decisions: 2,
            seed,
        }),
        Workload::HotstuffN1024 => Some(SingleRun {
            protocol: ProtocolKind::HotStuffNs,
            n: 1024,
            decisions: 200,
            seed,
        }),
        Workload::FuzzNetSweep | Workload::CampaignCkpt => None,
    }
}

/// The partially-synchronous protocols. Only these are drawn by the fuzz
/// sweep: under a bandwidth-limited network queueing breaks the delay bound
/// the synchronous protocols' safety assumes, and every resulting violation
/// triggers a shrink whose cost would pollute the wall time. Restricted to
/// these four, any failure is a real bug.
pub const FUZZ_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Pbft,
    ProtocolKind::HotStuffNs,
    ProtocolKind::LibraBft,
    ProtocolKind::Tendermint,
];

/// `fuzz_net_sweep`: the checker's inner loop on two threads — hundreds of
/// small-n runs through the bandwidth/churn network stack, the randomized
/// adversary, view-change timers (many cancels, shallow queue), scenario
/// generation and the oracle suite. It uses the scheduler and engine the
/// opposite way from `pbft_n512`, so a deep-queue win that taxes small runs
/// shows here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzPlan {
    /// Scenario seeds, half-open.
    pub seeds: (u64, u64),
    /// Worker threads; the host has two cores, so never more than 2.
    pub threads: usize,
    /// `--net-preset` topology name.
    pub topology: &'static str,
    /// Per-link bandwidth cap, bytes per second.
    pub bandwidth: u64,
    /// Churn block: (seed, crashes, min_down_ms, max_down_ms).
    pub churn: (u64, u64, u64, u64),
}

/// Scenarios per fuzz sweep.
pub const FUZZ_SCENARIOS: u64 = 768;

pub fn fuzz_plan(seed: u64) -> FuzzPlan {
    let lo = 1000 * seed;
    FuzzPlan {
        seeds: (lo, lo + FUZZ_SCENARIOS),
        threads: 2,
        topology: "ring_gradient",
        bandwidth: 200_000,
        churn: (5, 2, 500, 4000),
    }
}

impl FuzzPlan {
    /// The `bft-sim` argv for this plan — the only place the benchmark
    /// depends on the CLI's flag grammar.
    pub fn cli_args(&self, out_dir: &Path) -> Vec<String> {
        let protocols: Vec<&str> = FUZZ_PROTOCOLS.iter().map(|p| p.name()).collect();
        let (cs, cc, cmin, cmax) = self.churn;
        [
            "fuzz".to_string(),
            "--seeds".to_string(),
            format!("{}..{}", self.seeds.0, self.seeds.1),
            "--threads".to_string(),
            self.threads.to_string(),
            "--protocols".to_string(),
            protocols.join(","),
            "--net-preset".to_string(),
            format!(
                "{}:bw={}:churn={cs},{cc},{cmin},{cmax}",
                self.topology, self.bandwidth
            ),
            "--json".to_string(),
            "--out".to_string(),
            out_dir.display().to_string(),
        ]
        .into()
    }
}

/// The protocols the campaign grid crosses. PBFT and Tendermint are left
/// out: under the randomized adversary roughly one seed block in three holds
/// a unit of theirs that livelocks to the simulated-time cap (25 k – 108 k
/// events against a typical 500), and that one unit moves the peak memory of
/// this 9 MB process by 10–25 % and its wall time by 4–8 %, depending only on
/// whether the seed block happens to contain it. These two never did
/// (largest unit 1 527 events over seeds 1…12).
pub const CAMPAIGN_PROTOCOLS: [ProtocolKind; 2] =
    [ProtocolKind::HotStuffNs, ProtocolKind::LibraBft];

/// `campaign_ckpt`: the write path beside the compute path. 4 608 cheap
/// units, each run with observability on, and the checkpoint re-serialised
/// and atomically rewritten every 16 units (288 times). Serial on purpose:
/// one sweep workload free of thread-scheduling noise. A JSON / obs /
/// checkpoint change shows here and nowhere else.
pub fn campaign_manifest(seed: u64) -> Manifest {
    let lo = 1000 * seed;
    Manifest {
        protocols: CAMPAIGN_PROTOCOLS
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        nodes: vec![4, 7, 16],
        delays: vec!["normal".to_string(), "uniform".to_string()],
        nets: vec!["none".to_string()],
        attacks: vec![0, 300],
        seeds: (lo, lo + 192),
        checkpoint_every: 16,
        max_actions: 8,
    }
}

/// Where a repetition's campaign manifest lives inside its directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("campaign.json")
}

/// The `bft-sim campaign run` invocation for the manifest in `dir`: serial,
/// everything else the CLI's defaults, all output inside `dir`.
pub fn campaign_run_spec(dir: &Path) -> CampaignRunSpec {
    CampaignRunSpec {
        manifest: manifest_path(dir).display().to_string(),
        threads: 1,
        out_dir: dir.join("repros").display().to_string(),
        ..CampaignRunSpec::default()
    }
}

/// Generates the on-disk inputs of one repetition into the fresh directory
/// `dir`. Only the campaign has any: the other workloads map the seed to
/// in-memory parameters ([`single_run`], [`fuzz_plan`]).
pub fn write_inputs(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    if workload == Workload::CampaignCkpt {
        let path = manifest_path(dir);
        std::fs::write(&path, campaign_manifest(seed).to_json().dump_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// 64-bit FNV-1a, hex-encoded: the digest fingerprints use for report
/// documents.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_seeds_do_not_overlap() {
        assert_eq!(fuzz_plan(3), fuzz_plan(3));
        assert!(fuzz_plan(1).seeds.1 <= fuzz_plan(2).seeds.0);
        assert_eq!(campaign_manifest(2), campaign_manifest(2));
        assert_eq!(campaign_manifest(1).total_units(), 4608);
        campaign_manifest(1).validate().expect("manifest is valid");
    }

    #[test]
    fn fuzz_args_follow_the_cli_grammar() {
        let args = fuzz_plan(1).cli_args(Path::new("out"));
        let cmd = bft_sim_cli::parse_args(&args).expect("the CLI accepts the plan's argv");
        let bft_sim_cli::Command::Fuzz(spec) = cmd else {
            panic!("not a fuzz command");
        };
        assert_eq!(spec.seeds, (1000, 1768));
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.protocols, "pbft,hotstuff-ns,librabft,tendermint");
        assert!(spec.json);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
