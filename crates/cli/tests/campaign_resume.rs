//! End-to-end determinism contract of `bft-sim campaign`: the final report
//! must be byte-identical whether the campaign runs straight through, is
//! killed and resumed, or is sharded across processes and merged — at any
//! thread count. `--max-units` is the deterministic stand-in for a kill: it
//! stops at a batch boundary exactly like SIGKILL-between-checkpoints does,
//! minus the flakiness. A kill *inside* a journal write is a truncated file,
//! and the last test here truncates at every byte.

use bft_sim_cli::{
    exec_campaign_merge, exec_campaign_run, exec_campaign_status, CampaignMergeSpec,
    CampaignRunSpec,
};
use bft_sim_core::json::Json;

/// A fresh scratch directory per test so parallel tests never share files.
fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bft-sim-campaign-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small grid that still exercises every axis: two protocols, two delay
/// distributions, a churn-afflicted net next to the plain one, benign and
/// adversarial intensities, two seeds — 32 units at checkpoint_every 3, so
/// the last batch is partial and the pause points never align with cells.
fn write_manifest(dir: &std::path::Path) -> String {
    let manifest = r#"{
  "format": "bft-sim-campaign-v1",
  "protocols": ["pbft", "hotstuff-ns"],
  "nodes": [4],
  "delays": ["constant", "uniform"],
  "nets": ["none", "full_mesh:churn=5,2,500,4000"],
  "attacks": [0, 500],
  "seeds": {"lo": 0, "hi": 2},
  "checkpoint_every": 3,
  "max_actions": 24
}"#;
    let path = dir.join("grid.json");
    std::fs::write(&path, manifest).unwrap();
    path.display().to_string()
}

fn run_spec(manifest: &str, dir: &std::path::Path, checkpoint: &str) -> CampaignRunSpec {
    CampaignRunSpec {
        manifest: manifest.to_string(),
        checkpoint: Some(dir.join(checkpoint).display().to_string()),
        out_dir: dir.join("repros").display().to_string(),
        ..CampaignRunSpec::default()
    }
}

#[test]
fn reports_are_byte_identical_across_resume_and_shard() {
    let dir = scratch("identity");
    let manifest = write_manifest(&dir);

    // Straight through, two worker threads.
    let straight = exec_campaign_run(&CampaignRunSpec {
        threads: 2,
        ..run_spec(&manifest, &dir, "straight.ck.json")
    })
    .unwrap()
    .expect("an uninterrupted run must produce the report")
    .dump_pretty();

    // The whole grid is expected clean — including the eight churn-cell
    // units, which stall on scheduled downtime and must NOT be reported as
    // termination violations (the churn-aware oracle contract).
    let report = Json::parse(&straight).unwrap();
    assert_eq!(report.get("units").and_then(Json::as_u64), Some(32));
    assert_eq!(report.get("clean").and_then(Json::as_u64), Some(32));
    assert_eq!(report.get("violated").and_then(Json::as_u64), Some(0));
    assert_eq!(report.get("panicked").and_then(Json::as_u64), Some(0));

    // Killed and resumed: two units per invocation, single-threaded. Every
    // invocation but the last pauses at a batch boundary and returns no
    // report; the checkpoint carries all state across the "kills".
    let interrupted = run_spec(&manifest, &dir, "interrupted.ck.json");
    let mut resumed = None;
    for _ in 0..40 {
        let step = exec_campaign_run(&CampaignRunSpec {
            resume: true,
            threads: 1,
            max_units: Some(2),
            ..interrupted.clone()
        })
        .unwrap();
        if let Some(report) = step {
            resumed = Some(report.dump_pretty());
            break;
        }
    }
    assert_eq!(
        resumed.expect("the resumed campaign must finish"),
        straight,
        "kill/resume must not change a byte of the report"
    );

    // Sharded two ways, then merged.
    for shard in 0..2 {
        let done = exec_campaign_run(&CampaignRunSpec {
            shard: (shard, 2),
            ..run_spec(&manifest, &dir, &format!("shard{shard}.ck.json"))
        })
        .unwrap();
        assert!(done.is_none(), "a shard run reports via `campaign merge`");
    }
    let merged = exec_campaign_merge(&CampaignMergeSpec {
        manifest: manifest.clone(),
        checkpoints: (0..2)
            .map(|s| dir.join(format!("shard{s}.ck.json")).display().to_string())
            .collect(),
        json: false,
        report: None,
    })
    .unwrap()
    .dump_pretty();
    assert_eq!(merged, straight, "shard+merge must not change a byte");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_a_checkpoint_from_an_edited_grid() {
    let dir = scratch("edited");
    let manifest = write_manifest(&dir);
    let spec = CampaignRunSpec {
        resume: true,
        max_units: Some(2),
        ..run_spec(&manifest, &dir, "ck.json")
    };
    assert!(exec_campaign_run(&spec).unwrap().is_none());

    // Widen the grid under the checkpoint's feet: the hash no longer
    // matches, so resuming must be refused as an artifact error (exit 4).
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(
        &manifest,
        text.replace("\"max_actions\": 24", "\"max_actions\": 48"),
    )
    .unwrap();
    let err = exec_campaign_run(&spec).unwrap_err();
    assert_eq!(err.code, 4, "hash mismatch is an artifact error: {err}");
    assert!(err.message.contains("hash"), "unexpected message: {err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_refuses_to_clobber_a_checkpoint_without_resume() {
    let dir = scratch("clobber");
    let manifest = write_manifest(&dir);
    let spec = CampaignRunSpec {
        max_units: Some(2),
        ..run_spec(&manifest, &dir, "ck.json")
    };
    assert!(exec_campaign_run(&spec).unwrap().is_none());
    let err = exec_campaign_run(&spec).unwrap_err();
    assert_eq!(err.code, 1, "clobber refusal is a runtime error: {err}");
    assert!(
        err.message.contains("--resume"),
        "unexpected message: {err}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The journal makes a kill mid-write the normal recovery path: wherever the
/// file ends — inside the header, inside a batch line, on a line boundary —
/// `--resume` drops the torn tail, re-runs from the last complete line and
/// arrives at the same bytes, journal and report alike.
#[test]
fn a_kill_at_any_byte_resumes_to_the_same_journal_and_report() {
    let dir = scratch("anywhere");
    let manifest = write_manifest(&dir);
    let straight = CampaignRunSpec {
        threads: 1,
        ..run_spec(&manifest, &dir, "ref.ck.json")
    };
    let report = exec_campaign_run(&straight)
        .unwrap()
        .expect("an uninterrupted run must produce the report")
        .dump_pretty();
    let journal = std::fs::read(straight.checkpoint.as_ref().unwrap()).unwrap();
    let newlines = journal.iter().enumerate().filter(|(_, &b)| b == b'\n');
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(newlines.map(|(at, _)| at + 1))
        .collect();
    assert_eq!(line_starts.len(), 1 + 11 + 1, "header, 11 batches, the end");

    let killed = CampaignRunSpec {
        resume: true,
        threads: 1,
        ..run_spec(&manifest, &dir, "killed.ck.json")
    };
    let path = killed.checkpoint.as_ref().unwrap();
    let last_three = line_starts[line_starts.len() - 4]..=journal.len();
    for offset in (0..line_starts[1]).chain(last_three) {
        std::fs::write(path, &journal[..offset]).unwrap();
        let status = exec_campaign_status(path).unwrap();
        assert_eq!(
            status.get("torn_tail").and_then(Json::as_bool),
            Some(!line_starts.contains(&offset)),
            "cut at byte {offset}: {status}"
        );
        let resumed = exec_campaign_run(&killed).unwrap();
        let resumed = resumed.expect("the resumed run must finish");
        assert_eq!(resumed.dump_pretty(), report, "cut at byte {offset}");
        let rewritten = std::fs::read(path).unwrap();
        assert!(
            rewritten == journal,
            "cut at byte {offset}: journal differs"
        );
    }

    // A journal that lost a whole line still replays (its indexes ascend);
    // that its units are no longer this shard's first is resume's to refuse.
    let gap = [&journal[..line_starts[3]], &journal[line_starts[4]..]].concat();
    std::fs::write(path, gap).unwrap();
    let err = exec_campaign_run(&killed).unwrap_err();
    assert_eq!(err.code, 4, "a gap is an artifact error: {err}");
    assert!(err.message.contains("unit 9 at position 6"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}
