//! Golden behavior-fingerprint corpus: the coverage fuzzer's
//! [`run_fingerprint`] value for a pinned set of scenarios — every protocol
//! under the calm and chaos fault presets — is committed in
//! `tests/golden/fingerprints.json`, and a fresh run must reproduce each
//! one exactly.
//!
//! The fingerprint is the coverage search's entire notion of novelty, so a
//! silent change to it (observability signature, timing buckets, decision
//! accounting, fault semantics) would invisibly reshape what the fuzzer
//! explores and invalidate stored coverage baselines. This test makes such
//! changes loud: they require re-blessing the corpus.
//!
//! To regenerate after an *intentional* behaviour change:
//! `BFT_SIM_BLESS=1 cargo test --test golden_fingerprints`.

use bft_sim_core::buggify::FaultPreset;
use bft_sim_core::json::Json;
use bft_sim_core::obs::DEFAULT_LAST_K;
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_simcheck::{run_fingerprint, RunMode, ScenarioSpec};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fingerprints.json")
}

/// The pinned corpus: each protocol's baseline scenario under both the calm
/// and the chaos preset (fault seed 5). Keys are `"<protocol>/<preset>"`.
fn compute_corpus() -> Vec<(String, u64)> {
    let mut corpus = Vec::new();
    for kind in ProtocolKind::extended() {
        for preset in [FaultPreset::Calm, FaultPreset::Chaos] {
            let spec = ScenarioSpec {
                fault_preset: preset,
                fault_seed: if preset == FaultPreset::Calm { 0 } else { 5 },
                ..ScenarioSpec::baseline(kind)
            };
            let run = spec
                .run_observed(RunMode::Generate, Some(spec.obs_config(DEFAULT_LAST_K)))
                .expect("baseline run");
            corpus.push((
                format!("{}/{}", kind.name(), preset.name()),
                run_fingerprint(&run),
            ));
        }
    }
    corpus
}

fn corpus_json(corpus: &[(String, u64)]) -> Json {
    Json::Obj(
        corpus
            .iter()
            .map(|(key, fp)| (key.clone(), Json::from(format!("{fp:016x}").as_str())))
            .collect(),
    )
}

#[test]
fn fingerprints_match_committed_golden_corpus() {
    let corpus = compute_corpus();
    let path = golden_path();
    let bless = std::env::var("BFT_SIM_BLESS").is_ok();
    if bless || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, corpus_json(&corpus).dump_pretty()).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    for (key, fp) in &corpus {
        let want = golden
            .get(key)
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{key}: missing from golden corpus — re-bless"));
        assert_eq!(
            format!("{fp:016x}"),
            want,
            "{key}: fingerprint diverged from the committed corpus \
             (BFT_SIM_BLESS=1 to re-bless after an intentional change)"
        );
    }
    let Json::Obj(entries) = &golden else {
        panic!("golden corpus must be an object");
    };
    assert_eq!(
        entries.len(),
        corpus.len(),
        "golden corpus has stale extra entries — re-bless"
    );
}

#[test]
fn golden_corpus_separates_calm_from_chaos() {
    // The corpus must not be vacuous: for at least one protocol the chaos
    // preset has to reach a behavior calm never shows. (Not asserted per
    // protocol — a fast single-decision protocol can finish before any
    // fault lands.)
    let corpus = compute_corpus();
    let mut separated = 0;
    for kind in ProtocolKind::extended() {
        let calm = corpus
            .iter()
            .find(|(k, _)| k == &format!("{}/calm", kind.name()));
        let chaos = corpus
            .iter()
            .find(|(k, _)| k == &format!("{}/chaos", kind.name()));
        if let (Some((_, a)), Some((_, b))) = (calm, chaos) {
            if a != b {
                separated += 1;
            }
        }
    }
    assert!(
        separated > 0,
        "chaos fingerprints collide with calm on every protocol"
    );
}
