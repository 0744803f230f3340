//! Hostile inputs, one table: every JSON artifact the simulator reads
//! (scenario — a `--config` file is one — repro, manifest, the two kinds of
//! journal line, golden trace, delivery schedule) either loads to exactly what
//! the file says or is refused with a message — never a panic, never a
//! silently adjusted value.
//!
//! Each row starts from a document its type's own `to_json` produced. The
//! document must round-trip; then, for every key of every object at every
//! depth, the key is (a) deleted, (b) duplicated, (c) retyped and (d) given
//! an unknown sibling, and each mutant must be rejected — or, for a key the
//! format documents as optional, must load to the documented default. A
//! fixed-seed byte-mutation loop over the serialised text closes each row.
//! The policy under test is stated once, in `bft_sim_core::json`. A campaign
//! journal is lines, not one document: beside its two rows it gets a test of
//! its own for what can happen to whole lines.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bft_sim_attacks::{FuzzAction, FuzzActionKind};
use bft_sim_core::buggify::{FaultAction, FaultKind, FaultPreset};
use bft_sim_core::campaign::{
    Batch, Journal, JournalHeader, JournalWriter, Manifest, UnitOutcome, UnitRecord,
};
use bft_sim_core::json::{self, Json};
use bft_sim_core::trace::{TraceEvent, TraceKind};
use bft_sim_core::validator::DeliverySchedule;
use bft_sim_simcheck::{
    AttackSpec, ChurnSpec, NetSpec, PartitionSpec, Repro, RunMode, ScenarioSpec, Script,
    TopologyKind,
};
use bft_simulator::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parses a document and serialises what was understood, so two documents
/// that load to the same value compare equal.
type Parse = fn(&Json) -> Result<Json, String>;

struct Row {
    name: &'static str,
    /// The type's own `to_json` output.
    doc: Json,
    parse: Parse,
    /// Keys that may be absent, by dotted path (array positions left out):
    /// `Some(v)` — the parser documents the default `v`; `None` — `to_json`
    /// itself omits the key, so the document without it round-trips as is.
    optional: Vec<(String, Option<Json>)>,
}

/// The fields of one object, as `Json::Obj` holds them.
type Pairs = Vec<(String, Json)>;

/// A position inside a document: object keys and array indexes.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The paths of every object in `node`, the root included.
fn object_paths(node: &Json, here: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match node {
        Json::Obj(pairs) => {
            out.push(here.clone());
            for (key, value) in pairs {
                here.push(Step::Key(key.clone()));
                object_paths(value, here, out);
                here.pop();
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                here.push(Step::Index(i));
                object_paths(item, here, out);
                here.pop();
            }
        }
        _ => {}
    }
}

fn pairs_at<'a>(doc: &'a mut Json, path: &[Step]) -> &'a mut Pairs {
    let mut node = doc;
    for step in path {
        node = match (step, node) {
            (Step::Key(key), node @ Json::Obj(_)) => node.get_mut(key).expect("path key"),
            (Step::Index(i), Json::Arr(items)) => &mut items[*i],
            _ => panic!("path does not match the document"),
        };
    }
    match node {
        Json::Obj(pairs) => pairs,
        _ => panic!("path does not end at an object"),
    }
}

fn dotted(path: &[Step], key: &str) -> String {
    let mut keys: Vec<&str> = path
        .iter()
        .filter_map(|step| match step {
            Step::Key(k) => Some(k.as_str()),
            Step::Index(_) => None,
        })
        .collect();
    keys.push(key);
    keys.join(".")
}

/// Through the text, as a file would arrive; a panic is a test failure.
fn load(row: &Row, doc: &Json, label: &str) -> Result<Json, String> {
    let text = doc.dump();
    catch_unwind(AssertUnwindSafe(|| {
        let loaded = Json::parse(&text).and_then(|json| (row.parse)(&json));
        loaded.map(text_form)
    }))
    .unwrap_or_else(|_| panic!("{}: {label}: parser panicked on {text}", row.name))
}

/// The message `doc` is refused with; being accepted is a test failure.
fn assert_rejected(row: &Row, doc: &Json, label: &str) -> String {
    match load(row, doc, label) {
        Err(message) => message,
        Ok(loaded) => panic!(
            "{}: {label}: accepted {} as {}",
            row.name,
            doc.dump(),
            loaded.dump()
        ),
    }
}

/// What each kind of value is replaced with: always another JSON type, and
/// for integers also the three numbers an integer reader must refuse.
fn retypes(value: &Json) -> Vec<Json> {
    let array = Json::Arr(vec![Json::from(1u64)]);
    match value {
        Json::UInt(_) | Json::Num(_) => vec![
            Json::from("7"),
            Json::Num(2.5),
            Json::Num(1e30),
            Json::Num(-1.0),
            array,
        ],
        Json::Arr(_) => vec![Json::from("7"), Json::from(7u64), Json::obj([])],
        _ => vec![Json::from(7u64), array],
    }
}

fn check_row(row: &Row) {
    let name = row.name;
    let canonical = load(row, &row.doc, "round trip")
        .unwrap_or_else(|e| panic!("{name}: its own to_json output is rejected: {e}"));
    assert_eq!(canonical, row.doc, "{name}: to_json → from_json → to_json");

    let mut sites = Vec::new();
    object_paths(&row.doc, &mut Vec::new(), &mut sites);
    let mut mutants = 0usize;
    for site in &sites {
        let keys = pairs_at(&mut row.doc.clone(), site).clone();
        for (i, (key, value)) in keys.iter().enumerate() {
            let path = dotted(site, key);
            let mutate = |edit: &dyn Fn(&mut Pairs)| {
                let mut doc = row.doc.clone();
                edit(pairs_at(&mut doc, site));
                doc
            };

            // (a) deleted
            let deleted = mutate(&|pairs| {
                pairs.remove(i);
            });
            match row.optional.iter().find(|(p, _)| *p == path) {
                None => {
                    assert_rejected(row, &deleted, &format!("{path} deleted"));
                }
                Some((_, default)) => {
                    let got = load(row, &deleted, &format!("{path} deleted"))
                        .unwrap_or_else(|e| panic!("{name}: optional {path} deleted: {e}"));
                    let want = match default {
                        Some(default) => {
                            let defaulted = mutate(&|pairs| pairs[i].1 = default.clone());
                            load(row, &defaulted, "defaulted").expect("defaulted document loads")
                        }
                        None => deleted,
                    };
                    assert_eq!(got, want, "{name}: {path} deleted is not its default");
                }
            }

            // (b) duplicated, with the same and with another value
            for again in [value.clone(), Json::from(7u64)] {
                let doubled = mutate(&|pairs| pairs.push((key.clone(), again.clone())));
                assert_rejected(row, &doubled, &format!("{path} duplicated"));
            }

            // (c) retyped
            for other in retypes(value) {
                let retyped = mutate(&|pairs| pairs[i].1 = other.clone());
                let label = format!("{path} retyped to {}", other.dump());
                let err = assert_rejected(row, &retyped, &label);
                assert!(
                    err.contains(key.as_str()),
                    "{name}: {label}: message does not name the field: {err}"
                );
            }
            mutants += 1;
        }

        // (d) an unknown sibling
        let extended = {
            let mut doc = row.doc.clone();
            pairs_at(&mut doc, site).push(("zz_unknown".into(), Json::from(1u64)));
            doc
        };
        assert_rejected(row, &extended, "unknown sibling");
    }
    assert!(mutants > 0, "{name}: the walk found no keys");

    // Byte mutations of the text: anything may come back except a panic.
    byte_mutants(name, row.doc.dump_pretty().as_bytes(), &|bytes| {
        let mutant = String::from_utf8_lossy(bytes);
        Json::parse(&mutant)
            .and_then(|json| (row.parse)(&json))
            .ok();
    });
}

/// 2 000 fixed-seed mutants of `text`, each with one to three bytes
/// overwritten, deleted, inserted or a short span repeated; `load` must
/// return from every one.
fn byte_mutants(name: &str, text: &[u8], load: &dyn Fn(&[u8])) {
    let mut rng = SmallRng::seed_from_u64(0x4057_11E5);
    for round in 0..2_000 {
        let mut bytes = text.to_vec();
        for _ in 0..rng.gen_range(1..4u32) {
            let at = rng.gen_range(0..bytes.len() as u64) as usize;
            match rng.gen_range(0..4u32) {
                0 => bytes[at] = rng.gen_range(0..256u32) as u8,
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, b"{}[]\",:-.e0919"[rng.gen_range(0..14u64) as usize]),
                _ => {
                    let end = (at + rng.gen_range(1..24u64) as usize).min(bytes.len());
                    let span = bytes[at..end].to_vec();
                    bytes.splice(at..at, span);
                }
            }
            if bytes.is_empty() {
                break;
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| load(&bytes)));
        let shown = String::from_utf8_lossy(&bytes);
        assert!(
            outcome.is_ok(),
            "{name}: byte mutant #{round} panicked: {shown}"
        );
    }
}

/// A scenario with every block `to_json` can emit.
fn rich_scenario() -> ScenarioSpec {
    ScenarioSpec {
        n: 7,
        seed: 0xDEAD_BEEF_DEAD_BEEF,
        delay: bft_sim_simcheck::DelaySpec::Uniform {
            lo_micros: 50_000,
            hi_micros: 300_000,
        },
        net: Some(NetSpec {
            topology: TopologyKind::RingGradient,
            bandwidth: Some(64_000),
            topology_seed: 0xF00D,
            churn: Some(ChurnSpec {
                seed: 11,
                crashes: 2,
                min_down_ms: 500,
                max_down_ms: 4_000,
            }),
        }),
        partition: Some(PartitionSpec {
            start_ms: 100,
            end_ms: 2_000,
            drop: true,
        }),
        attack: Some(AttackSpec::FailStopLast { k: 1 }),
        intensity_permille: 500,
        max_actions: 48,
        bug_delay_micros: 2_000,
        fault_preset: FaultPreset::Chaos,
        fault_seed: 0xFA17,
        ..ScenarioSpec::baseline(ProtocolKind::Pbft)
    }
}

/// The keys a scenario document may leave out, under `prefix`.
fn scenario_optionals(prefix: &str, spec: &ScenarioSpec) -> Vec<(String, Option<Json>)> {
    let baseline = ScenarioSpec::baseline(spec.protocol).to_json();
    let Json::Obj(defaults) = baseline else {
        unreachable!("a scenario serialises as an object");
    };
    let mut keys: Vec<(String, Option<Json>)> = defaults
        .into_iter()
        .filter(|(key, _)| key != "protocol")
        .map(|(key, value)| (key, Some(value)))
        .collect();
    for omitted in [
        "net",
        "net.bandwidth",
        "net.topology_seed",
        "net.churn",
        "partition",
        "attack",
        "bug_delay_micros",
        "faults",
    ] {
        keys.push((omitted.into(), None));
    }
    keys.push(("faults.preset".into(), Some(Json::from("calm"))));
    keys.push(("faults.seed".into(), Some(Json::from(0u64))));
    keys.into_iter()
        .map(|(key, default)| (format!("{prefix}{key}"), default))
        .collect()
}

fn event(time: u64, node: u32, kind: TraceKind) -> TraceEvent {
    TraceEvent {
        time: SimTime::from_micros(time),
        node: NodeId::new(node),
        kind,
    }
}

fn rich_repro() -> Repro {
    Repro {
        spec: rich_scenario(),
        script: Script {
            actions: vec![
                FuzzAction {
                    index: 3,
                    kind: FuzzActionKind::Drop,
                },
                FuzzAction {
                    index: 5,
                    kind: FuzzActionKind::Delay {
                        extra_micros: 1_500,
                    },
                },
                FuzzAction {
                    index: 9,
                    kind: FuzzActionKind::Replay {
                        dst: NodeId::new(2),
                        delay_micros: 700,
                    },
                },
            ],
            faults: vec![
                FaultAction {
                    index: 1,
                    kind: FaultKind::TimerSkew {
                        factor_permille: 1_500,
                    },
                },
                FaultAction {
                    index: 2,
                    kind: FaultKind::DuplicateDelivery { extra_micros: 40 },
                },
                FaultAction {
                    index: 4,
                    kind: FaultKind::ReorderDelay { extra_micros: 90 },
                },
                FaultAction {
                    index: 6,
                    kind: FaultKind::TargetedDrop {
                        dst: NodeId::new(3),
                    },
                },
                FaultAction {
                    index: 8,
                    kind: FaultKind::TornWrite { keep: 1 },
                },
            ],
        },
        oracle: "agreement".into(),
        detail: "slot 0: n1 decided 2 but n0 decided 1".into(),
        last_events: vec![
            event(
                10,
                0,
                TraceKind::Sent {
                    dst: NodeId::new(1),
                    payload_type: "prepare".into(),
                },
            ),
            event(
                20,
                1,
                TraceKind::Delivered {
                    src: NodeId::new(0),
                    payload_type: "prepare".into(),
                },
            ),
            event(30, 1, TraceKind::View { view: 2 }),
            event(
                40,
                1,
                TraceKind::Custom {
                    label: "commit".into(),
                    detail: "view=2 slot=0".to_string(),
                },
            ),
            event(
                50,
                2,
                TraceKind::Decided {
                    slot: 0,
                    value: Value::new(0xf40c_0724_6da4_cc91),
                },
            ),
            event(60, 3, TraceKind::Corrupted),
            event(70, 3, TraceKind::Crashed),
        ],
    }
}

fn manifest() -> Manifest {
    Manifest {
        protocols: vec!["pbft".into(), "hotstuff-ns".into()],
        nodes: vec![4, 7],
        delays: vec!["constant".into(), "normal".into()],
        nets: vec!["none".into(), "full_mesh:churn=5,2,500,4000".into()],
        attacks: vec![0, 500],
        seeds: (10, 13),
        checkpoint_every: 4,
        max_actions: 48,
    }
}

fn journal_header() -> JournalHeader {
    JournalHeader {
        manifest_hash: manifest().hash(),
        shard: (1, 3),
        assigned: 32,
    }
}

/// The `batch`-th line of shard 1/3's journal: three units, one of each
/// outcome, and both histograms populated.
fn journal_batch(batch: usize) -> Batch {
    let record = |position, outcome, latency_micros| {
        let index = 1 + 3 * (3 * batch + position);
        UnitRecord {
            index,
            outcome,
            events: 500 + index as u64,
            decisions: 2,
            honest_messages: 96,
            latency_micros,
        }
    };
    let mut batch = Batch {
        records: vec![
            record(0, UnitOutcome::Clean, Some(300_000)),
            record(
                1,
                UnitOutcome::Violated {
                    violations: vec!["[termination] run stopped".into()],
                    repro: Some("out/repro-unit4-termination.json".into()),
                },
                None,
            ),
            UnitRecord {
                events: 0,
                decisions: 0,
                honest_messages: 0,
                ..record(
                    2,
                    UnitOutcome::Panicked {
                        message: "index out of bounds".into(),
                    },
                    None,
                )
            },
        ],
        ..Batch::default()
    };
    for micros in [4u64, 5, 900, 250_000] {
        batch
            .delivery_latency
            .record(SimDuration::from_micros(micros));
        batch
            .decision_interval
            .record(SimDuration::from_micros(micros * 3));
    }
    batch
}

fn golden_trace() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    json::load(path.join("pbft_n7_seed5.json"), "trace", Trace::from_json)
        .expect("the committed golden trace loads")
        .to_json()
}

/// A document as a file holds it: `1000.0` is written `1000` and read back
/// as an integer, so compare against this form.
fn text_form(json: Json) -> Json {
    Json::parse(&json.dump()).expect("to_json output is JSON")
}

fn rows() -> Vec<Row> {
    let scenario = rich_scenario();
    let repro = rich_repro();
    let mut repro_optional = scenario_optionals("scenario.", &repro.spec);
    for omitted in ["actions", "fault_actions", "last_events"] {
        repro_optional.push((omitted.into(), None));
    }
    let rows = vec![
        Row {
            name: "scenario",
            doc: scenario.to_json(),
            parse: |json| ScenarioSpec::from_json(json).map(|spec| spec.to_json()),
            optional: scenario_optionals("", &scenario),
        },
        Row {
            name: "repro",
            doc: repro.to_json(),
            parse: |json| Repro::from_json(json).map(|repro| repro.to_json()),
            optional: repro_optional,
        },
        Row {
            name: "manifest",
            doc: manifest().to_json(),
            parse: |json| Manifest::from_json(json).map(|manifest| manifest.to_json()),
            optional: Vec::new(),
        },
        Row {
            name: "journal header",
            doc: journal_header().to_json(),
            parse: |json| JournalHeader::from_json(json).map(|header| header.to_json()),
            optional: Vec::new(),
        },
        Row {
            name: "journal batch",
            doc: journal_batch(0).to_json(),
            parse: |json| Batch::from_json(json).map(|batch| batch.to_json()),
            optional: vec![
                ("records.latency_micros".into(), None),
                ("records.repro".into(), None),
            ],
        },
        Row {
            name: "golden trace",
            doc: golden_trace(),
            parse: |json| Trace::from_json(json).map(|trace| trace.to_json()),
            optional: Vec::new(),
        },
        Row {
            name: "delivery schedule",
            doc: Json::parse(r#"{"fates": [{"Deliver": {"delay_micros": 250000}}, "Drop"]}"#)
                .expect("a two-fate schedule"),
            parse: |json| DeliverySchedule::from_json(json).map(|schedule| schedule.to_json()),
            optional: Vec::new(),
        },
    ];
    rows.into_iter()
        .map(|row| Row {
            doc: text_form(row.doc),
            ..row
        })
        .collect()
}

#[test]
fn every_artifact_parser_refuses_what_it_cannot_load_exactly() {
    for row in rows() {
        check_row(&row);
    }
}

/// What can happen to a journal's lines, through the writer's own bytes: a
/// line duplicated or swapped with its neighbour is refused with its line
/// number, a deleted header too; a deleted batch line leaves a shorter
/// journal for resume's position check (`campaign_resume.rs`) to refuse; and
/// no byte mutant of the file panics the replay.
#[test]
fn a_journal_survives_what_happens_to_its_lines() {
    let path = std::env::temp_dir().join(format!("bft-sim-hostile-{}.ck", std::process::id()));
    let mut writer = JournalWriter::create(&path, &journal_header()).unwrap();
    for batch in 0..3 {
        writer.append(&journal_batch(batch)).unwrap();
    }
    let text = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let intact = Journal::replay(&text).unwrap().expect("a header line");
    assert_eq!((intact.lines, intact.checkpoint.records.len()), (3, 9));
    assert_eq!((intact.assigned, intact.torn_tail), (32, false));

    let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
    let replay = |lines: &[&[u8]]| {
        let bytes = lines.concat();
        catch_unwind(|| Journal::replay(&bytes)).expect("replay panicked")
    };
    for at in 0..lines.len() {
        let mut deleted = lines.clone();
        deleted.remove(at);
        match (at, replay(&deleted)) {
            (0, Err(e)) => assert!(e.starts_with("line 1: journal header: "), "{e}"),
            (0, Ok(journal)) => panic!("accepted a batch as a header: {journal:?}"),
            (_, loaded) => assert_eq!(loaded.unwrap().unwrap().checkpoint.records.len(), 6),
        }
        let mut doubled = lines.clone();
        doubled.insert(at, lines[at]);
        let err = replay(&doubled).unwrap_err();
        assert!(err.starts_with(&format!("line {}: ", at + 2)), "{err}");
        if at + 1 < lines.len() {
            let mut swapped = lines.clone();
            swapped.swap(at, at + 1);
            let err = replay(&swapped).unwrap_err();
            let refused_at = if at == 0 { 1 } else { at + 2 };
            assert!(err.starts_with(&format!("line {refused_at}: ")), "{err}");
        }
    }
    byte_mutants("journal", &text, &|bytes| {
        Journal::replay(bytes).ok();
    });
}

/// The motivating cases, at the parser: each names its field.
#[test]
fn the_policy_in_five_lines() {
    let scenario = |text: &str| ScenarioSpec::from_json(&Json::parse(text).unwrap()).unwrap_err();
    for n in 0..4 {
        let err = scenario(&format!("{{\"protocol\": \"pbft\", \"n\": {n}}}"));
        assert!(err.contains("\"n\"") && err.contains("3f + 1"), "{err}");
    }
    let err = scenario("{\"protocol\": \"pbft\", \"n\": 4.6}");
    assert!(
        err.contains("bad \"n\": expected an unsigned integer"),
        "{err}"
    );
    let err = scenario("{\"protocol\": \"pbft\", \"time_cap_secs\": 1e30}");
    assert!(err.contains("bad \"time_cap_secs\""), "{err}");
    let err = scenario("{\"protocol\":\"pbft\",\"n\":4,\"seed\":1,\"seed\":2,\"n\":7}");
    assert!(err.contains("duplicate field \"seed\""), "{err}");
    // An inverted partition window used to reach `PartitionPlan::new`'s
    // assert; a scenario file, a repro and a spec built in code all meet the
    // one rule instead.
    let inverted = "{\"start_ms\": 10, \"end_ms\": 5, \"drop\": true}";
    let err = scenario(&format!(
        "{{\"protocol\": \"pbft\", \"partition\": {inverted}}}"
    ));
    assert!(
        err.contains("bad \"partition\": partition resolves at 5 ms, before it starts at 10 ms"),
        "{err}"
    );
    let mut doc = rich_repro().to_json();
    *doc.get_mut("scenario")
        .and_then(|scenario| scenario.get_mut("partition"))
        .unwrap() = Json::parse(inverted).unwrap();
    let err = Repro::from_json(&doc).unwrap_err();
    assert!(err.contains("before it starts"), "{err}");
    let built = ScenarioSpec {
        partition: Some(PartitionSpec {
            start_ms: 10,
            end_ms: 5,
            drop: false,
        }),
        ..ScenarioSpec::baseline(ProtocolKind::Pbft)
    };
    let err = built.run(RunMode::Generate).unwrap_err();
    assert!(err.contains("before it starts"), "{err}");
    // An attack beyond the fault budget used to be cut short by the engine,
    // after crashing the wrong nodes.
    let err =
        scenario("{\"protocol\": \"pbft\", \"n\": 16, \"attack\": {\"FailStopLast\": {\"k\": 6}}}");
    assert!(err.contains("pbft's fault budget f = 5 at n = 16"), "{err}");
    let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
    assert!(err.contains("nesting deeper than 128 at byte 128"), "{err}");
    assert!(Json::parse(&format!("{}1{}", "[".repeat(128), "]".repeat(128))).is_ok());

    let mut doc = journal_header().to_json();
    *doc.get_mut("shard").unwrap().get_mut("index").unwrap() = Json::from(4_294_967_296u64);
    let err = JournalHeader::from_json(&doc).unwrap_err();
    assert!(
        err.contains("bad \"shard.index\": 4294967296 exceeds the u32 range"),
        "{err}"
    );
    let mut doc = manifest().to_json();
    *doc.get_mut("nodes").unwrap() = Json::Arr(vec![Json::Num(4.4)]);
    let err = Manifest::from_json(&doc).unwrap_err();
    assert!(
        err.contains("manifest: bad \"nodes\": entry #0: expected an unsigned integer"),
        "{err}"
    );
    let mut doc = rich_repro().to_json();
    let Some(Json::Arr(faults)) = doc.get_mut("fault_actions") else {
        panic!("the repro carries fault actions");
    };
    *faults[3]
        .get_mut("kind")
        .and_then(|kind| kind.get_mut("TargetedDrop"))
        .and_then(|body| body.get_mut("dst"))
        .unwrap() = Json::from(4_294_967_298u64);
    let err = Repro::from_json(&doc).unwrap_err();
    assert!(
        err.contains("entry #3") && err.contains("bad \"dst\": 4294967298 exceeds the u32 range"),
        "{err}"
    );
}

#[test]
fn a_churn_crash_count_past_the_cap_is_refused_before_allocation() {
    // The count used to size the plan's window list before any check:
    // u64::MAX overflowed the capacity (a panic, exit 101) and 2^40 asked
    // for 24 TiB. A spec built in code meets the rule when it runs, a file
    // when it is parsed.
    for crashes in [u64::MAX, 1 << 40] {
        let spec = ScenarioSpec {
            net: Some(NetSpec {
                topology: TopologyKind::FullMesh,
                bandwidth: None,
                topology_seed: 0,
                churn: Some(ChurnSpec {
                    seed: 1,
                    crashes,
                    min_down_ms: 500,
                    max_down_ms: 4_000,
                }),
            }),
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let expected = format!("churn crash count {crashes} exceeds the maximum of 4096");
        let err = spec.run(RunMode::Generate).unwrap_err();
        assert!(
            err.starts_with("scenario churn: ") && err.contains(&expected),
            "{err}"
        );
        let err = ScenarioSpec::from_json(&spec.to_json()).unwrap_err();
        assert!(err.contains(&expected), "{err}");
    }
}

/// A net block that cannot build is refused where it is parsed, in a
/// scenario file and in a repro alike: a zero bandwidth, an empty down-time
/// range and a crash count past the cap (`NetSpec::check`).
#[test]
fn degenerate_net_blocks_are_refused_at_parse_time() {
    let net = rich_scenario().net.unwrap();
    let churn = net.churn.unwrap();
    for (bad, expected) in [
        (
            NetSpec {
                bandwidth: Some(0),
                ..net
            },
            "bandwidth must be positive",
        ),
        (
            NetSpec {
                churn: Some(ChurnSpec {
                    max_down_ms: churn.min_down_ms,
                    ..churn
                }),
                ..net
            },
            "churn down-time range is empty",
        ),
        (
            NetSpec {
                churn: Some(ChurnSpec {
                    crashes: 4_097,
                    ..churn
                }),
                ..net
            },
            "churn crash count 4097 exceeds the maximum of 4096",
        ),
    ] {
        assert!(bad.check().unwrap_err().contains(expected));
        let scenario = ScenarioSpec {
            net: Some(bad),
            ..rich_scenario()
        };
        let err = ScenarioSpec::from_json(&scenario.to_json()).unwrap_err();
        assert!(
            err.contains("bad \"net\"") && err.contains(expected),
            "{err}"
        );
        let repro = Repro {
            spec: scenario,
            ..rich_repro()
        };
        let err = Repro::from_json(&repro.to_json()).unwrap_err();
        assert!(err.contains(expected), "{err}");
    }
}
