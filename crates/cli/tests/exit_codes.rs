//! End-to-end assertions on the `bft-sim` binary's documented exit-code map
//! (see "Exit codes" in the crate docs of `lib.rs`):
//!
//! - `0` — success,
//! - `2` — usage errors (bad flags, unknown commands, unparseable scenarios),
//! - `3` — fuzz sweeps that found oracle violations or panicked runs
//!   (feature `testbug`, which seeds a violation to find),
//! - `4` — repro-file errors (unreadable, malformed, stale),
//!
//! each distinct from the others and from a Rust panic's `101`, so scripts
//! and CI can branch on *why* a command failed.

use std::process::Output;

fn bft_sim(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_bft-sim"))
        .args(args)
        .output()
        .expect("bft-sim binary spawns")
}

fn assert_code(args: &[&str], expected: i32) {
    let out = bft_sim(args);
    assert_eq!(
        out.status.code(),
        Some(expected),
        "bft-sim {args:?}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A scratch directory unique to this test binary invocation.
fn scratch(label: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bft-sim-exit-codes-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn success_exits_zero() {
    assert_code(&["list"], 0);
    assert_code(&["trace", "pbft", "--json", "--last-k", "8"], 0);
}

#[test]
fn usage_errors_exit_two() {
    let cases: &[&[&str]] = &[
        &["frobnicate"],
        &["trace"],
        &["trace", "raft"],
        &["trace", "pbft", "--last-k", "x"],
        &["fig", "99"],
        // There is one event queue and no flag to pick it.
        &["fuzz", "--scheduler", "heap"],
        &["trace", "pbft", "--scheduler", "heap"],
        &["campaign", "run", "m.json", "--scheduler", "heap"],
        // `crates/bench/tests/footprint.rs` pins the counters this wrote.
        &["bench-baseline"],
        // A documented range is enforced: `FuzzBudget` used to clamp this
        // silently while the repro files recorded 1001.
        &["fuzz", "--seeds", "2", "--intensity", "1001"],
        // An unbounded seed range died of `capacity overflow` (101) once
        // collected; a thread count is started as given. Both are refused
        // before anything is allocated or spawned.
        &["fuzz", "--seeds", "0..18446744073709551615"],
        &["fuzz", "--seeds", "18446744073709551615"],
        &["fuzz", "--seeds", "0..1000001"],
        &["fuzz", "--threads", "257"],
        &["fuzz", "--threads", "18446744073709551615"],
        &["campaign", "run", "m.json", "--threads", "257"],
        // The coverage search and its blind mode are gone.
        &["fuzz", "--coverage", "--blind"],
        // Trailing arguments.
        &["fig", "2", "extra"],
        &["table", "1", "junk"],
        &["list", "junk"],
        // Degenerate scenario parameters: f = 0 made the protocols recurse
        // until the stack overflowed (134), n = 0 and a non-positive λ
        // panicked (101).
        &["run", "--protocol", "pbft", "--nodes", "0"],
        &["run", "--protocol", "pbft", "--nodes", "1"],
        &["run", "--protocol", "pbft", "--nodes", "3"],
        &["run", "--protocol", "hotstuff-ns", "--nodes", "1"],
        &["run", "--protocol", "tendermint", "--nodes", "1"],
        &["compare", "--nodes", "3"],
        &["run", "--protocol", "pbft", "--lambda", "0"],
        &["run", "--protocol", "pbft", "--lambda", "-1"],
        &["run", "--protocol", "pbft", "--lambda", "nan"],
        &["run", "--protocol", "pbft", "--delay-mu", "nan"],
        &["run", "--protocol", "pbft", "--delay-sigma", "-1"],
        // Zero repetitions printed a row of zeros and exited 0; a count no
        // vector can hold and an n beyond the 32-bit node ids panicked (101).
        &["run", "--protocol", "pbft", "--reps", "0"],
        &["compare", "--reps", "0"],
        &[
            "run",
            "--protocol",
            "pbft",
            "--reps",
            "18446744073709551615",
        ],
        &["compare", "--reps", "18446744073709551615"],
        &["run", "--protocol", "pbft", "--nodes", "4294967297"],
        &["compare", "--nodes", "4294967297"],
        // A partition that resolves before it starts died in
        // `PartitionPlan::new`'s assert (101).
        &["run", "--protocol", "pbft", "--attack", "partition:10:5"],
        // An attack count above the fault budget (f = 5 at n = 16) was
        // rewritten: `failstop:6` crashed nodes 10-14, `failstop:99` the
        // first leaders, and `add-static:6` ran as `add-static:5`.
        &[
            "run",
            "--protocol",
            "pbft",
            "--nodes",
            "16",
            "--attack",
            "failstop:6",
        ],
        &[
            "run",
            "--protocol",
            "pbft",
            "--nodes",
            "16",
            "--attack",
            "failstop:99",
        ],
        &[
            "run",
            "--protocol",
            "pbft",
            "--nodes",
            "16",
            "--attack",
            "add-static:6",
        ],
        &["compare", "--nodes", "16", "--attack", "failstop:6"],
        // λ, μ and σ are held in whole microseconds; a negative mean was
        // accepted.
        &["run", "--protocol", "pbft", "--delay-mu", "-5"],
        &["run", "--protocol", "pbft", "--lambda", "0.0001"],
        // A net block that cannot build failed each run (exit 1).
        &["fuzz", "--net-preset", "full_mesh:bw=0"],
        &[
            "fuzz",
            "--net-preset",
            "full_mesh:churn=1,1099511627776,1,2",
        ],
    ];
    for args in cases {
        let out = bft_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "bft-sim {args:?}\nstderr: {stderr}"
        );
        // One line naming the problem, then the usage text — no panic.
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.starts_with("error: "), "bft-sim {args:?}: {first}");
        assert!(
            !stderr.contains("panicked at"),
            "bft-sim {args:?}: {stderr}"
        );
    }
}

/// `--help` / `-h` after any command or subcommand is the usage text on
/// stdout and exit 0, not an unknown flag.
#[test]
fn help_after_a_command_exits_zero() {
    for args in [
        &["fuzz", "--help"][..],
        &["campaign", "--help"],
        &["campaign", "run", "-h"],
        &["trace", "pbft", "--help"],
    ] {
        let out = bft_sim(args);
        assert_eq!(out.status.code(), Some(0), "bft-sim {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE:"), "bft-sim {args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "bft-sim {args:?}");
    }
}

/// The `--config` scenario file is the base and flags override it wherever
/// they stand: flags to the left of `--config` used to be discarded silently.
#[test]
fn flags_override_the_config_file_in_either_order() {
    let dir = scratch("config-order");
    let config = dir.join("c.json");
    std::fs::write(&config, r#"{"protocol": "pbft", "n": 4}"#).expect("write config");
    let config = config.to_str().unwrap();
    let flags = ["--protocol", "hotstuff-ns", "--reps", "3", "--json"];
    let left = bft_sim(&[&["run"][..], &flags, &["--config", config]].concat());
    let right = bft_sim(&[&["run", "--config", config][..], &flags].concat());
    assert_eq!(left.status.code(), Some(0));
    assert_eq!(left.stdout, right.stdout);
    let report = String::from_utf8_lossy(&left.stdout);
    assert!(report.contains(r#""protocol": "hotstuff-ns""#), "{report}");
    assert!(report.contains(r#""reps": 3"#), "{report}");
    assert_code(&["run", "--config", config, "--config", config], 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sync HotStuff, its synchrony-violation attack and the crypto-cost
/// estimator are gone, with no flag, name or config key left to reach them.
#[test]
fn sync_hotstuff_and_the_cost_estimator_are_gone() {
    let dir = scratch("gone");
    let config = dir.join("c.json");
    std::fs::write(&config, r#"{"protocol": "pbft", "cost": "ed25519"}"#).expect("write config");
    let config = config.to_str().unwrap();
    for (args, message) in [
        (&["run", "--cost", "ed25519"][..], "unknown flag '--cost'"),
        (
            &["run", "--protocol", "sync-hotstuff"][..],
            "unknown protocol 'sync-hotstuff'",
        ),
        (&["run", "--config", config][..], "unknown field \"cost\""),
    ] {
        let out = bft_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bft-sim {args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.ends_with(message),
            "bft-sim {args:?}: {first}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_file_errors_exit_four() {
    assert_code(&["repro", "/definitely/not/a/file.json"], 4);

    let dir = scratch("repro");
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "{ this is not json").expect("write malformed repro");
    assert_code(&["repro", malformed.to_str().unwrap()], 4);

    let wrong_shape = dir.join("wrong-shape.json");
    std::fs::write(&wrong_shape, "{\"format\": \"bogus-v0\"}").expect("write wrong-shape repro");
    assert_code(&["repro", wrong_shape.to_str().unwrap()], 4);

    // A scripted replay to a node the n = 4 scenario does not have used to
    // index past the engine's per-node counters (exit 101); a destination
    // above u32 used to be truncated to node 1 and replayed.
    for dst in ["99", "4294967297"] {
        let hostile = dir.join(format!("replay-dst-{dst}.json"));
        let text = format!(
            r#"{{"format": "bft-sim-repro-v1", "oracle": "termination", "detail": "x",
              "scenario": {{"protocol": "pbft", "n": 4, "seed": 0, "genesis_seed": 7,
                "lambda_micros": 1000000, "delay": {{"Constant": {{"micros": 100000}}}},
                "adversary_seed": 0, "intensity_permille": 0, "max_actions": 0,
                "target_decisions": 2, "time_cap_secs": 900, "inject_bug": false}},
              "actions": [{{"msg_index": 0,
                "kind": {{"Replay": {{"dst": {dst}, "delay_micros": 1000}}}}}}]}}"#
        );
        std::fs::write(&hostile, text).expect("write hostile repro");
        let out = bft_sim(&["repro", hostile.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "dst {dst}: {stderr}");
        assert!(stderr.contains("entry #0"), "dst {dst}: {stderr}");
        assert!(stderr.contains("\"dst\""), "dst {dst}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed artifacts exit with their loader's code — 2 for a scenario
/// file or `--config`, 4 for a repro, manifest or checkpoint — and say which
/// field is wrong. Each of these once ended in a signal (134: f = 0
/// recursion, unbounded parser recursion), a panic (101) or a run with a
/// value the file did not contain (a rounded float, a truncated id, the last
/// of two repeated keys).
#[test]
fn hostile_artifacts_exit_with_their_loaders_code() {
    let dir = scratch("hostile");
    let file = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write artifact");
        path.to_str().unwrap().to_string()
    };
    let manifest = |nodes: &str, tail: &str| {
        format!(
            r#"{{"format": "bft-sim-campaign-v1", "protocols": ["pbft"], "nodes": {nodes},
              "delays": ["constant"], "nets": ["none"], "attacks": [0],
              "seeds": {{"lo": 0, "hi": 2}}, "checkpoint_every": 2, "max_actions": 8{tail}}}"#
        )
    };
    let repro = |extra: &str| {
        format!(
            r#"{{"format": "bft-sim-repro-v1", "oracle": "termination", "detail": "x",
              "scenario": {{"protocol": "pbft", "n": 4}}{extra}}}"#
        )
    };
    // A repro the fuzzer minted (n = 7), with a targeted drop aimed at node
    // 99 appended to its fault actions: it used to load and replay with
    // exit 0, the drop never firing.
    let minted = dir.join("minted");
    let out = bft_sim(&[
        "fuzz",
        "--preset",
        "chaos",
        "--protocols",
        "algorand",
        "--seeds",
        "1402..1403",
        "--out",
        minted.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "the seed violates agreement");
    let text = std::fs::read_to_string(minted.join("repro-seed1402-agreement.json"))
        .expect("the violation is written as a repro");
    let end = text.rfind("\n  ]").expect("fault actions close the repro");
    let dropped_past_n = format!(
        r#"{},
    {{"index": 0, "kind": {{"TargetedDrop": {{"dst": 99}}}}}}{}"#,
        &text[..end],
        &text[end..]
    );
    // An honest protocol's drop/delay-only violation (Algorand, chaos seed
    // 164: n = 4, one adversary drop, two reorder delays) minted a repro
    // that also carried a 41-fate delivery schedule. Its script is now the
    // one way it reproduces.
    let algorand = dir.join("algorand");
    let out = bft_sim(&[
        "fuzz",
        "--preset",
        "chaos",
        "--protocols",
        "algorand",
        "--seeds",
        "164..165",
        "--out",
        algorand.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "the seed violates agreement");
    let seed164 = algorand.join("repro-seed164-agreement.json");
    let text = std::fs::read_to_string(&seed164).expect("the violation is written as a repro");
    assert!(!text.contains("\"schedule\""), "{text}");
    assert_code(&["repro", seed164.to_str().unwrap()], 0);
    let good_manifest = file("good-manifest.json", &manifest("[4]", ""));
    let ceiling_scenario = r#"{"protocol": "pbft", "n": 4, "lambda_micros": 9223372036854775807,
        "time_cap_secs": 18446744073709551615,
        "partition": {"start_ms": 0, "end_ms": 18446744073709551615, "drop": true}}"#;
    let ceiling = file("ceiling.json", ceiling_scenario);
    let journal = file(
        "wide-shard.json",
        concat!(
            r#"{"format": "bft-sim-campaign-journal-v1", "manifest_hash": "0", "#,
            r#""shard": {"index": 4294967296, "count": 4294967297}, "assigned": 0}"#,
            "\n"
        ),
    );
    let cases: Vec<(Vec<String>, i32, &str)> = vec![
        (
            vec![
                "trace".into(),
                file("n1.json", r#"{"protocol":"pbft","n":1}"#),
            ],
            2,
            "n = 3f + 1",
        ),
        (
            vec![
                "trace".into(),
                file(
                    "budget.json",
                    r#"{"protocol":"pbft","n":16,"attack":{"AddStatic":{"k":6}}}"#,
                ),
            ],
            2,
            "pbft's fault budget f = 5 at n = 16",
        ),
        (
            vec![
                "trace".into(),
                file("n0.json", r#"{"protocol":"pbft","n":0}"#),
            ],
            2,
            "n = 3f + 1",
        ),
        (
            vec![
                "trace".into(),
                file("n4.6.json", r#"{"protocol":"pbft","n":4.6}"#),
            ],
            2,
            "bad \"n\": expected an unsigned integer",
        ),
        (
            vec![
                "trace".into(),
                file("cap.json", r#"{"protocol":"pbft","time_cap_secs":1e30}"#),
            ],
            2,
            "bad \"time_cap_secs\"",
        ),
        (
            vec![
                "trace".into(),
                file(
                    "twice.json",
                    r#"{"protocol":"pbft","n":4,"seed":1,"seed":2,"n":7}"#,
                ),
            ],
            2,
            "duplicate field \"seed\"",
        ),
        (
            vec![
                "trace".into(),
                file(
                    "inverted.json",
                    r#"{"protocol":"pbft","partition":{"start_ms":10,"end_ms":5,"drop":true}}"#,
                ),
            ],
            2,
            "bad \"partition\": partition resolves at 5 ms, before it starts at 10 ms",
        ),
        // λ = 0 reached the engine and failed as a run error (exit 1).
        (
            vec![
                "trace".into(),
                file(
                    "lambda0.json",
                    r#"{"protocol":"pbft","n":4,"lambda_micros":0}"#,
                ),
            ],
            2,
            "bad \"lambda_micros\": must be positive",
        ),
        (
            vec![
                "repro".into(),
                file(
                    "lambda0-repro.json",
                    r#"{"format": "bft-sim-repro-v1", "oracle": "termination", "detail": "x",
                      "scenario": {"protocol": "pbft", "n": 4, "lambda_micros": 0}}"#,
                ),
            ],
            4,
            "bad \"lambda_micros\": must be positive",
        ),
        (
            vec![
                "run".into(),
                "--config".into(),
                file("config.json", r#"{"protocol": "pbft", "n": 16.5}"#),
            ],
            2,
            "bad \"n\"",
        ),
        // A cap at the clock's ceiling was never passed: event times
        // saturate there, and each of these ran forever.
        (
            vec!["trace".into(), ceiling.clone()],
            2,
            "bad \"time_cap_secs\": 18446744073709551615 s reaches the clock's ceiling",
        ),
        (
            vec!["run".into(), "--config".into(), ceiling.clone()],
            2,
            "bad \"time_cap_secs\": 18446744073709551615 s reaches the clock's ceiling",
        ),
        (
            vec![
                "repro".into(),
                file(
                    "ceiling-repro.json",
                    &format!(
                        r#"{{"format": "bft-sim-repro-v1", "oracle": "termination",
                          "detail": "x", "scenario": {ceiling_scenario}}}"#
                    ),
                ),
            ],
            4,
            "bad \"time_cap_secs\": 18446744073709551615 s reaches the clock's ceiling",
        ),
        (
            vec![
                "campaign".into(),
                "run".into(),
                file("nodes1.json", &manifest("[1]", "")),
            ],
            4,
            "n = 3f + 1",
        ),
        (
            vec![
                "campaign".into(),
                "run".into(),
                file("nodes4.4.json", &manifest("[4.4]", r#", "max_actions": 9"#)),
            ],
            4,
            "duplicate field \"max_actions\"",
        ),
        (
            vec![
                "campaign".into(),
                "run".into(),
                file("nodes4.4-once.json", &manifest("[4.4]", "")),
            ],
            4,
            "bad \"nodes\": entry #0: expected an unsigned integer",
        ),
        (
            vec!["campaign".into(), "merge".into(), good_manifest, journal],
            4,
            "line 1: journal header: bad \"shard.index\": 4294967296 exceeds the u32 range",
        ),
        (
            vec!["repro".into(), file("drop-past-n.json", &dropped_past_n)],
            4,
            "fault_actions: entry #2: targeted drop \"dst\" 99 is not a node of the n = 7 scenario",
        ),
        (
            vec![
                "repro".into(),
                file(
                    "schedule.json",
                    &repro(r#", "schedule": {"fates": ["Drop"]}"#),
                ),
            ],
            4,
            "repro: unknown field \"schedule\"",
        ),
        (
            vec!["repro".into(), file("deep.json", &"[".repeat(200_000))],
            4,
            "nesting deeper than 128",
        ),
        (
            vec![
                "repro".into(),
                file(
                    "wide-dst.json",
                    &repro(
                        r#", "fault_actions": [{"index": 0,
                            "kind": {"TargetedDrop": {"dst": 4294967298}}}]"#,
                    ),
                ),
            ],
            4,
            "bad \"dst\": 4294967298 exceeds the u32 range",
        ),
        (
            vec![
                "repro".into(),
                file(
                    "inverted-repro.json",
                    r#"{"format": "bft-sim-repro-v1", "oracle": "termination", "detail": "x",
                      "scenario": {"protocol": "pbft", "n": 4,
                        "partition": {"start_ms": 10, "end_ms": 5, "drop": false}}}"#,
                ),
            ],
            4,
            "partition resolves at 5 ms, before it starts at 10 ms",
        ),
        // A net block that cannot build was a run error (exit 1).
        (
            vec![
                "trace".into(),
                file(
                    "crashes.json",
                    r#"{"protocol": "pbft", "net": {"topology": "full_mesh", "churn":
                      {"seed": 1, "crashes": 1099511627776, "min_down_ms": 1, "max_down_ms": 2}}}"#,
                ),
            ],
            2,
            "churn crash count 1099511627776 exceeds the maximum of 4096",
        ),
        (
            vec![
                "repro".into(),
                file(
                    "bw0-repro.json",
                    r#"{"format": "bft-sim-repro-v1", "oracle": "termination", "detail": "x",
                      "scenario": {"protocol": "pbft", "n": 4,
                        "net": {"topology": "ring", "bandwidth": 0}}}"#,
                ),
            ],
            4,
            "bandwidth must be positive",
        ),
        (
            vec![
                "campaign".into(),
                "run".into(),
                file(
                    "empty-down.json",
                    &manifest("[4]", "").replace(r#"["none"]"#, r#"["full_mesh:churn=1,2,5,5"]"#),
                ),
            ],
            4,
            "churn down-time range is empty",
        ),
        // A link-level net at 10⁵ nodes asked for two n × n link tables
        // (480 GB) and aborted (134), at each door a node count comes in by.
        (
            vec![
                "trace".into(),
                file(
                    "big.json",
                    r#"{"protocol": "hotstuff-ns", "n": 100000, "net": {"topology": "full_mesh"}}"#,
                ),
            ],
            2,
            "a link-level net holds at most 2048 nodes, got 100000",
        ),
        (
            ["fuzz", "--seeds", "0..1", "--n", "100000", "--protocols", "hotstuff-ns"]
                .map(String::from)
                .to_vec(),
            2,
            "--n: invalid configuration: a link-level net holds at most 2048 nodes",
        ),
        (
            [
                "fuzz",
                "--seeds",
                "0..1",
                "--n",
                "100000",
                "--protocols",
                "hotstuff-ns",
                "--net-preset",
                "full_mesh",
            ]
            .map(String::from)
            .to_vec(),
            2,
            "--n: invalid configuration: a link-level net holds at most 2048 nodes",
        ),
        (
            vec![
                "campaign".into(),
                "run".into(),
                file(
                    "big-manifest.json",
                    &manifest("[100000]", "").replace(r#"["none"]"#, r#"["full_mesh"]"#),
                ),
            ],
            4,
            "manifest: net \"full_mesh\": invalid configuration: a link-level net holds at most 2048 nodes, got 100000",
        ),
    ];
    for (args, code, needle) in cases {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = bft_sim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "bft-sim {args:?}\n{stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.starts_with("error: "), "bft-sim {args:?}: {first}");
        assert!(first.contains(needle), "bft-sim {args:?}: {first}");
        assert!(
            !stderr.contains("panicked at"),
            "bft-sim {args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `SimTime::from_millis` multiplied unchecked: a partition ending one
/// millisecond past the last representable instant wrapped to a window that
/// had already closed, and the run saw no partition at all. Later than
/// representable is "never", as the last representable instant is.
#[test]
fn a_partition_past_the_end_of_time_never_resolves() {
    let run = |end: &str| {
        let attack = format!("partition:0:{end}");
        let out = bft_sim(&[
            "run",
            "--protocol",
            "pbft",
            "--nodes",
            "4",
            "--attack",
            &attack,
            "--json",
        ]);
        assert_eq!(out.status.code(), Some(0), "end {end}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let wrapped = run("18446744073709552");
    let last = run("18446744073709551");
    assert_eq!(wrapped, last);
    assert!(last.contains(r#""timeout_rate": 1"#), "{last}");
}

/// `cursor + checkpoint_every` was added unchecked: the largest interval a
/// manifest can state, resumed from a journal that already holds a unit,
/// wrapped to a batch ending before it started (a slice panic, 101). The
/// resumed run must finish, and `status` must see both of its batches.
#[test]
fn the_largest_checkpoint_interval_resumes() {
    use bft_sim_core::campaign::{Batch, JournalHeader, JournalWriter, UnitOutcome, UnitRecord};

    let dir = scratch("interval");
    let manifest = dir.join("m.json");
    std::fs::write(
        &manifest,
        r#"{"format": "bft-sim-campaign-v1", "protocols": ["pbft"], "nodes": [4],
          "delays": ["constant"], "nets": ["none"], "attacks": [0],
          "seeds": {"lo": 0, "hi": 3}, "checkpoint_every": 18446744073709551615,
          "max_actions": 8}"#,
    )
    .expect("write manifest");
    let manifest = manifest.to_str().unwrap();
    let journal = dir.join("ck.json");
    let header = JournalHeader {
        manifest_hash: bft_sim_cli::load_manifest(manifest).unwrap().hash(),
        shard: (0, 1),
        assigned: 3,
    };
    let first = UnitRecord {
        index: 0,
        outcome: UnitOutcome::Clean,
        events: 24,
        decisions: 1,
        honest_messages: 33,
        latency_micros: Some(300_000),
    };
    let mut writer = JournalWriter::create(&journal, &header).unwrap();
    let batch = Batch {
        records: vec![first],
        ..Batch::default()
    };
    writer.append(&batch).unwrap();
    let journal = journal.to_str().unwrap();
    let out = dir.join("repros");
    let run = ["campaign", "run", manifest, "--checkpoint", journal];
    let resume = ["--resume", "--out", out.to_str().unwrap()];
    assert_code(&[run.as_slice(), &resume].concat(), 0);

    let status = bft_sim(&["campaign", "status", journal, "--json"]);
    assert_eq!(status.status.code(), Some(0));
    let status: String = String::from_utf8_lossy(&status.stdout)
        .split_whitespace()
        .collect();
    assert_eq!(
        status,
        r#"{"done":3,"assigned":3,"clean":3,"violated":0,"panicked":0,"lines":2,"torn_tail":false}"#
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A fuzz sweep that finds violations must exit 3 — distinct from both the
/// repro-file class (4) and a panic (101). Needs the seeded bug, so this
/// case only runs under `--features testbug`.
#[cfg(feature = "testbug")]
#[test]
fn oracle_violations_exit_three() {
    let dir = scratch("fuzz");
    let out_dir = dir.join("repros");
    let out = bft_sim(&[
        "fuzz",
        "--seeds",
        "3",
        "--protocols",
        "pbft",
        "--inject-bug",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A figure run is a file: Fig. 7's PBFT crash = 5 cell, written by
/// `ScenarioSpec::to_json`, opens with `bft-sim trace`, and reruns with
/// `run --config`, whose file is a scenario file, to the figure's own mean
/// latency; `compare` runs it under every protocol.
#[test]
fn a_figure_run_traces_from_its_file() {
    use bft_simulator::experiments::{figures, paper_spec};
    use bft_simulator::prelude::*;

    let spec = ScenarioSpec {
        seed: figures::seed(7),
        delay: DelaySpec::Normal {
            mean_micros: 1_000_000,
            std_micros: 300_000,
        },
        attack: Some(AttackSpec::FailStopLast { k: 5 }),
        time_cap_secs: 900,
        ..paper_spec(ProtocolKind::Pbft, figures::N)
    };
    let dir = scratch("figure-run");
    let path = dir.join("fig7-pbft-crash5.json");
    std::fs::write(&path, spec.to_json().dump_pretty()).expect("write spec");
    let path = path.to_str().unwrap();
    let out = bft_sim(&["trace", path, "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.contains(r#""FailStopLast""#), "{doc}");

    let out = bft_sim(&["run", "--config", path, "--reps", "3", "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let points = figures::fig7(figures::N, 3, figures::seed(7), &[5]);
    let pbft = points
        .iter()
        .find(|p| p.protocol == ProtocolKind::Pbft)
        .expect("the figure has PBFT's point");
    let mean = bft_sim_core::json::Json::from(pbft.latency.mean).dump();
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains(&format!(r#""latency_mean_s": {mean},"#)),
        "{mean}: {report}"
    );
    assert_code(&["compare", "--config", path, "--reps", "1"], 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Output that a closed pipe refuses is dropped, not a panic: with its
/// reader gone before it writes, each command exits with its own code (both
/// exited 101).
#[test]
fn a_closed_pipe_keeps_the_exit_code() {
    use std::process::{Command, Stdio};

    let spawn = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bft-sim"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("bft-sim binary spawns")
    };
    let mut trace = spawn(&["trace", "pbft"]);
    drop(trace.stdout.take());
    let out = trace.wait_with_output().expect("trace runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!((out.status.code(), stderr.as_ref()), (Some(0), ""));

    let mut fuzz = spawn(&["fuzz", "--n", "3"]);
    drop(fuzz.stderr.take());
    let out = fuzz.wait_with_output().expect("fuzz runs");
    assert_eq!(out.status.code(), Some(2));
}
