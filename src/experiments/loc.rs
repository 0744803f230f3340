//! Lines-of-code accounting for Tables I and II.
//!
//! The paper reports implementation size to argue the simulator makes
//! protocols and attacks cheap to express. We embed the workspace's own
//! protocol and attack sources at compile time and count *implementation*
//! lines: non-blank, non-comment lines above the `#[cfg(test)]` marker.

/// Counts implementation lines in a module source: non-blank, non-comment
/// lines, stopping at the unit-test section.
pub(crate) fn implementation_loc(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|line| {
            let t = line.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolLoc {
    /// Protocol name.
    pub name: &'static str,
    /// Its network-model assumption.
    pub network: &'static str,
    /// Implementation lines of code.
    pub loc: usize,
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackLoc {
    /// Attack name.
    pub name: &'static str,
    /// Attacker capability, as in the paper's Table II.
    pub capability: &'static str,
    /// Implementation lines of code.
    pub loc: usize,
}

/// Table I: LoC of each implemented protocol. The ADD+ variants share the
/// lock-step machine, so each variant is charged its wrapper plus the
/// machine (mirroring that the paper's three variants each carry the full
/// protocol); HotStuff+NS and LibraBFT share the chained core the same way,
/// and each is charged its pacemaker plus the core.
pub fn table1() -> Vec<ProtocolLoc> {
    let add_machine = implementation_loc(include_str!("../../crates/protocols/src/add/machine.rs"));
    let chain = implementation_loc(include_str!("../../crates/protocols/src/chain.rs"));
    vec![
        ProtocolLoc {
            name: "add-v1",
            network: "synchronous",
            loc: add_machine
                + implementation_loc(include_str!("../../crates/protocols/src/add/v1.rs")),
        },
        ProtocolLoc {
            name: "add-v2",
            network: "synchronous",
            loc: add_machine
                + implementation_loc(include_str!("../../crates/protocols/src/add/v2.rs")),
        },
        ProtocolLoc {
            name: "add-v3",
            network: "synchronous",
            loc: add_machine
                + implementation_loc(include_str!("../../crates/protocols/src/add/v3.rs")),
        },
        ProtocolLoc {
            name: "algorand",
            network: "synchronous",
            loc: implementation_loc(include_str!("../../crates/protocols/src/algorand.rs")),
        },
        ProtocolLoc {
            name: "async-ba",
            network: "asynchronous",
            loc: implementation_loc(include_str!("../../crates/protocols/src/async_ba.rs")),
        },
        ProtocolLoc {
            name: "pbft",
            network: "partially-synchronous",
            loc: implementation_loc(include_str!("../../crates/protocols/src/pbft.rs")),
        },
        ProtocolLoc {
            name: "hotstuff-ns",
            network: "partially-synchronous",
            loc: chain + implementation_loc(include_str!("../../crates/protocols/src/hotstuff.rs")),
        },
        ProtocolLoc {
            name: "librabft",
            network: "partially-synchronous",
            loc: chain + implementation_loc(include_str!("../../crates/protocols/src/librabft.rs")),
        },
    ]
}

/// Table II: LoC of each implemented attack.
pub fn table2() -> Vec<AttackLoc> {
    let add_attacks = include_str!("../../crates/attacks/src/add_attacks.rs");
    // The two ADD+ attacks share a file; attribute lines by struct block.
    let (static_loc, adaptive_loc) = split_add_attacks(add_attacks);
    vec![
        AttackLoc {
            name: "network-partition",
            capability: "partition",
            loc: implementation_loc(include_str!("../../crates/attacks/src/partition.rs")),
        },
        AttackLoc {
            name: "fail-stop",
            capability: "crash",
            loc: implementation_loc(include_str!("../../crates/attacks/src/fail_stop.rs")),
        },
        AttackLoc {
            name: "add-static",
            capability: "static",
            loc: static_loc,
        },
        AttackLoc {
            name: "add-adaptive",
            capability: "rushing + adaptive",
            loc: adaptive_loc,
        },
    ]
}

/// Splits the shared `add_attacks.rs` by the adaptive attack's doc anchor.
fn split_add_attacks(source: &str) -> (usize, usize) {
    let marker = "Rushing adaptive attack";
    let split = source
        .lines()
        .position(|l| l.contains(marker))
        .unwrap_or(source.lines().count());
    let head: String = source.lines().take(split).collect::<Vec<_>>().join("\n");
    let tail: String = source.lines().skip(split).collect::<Vec<_>>().join("\n");
    (implementation_loc(&head), implementation_loc(&tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_skips_blanks_comments_and_tests() {
        let src = "fn a() {}\n\n// comment\nfn b() {}\n#[cfg(test)]\nmod tests { fn c() {} }\n";
        assert_eq!(implementation_loc(src), 2);
    }

    #[test]
    fn table1_has_eight_rows_of_plausible_size() {
        let t = table1();
        assert_eq!(t.len(), 8);
        for row in &t {
            assert!(
                row.loc > 50 && row.loc < 2000,
                "{}: implausible loc {}",
                row.name,
                row.loc
            );
        }
    }

    #[test]
    fn table2_attacks_are_compact() {
        let t = table2();
        assert_eq!(t.len(), 4);
        for row in &t {
            assert!(
                row.loc > 5 && row.loc < 400,
                "{}: attacks should be small, got {}",
                row.name,
                row.loc
            );
        }
    }
}
