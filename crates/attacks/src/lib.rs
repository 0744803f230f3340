//! # bft-sim-attacks
//!
//! Attack implementations for the BFT simulator's global-adversary model
//! (the paper's Table II plus fail-stop):
//!
//! | Attack | Capability | Module |
//! |---|---|---|
//! | Fail-stop | crash | `fail_stop` |
//! | Network partition | packet filtering | `partition` |
//! | ADD+ static attack | static corruption | `add_attacks` |
//! | ADD+ adaptive attack | rushing + adaptive corruption | `add_attacks` |
//! | Equivocation (extension) | corruption + injection | `equivocation` |
//! | Slow primary (extension) | targeted delay | `slow_primary` |
//! | Randomized fuzzing (extension) | seeded drop + delay + replay | `randomized` |
//!
//! Because every message traverses the attacker module before delivery, all
//! attacks here are rushing-capable by construction; the adaptive attack
//! additionally corrupts nodes mid-run within the fault budget `f`.

pub(crate) mod add_attacks;
pub(crate) mod equivocation;
pub(crate) mod fail_stop;
pub(crate) mod partition;
pub(crate) mod randomized;
pub(crate) mod slow_primary;

pub use add_attacks::{AddAdaptiveRushingAttack, AddStaticAttack};
pub use equivocation::EquivocationAttack;
pub use fail_stop::FailStop;
pub use partition::{CrossTraffic, PartitionAttack};
pub use randomized::{
    actions_from_json, actions_to_json, FuzzAction, FuzzActionKind, FuzzBudget, RandomizedAdversary,
};
pub use slow_primary::SlowPrimary;
