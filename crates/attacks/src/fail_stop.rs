//! Fail-stop attack: the weakest Byzantine behaviour (§III-C).
//!
//! The paper simulates fail-stop nodes by "starting the system with n − f
//! honest nodes, with the total number set to n". Our global adversary
//! achieves the same effect by crashing a chosen set of nodes before the run
//! starts.

use bft_sim_core::adversary::{Adversary, AdversaryApi};
use bft_sim_core::ids::NodeId;

/// Crashes a fixed set of nodes at simulation start.
///
/// # Examples
///
/// ```
/// use bft_sim_attacks::FailStop;
///
/// // The paper's fail-stop setup: the last 3 of n nodes never participate.
/// let attack = FailStop::last_k(16, 3);
/// assert_eq!(attack.targets().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FailStop {
    targets: Vec<NodeId>,
}

impl FailStop {
    /// Crashes the *last* `k` of `n` nodes at start — leaves the low ids
    /// (which round-robin protocols use as early leaders) alive, so the
    /// measured slowdown isolates the quorum-thinning effect (Fig. 7).
    pub fn last_k(n: usize, k: usize) -> Self {
        let k = k.min(n);
        FailStop {
            targets: ((n - k)..n).map(|i| NodeId::new(i as u32)).collect(),
        }
    }

    /// The nodes this attack crashes.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }
}

impl Adversary for FailStop {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        for &node in &self.targets {
            // Budget-checked: silently stops crashing if f is exhausted.
            let _ = api.crash(node);
        }
    }

    fn name(&self) -> &'static str {
        "fail-stop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_k_picks_the_right_targets() {
        assert_eq!(
            FailStop::last_k(4, 2).targets(),
            &[NodeId::new(2), NodeId::new(3)]
        );
        assert_eq!(FailStop::last_k(3, 9).targets().len(), 3, "clamped to n");
    }
}
