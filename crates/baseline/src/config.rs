//! Baseline simulator configuration.

use bft_sim_core::dist::Dist;
use bft_sim_core::time::SimDuration;

/// Configuration of a packet-level baseline run.
///
/// The defaults mirror BFTSim's cost profile as reported in the paper's
/// Fig. 2: per-packet events at the physical/link layer, modelled crypto
/// time per message, and a memory footprint that grows with `n²` and runs
/// out just above 32 nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Number of nodes.
    pub n: usize,
    /// Fault budget (for quorum sizes of the hosted protocol).
    pub f: usize,
    /// RNG seed.
    pub(crate) seed: u64,
    /// Protocol timeout parameter λ.
    pub(crate) lambda: SimDuration,
    /// Decisions to run for.
    pub(crate) target_decisions: u64,
    /// Simulated-time cap.
    pub(crate) time_cap: SimDuration,
    /// End-to-end message-delay distribution (ms); matched to the
    /// event-level simulator so both produce comparable protocol behaviour.
    pub(crate) delay: Dist,
    /// Bytes of an application-level protocol message on the wire.
    pub(crate) message_bytes: usize,
    /// Link MTU: messages fragment into `ceil(message_bytes / mtu)` packets.
    pub(crate) mtu: usize,
    /// Modelled per-message signature-verification time (µs of simulated
    /// CPU, serialising each node's packet processing).
    pub(crate) crypto_us: u64,
    /// Modelled memory budget in bytes; exceeding it aborts the run with
    /// [`BaselineError::OutOfMemory`](crate::sim::BaselineError::OutOfMemory),
    /// reproducing BFTSim's behaviour beyond 32 nodes.
    pub(crate) memory_budget: u64,
    /// Modelled per-connection buffer bytes (each of the `n²` ordered node
    /// pairs holds one).
    pub(crate) per_connection_buffer: u64,
    /// Number of declarative (P2-style) rules interpreted per event. BFTSim
    /// expresses protocol logic in the P2 language, whose interpreter
    /// evaluates its rule table on every event; this models that cost.
    pub(crate) p2_rules: usize,
}

impl BaselineConfig {
    /// Defaults matched to the paper's Fig. 2 setting: λ = 1000 ms,
    /// delays N(250, 50), and a 2 GiB memory model that out-of-memories
    /// just above 32 nodes (32² × 2 MiB = 2 GiB).
    pub fn new(n: usize) -> Self {
        BaselineConfig {
            n,
            f: (n.saturating_sub(1)) / 3,
            seed: 0,
            lambda: SimDuration::from_millis(1000.0),
            target_decisions: 1,
            time_cap: SimDuration::from_secs(600.0),
            delay: Dist::normal(250.0, 50.0),
            message_bytes: 4096,
            mtu: 1500,
            crypto_us: 500,
            // 2 GiB plus headroom for in-flight packets: 32 nodes fit
            // (32² × 2 MiB = 2 GiB), 33 nodes (≈ 2.13 GiB) do not.
            memory_budget: (2 << 30) + (64 << 20),
            per_connection_buffer: 2 << 20,
            p2_rules: 12288,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the delay distribution.
    pub fn with_delay(mut self, delay: Dist) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the decision target.
    pub fn with_target_decisions(mut self, k: u64) -> Self {
        self.target_decisions = k;
        self
    }

    /// Packets per protocol message under the configured MTU.
    pub(crate) fn packets_per_message(&self) -> usize {
        self.message_bytes.div_ceil(self.mtu).max(1)
    }

    /// The modelled steady-state memory footprint for `n` nodes.
    pub(crate) fn modeled_base_bytes(&self) -> u64 {
        (self.n as u64) * (self.n as u64) * self.per_connection_buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmentation() {
        let cfg = BaselineConfig::new(4);
        assert_eq!(cfg.packets_per_message(), 3); // 4096 / 1500
        let one = BaselineConfig {
            message_bytes: 100,
            p2_rules: 0,
            ..BaselineConfig::new(4)
        };
        assert_eq!(one.packets_per_message(), 1);
    }

    #[test]
    fn memory_model_ooms_just_above_32_nodes() {
        let ok = BaselineConfig::new(32);
        assert!(ok.modeled_base_bytes() <= ok.memory_budget);
        let too_big = BaselineConfig::new(33);
        assert!(too_big.modeled_base_bytes() > too_big.memory_budget);
    }
}
