//! Run configuration.

use crate::error::SimError;
use crate::time::SimDuration;
use crate::trace::TraceLevel;

/// Configuration of a single simulation run — the Rust analogue of the
/// paper's user-supplied configuration file (§III-A1).
///
/// Construct with [`RunConfig::new`] and customise with the builder-style
/// setters:
///
/// ```
/// use bft_sim_core::config::RunConfig;
/// use bft_sim_core::time::SimDuration;
///
/// let cfg = RunConfig::new(16)
///     .with_seed(42)
///     .with_lambda(SimDuration::from_millis(1000.0))
///     .with_target_decisions(10);
/// assert_eq!(cfg.n, 16);
/// assert_eq!(cfg.f, 5); // floor((16 - 1) / 3)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Total number of nodes `n`.
    pub n: usize,
    /// Fault budget `f`: the maximum number of nodes the adversary may
    /// corrupt. Defaults to `floor((n - 1) / 3)`, the partially-synchronous
    /// optimum; synchronous protocols may raise it to `floor((n - 1) / 2)`.
    pub f: usize,
    /// RNG seed; same seed + same config ⇒ identical run.
    pub seed: u64,
    /// The protocol's estimated network-delay upper bound λ (the paper's
    /// timeout parameter, §IV). Defaults to 1000 ms.
    pub lambda: SimDuration,
    /// Number of consensus decisions after which the run stops. `1` for
    /// single-shot protocols; the paper uses `10` for the pipelined
    /// HotStuff+NS and LibraBFT.
    pub target_decisions: u64,
    /// Hard cap on simulated time; a run that reaches it is reported as a
    /// liveness timeout rather than looping forever. Defaults to 1 hour of
    /// simulated time. It must lie below the clock's ceiling,
    /// [`SimDuration::MAX`]: event times saturate there, so a timer re-armed
    /// at the ceiling lands at the same instant and a run would never pass
    /// a cap set at it.
    pub time_cap: SimDuration,
    /// What the run's trace keeps. Defaults to [`TraceLevel::Decisions`],
    /// all the oracles and the validator read; Fig. 9 and the protocol
    /// tests ask for [`TraceLevel::Events`], and a failed run is run again at
    /// [`TraceLevel::Messages`] for its last events.
    pub trace: TraceLevel,
}

impl RunConfig {
    /// Creates a configuration for `n` nodes with default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a simulation needs at least one node");
        RunConfig {
            n,
            f: (n.saturating_sub(1)) / 3,
            seed: 0,
            lambda: SimDuration::from_millis(1000.0),
            target_decisions: 1,
            time_cap: SimDuration::from_secs(3600.0),
            trace: TraceLevel::Decisions,
        }
    }

    /// Sets the fault budget `f`.
    pub fn with_f(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the timeout parameter λ.
    pub fn with_lambda(mut self, lambda: SimDuration) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets λ from milliseconds.
    pub fn with_lambda_ms(mut self, ms: f64) -> Self {
        self.lambda = SimDuration::from_millis(ms);
        self
    }

    /// Sets the number of decisions to run for.
    pub fn with_target_decisions(mut self, k: u64) -> Self {
        self.target_decisions = k;
        self
    }

    /// Sets the simulated-time cap.
    pub fn with_time_cap(mut self, cap: SimDuration) -> Self {
        self.time_cap = cap;
        self
    }

    /// Sets what the run's trace keeps.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `n` is zero or not
    /// representable as a `u32` node id, `f >= n`, no decisions are
    /// requested, λ is zero, or the time cap is the clock's ceiling.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if self.n == 0 {
            return Err(SimError::invalid_config("n must be positive"));
        }
        if self.n > u32::MAX as usize {
            return Err(SimError::invalid_config(format!(
                "n={} exceeds the maximum node count {}",
                self.n,
                u32::MAX
            )));
        }
        if self.f >= self.n {
            return Err(SimError::invalid_config(format!(
                "fault budget f={} must be smaller than n={}",
                self.f, self.n
            )));
        }
        if self.target_decisions == 0 {
            return Err(SimError::invalid_config(
                "target_decisions must be at least 1",
            ));
        }
        if self.lambda == SimDuration::ZERO {
            return Err(SimError::invalid_config("lambda must be positive"));
        }
        if self.time_cap == SimDuration::MAX {
            return Err(SimError::invalid_config(
                "time_cap must lie below the clock's ceiling",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let cfg = RunConfig::new(16);
        assert_eq!(cfg.f, 5);
        assert_eq!(cfg.target_decisions, 1);
        assert_eq!(cfg.lambda, SimDuration::from_millis(1000.0));
        assert_eq!(cfg.trace, TraceLevel::Decisions);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn classic_sizes_follow_three_f_plus_one() {
        assert_eq!(RunConfig::new(4).f, 1);
        assert_eq!(RunConfig::new(7).f, 2);
        assert_eq!(RunConfig::new(10).f, 3);
        assert_eq!(RunConfig::new(512).f, 170);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(RunConfig::new(4).with_f(4).validate().is_err());
        assert!(RunConfig::new(4)
            .with_target_decisions(0)
            .validate()
            .is_err());
        assert!(RunConfig::new(4)
            .with_lambda(SimDuration::ZERO)
            .validate()
            .is_err());
    }

    /// Event times saturate at the clock's ceiling, so a run capped there
    /// would never pass its cap; one microsecond below it is a cap.
    #[test]
    fn the_time_cap_lies_below_the_clocks_ceiling() {
        let capped = |cap| RunConfig::new(4).with_time_cap(cap).validate();
        assert!(matches!(
            capped(SimDuration::MAX),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(capped(SimDuration::from_micros(u64::MAX - 1)).is_ok());
    }

    #[test]
    fn validation_rejects_unrepresentable_node_counts() {
        if usize::BITS > 32 {
            let cfg = RunConfig::new(u32::MAX as usize + 1);
            assert!(matches!(cfg.validate(), Err(SimError::InvalidConfig(_))));
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = RunConfig::new(0);
    }

    #[test]
    fn builder_chains() {
        let cfg = RunConfig::new(7)
            .with_f(3)
            .with_seed(9)
            .with_lambda_ms(150.0)
            .with_target_decisions(10)
            .with_time_cap(SimDuration::from_secs(100.0))
            .with_trace(TraceLevel::Messages);
        assert_eq!(cfg.f, 3);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.lambda.as_millis_f64(), 150.0);
        assert_eq!(cfg.target_decisions, 10);
        assert_eq!(cfg.trace, TraceLevel::Messages);
    }
}
