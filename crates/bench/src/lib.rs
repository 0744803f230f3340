//! # bft-sim-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the
//! paper's evaluation. Each `cargo bench --bench figN_*` target prints the
//! corresponding data series; `engine_microbench` is a plain timing
//! micro-benchmark of the simulation engine itself.
//!
//! Shared table-printing helpers live here, together with the persistent
//! perf baseline ([`baseline`], driven by `bft-sim bench-baseline`) and the
//! allocation counter behind its allocations-per-broadcast metric
//! ([`alloc_counter`]).

pub mod alloc_counter;
pub mod baseline;

use bft_sim_core::metrics::Summary;
use bft_simulator::experiments::figures::Point;

/// Repetitions per configuration. The paper uses 100; override with the
/// `BFT_SIM_REPS` environment variable to trade precision for speed.
pub fn repetitions() -> usize {
    std::env::var("BFT_SIM_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// Default node count (the paper's evaluation default).
pub fn default_n() -> usize {
    std::env::var("BFT_SIM_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// Formats a mean ± sd summary with a unit.
pub fn fmt_summary(s: &Summary, unit: &str) -> String {
    if s.count == 0 {
        return "-".to_string();
    }
    format!("{:9.3} ± {:7.3} {unit}", s.mean, s.std_dev)
}

/// Prints a header banner for a harness.
pub fn banner(title: &str, detail: &str) {
    println!();
    println!("=== {title} ===");
    println!("{detail}");
    println!();
}

/// Prints a set of figure points as a latency table grouped by protocol.
pub fn print_latency_table(points: &[Point]) {
    println!(
        "{:<12} {:<16} {:>24} {:>24} {:>9}",
        "protocol", "x", "latency (s)", "msgs/decision", "timeouts"
    );
    for p in points {
        println!(
            "{:<12} {:<16} {:>24} {:>24} {:>8.0}%",
            p.protocol.name(),
            p.x,
            fmt_summary(&p.latency, "s"),
            fmt_summary(&p.messages, ""),
            p.timeout_rate * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_handles_empty_summaries() {
        assert_eq!(fmt_summary(&Summary::default(), "s"), "-");
        let s = Summary::of(&[1.0, 2.0]);
        assert!(fmt_summary(&s, "s").contains("1.500"));
    }
}
