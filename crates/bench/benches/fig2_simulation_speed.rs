//! Fig. 2: wall time to simulate PBFT, λ = 1000 ms, N(250, 50), printed
//! beside what the paper prints for its simulator and BFTSim
//! (`figures::fig2_paper_column`).

use bft_sim_bench::{banner, fmt_summary};
use bft_simulator::experiments::figures::{fig2, fig2_paper_column};

fn main() {
    banner(
        "Fig. 2 — simulation speed & scale",
        "PBFT, lambda = 1000 ms, delays N(250, 50); wall-clock per run",
    );
    let reps: usize = std::env::var("BFT_SIM_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let sizes = [4, 8, 16, 32, 64, 128, 256, 512];
    let rows = fig2(&sizes, reps, 0xF162);

    println!("{:<6} {:>24} {:>12}   paper", "n", "ours (wall)", "events");
    for row in &rows {
        println!(
            "{:<6} {:>24} {:>12}   {}",
            row.n,
            fmt_summary(&row.wall_ms, "ms"),
            row.events,
            fig2_paper_column(row.n)
        );
    }
}
