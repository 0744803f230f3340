//! Compare all eight BFT protocols under two network environments — a
//! miniature of the paper's Fig. 3 (latency and message usage per decision).
//!
//! ```text
//! cargo run --release --example compare_protocols
//! ```

use bft_simulator::experiments::figures::Point;
use bft_simulator::experiments::{paper_spec, repeat};
use bft_simulator::prelude::*;

fn main() {
    let reps = 10;
    let normal = |mean_ms: u64, std_ms: u64| DelaySpec::Normal {
        mean_micros: mean_ms * 1000,
        std_micros: std_ms * 1000,
    };
    let environments = [
        ("fast & stable   N(250,50)", normal(250, 50)),
        ("slow & unstable N(1000,1000)", normal(1000, 1000)),
    ];

    for (label, delay) in environments {
        println!("== {label}, lambda = 1000 ms, {reps} repetitions ==");
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>14}",
            "protocol", "latency (s)", "±sd", "median", "msgs/decision"
        );
        for kind in ProtocolKind::all() {
            let spec = ScenarioSpec {
                delay,
                ..paper_spec(kind, 16)
            };
            let results = repeat(&spec, reps, 1000).expect("spec builds");
            let point = Point::of(&spec, &results, "").expect("every repetition is safe");
            // A capped run is a censored sample: it counts at its lower bound
            // in the mean and hides any quartile it touches.
            let (lat, msg) = (point.latency, point.messages);
            let median = lat.median.map_or("capped".into(), |m| format!("{m:.3}"));
            println!(
                "{:<14} {:>12.3} {:>12.3} {median:>12} {:>14.1}",
                kind.name(),
                lat.mean,
                lat.std_dev,
                msg.mean
            );
        }
        println!();
    }
    println!("(HotStuff+NS should be fastest and cheapest in messages at N(250,50), as in Fig. 3;");
    println!(" at N(1000,1000) its capped runs lift its mean above its median.)");
}
