//! Allocation bisection probe: runs one protocol config under a
//! size-histogram allocator so steady-state allocation sources can be
//! identified by their exact size class. It also prints the process's peak
//! resident set (`VmHWM`, Linux only) and what the run's trace holds, which
//! are the rows of EXPERIMENTS.md's scaling table.
//!
//! ```text
//! cargo run --release -p bft-sim-bench --example alloc_probe -- hotstuff-ns 64 20
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::time::SimDuration;
use bft_sim_protocols::registry::ProtocolKind;

const BUCKETS: usize = 4096;

static RECORDING: AtomicBool = AtomicBool::new(false);
static SIZES: [AtomicU64; BUCKETS] = [const { AtomicU64::new(0) }; BUCKETS];
static TOTAL: AtomicU64 = AtomicU64::new(0);

struct Probe;
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if RECORDING.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            SIZES[layout.size().min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if RECORDING.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            SIZES[new_size.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Probe = Probe;

fn main() {
    let mut args = std::env::args().skip(1);
    let kind = args
        .next()
        .as_deref()
        .and_then(ProtocolKind::parse)
        .unwrap_or(ProtocolKind::HotStuffNs);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let decisions: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);

    let cfg = kind
        .configure(
            RunConfig::new(n)
                .with_seed(1)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(3600.0)),
        )
        .with_target_decisions(decisions);
    let factory = kind.factory(&cfg, 7);
    let sim = SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(factory)
        .build()
        .unwrap();
    RECORDING.store(true, Ordering::SeqCst);
    let result = sim.run();
    RECORDING.store(false, Ordering::SeqCst);

    println!(
        "{} n={n} d={decisions}: allocs={} events={} broadcasts={}",
        kind.name(),
        TOTAL.load(Ordering::Relaxed),
        result.events_processed,
        result.broadcasts,
    );
    println!(
        "  peak_rss_kb={} peak_queue={} trace_events={} trace_bytes={}",
        peak_rss_kb().map_or("n/a".to_string(), |kb| kb.to_string()),
        result.queue_high_water,
        result.trace.len(),
        result.trace.heap_bytes(),
    );
    for (sz, c) in SIZES.iter().enumerate() {
        let c = c.load(Ordering::Relaxed);
        if c > 0 {
            let tail = if sz == BUCKETS - 1 { "+" } else { "" };
            println!("  size {sz:>5}{tail}: {c}");
        }
    }
}

/// The `VmHWM` line of `/proc/self/status`, in kB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
