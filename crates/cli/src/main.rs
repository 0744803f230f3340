//! The `bft-sim` binary: thin wrapper over the library in `lib.rs`.

use std::io::Write;

/// Reports `e` on stderr, dropping write errors as the library's output
/// does (a closed stderr must not turn the exit code into a panic's), and
/// exits with its code.
fn fail(e: bft_sim_cli::CliError, usage: bool) -> ! {
    let mut stderr = std::io::stderr().lock();
    let _ = writeln!(stderr, "error: {e}");
    if usage {
        let _ = writeln!(stderr, "\n{}", bft_sim_cli::usage());
    }
    std::process::exit(e.code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = bft_sim_cli::parse_args(&args).unwrap_or_else(|e| fail(e, true));
    if let Err(e) = bft_sim_cli::execute(cmd) {
        fail(e, false);
    }
}
