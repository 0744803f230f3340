//! The `bft-sim` binary: thin wrapper over the library in `lib.rs`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match bft_sim_cli::parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", bft_sim_cli::usage());
            std::process::exit(e.code);
        }
    };
    if let Err(e) = bft_sim_cli::execute(cmd) {
        eprintln!("error: {e}");
        std::process::exit(e.code);
    }
}
