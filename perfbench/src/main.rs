//! Closed-loop benchmark of the MEPipe training step and planner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fine_uds|coarse_inproc|plan_fig8> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. One client thread issues each
//! operation after the previous one returns. An untraced run prints the
//! end-to-end metrics; a traced run prints the per-layer metrics, timed
//! from outside each crate through its public functions. The last line
//! of standard output is the JSON result; the exit code is non-zero when
//! an output check failed or an operation failed.

mod layers;
mod meta;
mod plan;
mod probe;
mod report;
mod stats;
mod train;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Run state kept in the working directory: socket files and the
/// per-seed loss records that later runs compare against.
const STATE_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload <fine_uds|coarse_inproc|plan_fig8> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// A value from `seed` and a stream index (SplitMix64), so every input
/// the workloads draw is fixed by the seed alone.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        traced: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    println!(
        "meta {}",
        meta::describe(&args.workload, args.seed, args.seconds, args.traced)
    );
    let mut r = Report::default();
    match args.workload.as_str() {
        "fine_uds" => train::run(&train::fine_uds(), args.seed, seconds, args.traced, &mut r),
        "coarse_inproc" => train::run(
            &train::coarse_inproc(),
            args.seed,
            seconds,
            args.traced,
            &mut r,
        ),
        "plan_fig8" => plan::run(args.seed, seconds, args.traced, &mut r),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if !args.traced && !r.has_end_to_end() {
        // Nothing was measured (every set-up failed): no result line.
        for (name, ok) in &r.checks {
            eprintln!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        return ExitCode::FAILURE;
    }
    if r.print(args.traced) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
