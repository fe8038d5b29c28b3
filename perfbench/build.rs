//! Records the rustc flags the benchmark was built with, for the run
//! metadata (target-cpu and feature flags change kernel speed).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
