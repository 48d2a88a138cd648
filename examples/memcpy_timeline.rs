//! Memory-system deep dive: why Beethoven's transaction-level parallelism
//! beats same-ID HLS output (the paper's §III-A).
//!
//! Runs the same 4 KiB copy under three transaction-shaping disciplines
//! and prints their AXI timelines and a bandwidth sweep.
//!
//! ```text
//! cargo run --release --example memcpy_timeline
//! ```

use beethoven::kernels::memcpy::{run_memcpy, run_memcpy_traced, MemcpyVariant};
use beethoven::sim::render_timeline;

fn main() {
    println!("== AXI timelines for a 4 KiB copy ==\n");
    for variant in [
        MemcpyVariant::Hls,
        MemcpyVariant::Beethoven16Beat,
        MemcpyVariant::PureHdl,
    ] {
        let result = run_memcpy_traced(variant, 4096);
        println!(
            "{} — {} cycles, {:.2} GB/s",
            variant.label(),
            result.cycles,
            result.gbps
        );
        println!(
            "{}",
            render_timeline(&result.trace, (result.cycles / 100).max(1), 100)
        );
    }

    println!("== Bandwidth sweep (GB/s copied) ==\n");
    let sizes = [4u64 << 10, 64 << 10, 1 << 20];
    print!("{:<22}", "variant");
    for s in sizes {
        print!("{:>10}KiB", s >> 10);
    }
    println!();
    for variant in MemcpyVariant::ALL {
        print!("{:<22}", variant.label());
        for size in sizes {
            print!("{:>13.2}", run_memcpy(variant, size).gbps);
        }
        println!();
    }
    println!("\nTakeaway: same-ID transactions serialize in the memory controller;");
    println!("striping across IDs (TLP) restores bank-level parallelism.");
}
