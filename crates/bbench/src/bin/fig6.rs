//! Regenerates Figure 6 (MachSuite speedups over Vitis HLS).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Fig6);
}
