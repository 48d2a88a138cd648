//! Regenerates Table II (A3 resource utilization).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Table2);
}
