//! Regenerates Table III (attention throughput and energy).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Table3);
}
