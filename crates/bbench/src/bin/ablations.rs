//! Regenerates the design ablations (`results/ablations.txt`).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Ablations);
}
