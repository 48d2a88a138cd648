//! Regenerates Figure 7 (A3 core structure and pipeline rate).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Fig7);
}
