//! Regenerates Figure 8 (A3 floorplan on the U200).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Fig8);
}
