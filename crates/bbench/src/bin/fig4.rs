//! Regenerates Figure 4 (memcpy bandwidth by methodology).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Fig4);
}
