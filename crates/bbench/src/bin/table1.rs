//! Regenerates Table I (MachSuite benchmark selection).

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Table1);
}
