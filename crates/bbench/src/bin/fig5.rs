//! Regenerates Figure 5 (AXI transaction timelines, 4 KiB memcpy) and
//! writes the three panels' `fig5_*.vcd` waveforms into the current
//! directory.

fn main() {
    bbench::artifact::main(bbench::artifact::Artifact::Fig5);
    match bbench::fig5::write_vcds(std::path::Path::new(".")) {
        Ok(paths) => {
            for p in paths {
                eprintln!("wrote waveform {}", p.display());
            }
        }
        Err(e) => eprintln!("could not write VCD waveforms: {e}"),
    }
}
