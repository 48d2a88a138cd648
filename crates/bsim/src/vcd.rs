//! VCD (Value Change Dump) waveform emission.
//!
//! The paper's simulation platform exists "for debugging and performance
//! prediction" (§II-D) — and hardware debugging means waveforms. This
//! module turns recorded signal changes into standard VCD text that any
//! waveform viewer (GTKWave, Surfer) opens directly.

use std::collections::BTreeMap;

use crate::time::Cycle;

/// A handle to one declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(usize);

#[derive(Debug)]
struct Signal {
    /// Hierarchical name, `/`-separated (`core0/vec_in/valid`).
    name: String,
    width: u32,
    /// (cycle, value) change list, in record order.
    changes: Vec<(Cycle, u64)>,
    last: Option<u64>,
}

/// Records signal changes and serializes them as a VCD document.
///
/// ```rust
/// use bsim::VcdRecorder;
/// let mut vcd = VcdRecorder::new(4_000); // 4 ns per cycle
/// let valid = vcd.declare("reader/valid", 1);
/// let count = vcd.declare("reader/beats", 8);
/// vcd.change(0, valid, 1);
/// vcd.change(0, count, 3);
/// vcd.change(5, valid, 0);
/// let text = vcd.render();
/// assert!(text.contains("$var wire 1"));
/// assert!(text.contains("#5"));
/// ```
#[derive(Debug)]
pub struct VcdRecorder {
    timescale_ps: u64,
    signals: Vec<Signal>,
}

impl VcdRecorder {
    /// Creates a recorder; `timescale_ps` is the picosecond length of one
    /// cycle (used for the VCD `$timescale`).
    pub fn new(timescale_ps: u64) -> Self {
        Self {
            timescale_ps: timescale_ps.max(1),
            signals: Vec::new(),
        }
    }

    /// Declares a signal of `width` bits under a `/`-separated hierarchical
    /// name; returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds 64.
    pub fn declare(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        assert!((1..=64).contains(&width), "signal width out of range");
        let id = SignalId(self.signals.len());
        self.signals.push(Signal {
            name: name.into(),
            width,
            changes: Vec::new(),
            last: None,
        });
        id
    }

    /// Records `value` on `signal` at `cycle`. Identical consecutive values
    /// are deduplicated (VCD is a change dump).
    pub fn change(&mut self, cycle: Cycle, signal: SignalId, value: u64) {
        let sig = &mut self.signals[signal.0];
        if sig.last == Some(value) {
            return;
        }
        sig.last = Some(value);
        sig.changes.push((cycle, value));
    }

    /// Serializes the recording as VCD text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("$date generated by beethoven bsim $end\n");
        out.push_str(&format!("$timescale {} ps $end\n", self.timescale_ps));

        // Build the module hierarchy from the signal names.
        #[derive(Default)]
        struct Scope {
            children: BTreeMap<String, Scope>,
            vars: Vec<(usize, String)>, // (signal index, leaf name)
        }
        let mut root = Scope::default();
        for (idx, sig) in self.signals.iter().enumerate() {
            let mut parts: Vec<&str> = sig.name.split('/').collect();
            let leaf = parts.pop().unwrap_or("sig").to_owned();
            let mut scope = &mut root;
            for part in parts {
                scope = scope.children.entry(part.to_owned()).or_default();
            }
            scope.vars.push((idx, leaf));
        }
        fn ident(idx: usize) -> String {
            // Printable-ASCII identifier per the VCD spec (! through ~).
            let mut n = idx;
            let mut s = String::new();
            loop {
                s.push((b'!' + (n % 94) as u8) as char);
                n /= 94;
                if n == 0 {
                    break;
                }
            }
            s
        }
        fn emit_scope(out: &mut String, name: &str, scope: &Scope, signals: &[Signal]) {
            if !name.is_empty() {
                out.push_str(&format!("$scope module {name} $end\n"));
            }
            for (idx, leaf) in &scope.vars {
                out.push_str(&format!(
                    "$var wire {} {} {} $end\n",
                    signals[*idx].width,
                    ident(*idx),
                    leaf
                ));
            }
            for (child_name, child) in &scope.children {
                emit_scope(out, child_name, child, signals);
            }
            if !name.is_empty() {
                out.push_str("$upscope $end\n");
            }
        }
        emit_scope(&mut out, "", &root, &self.signals);
        out.push_str("$enddefinitions $end\n");

        // Merge all change lists by cycle.
        let mut by_cycle: BTreeMap<Cycle, Vec<(usize, u64)>> = BTreeMap::new();
        for (idx, sig) in self.signals.iter().enumerate() {
            for &(cycle, value) in &sig.changes {
                by_cycle.entry(cycle).or_default().push((idx, value));
            }
        }
        for (cycle, changes) in by_cycle {
            out.push_str(&format!("#{cycle}\n"));
            for (idx, value) in changes {
                let sig = &self.signals[idx];
                if sig.width == 1 {
                    out.push_str(&format!("{}{}\n", value & 1, ident(idx)));
                } else {
                    out.push_str(&format!("b{value:b} {}\n", ident(idx)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_declares_signals_in_scopes() {
        let mut vcd = VcdRecorder::new(4000);
        vcd.declare("top/a", 1);
        vcd.declare("top/sub/b", 8);
        vcd.declare("c", 16);
        let text = vcd.render();
        assert!(text.contains("$timescale 4000 ps $end"));
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("$scope module sub $end"));
        assert!(text.contains("$var wire 1"));
        assert!(text.contains("$var wire 8"));
        assert!(text.contains("$var wire 16"));
        assert_eq!(
            text.matches("$scope").count(),
            text.matches("$upscope").count()
        );
    }

    #[test]
    fn changes_are_deduplicated_and_time_ordered() {
        let mut vcd = VcdRecorder::new(1);
        let s = vcd.declare("x", 1);
        vcd.change(3, s, 1);
        vcd.change(4, s, 1); // duplicate: dropped
        vcd.change(7, s, 0);
        let text = vcd.render();
        let t3 = text.find("#3").expect("change at 3");
        let t7 = text.find("#7").expect("change at 7");
        assert!(t3 < t7);
        assert!(!text.contains("#4"));
    }

    #[test]
    fn wide_signals_use_binary_format() {
        let mut vcd = VcdRecorder::new(1);
        let s = vcd.declare("bus", 8);
        vcd.change(0, s, 0xA5);
        assert!(vcd.render().contains("b10100101 "));
    }

    #[test]
    fn identifiers_stay_unique_past_94_signals() {
        let mut vcd = VcdRecorder::new(1);
        for i in 0..200 {
            vcd.declare(format!("s{i}"), 1);
        }
        let text = vcd.render();
        // Every $var line must carry a distinct identifier.
        let ids: std::collections::HashSet<&str> = text
            .lines()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).unwrap())
            .collect();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn zero_width_rejected() {
        VcdRecorder::new(1).declare("bad", 0);
    }

    /// A minimal VCD reader for round-trip assertions: returns each
    /// variable's full hierarchical path, width, and (cycle, value)
    /// change list, reconstructed purely from the rendered text.
    fn parse_back(text: &str) -> std::collections::BTreeMap<String, (u32, Vec<(Cycle, u64)>)> {
        let mut scopes: Vec<String> = Vec::new();
        let mut by_ident: std::collections::HashMap<String, String> =
            std::collections::HashMap::new();
        let mut vars: std::collections::BTreeMap<String, (u32, Vec<(Cycle, u64)>)> =
            std::collections::BTreeMap::new();
        let mut cycle: Cycle = 0;
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["$scope", "module", name, "$end"] => scopes.push((*name).to_owned()),
                ["$upscope", "$end"] => {
                    scopes.pop().expect("balanced $upscope");
                }
                ["$var", "wire", width, ident, leaf, "$end"] => {
                    let mut path = scopes.join("/");
                    if !path.is_empty() {
                        path.push('/');
                    }
                    path.push_str(leaf);
                    by_ident.insert((*ident).to_owned(), path.clone());
                    vars.insert(path, (width.parse().expect("width"), Vec::new()));
                }
                [time] if time.starts_with('#') => {
                    cycle = time[1..].parse().expect("cycle number");
                }
                [bits, ident] if bits.starts_with('b') => {
                    let value = u64::from_str_radix(&bits[1..], 2).expect("binary value");
                    let path = &by_ident[*ident];
                    vars.get_mut(path).expect("declared").1.push((cycle, value));
                }
                [change] if change.starts_with(['0', '1']) => {
                    let value = u64::from(change.as_bytes()[0] - b'0');
                    let path = &by_ident[&change[1..]];
                    vars.get_mut(path).expect("declared").1.push((cycle, value));
                }
                _ => {}
            }
        }
        assert!(scopes.is_empty(), "every $scope must be closed");
        vars
    }

    #[test]
    fn multibit_values_round_trip_through_parse_back() {
        let mut vcd = VcdRecorder::new(1);
        let bus = vcd.declare("top/bus", 16);
        let wide = vcd.declare("top/deep/wide", 64);
        vcd.change(0, bus, 0xBEEF);
        vcd.change(3, bus, 0x0001);
        vcd.change(7, wide, u64::MAX);
        let parsed = parse_back(&vcd.render());
        assert_eq!(parsed["top/bus"], (16, vec![(0, 0xBEEF), (3, 0x0001)]));
        assert_eq!(parsed["top/deep/wide"], (64, vec![(7, u64::MAX)]));
    }

    #[test]
    fn duplicate_suppression_survives_round_trip() {
        let mut vcd = VcdRecorder::new(1);
        let s = vcd.declare("x", 8);
        vcd.change(0, s, 7);
        vcd.change(1, s, 7); // suppressed: same as last
        vcd.change(2, s, 9);
        vcd.change(3, s, 7); // reverting to an earlier value is a change
        let parsed = parse_back(&vcd.render());
        assert_eq!(parsed["x"].1, vec![(0, 7), (2, 9), (3, 7)]);
    }

    #[test]
    fn hierarchical_scopes_round_trip() {
        let mut vcd = VcdRecorder::new(1);
        let names = [
            "soc/core0/reader/valid",
            "soc/core0/writer/valid",
            "soc/mem/ar",
            "flat",
        ];
        let ids: Vec<SignalId> = names.iter().map(|n| vcd.declare(*n, 1)).collect();
        for (i, id) in ids.iter().enumerate() {
            vcd.change(i as Cycle, *id, 1);
        }
        let parsed = parse_back(&vcd.render());
        let parsed_names: Vec<&String> = parsed.keys().collect();
        let mut expected: Vec<String> = names.iter().map(|s| (*s).to_owned()).collect();
        expected.sort();
        assert_eq!(parsed_names, expected.iter().collect::<Vec<_>>());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(parsed[*name].1, vec![(i as Cycle, 1)], "{name}");
        }
    }
}
