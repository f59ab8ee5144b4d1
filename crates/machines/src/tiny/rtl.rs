//! The four-phase RTL implementation of the tiny computer.
//!
//! Follows the Appendix F specification's structure: a two-bit phase
//! counter decoded one-hot, a memory-address mux (`S ma phase.2 pc ir`),
//! opcode comparators on `ir.7.9`, and registers gated by phase bits.
//!
//! Phase timing (one memory port, one-cycle latency):
//!
//! | phase | action |
//! |-------|--------|
//! | P0    | issue instruction fetch at `pc` |
//! | P1    | latch `ir`; `pc := pc + 1` |
//! | P2    | issue operand read (LD/SU) or write `ac` (ST); branches load `pc` |
//! | P3    | `ac := mem` (LD) or `ac := (ac − mem) & 0x7FF`, `borrow := ac < mem` (SU) |

use super::MEM_WORDS;
use crate::builder::SpecBuilder;
use rtl_lang::{Spec, Word};

/// Builds the specification around a 128-word memory image.
pub fn spec(image: &[Word], cycles: Option<Word>) -> Spec {
    spec_with_trace(image, cycles, &[])
}

/// Builds the specification with chosen components traced — the Appendix F
/// original traced `state* pc* ac*`.
pub fn spec_with_trace(image: &[Word], cycles: Option<Word>, traced: &[&str]) -> Spec {
    assert_eq!(image.len(), MEM_WORDS, "image must be {MEM_WORDS} words");
    let mut b = SpecBuilder::new("tiny computer specification (asim2 reproduction of Appendix F)");
    if let Some(n) = cycles {
        b.cycles(n);
    }
    for t in traced {
        b.trace(*t);
    }

    // Phase counter: a 2-bit state register decoded one-hot, exactly the
    // Appendix F `M state / A nextstate / S phase` trio.
    b.memory("state", "0", "nxst.0.1", "1", 1);
    b.alu("nxst", "4", "state", "1");
    b.selector("phase", "state.0.1", ["1", "2", "4", "8"]);

    // Opcode comparators.
    b.alu("isld", "12", "ir.7.9", "2");
    b.alu("isst", "12", "ir.7.9", "3");
    b.alu("isbb", "12", "ir.7.9", "4");
    b.alu("isbr", "12", "ir.7.9", "5");
    b.alu("issu", "12", "ir.7.9", "6");

    // Memory port: address mux and write gate.
    b.selector("ma", "phase.2", ["pc", "ir.0.6"]);
    b.alu("memwr", "8", "isst", "phase.2");
    b.memory_init("mem", "ma.0.6", "ac", "memwr", image.to_vec());

    // Instruction register.
    b.memory("ir", "0", "mem", "phase.1", 1);

    // Program counter: increment in P1, branch (or hold) in P2.
    b.alu("incpc", "4", "pc", "1");
    b.alu("bbtaken", "8", "isbb", "borrow");
    b.alu("taken", "9", "isbr", "bbtaken");
    b.selector("brtgt", "taken", ["pc", "ir.0.6"]);
    b.selector("newpc", "phase.2", ["incpc", "brtgt"]);
    b.alu("pcwr", "9", "phase.1", "phase.2");
    b.memory("pc", "0", "newpc", "pcwr", 1);

    // Accumulator and borrow flag (P3).
    b.alu("acsub", "5", "ac", "mem");
    b.selector("newac", "issu", ["mem", "acsub.0.10"]);
    b.alu("ldsu", "9", "isld", "issu");
    b.alu("acwr", "8", "phase.3", "ldsu");
    b.memory("ac", "0", "newac", "acwr", 1);
    b.alu("blt", "13", "ac", "mem");
    b.alu("bwr", "8", "phase.3", "issu");
    b.memory("borrow", "0", "blt", "bwr", 1);

    b.finish()
}

/// Renders the specification as source text.
pub fn spec_source(image: &[Word], cycles: Option<Word>) -> String {
    rtl_lang::pretty(&spec(image, cycles))
}

/// Cycles per instruction of this implementation.
pub const CYCLES_PER_INSTRUCTION: u64 = 4;

#[cfg(test)]
mod tests {
    use super::super::{divider_image, iss::TinyIss, layout};
    use super::*;
    use rtl_core::{Design, Engine, Session, Until};
    use rtl_interp::{InterpOptions, Interpreter};

    /// Runs the RTL model for the division demo and compares the final
    /// memory image and registers with the ISS.
    fn cross_check(a: Word, b: Word) {
        let image = divider_image(a, b);

        let mut iss = TinyIss::new(image.clone());
        assert!(iss.run_until_spin(100_000));

        // Budget: the executed instructions plus slack spinning in `done`.
        let cycles = (iss.instructions + 8) * CYCLES_PER_INSTRUCTION;
        let spec = spec(&image, Some(cycles as Word));
        let design = Design::elaborate(&spec).unwrap_or_else(|e| panic!("{e}"));
        let mut sim = Interpreter::with_options(&design, InterpOptions::quiet());
        Session::over(&mut sim)
            .build()
            .run(Until::Spec)
            .into_result()
            .unwrap_or_else(|e| panic!("RTL failed: {e}"));

        let mem = design.find("mem").unwrap();
        let cells = sim.state().cells(mem);
        assert_eq!(
            cells[layout::Q as usize],
            a / b,
            "quotient of {a}/{b} in RTL memory"
        );
        assert_eq!(
            cells[layout::A as usize],
            a % b,
            "remainder of {a}/{b} in RTL memory"
        );
        // Data region identical between levels.
        assert_eq!(&cells[16..], &iss.mem[16..], "data cells for {a}/{b}");
        // Architectural registers agree too.
        let ac = design.find("ac").unwrap();
        assert_eq!(sim.state().output(ac), iss.ac, "ac for {a}/{b}");
    }

    #[test]
    fn division_matches_iss() {
        for (a, b) in [(17, 5), (20, 4), (3, 7), (0, 3), (9, 9)] {
            cross_check(a, b);
        }
    }

    #[test]
    fn spec_elaborates_cleanly() {
        let design = Design::elaborate(&spec(&divider_image(6, 2), Some(100))).unwrap();
        assert!(design.warnings().is_empty());
        assert_eq!(design.memories().len(), 6);
        assert_eq!(design.len(), 27);
    }

    #[test]
    fn trace_shows_phases_and_registers() {
        let image = divider_image(5, 5);
        let spec = spec_with_trace(&image, Some(7), &["state", "pc", "ac"]);
        let design = Design::elaborate(&spec).unwrap();
        let mut session = Session::over(Interpreter::new(&design)).capture().build();
        assert!(session.run(Until::Spec).completed());
        let text = session.output_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[0], "Cycle   0 state= 0 pc= 0 ac= 0");
        // By cycle 5 (P1 of the second instruction... cycle 4 = P0 of
        // instr 1) pc has been incremented once.
        assert_eq!(lines[2], "Cycle   2 state= 2 pc= 1 ac= 0");
        // P3 of LD a: ac picks up the value at the cycle after P3.
        assert_eq!(lines[4], "Cycle   4 state= 0 pc= 1 ac= 5");
    }

    #[test]
    fn countdown() {
        let image = super::super::countdown_image(7);
        let mut iss = TinyIss::new(image.clone());
        assert!(iss.run_until_spin(10_000));
        assert_eq!(iss.mem[layout::Q as usize], 7);
        cross_check(7, 1);
    }
}
