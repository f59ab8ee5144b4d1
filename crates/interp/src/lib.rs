//! # rtl-interp — ASIM, the table-driven interpreter
//!
//! The thesis's baseline simulator: "ASIM reads the specification into
//! tables, and produces a simulation run by interpreting the symbols in the
//! table" (§3.1). This crate reproduces that architecture faithfully —
//! expressions become postfix ("polish string") tables evaluated with an
//! operand stack, re-dispatched on every cycle with no specialization.
//! The optimizing counterpart is `rtl-compile` (ASIM II); Figure 5.1's
//! experiment is precisely the gap between the two.
//!
//! ```
//! use rtl_core::{Design, Engine, run_captured};
//! use rtl_interp::Interpreter;
//!
//! let design = Design::from_source(
//!     "# shifter\nr one next .\nM r 0 next 1 1\nA next 6 one r\nM one 0 0 0 -1 1 .",
//! ).unwrap_or_else(|e| panic!("{e}"));
//! let mut sim = Interpreter::new(&design);
//! assert!(run_captured(&mut sim, 4).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod factory;
pub mod lookup;
pub mod postfix;
pub mod sim;

pub use factory::InterpFactory;
pub use lookup::{LookupMode, SymbolTable};
pub use postfix::{Op, Program};
pub use sim::{InterpOptions, Interpreter};

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::{run_captured, Design, Engine, HaltKind, Session, SimError, Until};

    fn design(src: &str) -> Design {
        Design::from_source(src).unwrap_or_else(|e| panic!("{e}"))
    }

    fn run(src: &str, cycles: u64) -> String {
        let d = design(src);
        let mut sim = Interpreter::new(&d);
        run_captured(&mut sim, cycles).unwrap_or_else(|(text, e)| panic!("{e}\n{text}"))
    }

    #[test]
    fn counter_counts() {
        let out = run(
            "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
            4,
        );
        assert_eq!(
            out,
            "Cycle   0 count= 0\nCycle   1 count= 1\nCycle   2 count= 2\nCycle   3 count= 3\n"
        );
    }

    #[test]
    fn memory_one_cycle_delay() {
        // reg2 follows reg1 one cycle behind; reg1 follows the counter.
        let out = run(
            "# delay\nc* r1* r2* n .\nM c 0 n 1 1\nA n 4 c 1\nM r1 0 c 1 1\nM r2 0 r1 1 1 .",
            4,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[2], "Cycle   2 c= 2 r1= 1 r2= 0");
        assert_eq!(lines[3], "Cycle   3 c= 3 r1= 2 r2= 1");
    }

    #[test]
    fn rom_read_with_address_from_counter() {
        // ROM contents walk out one cycle late (read latency).
        let out = run(
            "# rom\nc* rom* n .\nM c 0 n 1 1\nA n 4 c 1\nM rom c 0 0 -4 10 20 30 40 .",
            4,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "Cycle   0 c= 0 rom= 0");
        assert_eq!(lines[1], "Cycle   1 c= 1 rom= 10");
        assert_eq!(lines[2], "Cycle   2 c= 2 rom= 20");
        assert_eq!(lines[3], "Cycle   3 c= 3 rom= 30");
    }

    #[test]
    fn selector_multiplexes() {
        let out = run(
            "# mux\nc* s* n .\nM c 0 n 1 1\nA n 4 c 1\nS s c.0.1 10 20 30 40 .",
            4,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "Cycle   0 c= 0 s= 10");
        assert_eq!(lines[3], "Cycle   3 c= 3 s= 40");
    }

    #[test]
    fn selector_out_of_range_is_a_runtime_error() {
        let d = design("# bad\nc s n .\nM c 0 n 1 1\nA n 4 c 1\nS s c 10 20 .");
        let mut sim = Interpreter::new(&d);
        let err = run_captured(&mut sim, 5).unwrap_err().1;
        match err {
            SimError::Halt(HaltKind::SelectorOutOfRange {
                component,
                index,
                cases,
                cycle,
            }) => {
                assert_eq!(component, "s");
                assert_eq!(index, 2);
                assert_eq!(cases, 2);
                assert_eq!(cycle, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_address_out_of_range() {
        let d = design("# bad\nc m n .\nM c 0 n 1 1\nA n 4 c 1\nM m c 0 0 2 .");
        let mut sim = Interpreter::new(&d);
        let err = run_captured(&mut sim, 5).unwrap_err().1;
        assert!(matches!(
            err,
            SimError::Halt(HaltKind::AddressOutOfRange { address: 2, .. })
        ));
    }

    #[test]
    fn bad_alu_function_is_a_runtime_error() {
        let d = design("# bad\na .\nA a 14 0 0 .");
        let mut sim = Interpreter::new(&d);
        let err = run_captured(&mut sim, 1).unwrap_err().1;
        assert!(matches!(
            err,
            SimError::Halt(HaltKind::BadAluFunction { funct: 14, .. })
        ));
    }

    #[test]
    fn write_through_latch() {
        // A register written every cycle exposes the written value on its
        // latch the *next* cycle.
        let out = run("# wt\nr* n c .\nM c 0 n 1 1\nA n 4 c 1\nM r 0 n 1 1 .", 3);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "Cycle   0 r= 0");
        assert_eq!(
            lines[1], "Cycle   1 r= 1",
            "write-through: n was 1 at cycle 0"
        );
        assert_eq!(lines[2], "Cycle   2 r= 2");
    }

    #[test]
    fn memory_mapped_output() {
        // Write the counter to output address 1 every cycle (op 3).
        let out = run("# out\nc n o .\nM c 0 n 1 1\nA n 4 c 1\nM o 1 c 3 1 .", 3);
        assert_eq!(out, "Cycle   0\n0\nCycle   1\n1\nCycle   2\n2\n");
    }

    #[test]
    fn memory_mapped_char_output() {
        let out = run("# out\no .\nM o 0 65 3 1 .", 1);
        assert_eq!(out, "Cycle   0\nA\n");
    }

    #[test]
    fn tagged_output_address() {
        let out = run("# out\no .\nM o 4096 9 3 1 .", 1);
        assert_eq!(out, "Cycle   0\nOutput to address 4096: 9\n");
    }

    #[test]
    fn memory_mapped_input() {
        let d = design("# in\ni* .\nM i 1 0 2 1 .");
        let mut session = Session::over(Interpreter::new(&d))
            .capture()
            .scripted([7, 8])
            .build();
        assert!(session.run(Until::Cycles(2)).completed());
        // The latch shows the input one cycle later.
        assert_eq!(session.output_text(), "Cycle   0 i= 0\nCycle   1 i= 7\n");
    }

    #[test]
    fn input_exhaustion_reports_cycle() {
        let d = design("# in\ni .\nM i 1 0 2 1 .");
        let mut sim = Interpreter::new(&d);
        let err = run_captured(&mut sim, 3).unwrap_err().1;
        assert!(matches!(
            err,
            SimError::Halt(HaltKind::InputExhausted { cycle: 0 })
        ));
    }

    #[test]
    fn input_prompt_for_odd_addresses() {
        let d = design("# in\ni .\nM i 9 0 2 1 .");
        let mut session = Session::over(Interpreter::new(&d))
            .capture()
            .scripted([5])
            .build();
        assert!(session.run(Until::Cycles(1)).completed());
        assert_eq!(session.output_text(), "Cycle   0\nInput from address 9: ");
    }

    #[test]
    fn trace_write_and_read_lines() {
        // op 5 = write + trace writes. Address constant 0.
        let out = run("# tw\nm c n .\nM c 0 n 1 1\nA n 4 c 1\nM m 0 c 5 1 .", 2);
        assert_eq!(
            out,
            "Cycle   0\n Write to m at 0: 0\nCycle   1\n Write to m at 0: 1\n"
        );
        // op 8 = read + trace reads.
        let out = run("# tr\nm .\nM m 0 0 8 -2 7 9 .", 2);
        assert_eq!(
            out,
            "Cycle   0\n Read from m at 0: 7\nCycle   1\n Read from m at 0: 7\n"
        );
    }

    #[test]
    fn simultaneous_swap_of_loaded_registers() {
        // Preload the latches via reads at cycle 0, then swap. With
        // declaration-order updates `b` would read `a`'s fresh value; the
        // simultaneous semantics (divergence D1) swap cleanly.
        let src = "# swap2\na* b* sel cyc0 .\n\
                   S sel cyc0.0 0 1\n\
                   M cyc0 0 1 1 1\n\
                   M a 0 b sel -1 10\n\
                   M b 0 a sel -1 20 .";
        let out = run(src, 4);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "Cycle   0 a= 0 b= 0");
        assert_eq!(lines[1], "Cycle   1 a= 10 b= 20", "reads landed");
        assert_eq!(lines[2], "Cycle   2 a= 20 b= 10", "simultaneous swap");
        assert_eq!(lines[3], "Cycle   3 a= 10 b= 20", "and again");
    }

    #[test]
    fn table_size_is_reported() {
        let d = design("# c\ncount next .\nM count 0 next 1 1\nA next 4 count 1 .");
        let sim = Interpreter::new(&d);
        assert!(sim.table_size() > 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let d = design("# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .");
        let mut sim = Interpreter::new(&d);
        run_captured(&mut sim, 3).unwrap();
        assert_eq!(sim.state().cycle(), 3);
        sim.reset();
        assert_eq!(sim.state().cycle(), 0);
        let out = run_captured(&mut sim, 1).unwrap();
        assert_eq!(out, "Cycle   0 count= 0\n");
    }

    #[test]
    fn trace_can_be_disabled() {
        let d =
            design("# c\ncount* next o .\nM count 0 next 1 1\nA next 4 count 1\nM o 1 count 3 1 .");
        let mut sim = Interpreter::with_options(&d, InterpOptions::quiet());
        let text = run_captured(&mut sim, 2).unwrap();
        // Output events still appear; trace lines do not.
        assert_eq!(text, "0\n1\n");
    }

    #[test]
    fn symbol_table_lookup_is_equivalent_to_indexed() {
        // The 1986 findname discipline changes cost, never values.
        for src in [
            "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
            "# mux\nc* s* n .\nM c 0 n 1 1\nA n 4 c 1\nS s c.0.1 10 20 30 40 .",
            "# tw\nm c n .\nM c 0 n 1 1\nA n 4 c 1\nM m 0 c 5 1 .",
        ] {
            let d = design(src);
            let mut fast = Interpreter::new(&d);
            let mut faithful = Interpreter::with_options(&d, InterpOptions::faithful());
            let a = run_captured(&mut fast, 6).unwrap();
            let b = run_captured(&mut faithful, 6).unwrap();
            assert_eq!(a, b, "{src}");
            assert_eq!(fast.state(), faithful.state());
        }
    }

    #[test]
    fn until_spec_uses_inclusive_cycle_count() {
        let d = design("# c\n= 3\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .");
        let mut session = Session::over(Interpreter::new(&d)).capture().build();
        assert!(session.run(Until::Spec).completed());
        assert_eq!(
            session.output_text().lines().count(),
            4,
            "= 3 means cycles 0..=3"
        );
    }
}
