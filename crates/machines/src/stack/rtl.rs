//! The register-transfer level implementation of the stack machine.
//!
//! This generates the ASIM II specification for the micro-coded datapath —
//! the reproduction's analogue of the thesis's Appendix D "Itty Bitty
//! Stack Machine Simulator Specification". The structure mirrors the
//! original closely: a state register, a control ROM indexed by
//! state-and-opcode (the `rom` selector), an `ir` register that "remembers
//! the value of prog at fetch time", a generic ALU driven by a microcode
//! function field, and a 4096-word RAM whose operation word carries the
//! I/O select bit (`addr.~n, rom.~w` in the original).

use super::isa::Instr;
use super::ucode;
use crate::builder::SpecBuilder;
use rtl_lang::{Expr, Spec, Word};

/// Builds the specification for a program.
///
/// `cycles` becomes the `= n` clause (run cycles `0..=n`); pass the ISS's
/// `predicted_cycles` to run exactly to completion.
pub fn spec(program: &[Instr], cycles: Option<Word>) -> Spec {
    spec_with_trace(program, cycles, &[])
}

/// Builds the specification with chosen components traced (`*`).
pub fn spec_with_trace(program: &[Instr], cycles: Option<Word>, traced: &[&str]) -> Spec {
    assert!(
        !program.is_empty(),
        "the program ROM needs at least one word"
    );
    let mut b = SpecBuilder::new("Itty Bitty Stack Machine (asim2 reproduction of Appendix D)");
    if let Some(n) = cycles {
        b.cycles(n);
    }
    for t in traced {
        b.trace(t);
    }

    // --- Registers and memories (update order matters for nothing here,
    // but we keep the thesis's style: state first, program ROM last).
    b.memory("state", "0", "rom.0.2", "1", 1);
    b.memory("pc", "0", "newpc", "1", 1);
    b.memory("sp", "0", "newsp", "1", 1);
    b.memory("a", "0", "ram", "rom.7", 1);
    b.memory("ir", "0", "prog", "rom.20", 1);

    // --- Decode: in Exec the opcode comes straight from the program ROM
    // latch ("prog must be used ... because ir won't be valid until the
    // cycle following the fetch"); later states use the saved ir.
    b.alu("stis1", "12", "state", "1");
    b.selector("curop", "stis1", ["ir.0.3", "prog.0.3"]);
    b.selector(
        "rom",
        "state.0.2,curop.0.3",
        ucode::rom().into_iter().map(Expr::constant),
    );

    // --- Program counter.
    b.alu("pcp1", "4", "pc", "1");
    b.alu("tz", "12", "ram", "0");
    b.selector("bztgt", "tz", ["pcp1", "prog.4.16"]);
    b.selector("newpc", "rom.3.4", ["pc", "pcp1", "prog.4.16", "bztgt"]);

    // --- Stack pointer (element count; slot = STACK_BASE + index).
    b.alu("spp1", "4", "sp", "1");
    b.alu("spdec", "5", "sp", "1");
    b.alu("spdec2", "5", "sp", "2");
    b.selector("newsp", "rom.5.6", ["sp", "spp1", "spdec", "spdec2"]);

    // --- RAM address/data muxes and the ALU.
    b.alu("slottop", "4", "sp", "15");
    b.alu("slotnos", "4", "sp", "14");
    b.alu("slotfree", "4", "sp", "16");
    b.selector(
        "addrsel",
        "rom.8.10",
        ["slottop", "slotnos", "slotfree", "ram", "a"],
    );
    b.alu("io", "8", "addrsel.12", "rom.13");
    b.selector("aleft", "rom.18", ["ram", "0"]);
    b.selector("aright", "rom.19", ["a", "ram"]);
    b.alu("alu", "rom.14.17", "aleft", "aright");
    b.selector("wdata", "rom.11.12", ["alu", "prog.4.16", "ram", "a"]);

    // --- Program ROM and the stack/data RAM with memory-mapped output.
    let words: Vec<Word> = program.iter().map(|i| i.encode()).collect();
    b.memory_init("prog", "pc", "0", "0", words);
    b.memory("ram", "addrsel.0.11", "wdata", "io.0,rom.13", 4096);

    b.finish()
}

/// The specification rendered as canonical source text.
pub fn spec_source(program: &[Instr], cycles: Option<Word>) -> String {
    rtl_lang::pretty(&spec(program, cycles))
}

#[cfg(test)]
mod tests {
    use super::super::asm::assemble;
    use super::super::iss::{Iss, Stop};
    use super::*;
    use rtl_core::{Design, Session, Until};
    use rtl_interp::{InterpOptions, Interpreter};

    /// Runs a program on both levels and insists the output streams match.
    fn cross_check(asm_src: &str) -> (Iss, String) {
        let program = assemble(asm_src).unwrap_or_else(|e| panic!("{e}"));
        let mut iss = Iss::new(program.clone());
        assert_eq!(iss.run(2_000_000), Stop::Halted, "ISS must halt");

        let spec = spec(&program, Some(iss.predicted_cycles as Word));
        let design = Design::elaborate(&spec).unwrap_or_else(|e| panic!("{e}"));
        let mut session = Session::over(Interpreter::with_options(&design, InterpOptions::quiet()))
            .capture()
            .build();
        session
            .run(Until::Spec)
            .into_result()
            .unwrap_or_else(|e| panic!("RTL failed: {e}"));
        let rtl_output = session.output_text();
        assert_eq!(rtl_output, iss.rendered_output(), "RTL vs ISS output");
        (iss, rtl_output)
    }

    #[test]
    fn push_add_output() {
        let (_, out) = cross_check(".def OUT 4097\nldc 20\nldc 22\nadd\nldc OUT\nst\nhalt");
        assert_eq!(out, "42\n");
    }

    #[test]
    fn every_opcode_once() {
        // nop, ldc, ld, st, dup, swap, add, sub, mul, and, eq, lt, neg,
        // bz (both ways), br, halt.
        let src = "\
.def V 1024
.def OUT 4097
    nop
    ldc 6
    ldc V
    st              ; V := 6
    ldc V
    ld              ; [6]
    ldc 2
    swap            ; [2 6]
    sub             ; [2-6] = -4
    neg             ; [4]
    dup             ; [4 4]
    mul             ; [16]
    ldc 3
    and             ; [0]
    bz taken
    ldc 999
    ldc OUT
    st
taken:
    ldc 5
    ldc 5
    eq              ; [1]
    ldc OUT
    st              ; print 1
    ldc 3
    ldc 7
    lt              ; [1]
    ldc OUT
    st              ; print 1
    br fin
    ldc 888
    ldc OUT
    st
fin:
    halt";
        let (_, out) = cross_check(src);
        assert_eq!(out, "1\n1\n");
    }

    #[test]
    fn ram_addresses_and_char_output() {
        // Store through computed addresses; char output at device 0 (4096).
        let (_, out) =
            cross_check(".def OUT0 4096\nldc 72\nldc OUT0\nst\nldc 105\nldc OUT0\nst\nhalt");
        assert_eq!(out, "H\ni\n");
    }

    #[test]
    fn deep_stack_swap_chain() {
        let (_iss, out) = cross_check(
            ".def OUT 4097\nldc 1\nldc 2\nldc 3\nldc 4\nswap\nadd\nadd\nadd\nldc OUT\nst\nhalt",
        );
        // 4,3 swapped → 3+4=7 → +2=9 → +1=10.
        assert_eq!(out, "10\n");
    }

    #[test]
    fn spec_elaborates_with_no_warnings() {
        let program = assemble("halt").unwrap();
        let spec = spec(&program, Some(10));
        let design = Design::elaborate(&spec).unwrap();
        assert!(design.warnings().is_empty());
        assert_eq!(design.memories().len(), 7);
    }

    #[test]
    fn spec_text_round_trips() {
        let program = assemble("ldc 1\nhalt").unwrap();
        let text = spec_source(&program, Some(5));
        let spec2 = rtl_lang::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(rtl_core::Design::elaborate(&spec2).is_ok());
    }

    #[test]
    fn halt_freezes_the_machine() {
        let program = assemble("ldc 9\nldc 4097\nst\nhalt").unwrap();
        let mut iss = Iss::new(program.clone());
        iss.run(1000);
        // Run the RTL far longer than needed: output must not repeat.
        let spec = spec(&program, Some(1000));
        let design = Design::elaborate(&spec).unwrap();
        let mut session = Session::over(Interpreter::with_options(&design, InterpOptions::quiet()))
            .capture()
            .build();
        assert!(session.run(Until::Spec).completed());
        assert_eq!(session.output_text(), "9\n");
    }
}
