//! The programs the engines build from a campaign design are pinned.
//!
//! Over a grid of `generate_case` seeds and sizes, one digest covers the
//! VM's bytecode (its disassembly) and the lowering statistics at both
//! optimization levels, and one more the interpreter's postfix tables.
//! A change to lowering, bytecode compilation or table generation that
//! alters any program fails here, even when the engines still agree in
//! lockstep: this proves an edit builds the same programs, not merely
//! equivalent ones.

use asim2::compile::{lower, stats, OptOptions, Vm};
use asim2::core::{Design, ElabOptions, Fingerprint};
use asim2::cosim::{generate_case, GenOptions};
use asim2::interp::Interpreter;

const SEEDS: std::ops::Range<u64> = 0..100;
const SIZES: [usize; 3] = [1, 7, 30];

/// Elaborates every case of the grid, in seed-major order.
fn designs() -> impl Iterator<Item = Design> {
    SEEDS.flat_map(|seed| {
        SIZES.into_iter().map(move |size| {
            let options = GenOptions {
                size,
                ..GenOptions::default()
            };
            let case = generate_case(seed, &options);
            Design::elaborate_with(case.spec, ElabOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed} size {size}: {e}"))
        })
    })
}

#[test]
fn lowered_programs_and_interpreter_tables_are_pinned() {
    let mut vm = Fingerprint::new();
    let mut interp = Fingerprint::new();
    for design in designs() {
        for opt in [OptOptions::full(), OptOptions::none()] {
            let program = Vm::with_options(&design, opt, true).program().disassemble();
            vm.write_str(&program);
            vm.write_str(&format!("{:?}", stats(&lower(&design, opt))));
        }
        interp.write_str(&Interpreter::new(&design).tables());
    }
    let (vm, interp) = (vm.finish(), interp.finish());
    assert_eq!(
        (vm, interp),
        (0x454a_71b7_966f_4996, 0xeb16_48ff_0aeb_cd11),
        "vm {vm:#018x} interp {interp:#018x}"
    );
}
