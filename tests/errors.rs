//! Failure injection (S5 in `DESIGN.md`): every diagnostic class the
//! thesis documents must fire, with its message.

use asim2::core::{ElabError, HaltKind, LoadError, SimError};
use asim2::lang::ParseErrorKind;
use asim2::prelude::*;

fn parse_err(src: &str) -> ParseErrorKind {
    match rtl_lang::parse(src) {
        Err(e) => e.kind,
        Ok(_) => panic!("expected parse error for {src:?}"),
    }
}

fn elab_err(src: &str) -> ElabError {
    match Design::from_source(src) {
        Err(LoadError::Elab(e)) => e,
        other => panic!("expected elaboration error, got {other:?}"),
    }
}

fn run_err(src: &str, cycles: u64) -> (SimError, SimError) {
    let design = Design::from_source(src).unwrap();
    let mut interp = Interpreter::new(&design);
    let e1 = run_captured(&mut interp, cycles).unwrap_err().1;
    let mut vm = Vm::new(&design);
    let e2 = run_captured(&mut vm, cycles).unwrap_err().1;
    assert_eq!(e1, e2, "engines report the same runtime error");
    (e1, e2)
}

#[test]
fn comment_required() {
    assert_eq!(parse_err("A x 1 2 3 ."), ParseErrorKind::MissingComment);
}

#[test]
fn malformed_numbers() {
    assert!(matches!(
        parse_err("# m\nx .\nM x 0 0 0 12a ."),
        ParseErrorKind::MalformedNumber(_)
    ));
    assert!(matches!(
        parse_err("# m\n= 99999999999\nx .\n."),
        ParseErrorKind::NumberTooLarge(_)
    ));
}

#[test]
fn undefined_macro() {
    assert_eq!(
        parse_err("# m\nx .\nA x ~ghost 0 0 ."),
        ParseErrorKind::UndefinedMacro("ghost".into())
    );
}

#[test]
fn component_expected() {
    let e = parse_err("# m\nx .\nQ x 1 2 3 .");
    assert_eq!(e, ParseErrorKind::ExpectedComponent("Q".into()));
}

#[test]
fn component_not_found_names_the_referrer() {
    match elab_err("# m\nx .\nA x 4 ghost 1 .") {
        ElabError::ComponentNotFound { name, referrer, .. } => {
            assert_eq!(name, "ghost");
            assert_eq!(referrer, "x");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn circular_dependency_lists_the_cycle() {
    let e = elab_err("# m\na b c .\nA a 4 b 1\nA b 4 c 1\nA c 4 a 1 .");
    match e {
        ElabError::CircularDependency { members } => {
            assert_eq!(members, ["a", "b", "c"]);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn too_many_bits() {
    let e = elab_err("# m\na b .\nA a 4 b,b 1\nA b 2 1 0 .");
    assert!(matches!(e, ElabError::TooManyBits { .. }), "{e:?}");
}

#[test]
fn selector_out_of_range_at_runtime() {
    let (e, _) = run_err("# m\nc s n .\nM c 0 n 1 1\nA n 4 c 1\nS s c 10 20 30 .", 10);
    match e {
        SimError::Halt(HaltKind::SelectorOutOfRange {
            component,
            index,
            cases,
            cycle,
        }) => {
            assert_eq!(component, "s");
            assert_eq!(index, 3);
            assert_eq!(cases, 3);
            assert_eq!(cycle, 3);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn negative_selector_index_is_out_of_range() {
    let (e, _) = run_err(
        "# m\ns neg m .\nA neg 5 0 m\nS s neg 10 20\nM m 0 0 0 -1 1 .",
        3,
    );
    assert!(
        matches!(
            e,
            SimError::Halt(HaltKind::SelectorOutOfRange { index: -1, .. })
        ),
        "{e:?}"
    );
}

#[test]
fn memory_address_out_of_range_at_runtime() {
    let (e, _) = run_err("# m\nc m n .\nM c 0 n 1 1\nA n 4 c 1\nM m c 0 0 3 .", 10);
    assert!(
        matches!(
            e,
            SimError::Halt(HaltKind::AddressOutOfRange {
                address: 3,
                size: 3,
                ..
            })
        ),
        "{e:?}"
    );
}

#[test]
fn bad_alu_function_at_runtime() {
    // Dynamic function expression walks past 13.
    let (e, _) = run_err("# m\nc a n .\nM c 0 n 1 1\nA n 4 c 1\nA a c 1 2 .", 20);
    assert!(
        matches!(
            e,
            SimError::Halt(HaltKind::BadAluFunction { funct: 14, .. })
        ),
        "{e:?}"
    );
}

#[test]
fn input_exhaustion_at_runtime() {
    let (e, _) = run_err("# m\ni .\nM i 1 0 2 1 .", 2);
    assert!(
        matches!(e, SimError::Halt(HaltKind::InputExhausted { cycle: 0 })),
        "{e:?}"
    );
}

#[test]
fn checkdcl_warnings_are_not_errors() {
    let design = Design::from_source("# m\nghost x .\nA x 2 1 0\nA extra 2 1 0 .").unwrap();
    assert_eq!(design.warnings().len(), 2);
    let mut sim = Interpreter::new(&design);
    assert!(
        run_captured(&mut sim, 3).is_ok(),
        "warnings do not block simulation"
    );
}

#[test]
fn traced_undefined_is_rejected_up_front() {
    assert!(matches!(
        elab_err("# m\nghost* x .\nA x 2 1 0 ."),
        ElabError::TracedUndefined { .. }
    ));
}

#[test]
fn error_messages_match_the_original_wording() {
    let e = Design::from_source("# m\na b .\nA a 4 b 1\nA b 4 a 1 .").unwrap_err();
    assert_eq!(e.to_string(), "Error. Circular dependency with a and/or b.");

    let e = rtl_lang::parse("# m\nx .\nB x 1 2 3 .").unwrap_err();
    assert!(e
        .to_string()
        .starts_with("Error. Component expected. Got <B> instead."));

    let e = rtl_lang::parse("no comment").unwrap_err();
    assert!(e.to_string().starts_with("Error. Comment required."));
}
