//! Cross-engine differential testing (S2 in `DESIGN.md`), routed through
//! the `rtl-cosim` subsystem: the interpreter and the VM (at every
//! optimization level) must agree cycle-for-cycle — trace bytes, cycle
//! counters, observable outputs and memory cells — on every bundled spec
//! and on seeded random designs. The generated Rust binary joins in for a
//! sample of them (cosim drives in-process engines; the rustc pipeline
//! stays a direct comparison).

use asim2::core::EngineLane;
use asim2::cosim::{registry, run_corpus_names, run_scenario_names, CosimOptions, Lockstep};
use asim2::machines::{scenarios, synth};
use asim2::prelude::*;

/// The three in-process tiers every design must agree across.
const TIERS: [&str; 3] = ["interp", "vm", "vm-noopt"];

fn names(lanes: &[&str]) -> Vec<String> {
    lanes.iter().map(|s| s.to_string()).collect()
}

/// Adds default-registry lanes to a harness by name.
fn add_lanes<'d>(lockstep: &mut Lockstep<'d>, design: &'d Design, lanes: &[&str]) {
    for &name in lanes {
        let Ok(EngineLane::Stepped(engine)) =
            registry().build(name, design, &EngineOptions::default())
        else {
            panic!("{name} is a stepped registry lane");
        };
        lockstep.add_lane(name, engine);
    }
}

fn assert_lockstep_agrees(design: &Design, cycles: u64) -> String {
    let options = CosimOptions {
        retain_output: true,
        ..CosimOptions::default()
    };
    let mut lockstep = Lockstep::new(design, options);
    add_lanes(&mut lockstep, design, &TIERS);
    let outcome = lockstep.run(cycles);
    assert!(outcome.agreed(), "{outcome:?}");
    String::from_utf8(lockstep.agreed_output().to_vec()).expect("trace is utf-8")
}

#[test]
fn bundled_specs_agree() {
    for (name, src) in asim2::machines::classic::ALL {
        let design = Design::from_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cycles = design.cycles().unwrap_or(10) as u64 + 1;
        let text = assert_lockstep_agrees(&design, cycles);
        assert!(!text.is_empty(), "{name} produced no output");
    }
}

#[test]
fn random_designs_agree_across_100_seeds() {
    for seed in 0..100 {
        let spec = synth::random_spec(seed, 25);
        let design = Design::elaborate(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_lockstep_agrees(&design, 30);
    }
}

#[test]
fn full_scenario_corpus_agrees_at_its_registered_horizons() {
    // The acceptance sweep: every registered scenario (>= 1000 cycles
    // each), all three in-process tiers, compared every cycle.
    let report =
        run_corpus_names(registry(), &names(&TIERS), None, &CosimOptions::default()).unwrap();
    assert!(report.clean(), "{report}");
    assert!(report.total_cycles() >= 16_000, "{report}");
}

#[test]
fn coarse_comparison_matches_fine_on_the_corpus() {
    // compare_every > 1 exercises the snapshot/rewind path on real
    // machines; verdicts must not change.
    let options = CosimOptions {
        compare_every: 64,
        ..CosimOptions::default()
    };
    let report =
        run_corpus_names(registry(), &names(&["interp", "vm"]), Some(256), &options).unwrap();
    assert!(report.clean(), "{report}");
}

#[test]
fn random_designs_agree_with_generated_rust() {
    if !asim2::compile::rustc_available() {
        eprintln!("skipping: rustc not on PATH");
        return;
    }
    // The rustc pipeline is expensive; sample a few seeds.
    for seed in [3, 17, 42] {
        let spec = synth::random_spec(seed, 15);
        let design = Design::elaborate(&spec).unwrap();

        let mut session = Session::over(Interpreter::new(&design)).capture().build();
        session
            .run(Until::Cycle(25))
            .into_result()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let expected = session.output_text();

        let options = EmitOptions {
            cycles: Some(25),
            ..EmitOptions::default()
        };
        let compiled =
            asim2::compile::build(&design, &options).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let (got, _) = compiled
            .run(b"")
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn scripted_input_agrees_across_engines() {
    let src = "# io\ni* o acc n .\nM i 1 0 2 1\nM acc 0 n 1 1\nA n 4 acc i\nM o 1 acc 3 1 .";
    let design = Design::from_source(src).unwrap();

    let mut lockstep = Lockstep::new(
        &design,
        CosimOptions {
            retain_output: true,
            ..CosimOptions::default()
        },
    );
    lockstep.stimulus((1..=6).collect::<Vec<i64>>());
    add_lanes(&mut lockstep, &design, &TIERS);
    assert!(lockstep.run(6).agreed());
    let text = String::from_utf8(lockstep.agreed_output().to_vec()).unwrap();
    // The accumulator output stream shows the running sum of the inputs,
    // delayed by the input latch.
    assert!(text.contains("i= 1"), "{text}");
}

#[test]
fn tiny_computer_engines_agree() {
    let image = asim2::machines::tiny::divider_image(23, 4);
    let spec =
        asim2::machines::tiny::rtl::spec_with_trace(&image, Some(400), &["state", "pc", "ac"]);
    let design = Design::elaborate(&spec).unwrap();
    assert_lockstep_agrees(&design, 401);
}

#[test]
fn registry_scenarios_run_individually() {
    for name in ["classic/gcd", "io/accumulator", "io/echo"] {
        let scenario = scenarios::by_name(name).expect("registered");
        let outcome = run_scenario_names(
            registry(),
            &names(&TIERS),
            &scenario,
            &CosimOptions::default(),
        )
        .unwrap();
        assert!(outcome.agreed(), "{name}: {outcome:?}");
    }
}
