//! Cross-validation of the static analyzer against the running engines.
//!
//! Three properties: (1) a spec with a statically-dead arm produces the
//! static diagnostic *and* a full dynamic run that never contradicts the
//! claim; (2) deliberately falsified claims — the "intentionally wrong
//! analyzer" — are caught as [`DivergenceKind::Oracle`] divergences; (3)
//! every registry scenario runs clean under the oracle.

use rtl_core::observe::DivergenceKind;
use rtl_core::{Design, EngineLane, EngineOptions};
use rtl_cosim::{registry, run_scenario_names, CosimOptions, CosimOutcome, Lockstep};
use rtl_lint::{lint_source, OracleComparator, StaticClaims};
use rtl_obs::Recorder;

/// A counter-driven selector whose arm 4 is statically unreachable: the
/// two-bit select never exceeds 3.
const DEAD_ARM: &str =
    "# dead arm demo\nc* n s* .\nM c 0 n 1 1\nA n 4 c 1\nS s c.0.1 10 20 30 40 50 .\n";

/// An interp + vm harness over `design` with default options.
fn interp_vm(design: &Design) -> Lockstep<'_> {
    let mut lockstep = Lockstep::new(design, CosimOptions::default());
    for name in ["interp", "vm"] {
        let Ok(EngineLane::Stepped(engine)) =
            registry().build(name, design, &EngineOptions::default())
        else {
            panic!("{name} is a stepped registry lane");
        };
        lockstep.add_lane(name, engine);
    }
    lockstep
}

#[test]
fn dead_arm_is_flagged_statically_and_never_fires_dynamically() {
    // Static: the lint reports the unreachable arm.
    let report = lint_source(DEAD_ARM);
    assert!(
        report.diagnostics().iter().any(|d| d.code == "dead-arm"),
        "{}",
        report.render_text("dead-arm-demo")
    );

    // Dynamic: the oracle watches every observation of a full run and
    // never sees the arm fire or an undriven cell change.
    let design = Design::from_source(DEAD_ARM).unwrap();
    let claims = StaticClaims::of(&design);
    assert!(!claims.is_empty(), "the demo design must carry claims");
    let (recorder, log) = Recorder::memory();
    let mut lockstep = interp_vm(&design);
    lockstep.add_comparator(Box::new(OracleComparator::new(claims, recorder.clone())));
    let outcome = lockstep.run(64);
    assert!(outcome.agreed(), "{outcome:?}");
    recorder.flush();
    let text = log.text();
    assert!(text.contains("\"key\":\"oracle_checks\""), "{text}");
    assert!(!text.contains("oracle_contradictions"), "{text}");
}

#[test]
fn falsified_dead_arm_claim_is_caught() {
    // The "intentionally wrong analyzer": claim arm 1 is dead when the
    // counter drives the select through it every fourth cycle.
    let design = Design::from_source(DEAD_ARM).unwrap();
    let s = design.find("s").unwrap().index();
    let claims = StaticClaims {
        dead_arms: vec![(s, vec![1])],
        undriven: vec![],
    };
    let recorder = Recorder::disabled();
    let mut lockstep = interp_vm(&design);
    lockstep.add_comparator(Box::new(OracleComparator::new(claims, recorder)));
    match lockstep.run(64) {
        CosimOutcome::Divergence(report) => match &report.kind {
            DivergenceKind::Oracle { component, claim } => {
                assert_eq!(component, "s");
                assert!(claim.contains("arm 1"), "{claim}");
            }
            other => panic!("wrong divergence kind: {other}"),
        },
        other => panic!("falsified claim not caught: {other:?}"),
    }
}

#[test]
fn falsified_undriven_claim_is_caught() {
    // Claim the counter register is never written; it increments every
    // cycle, so the first comparison already contradicts the claim.
    let design = Design::from_source(DEAD_ARM).unwrap();
    let c = design.find("c").unwrap().index();
    let claims = StaticClaims {
        dead_arms: vec![],
        undriven: vec![(c, vec![0])],
    };
    let mut lockstep = interp_vm(&design);
    lockstep.add_comparator(Box::new(OracleComparator::new(
        claims,
        Recorder::disabled(),
    )));
    match lockstep.run(64) {
        CosimOutcome::Divergence(report) => match &report.kind {
            DivergenceKind::Oracle { component, claim } => {
                assert_eq!(component, "c");
                assert!(claim.contains("undriven"), "{claim}");
            }
            other => panic!("wrong divergence kind: {other}"),
        },
        other => panic!("falsified claim not caught: {other:?}"),
    }
}

#[test]
fn registry_scenarios_agree_under_the_oracle() {
    let (recorder, log) = Recorder::memory();
    let options = CosimOptions {
        lint_oracle: true,
        recorder: recorder.clone(),
        ..CosimOptions::default()
    };
    let lanes = vec!["interp".to_string(), "vm".to_string()];
    for name in rtl_machines::scenarios::names() {
        let scenario = rtl_machines::scenarios::by_name(&name).unwrap();
        let outcome = run_scenario_names(registry(), &lanes, &scenario, &options).unwrap();
        assert!(outcome.agreed(), "{name}: {outcome:?}");
    }
    recorder.flush();
    let text = log.text();
    assert!(!text.contains("oracle_contradictions"), "{text}");
}
