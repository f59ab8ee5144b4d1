//! Properties of a lockstep harness across runs: lane statistics count
//! each simulated cycle once whatever the comparison stride, and a
//! prepared [`Harness`] that runs many probes answers each exactly as a
//! harness built for that probe alone would.

use asim2::cosim::{
    generate_case, registry, run_design_names, CosimOptions, CosimOutcome, DivergenceReport,
    GenOptions, GeneratedCase, Harness,
};
use rtl_core::{Design, ElabOptions, Recorder, Word};

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn elaborate(case: &GeneratedCase) -> Design {
    Design::elaborate_with(case.spec.clone(), ElabOptions::default())
        .expect("generated cases elaborate")
}

/// The divergence report of `case` at comparison stride `compare_every`.
fn report_at(design: &Design, case: &GeneratedCase, compare_every: u64) -> DivergenceReport {
    let options = CosimOptions {
        compare_every,
        ..CosimOptions::default()
    };
    let outcome = run_design_names(
        registry(),
        &names(&["interp", "vm-fault"]),
        design,
        &case.name,
        case.cycles,
        &case.input,
        &options,
    )
    .expect("lanes build");
    match outcome {
        CosimOutcome::Divergence(report) => *report,
        other => panic!("{}: the fault lane must diverge, got {other:?}", case.name),
    }
}

/// A bisection rewind replays the cycles since the last agreeing
/// comparison; the replayed work must not be counted twice, so a
/// report's lane statistics are those of the stride-1 run and count as
/// many cycles as the lane executed.
#[test]
fn lane_stats_do_not_depend_on_the_stride() {
    let generator = GenOptions {
        size: 30,
        cycles: 64,
        io_every: 2,
    };
    for seed in 1..=20 {
        let case = generate_case(seed, &generator);
        let design = elaborate(&case);
        let fine = report_at(&design, &case, 1);
        assert_eq!(
            fine.cycle, 40,
            "seed {seed}: the default fault fires at cycle 40"
        );
        for lane in &fine.lanes {
            let stats = lane.stats.as_ref().expect("both tiers keep statistics");
            assert_eq!(
                stats.cycles, lane.cycle as u64,
                "seed {seed} [{}]",
                lane.engine
            );
        }
        for stride in [2, 16, 64] {
            let coarse = report_at(&design, &case, stride);
            let stats = |report: &DivergenceReport| {
                report
                    .lanes
                    .iter()
                    .map(|l| l.stats.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(stats(&coarse), stats(&fine), "seed {seed}, stride {stride}");
            assert_eq!(coarse, fine, "seed {seed}, stride {stride}");
        }
    }
}

/// The probes a shrink makes of one design: full and cut horizons, each
/// with its stimulus or a prefix of it, in an order that moves back and
/// forth across the divergence.
fn probes(case: &GeneratedCase) -> Vec<(u64, &[Word])> {
    let prefix = |cycles: u64| {
        let cut = usize::try_from(case.cycles - cycles).unwrap_or(usize::MAX);
        &case.input[..case.input.len().saturating_sub(cut)]
    };
    let half = &case.input[..case.input.len() / 2];
    vec![
        (case.cycles, &case.input[..]),
        (41, prefix(41)),
        (9, prefix(9)),
        (case.cycles, half),
        (1, prefix(1)),
        (0, &[]),
        (41, prefix(41)),
        (case.cycles, &case.input[..]),
    ]
}

/// Each probe's outcome and the counters it emitted, one flushed block
/// per probe.
type Answers = (Vec<CosimOutcome>, Vec<String>);

fn fresh_answers(
    design: &Design,
    case: &GeneratedCase,
    lanes: &[String],
    options: &CosimOptions,
) -> Answers {
    let (recorder, log) = Recorder::memory();
    let options = CosimOptions {
        recorder: recorder.clone(),
        ..options.clone()
    };
    let mut outcomes = Vec::new();
    let mut counters = Vec::new();
    let mut seen = 0;
    for (cycles, input) in probes(case) {
        let outcome = run_design_names(
            registry(),
            lanes,
            design,
            &case.name,
            cycles,
            input,
            &options,
        )
        .expect("lanes build");
        outcomes.push(outcome);
        recorder.flush();
        let text = log.text();
        counters.push(text[seen..].to_string());
        seen = text.len();
    }
    (outcomes, counters)
}

fn prepared_answers(
    design: &Design,
    case: &GeneratedCase,
    lanes: &[String],
    options: &CosimOptions,
) -> Answers {
    let (recorder, log) = Recorder::memory();
    let options = CosimOptions {
        recorder: recorder.clone(),
        ..options.clone()
    };
    let mut harness =
        Harness::prepare(registry(), lanes, design, &case.name, &options).expect("lanes build");
    let mut outcomes = Vec::new();
    let mut counters = Vec::new();
    let mut seen = 0;
    for (cycles, input) in probes(case) {
        outcomes.push(harness.run(cycles, input).expect("runs"));
        recorder.flush();
        let text = log.text();
        counters.push(text[seen..].to_string());
        seen = text.len();
    }
    (outcomes, counters)
}

/// One prepared harness running a sequence of probes returns, probe for
/// probe, the outcome (report and lane statistics included) and the
/// counters of a fresh `run_design_names` call — agreeing and diverging
/// lane sets, fine and coarse strides, with and without the lint
/// oracle's comparator.
#[test]
fn a_prepared_harness_runs_like_fresh_ones() {
    let generator = GenOptions {
        size: 8,
        cycles: 48,
        io_every: 2,
    };
    let lane_sets = [names(&["interp", "vm"]), names(&["interp", "vm-fault"])];
    let mut diverged = 0;
    std::thread::scope(|scope| {
        let workers: Vec<_> = [0..21u64, 21..41]
            .into_iter()
            .map(|seeds| {
                let (generator, lane_sets) = (&generator, &lane_sets);
                scope.spawn(move || {
                    let mut diverged = 0;
                    for seed in seeds {
                        let case = generate_case(seed, generator);
                        let design = elaborate(&case);
                        for lanes in lane_sets {
                            for compare_every in [1, 16] {
                                for lint_oracle in [false, true] {
                                    let options = CosimOptions {
                                        compare_every,
                                        lint_oracle,
                                        ..CosimOptions::default()
                                    };
                                    let fresh = fresh_answers(&design, &case, lanes, &options);
                                    let prepared =
                                        prepared_answers(&design, &case, lanes, &options);
                                    assert_eq!(
                                        prepared, fresh,
                                        "seed {seed}, {lanes:?}, stride {compare_every}, \
                                         oracle {lint_oracle}"
                                    );
                                    diverged += fresh.0.iter().filter(|o| !o.agreed()).count();
                                }
                            }
                        }
                    }
                    diverged
                })
            })
            .collect();
        for worker in workers {
            diverged += worker.join().expect("worker");
        }
    });
    assert!(diverged > 0, "the fault lane diverges on some probes");
}
