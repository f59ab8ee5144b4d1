//! The fuzz campaign driver: generate N scenarios, lockstep each, report.

use crate::engines::registry;
use crate::generate::{generate_case, GenOptions, GeneratedCase};
use crate::lockstep::CosimOptions;
use crate::report::{self, ScenarioResult};
use crate::stream::{Harness, ScenarioError};
use rtl_core::{Design, ElabOptions};

/// Fuzz campaign configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Base seed; case `i` uses seed `base + i` (wrapping), so any case
    /// can be re-run in isolation.
    pub seed: u64,
    /// Number of cases.
    pub cases: u32,
    /// Engine lane names under comparison (any registry lane, stream
    /// lanes included).
    pub engines: Vec<String>,
    /// Scenario generator tuning.
    pub generator: GenOptions,
    /// Lockstep tuning.
    pub cosim: CosimOptions,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            cases: 50,
            engines: vec!["interp".into(), "vm".into()],
            generator: GenOptions::default(),
            cosim: CosimOptions::default(),
        }
    }
}

/// The structured result of a fuzz campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// The campaign's options (for reproduction).
    pub options: FuzzOptions,
    /// Per-case results, in seed order.
    pub cases: Vec<ScenarioResult>,
}

impl FuzzReport {
    /// Cases whose engines diverged.
    pub fn divergences(&self) -> impl Iterator<Item = &ScenarioResult> {
        report::divergences(&self.cases)
    }

    /// `true` when every case agreed *and* ran its full horizon.
    /// Generated scenarios are valid by construction, so a runtime halt
    /// here means the generator's invariant broke — that must fail the
    /// campaign too, not just engine divergence.
    pub fn clean(&self) -> bool {
        report::all_clean(&self.cases)
    }

    /// Total cycles verified across all cases.
    pub fn total_cycles(&self) -> u64 {
        report::total_cycles(&self.cases)
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fuzz campaign: {} cases from seed {}, engines [{}], {} cycles/case",
            self.options.cases,
            self.options.seed,
            self.options.engines.join(", "),
            self.options.generator.cycles,
        )?;
        report::write_results(f, &self.cases)
    }
}

/// Runs the single fuzz case at `index` (seed `base + index`, wrapping)
/// against an explicit registry — the per-case entry point parallel
/// campaign workers call, each over its own registry instance.
/// Deterministic: the result depends only on `(options, index)`, never on
/// which worker or in what order cases run.
///
/// The case elaborates the generator's own [`Spec`](rtl_lang::Spec)
/// ([`generate_case`]), moved into the design. It lints that design
/// ([`rtl_lint::lint_design`], into `lint/*` counters) when
/// [`CosimOptions::lint_oracle`] is set, unless the run resumes from a
/// checkpoint: the run that saved it linted.
///
/// # Errors
///
/// Lane construction failures (unknown name, missing toolchain); runtime
/// disagreement is part of the returned case, not an `Err`.
pub fn run_fuzz_case(
    registry: &rtl_core::EngineRegistry,
    options: &FuzzOptions,
    index: u32,
) -> Result<ScenarioResult, ScenarioError> {
    let seed = options.seed.wrapping_add(u64::from(index));
    let GeneratedCase {
        name,
        spec,
        cycles,
        input,
    } = generate_case(seed, &options.generator);
    let design = Design::elaborate_with(spec, ElabOptions::default())?;
    let mut harness = Harness::prepare(registry, &options.engines, &design, &name, &options.cosim)?;
    // A run resumed from a checkpoint does not lint: the run that saved
    // the checkpoint did.
    if options.cosim.lint_oracle && !harness.resumes() {
        // Per-code counts depend only on (config, index), so totals are
        // byte-identical across worker counts and kill+resume.
        let recorder = &options.cosim.recorder;
        recorder.count("lint", "designs_linted", 1);
        for (code, n) in rtl_lint::lint_design(&design).counts() {
            recorder.count("lint", code, n);
        }
    }
    let outcome = harness.run(cycles, &input)?;
    drop(harness);
    Ok(ScenarioResult::new(name, outcome))
}

/// Runs a fuzz campaign against the default registry. Deterministic:
/// identical options produce the identical report.
///
/// # Errors
///
/// Lane construction failures (unknown name, missing toolchain); runtime
/// disagreement is part of the report, not an `Err`.
pub fn run_fuzz(options: &FuzzOptions) -> Result<FuzzReport, ScenarioError> {
    let mut cases = Vec::with_capacity(options.cases as usize);
    for i in 0..options.cases {
        cases.push(run_fuzz_case(registry(), options, i)?);
    }
    Ok(FuzzReport {
        options: options.clone(),
        cases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl_core::{HaltKind, StopReason};

    fn quick_options() -> FuzzOptions {
        FuzzOptions {
            cases: 10,
            generator: GenOptions {
                size: 12,
                cycles: 24,
                ..GenOptions::default()
            },
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_deterministic() {
        let a = run_fuzz(&quick_options()).unwrap();
        assert!(a.clean(), "{a}");
        assert_eq!(a.cases.len(), 10);
        let b = run_fuzz(&quick_options()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn report_renders_structured_text() {
        let report = run_fuzz(&FuzzOptions {
            cases: 3,
            ..quick_options()
        })
        .unwrap();
        let text = report.to_string();
        assert!(
            text.contains("fuzz campaign: 3 cases from seed 0"),
            "{text}"
        );
        assert!(text.contains("summary: 3/3 agreed, 0 diverged"), "{text}");
        assert!(text.contains("fuzz/seed-2"), "{text}");
    }

    #[test]
    fn halted_cases_fail_the_campaign() {
        // A generated scenario halting means the generator's
        // validity-by-construction invariant broke; clean() must say so.
        let mut report = run_fuzz(&FuzzOptions {
            cases: 1,
            ..quick_options()
        })
        .unwrap();
        assert!(report.clean());
        report.cases[0].stop = StopReason::Halt(HaltKind::InputExhausted { cycle: 0 });
        assert!(!report.clean());
    }

    #[test]
    fn seed_near_u64_max_does_not_overflow() {
        let report = run_fuzz(&FuzzOptions {
            seed: u64::MAX,
            cases: 3,
            ..quick_options()
        })
        .unwrap();
        assert_eq!(report.cases.len(), 3);
        assert_eq!(report.cases[0].name, format!("fuzz/seed-{}", u64::MAX));
        assert_eq!(
            report.cases[1].name, "fuzz/seed-0",
            "wraps deterministically"
        );
    }

    /// Regression: the `rust` lane wrote the whole stimulus into the
    /// simulator before reading any of its output, so a case whose
    /// stimulus and trace both outgrow the pipe buffers (seed 3 at 15,000
    /// cycles) deadlocked. The case runs on a worker thread so a deadlock
    /// fails the test instead of hanging it.
    #[test]
    fn long_rust_lane_case_does_not_deadlock() {
        if !rtl_compile::rustc_available() {
            eprintln!("skipping: rustc not on PATH");
            return;
        }
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let report = run_fuzz(&FuzzOptions {
                seed: 3,
                cases: 1,
                engines: vec!["interp".into(), "rust".into()],
                generator: GenOptions {
                    cycles: 15_000,
                    ..GenOptions::default()
                },
                ..FuzzOptions::default()
            })
            .map(|report| report.to_string())
            .map_err(|e| e.to_string());
            let _ = done.send(report);
        });
        let report = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a 15,000-cycle rust-lane case finishes within 60 s")
            .unwrap();
        assert!(
            report.contains("summary: 1/1 agreed, 0 diverged, 15000 cycles verified"),
            "{report}"
        );
    }

    #[test]
    fn four_way_campaign_agrees() {
        let options = FuzzOptions {
            cases: 5,
            generator: quick_options().generator,
            engines: ["interp", "interp-faithful", "vm", "vm-noopt"]
                .map(String::from)
                .to_vec(),
            ..FuzzOptions::default()
        };
        assert!(run_fuzz(&options).unwrap().clean());
    }

    /// A case lints when its options set `lint_oracle`, and only then:
    /// an enabled recorder alone folds no `lint/` counter. A linted case
    /// folds exactly the lint counts of its rendered text (beside the
    /// oracle comparator's own `lint/oracle_*` counters).
    #[test]
    fn only_oracle_cases_lint_and_they_count_their_text() {
        let generator = GenOptions::default();
        for (seed, lint_oracle) in [(0, true), (1, true), (2, true), (7, true), (2, false)] {
            let (recorder, log) = rtl_obs::Recorder::memory();
            let mut options = FuzzOptions {
                seed,
                cases: 1,
                generator: generator.clone(),
                ..FuzzOptions::default()
            };
            options.cosim.recorder = recorder.clone();
            options.cosim.lint_oracle = lint_oracle;
            run_fuzz_case(registry(), &options, 0).unwrap();
            recorder.flush();
            let mut summary = rtl_obs::Summary::new();
            summary.fold_text(&log.text(), "memory").unwrap();
            let mut got: Vec<String> = summary
                .deterministic_section()
                .lines()
                .map(str::trim)
                .filter(|l| l.starts_with("lint/") && !l.starts_with("lint/oracle_"))
                .map(str::to_string)
                .collect();
            let mut want: Vec<String> = Vec::new();
            if lint_oracle {
                let source = crate::generate_scenario(seed, &generator).source;
                want.extend(
                    rtl_lint::lint_source(&source)
                        .counts()
                        .into_iter()
                        .map(|(code, n)| format!("lint/{code} {n}")),
                );
                want.push("lint/designs_linted 1".into());
            }
            got.sort();
            want.sort();
            assert_eq!(got, want, "seed {seed} lint_oracle {lint_oracle}");
        }
    }

    #[test]
    fn unknown_lane_errors_up_front() {
        let options = FuzzOptions {
            engines: vec!["interp".into(), "warp".into()],
            cases: 1,
            ..quick_options()
        };
        assert!(run_fuzz(&options).is_err());
    }
}
