//! The four workloads and their untraced execution: one call into the
//! program's public entry point per workload, timed from outside.
//!
//! Every workload is a closed loop. A campaign worker claims its next
//! case only after finishing the last, and the fleet worker asks for its
//! next lease only after uploading the last. The program receives only a
//! `CampaignConfig`; the seed comes from the benchmark's command line.

use rtl_campaign::{
    run, CampaignConfig, CampaignDir, CampaignReport, CaseRecord, CaseStatus, NoProgress, Progress,
    RunOptions, DEFAULT_FAULT_CYCLE,
};
use rtl_core::Fingerprint;
use rtl_cosim::GenOptions;
use rtl_dist::ShardPlan;
use rtl_fleet::{Controller, ControllerOptions, FleetProgress, WorkerOptions};
use rtl_obs::Histogram;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Short cases: per-case fixed cost dominates.
    FixedCost,
    /// Long cases: lockstep stepping and comparison dominate.
    LongHorizon,
    /// Every case diverges: shrink, corpus and shard merge.
    ShrinkShard,
    /// The fixed-cost campaign served over the fleet control plane.
    FleetLease,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::FixedCost,
        Kind::LongHorizon,
        Kind::ShrinkShard,
        Kind::FleetLease,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FixedCost => "fixed-cost",
            Kind::LongHorizon => "long-horizon",
            Kind::ShrinkShard => "shrink-shard",
            Kind::FleetLease => "fleet-lease",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The report digests of the code the benchmark was defined on, one
/// `workload cases seed digest` line per configuration; `expected-reports.sh`
/// regenerates the file.
const EXPECTED_REPORTS: &str = include_str!("../expected-reports.tsv");

/// Shards the `shrink-shard` campaign is split into.
const SHARDS: u32 = 2;
const FLEET_TOKEN: &str = "perfbench";

/// One workload at one seed: the campaign configuration the program
/// receives, and the thread count it runs with.
pub struct Workload {
    pub kind: Kind,
    pub config: CampaignConfig,
    /// Campaign worker threads (for `fleet-lease`, the fleet worker's).
    pub threads: usize,
}

impl Workload {
    /// `smoke` shrinks every campaign to a handful of cases, for the
    /// benchmark's self-test.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Workload {
        // Cases per execution: sized so one execution takes about a
        // second on a 2-core host, which gives a run many samples.
        let (cases, cycles, engines, threads) = match kind {
            Kind::FixedCost => (1000, 8, "vm", 2),
            Kind::LongHorizon => (100, 2048, "vm", 2),
            Kind::ShrinkShard => (150, 64, "vm-fault", 2),
            Kind::FleetLease => (400, 8, "vm", 1),
        };
        let cases = if smoke {
            match kind {
                Kind::LongHorizon => 4,
                _ => 16,
            }
        } else {
            cases
        };
        Workload {
            kind,
            config: CampaignConfig {
                seed,
                cases,
                engines: vec!["interp".into(), engines.into()],
                generator: GenOptions {
                    size: 30,
                    cycles,
                    io_every: 2,
                },
                compare_every: 1,
                lint_oracle: false,
            },
            threads,
        }
    }

    /// The committed digest of this configuration's report, if the
    /// table has its seed and size.
    pub fn committed_digest(&self) -> Option<&'static str> {
        EXPECTED_REPORTS.lines().find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                [name, cases, seed, digest]
                    if name == self.kind.name()
                        && cases == self.config.cases.to_string()
                        && seed == self.config.seed.to_string() =>
                {
                    Some(digest)
                }
                _ => None,
            }
        })
    }

    /// This configuration's line of `expected-reports.tsv`.
    pub fn table_line(&self, digest: &str) -> String {
        format!(
            "{} {} {} {digest}",
            self.kind.name(),
            self.config.cases,
            self.config.seed
        )
    }

    /// Whether the output check also compares against a single-machine
    /// `rtl_campaign::run` of the same configuration.
    pub fn needs_reference(&self) -> bool {
        matches!(self.kind, Kind::ShrinkShard | Kind::FleetLease)
    }

    /// Whether one published record is a success for this workload.
    fn record_ok(&self, record: &CaseRecord) -> bool {
        match (&record.status, self.kind) {
            (
                CaseStatus::Diverged {
                    cycle,
                    corpus: Some(_),
                    ..
                },
                Kind::ShrinkShard,
            ) => *cycle == DEFAULT_FAULT_CYCLE,
            (CaseStatus::Agreed, kind) => kind != Kind::ShrinkShard,
            _ => false,
        }
    }

    /// Cases that failed in a report: missing records and records that
    /// are not a success. An `Err` fails every case.
    pub fn failed_cases(&self, report: &Result<CampaignReport, String>) -> u32 {
        match report {
            Ok(report) => report
                .records
                .iter()
                .filter(|r| !r.as_ref().is_some_and(|r| self.record_ok(r)))
                .count() as u32,
            Err(_) => self.config.cases,
        }
    }

    /// The directory holding the final case records of an execution
    /// under `root`.
    pub fn output_dir(&self, root: &Path) -> CampaignDir {
        CampaignDir::new(root.join(match self.kind {
            Kind::FixedCost | Kind::LongHorizon => "campaign",
            Kind::ShrinkShard => "merged",
            Kind::FleetLease => "fleet",
        }))
    }

    fn plan(&self) -> Result<ShardPlan, String> {
        ShardPlan::partition(self.config.clone(), SHARDS).map_err(|e| e.to_string())
    }

    /// The case range each shard of `shrink-shard` runs, in shard order.
    pub fn shard_ranges(&self) -> Vec<Range<u32>> {
        self.plan()
            .map(|plan| plan.shards.iter().map(|s| s.range()).collect())
            .unwrap_or_default()
    }

    fn run_options(&self) -> RunOptions {
        RunOptions {
            workers: self.threads,
            ..RunOptions::default()
        }
    }
}

/// What one untraced execution measured.
pub struct Execution {
    /// From the workload's entry call to its return.
    pub wall: Duration,
    /// From the entry call to the first published record.
    pub setup: Option<Duration>,
    pub report: Result<CampaignReport, String>,
    /// CPU seconds the process spent inside the entry call.
    pub cpu_s: f64,
    /// `shrink-shard`: the `rtl_dist::merge` call alone.
    pub merge: Option<Duration>,
    /// `fleet-lease`: when each record was accepted, from the entry call.
    pub accepted: Vec<Duration>,
    /// `fleet-lease`: the controller's lease-duration histogram (µs).
    pub leases: Option<Histogram>,
}

/// Timestamps the progress callbacks the program makes.
struct Clock {
    entry: Instant,
    /// Set when the entry call returns.
    returned: Option<Duration>,
    first: Option<Duration>,
    accepted: Vec<Duration>,
    leases: Option<Histogram>,
}

impl Progress for Clock {
    fn case_done(&mut self, _record: &CaseRecord, _done: u32, _total: u32) {
        self.first.get_or_insert_with(|| self.entry.elapsed());
    }
}

impl FleetProgress for Clock {
    fn record_accepted(&mut self, _worker: &str, _record: &CaseRecord, _done: u32, _total: u32) {
        let at = self.entry.elapsed();
        self.first.get_or_insert(at);
        self.accepted.push(at);
    }

    fn fleet_summary(&mut self, _heartbeats: &Histogram, leases: &Histogram) {
        self.leases = Some(leases.clone());
    }
}

/// Runs the workload once into the fresh directory `root`.
pub fn execute(w: &Workload, root: &Path) -> Execution {
    let mut merge = None;
    let cpu_before = crate::host::cpu_seconds();
    let mut clock = Clock {
        entry: Instant::now(),
        returned: None,
        first: None,
        accepted: Vec::new(),
        leases: None,
    };
    let report = match w.kind {
        Kind::FixedCost | Kind::LongHorizon => {
            clock.entry = Instant::now();
            run(&w.output_dir(root), &w.config, &w.run_options(), &mut clock)
                .map_err(|e| e.to_string())
        }
        Kind::ShrinkShard => {
            clock.entry = Instant::now();
            shrink_shard(w, root, &mut clock, &mut merge)
        }
        Kind::FleetLease => fleet(w, root, &mut clock),
    };
    let wall = clock.returned.unwrap_or_else(|| clock.entry.elapsed());
    Execution {
        wall,
        setup: clock.first,
        report,
        cpu_s: crate::host::cpu_seconds() - cpu_before,
        merge,
        accepted: clock.accepted,
        leases: clock.leases,
    }
}

/// The shard directories `shrink-shard` runs under `root`.
pub fn shard_dirs(root: &Path) -> Vec<PathBuf> {
    (0..SHARDS)
        .map(|i| root.join(format!("shard-{i}")))
        .collect()
}

fn shrink_shard(
    w: &Workload,
    root: &Path,
    clock: &mut Clock,
    merge: &mut Option<Duration>,
) -> Result<CampaignReport, String> {
    let plan = w.plan()?;
    let dirs = shard_dirs(root);
    for (index, dir) in dirs.iter().enumerate() {
        rtl_dist::run_shard(
            &plan,
            index as u32,
            &CampaignDir::new(dir),
            &w.run_options(),
            clock,
        )
        .map_err(|e| e.to_string())?;
    }
    let started = Instant::now();
    let report = rtl_dist::merge(&plan, &dirs, &w.output_dir(root)).map_err(|e| e.to_string());
    *merge = Some(started.elapsed());
    report
}

fn fleet(w: &Workload, root: &Path, clock: &mut Clock) -> Result<CampaignReport, String> {
    let controller = Controller::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = controller
        .local_addr()
        .map_err(|e| format!("bind: {e}"))?
        .to_string();
    let worker = WorkerOptions {
        token: FLEET_TOKEN.into(),
        name: "worker-0".into(),
        threads: w.threads,
        scratch: root.join("worker"),
        pin: None,
        abandon_after: None,
    };
    let options = ControllerOptions {
        token: FLEET_TOKEN.into(),
        ..ControllerOptions::default()
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| rtl_fleet::work(&addr, &worker));
        clock.entry = Instant::now();
        let served = controller.serve(&w.output_dir(root), &w.config, &options, clock);
        clock.returned = Some(clock.entry.elapsed());
        // Closing the listener releases a worker still waiting to be
        // accepted when serving failed early.
        drop(controller);
        let worked = handle
            .join()
            .map_err(|_| "fleet worker panicked".to_string())?;
        let report = served.map_err(|e| e.to_string())?;
        worked.map_err(|e| format!("fleet worker: {e}"))?;
        Ok(report)
    })
}

/// The fingerprint of a report's rendering (`CampaignReport`'s
/// `Display`, which holds every simulated statistic the campaign keeps).
pub fn digest(report: &CampaignReport) -> String {
    let mut fp = Fingerprint::new();
    fp.write_str(&report.to_string());
    format!("{:016x}", fp.finish())
}

/// The digest of the single-machine report of the workload's
/// configuration: what `fleet-lease` and `shrink-shard` must reproduce.
pub fn reference(w: &Workload, root: &Path) -> Result<String, String> {
    let options = RunOptions {
        workers: 2,
        ..RunOptions::default()
    };
    run(
        &CampaignDir::new(root),
        &w.config,
        &options,
        &mut NoProgress,
    )
    .map(|report| digest(&report))
    .map_err(|e| format!("reference run: {e}"))
}
