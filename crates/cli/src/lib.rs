//! # asim-cli — the `asim` command line tool
//!
//! The modern counterpart of the thesis's `sim [file]` (Appendix A).
//! `asim2 help` prints every command and its flags; one table, parsed by
//! one parser, gives each command its row of accepted flags.
//!
//! `cosim` with no FILE sweeps the whole built-in scenario corpus.
//! Engine names come from the open registry (`asim2 cosim --engines` lists
//! them): the in-process tiers plus the `rust` generated-binary subprocess
//! lane. Every command drives its engine through the [`Session`] API;
//! `--checkpoint-every`/`--resume` expose its on-disk checkpoints.
//!
//! The library entry point [`run`] takes arguments and output sinks so the
//! whole tool is testable in-process; `main` is a thin wrapper.

#![forbid(unsafe_code)]

use args::Args;
use rtl_compile::{EmitOptions, OptOptions, Vm};
use rtl_core::{
    Design, EngineOptions, ReaderInput, Session, SimError, StopReason, Until, WriteSink,
};
use rtl_interp::Interpreter;
use rtl_machines::Scenario;
use std::io::Write;

mod args;
mod fleet;
mod lint;
mod metrics;

/// Executes the tool with the process's stdin. Returns the process exit
/// code: 0 success, 1 usage error, 2 load (parse/elaborate) error, 3
/// runtime simulation error.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let stdin = std::io::stdin();
    run_with_input(args, &mut stdin.lock(), out, err)
}

/// Executes the tool with an explicit input stream (memory-mapped input
/// and interactive prompts read from it) — the testable entry point.
pub fn run_with_input(
    args: &[String],
    stdin: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> i32 {
    match dispatch(args, stdin, out, err) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(err, "{}", e.message);
            e.code
        }
    }
}

struct CliError {
    code: i32,
    message: String,
}

fn usage_err(message: impl Into<String>) -> CliError {
    CliError {
        code: 1,
        message: format!("{}\n\n{USAGE}", message.into()),
    }
}

fn load_err(message: impl std::fmt::Display) -> CliError {
    CliError {
        code: 2,
        message: message.to_string(),
    }
}

fn sim_err(e: SimError) -> CliError {
    CliError {
        code: 3,
        message: format!("runtime error: {e}"),
    }
}

const USAGE: &str = "usage:
  asim2 check   FILE [-v]
  asim2 run     FILE [--cycles N] [--engine NAME] [--no-trace] [--stats] [--interactive]
                [--checkpoint FILE --checkpoint-every N] [--resume FILE]
  asim2 compile FILE [--backend rust|pascal] [-o OUT] [--cycles N] [--interactive] [--no-opt]
  asim2 netlist FILE [--format report|dot|wiring]
  asim2 vcd     FILE [-o OUT.vcd] [--cycles N]
  asim2 spec    NAME            (one of: counter gcd traffic fig3_1 fig4_1 fig4_2 fig4_3 sieve tiny)
  asim2 fig     3.1|4.1|4.2|4.3|5.1
  asim2 lint    FILE... [--deny warnings] [--allow CODE] [--format text|json] [--codes]
  asim2 cosim   [FILE] [--engines interp,vm,rust,...] [--cycles N] [--scenario NAME]
                [--compare-every N] [--compare trace,vcd,cells,...]
                [--checkpoint F [--checkpoint-every N]] [--resume F]
                [--dump-divergence DIR] [--export-digests F] [--check-digests F]
                [--lint-oracle]
  asim2 fuzz    [--seed N] [--cases N] [--cycles N] [--size N] [--engines interp,vm,...]
  asim2 campaign run    --dir D [--cases N] [--seed N] [--workers N] [--engines LIST]
                        [--cycles N] [--size N] [--compare-every N] [--limit N]
                        [--case-checkpoint] [--lint-oracle] [--flight]
                        [--metrics-out F.jsonl] [--profile-out F] [--progress[=MS]] [--quiet]
  asim2 campaign resume --dir D [--workers N] [--limit N] [--case-checkpoint] [--flight]
                        [--metrics-out F.jsonl] [--profile-out F]
                        [--progress[=MS]] [--quiet]
  asim2 campaign replay --dir D [--engines LIST]
  asim2 campaign shrink --dir D --seed N [--engines LIST] [--cycles N] [--size N]
                        [--compare-every N]
  asim2 campaign export --dir D --out O     (render the case records as
                        O/cases/case-NNNNNN.json files, the corpus entries as
                        O/corpus/<name>.asim/.stim/.ckpt/.json files)
  asim2 campaign shard plan  [--plan F] --cases N --shards K [--seed N] [--engines LIST]
                             [--cycles N] [--size N] [--compare-every N] [--lint-oracle]
  asim2 campaign shard run   [--plan F] --shard I --dir D [--workers N] [--limit N]
                             [--case-checkpoint] [--flight] [--metrics-out F.jsonl]
                             [--profile-out F] [--progress[=MS]] [--quiet]
  asim2 campaign shard merge [--plan F] --out D --shards DIR1,DIR2,...
                             [--metrics-out F.jsonl] [--profile-out F]
  asim2 fleet serve --dir D --token T [--bind ADDR] [--port-file F] [--cases N] [--seed N]
                             [--engines LIST] [--cycles N] [--size N] [--compare-every N]
                             [--lint-oracle] [--lease N] [--lease-deadline MS] [--limit N]
                             [--flight] [--metrics-out F.jsonl] [--profile-out F]
                             [--progress[=MS]] [--quiet]
  asim2 fleet work  --connect HOST:PORT --token T [--name N] [--workers N] [--scratch D]
                             [--fingerprint HEX] [--abandon-after N] [--quiet]
  asim2 fleet status --connect HOST:PORT --token T [--watch[=MS]] [--format text|json]
                             (read-only live fleet status: cases done/remaining, leases
                             with deadlines, per-worker heartbeat age and throughput, ETA)
  asim2 profile FILE | --scenario NAME  [--engine NAME] [--cycles N] [--top N]
                             [--format text|json]
  asim2 metrics summarize FILE...           (fold asim2-events v1 logs into one summary;
                             FILE may be - for stdin)
  asim2 metrics summarize --check RUN1 RUN2...  (RUNs are files, comma-joined file
                             groups, or --group FILE... blocks; exit 3 unless all
                             deterministic sections match)
  asim2 metrics trace-export FILE... [--out F.json]  (logs, or - for stdin, to Chrome
                             trace-event JSON for Perfetto/chrome://tracing; several
                             FILEs merge onto one timeline, one track per log)
  asim2 metrics flight FILE                 (pretty-print a case-N.flight.jsonl divergence
                             flight-recorder log from campaign export, or - for stdin)

engine NAMEs come from the registry: interp, interp-faithful, vm, vm-noopt,
rust (the generated binary run as a subprocess cosim lane) and vm-fault (a
deliberately broken VM for validating the find->shrink->replay pipeline).
cosim comparators: trace, cycles, outputs, cells, vcd, digest, all
lint checks specs statically (asim2 lint --codes lists the finding codes);
--lint-oracle cross-validates the analyzer's dead-arm/undriven claims
against the running lanes — a contradiction reports as a divergence — and
is the one switch that makes a campaign case lint (lint/* counters).
shard plans default to ./shard-plan.json; each shard runs on its own machine
into a self-contained --dir, and merge folds the directories back into one
canonical campaign, bit-identical to a single-machine run.
fleet serves one campaign live over TCP: workers lease contiguous case ranges,
upload records byte-verbatim, dead workers' leases expire back into the pool,
and the controller's finished directory is bit-identical to a single-machine
`campaign run`. Handshake refusals (wrong protocol version, bad token,
fingerprint drift, duplicate worker name) exit 2 with the named reason.
profile runs one engine with the execution-profile tap on and ranks components
by event count; campaign/shard --profile-out F folds the per-case profiles
into one asim2-profile v1 document, byte-identical across worker counts and
kill+resume, --case-checkpoint's mid-case resumes included.
--flight arms the divergence flight recorder: each case runs with a bounded
ring buffer of its own telemetry, and any case that halts, errors or diverges
keeps the last events before the trigger in its case log, which campaign
export renders as cases/case-N.flight.jsonl — byte-identical across worker
counts and kill+resume, on single machines and fleets alike.
--case-checkpoint saves a long case's lockstep position every 256 cycles as
a frame of its worker's log, so a killed case resumes mid-run with its
profile and flight ring; a lane mix with a stream lane saves none.
fleet status watches a serving controller read-only over the same protocol:
one asim2-fleet-status v1 document per poll, --watch to repeat until the
campaign drains.";

fn dispatch(
    args: &[String],
    stdin: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let args = args::parse(&words)?;
    match args.name {
        "help" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        "check" => check(&args, out),
        "run" => run_cmd(&args, stdin, out),
        "compile" => compile(&args, out),
        "netlist" => netlist(&args, out),
        "vcd" => vcd_cmd(&args, out),
        "spec" => spec_cmd(&args, out),
        "fig" => fig(&args, out),
        "lint" => lint::lint_cmd(&args, out),
        "cosim" => cosim_cmd(&args, out),
        "fuzz" => fuzz_cmd(&args, out),
        "profile" => profile_cmd(&args, out),
        name if name.starts_with("campaign shard ") => shard_cmd(&args, out, err),
        name if name.starts_with("campaign ") => campaign_cmd(&args, out, err),
        name if name.starts_with("fleet ") => fleet::fleet_cmd(&args, out, err),
        _ => metrics::metrics_cmd(&args, stdin, out),
    }
}

fn load_design(path: &str) -> Result<Design, CliError> {
    let source =
        std::fs::read_to_string(path).map_err(|e| load_err(format!("cannot read {path}: {e}")))?;
    Design::from_source(&source).map_err(load_err)
}

/// The one FILE of `check`, `run`, `compile`, `netlist` and `vcd`.
fn file<'a>(args: &Args<'a>) -> Result<&'a str, CliError> {
    args.positional().ok_or_else(|| usage_err("missing FILE"))
}

fn check(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let design = load_design(file(args)?)?;
    // The original's progress line: "N components read."
    let _ = writeln!(out, "{} components read.", design.len());
    for w in design.warnings() {
        let _ = writeln!(out, "{w}");
    }
    if args.has("-v") {
        let order: Vec<&str> = design
            .comb_order()
            .iter()
            .map(|&i| design.name(i))
            .collect();
        let _ = writeln!(out, "evaluation order: {}", order.join(" "));
        let mems: Vec<&str> = design.memories().iter().map(|&i| design.name(i)).collect();
        let _ = writeln!(out, "memories: {}", mems.join(" "));
        if let Some(n) = design.cycles() {
            let _ = writeln!(out, "cycles: {n}");
        }
    }
    Ok(())
}

fn run_cmd(
    args: &Args,
    stdin: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let file = file(args)?;
    let cycles = args.number::<i64>("--cycles")?;
    let engine = args.value("--engine").unwrap_or("vm");
    let trace = !args.has("--no-trace");
    let want_stats = args.has("--stats");
    let interactive = args.has("--interactive");
    let checkpoint_path = args.value("--checkpoint");
    let checkpoint_every = args.number::<u64>("--checkpoint-every")?;
    let resume_path = args.value("--resume");
    if checkpoint_every.is_some() != checkpoint_path.is_some() {
        return Err(usage_err(
            "--checkpoint FILE and --checkpoint-every N go together",
        ));
    }
    if checkpoint_every == Some(0) {
        return Err(usage_err("--checkpoint-every needs a positive interval"));
    }

    let design = load_design(file)?;
    for w in design.warnings() {
        let _ = writeln!(out, "{w}");
    }

    // The whole run goes through one Session: the registry engine, the
    // caller's output stream as the sink, stdin as the stimulus.
    let mut session = Session::builder(&design)
        .engine_named(
            rtl_cosim::registry(),
            engine,
            &EngineOptions {
                trace,
                ..EngineOptions::default()
            },
        )
        .map_err(usage_err)?
        .sink(WriteSink::new(&mut *out))
        .stimulus(ReaderInput::new(stdin))
        .build();
    if let Some(path) = resume_path {
        session
            .resume_from(path)
            .map_err(|e| load_err(format!("cannot resume from {path}: {e}")))?;
    }

    let mut last = cycles.or(design.cycles()).unwrap_or(0);
    if interactive && last == 0 {
        // The Appendix A prompt: "If the number of cycles is not
        // specified, you will be asked how many cycles to execute".
        prompt(&mut session, "Number of cycles to trace")?;
        last = session.stimulus_mut().read_int().unwrap_or(0);
    } else if !interactive && cycles.is_none() && design.cycles().is_none() {
        return Err(usage_err(
            "no cycle count: pass --cycles, add '= n' to the specification, or use --interactive",
        ));
    }

    loop {
        drive_checkpointed(&mut session, last, checkpoint_every, checkpoint_path)?;
        if !interactive {
            break;
        }
        // "After those cycles have been executed, you will again be
        // prompted for the cycle number to continue to."
        prompt(&mut session, "Continue to cycle (0 to quit)")?;
        let next = session.stimulus_mut().read_int().unwrap_or(0);
        if next < session.cycle() {
            break;
        }
        last = next;
    }

    let stats = session
        .engine()
        .stats()
        .filter(|_| want_stats)
        .map(|s| s.report(&design));
    drop(session);
    if let Some(report) = stats {
        let _ = out.write_all(report.as_bytes());
    }
    Ok(())
}

/// Writes an interactive prompt line through the session's sink (the same
/// stream the trace goes to).
fn prompt(session: &mut Session<'_>, line: &str) -> Result<(), CliError> {
    session
        .write_text(format!("{line}\n").as_bytes())
        .map_err(sim_err)
}

/// Runs to the `= last` bound, writing a checkpoint at every
/// `--checkpoint-every` cycle boundary along the way.
fn drive_checkpointed(
    session: &mut Session<'_>,
    last: i64,
    every: Option<u64>,
    path: Option<&str>,
) -> Result<(), CliError> {
    let every = every.filter(|&n| n > 0).map(|n| n as i64);
    loop {
        let current = session.cycle();
        if current > last {
            return Ok(());
        }
        let stop_at = match every {
            // Pause at the next multiple of `every` (Until::Cycle(n) runs
            // while the counter is <= n, so pass boundary - 1).
            Some(n) => ((current / n + 1) * n - 1).min(last),
            None => last,
        };
        session
            .run(Until::Cycle(stop_at))
            .into_result()
            .map_err(sim_err)?;
        if let (Some(n), Some(path)) = (every, path) {
            if session.cycle() % n == 0 && session.cycle() <= last {
                session
                    .checkpoint_to(path)
                    .map_err(|e| load_err(format!("cannot write checkpoint {path}: {e}")))?;
            }
        }
    }
}

fn compile(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let file = file(args)?;
    let backend = args.value("--backend").unwrap_or("rust");
    let output = args.value("-o");
    let options = EmitOptions {
        cycles: args.number("--cycles")?,
        interactive: args.has("--interactive"),
        opt: if args.has("--no-opt") {
            OptOptions::none()
        } else {
            OptOptions::full()
        },
        ..EmitOptions::default()
    };

    let design = load_design(file)?;
    let source = match backend {
        "rust" => rtl_compile::emit_rust(&design, &options),
        "pascal" => rtl_compile::emit_pascal(&design, &options),
        other => return Err(usage_err(format!("unknown backend {other:?}"))),
    };
    match output {
        Some(path) => std::fs::write(path, source)
            .map_err(|e| load_err(format!("cannot write {path}: {e}")))?,
        None => {
            let _ = out.write_all(source.as_bytes());
        }
    }
    Ok(())
}

fn netlist(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let file = file(args)?;
    let format = args.value("--format").unwrap_or("report");
    let design = load_design(file)?;
    let nl = rtl_hw::Netlist::extract(&design);
    let text = match format {
        "report" => rtl_hw::report::full_report(&design),
        "dot" => rtl_hw::dot::to_dot(&design, &nl),
        "wiring" => rtl_hw::report::wiring_list(&design, &nl),
        other => return Err(usage_err(format!("unknown format {other:?}"))),
    };
    let _ = out.write_all(text.as_bytes());
    Ok(())
}

fn vcd_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let file = file(args)?;
    let cycles = args.number::<i64>("--cycles")?;
    let output = args.value("-o");
    let design = load_design(file)?;
    let total = cycles.or(design.cycles()).ok_or_else(|| {
        usage_err("no cycle count: pass --cycles or add '= n' to the specification")
    })? + 1;

    let vm = Vm::with_options(&design, OptOptions::full(), false);
    let doc = rtl_core::vcd::dump(vm, total as u64, &rtl_core::vcd::VcdOptions::default())
        .map_err(sim_err)?;
    match output {
        Some(path) => {
            std::fs::write(path, doc).map_err(|e| load_err(format!("cannot write {path}: {e}")))?
        }
        None => {
            let _ = out.write_all(&doc);
        }
    }
    Ok(())
}

fn spec_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let name = args
        .positional()
        .ok_or_else(|| usage_err("spec needs a name"))?;
    let text = match name {
        "sieve" => {
            let w = rtl_machines::stack::sieve_workload(20);
            rtl_machines::stack::rtl::spec_source(&w.program, Some(w.cycles))
        }
        "tiny" => {
            let image = rtl_machines::tiny::divider_image(17, 5);
            rtl_machines::tiny::rtl::spec_source(&image, Some(200))
        }
        other => rtl_machines::classic::source(other)
            .ok_or_else(|| usage_err(format!("unknown spec {other:?}")))?
            .to_string(),
    };
    let _ = out.write_all(text.as_bytes());
    Ok(())
}

fn fig(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let id = args
        .positional()
        .ok_or_else(|| usage_err("fig needs an id"))?;
    match id {
        "3.1" => fig_3_1(out),
        "4.1" => fig_codegen(out, rtl_machines::classic::FIG4_1, "Figure 4.1"),
        "4.2" => fig_codegen(out, rtl_machines::classic::FIG4_2, "Figure 4.2"),
        "4.3" => fig_codegen(out, rtl_machines::classic::FIG4_3, "Figure 4.3"),
        "5.1" => fig_5_1_quick(out),
        other => Err(usage_err(format!("unknown figure {other:?}"))),
    }
}

fn fig_3_1(out: &mut dyn Write) -> Result<(), CliError> {
    let _ = writeln!(out, "Figure 3.1 — bit concatenation mem.3.4,#01,count.1");
    let _ = writeln!(
        out,
        "with mem = 24 (binary 11000) and count = 2 (binary 10):"
    );
    let design = Design::from_source(rtl_machines::classic::FIG3_1).map_err(load_err)?;
    Session::over(Interpreter::new(&design))
        .sink(WriteSink::new(&mut *out))
        .build()
        .run(Until::Spec)
        .into_result()
        .map_err(sim_err)?;
    let _ = writeln!(out, "cat = 27 = binary 11011 (mem bits | 01 | count bit)");
    Ok(())
}

fn fig_codegen(out: &mut dyn Write, src: &str, title: &str) -> Result<(), CliError> {
    let design = Design::from_source(src).map_err(load_err)?;
    let _ = writeln!(out, "{title} — specification:");
    let _ = writeln!(out, "{src}");
    let _ = writeln!(out, "{title} — Pascal generated by the ASIM II backend:");
    let pascal = rtl_compile::emit_pascal(&design, &EmitOptions::default());
    let _ = out.write_all(pascal.as_bytes());
    let _ = writeln!(out);
    let _ = writeln!(out, "{title} — Rust generated by the asim2 backend:");
    let rust = rtl_compile::emit_rust(&design, &EmitOptions::default());
    let _ = out.write_all(rust.as_bytes());
    Ok(())
}

/// A quick, in-process cut of the Figure 5.1 comparison (interpreter vs.
/// compiled VM on the sieve). The full pipeline including `rustc` lives in
/// `cargo run -p rtl-bench --bin fig5_1_table`.
fn fig_5_1_quick(out: &mut dyn Write) -> Result<(), CliError> {
    use std::time::Instant;
    let w = rtl_machines::stack::sieve_workload(20);
    let spec = rtl_machines::stack::rtl::spec(&w.program, Some(w.cycles));
    let design = Design::elaborate(&spec).map_err(load_err)?;

    let t = Instant::now();
    Session::over(Interpreter::new(&design))
        .build()
        .run(Until::Spec)
        .into_result()
        .map_err(sim_err)?;
    let interp_time = t.elapsed();

    let t = Instant::now();
    Session::over(Vm::new(&design))
        .build()
        .run(Until::Spec)
        .into_result()
        .map_err(sim_err)?;
    let vm_time = t.elapsed();

    let _ = writeln!(
        out,
        "Figure 5.1 (quick cut) — sieve, {} cycles:",
        w.cycles + 1
    );
    let _ = writeln!(out, "  ASIM   (interpreter)  {:>10.3?}", interp_time);
    let _ = writeln!(out, "  ASIM II (compiled VM) {:>10.3?}", vm_time);
    let _ = writeln!(
        out,
        "  speedup: {:.1}x (paper: ~20x simulation-only; see rtl-bench for the full table)",
        interp_time.as_secs_f64() / vm_time.as_secs_f64().max(1e-9)
    );
    Ok(())
}

/// Flags shared by `cosim` and `fuzz`: engine list (validated against the
/// open registry, so subprocess lanes like `rust` work too) and lockstep
/// tuning.
fn parse_engines(args: &Args) -> Result<Vec<String>, CliError> {
    let list = args.value("--engines").unwrap_or("interp,vm");
    rtl_cosim::registry().parse_list(list).map_err(usage_err)
}

fn cosim_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let file = args.positional();
    let engines = parse_engines(args)?;
    let cycles = args.number::<u64>("--cycles")?;
    let compare_every = args.number::<u64>("--compare-every")?.unwrap_or(1);
    let compare = match args.value("--compare") {
        Some(list) => rtl_core::observe::CompareMode::parse_list(list).map_err(usage_err)?,
        None => vec![rtl_core::observe::CompareMode::All],
    };
    let checkpoint_path = args.value("--checkpoint");
    let checkpoint_every = args.number::<u64>("--checkpoint-every")?;
    if checkpoint_every.is_some() && checkpoint_path.is_none() {
        return Err(usage_err("--checkpoint-every needs --checkpoint FILE"));
    }
    if checkpoint_every == Some(0) {
        return Err(usage_err("--checkpoint-every needs a positive interval"));
    }
    let files = rtl_cosim::CheckpointFiles {
        save: checkpoint_path.map(|path| (path.into(), checkpoint_every.unwrap_or(256))),
        resume: args.value("--resume").map(std::path::PathBuf::from),
    };
    let checkpoint = (files.save.is_some() || files.resume.is_some())
        .then(|| rtl_cosim::Checkpoints::new(files));
    let dump_divergence = args.value("--dump-divergence");
    let export_digests = args.value("--export-digests").map(std::path::PathBuf::from);
    let check_digests = args.value("--check-digests").map(std::path::PathBuf::from);
    if (checkpoint.is_some()
        || dump_divergence.is_some()
        || export_digests.is_some()
        || check_digests.is_some())
        && file.is_none()
        && args.value("--scenario").is_none()
    {
        return Err(usage_err(
            "--checkpoint/--resume/--dump-divergence/--export-digests/--check-digests \
             apply to a single scenario (pass FILE or --scenario)",
        ));
    }
    let options = rtl_cosim::CosimOptions {
        compare_every: compare_every.max(1),
        compare,
        checkpoint,
        export_digests,
        check_digests,
        lint_oracle: args.has("--lint-oracle"),
        ..rtl_cosim::CosimOptions::default()
    };

    // One scenario (a file or a named corpus entry), or the full corpus.
    match scenario_arg(file, args, cycles)? {
        Some(scenario) => {
            let outcome =
                rtl_cosim::run_scenario_names(rtl_cosim::registry(), &engines, &scenario, &options)
                    .map_err(load_err)?;
            dump_divergent_window(&engines, &scenario, &outcome, dump_divergence, out)?;
            report_single(&scenario.name, outcome, out)
        }
        None => {
            let report =
                rtl_cosim::run_corpus_names(rtl_cosim::registry(), &engines, cycles, &options)
                    .map_err(load_err)?;
            let _ = write!(out, "{report}");
            let diverged = report.divergences().count();
            let halts = report.halts().count();
            if diverged > 0 {
                Err(CliError {
                    code: 3,
                    message: format!("cosim found {diverged} divergence(s)"),
                })
            } else if halts > 0 {
                Err(CliError {
                    code: 3,
                    message: format!(
                        "{halts} scenario(s) halted before their horizon (nothing diverged, \
                         but the halted cycles were not verified)"
                    ),
                })
            } else {
                Ok(())
            }
        }
    }
}

/// The one scenario a `cosim` or `profile` command names: a spec FILE
/// (labelled by its path, no stimulus) or a `--scenario` corpus entry, at
/// `--cycles` when given. A FILE's default horizon is its own `= n`
/// clause plus one, else [`DEFAULT_CYCLES`](rtl_machines::scenarios::DEFAULT_CYCLES).
/// `None` when neither is given.
fn scenario_arg(
    file: Option<&str>,
    args: &Args,
    cycles: Option<u64>,
) -> Result<Option<Scenario>, CliError> {
    match (file, args.value("--scenario")) {
        (Some(_), Some(_)) => Err(usage_err("pass either FILE or --scenario, not both")),
        (None, None) => Ok(None),
        (Some(path), None) => {
            let source = std::fs::read_to_string(path)
                .map_err(|e| load_err(format!("cannot read {path}: {e}")))?;
            // Elaborate only when the horizon must come from the spec's
            // own `= n` clause (the caller elaborates again; with --cycles
            // given, the file is elaborated exactly once).
            let horizon = match cycles {
                Some(n) => n,
                None => rtl_core::Design::from_source(&source)
                    .map_err(load_err)?
                    .cycles()
                    .and_then(|n| u64::try_from(n + 1).ok())
                    .unwrap_or(rtl_machines::scenarios::DEFAULT_CYCLES),
            };
            Ok(Some(Scenario {
                name: path.to_string(),
                source,
                cycles: horizon,
                input: Vec::new(),
            }))
        }
        (None, Some(name)) => {
            let scenario = rtl_machines::scenarios::by_name(name).ok_or_else(|| {
                let known = rtl_machines::scenarios::names().join(", ");
                usage_err(format!("unknown scenario {name:?} (known: {known})"))
            })?;
            Ok(Some(match cycles {
                Some(n) => scenario.with_cycles(n),
                None => scenario,
            }))
        }
    }
}

/// `--dump-divergence DIR`: on a divergence, replay every stepped lane
/// and write the window of cycles ending at the divergence as one VCD
/// document per lane — side-by-side waveforms of the disagreement.
fn dump_divergent_window(
    engines: &[String],
    scenario: &rtl_machines::Scenario,
    outcome: &rtl_cosim::CosimOutcome,
    dir: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (Some(dir), rtl_cosim::CosimOutcome::Divergence(report)) = (dir, outcome) else {
        return Ok(());
    };
    let dumps = rtl_cosim::wavedump::dump_divergence(
        rtl_cosim::registry(),
        engines,
        scenario,
        u64::try_from(report.cycle).unwrap_or(0),
        rtl_cosim::wavedump::DEFAULT_WINDOW,
        std::path::Path::new(dir),
    )
    .map_err(load_err)?;
    for dump in dumps {
        let _ = writeln!(
            out,
            "waveform window (cycles {}..{}, timestamps relative): {}",
            dump.start,
            dump.end,
            dump.path.display()
        );
    }
    Ok(())
}

/// Prints a single-scenario outcome. A unanimous runtime halt is reported
/// as a runtime error (exit 3), matching `asim2 run` on the same design —
/// the engines agreeing about a crash does not verify the requested
/// horizon.
fn report_single(
    name: &str,
    outcome: rtl_cosim::CosimOutcome,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    match outcome {
        rtl_cosim::CosimOutcome::Agreement {
            cycles,
            stop: StopReason::CycleLimit,
            ..
        } => {
            let _ = writeln!(out, "{name}: {cycles} cycles verified, no divergence");
            Ok(())
        }
        rtl_cosim::CosimOutcome::Agreement { cycles, stop, .. } => {
            let _ = writeln!(out, "{name}: {cycles} cycles verified, no divergence");
            Err(CliError {
                code: 3,
                message: format!("unanimous runtime halt (all engines agree): {stop}"),
            })
        }
        rtl_cosim::CosimOutcome::Divergence(report) => {
            let _ = write!(out, "{report}");
            Err(CliError {
                code: 3,
                message: "cosim found a divergence".into(),
            })
        }
    }
}

fn fuzz_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut options = rtl_cosim::FuzzOptions {
        engines: parse_engines(args)?,
        ..rtl_cosim::FuzzOptions::default()
    };
    if let Some(seed) = args.number("--seed")? {
        options.seed = seed;
    }
    if let Some(cases) = args.number::<u64>("--cases")? {
        options.cases = u32::try_from(cases).map_err(|_| usage_err("--cases is too large"))?;
    }
    if let Some(cycles) = args.number("--cycles")? {
        options.generator.cycles = cycles;
    }
    if let Some(size) = args.number::<u64>("--size")? {
        options.generator.size = size as usize;
    }
    let report = rtl_cosim::run_fuzz(&options).map_err(load_err)?;
    let _ = write!(out, "{report}");
    if !report.clean() {
        return Err(CliError {
            code: 3,
            message: "fuzz found divergences".into(),
        });
    }
    Ok(())
}

/// `asim2 profile` — run one engine with the execution-profile tap on
/// and print the hot-component table (or the raw `asim2-profile v1`
/// document with `--format json`). The output is a pure function of
/// (design, stimulus, engine), so two runs print identical bytes.
fn profile_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let engine = args.value("--engine").unwrap_or("interp");
    let format = args.value("--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(usage_err(format!(
            "unknown profile format {format:?} (expected text or json)"
        )));
    }
    let top = args.number::<u64>("--top")?;
    let cycles = args.number("--cycles")?;

    // One scenario: a spec file or a named corpus entry, like cosim.
    let scenario = scenario_arg(args.positional(), args, cycles)?
        .ok_or_else(|| usage_err("profile needs a FILE or --scenario NAME"))?;

    let design = Design::from_source(&scenario.source).map_err(load_err)?;
    let hook = rtl_core::ProfileHook::collecting();
    let mut session = Session::builder(&design)
        .engine_named(
            rtl_cosim::registry(),
            engine,
            &EngineOptions {
                trace: false,
                profile: hook.clone(),
            },
        )
        .map_err(usage_err)?
        .scripted(scenario.input.iter().copied())
        .build();
    let last = i64::try_from(scenario.cycles.saturating_sub(1)).unwrap_or(i64::MAX);
    session
        .run(Until::Cycle(last))
        .into_result()
        .map_err(sim_err)?;
    let executed = session.cycle();
    // Dropping the session drops the engine, flushing its lane tally.
    drop(session);
    let profile = hook.snapshot();

    if format == "json" {
        let _ = out.write_all(profile.render().as_bytes());
        return Ok(());
    }
    let rows = profile.components();
    let shown = match top {
        Some(n) => usize::try_from(n).unwrap_or(usize::MAX).min(rows.len()),
        None => rows.len(),
    };
    let _ = writeln!(
        out,
        "profile: {} — engine {engine}, {executed} cycle(s), {} event(s) across {} component(s)",
        scenario.name,
        profile.total_events(),
        rows.len()
    );
    let width = rows
        .iter()
        .take(shown)
        .map(|r| r.name.len())
        .max()
        .unwrap_or(0)
        .max("component".len());
    let _ = writeln!(
        out,
        "  {:<width$}  {:>10}  {:>10}  {:>10}  {:>8}",
        "component", "events", "evals", "changes", "activity"
    );
    for row in rows.iter().take(shown) {
        let activity = match row.activity() {
            Some(a) => format!("{:>7.1}%", a * 100.0),
            None => "       -".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<width$}  {:>10}  {:>10}  {:>10}  {activity}",
            row.name, row.events, row.evals, row.changes
        );
    }
    if shown < rows.len() {
        let _ = writeln!(
            out,
            "  ... {} more component(s); see --top",
            rows.len() - shown
        );
    }
    Ok(())
}

/// Maps a campaign-layer failure onto the tool's exit-code conventions:
/// configuration problems read as usage errors (1), corrupt state and
/// lane/toolchain failures as load errors (2).
fn campaign_err(e: rtl_campaign::CampaignError) -> CliError {
    use rtl_campaign::CampaignError;
    match e {
        CampaignError::Config(m) => usage_err(m),
        other => load_err(other),
    }
}

/// Live campaign progress, written to stderr so stdout stays the
/// deterministic report. Rate-limited: at most one line per refresh
/// period (plus the final case), so a 10k-case sweep does not write 10k
/// lines and CI logs stop interleaving progress with test output.
/// `--quiet` silences it entirely; `--progress=MS` tunes the period.
struct ProgressReporter<'a> {
    err: &'a mut dyn Write,
    enabled: bool,
    period: std::time::Duration,
    started: std::time::Instant,
    last_line: Option<std::time::Instant>,
    completed: u32,
    agreed: u32,
    diverged: u32,
}

impl<'a> ProgressReporter<'a> {
    /// Default refresh period between progress lines, in milliseconds.
    const DEFAULT_PERIOD_MS: u64 = 1000;

    fn new(err: &'a mut dyn Write, enabled: bool, period_ms: u64) -> Self {
        ProgressReporter {
            err,
            enabled,
            period: std::time::Duration::from_millis(period_ms),
            started: std::time::Instant::now(),
            last_line: None,
            completed: 0,
            agreed: 0,
            diverged: 0,
        }
    }
}

impl rtl_campaign::Progress for ProgressReporter<'_> {
    fn case_done(&mut self, record: &rtl_campaign::CaseRecord, done: u32, total: u32) {
        self.completed += 1;
        match &record.status {
            rtl_campaign::CaseStatus::Agreed => self.agreed += 1,
            rtl_campaign::CaseStatus::Diverged { .. } => self.diverged += 1,
            _ => {}
        }
        if !self.enabled {
            return;
        }
        let now = std::time::Instant::now();
        let due = match self.last_line {
            None => true,
            Some(last) => now.duration_since(last) >= self.period,
        };
        if !due && done != total {
            return;
        }
        self.last_line = Some(now);
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = f64::from(self.completed) / secs;
        let eta = f64::from(total.saturating_sub(done)) / rate.max(1e-9);
        let _ = writeln!(
            self.err,
            "[{done}/{total}] {} agreed, {} diverged, {rate:.1} cases/s, ETA {eta:.0}s",
            self.agreed, self.diverged,
        );
    }
}

/// The parsed shared run flags.
struct RunFlags<'a> {
    /// `--workers`, `--limit`, `--case-checkpoint`, `--flight`,
    /// `--metrics-out` and (as `profile`) `--profile-out`.
    options: rtl_campaign::RunOptions,
    /// Where `--profile-out` folds the per-case profiles.
    profile_out: Option<&'a str>,
    /// `--quiet`: no progress or throughput lines.
    quiet: bool,
    /// The `--progress[=MS]` refresh period.
    progress_ms: u64,
}

impl RunFlags<'_> {
    /// The live progress reporter the flags ask for (on by default).
    fn progress<'e>(&self, err: &'e mut dyn Write) -> ProgressReporter<'e> {
        ProgressReporter::new(err, !self.quiet, self.progress_ms)
    }
}

/// Parses the shared run flags (a surface that does not take one never
/// reaches here with it).
fn run_flags<'a>(args: &Args<'a>) -> Result<RunFlags<'a>, CliError> {
    let mut options = rtl_campaign::RunOptions::default();
    if let Some(workers) = args.number::<u64>("--workers")? {
        if workers == 0 {
            return Err(usage_err("--workers needs a positive count"));
        }
        options.workers = workers as usize;
    }
    if let Some(limit) = args.number::<u64>("--limit")? {
        options.limit = Some(u32::try_from(limit).map_err(|_| usage_err("--limit is too large"))?);
    }
    options.case_checkpoint = args.has("--case-checkpoint");
    options.flight = args.has("--flight");
    options.recorder = match args.value("--metrics-out") {
        None => rtl_core::Recorder::disabled(),
        Some(path) => rtl_core::Recorder::to_file(std::path::Path::new(path))
            .map_err(|e| load_err(format!("cannot write metrics to {path}: {e}")))?,
    };
    let profile_out = args.value("--profile-out");
    options.profile = profile_out.is_some();
    let mut progress_ms = ProgressReporter::DEFAULT_PERIOD_MS;
    if let Some(ms) = args.value("--progress") {
        progress_ms = ms
            .parse()
            .map_err(|_| usage_err(format!("--progress needs milliseconds, got {ms:?}")))?;
    }
    Ok(RunFlags {
        options,
        profile_out,
        quiet: args.has("--quiet"),
        progress_ms,
    })
}

/// `--engines LIST`, checked against the campaign registry.
fn engines_flag(args: &Args) -> Result<Option<Vec<String>>, CliError> {
    args.value("--engines")
        .map(|list| {
            rtl_campaign::campaign_registry(None)
                .parse_list(list)
                .map_err(usage_err)
        })
        .transpose()
}

/// Parses the shared config flags over the default configuration.
fn config_flags(args: &Args) -> Result<rtl_campaign::CampaignConfig, CliError> {
    config_over(rtl_campaign::CampaignConfig::default(), args)
}

/// Parses the shared config flags over `config`.
fn config_over(
    mut config: rtl_campaign::CampaignConfig,
    args: &Args,
) -> Result<rtl_campaign::CampaignConfig, CliError> {
    if let Some(engines) = engines_flag(args)? {
        config.engines = engines;
    }
    if let Some(seed) = args.number("--seed")? {
        config.seed = seed;
    }
    if let Some(cases) = args.number::<u64>("--cases")? {
        config.cases = u32::try_from(cases).map_err(|_| usage_err("--cases is too large"))?;
    }
    if let Some(cycles) = args.number("--cycles")? {
        config.generator.cycles = cycles;
    }
    if let Some(size) = args.number::<u64>("--size")? {
        config.generator.size = size as usize;
    }
    if let Some(stride) = args.number::<u64>("--compare-every")? {
        config.compare_every = stride.max(1);
    }
    config.lint_oracle |= args.has("--lint-oracle");
    Ok(config)
}

/// The options `campaign shrink` probes with: those of the campaign
/// living in `dir`, when there is one, as the campaign's own shrink
/// takes them (engines, generator, stride and lint oracle), or the
/// defaults; flags override. A shrink must probe the scenario the
/// campaign flagged, not a generic one.
fn shrink_options(
    args: &Args,
    dir: &rtl_campaign::CampaignDir,
) -> Result<rtl_cosim::FuzzOptions, CliError> {
    let config = if dir.manifest().exists() {
        dir.load().map_err(campaign_err)?
    } else {
        rtl_campaign::CampaignConfig::default()
    };
    Ok(config_over(config, args)?.fuzz_options())
}

fn campaign_cmd(args: &Args, out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let dir = rtl_campaign::CampaignDir::new(
        args.value("--dir")
            .ok_or_else(|| usage_err("campaign needs --dir DIR"))?,
    );

    match args.name {
        "campaign run" | "campaign resume" => {
            let run = run_flags(args)?;
            let config = if args.name == "campaign run" {
                Some(config_flags(args)?)
            } else {
                None
            };
            let mut progress = run.progress(err);
            let report = match &config {
                Some(config) => rtl_campaign::run(&dir, config, &run.options, &mut progress),
                None => rtl_campaign::resume(&dir, &run.options, &mut progress),
            }
            .map_err(campaign_err)?;
            run.options.recorder.flush();
            write_profile_out(&dir, &report, run.profile_out)?;
            let _ = write!(out, "{report}");
            if !run.quiet {
                let secs = report.elapsed.as_secs_f64().max(1e-9);
                let _ = writeln!(
                    err,
                    "throughput: {} cases with {} worker(s) in {:.2}s ({:.1} cases/s)",
                    report.completed(),
                    run.options.workers,
                    secs,
                    f64::from(report.completed()) / secs,
                );
            }
            verdict(Surface::Campaign(&report), err)
        }
        "campaign export" => {
            let to = rtl_campaign::CampaignDir::new(
                args.value("--out")
                    .ok_or_else(|| usage_err("campaign export needs --out DIR"))?,
            );
            let (records, entries) = dir.export(&to).map_err(campaign_err)?;
            let _ = writeln!(
                out,
                "exported {records} case record(s) to {} and {entries} corpus entr{} to {}",
                to.cases().display(),
                if entries == 1 { "y" } else { "ies" },
                to.corpus().display()
            );
            Ok(())
        }
        "campaign replay" => {
            let engines = engines_flag(args)?;
            let report =
                rtl_campaign::replay_corpus(&dir, engines.as_deref()).map_err(campaign_err)?;
            let _ = write!(out, "{report}");
            let reproduced = report.reproduced().count();
            if reproduced > 0 {
                Err(CliError {
                    code: 3,
                    message: format!("{reproduced} corpus divergence(s) reproduced"),
                })
            } else if !report.clean() {
                Err(CliError {
                    code: 3,
                    message: "corpus replay hit runtime halts (nothing verified past them)".into(),
                })
            } else {
                Ok(())
            }
        }
        _ => {
            let seed = args
                .number::<u64>("--seed")?
                .ok_or_else(|| usage_err("campaign shrink needs --seed N"))?;
            let rtl_cosim::FuzzOptions {
                engines,
                generator,
                cosim,
                ..
            } = shrink_options(args, &dir)?;
            let stride = cosim.compare_every;
            let cache = std::sync::Arc::new(rtl_compile::BinaryCache::at_dir(dir.bin_cache()));
            let registry = rtl_campaign::campaign_registry(Some(cache));
            let shrunk =
                rtl_campaign::shrink_divergence(&registry, &engines, seed, &generator, &cosim)
                    .map_err(campaign_err)?;
            match shrunk {
                None => {
                    let _ = writeln!(
                        out,
                        "seed {seed}: no divergence across [{}] — nothing to shrink",
                        engines.join(", ")
                    );
                    Ok(())
                }
                Some(shrunk) => {
                    let entry =
                        rtl_campaign::corpus::save(&dir.corpus(), &shrunk, &engines, stride)
                            .map_err(campaign_err)?;
                    let _ = writeln!(
                        out,
                        "seed {seed}: shrunk to size {}, {} cycles, {} stimulus words \
                         in {} probes -> corpus {}",
                        shrunk.size, shrunk.cycles, shrunk.input_len, shrunk.attempts, entry.name,
                    );
                    let _ = write!(out, "{}", shrunk.report);
                    Err(CliError {
                        code: 3,
                        message: "campaign shrink archived a divergence".into(),
                    })
                }
            }
        }
    }
}

/// `asim2 campaign shard plan|run|merge` — distributed campaigns: plan a
/// partition, execute one shard per machine into a self-contained
/// directory, merge the directories back into one canonical campaign.
fn shard_cmd(args: &Args, out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    use rtl_campaign::CampaignDir;
    use rtl_dist::ShardPlan;

    let plan_path = std::path::PathBuf::from(args.value("--plan").unwrap_or("shard-plan.json"));

    match args.name {
        "campaign shard plan" => {
            let shards = args
                .number::<u64>("--shards")?
                .ok_or_else(|| usage_err("campaign shard plan needs --shards K"))?;
            let shards = u32::try_from(shards).map_err(|_| usage_err("--shards is too large"))?;
            let plan = ShardPlan::partition(config_flags(args)?, shards).map_err(campaign_err)?;
            plan.save(&plan_path).map_err(campaign_err)?;
            let _ = writeln!(
                out,
                "plan: {} cases from seed {} across {} shard(s) -> {}",
                plan.config.cases,
                plan.config.seed,
                plan.shards.len(),
                plan_path.display()
            );
            for spec in &plan.shards {
                let _ = writeln!(
                    out,
                    "  shard {}: cases {}..{} ({} cases)",
                    spec.index,
                    spec.start,
                    spec.end,
                    spec.cases()
                );
            }
            Ok(())
        }
        "campaign shard run" => {
            let plan = ShardPlan::load(&plan_path).map_err(campaign_err)?;
            let index = args
                .number::<u64>("--shard")?
                .ok_or_else(|| usage_err("campaign shard run needs --shard I"))?;
            let index = u32::try_from(index).map_err(|_| usage_err("--shard is too large"))?;
            let dir = CampaignDir::new(
                args.value("--dir")
                    .ok_or_else(|| usage_err("campaign shard run needs --dir DIR"))?,
            );
            let run = run_flags(args)?;
            let mut progress = run.progress(err);
            let report = rtl_dist::run_shard(&plan, index, &dir, &run.options, &mut progress)
                .map_err(campaign_err)?;
            run.options.recorder.flush();
            write_profile_out(&dir, &report.report, run.profile_out)?;
            let _ = write!(out, "{report}");
            verdict(Surface::Shard(&report), err)
        }
        _ => {
            let plan = ShardPlan::load(&plan_path).map_err(campaign_err)?;
            let dirs: Vec<std::path::PathBuf> = args
                .value("--shards")
                .ok_or_else(|| usage_err("campaign shard merge needs --shards DIR1,DIR2,..."))?
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(std::path::PathBuf::from)
                .collect();
            let out_dir = CampaignDir::new(
                args.value("--out")
                    .ok_or_else(|| usage_err("campaign shard merge needs --out DIR"))?,
            );
            let run = run_flags(args)?;
            let recorder = &run.options.recorder;
            let report =
                rtl_dist::merge_with(&plan, &dirs, &out_dir, recorder).map_err(campaign_err)?;
            recorder.flush();
            write_profile_out(&out_dir, &report, run.profile_out)?;
            let _ = write!(out, "{report}");
            let _ = writeln!(
                err,
                "merged {} shard(s) into {}",
                dirs.len(),
                out_dir.root().display()
            );
            verdict(Surface::Merge(&report), err)
        }
    }
}

/// `--profile-out F`: folds the per-case profiles of every
/// completed case into one `asim2-profile v1` document. Runs before the
/// exit-status verdict so the profile survives a diverged campaign.
fn write_profile_out(
    dir: &rtl_campaign::CampaignDir,
    report: &rtl_campaign::CampaignReport,
    path: Option<&str>,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    let profile = rtl_campaign::fold_profiles(dir, report).map_err(campaign_err)?;
    std::fs::write(path, profile.render())
        .map_err(|e| load_err(format!("cannot write profile to {path}: {e}")))
}

/// The four surfaces that end in a campaign report, for [`verdict`].
enum Surface<'a> {
    Campaign(&'a rtl_campaign::CampaignReport),
    Shard(&'a rtl_dist::ShardReport),
    Merge(&'a rtl_campaign::CampaignReport),
    Fleet(&'a rtl_campaign::CampaignReport),
}

/// The one campaign verdict: clean is exit 0; divergences (and the
/// pre-seeded corpus divergences a campaign's replay reproduced) are
/// exit 3; a run `--limit` stopped is exit 0 with the surface's resume
/// hint on stderr; anything else halted, exit 3. A merge has no resume
/// and verified nothing itself, so its lines say what it *has*.
fn verdict(surface: Surface, err: &mut dyn Write) -> Result<(), CliError> {
    let (noun, resume, report) = match &surface {
        Surface::Campaign(r) => ("campaign", Some("run `asim2 campaign resume`"), *r),
        Surface::Shard(r) => ("shard", Some("re-run `campaign shard run`"), &r.report),
        Surface::Merge(r) => ("merged campaign", None, *r),
        Surface::Fleet(r) => ("fleet campaign", Some("serve the same --dir again"), *r),
    };
    // The report counts; only the number of cases it answers for is the
    // surface's own (a shard's records outside its range are `None`).
    let cases = match &surface {
        Surface::Shard(r) => r.spec.cases(),
        _ => report.records.len() as u32,
    };
    let complete = report.completed() == cases;
    let diverged = report.diverged();
    let reproduced = report.replay.as_ref().map_or(0, |r| r.reproduced().count());
    let fail = |message: String| Err(CliError { code: 3, message });
    if report.agreed() == cases && report.replay.as_ref().is_none_or(|r| r.clean()) {
        return Ok(());
    }
    if diverged > 0 || reproduced > 0 {
        let mut parts = Vec::new();
        if diverged > 0 {
            let verb = if resume.is_some() { "found" } else { "has" };
            parts.push(format!("{verb} {diverged} divergence(s)"));
        }
        if reproduced > 0 {
            parts.push(format!(
                "{reproduced} pre-seeded corpus divergence(s) reproduced"
            ));
        }
        let who = match surface {
            Surface::Shard(r) => format!("shard {}", r.spec.index),
            _ => noun.to_string(),
        };
        return fail(format!("{who} {}", parts.join("; ")));
    }
    match resume {
        Some(hint) if !complete => {
            let _ = writeln!(err, "{noun} interrupted at --limit; {hint} to continue");
            Ok(())
        }
        Some(_) => fail(format!(
            "{noun} hit runtime halts/errors (nothing verified past them)"
        )),
        None => fail(format!("{noun} hit runtime halts/errors")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(args: &[&str], stdin: &[u8]) -> (i32, String, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut input = stdin;
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run_with_input(&args, &mut input, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    fn run_ok(args: &[&str]) -> String {
        let (code, out, err) = run_with(args, b"");
        assert_eq!(code, 0, "stderr: {err}");
        out
    }

    fn run_fail(args: &[&str]) -> (i32, String) {
        let (code, _, err) = run_with(args, b"");
        assert_ne!(code, 0);
        (code, err)
    }

    fn tmp_spec(name: &str, content: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("asim-cli-test-{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    const COUNTER: &str = "# c\n= 3\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .";

    #[test]
    fn check_reports_component_count_and_warnings() {
        let p = tmp_spec("check", "# c\nghost x .\nA x 4 1 1 .");
        let out = run_ok(&["check", p.to_str().unwrap()]);
        assert!(out.contains("1 components read."), "{out}");
        assert!(
            out.contains("Warning: ghost declared but not defined."),
            "{out}"
        );
    }

    #[test]
    fn check_verbose_shows_order() {
        let p = tmp_spec("checkv", COUNTER);
        let out = run_ok(&["check", p.to_str().unwrap(), "-v"]);
        assert!(out.contains("evaluation order: next"), "{out}");
        assert!(out.contains("memories: count"), "{out}");
    }

    #[test]
    fn run_both_engines_agree() {
        let p = tmp_spec("run", COUNTER);
        let a = run_ok(&["run", p.to_str().unwrap(), "--engine", "interp"]);
        let b = run_ok(&["run", p.to_str().unwrap(), "--engine", "vm"]);
        assert_eq!(a, b);
        assert!(a.contains("Cycle   3 count= 3"), "{a}");
    }

    #[test]
    fn run_needs_a_cycle_count() {
        let p = tmp_spec("runnc", "# c\nx .\nA x 2 1 0 .");
        let (code, err) = run_fail(&["run", p.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(err.contains("no cycle count"), "{err}");
    }

    #[test]
    fn runtime_errors_exit_3() {
        let p = tmp_spec(
            "runerr",
            "# c\n= 9\nc s n .\nM c 0 n 1 1\nA n 4 c 1\nS s c 1 2 .",
        );
        let (code, err) = run_fail(&["run", p.to_str().unwrap()]);
        assert_eq!(code, 3);
        assert!(err.contains("selector s"), "{err}");
    }

    #[test]
    fn compile_emits_both_backends() {
        let p = tmp_spec("compile", COUNTER);
        let rust = run_ok(&["compile", p.to_str().unwrap()]);
        assert!(rust.contains("fn main()"), "{rust}");
        let pascal = run_ok(&["compile", p.to_str().unwrap(), "--backend", "pascal"]);
        assert!(pascal.contains("program simulator"), "{pascal}");
    }

    #[test]
    fn netlist_formats() {
        let p = tmp_spec("netlist", COUNTER);
        let report = run_ok(&["netlist", p.to_str().unwrap()]);
        assert!(report.contains("bill of materials"), "{report}");
        let dot = run_ok(&["netlist", p.to_str().unwrap(), "--format", "dot"]);
        assert!(dot.starts_with("digraph"), "{dot}");
        let wiring = run_ok(&["netlist", p.to_str().unwrap(), "--format", "wiring"]);
        assert!(wiring.contains("-> count.data"), "{wiring}");
    }

    #[test]
    fn spec_prints_bundled_and_generated() {
        let out = run_ok(&["spec", "counter"]);
        assert!(out.contains("M count"), "{out}");
        let out = run_ok(&["spec", "sieve"]);
        assert!(out.contains("S rom"), "{out}");
        let out = run_ok(&["spec", "tiny"]);
        assert!(out.contains("M mem"), "{out}");
    }

    #[test]
    fn figures_render() {
        let out = run_ok(&["fig", "3.1"]);
        assert!(out.contains("cat= 27"), "{out}");
        let out = run_ok(&["fig", "4.1"]);
        assert!(out.contains("dologic"), "{out}");
        assert!(out.contains("wrapping_add(3048i64)"), "{out}");
        let out = run_ok(&["fig", "4.2"]);
        assert!(out.contains("case ljbindex of"), "{out}");
        let out = run_ok(&["fig", "4.3"]);
        assert!(out.contains("case land(opnmemory, 3) of"), "{out}");
    }

    #[test]
    fn interactive_run_prompts_and_continues() {
        let p = tmp_spec(
            "inter",
            "# c\ncount* next .\nM count 0 next 1 1\nA next 4 count 1 .",
        );
        let (code, out, err) =
            run_with(&["run", p.to_str().unwrap(), "--interactive"], b"2\n5\n0\n");
        assert_eq!(code, 0, "{err}");
        assert!(out.starts_with("Number of cycles to trace\n"), "{out}");
        assert!(
            out.contains("Cycle   2 count= 2\nContinue to cycle (0 to quit)\n"),
            "{out}"
        );
        assert!(
            out.contains("Cycle   5 count= 5\nContinue to cycle (0 to quit)\n"),
            "{out}"
        );
        assert!(!out.contains("Cycle   6"), "{out}");
    }

    #[test]
    fn run_stats_prints_the_access_table() {
        let p = tmp_spec("stats", COUNTER);
        let out = run_ok(&["run", p.to_str().unwrap(), "--stats", "--no-trace"]);
        assert!(out.contains("simulation statistics: 4 cycles"), "{out}");
        assert!(out.contains("total memory accesses: 4"), "{out}");
        let out2 = run_ok(&[
            "run",
            p.to_str().unwrap(),
            "--stats",
            "--no-trace",
            "--engine",
            "interp",
        ]);
        assert_eq!(out, out2, "both engines count identically");
    }

    #[test]
    fn vcd_dump_is_well_formed() {
        let p = tmp_spec("vcd", COUNTER);
        let out = run_ok(&["vcd", p.to_str().unwrap()]);
        assert!(out.contains("$enddefinitions $end"), "{out}");
        assert!(out.contains("$var wire"), "{out}");
        assert!(out.contains("count"), "{out}");
        assert!(out.contains("#0"), "{out}");
    }

    #[test]
    fn usage_errors() {
        let (code, err) = run_fail(&[]);
        assert_eq!(code, 1);
        assert!(err.contains("usage:"), "{err}");
        let (code, _) = run_fail(&["bogus"]);
        assert_eq!(code, 1);
        let (code, _) = run_fail(&["check", "/nonexistent/file.asim"]);
        assert_eq!(code, 2);
    }

    #[test]
    fn cosim_verifies_a_file() {
        let p = tmp_spec("cosim", COUNTER);
        let out = run_ok(&["cosim", p.to_str().unwrap(), "--cycles", "64"]);
        assert!(out.contains("64 cycles verified, no divergence"), "{out}");
    }

    #[test]
    fn cosim_runs_a_named_scenario() {
        let out = run_ok(&["cosim", "--scenario", "classic/counter", "--cycles", "32"]);
        assert!(out.contains("classic/counter"), "{out}");
        assert!(out.contains("no divergence"), "{out}");
    }

    #[test]
    fn cosim_sweeps_the_corpus() {
        // Short horizon overrides keep the in-process test quick; the full
        // 1000+-cycle sweep is tests/equivalence.rs.
        for extra in [
            &["--cycles", "16"][..],
            &["--cycles", "300", "--compare", "vcd,trace"],
        ] {
            let mut args = vec!["cosim", "--engines", "interp,vm,vm-noopt"];
            args.extend_from_slice(extra);
            let out = run_ok(&args);
            assert!(out.contains("cosim corpus sweep"), "{out}");
            assert!(out.contains("stack/sieve"), "{out}");
            assert!(out.contains("0 diverged"), "{out}");
        }
    }

    #[test]
    fn cosim_rejects_bad_engine_lists() {
        let p = tmp_spec("cosim-bad", COUNTER);
        let (code, err) = run_fail(&["cosim", p.to_str().unwrap(), "--engines", "interp"]);
        assert_eq!(code, 1);
        assert!(err.contains("at least two engines"), "{err}");
        let (code, err) = run_fail(&["cosim", p.to_str().unwrap(), "--engines", "interp,warp"]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown engine"), "{err}");
    }

    #[test]
    fn cosim_halt_is_a_runtime_error_like_run() {
        // A spec whose engines unanimously crash verifies nothing past the
        // crash; exit 3 mirrors `asim2 run` on the same design.
        let p = tmp_spec(
            "cosim-halt",
            "# bad\nc s n .\nM c 0 n 1 1\nA n 4 c 1\nS s c 1 2 .",
        );
        let (code, out, err) = run_with(&["cosim", p.to_str().unwrap(), "--cycles", "50"], b"");
        assert_eq!(code, 3, "{err}");
        assert!(out.contains("2 cycles verified"), "{out}");
        assert!(err.contains("unanimous runtime halt"), "{err}");
        assert!(err.contains("selector"), "{err}");
    }

    #[test]
    fn cosim_corpus_override_beyond_registered_horizons() {
        // Regression: --cycles above a scenario's registered horizon used
        // to exhaust the io scenario's stimulus and fail the sweep.
        let out = run_ok(&["cosim", "--cycles", "1100", "--compare-every", "64"]);
        assert!(out.contains("19/19 agreed"), "{out}");
        let io_line = out.lines().find(|l| l.contains("io/accumulator")).unwrap();
        assert!(io_line.contains("1100 cycles  ok"), "{io_line}");
    }

    #[test]
    fn cosim_compare_modes_report_the_same_first_divergent_cycle() {
        // The vm-fault lane corrupts its trace bytes *and* its observed
        // outputs from cycle 40 on, so every lens that sees them pins the
        // identical first divergent cycle, at any stride; no memory cell
        // differs, so the cells lens alone agrees.
        const AT_40: &[&str] = &["at cycle 40"];
        const WINDOW: &[&str] = &["at cycle 40", "| Cycle  40 count# 8"];
        let rows: &[(&[&str], i32, &[&str])] = &[
            (&["--compare", "trace"], 3, WINDOW),
            (&["--compare", "vcd"], 3, AT_40),
            (&["--compare", "trace,vcd,cells"], 3, AT_40),
            (&["--compare", "digest"], 3, AT_40),
            (&["--compare", "all"], 3, AT_40),
            (
                &["--compare", "outputs"],
                3,
                &[
                    "at cycle 40",
                    "output of component 'count' differs",
                    "value 9",
                ],
            ),
            (&["--compare", "cells"], 0, &["no divergence"]),
            (&["--compare-every", "16"], 3, WINDOW),
        ];
        for &(flags, expected_code, expected) in rows {
            let mut args = vec![
                "cosim",
                "--scenario",
                "classic/counter",
                "--cycles",
                "64",
                "--engines",
                "interp,vm-fault",
            ];
            args.extend_from_slice(flags);
            let (code, out, err) = run_with(&args, b"");
            assert_eq!(code, expected_code, "{flags:?}: {err}");
            for text in expected {
                assert!(out.contains(text), "{flags:?}: {out}");
            }
        }
        let (code, err) = run_fail(&[
            "cosim",
            "--scenario",
            "classic/counter",
            "--compare",
            "warp",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown comparator"), "{err}");
    }

    #[test]
    fn cosim_checkpoint_resume_is_byte_identical() {
        // Stop a lockstep case mid-run (phase 1 covers only part of the
        // horizon, leaving its checkpoint file behind, exactly like a
        // kill), then resume to the full horizon in a second invocation:
        // stdout must be byte-identical to one uninterrupted run.
        let ck =
            std::env::temp_dir().join(format!("asim-cli-lockstep-{}.ckpt", std::process::id()));
        let ck = ck.to_str().unwrap();
        for (scenario, phase, every, horizon) in [
            ("classic/counter", "300", "128", "1024"),
            ("stack/sieve", "800", "200", "2341"),
        ] {
            let scenario = ["cosim", "--scenario", scenario, "--cycles"];
            let mut first = scenario.to_vec();
            first.extend([phase, "--checkpoint", ck, "--checkpoint-every", every]);
            let out = run_ok(&first);
            assert!(out.contains(&format!("{phase} cycles verified")), "{out}");
            let mut resume = scenario.to_vec();
            resume.extend([horizon, "--resume", ck]);
            let mut fresh = scenario.to_vec();
            fresh.push(horizon);
            assert_eq!(run_ok(&resume), run_ok(&fresh), "{scenario:?} resumes");
        }
        // Documents of retired versions, in the whole or in a lane, are
        // refused by name.
        let doc = std::fs::read_to_string(ck).unwrap();
        for (current, old) in [
            ("asim2-lockstep v3", "asim2-lockstep v2"),
            ("asim2-checkpoint v2", "asim2-checkpoint v1"),
        ] {
            assert!(doc.contains(current), "{doc}");
            std::fs::write(ck, doc.replace(current, old)).unwrap();
            let (code, err) = run_fail(&[
                "cosim",
                "--scenario",
                "stack/sieve",
                "--cycles",
                "2341",
                "--resume",
                ck,
            ]);
            assert_eq!(code, 2, "{err}");
            assert!(err.contains(old), "{err}");
        }
        let _ = std::fs::remove_file(ck);
    }

    #[test]
    fn cosim_dump_divergence_writes_side_by_side_vcds() {
        let dir = std::env::temp_dir().join(format!("asim-cli-wavedump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (code, out, err) = run_with(
            &[
                "cosim",
                "--scenario",
                "classic/counter",
                "--cycles",
                "64",
                "--engines",
                "interp,vm-fault",
                "--dump-divergence",
                dir.to_str().unwrap(),
            ],
            b"",
        );
        assert_eq!(code, 3, "{err}");
        assert!(out.contains("waveform window (cycles 9..41"), "{out}");
        for lane in ["interp", "vm-fault"] {
            let doc = std::fs::read_to_string(dir.join(format!("{lane}.vcd"))).unwrap();
            assert!(doc.contains("$enddefinitions $end"), "{lane}: {doc}");
        }
        assert_ne!(
            std::fs::read(dir.join("interp.vcd")).unwrap(),
            std::fs::read(dir.join("vm-fault.vcd")).unwrap(),
            "the windows show the disagreement"
        );
        // The flag needs a single scenario, like checkpointing.
        let (code, err) = run_fail(&["cosim", "--dump-divergence", "/tmp/x"]);
        assert_eq!(code, 1);
        assert!(err.contains("single scenario"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cosim_digest_export_and_check_round_trip() {
        let path = std::env::temp_dir().join(format!("asim-cli-digests-{}", std::process::id()));
        let scenario = ["--scenario", "classic/counter", "--cycles", "64"];
        let out = run_ok(&[
            "cosim",
            scenario[0],
            scenario[1],
            scenario[2],
            scenario[3],
            "--export-digests",
            path.to_str().unwrap(),
        ]);
        assert!(out.contains("64 cycles verified"), "{out}");

        // Another "machine" replays the digest stream and agrees…
        let out = run_ok(&[
            "cosim",
            scenario[0],
            scenario[1],
            scenario[2],
            scenario[3],
            "--check-digests",
            path.to_str().unwrap(),
        ]);
        assert!(out.contains("no divergence"), "{out}");

        // …while a corrupted lane is pinned to its trigger cycle by the
        // remote digests alone.
        let (code, out, err) = run_with(
            &[
                "cosim",
                scenario[0],
                scenario[1],
                scenario[2],
                scenario[3],
                "--engines",
                "interp,vm-fault",
                "--compare",
                "digest",
                "--check-digests",
                path.to_str().unwrap(),
            ],
            b"",
        );
        assert_eq!(code, 3, "{err}");
        assert!(out.contains("at cycle 40"), "{out}");
        assert!(out.contains("digest"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cosim_checkpoint_flags_are_validated() {
        let (code, err) = run_fail(&["cosim", "--checkpoint", "/tmp/x.ckpt"]);
        assert_eq!(code, 1);
        assert!(err.contains("single scenario"), "{err}");
        let (code, err) = run_fail(&[
            "cosim",
            "--scenario",
            "classic/counter",
            "--checkpoint-every",
            "64",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("--checkpoint FILE"), "{err}");
    }

    #[test]
    fn fuzz_reports_a_clean_campaign() {
        for (cases, cycles) in [("5", "16"), ("200", "64")] {
            let out = run_ok(&["fuzz", "--seed", "1", "--cases", cases, "--cycles", cycles]);
            let header = format!("fuzz campaign: {cases} cases from seed 1");
            assert!(out.contains(&header), "{out}");
            let summary = format!("summary: {cases}/{cases} agreed, 0 diverged");
            assert!(out.contains(&summary), "{out}");
        }
    }

    #[test]
    fn fuzz_is_deterministic() {
        let args = ["fuzz", "--seed", "9", "--cases", "4", "--cycles", "12"];
        assert_eq!(run_ok(&args), run_ok(&args));
    }

    fn campaign_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asim-cli-campaign-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_run_is_deterministic_across_worker_counts() {
        let quick = |dir: &str, workers: &str| {
            let d = campaign_dir(dir);
            let out = run_ok(&[
                "campaign",
                "run",
                "--dir",
                d.to_str().unwrap(),
                "--cases",
                "6",
                "--seed",
                "3",
                "--cycles",
                "16",
                "--size",
                "8",
                "--workers",
                workers,
            ]);
            let _ = std::fs::remove_dir_all(&d);
            out
        };
        let single = quick("det1", "1");
        assert!(
            single.contains("summary: 6/6 agreed, 0 diverged"),
            "{single}"
        );
        let parallel = quick("det4", "4");
        assert_eq!(
            single, parallel,
            "stdout report is worker-count independent"
        );
    }

    #[test]
    fn campaign_case_checkpoint_matches_a_plain_run() {
        // --case-checkpoint must not change outcomes — it only adds the
        // ability to resume a killed case mid-run — and it cleans its
        // .ckpt files up once each case record is durable. A diverging
        // case hands its own report to the shrink, so with a faulty lane
        // the exported corpus must match too.
        let run_campaign = |name: &str, engines: &str, cycles: &str, extra: &[&str]| {
            let d = campaign_dir(name);
            let mut args = vec![
                "campaign",
                "run",
                "--dir",
                d.to_str().unwrap(),
                "--cases",
                "4",
                "--seed",
                "5",
                "--cycles",
                cycles,
                "--size",
                "8",
                "--engines",
                engines,
            ];
            args.extend_from_slice(extra);
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let mut err = Vec::new();
            let code = run_with_input(&args, &mut &b""[..], &mut out, &mut err);
            let out = String::from_utf8(out).unwrap();
            (d, code, out, String::from_utf8(err).unwrap())
        };
        let exported_corpus = |dir: &std::path::Path| {
            let out = dir.with_extension("export");
            let _ = std::fs::remove_dir_all(&out);
            run_ok(&[
                "campaign",
                "export",
                "--dir",
                dir.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]);
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(out.join("corpus"))
                .map(|entries| {
                    entries
                        .map(|e| {
                            let path = e.unwrap().path();
                            let name = path.file_name().unwrap().to_string_lossy().into_owned();
                            (name, std::fs::read(&path).unwrap())
                        })
                        .collect()
                })
                .unwrap_or_default();
            files.sort();
            let _ = std::fs::remove_dir_all(&out);
            files
        };
        for (tag, engines, cycles, want_code, want_entries) in [
            ("agree", "interp,vm", "16", 0, 0),
            ("diverge", "interp,vm-fault", "64", 3, 4),
        ] {
            let (plain_dir, code, plain, err) =
                run_campaign(&format!("ckpt-{tag}-plain"), engines, cycles, &[]);
            assert_eq!(code, want_code, "{plain}\n{err}");
            let (ckpt_dir, code, checkpointed, err) = run_campaign(
                &format!("ckpt-{tag}-on"),
                engines,
                cycles,
                &["--case-checkpoint"],
            );
            assert_eq!(code, want_code, "{checkpointed}\n{err}");
            assert_eq!(plain, checkpointed, "case checkpointing is outcome-neutral");
            let corpus = exported_corpus(&plain_dir);
            assert_eq!(
                corpus.len(),
                4 * want_entries,
                "{tag}: four files per entry"
            );
            assert!(
                corpus == exported_corpus(&ckpt_dir),
                "{tag}: case checkpointing leaves the corpus as it was"
            );
            let leftovers = std::fs::read_dir(ckpt_dir.join("cases"))
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .path()
                        .extension()
                        .is_some_and(|x| x == "ckpt")
                })
                .count();
            assert_eq!(leftovers, 0, "completed cases leave no checkpoints");
            let _ = std::fs::remove_dir_all(&plain_dir);
            let _ = std::fs::remove_dir_all(&ckpt_dir);
        }
    }

    #[test]
    fn campaign_interrupt_then_resume_completes() {
        let d = campaign_dir("resume");
        let dir = d.to_str().unwrap();
        let (code, out, err) = run_with(
            &[
                "campaign",
                "run",
                "--dir",
                dir,
                "--cases",
                "5",
                "--cycles",
                "16",
                "--size",
                "8",
                "--workers",
                "2",
                "--limit",
                "2",
            ],
            b"",
        );
        assert_eq!(code, 0, "{err}");
        assert!(out.contains("(2/5 cases done"), "{out}");
        let resumed = run_ok(&["campaign", "resume", "--dir", dir, "--workers", "3"]);
        assert!(resumed.contains("summary: 5/5 agreed"), "{resumed}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn campaign_flight_dumps_sidecars_for_divergences() {
        let d = campaign_dir("flight");
        let dir = d.to_str().unwrap();
        let (code, out, err) = run_with(
            &[
                "campaign",
                "run",
                "--dir",
                dir,
                "--cases",
                "4",
                "--seed",
                "1",
                "--cycles",
                "48",
                "--size",
                "10",
                "--engines",
                "interp,vm-fault",
                "--flight",
                "--quiet",
            ],
            b"",
        );
        // The fault lane diverges, so the run exits 3 — with a flight
        // log in the bundle of each diverging case, which `campaign
        // export` renders next to the exported case records.
        assert_eq!(code, 3, "{out}\n{err}");
        let exported = d.with_extension("export");
        run_ok(&[
            "campaign",
            "export",
            "--dir",
            dir,
            "--out",
            exported.to_str().unwrap(),
        ]);
        let sidecars: Vec<_> = std::fs::read_dir(exported.join("cases"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_str().unwrap().ends_with(".flight.jsonl"))
            .collect();
        assert!(!sidecars.is_empty(), "diverging cases dump flight logs");

        let flight = run_ok(&["metrics", "flight", sidecars[0].to_str().unwrap()]);
        assert!(flight.contains("flight recorder:"), "{flight}");
        assert!(flight.contains("trigger:"), "{flight}");
        assert!(flight.contains("diverged at cycle"), "{flight}");

        // The recorder combines with per-case checkpointing.
        let d2 = campaign_dir("flight-checkpointed");
        run_ok(&[
            "campaign",
            "run",
            "--dir",
            d2.to_str().unwrap(),
            "--cases",
            "1",
            "--flight",
            "--case-checkpoint",
        ]);
        let _ = std::fs::remove_dir_all(&d);
        let _ = std::fs::remove_dir_all(&exported);
        let _ = std::fs::remove_dir_all(&d2);
    }

    /// A `--profile-out --flight` diverging run leaves nothing under
    /// `cases/` and `corpus/` but the two canonical logs; `campaign
    /// export` renders every case's flight log as a file that `metrics
    /// flight` reads.
    #[test]
    fn campaign_run_flight_export_metrics_flight() {
        let d = campaign_dir("flight-export");
        let dir = d.to_str().unwrap();
        let profile = d.with_extension("profile.json");
        let (code, out, err) = run_with(
            &[
                "campaign",
                "run",
                "--dir",
                dir,
                "--cases",
                "3",
                "--seed",
                "5",
                "--cycles",
                "48",
                "--size",
                "10",
                "--engines",
                "interp,vm-fault",
                "--flight",
                "--profile-out",
                profile.to_str().unwrap(),
                "--quiet",
            ],
            b"",
        );
        assert_eq!(code, 3, "{out}\n{err}");
        let listing = |sub: &str| -> Vec<String> {
            std::fs::read_dir(d.join(sub))
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(listing("cases"), ["cases.log"]);
        assert_eq!(listing("corpus"), ["corpus.log"]);
        let exported = d.with_extension("export");
        let out = run_ok(&[
            "campaign",
            "export",
            "--dir",
            dir,
            "--out",
            exported.to_str().unwrap(),
        ]);
        assert!(out.contains("exported 3 case record(s)"), "{out}");
        for index in 0..3 {
            let flight = exported.join(format!("cases/case-00000{index}.flight.jsonl"));
            let (code, out, err) = run_with(&["metrics", "flight", flight.to_str().unwrap()], b"");
            assert_eq!(code, 0, "{out}\n{err}");
            assert!(out.contains("flight recorder:"), "{out}");
        }
        let _ = std::fs::remove_dir_all(&d);
        let _ = std::fs::remove_dir_all(&exported);
        let _ = std::fs::remove_file(&profile);
    }

    #[test]
    fn profile_ranks_components_and_is_deterministic() {
        let args = ["profile", "--scenario", "classic/counter", "--cycles", "64"];
        let out = run_ok(&args);
        assert!(out.contains("profile: classic/counter"), "{out}");
        assert!(out.contains("64 cycle(s)"), "{out}");
        assert!(out.contains("count"), "{out}");
        assert_eq!(out, run_ok(&args), "profile output is run-to-run stable");
        let top = run_ok(&["profile", "--scenario", "classic/counter", "--top", "1"]);
        assert!(top.contains("more component(s)"), "{top}");
    }

    #[test]
    fn profile_json_is_a_valid_versioned_document() {
        for args in [
            &["classic/counter", "--cycles", "32", "--engine", "vm"][..],
            &["classic/counter"],
            &["stack/sieve"],
        ] {
            let args = [&["profile", "--format", "json", "--scenario"][..], args].concat();
            let out = run_ok(&args);
            // Parsing checks the versioned format tag.
            let profile = rtl_core::Profile::parse(&out).unwrap();
            assert!(profile.total_events() > 0, "{out}");
            assert_eq!(out, profile.render(), "render/parse round-trips");
            assert_eq!(out, run_ok(&args), "{args:?} is run-to-run stable");
        }
    }

    #[test]
    fn profile_usage_errors() {
        assert_eq!(run_fail(&["profile"]).0, 1);
        let (code, err) = run_fail(&["profile", "--scenario", "classic/warp"]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown scenario"), "{err}");
        let (code, err) = run_fail(&[
            "profile",
            "--scenario",
            "classic/counter",
            "--format",
            "xml",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown profile format"), "{err}");
    }

    #[test]
    fn campaign_profile_out_is_worker_and_resume_independent() {
        let base = [
            "--cases", "4", "--seed", "11", "--cycles", "16", "--size", "8",
        ];
        let run_profiled = |name: &str, workers: &str| {
            let d = campaign_dir(name);
            let prof = d.with_extension("profile.json");
            let mut args = vec!["campaign", "run", "--dir", d.to_str().unwrap()];
            args.extend_from_slice(&base);
            let prof_str = prof.to_str().unwrap().to_string();
            args.extend_from_slice(&["--workers", workers, "--profile-out", &prof_str]);
            run_ok(&args);
            let doc = std::fs::read_to_string(&prof).unwrap();
            let _ = std::fs::remove_dir_all(&d);
            let _ = std::fs::remove_file(&prof);
            doc
        };
        let single = run_profiled("prof1", "1");
        let parallel = run_profiled("prof4", "4");
        assert_eq!(single, parallel, "profile is worker-count independent");
        assert!(
            rtl_core::Profile::parse(&single).unwrap().total_events() > 0,
            "{single}"
        );

        // Interrupt at --limit, then resume with a different worker
        // count: the folded profile must still be byte-identical.
        let d = campaign_dir("prof-resume");
        let prof = d.with_extension("profile.json");
        let prof_str = prof.to_str().unwrap().to_string();
        let mut args = vec!["campaign", "run", "--dir", d.to_str().unwrap()];
        args.extend_from_slice(&base);
        // The interrupted leg profiles too — a case executed without the
        // tap has no profile, and the final fold would refuse it.
        args.extend_from_slice(&["--workers", "2", "--limit", "2", "--profile-out", &prof_str]);
        run_ok(&args);
        run_ok(&[
            "campaign",
            "resume",
            "--dir",
            d.to_str().unwrap(),
            "--workers",
            "3",
            "--profile-out",
            &prof_str,
        ]);
        let resumed = std::fs::read_to_string(&prof).unwrap();
        assert_eq!(single, resumed, "profile survives kill+resume unchanged");
        let _ = std::fs::remove_dir_all(&d);
        let _ = std::fs::remove_file(&prof);
    }

    /// A case checkpoint carries the case's profile tally, so
    /// `--case-checkpoint` folds to the profile a plain run does.
    #[test]
    fn campaign_profile_out_takes_case_checkpoint() {
        let profile = |name: &str, extra: &[&str]| {
            let d = campaign_dir(name);
            let prof = d.with_extension("profile.json");
            let mut args = vec!["campaign", "run", "--dir", d.to_str().unwrap()];
            args.extend(["--cases", "2", "--cycles", "600", "--size", "8"]);
            args.extend(["--profile-out", prof.to_str().unwrap()]);
            args.extend(extra);
            run_ok(&args);
            let doc = std::fs::read_to_string(&prof).unwrap();
            let _ = std::fs::remove_dir_all(&d);
            let _ = std::fs::remove_file(&prof);
            doc
        };
        let plain = profile("prof-plain", &[]);
        assert_eq!(plain, profile("prof-ckpt", &["--case-checkpoint"]));
    }

    #[test]
    fn trace_export_golden_is_valid_monotonic_and_pair_matched() {
        // Golden contract for the Chrome trace export: the output parses
        // as JSON, its traceEvents carry non-decreasing ts, and every
        // "B" has a matching "E" per (name, tid).
        let log = std::env::temp_dir().join(format!("asim-cli-trace-{}.jsonl", std::process::id()));
        let recorder = rtl_obs::Recorder::to_file(&log).unwrap();
        {
            let _outer = recorder.span("campaign", "run");
            for _ in 0..3 {
                drop(recorder.span("campaign", "case"));
            }
            recorder.count("campaign", "cases_executed", 3);
            recorder.mark("campaign", "done", Some("all agreed"));
        }
        recorder.flush();
        let out = run_ok(&["metrics", "trace-export", log.to_str().unwrap()]);
        let doc = rtl_obs::json::Json::parse(&out).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(events.len() >= 9, "4 span pairs + counter + mark: {out}");
        let mut last_ts = 0;
        let mut open: std::collections::HashMap<(String, u64), u64> =
            std::collections::HashMap::new();
        for event in events {
            let ts = event.get("ts").and_then(|t| t.as_u64()).unwrap();
            assert!(ts >= last_ts, "ts must be non-decreasing: {out}");
            last_ts = ts;
            let ph = event.get("ph").and_then(|p| p.as_str()).unwrap();
            if matches!(ph, "B" | "E") {
                let key = (
                    event
                        .get("name")
                        .and_then(|n| n.as_str())
                        .unwrap()
                        .to_string(),
                    event.get("tid").and_then(|t| t.as_u64()).unwrap(),
                );
                let depth = open.entry(key.clone()).or_insert(0);
                if ph == "B" {
                    *depth += 1;
                } else {
                    assert!(*depth > 0, "E without B for {key:?}: {out}");
                    *depth -= 1;
                }
            }
        }
        assert!(open.values().all(|&d| d == 0), "unmatched B: {out}");
        // Deterministic: a second export is byte-identical.
        assert_eq!(
            out,
            run_ok(&["metrics", "trace-export", log.to_str().unwrap()])
        );
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn campaign_fault_pipeline_finds_shrinks_and_replays() {
        let d = campaign_dir("fault");
        let dir = d.to_str().unwrap();
        // The vm-fault lane corrupts trace bytes from cycle 40: every case
        // diverges, is shrunk, and lands in the corpus.
        let (code, out, err) = run_with(
            &[
                "campaign",
                "run",
                "--dir",
                dir,
                "--cases",
                "2",
                "--seed",
                "3",
                "--cycles",
                "48",
                "--size",
                "8",
                "--engines",
                "interp,vm-fault",
                "--workers",
                "2",
            ],
            b"",
        );
        assert_eq!(code, 3, "{out}\n{err}");
        assert!(
            out.contains("DIVERGED at cycle 40 (trace) -> corpus seed-"),
            "{out}"
        );
        assert!(err.contains("campaign found 2 divergence(s)"), "{err}");
        let campaign = rtl_campaign::CampaignDir::new(&d);
        let corpus = rtl_campaign::Frames::scan(
            &campaign,
            0..0,
            &[rtl_campaign::caselog::Kind::Corpus],
            |_, _| Ok(()),
        )
        .unwrap();
        assert!(
            corpus.names().any(|name| name == "seed-3"),
            "corpus archived"
        );

        // Replaying the archived scenarios reproduces the divergence…
        let (code, out, err) = run_with(&["campaign", "replay", "--dir", dir], b"");
        assert_eq!(code, 3, "{out}\n{err}");
        assert!(out.contains("REPRODUCED at cycle 40 (trace)"), "{out}");

        // A bare `shrink --seed` probes the *campaign's* configuration
        // (engines interp,vm-fault from the manifest), not generic
        // defaults — so it reproduces and re-archives the divergence.
        let (code, out, err) = run_with(&["campaign", "shrink", "--dir", dir, "--seed", "3"], b"");
        assert_eq!(code, 3, "{out}\n{err}");
        assert!(out.contains("-> corpus seed-3"), "{out}");

        // …and is clean once the healthy lane replaces the faulty one.
        let (code, out, err) = run_with(
            &["campaign", "replay", "--dir", dir, "--engines", "interp,vm"],
            b"",
        );
        assert_eq!(code, 0, "{out}\n{err}");
        assert!(out.contains("bug no longer reproduces"), "{out}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn campaign_shard_pipeline_is_bit_identical_to_a_single_run() {
        let base = campaign_dir("shard");
        std::fs::create_dir_all(&base).unwrap();
        let plan = base.join("plan.json");
        let plan = plan.to_str().unwrap();

        // The single-machine baseline.
        let single = base.join("single");
        let baseline = run_ok(&[
            "campaign",
            "run",
            "--dir",
            single.to_str().unwrap(),
            "--cases",
            "9",
            "--seed",
            "2",
            "--cycles",
            "16",
            "--size",
            "8",
        ]);

        // Plan + run each shard (self-contained directories) + merge.
        let out = run_ok(&[
            "campaign", "shard", "plan", "--plan", plan, "--cases", "9", "--seed", "2", "--cycles",
            "16", "--size", "8", "--shards", "3",
        ]);
        assert!(out.contains("3 shard(s)"), "{out}");
        assert!(out.contains("shard 2: cases 6..9"), "{out}");
        let mut shard_dirs = Vec::new();
        for i in 0..3 {
            let dir = base.join(format!("shard-{i}"));
            let out = run_ok(&[
                "campaign",
                "shard",
                "run",
                "--plan",
                plan,
                "--shard",
                &i.to_string(),
                "--dir",
                dir.to_str().unwrap(),
            ]);
            assert!(out.contains("3/3 agreed"), "{out}");
            shard_dirs.push(dir);
        }
        let merged = base.join("merged");
        let shards_arg = shard_dirs
            .iter()
            .map(|d| d.to_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let merged_out = run_ok(&[
            "campaign",
            "shard",
            "merge",
            "--plan",
            plan,
            "--out",
            merged.to_str().unwrap(),
            "--shards",
            &shards_arg,
        ]);
        assert_eq!(
            merged_out, baseline,
            "merge reports exactly what one machine would have"
        );
        assert_eq!(
            std::fs::read(single.join("campaign.json")).unwrap(),
            std::fs::read(merged.join("campaign.json")).unwrap(),
            "manifests are byte-identical"
        );
        let listing = |root: &std::path::Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(root.join("cases"))
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        assert_eq!(listing(&single), ["cases.log"], "one canonical log");
        assert_eq!(listing(&merged), ["cases.log"], "one canonical log");
        assert_eq!(
            std::fs::read(single.join("cases/cases.log")).unwrap(),
            std::fs::read(merged.join("cases/cases.log")).unwrap(),
            "the record logs are byte-identical"
        );

        // The merged directory is a first-class campaign: resume is a
        // clean no-op over it.
        let resumed = run_ok(&["campaign", "resume", "--dir", merged.to_str().unwrap()]);
        assert!(resumed.contains("summary: 9/9 agreed"), "{resumed}");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// The quick campaign the export and format tests run, into `dir`.
    fn quick_campaign(dir: &std::path::Path, cases: &str) {
        run_ok(&[
            "campaign",
            "run",
            "--dir",
            dir.to_str().unwrap(),
            "--cases",
            cases,
            "--seed",
            "3",
            "--cycles",
            "16",
            "--size",
            "8",
            "--quiet",
        ]);
    }

    /// `campaign export` renders every record at its `case_path`, each
    /// file the record's canonical rendering, and writes nothing else.
    #[test]
    fn campaign_export_renders_each_record_as_its_canonical_file() {
        let base = campaign_dir("export");
        let (dir, to) = (base.join("campaign"), base.join("exported"));
        quick_campaign(&dir, "5");
        let out = run_ok(&[
            "campaign",
            "export",
            "--dir",
            dir.to_str().unwrap(),
            "--out",
            to.to_str().unwrap(),
        ]);
        assert!(out.contains("exported 5 case record(s)"), "{out}");
        let campaign = rtl_campaign::CampaignDir::new(&dir);
        let exported = rtl_campaign::CampaignDir::new(&to);
        let mut names: Vec<String> = std::fs::read_dir(exported.cases())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let expected: Vec<String> = (0..5).map(|i| format!("case-{i:06}.json")).collect();
        assert_eq!(names, expected);
        for record in campaign.load_cases(5).unwrap().iter().flatten() {
            assert_eq!(
                std::fs::read_to_string(exported.case_path(record.index)).unwrap(),
                record.to_json().render(),
                "case {}",
                record.index
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `campaign export` renders every corpus entry as its four files
    /// under `corpus/`, each holding the bytes `corpus::render` returns
    /// for the case's shrunk divergence — the bytes a campaign that kept
    /// four files per entry wrote — and the exported specification runs.
    #[test]
    fn campaign_export_renders_each_corpus_entry_as_its_rendered_files() {
        let base = campaign_dir("export-corpus");
        let (dir, to) = (base.join("campaign"), base.join("exported"));
        let (d, t) = (dir.to_str().unwrap(), to.to_str().unwrap());
        let (code, out, err) = run_with(
            &[
                "campaign",
                "run",
                "--dir",
                d,
                "--cases",
                "3",
                "--seed",
                "3",
                "--cycles",
                "48",
                "--size",
                "8",
                "--engines",
                "interp,vm-fault",
                "--quiet",
            ],
            b"",
        );
        assert_eq!(code, 3, "{out}\n{err}");
        let out = run_ok(&["campaign", "export", "--dir", d, "--out", t]);
        assert!(out.contains("and 3 corpus entries to"), "{out}");

        let campaign = rtl_campaign::CampaignDir::new(&dir);
        let config = campaign.load().unwrap();
        let registry = rtl_campaign::campaign_registry(None);
        let cosim = config.fuzz_options().cosim;
        let mut expected = Vec::new();
        for index in 0..config.cases {
            let seed = rtl_campaign::bundle::expected_seed(&config, index);
            let shrunk = rtl_campaign::shrink_divergence(
                &registry,
                &config.engines,
                seed,
                &config.generator,
                &cosim,
            )
            .unwrap()
            .expect("the faulty lane diverges");
            let archive = rtl_campaign::corpus::render(
                &rtl_campaign::CorpusIndex::default(),
                &shrunk,
                &config.engines,
                config.compare_every,
            )
            .unwrap();
            let rtl_campaign::Archive::New(_, entry) = archive else {
                panic!("an empty index archives anew")
            };
            for (ext, text) in entry.files.documents() {
                expected.push((format!("{}.{ext}", entry.name), text.to_string()));
            }
        }
        expected.sort();
        let mut exported: Vec<(String, String)> = std::fs::read_dir(to.join("corpus"))
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        exported.sort();
        assert_eq!(exported, expected);

        let (file, _) = &expected[0];
        let asim = to.join("corpus").join(file);
        assert!(file.ends_with(".asim"), "{file}");
        let stim = std::fs::read(asim.with_extension("stim")).unwrap();
        let (code, out, err) = run_with(&["run", asim.to_str().unwrap(), "--cycles", "40"], &stim);
        assert_eq!(code, 0, "{err}");
        assert!(out.contains("Cycle  39"), "{out}");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A directory laid out by an earlier version — version 1 kept one
    /// file per case record, version 2 four files per corpus entry,
    /// version 3 profile and flight files beside its logs, version 4 a
    /// file per case checkpoint — is refused by
    /// name by every command that takes a campaign directory over; none
    /// reads it as an empty campaign.
    #[test]
    fn retired_campaign_layouts_are_refused_by_name() {
        for version in ["v1", "v2", "v3", "v4", "v5"] {
            let base = campaign_dir(&format!("retired-{version}"));
            let dir = base.join("old");
            quick_campaign(&dir, "2");
            let campaign = rtl_campaign::CampaignDir::new(&dir);
            campaign.export(&campaign).unwrap();
            std::fs::remove_file(campaign.cases().join("cases.log")).unwrap();
            let manifest = std::fs::read_to_string(campaign.manifest()).unwrap();
            let format = format!("asim2-campaign {version}");
            let old = manifest.replace(rtl_campaign::state::FORMAT, &format);
            assert_ne!(old, manifest);
            std::fs::write(campaign.manifest(), old).unwrap();

            let (d, plan) = (dir.to_str().unwrap(), base.join("plan.json"));
            let plan = plan.to_str().unwrap();
            let config = [
                "--cases", "2", "--seed", "3", "--cycles", "16", "--size", "8",
            ];
            let mut plan_args = vec!["campaign", "shard", "plan", "--plan", plan, "--shards", "1"];
            plan_args.extend(config);
            run_ok(&plan_args);
            let mut serve = vec!["fleet", "serve", "--dir", d, "--token", "t"];
            serve.extend(["--bind", "127.0.0.1:0", "--quiet"]);
            serve.extend(config);
            let out = base.join("out");
            for args in [
                vec!["campaign", "resume", "--dir", d],
                vec![
                    "campaign",
                    "export",
                    "--dir",
                    d,
                    "--out",
                    out.to_str().unwrap(),
                ],
                vec![
                    "campaign", "shard", "merge", "--plan", plan, "--shards", d, "--out",
                ]
                .into_iter()
                .chain([out.to_str().unwrap()])
                .collect(),
                serve,
            ] {
                let (code, err) = run_fail(&args);
                assert_eq!(code, 2, "{args:?}: {err}");
                assert!(err.contains(&format!("{format:?}")), "{args:?}: {err}");
            }
            assert!(!out.exists(), "a refusal writes nothing");
            let _ = std::fs::remove_dir_all(&base);
        }
    }

    /// `shard plan` and `shard run` take the same config and run flags as
    /// `campaign run`: a `--lint-oracle` plan run with `--flight
    /// --profile-out` merges to the single-machine tree, flight logs and
    /// profiles and all.
    #[test]
    fn campaign_shard_takes_the_shared_run_and_config_flags() {
        let base = campaign_dir("shard-flags");
        std::fs::create_dir_all(&base).unwrap();
        let at = |name: &str| base.join(name).to_str().unwrap().to_string();
        let config = [
            "--cases",
            "4",
            "--seed",
            "2",
            "--cycles",
            "48",
            "--size",
            "8",
            "--engines",
            "interp,vm-fault",
            "--lint-oracle",
        ];
        let run = |args: &[&str]| {
            let (code, _, err) = run_with(args, b"");
            assert_eq!(code, 3, "every case diverges: {err}");
        };
        let mut single = vec!["campaign", "run", "--quiet", "--flight"];
        let (dir, profile) = (at("single"), at("single.profile"));
        single.extend(["--dir", &dir, "--profile-out", &profile]);
        single.extend(config);
        run(&single);
        let plan = at("plan.json");
        let mut plan_args = vec![
            "campaign", "shard", "plan", "--plan", &plan, "--shards", "2",
        ];
        plan_args.extend(config);
        run_ok(&plan_args);
        let shards = [at("shard-0"), at("shard-1")];
        for (i, shard) in shards.iter().enumerate() {
            let index = i.to_string();
            let profile = at(&format!("shard-{i}.profile"));
            run(&[
                "campaign",
                "shard",
                "run",
                "--plan",
                &plan,
                "--shard",
                &index,
                "--dir",
                shard,
                "--quiet",
                "--flight",
                "--profile-out",
                &profile,
            ]);
        }
        let (merged, merged_profile) = (at("merged"), at("merged.profile"));
        run(&[
            "campaign",
            "shard",
            "merge",
            "--plan",
            &plan,
            "--out",
            &merged,
            "--shards",
            &shards.join(","),
            "--profile-out",
            &merged_profile,
        ]);
        let read = |path: &str| std::fs::read(path).unwrap();
        assert_eq!(read(&profile), read(&merged_profile), "profile folds");
        let single = std::path::Path::new(&dir);
        let merged = std::path::Path::new(&merged);
        for rel in ["campaign.json", "cases/cases.log", "corpus/corpus.log"] {
            assert_eq!(
                std::fs::read(single.join(rel)).unwrap(),
                std::fs::read(merged.join(rel)).unwrap(),
                "{rel}"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn campaign_shard_usage_errors() {
        let (code, err) = run_fail(&["campaign", "shard"]);
        assert_eq!(code, 1);
        assert!(err.contains("plan|run|merge"), "{err}");
        let (code, err) = run_fail(&["campaign", "shard", "plan", "--cases", "10"]);
        assert_eq!(code, 1);
        assert!(err.contains("--shards"), "{err}");
        let (code, err) = run_fail(&["campaign", "shard", "run", "--plan", "/nonexistent.json"]);
        assert_eq!(code, 1);
        assert!(err.contains("--shard"), "{err}");
        // Flags outside the subcommand's set are rejected.
        let (code, err) = run_fail(&["campaign", "shard", "merge", "--cases", "5"]);
        assert_eq!(code, 1);
        assert!(err.contains("does not take --cases"), "{err}");
        // A missing plan file is a usage-level failure, not a crash.
        let (code, err) = run_fail(&[
            "campaign",
            "shard",
            "run",
            "--plan",
            "/nonexistent.json",
            "--shard",
            "0",
            "--dir",
            "/tmp/x",
        ]);
        assert_eq!(code, 1, "{err}");
        assert!(err.contains("no shard plan"), "{err}");
    }

    /// `campaign shrink --dir D` probes with D's stored config, the lint
    /// oracle included, as the campaign's own shrink does; flags override
    /// it, and a directory without a campaign gives the defaults.
    #[test]
    fn campaign_shrink_probes_with_the_stored_config() {
        let d = campaign_dir("shrink-stored");
        let dir = d.to_str().unwrap();
        let options = |flags: &[&str]| {
            let mut words = vec!["campaign", "shrink", "--dir", dir, "--seed", "3"];
            words.extend_from_slice(flags);
            args::parse(&words)
                .and_then(|args| shrink_options(&args, &rtl_campaign::CampaignDir::new(&d)))
                .unwrap_or_else(|e| panic!("{}", e.message))
        };
        let (got, want) = (
            options(&[]),
            rtl_campaign::CampaignConfig::default().fuzz_options(),
        );
        assert_eq!(
            (got.engines, got.generator, got.cosim),
            (want.engines, want.generator, want.cosim)
        );

        run_ok(&[
            "campaign",
            "run",
            "--dir",
            dir,
            "--cases",
            "1",
            "--size",
            "4",
            "--cycles",
            "8",
            "--compare-every",
            "2",
            "--lint-oracle",
        ]);
        let stored = options(&[]);
        assert!(
            stored.cosim.lint_oracle,
            "the stored oracle reaches the probes"
        );
        assert_eq!(
            (
                stored.cosim.compare_every,
                stored.generator.size,
                stored.generator.cycles
            ),
            (2, 4, 8)
        );
        let flagged = options(&["--compare-every", "3", "--size", "6"]);
        assert!(flagged.cosim.lint_oracle);
        assert_eq!(
            (
                flagged.cosim.compare_every,
                flagged.generator.size,
                flagged.generator.cycles
            ),
            (3, 6, 8)
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn campaign_shrink_without_divergence_is_a_no_op() {
        let d = campaign_dir("shrink");
        let out = run_ok(&[
            "campaign",
            "shrink",
            "--dir",
            d.to_str().unwrap(),
            "--seed",
            "7",
            "--cycles",
            "16",
            "--size",
            "8",
        ]);
        assert!(out.contains("no divergence"), "{out}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn campaign_usage_errors() {
        let (code, err) = run_fail(&["campaign"]);
        assert_eq!(code, 1);
        assert!(err.contains("run|resume|replay|shrink"), "{err}");
        let (code, err) = run_fail(&["campaign", "run"]);
        assert_eq!(code, 1);
        assert!(err.contains("--dir"), "{err}");
        let d = campaign_dir("usage");
        let (code, err) = run_fail(&[
            "campaign",
            "run",
            "--dir",
            d.to_str().unwrap(),
            "--engines",
            "interp,warp",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown engine"), "{err}");
        let (code, err) = run_fail(&["campaign", "resume", "--dir", d.to_str().unwrap()]);
        assert_eq!(code, 1, "{err}");
        assert!(err.contains("holds no campaign"), "{err}");
        // Flags outside a subcommand's own set are rejected, not swallowed.
        let (code, err) = run_fail(&[
            "campaign",
            "resume",
            "--dir",
            d.to_str().unwrap(),
            "--cases",
            "200",
        ]);
        assert_eq!(code, 1, "{err}");
        assert!(err.contains("does not take --cases"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Every surface's verdict wording, as the four blocks that
    /// `verdict` replaced printed it.
    #[test]
    fn verdicts_keep_every_surfaces_wording() {
        use rtl_campaign::{CampaignReport, CaseRecord, CaseStatus};
        let record = |index, status| CaseRecord {
            index,
            seed: 0,
            cycles: 8,
            lane_stats: Vec::new(),
            status,
        };
        let agreed = || Some(record(0, CaseStatus::Agreed));
        let diverged = || {
            Some(record(
                1,
                CaseStatus::Diverged {
                    cycle: 4,
                    kind: "trace".into(),
                    corpus: None,
                },
            ))
        };
        let halted = || {
            Some(record(
                1,
                CaseStatus::Halted {
                    detail: "halt".into(),
                },
            ))
        };
        let report = |records: Vec<Option<CaseRecord>>, reproduced: bool| CampaignReport {
            config: rtl_campaign::CampaignConfig::default(),
            replay: reproduced.then(|| rtl_campaign::ReplayReport {
                results: vec![rtl_campaign::ReplayResult {
                    name: "seed-1".into(),
                    expected: (4, "trace".into()),
                    outcome: rtl_campaign::ReplayOutcome::Reproduced {
                        cycle: 4,
                        kind: "trace".into(),
                    },
                    lane_stats: Vec::new(),
                }],
            }),
            records,
            new_corpus: Vec::new(),
            elapsed: std::time::Duration::ZERO,
        };
        let shard = |records| rtl_dist::ShardReport {
            spec: rtl_dist::ShardSpec {
                index: 2,
                start: 0,
                end: 2,
            },
            report: report(records, false),
        };
        let verdict_of = |surface: Surface| {
            let mut err = Vec::new();
            let result = verdict(surface, &mut err);
            let message = result.err().map(|e| (e.code, e.message));
            (message, String::from_utf8(err).unwrap())
        };
        let fails = |message: &str| (Some((3, message.to_string())), String::new());
        let interrupted = |line: &str| (None, format!("{line}\n"));

        let clean = report(vec![agreed()], false);
        assert_eq!(verdict_of(Surface::Campaign(&clean)), (None, String::new()));
        let cases = [
            (
                vec![agreed(), diverged()],
                false,
                "campaign found 1 divergence(s)",
            ),
            (
                vec![agreed(), diverged()],
                true,
                "campaign found 1 divergence(s); 1 pre-seeded corpus divergence(s) reproduced",
            ),
            (
                vec![agreed()],
                true,
                "campaign 1 pre-seeded corpus divergence(s) reproduced",
            ),
            (
                vec![agreed(), halted()],
                false,
                "campaign hit runtime halts/errors (nothing verified past them)",
            ),
        ];
        for (records, reproduced, message) in cases {
            let r = report(records, reproduced);
            assert_eq!(verdict_of(Surface::Campaign(&r)), fails(message));
        }
        let r = report(vec![agreed(), None], false);
        assert_eq!(
            verdict_of(Surface::Campaign(&r)),
            interrupted("campaign interrupted at --limit; run `asim2 campaign resume` to continue")
        );

        for (records, expected) in [
            (
                vec![agreed(), diverged()],
                fails("shard 2 found 1 divergence(s)"),
            ),
            (
                vec![agreed(), None],
                interrupted(
                    "shard interrupted at --limit; re-run `campaign shard run` to continue",
                ),
            ),
            (
                vec![agreed(), halted()],
                fails("shard hit runtime halts/errors (nothing verified past them)"),
            ),
        ] {
            assert_eq!(verdict_of(Surface::Shard(&shard(records))), expected);
        }

        for (records, merged, fleet) in [
            (
                vec![agreed(), diverged()],
                fails("merged campaign has 1 divergence(s)"),
                fails("fleet campaign found 1 divergence(s)"),
            ),
            (
                vec![agreed(), halted()],
                fails("merged campaign hit runtime halts/errors"),
                fails("fleet campaign hit runtime halts/errors (nothing verified past them)"),
            ),
            (
                vec![agreed(), None],
                fails("merged campaign hit runtime halts/errors"),
                interrupted(
                    "fleet campaign interrupted at --limit; serve the same --dir again to continue",
                ),
            ),
        ] {
            let r = report(records, false);
            assert_eq!(verdict_of(Surface::Merge(&r)), merged);
            assert_eq!(verdict_of(Surface::Fleet(&r)), fleet);
        }
    }

    // A spec whose arm 2 is provably dead (eq output is one bit wide).
    const DEAD_ARM_SPEC: &str = "# demo\nc bit x .\nM c 0 c 1 2\nA bit 12 c 1\nS x bit 5 6 7 .\n";

    #[test]
    fn lint_clean_spec_exits_zero() {
        let p = tmp_spec("lintclean", COUNTER);
        let out = run_ok(&["lint", p.to_str().unwrap()]);
        assert!(
            out.contains("1 file(s) linted: 0 error(s), 0 warning(s)"),
            "{out}"
        );
    }

    #[test]
    fn lint_warning_passes_unless_denied() {
        let p = tmp_spec("lintwarn", DEAD_ARM_SPEC);
        let out = run_ok(&["lint", p.to_str().unwrap()]);
        assert!(out.contains("warning[dead-arm]"), "{out}");
        assert!(
            out.contains("1 file(s) linted: 0 error(s), 1 warning(s)"),
            "{out}"
        );
        let (code, err) = run_fail(&["lint", p.to_str().unwrap(), "--deny", "warnings"]);
        assert_eq!(code, 3, "{err}");
        assert!(err.contains("lint denied 1 finding(s)"), "{err}");
        // A waived code no longer denies.
        let out = run_ok(&[
            "lint",
            p.to_str().unwrap(),
            "--deny",
            "warnings",
            "--allow",
            "dead-arm",
        ]);
        assert!(out.contains("0 warning(s)"), "{out}");
    }

    #[test]
    fn lint_errors_always_deny() {
        let p = tmp_spec("linterr", "# t\nc .\nM c 0 ghost 1 1 .\n");
        let (code, err) = run_fail(&["lint", p.to_str().unwrap()]);
        assert_eq!(code, 3, "{err}");
    }

    #[test]
    fn lint_json_is_valid_and_deterministic() {
        let p = tmp_spec("lintjson", DEAD_ARM_SPEC);
        let a = run_ok(&["lint", p.to_str().unwrap(), "--format", "json"]);
        let b = run_ok(&["lint", p.to_str().unwrap(), "--format", "json"]);
        assert_eq!(a, b, "json output must be byte-identical across runs");
        let doc = rtl_obs::json::Json::parse(&a).unwrap();
        assert_eq!(
            doc.get("format").and_then(|f| f.as_str()),
            Some(rtl_lint::JSON_FORMAT)
        );
        let files = doc.get("files").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(files.len(), 1);
        let codes: Vec<&str> = files[0]
            .get("diagnostics")
            .and_then(|d| d.as_arr())
            .unwrap()
            .iter()
            .filter_map(|d| d.get("code").and_then(|c| c.as_str()))
            .collect();
        assert_eq!(codes, ["dead-arm"]);
    }

    #[test]
    fn lint_codes_lists_the_registry() {
        let out = run_ok(&["lint", "--codes"]);
        let listed: Vec<&str> = out.lines().collect();
        assert_eq!(listed, rtl_lint::all_codes());
    }

    #[test]
    fn lint_usage_errors() {
        let (code, err) = run_fail(&["lint"]);
        assert_eq!(code, 1);
        assert!(err.contains("at least one FILE"), "{err}");
        let p = tmp_spec("lintusage", COUNTER);
        let (code, err) = run_fail(&["lint", p.to_str().unwrap(), "--allow", "bogus-code"]);
        assert_eq!(code, 1);
        assert!(err.contains("unknown lint code"), "{err}");
        let (code, err) = run_fail(&["lint", p.to_str().unwrap(), "--deny", "everything"]);
        assert_eq!(code, 1);
        assert!(err.contains("--deny takes"), "{err}");
        let (code, err) = run_fail(&["lint", "/nonexistent/spec.asim"]);
        assert_eq!(code, 2, "{err}");
    }
}
