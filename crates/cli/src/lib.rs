//! # asim-cli — the `asim` command line tool
//!
//! The modern counterpart of the thesis's `sim [file]` (Appendix A):
//!
//! ```text
//! asim2 check  FILE                      parse + elaborate, report warnings
//! asim2 run    FILE [--cycles N] [--engine NAME] [--no-trace] [--stats]
//!              [--checkpoint FILE --checkpoint-every N] [--resume FILE]
//! asim2 compile FILE [--backend rust|pascal] [-o OUT] [--cycles N] [--interactive]
//! asim2 netlist FILE [--format report|dot|wiring]
//! asim2 vcd    FILE [-o OUT.vcd] [--cycles N]
//! asim2 spec   NAME                      print a bundled/generated specification
//! asim2 fig    3.1|4.1|4.2|4.3|5.1       regenerate a thesis figure
//! asim2 cosim  [FILE] [--engines LIST] [--cycles N] [--scenario NAME] [--compare-every N]
//!              [--dump-divergence DIR] [--export-digests F] [--check-digests F]
//! asim2 fuzz   [--seed N] [--cases N] [--cycles N] [--size N] [--engines LIST]
//! asim2 campaign run|resume|replay|shrink ...
//! asim2 campaign shard plan|run|merge ...    distributed campaigns (rtl-dist)
//! asim2 fleet serve|work ...                 live campaign control plane (rtl-fleet)
//! asim2 metrics summarize FILE... [--check]  fold asim2-events logs (rtl-obs)
//! ```
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

use rtl_compile::{EmitOptions, OptOptions, Vm};
use rtl_core::{
    Design, EngineOptions, ReaderInput, Session, SimError, StopReason, Until, WriteSink,
};
use rtl_interp::Interpreter;
use rtl_machines::Scenario;
use std::io::Write;

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
                             flight-recorder sidecar, or - for stdin)

engine NAMEs come from the registry: interp, interp-faithful, vm, vm-noopt,
rust (the generated binary run as a subprocess cosim lane) and vm-fault (a
deliberately broken VM for validating the find->shrink->replay pipeline).
cosim comparators: trace, cycles, outputs, cells, vcd, digest, all
lint checks specs statically (asim2 lint --codes lists the finding codes);
--lint-oracle cross-validates the analyzer's dead-arm/undriven claims
against the running lanes — a contradiction reports as a divergence.
shard plans default to ./shard-plan.json; each shard runs on its own machine
into a self-contained --dir, and merge folds the directories back into one
canonical campaign, bit-identical to a single-machine run.
fleet serves one campaign live over TCP: workers lease contiguous case ranges,
upload records byte-verbatim, dead workers' leases expire back into the pool,
and the controller's finished directory is bit-identical to a single-machine
`campaign run`. Handshake refusals (wrong protocol version, bad token,
fingerprint drift, duplicate worker name) exit 2 with the named reason.
profile runs one engine with the execution-profile tap on and ranks components
by event count; campaign/shard --profile-out F folds per-case profile sidecars
into one asim2-profile v1 document, byte-identical across worker counts and
kill+resume (incompatible with --case-checkpoint).
--flight arms the divergence flight recorder: each case runs with a bounded
ring buffer of its own telemetry, and any case that halts, errors or diverges
leaves a cases/case-N.flight.jsonl sidecar with the last events before the
trigger — byte-identical across worker counts and kill+resume, on single
machines and fleets alike (incompatible with --case-checkpoint).
fleet status watches a serving controller read-only over the same protocol:
one asim2-fleet-status v1 document per poll, --watch to repeat until the
campaign drains.";

fn dispatch(
    args: &[String],
    stdin: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().ok_or_else(|| usage_err("missing command"))?;
    let rest: Vec<&str> = it.collect();
    match cmd {
        "check" => check(&rest, out),
        "run" => run_cmd(&rest, stdin, out),
        "compile" => compile(&rest, out),
        "netlist" => netlist(&rest, out),
        "vcd" => vcd_cmd(&rest, out),
        "spec" => spec_cmd(&rest, out),
        "fig" => fig(&rest, out),
        "lint" => lint::lint_cmd(&rest, out),
        "cosim" => cosim_cmd(&rest, out),
        "fuzz" => fuzz_cmd(&rest, out),
        "campaign" => campaign_cmd(&rest, out, err),
        "fleet" => fleet::fleet_cmd(&rest, out, err),
        "profile" => profile_cmd(&rest, out),
        "metrics" => metrics::metrics_cmd(&rest, stdin, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        other => Err(usage_err(format!("unknown command {other:?}"))),
    }
}

fn load_design(path: &str) -> Result<Design, CliError> {
    let source =
        std::fs::read_to_string(path).map_err(|e| load_err(format!("cannot read {path}: {e}")))?;
    Design::from_source(&source).map_err(load_err)
}

fn check(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (file, flags) = split_file(rest)?;
    let verbose = flags.contains(&"-v");
    let design = load_design(file)?;
    // The original's progress line: "N components read."
    let _ = writeln!(out, "{} components read.", design.len());
    for w in design.warnings() {
        let _ = writeln!(out, "{w}");
    }
    if verbose {
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
    rest: &[&str],
    stdin: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let (file, flags) = split_file(rest)?;
    let cycles = flag_value(&flags, "--cycles")?
        .map(|v| {
            v.parse::<i64>()
                .map_err(|_| usage_err("--cycles needs an integer"))
        })
        .transpose()?;
    let engine = flag_value(&flags, "--engine")?.unwrap_or("vm");
    let trace = !flags.contains(&"--no-trace");
    let want_stats = flags.contains(&"--stats");
    let interactive = flags.contains(&"--interactive");
    let checkpoint_path = flag_value(&flags, "--checkpoint")?;
    let checkpoint_every = parse_u64_flag(&flags, "--checkpoint-every")?;
    let resume_path = flag_value(&flags, "--resume")?;
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
        .sink_mut()
        .write_bytes(format!("{line}\n").as_bytes())
        .map_err(|e| sim_err(SimError::from(e)))
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

fn compile(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (file, flags) = split_file(rest)?;
    let backend = flag_value(&flags, "--backend")?.unwrap_or("rust");
    let output = flag_value(&flags, "-o")?;
    let cycles = flag_value(&flags, "--cycles")?
        .map(|v| {
            v.parse::<i64>()
                .map_err(|_| usage_err("--cycles needs an integer"))
        })
        .transpose()?;
    let options = EmitOptions {
        cycles,
        interactive: flags.contains(&"--interactive"),
        opt: if flags.contains(&"--no-opt") {
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

fn netlist(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (file, flags) = split_file(rest)?;
    let format = flag_value(&flags, "--format")?.unwrap_or("report");
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

fn vcd_cmd(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (file, flags) = split_file(rest)?;
    let cycles = flag_value(&flags, "--cycles")?
        .map(|v| {
            v.parse::<i64>()
                .map_err(|_| usage_err("--cycles needs an integer"))
        })
        .transpose()?;
    let output = flag_value(&flags, "-o")?;
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

fn spec_cmd(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let name = rest.first().ok_or_else(|| usage_err("spec needs a name"))?;
    let text = match *name {
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

fn fig(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let id = rest.first().ok_or_else(|| usage_err("fig needs an id"))?;
    match *id {
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
fn parse_engines(flags: &[&str]) -> Result<Vec<String>, CliError> {
    let list = flag_value(flags, "--engines")?.unwrap_or("interp,vm");
    rtl_cosim::registry().parse_list(list).map_err(usage_err)
}

fn parse_u64_flag(flags: &[&str], name: &str) -> Result<Option<u64>, CliError> {
    flag_value(flags, name)?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| usage_err(format!("{name} needs an integer")))
        })
        .transpose()
}

fn cosim_cmd(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (file, flags) = split_optional_file(
        rest,
        &[
            "--engines",
            "--cycles",
            "--scenario",
            "--compare-every",
            "--compare",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
            "--dump-divergence",
            "--export-digests",
            "--check-digests",
        ],
    )?;
    let engines = parse_engines(&flags)?;
    let cycles = parse_u64_flag(&flags, "--cycles")?;
    let compare_every = parse_u64_flag(&flags, "--compare-every")?.unwrap_or(1);
    let compare = match flag_value(&flags, "--compare")? {
        Some(list) => rtl_core::observe::CompareMode::parse_list(list).map_err(usage_err)?,
        None => vec![rtl_core::observe::CompareMode::All],
    };
    let checkpoint_path = flag_value(&flags, "--checkpoint")?;
    let checkpoint_every = parse_u64_flag(&flags, "--checkpoint-every")?;
    if checkpoint_every.is_some() && checkpoint_path.is_none() {
        return Err(usage_err("--checkpoint-every needs --checkpoint FILE"));
    }
    if checkpoint_every == Some(0) {
        return Err(usage_err("--checkpoint-every needs a positive interval"));
    }
    let checkpoint = checkpoint_path.map(|path| rtl_cosim::LockstepCheckpoint {
        path: path.into(),
        every: checkpoint_every.unwrap_or(256),
    });
    let resume = flag_value(&flags, "--resume")?.map(std::path::PathBuf::from);
    let dump_divergence = flag_value(&flags, "--dump-divergence")?;
    let export_digests = flag_value(&flags, "--export-digests")?.map(std::path::PathBuf::from);
    let check_digests = flag_value(&flags, "--check-digests")?.map(std::path::PathBuf::from);
    if (checkpoint.is_some()
        || resume.is_some()
        || dump_divergence.is_some()
        || export_digests.is_some()
        || check_digests.is_some())
        && file.is_none()
        && flag_value(&flags, "--scenario")?.is_none()
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
        resume,
        export_digests,
        check_digests,
        lint_oracle: flags.contains(&"--lint-oracle"),
        ..rtl_cosim::CosimOptions::default()
    };

    // One scenario (a file or a named corpus entry), or the full corpus.
    match scenario_arg(file, &flags, cycles)? {
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
    flags: &[&str],
    cycles: Option<u64>,
) -> Result<Option<Scenario>, CliError> {
    match (file, flag_value(flags, "--scenario")?) {
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

fn fuzz_cmd(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (file, flags) = split_optional_file(
        rest,
        &["--engines", "--cycles", "--seed", "--cases", "--size"],
    )?;
    if let Some(f) = file {
        return Err(usage_err(format!(
            "fuzz takes no FILE argument (got {f:?})"
        )));
    }
    let mut options = rtl_cosim::FuzzOptions {
        engines: parse_engines(&flags)?,
        ..rtl_cosim::FuzzOptions::default()
    };
    if let Some(seed) = parse_u64_flag(&flags, "--seed")? {
        options.seed = seed;
    }
    if let Some(cases) = parse_u64_flag(&flags, "--cases")? {
        options.cases = u32::try_from(cases).map_err(|_| usage_err("--cases is too large"))?;
    }
    if let Some(cycles) = parse_u64_flag(&flags, "--cycles")? {
        options.generator.cycles = cycles;
    }
    if let Some(size) = parse_u64_flag(&flags, "--size")? {
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
fn profile_cmd(rest: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (file, flags) = split_optional_file(
        rest,
        &["--engine", "--cycles", "--scenario", "--top", "--format"],
    )?;
    let engine = flag_value(&flags, "--engine")?.unwrap_or("interp");
    let format = flag_value(&flags, "--format")?.unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(usage_err(format!(
            "unknown profile format {format:?} (expected text or json)"
        )));
    }
    let top = parse_u64_flag(&flags, "--top")?;
    let cycles = parse_u64_flag(&flags, "--cycles")?;

    // One scenario: a spec file or a named corpus entry, like cosim.
    let scenario = scenario_arg(file, &flags, cycles)?
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

/// The shared run flags: how a campaign executes, never what it
/// computes, so none of them is fingerprinted.
const RUN_FLAGS: &str =
    "--workers --limit --case-checkpoint --flight --metrics-out --profile-out --progress --quiet";

/// The shared config flags: the fingerprinted campaign configuration.
const CONFIG_FLAGS: &str = "--cases --seed --engines --cycles --size --compare-every --lint-oracle";

/// Every campaign, shard and fleet flag that takes a value; the rest are
/// switches (`--progress` and `--watch` carry an optional `=MS`).
const VALUE_FLAGS: &str = "--workers --limit --metrics-out --profile-out --cases --seed --engines \
    --cycles --size --compare-every --dir --plan --shards --shard --out --bind --port-file --token \
    --lease --lease-deadline --connect --name --scratch --fingerprint --abandon-after --format";

/// Every campaign, shard and fleet subcommand: its own flags, the shared
/// run flags it takes, and whether it takes the config flags.
#[rustfmt::skip]
const SURFACES: &[(&str, &str, &str, bool)] = &[
    ("campaign run", "--dir", RUN_FLAGS, true),
    ("campaign resume", "--dir", RUN_FLAGS, false),
    ("campaign replay", "--dir --engines", "", false),
    ("campaign shrink", "--dir --seed --engines --cycles --size --compare-every", "", false),
    ("campaign shard plan", "--plan --shards", "", true),
    ("campaign shard run", "--plan --shard --dir", RUN_FLAGS, false),
    ("campaign shard merge", "--plan --out --shards", "--metrics-out --profile-out", false),
    ("fleet serve", "--dir --bind --port-file --token --lease --lease-deadline",
        "--limit --flight --metrics-out --profile-out --progress --quiet", true),
    ("fleet work", "--connect --token --name --workers --scratch --fingerprint --abandon-after \
        --quiet", "", false),
    ("fleet status", "--connect --token --watch --format", "", false),
];

/// The flag tokens of `{group} {sub}` (values inline, after their flag).
/// Each subcommand accepts only its own flags — silently swallowing, say,
/// `resume --cases 200` would let the user believe the campaign was
/// extended.
fn surface_flags<'a>(group: &str, sub: &str, rest: &[&'a str]) -> Result<Vec<&'a str>, CliError> {
    let name = format!("{group} {sub}");
    let (_, own, run, config) = SURFACES
        .iter()
        .find(|s| s.0 == name)
        .ok_or_else(|| usage_err(format!("unknown {group} subcommand {sub:?}")))?;
    let values: Vec<&str> = VALUE_FLAGS.split_whitespace().collect();
    let (extra, flags) = split_optional_file(rest, &values)?;
    if let Some(x) = extra {
        return Err(usage_err(format!("unexpected argument {x:?}")));
    }
    let config = if *config { CONFIG_FLAGS } else { "" };
    let allowed: Vec<&str> = [*own, *run, config]
        .iter()
        .flat_map(|l| l.split_whitespace())
        .collect();
    let bad = flags.iter().find(|f| {
        let flag = match f.split_once('=') {
            Some((flag @ ("--progress" | "--watch"), _)) => flag,
            _ => f,
        };
        f.starts_with('-') && !allowed.contains(&flag)
    });
    match bad {
        Some(bad) => Err(usage_err(format!(
            "{name} does not take {bad} (accepted: {})",
            allowed.join(" ")
        ))),
        None => Ok(flags),
    }
}

/// The parsed shared run flags.
struct RunFlags<'a> {
    /// `--workers`, `--limit`, `--case-checkpoint`, `--flight`,
    /// `--metrics-out` and (as `profile`) `--profile-out`.
    options: rtl_campaign::RunOptions,
    /// Where `--profile-out` folds the profile sidecars.
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
fn run_flags<'a>(flags: &[&'a str]) -> Result<RunFlags<'a>, CliError> {
    let mut options = rtl_campaign::RunOptions::default();
    if let Some(workers) = parse_u64_flag(flags, "--workers")? {
        if workers == 0 {
            return Err(usage_err("--workers needs a positive count"));
        }
        options.workers = workers as usize;
    }
    if let Some(limit) = parse_u64_flag(flags, "--limit")? {
        options.limit = Some(u32::try_from(limit).map_err(|_| usage_err("--limit is too large"))?);
    }
    options.case_checkpoint = flags.contains(&"--case-checkpoint");
    options.flight = flags.contains(&"--flight");
    options.recorder = match flag_value(flags, "--metrics-out")? {
        None => rtl_core::Recorder::disabled(),
        Some(path) => rtl_core::Recorder::to_file(std::path::Path::new(path))
            .map_err(|e| load_err(format!("cannot write metrics to {path}: {e}")))?,
    };
    let profile_out = flag_value(flags, "--profile-out")?;
    options.profile = profile_out.is_some();
    let mut progress_ms = ProgressReporter::DEFAULT_PERIOD_MS;
    if let Some(ms) = flags.iter().find_map(|f| f.strip_prefix("--progress=")) {
        progress_ms = ms
            .parse()
            .map_err(|_| usage_err(format!("--progress needs milliseconds, got {ms:?}")))?;
    }
    Ok(RunFlags {
        options,
        profile_out,
        quiet: flags.contains(&"--quiet"),
        progress_ms,
    })
}

/// `--engines LIST`, checked against the campaign registry.
fn engines_flag(flags: &[&str]) -> Result<Option<Vec<String>>, CliError> {
    flag_value(flags, "--engines")?
        .map(|list| {
            rtl_campaign::campaign_registry(None)
                .parse_list(list)
                .map_err(usage_err)
        })
        .transpose()
}

/// Parses the shared config flags over the default configuration.
fn config_flags(flags: &[&str]) -> Result<rtl_campaign::CampaignConfig, CliError> {
    let mut config = rtl_campaign::CampaignConfig::default();
    if let Some(engines) = engines_flag(flags)? {
        config.engines = engines;
    }
    if let Some(seed) = parse_u64_flag(flags, "--seed")? {
        config.seed = seed;
    }
    if let Some(cases) = parse_u64_flag(flags, "--cases")? {
        config.cases = u32::try_from(cases).map_err(|_| usage_err("--cases is too large"))?;
    }
    if let Some(cycles) = parse_u64_flag(flags, "--cycles")? {
        config.generator.cycles = cycles;
    }
    if let Some(size) = parse_u64_flag(flags, "--size")? {
        config.generator.size = size as usize;
    }
    if let Some(stride) = parse_u64_flag(flags, "--compare-every")? {
        config.compare_every = stride.max(1);
    }
    config.lint_oracle = flags.contains(&"--lint-oracle");
    Ok(config)
}

fn campaign_cmd(rest: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let sub = rest
        .first()
        .copied()
        .ok_or_else(|| usage_err("campaign needs a subcommand (run|resume|replay|shrink|shard)"))?;
    if sub == "shard" {
        return shard_cmd(&rest[1..], out, err);
    }
    let flags = surface_flags("campaign", sub, &rest[1..])?;
    let dir = rtl_campaign::CampaignDir::new(
        flag_value(&flags, "--dir")?.ok_or_else(|| usage_err("campaign needs --dir DIR"))?,
    );

    match sub {
        "run" | "resume" => {
            let run = run_flags(&flags)?;
            let config = if sub == "run" {
                Some(config_flags(&flags)?)
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
            finish_campaign(report, out, err, &run.options, run.quiet)
        }
        "replay" => {
            let engines = engines_flag(&flags)?;
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
            let seed = parse_u64_flag(&flags, "--seed")?
                .ok_or_else(|| usage_err("campaign shrink needs --seed N"))?;
            // Defaults come from the campaign living in --dir, when there
            // is one: a shrink must probe the same scenario the campaign
            // flagged, not a generic one. Flags still override.
            let stored = if dir.manifest().exists() {
                Some(dir.load().map_err(campaign_err)?)
            } else {
                None
            };
            let engines = engines_flag(&flags)?
                .or_else(|| stored.as_ref().map(|c| c.engines.clone()))
                .unwrap_or_else(|| vec!["interp".to_string(), "vm".to_string()]);
            let mut generator = stored
                .as_ref()
                .map(|c| c.generator.clone())
                .unwrap_or_default();
            if let Some(cycles) = parse_u64_flag(&flags, "--cycles")? {
                generator.cycles = cycles;
            }
            if let Some(size) = parse_u64_flag(&flags, "--size")? {
                generator.size = size as usize;
            }
            let stride = parse_u64_flag(&flags, "--compare-every")?
                .or(stored.as_ref().map(|c| c.compare_every))
                .unwrap_or(1)
                .max(1);
            let cache = std::sync::Arc::new(rtl_compile::BinaryCache::at_dir(dir.bin_cache()));
            let registry = rtl_campaign::campaign_registry(Some(cache));
            let cosim = rtl_cosim::CosimOptions {
                compare_every: stride,
                ..rtl_cosim::CosimOptions::default()
            };
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
                         in {} lockstep runs -> corpus {}",
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
fn shard_cmd(rest: &[&str], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    use rtl_campaign::CampaignDir;
    use rtl_dist::ShardPlan;

    let sub = rest
        .first()
        .copied()
        .ok_or_else(|| usage_err("campaign shard needs a subcommand (plan|run|merge)"))?;
    let flags = surface_flags("campaign shard", sub, &rest[1..])?;
    let plan_path =
        std::path::PathBuf::from(flag_value(&flags, "--plan")?.unwrap_or("shard-plan.json"));

    match sub {
        "plan" => {
            let shards = parse_u64_flag(&flags, "--shards")?
                .ok_or_else(|| usage_err("campaign shard plan needs --shards K"))?;
            let shards = u32::try_from(shards).map_err(|_| usage_err("--shards is too large"))?;
            let plan = ShardPlan::partition(config_flags(&flags)?, shards).map_err(campaign_err)?;
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
        "run" => {
            let plan = ShardPlan::load(&plan_path).map_err(campaign_err)?;
            let index = parse_u64_flag(&flags, "--shard")?
                .ok_or_else(|| usage_err("campaign shard run needs --shard I"))?;
            let index = u32::try_from(index).map_err(|_| usage_err("--shard is too large"))?;
            let dir = CampaignDir::new(
                flag_value(&flags, "--dir")?
                    .ok_or_else(|| usage_err("campaign shard run needs --dir DIR"))?,
            );
            let run = run_flags(&flags)?;
            let mut progress = run.progress(err);
            let report = rtl_dist::run_shard(&plan, index, &dir, &run.options, &mut progress)
                .map_err(campaign_err)?;
            run.options.recorder.flush();
            write_profile_out(&dir, &report.report, run.profile_out)?;
            let _ = write!(out, "{report}");
            if report.clean() {
                Ok(())
            } else if report.diverged() > 0 {
                Err(CliError {
                    code: 3,
                    message: format!("shard {index} found {} divergence(s)", report.diverged()),
                })
            } else if !report.complete() {
                let _ = writeln!(
                    err,
                    "shard interrupted at --limit; re-run `campaign shard run` to continue"
                );
                Ok(())
            } else {
                Err(CliError {
                    code: 3,
                    message: "shard hit runtime halts/errors (nothing verified past them)".into(),
                })
            }
        }
        _ => {
            let plan = ShardPlan::load(&plan_path).map_err(campaign_err)?;
            let dirs: Vec<std::path::PathBuf> = flag_value(&flags, "--shards")?
                .ok_or_else(|| usage_err("campaign shard merge needs --shards DIR1,DIR2,..."))?
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(std::path::PathBuf::from)
                .collect();
            let out_dir = CampaignDir::new(
                flag_value(&flags, "--out")?
                    .ok_or_else(|| usage_err("campaign shard merge needs --out DIR"))?,
            );
            let run = run_flags(&flags)?;
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
            if report.clean() {
                Ok(())
            } else if report.diverged() > 0 {
                Err(CliError {
                    code: 3,
                    message: format!("merged campaign has {} divergence(s)", report.diverged()),
                })
            } else {
                Err(CliError {
                    code: 3,
                    message: "merged campaign hit runtime halts/errors".into(),
                })
            }
        }
    }
}

/// `--profile-out F`: folds the per-case profile sidecars of every
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

/// Prints the campaign report and (unless `--quiet`) a stderr throughput
/// line; exit 3 unless the campaign is complete and clean.
fn finish_campaign(
    report: rtl_campaign::CampaignReport,
    out: &mut dyn Write,
    err: &mut dyn Write,
    options: &rtl_campaign::RunOptions,
    quiet: bool,
) -> Result<(), CliError> {
    let _ = write!(out, "{report}");
    if !quiet {
        let secs = report.elapsed.as_secs_f64().max(1e-9);
        let _ = writeln!(
            err,
            "throughput: {} cases with {} worker(s) in {:.2}s ({:.1} cases/s)",
            report.completed(),
            options.workers,
            secs,
            f64::from(report.completed()) / secs,
        );
    }
    let reproduced = report.replay.as_ref().map_or(0, |r| r.reproduced().count());
    if report.clean() {
        Ok(())
    } else if report.diverged() > 0 || reproduced > 0 {
        let mut parts = Vec::new();
        if report.diverged() > 0 {
            parts.push(format!("found {} divergence(s)", report.diverged()));
        }
        if reproduced > 0 {
            parts.push(format!(
                "{reproduced} pre-seeded corpus divergence(s) reproduced"
            ));
        }
        Err(CliError {
            code: 3,
            message: format!("campaign {}", parts.join("; ")),
        })
    } else if !report.complete() {
        let _ = writeln!(
            err,
            "campaign interrupted at --limit; run `asim2 campaign resume` to continue"
        );
        Ok(())
    } else {
        Err(CliError {
            code: 3,
            message: "campaign hit runtime halts/errors (nothing verified past them)".into(),
        })
    }
}

/// Splits arguments into an optional positional FILE and a flag list;
/// a token following any of `value_flags` is swallowed as that flag's
/// value.
fn split_optional_file<'a>(
    rest: &[&'a str],
    value_flags: &[&str],
) -> Result<(Option<&'a str>, Vec<&'a str>), CliError> {
    let mut file = None;
    let mut flags = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if a.starts_with('-') {
            flags.push(a);
            if value_flags.contains(&a) {
                i += 1;
                if let Some(v) = rest.get(i) {
                    flags.push(v);
                }
            }
        } else if file.is_none() {
            file = Some(a);
        } else {
            return Err(usage_err(format!("unexpected argument {a:?}")));
        }
        i += 1;
    }
    Ok((file, flags))
}

fn split_file<'a>(rest: &[&'a str]) -> Result<(&'a str, Vec<&'a str>), CliError> {
    let (file, flags) = split_optional_file(
        rest,
        &[
            "--cycles",
            "--engine",
            "--backend",
            "-o",
            "--format",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
        ],
    )?;
    Ok((file.ok_or_else(|| usage_err("missing FILE"))?, flags))
}

fn flag_value<'a>(flags: &[&'a str], name: &str) -> Result<Option<&'a str>, CliError> {
    match flags.iter().position(|f| *f == name) {
        None => Ok(None),
        Some(i) => flags
            .get(i + 1)
            .copied()
            .map(Some)
            .ok_or_else(|| usage_err(format!("{name} needs a value"))),
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
        // Short horizon override keeps the in-process test quick; the full
        // 1000+-cycle sweep runs in CI and tests/equivalence.rs.
        let out = run_ok(&["cosim", "--cycles", "16", "--engines", "interp,vm,vm-noopt"]);
        assert!(out.contains("cosim corpus sweep"), "{out}");
        assert!(out.contains("stack/sieve"), "{out}");
        assert!(out.contains("0 diverged"), "{out}");
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
        // state from cycle 40 on, so the trace lens and the VCD waveform
        // lens must pinpoint the identical first divergent cycle.
        for compare in ["trace", "vcd", "trace,vcd,cells", "digest", "all"] {
            let (code, out, err) = run_with(
                &[
                    "cosim",
                    "--scenario",
                    "classic/counter",
                    "--cycles",
                    "64",
                    "--engines",
                    "interp,vm-fault",
                    "--compare",
                    compare,
                ],
                b"",
            );
            assert_eq!(code, 3, "{compare}: {err}");
            assert!(out.contains("at cycle 40"), "{compare}: {out}");
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
        let scenario = ["--scenario", "classic/counter"];
        let out = run_ok(&[
            "cosim",
            scenario[0],
            scenario[1],
            "--cycles",
            "300",
            "--checkpoint",
            ck,
            "--checkpoint-every",
            "128",
        ]);
        assert!(out.contains("300 cycles verified"), "{out}");
        let resumed = run_ok(&[
            "cosim",
            scenario[0],
            scenario[1],
            "--cycles",
            "1024",
            "--resume",
            ck,
        ]);
        let fresh = run_ok(&["cosim", scenario[0], scenario[1], "--cycles", "1024"]);
        assert_eq!(resumed, fresh, "resumed outcome is byte-identical");
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
        let out = run_ok(&["fuzz", "--seed", "1", "--cases", "5", "--cycles", "16"]);
        assert!(out.contains("fuzz campaign: 5 cases from seed 1"), "{out}");
        assert!(out.contains("summary: 5/5 agreed, 0 diverged"), "{out}");
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
        // .ckpt files up once each case record is durable.
        let run_campaign = |name: &str, extra: &[&str]| {
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
                "16",
                "--size",
                "8",
            ];
            args.extend_from_slice(extra);
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let mut err = Vec::new();
            let code = run_with_input(&args, &mut &b""[..], &mut out, &mut err);
            assert_eq!(code, 0, "{}", String::from_utf8_lossy(&err));
            (d, String::from_utf8(out).unwrap())
        };
        let (plain_dir, plain) = run_campaign("ckpt-plain", &[]);
        let (ckpt_dir, checkpointed) = run_campaign("ckpt-on", &["--case-checkpoint"]);
        assert_eq!(plain, checkpointed, "case checkpointing is outcome-neutral");
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
        // The fault lane diverges, so the run exits 3 — with flight
        // sidecars published next to the diverging case records.
        assert_eq!(code, 3, "{out}\n{err}");
        let sidecars: Vec<_> = std::fs::read_dir(d.join("cases"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_str().unwrap().ends_with(".flight.jsonl"))
            .collect();
        assert!(!sidecars.is_empty(), "diverging cases dump flight logs");

        let flight = run_ok(&["metrics", "flight", sidecars[0].to_str().unwrap()]);
        assert!(flight.contains("flight recorder:"), "{flight}");
        assert!(flight.contains("trigger:"), "{flight}");
        assert!(flight.contains("diverged at cycle"), "{flight}");

        // The recorder cannot be combined with per-case checkpointing.
        let d2 = campaign_dir("flight-conflict");
        let (code, err) = run_fail(&[
            "campaign",
            "run",
            "--dir",
            d2.to_str().unwrap(),
            "--cases",
            "1",
            "--flight",
            "--case-checkpoint",
        ]);
        assert_eq!(code, 1, "{err}");
        assert!(err.contains("flight recorder"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
        let _ = std::fs::remove_dir_all(&d2);
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
        let out = run_ok(&[
            "profile",
            "--scenario",
            "classic/counter",
            "--cycles",
            "32",
            "--format",
            "json",
            "--engine",
            "vm",
        ]);
        let profile = rtl_core::Profile::parse(&out).unwrap();
        assert!(profile.total_events() > 0, "{out}");
        assert_eq!(out, profile.render(), "render/parse round-trips");
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
        // tap has no sidecar, and the final fold would refuse it.
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

    #[test]
    fn campaign_profile_out_rejects_case_checkpoint() {
        let d = campaign_dir("prof-ckpt");
        let (code, err) = run_fail(&[
            "campaign",
            "run",
            "--dir",
            d.to_str().unwrap(),
            "--profile-out",
            "/tmp/never-written.json",
            "--case-checkpoint",
        ]);
        assert_eq!(code, 1);
        assert!(err.contains("per-case checkpointing"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
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
        assert!(
            d.join("corpus").join("seed-3.asim").is_file(),
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
        for i in 0..9 {
            let name = format!("case-{i:06}.json");
            assert_eq!(
                std::fs::read(single.join("cases").join(&name)).unwrap(),
                std::fs::read(merged.join("cases").join(&name)).unwrap(),
                "{name} is byte-identical"
            );
        }

        // The merged directory is a first-class campaign: resume is a
        // clean no-op over it.
        let resumed = run_ok(&["campaign", "resume", "--dir", merged.to_str().unwrap()]);
        assert!(resumed.contains("summary: 9/9 agreed"), "{resumed}");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `shard plan` and `shard run` take the same config and run flags as
    /// `campaign run`: a `--lint-oracle` plan run with `--flight
    /// --profile-out` merges to the single-machine tree, sidecars and all.
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
        for rel in [
            "campaign.json",
            "cases/case-000003.flight.jsonl",
            "cases/case-000003.profile",
        ] {
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
