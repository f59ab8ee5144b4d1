//! Driving the host compiler — the "Pascal Compile" row of Figure 5.1.
//!
//! ASIM II's pipeline was *generate Pascal → `pc` → run `a.out`*. Ours is
//! *generate Rust → `rustc -O` → run the binary*. This module owns the
//! second and third steps, with timing hooks so the Figure 5.1 harness can
//! report every row.

use crate::emit::{rust::emit_rust, EmitOptions};
use rtl_core::Design;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Errors from the build-and-run pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Could not create the scratch directory or write the source.
    Io(std::io::Error),
    /// `rustc` is not on the `PATH`.
    RustcMissing(std::io::Error),
    /// `rustc` rejected the generated program (a codegen bug — the stderr
    /// is attached).
    CompileFailed(String),
    /// The compiled simulator exited non-zero (runtime error in the
    /// design, e.g. selector out of range); stderr attached.
    RunFailed {
        /// Exit code, if any.
        code: Option<i32>,
        /// What the simulator printed to stderr.
        stderr: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "i/o error: {e}"),
            PipelineError::RustcMissing(e) => write!(f, "rustc not found: {e}"),
            PipelineError::CompileFailed(s) => {
                write!(f, "generated program failed to compile:\n{s}")
            }
            PipelineError::RunFailed { code, stderr } => {
                write!(f, "compiled simulator failed (code {code:?}): {stderr}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// `true` if a usable `rustc` is on the `PATH`.
pub fn rustc_available() -> bool {
    Command::new("rustc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Timings for the preparation phases (the top rows of Figure 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildTimings {
    /// "Generate code": specification → Rust source.
    pub generate: Duration,
    /// "Pascal Compile" equivalent: `rustc -O` wall time.
    pub compile: Duration,
}

/// A compiled standalone simulator on disk. A scratch-directory build is
/// removed on drop; a cache-directory build persists for later processes.
#[derive(Debug)]
pub struct CompiledSim {
    dir: PathBuf,
    binary: PathBuf,
    persistent: bool,
    /// The generated source (kept for inspection).
    pub source: String,
    /// Preparation timings (zero compile time on a disk-cache hit).
    pub timings: BuildTimings,
}

impl CompiledSim {
    /// Path of the compiled binary.
    pub fn binary(&self) -> &Path {
        &self.binary
    }

    /// Runs the simulator, feeding `stdin` and capturing stdout.
    ///
    /// # Errors
    ///
    /// [`PipelineError::RunFailed`] when the simulator exits non-zero.
    pub fn run(&self, stdin: &[u8]) -> Result<(String, Duration), PipelineError> {
        self.run_env(stdin, &[])
    }

    /// [`run`](CompiledSim::run) with extra environment variables — the
    /// channel a cached binary reads its per-run cycle bound from (see
    /// [`EmitOptions::cycles_from_env`]).
    ///
    /// # Errors
    ///
    /// [`PipelineError::RunFailed`] when the simulator exits non-zero.
    pub fn run_env(
        &self,
        stdin: &[u8],
        env: &[(&str, String)],
    ) -> Result<(String, Duration), PipelineError> {
        use std::io::Write as _;
        let start = Instant::now();
        let mut command = Command::new(&self.binary);
        for (key, value) in env {
            command.env(key, value);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        // The simulator reads stdin as it runs and writes its trace as it
        // goes, so stdin is fed from its own thread while this one drains
        // stdout: writing all of it first deadlocks once both pipes fill.
        let mut pipe = child.stdin.take().expect("piped stdin");
        let (fed, output) = std::thread::scope(|scope| {
            let feeder = scope.spawn(move || match pipe.write_all(stdin) {
                // A simulator that stops before reading all of its input
                // closes the pipe; its exit status and output decide.
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
                fed => fed,
            });
            let output = child.wait_with_output();
            (feeder.join().expect("stdin feeder does not panic"), output)
        });
        fed?;
        let output = output?;
        let elapsed = start.elapsed();
        if !output.status.success() {
            return Err(PipelineError::RunFailed {
                code: output.status.code(),
                stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
            });
        }
        Ok((
            String::from_utf8_lossy(&output.stdout).into_owned(),
            elapsed,
        ))
    }
}

impl Drop for CompiledSim {
    fn drop(&mut self) {
        if !self.persistent {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Generates Rust for `design`, compiles it with `rustc -O`, and returns
/// the runnable artifact with preparation timings.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn build(design: &Design, options: &EmitOptions) -> Result<CompiledSim, PipelineError> {
    let gen_start = Instant::now();
    let source = emit_rust(design, options);
    let generate = gen_start.elapsed();
    let dir = scratch_dir()?;
    match compile_into(&dir, source, generate, false) {
        Ok(sim) => Ok(sim),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

/// Writes `source` into `dir` as `main.rs`, compiles it to `dir/sim`.
fn compile_into(
    dir: &Path,
    source: String,
    generate: Duration,
    persistent: bool,
) -> Result<CompiledSim, PipelineError> {
    let src_path = dir.join("main.rs");
    let bin_path = dir.join("sim");
    std::fs::write(&src_path, &source)?;

    let compile_start = Instant::now();
    let output = Command::new("rustc")
        .args(["--edition", "2021", "-O", "-o"])
        .arg(&bin_path)
        .arg(&src_path)
        .output()
        .map_err(PipelineError::RustcMissing)?;
    let compile = compile_start.elapsed();
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        return Err(PipelineError::CompileFailed(stderr));
    }

    Ok(CompiledSim {
        dir: dir.to_path_buf(),
        binary: bin_path,
        persistent,
        source,
        timings: BuildTimings { generate, compile },
    })
}

fn scratch_dir() -> std::io::Result<PathBuf> {
    unique_dir(&std::env::temp_dir(), "asim2")
}

/// A private build directory *under the cache root*, so publishing it is
/// a same-filesystem rename.
fn staging_dir(root: &Path) -> std::io::Result<PathBuf> {
    unique_dir(root, ".staging")
}

fn unique_dir(parent: &Path, prefix: &str) -> std::io::Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = parent.join(format!("{prefix}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A compiled-binary cache for the generated-simulator pipeline, keyed by
/// a stable fingerprint of the *emitted source* (which captures the full
/// design semantics plus every emit option — the shape-only checkpoint
/// fingerprint would collide across distinct fuzz designs).
///
/// Two layers:
///
/// * **in-process** — hits return the same [`CompiledSim`] handle, so one
///   campaign/sweep invokes `rustc` once per distinct design;
/// * **on disk** (optional, [`BinaryCache::at_dir`]) — binaries persist
///   under the directory (e.g. a campaign's `bin-cache/`), so a resumed or
///   repeated run skips `rustc` entirely.
///
/// Shareable across worker threads (`Arc<BinaryCache>`): concurrent
/// misses for the same design race benignly — both compile, one handle
/// wins the map slot, disk publication is an atomic rename.
#[derive(Debug, Default)]
pub struct BinaryCache {
    dir: Option<PathBuf>,
    map: std::sync::Mutex<std::collections::HashMap<u64, std::sync::Arc<CompiledSim>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl BinaryCache {
    /// An in-process (memory-only) cache.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A cache that also persists binaries under `dir` (created on first
    /// use).
    pub fn at_dir(dir: impl Into<PathBuf>) -> Self {
        BinaryCache {
            dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// `(hits, misses)` so far — a campaign reports these.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The compiled simulator for `design` under `options`, building it on
    /// a cache miss.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn get(
        &self,
        design: &Design,
        options: &EmitOptions,
    ) -> Result<std::sync::Arc<CompiledSim>, PipelineError> {
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        let gen_start = Instant::now();
        let source = emit_rust(design, options);
        let generate = gen_start.elapsed();
        let mut fp = rtl_core::Fingerprint::new();
        fp.write(source.as_bytes());
        let key = fp.finish();

        if let Some(sim) = self.map.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(sim));
        }

        let sim = match &self.dir {
            Some(root) => {
                let slot = root.join(format!("{key:016x}"));
                if slot.join("sim").is_file() {
                    // A previous process left the compiled binary behind.
                    Arc::new(CompiledSim {
                        binary: slot.join("sim"),
                        dir: slot,
                        persistent: true,
                        source,
                        timings: BuildTimings {
                            generate,
                            compile: Duration::ZERO,
                        },
                    })
                } else {
                    // Compile into a private directory, then publish it
                    // with an atomic rename so concurrent workers and
                    // processes never observe a half-written binary.
                    // Stage *inside* the cache root: the publication
                    // rename below must not cross filesystems (a temp-dir
                    // staging area would EXDEV whenever /tmp is tmpfs and
                    // the cache directory is not).
                    std::fs::create_dir_all(root)?;
                    let staging = staging_dir(root)?;
                    let built = match compile_into(&staging, source, generate, true) {
                        Ok(built) => built,
                        Err(e) => {
                            let _ = std::fs::remove_dir_all(&staging);
                            return Err(e);
                        }
                    };
                    match std::fs::rename(&staging, &slot) {
                        Ok(()) => Arc::new(CompiledSim {
                            binary: slot.join("sim"),
                            dir: slot,
                            persistent: true,
                            source: built.source.clone(),
                            timings: built.timings,
                        }),
                        Err(_) if slot.join("sim").is_file() => {
                            // Lost the publication race; use the winner.
                            let _ = std::fs::remove_dir_all(&staging);
                            Arc::new(CompiledSim {
                                binary: slot.join("sim"),
                                dir: slot,
                                persistent: true,
                                source: built.source.clone(),
                                timings: built.timings,
                            })
                        }
                        Err(e) => {
                            let _ = std::fs::remove_dir_all(&staging);
                            return Err(PipelineError::Io(e));
                        }
                    }
                }
            }
            None => {
                let dir = scratch_dir()?;
                match compile_into(&dir, source, generate, false) {
                    Ok(sim) => Arc::new(sim),
                    Err(e) => {
                        let _ = std::fs::remove_dir_all(&dir);
                        return Err(e);
                    }
                }
            }
        };

        self.misses.fetch_add(1, Ordering::Relaxed);
        // A racing worker may have inserted meanwhile; keep the first so
        // every holder shares one handle.
        let mut map = self.map.lock().expect("cache lock");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&sim));
        Ok(Arc::clone(entry))
    }
}
