//! The host-speed probe: a fixed job of the benchmark's own, independent
//! of the program under test, timed between executions.
//!
//! The shared 2-core host the benchmark was sized on changes speed by up
//! to 2x over minutes, on every workload alike, so raw throughput from
//! runs a few minutes apart differs by more than any bound worth
//! keeping. The end-to-end time metrics are therefore scaled by how long
//! the probe took next to each execution against `REFERENCE`, its time on
//! the sizing host: they read as on the reference host, and a change to
//! the program moves them as much as it moves the raw figures, which are
//! printed too.

use std::time::{Duration, Instant};

/// The probe's typical time on the sizing host (2-core Xeon VM).
pub const REFERENCE: Duration = Duration::from_millis(100);
/// The probe runs one job per core the workloads use.
const THREADS: usize = 2;
const JOBS_PER_THREAD: usize = 8;

/// Fills, sorts and indexes a buffer: integer work, branches and
/// allocation, as the simulator's own loops are.
fn job() -> usize {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut data: Vec<u64> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    data.sort_unstable();
    let mut index = std::collections::BTreeMap::new();
    for (i, v) in data.iter().enumerate().step_by(4) {
        index.insert(*v % 65_521, i);
    }
    index.len()
}

/// Runs the fixed job on `THREADS` threads and returns how long it took.
pub fn probe() -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..JOBS_PER_THREAD {
                    std::hint::black_box(job());
                }
            });
        }
    });
    started.elapsed()
}
