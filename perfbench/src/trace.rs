//! Outside-in tracing of demand misses. The benchmark cannot see inside
//! the daemon, so it stamps the three boundaries it owns: the analysis
//! session's acquire call, the [`JobLauncher`] it hands the daemon, and
//! the step generator it hands the simulator. [`stitch`] then splits
//! each miss into stages keyed by key and sim id:
//!
//! ```text
//! acquire ─to_launch─▶ launch() ─launch─▶ returned ─restart─▶ first step
//!   ─produce─▶ step k generated ─(generation)─▶ ─deliver─▶ client holds Ready
//! ```
//!
//! A stage that ended before the acquire (a miss that joined a sim
//! already running) contributes nothing to that miss. Whatever the
//! stages do not cover, including the generator's own run time, is the
//! miss's residual.

use simbatch::{JobHandle, JobId, JobLauncher, SpawnSpec};
use simfs_core::server::{env_keys, ThreadSimLauncher};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One `launch()` call the daemon made.
#[derive(Clone, Debug)]
pub struct Launch {
    pub sim: u64,
    pub start_key: u64,
    pub enter: Instant,
    pub ret: Instant,
}

/// One step the generator produced, on the simulator thread that asked.
#[derive(Clone, Debug)]
pub struct Gen {
    pub key: u64,
    pub thread: ThreadId,
    pub begin: Instant,
    pub end: Instant,
}

/// One acquire that blocked on production, as its session saw it.
#[derive(Clone, Copy, Debug)]
pub struct Miss {
    pub key: u64,
    pub acquired: Instant,
    pub ready: Instant,
}

/// Stamp sink shared by the launcher and the generator; records only
/// while switched on.
#[derive(Default)]
pub struct Tracer {
    on: AtomicBool,
    launches: Mutex<Vec<Launch>>,
    gens: Mutex<Vec<Gen>>,
}

impl Tracer {
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Records that the calling thread generated `key` over `begin..end`.
    pub fn generated(&self, key: u64, begin: Instant, end: Instant) {
        if self.on() {
            let thread = std::thread::current().id();
            let gen = Gen {
                key,
                thread,
                begin,
                end,
            };
            self.gens.lock().expect("tracer poisoned").push(gen);
        }
    }

    /// Drains everything recorded so far.
    pub fn take(&self) -> (Vec<Launch>, Vec<Gen>) {
        let launches = std::mem::take(&mut *self.launches.lock().expect("tracer poisoned"));
        let gens = std::mem::take(&mut *self.gens.lock().expect("tracer poisoned"));
        (launches, gens)
    }
}

/// The in-process simulator launcher with its `launch()` calls stamped.
pub struct TracingLauncher {
    inner: ThreadSimLauncher,
    tracer: Arc<Tracer>,
}

impl TracingLauncher {
    pub fn new(inner: ThreadSimLauncher, tracer: Arc<Tracer>) -> TracingLauncher {
        TracingLauncher { inner, tracer }
    }
}

fn arg_after(spec: &SpawnSpec, flag: &str) -> Option<u64> {
    let pos = spec.args.iter().position(|a| a == flag)?;
    spec.args.get(pos + 1)?.parse().ok()
}

fn sim_id(spec: &SpawnSpec) -> Option<u64> {
    let (_, id) = spec.env.iter().find(|(k, _)| k == env_keys::SIM_ID)?;
    id.parse().ok()
}

impl JobLauncher for TracingLauncher {
    fn launch(&self, job: JobId, spec: &SpawnSpec) -> io::Result<JobHandle> {
        let enter = Instant::now();
        let handle = self.inner.launch(job, spec);
        let ret = Instant::now();
        if self.tracer.on() {
            if let (Some(sim), Some(start_key)) = (sim_id(spec), arg_after(spec, "--start-key")) {
                let launch = Launch {
                    sim,
                    start_key,
                    enter,
                    ret,
                };
                self.tracer
                    .launches
                    .lock()
                    .expect("tracer poisoned")
                    .push(launch);
            }
        }
        handle
    }

    fn kill(&self, job: JobId) -> io::Result<()> {
        self.inner.kill(job)
    }

    fn reap(&self) -> Vec<(JobId, bool)> {
        self.inner.reap()
    }
}

/// Stage samples in microseconds. Per-sim stages (`launch_us`,
/// `restart_us`, `step_us`) cover every traced sim; per-miss stages
/// cover the misses that spent time in them.
#[derive(Debug, Default)]
pub struct Lifecycle {
    pub to_launch_us: Vec<f64>,
    pub launch_us: Vec<f64>,
    pub restart_us: Vec<f64>,
    pub step_us: Vec<f64>,
    pub produce_us: Vec<f64>,
    pub deliver_us: Vec<f64>,
    pub residual_us: Vec<f64>,
    pub latency_us: Vec<f64>,
    /// Misses whose producing step or sim could not be found; their
    /// whole latency counts as residual.
    pub unstitched: usize,
    /// Distinct sims (by the id the daemon gave them) the stitched
    /// misses waited on.
    pub sims: usize,
}

impl Lifecycle {
    pub fn merge(&mut self, other: Lifecycle) {
        self.to_launch_us.extend(other.to_launch_us);
        self.launch_us.extend(other.launch_us);
        self.restart_us.extend(other.restart_us);
        self.step_us.extend(other.step_us);
        self.produce_us.extend(other.produce_us);
        self.deliver_us.extend(other.deliver_us);
        self.residual_us.extend(other.residual_us);
        self.latency_us.extend(other.latency_us);
        self.unstitched += other.unstitched;
        self.sims += other.sims;
    }
}

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// A simulator thread's steps, matched to the launch that started it.
struct SimRun<'a> {
    launch: Option<&'a Launch>,
    first_begin: Instant,
}

/// Splits every miss into stages. Each simulator thread is matched to
/// the latest launch whose start key is the thread's first step and
/// which was entered before that step began; each miss to the last
/// generation of its key that finished before the client held `Ready`.
pub fn stitch(launches: &[Launch], gens: &[Gen], misses: &[Miss]) -> Lifecycle {
    let mut out = Lifecycle {
        launch_us: launches.iter().map(|l| us(l.enter, l.ret)).collect(),
        ..Lifecycle::default()
    };

    let mut by_thread: HashMap<ThreadId, Vec<&Gen>> = HashMap::new();
    for g in gens {
        by_thread.entry(g.thread).or_default().push(g);
    }
    let mut threads: Vec<(ThreadId, Vec<&Gen>)> = by_thread.into_iter().collect();
    for (_, steps) in &mut threads {
        steps.sort_by_key(|g| g.begin);
        out.step_us
            .extend(steps.windows(2).map(|w| us(w[0].begin, w[1].begin)));
    }
    threads.sort_by_key(|(_, steps)| steps[0].begin);

    let mut claimed = vec![false; launches.len()];
    let mut runs: HashMap<ThreadId, SimRun> = HashMap::new();
    for (thread, steps) in &threads {
        let first = steps[0];
        let matched = launches
            .iter()
            .enumerate()
            .filter(|(i, l)| !claimed[*i] && l.start_key == first.key && l.enter <= first.begin)
            .max_by_key(|(_, l)| l.enter)
            .map(|(i, l)| {
                claimed[i] = true;
                l
            });
        if let Some(l) = matched {
            out.restart_us.push(us(l.ret, first.begin));
        }
        runs.insert(
            *thread,
            SimRun {
                launch: matched,
                first_begin: first.begin,
            },
        );
    }

    let mut sims = std::collections::HashSet::new();
    let mut by_key: HashMap<u64, Vec<&Gen>> = HashMap::new();
    for g in gens {
        by_key.entry(g.key).or_default().push(g);
    }
    for m in misses {
        let latency = us(m.acquired, m.ready);
        out.latency_us.push(latency);
        let gen = by_key
            .get(&m.key)
            .and_then(|gs| gs.iter().filter(|g| g.end <= m.ready).max_by_key(|g| g.end));
        let stitched = gen.and_then(|g| {
            let run = runs.get(&g.thread)?;
            Some((g, run, run.launch?))
        });
        let Some((g, run, launch)) = stitched else {
            out.unstitched += 1;
            out.residual_us.push(latency);
            continue;
        };
        sims.insert(launch.sim);
        // A stage counts for this miss only from the acquire onwards.
        let clip = |from: Instant, to: Instant| us(from.max(m.acquired), to);
        let to_launch = clip(m.acquired, launch.enter);
        let spawn = clip(launch.enter, launch.ret);
        let restart = clip(launch.ret, run.first_begin);
        let produce = clip(run.first_begin, g.begin);
        let deliver = clip(g.end, m.ready);
        for (value, samples) in [
            (to_launch, &mut out.to_launch_us),
            (produce, &mut out.produce_us),
            (deliver, &mut out.deliver_us),
        ] {
            if value > 0.0 {
                samples.push(value);
            }
        }
        out.residual_us
            .push(latency - (to_launch + spawn + restart + produce + deliver));
    }
    out.sims = sims.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(base: Instant, us: u64) -> Instant {
        base + Duration::from_micros(us)
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{got:?} vs {want:?}");
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-3, "{got:?} vs {want:?}");
        }
    }

    /// Steps `keys` generated on a fresh thread starting at `t0` µs,
    /// `gap` µs apart, each taking 5 µs.
    fn sim_thread(
        base: Instant,
        keys: std::ops::RangeInclusive<u64>,
        t0: u64,
        gap: u64,
    ) -> Vec<Gen> {
        let handle = std::thread::spawn(|| {});
        let thread = handle.thread().id();
        handle.join().expect("empty thread");
        keys.enumerate()
            .map(|(i, key)| {
                let begin = at(base, t0 + i as u64 * gap);
                Gen {
                    key,
                    thread,
                    begin,
                    end: begin + Duration::from_micros(5),
                }
            })
            .collect()
    }

    #[test]
    fn own_launch_miss_splits_into_stages() {
        let base = Instant::now();
        let launches = [Launch {
            sim: 7,
            start_key: 9,
            enter: at(base, 100),
            ret: at(base, 130),
        }];
        // Restart ends at 4130 µs; steps 9..=12 every 1000 µs.
        let gens = sim_thread(base, 9..=12, 4130, 1000);
        let misses = [Miss {
            key: 11,
            acquired: at(base, 0),
            ready: at(base, 6300),
        }];
        let lc = stitch(&launches, &gens, &misses);
        assert_eq!((lc.unstitched, lc.sims), (0, 1));
        assert_close(&lc.to_launch_us, &[100.0]);
        assert_close(&lc.launch_us, &[30.0]);
        assert_close(&lc.restart_us, &[4000.0]);
        assert_close(&lc.step_us, &[1000.0; 3]);
        assert_close(&lc.produce_us, &[2000.0]);
        // Step 11 finished at 6135 µs.
        assert_close(&lc.deliver_us, &[165.0]);
        // Only the generator's 5 µs is unattributed.
        assert_close(&lc.residual_us, &[5.0]);
    }

    #[test]
    fn joined_miss_counts_only_stages_after_its_acquire() {
        let base = Instant::now();
        let launches = [Launch {
            sim: 3,
            start_key: 1,
            enter: at(base, 0),
            ret: at(base, 20),
        }];
        let gens = sim_thread(base, 1..=4, 1000, 1000);
        // Acquired while the sim was already producing step 2.
        let misses = [Miss {
            key: 4,
            acquired: at(base, 2500),
            ready: at(base, 4100),
        }];
        let lc = stitch(&launches, &gens, &misses);
        assert!(lc.to_launch_us.is_empty());
        assert_close(&lc.produce_us, &[1500.0]);
        assert_close(&lc.deliver_us, &[95.0]);
        assert_close(&lc.residual_us, &[5.0]);
    }

    #[test]
    fn relaunch_of_an_interval_matches_the_latest_launch() {
        let base = Instant::now();
        let launches = [
            Launch {
                sim: 1,
                start_key: 5,
                enter: at(base, 0),
                ret: at(base, 10),
            },
            Launch {
                sim: 2,
                start_key: 5,
                enter: at(base, 10_000),
                ret: at(base, 10_010),
            },
        ];
        let mut gens = sim_thread(base, 5..=6, 1000, 1000);
        gens.extend(sim_thread(base, 5..=6, 11_000, 1000));
        let misses = [Miss {
            key: 6,
            acquired: at(base, 9_000),
            ready: at(base, 12_100),
        }];
        let lc = stitch(&launches, &gens, &misses);
        assert_close(&lc.restart_us, &[990.0, 990.0]);
        assert_close(&lc.to_launch_us, &[1000.0]);
        assert_eq!(lc.sims, 1);
    }

    #[test]
    fn unmatched_miss_is_all_residual() {
        let base = Instant::now();
        let misses = [Miss {
            key: 2,
            acquired: at(base, 0),
            ready: at(base, 800),
        }];
        let lc = stitch(&[], &[], &misses);
        assert_eq!(lc.unstitched, 1);
        assert_close(&lc.residual_us, &[800.0]);
    }
}
