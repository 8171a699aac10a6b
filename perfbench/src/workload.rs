//! The three workloads and one measured round of each: a fresh
//! in-process daemon over a fresh storage area holding the resident
//! set, driven through DVLib by at most `nproc` closed-loop analysis
//! sessions.

use crate::gen::{scan_keys, Rng, Zipf};
use crate::sysinfo;
use crate::trace::{stitch, Lifecycle, Miss, Tracer, TracingLauncher};
use simfs_core::client::SimfsClient;
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::dv::DvStats;
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::server::{ClusterMember, DurabilityCfg, DvServer, ServerConfig, ThreadSimLauncher};
use simstore::{Data, Dataset, StorageArea};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CONTEXT: &str = "perfbench";
/// Output steps per restart interval (`Δr / Δd`).
const INTERVAL_STEPS: u64 = 4;
/// Simulated restart latency before a re-simulation's first step.
pub const RESTART_DELAY: Duration = Duration::from_millis(4);
/// Simulated production time of one output step.
pub const STEP_DELAY: Duration = Duration::from_millis(1);
/// Zipf skew of `hits` (YCSB's θ).
const ZIPF_THETA: f64 = 0.99;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Zipf acquire→release over a fully resident timeline.
    Hits,
    /// Forward and backward analyses over a cold timeline far larger
    /// than the cache, thinking longer per step than a sim produces one.
    Scan,
    /// Uniform keys over a 95%-resident timeline with the pin WAL on.
    Churn,
}

/// Everything a workload fixes; the daemon itself runs on defaults.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Timeline length in output steps.
    pub steps: u64,
    /// Cache budget in output steps.
    pub cache_steps: u64,
    /// Steps `1..=resident` are on disk before the daemon starts.
    pub resident: u64,
    /// Pin/lease write-ahead log on.
    pub durable: bool,
    /// Acquires per session per round.
    pub ops: usize,
    /// Pause after each release (analysis compute time).
    pub think: Duration,
    /// Read back and compare every acquired step (otherwise each key is
    /// checked once per run, untimed).
    pub verify_each: bool,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            "hits" => Workload {
                kind: Kind::Hits,
                name: "hits",
                steps: 4096,
                cache_steps: 4096,
                resident: 4096,
                durable: false,
                ops: 20_000,
                think: Duration::ZERO,
                verify_each: false,
            },
            "scan" => Workload {
                kind: Kind::Scan,
                name: "scan",
                steps: 8192,
                cache_steps: 512,
                resident: 0,
                durable: false,
                ops: 384,
                think: Duration::from_millis(5),
                verify_each: true,
            },
            "churn" => Workload {
                kind: Kind::Churn,
                name: "churn",
                steps: 1280,
                // One restart interval of slack above the resident set:
                // the cold 5% keeps missing and evicting.
                cache_steps: 1220,
                resident: 1216,
                durable: true,
                ops: 2000,
                think: Duration::ZERO,
                verify_each: true,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The keys session `session` of `sessions` acquires in one round.
    fn plan(
        &self,
        zipf: &Zipf,
        seed: u64,
        stream: u64,
        session: usize,
        sessions: usize,
    ) -> Vec<u64> {
        let mut rng = Rng::new(seed, (stream << 8) | session as u64);
        match self.kind {
            // Rank r is key r + 1: the hottest keys share a restart
            // interval and neighbouring hit-index shards.
            Kind::Hits => (0..self.ops).map(|_| 1 + zipf.sample(&mut rng)).collect(),
            Kind::Scan => {
                // Disjoint halves: the forward analysis scans the lower
                // half, the backward one the upper half.
                let half = self.steps / sessions.min(2) as u64;
                let forward = session.is_multiple_of(2);
                let lo = if forward { 1 } else { half + 1 };
                scan_keys(&mut rng, lo, lo + half - 1, self.ops as u64, forward)
            }
            Kind::Churn => (0..self.ops).map(|_| rng.range(1, self.steps)).collect(),
        }
    }
}

/// Bytes of output step `key`: a small SDF dataset, so the daemon's
/// structural integrity check runs on every produced step.
pub fn step_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("simulator", "perfbench");
    let field: Vec<f64> = (0..16).map(|i| (key * 31 + i) as f64).collect();
    ds.add_var("field", vec![16], Data::F64(field))
        .expect("static dataset shape");
    ds.encode().to_vec()
}

fn driver() -> PatternDriver {
    PatternDriver::new("out-", ".sdf", 6)
}

/// Counter deltas of the measured phase (only the fields the report
/// reads).
macro_rules! stats_delta {
    ($after:expr, $before:expr; $($field:ident),* $(,)?) => {
        DvStats { $($field: $after.$field.saturating_sub($before.$field),)* ..DvStats::default() }
    };
}

fn measured_delta(after: &DvStats, before: &DvStats) -> DvStats {
    stats_delta!(after, before;
        hits, misses, restarts, prefetch_launches, produced_steps, evictions, kills,
        pollution_resets, failures, acquired_fast, acquired_slow, hit_fallbacks,
        lock_wait_ns, lock_hold_ns, lock_transitions, digest_replayed, digest_dropped,
        prefetch_hits, wal_appends, wal_syncs, sim_retries, corrupt_outputs,
        effects_offloaded, helper_queue_full, effect_spawn_ns, effect_spawn_ops,
        effect_wal_ns, effect_wal_ops, effect_evict_ns, effect_evict_ops,
        effect_read_ns, effect_read_ops)
}

/// One round's results.
#[derive(Default)]
pub struct RoundOut {
    pub traced: bool,
    pub setup_s: f64,
    pub elapsed_s: f64,
    /// Completed operations of the measured phase.
    pub ops: u64,
    /// Acquires issued, including untimed verification.
    pub attempted: u64,
    pub failed: u64,
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub stats: DvStats,
    pub cpu_s: f64,
    /// Threads alive at the start of the measured phase, and of those
    /// the daemon's reactor shards and effect helpers.
    pub threads: usize,
    pub reactor_shards: usize,
    pub effect_helpers: usize,
    pub lifecycle: Lifecycle,
    /// The process's peak resident set so far, read when the measured
    /// phase ends.
    pub peak_rss_mb: f64,
}

/// What one session brings back from the measured phase.
#[derive(Default)]
struct SessionOut {
    ops: u64,
    attempted: u64,
    failed: u64,
    hit_us: Vec<f64>,
    misses: Vec<Miss>,
    end: Option<Instant>,
}

/// Prints the first few failure reasons of a run, then only counts.
#[derive(Default)]
struct FailureLog {
    seen: AtomicUsize,
}

impl FailureLog {
    const MAX_PRINTED: usize = 10;

    fn record(&self, reason: String) {
        if self.seen.fetch_add(1, Ordering::Relaxed) < Self::MAX_PRINTED {
            println!("FAILED: {reason}");
        }
    }
}

/// The per-run fixtures shared by every round.
pub struct Bench {
    pub w: Workload,
    seed: u64,
    sessions: usize,
    work: PathBuf,
    /// The resident set, published once per run.
    template: StorageArea,
    /// What the generator makes for each step, indexed by key.
    expected: Vec<Vec<u8>>,
    zipf: Zipf,
    tracer: Arc<Tracer>,
    failures: FailureLog,
}

impl Bench {
    /// Generates every step's bytes and publishes the resident set once
    /// into a template area the rounds link their storage areas from.
    pub fn new(w: Workload, seed: u64, sessions: usize, work: PathBuf) -> io::Result<Bench> {
        let expected: Vec<Vec<u8>> = (0..=w.steps).map(step_bytes).collect();
        let template = StorageArea::create(work.join("template"), u64::MAX)?;
        for key in 1..=w.resident {
            std::fs::write(
                template.path_for(&driver().filename_of(key))?,
                &expected[key as usize],
            )?;
        }
        Ok(Bench {
            zipf: Zipf::new(w.steps, ZIPF_THETA),
            w,
            seed,
            sessions,
            work,
            template,
            expected,
            tracer: Arc::new(Tracer::default()),
            failures: FailureLog::default(),
        })
    }

    fn start_daemon(&self, storage: StorageArea) -> io::Result<DvServer> {
        let size = self.expected[1].len() as u64;
        let ctx = ContextCfg::new(
            CONTEXT,
            StepMath::new(1, INTERVAL_STEPS, self.w.steps),
            size,
            self.w.cache_steps * size,
        );
        let tracer = Arc::clone(&self.tracer);
        let sim = ThreadSimLauncher::new(
            move |key| {
                let begin = Instant::now();
                let bytes = step_bytes(key);
                tracer.generated(key, begin, Instant::now());
                bytes
            },
            |key| driver().filename_of(key),
            RESTART_DELAY,
            STEP_DELAY,
        );
        let durability = if self.w.durable {
            DurabilityCfg::durable(false)
        } else {
            DurabilityCfg::default()
        };
        DvServer::start(
            ServerConfig {
                ctx,
                driver: Arc::new(driver()),
                storage,
                launcher: Arc::new(TracingLauncher::new(sim, Arc::clone(&self.tracer))),
                checksums: HashMap::new(),
                dv_shards: 0,
                cluster: ClusterMember::SOLO,
                durability,
            },
            "127.0.0.1:0",
        )
    }

    /// Compares a step read back from the storage area with the bytes
    /// the generator makes for it.
    fn check_bytes(&self, area: &StorageArea, key: u64) -> Result<(), String> {
        match area.read(&driver().filename_of(key)) {
            Ok(bytes) if bytes == self.expected[key as usize] => Ok(()),
            Ok(bytes) => Err(format!(
                "step {key}: {} bytes differ from the generator's",
                bytes.len()
            )),
            Err(e) => Err(format!("step {key}: read back failed: {e}")),
        }
    }

    /// One acquire→(verify)→release; returns whether it was a miss, or
    /// why it failed.
    fn op(
        &self,
        client: &mut SimfsClient,
        area: &StorageArea,
        key: u64,
        verify: bool,
    ) -> Result<(Instant, Instant, bool), String> {
        let acquired = Instant::now();
        let status = client
            .acquire(&[key])
            .map_err(|e| format!("acquire {key}: {e}"))?;
        let ready = Instant::now();
        if !status.failed.is_empty() || status.ready != [key] {
            return Err(format!(
                "acquire {key}: ready {:?}, failed {:?}",
                status.ready, status.failed
            ));
        }
        let checked = if verify {
            self.check_bytes(area, key)
        } else {
            Ok(())
        };
        client
            .release(key)
            .map_err(|e| format!("release {key}: {e}"))?;
        checked?;
        Ok((acquired, ready, status.est_wait.is_some()))
    }

    fn session(
        &self,
        addr: SocketAddr,
        area: &StorageArea,
        plan: &[u64],
        ready: &Barrier,
        go: &Barrier,
    ) -> SessionOut {
        let client = SimfsClient::connect(addr, CONTEXT);
        ready.wait();
        go.wait();
        let mut out = SessionOut {
            attempted: plan.len() as u64,
            ..SessionOut::default()
        };
        let mut client = match client {
            Ok(client) => client,
            Err(e) => {
                self.failures.record(format!("connect: {e}"));
                out.failed = plan.len() as u64;
                return out;
            }
        };
        // A broken session keeps failing fast, so every remaining op
        // still counts.
        for &key in plan {
            match self.op(&mut client, area, key, self.w.verify_each) {
                Ok((acquired, ready, true)) => {
                    out.ops += 1;
                    out.misses.push(Miss {
                        key,
                        acquired,
                        ready,
                    });
                }
                Ok((acquired, ready, false)) => {
                    out.ops += 1;
                    out.hit_us
                        .push(ready.duration_since(acquired).as_secs_f64() * 1e6);
                }
                Err(reason) => {
                    self.failures.record(reason);
                    out.failed += 1;
                }
            }
            if !self.w.think.is_zero() {
                std::thread::sleep(self.w.think);
            }
        }
        out.end = Some(Instant::now());
        if let Err(e) = client.finalize() {
            self.failures.record(format!("finalize: {e}"));
            out.failed += 1;
        }
        out
    }

    /// Acquires every step once, untimed, and compares its bytes.
    fn verify_all(&self, addr: SocketAddr, area: &StorageArea, out: &mut RoundOut) {
        let keys: Vec<u64> = (1..=self.w.steps).collect();
        out.attempted += keys.len() as u64;
        let mut client = match SimfsClient::connect(addr, CONTEXT) {
            Ok(client) => client,
            Err(e) => {
                self.failures.record(format!("verify connect: {e}"));
                out.failed += keys.len() as u64;
                return;
            }
        };
        for &key in &keys {
            if let Err(reason) = self.op(&mut client, area, key, true) {
                self.failures.record(reason);
                out.failed += 1;
            }
        }
        if let Err(e) = client.finalize() {
            self.failures.record(format!("verify finalize: {e}"));
        }
    }

    /// The tracer's own check: two cold misses on an idle daemon. Their
    /// restart and step stages must land at or above the configured
    /// delays, and above them by no more than this machine's overheads
    /// measured just before: for the restart, sleep overshoot and the
    /// daemon handshake (a simulator says hello before its restart
    /// delay); for a step, the same step done locally plus one sleep
    /// overshoot.
    pub fn calibrate(&self) -> io::Result<Vec<(String, bool)>> {
        // A simulator step done locally: the step delay, generating the
        // bytes, and publishing them (write, fsync, rename).
        let probe = StorageArea::create(self.work.join("publish-probe"), u64::MAX)?;
        let mut step_probe = Vec::new();
        for i in 0..20 {
            let t = Instant::now();
            std::thread::sleep(STEP_DELAY);
            probe.publish(&format!("probe-{i}"), &step_bytes(i))?;
            step_probe.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let _ = std::fs::remove_dir_all(probe.root());
        step_probe.sort_by(f64::total_cmp);
        let step_p90 = crate::stats::percentile(&step_probe, 0.9).unwrap_or(0.0);
        let (_, overshoot_p90) = sysinfo::sleep_overshoot_us();

        let dir = self.work.join("calibration");
        let _ = std::fs::remove_dir_all(&dir);
        let area = StorageArea::create(&dir, u64::MAX)?;
        self.tracer.set(true);
        self.tracer.take();
        let server = self.start_daemon(area.clone())?;
        let t = Instant::now();
        let mut client = SimfsClient::connect(server.addr(), CONTEXT)?;
        let handshake_us = t.elapsed().as_secs_f64() * 1e6;
        // The last step of two intervals: each miss re-simulates a whole
        // interval, so every sim has steps to time the gaps between.
        let keys = [2 * INTERVAL_STEPS - 1, 4 * INTERVAL_STEPS - 1];
        let outcomes: Vec<_> = keys
            .iter()
            .map(|&key| self.op(&mut client, &area, key, true))
            .collect();
        let _ = client.finalize();
        self.tracer.set(false);
        server.shutdown();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        let mut misses = Vec::new();
        for (&key, outcome) in keys.iter().zip(outcomes) {
            let (acquired, ready, miss) = outcome.map_err(io::Error::other)?;
            if miss {
                misses.push(Miss {
                    key,
                    acquired,
                    ready,
                });
            }
        }
        let (launches, gens) = self.tracer.take();
        let lc = stitch(&launches, &gens, &misses);

        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let within = |name: &str, samples: &[f64], floor: f64, slack: f64| {
            let got = crate::stats::median(samples).unwrap_or(0.0);
            let ok = got >= floor && got <= floor + slack;
            (
                format!(
                    "calibration {name} median {got:.0} us in [{floor:.0}, {:.0}] us",
                    floor + slack
                ),
                ok,
            )
        };
        Ok(vec![
            (
                format!("calibration steps {keys:?} missed and stitched"),
                misses.len() == keys.len() && lc.unstitched == 0,
            ),
            // The first step follows the restart delay and one step delay;
            // the simulator thread's start is one more wake-up.
            within(
                "sim.restart_us",
                &lc.restart_us,
                us(RESTART_DELAY + STEP_DELAY),
                handshake_us + 3.0 * overshoot_p90,
            ),
            // The daemon verifying and announcing each step competes with
            // the simulator thread; one more wake-up covers it.
            within(
                "sim.step_us",
                &lc.step_us,
                us(STEP_DELAY),
                step_p90 + overshoot_p90 - us(STEP_DELAY),
            ),
        ])
    }

    /// One round: link the resident set, start the daemon, connect
    /// the sessions (together the set-up), run every session's plan,
    /// then tear everything down. `stream` picks the operation
    /// sequence: rounds with the same stream replay the same keys.
    pub fn round(
        &self,
        index: u64,
        stream: u64,
        traced: bool,
        verify_all: bool,
    ) -> io::Result<RoundOut> {
        let dir = self.work.join(format!("round-{index}"));
        let _ = std::fs::remove_dir_all(&dir);
        let area = StorageArea::create(&dir, u64::MAX)?;
        // Links, not copies: re-simulations publish by rename and
        // evictions unlink, so the template's files are never modified.
        for key in 1..=self.w.resident {
            let name = driver().filename_of(key);
            std::fs::hard_link(self.template.path_for(&name)?, area.path_for(&name)?)?;
        }
        let plans: Vec<Vec<u64>> = (0..self.sessions)
            .map(|s| self.w.plan(&self.zipf, self.seed, stream, s, self.sessions))
            .collect();
        self.tracer.set(traced);
        self.tracer.take();

        let mut out = RoundOut {
            traced,
            ..RoundOut::default()
        };
        let t0 = Instant::now();
        let server = self.start_daemon(area.clone())?;
        let addr = server.addr();
        let ready = Barrier::new(self.sessions + 1);
        let go = Barrier::new(self.sessions + 1);
        let (before, cpu0, start, sessions) = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|plan| scope.spawn(|| self.session(addr, &area, plan, &ready, &go)))
                .collect();
            ready.wait();
            out.setup_s = t0.elapsed().as_secs_f64();
            out.threads = sysinfo::thread_count();
            out.reactor_shards = sysinfo::threads_named("dv-reactor-");
            out.effect_helpers = sysinfo::threads_named("dv-effect-");
            let before = server.stats();
            let cpu0 = sysinfo::cpu_seconds();
            go.wait();
            let start = Instant::now();
            let sessions: Vec<SessionOut> = handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect();
            (before, cpu0, start, sessions)
        });
        out.cpu_s = sysinfo::cpu_seconds() - cpu0;
        out.peak_rss_mb = sysinfo::peak_rss_mb();
        out.stats = measured_delta(&server.stats(), &before);
        let end = sessions.iter().filter_map(|s| s.end).max().unwrap_or(start);
        out.elapsed_s = end.duration_since(start).as_secs_f64();
        let mut misses = Vec::new();
        for s in sessions {
            out.ops += s.ops;
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.hit_us.extend(s.hit_us);
            misses.extend(s.misses);
        }
        out.miss_us = misses
            .iter()
            .map(|m| m.ready.duration_since(m.acquired).as_secs_f64() * 1e6)
            .collect();
        if verify_all {
            self.verify_all(addr, &area, &mut out);
        }
        self.tracer.set(false);
        server.shutdown();
        drop(server);
        let (launches, gens) = self.tracer.take();
        if traced {
            out.lifecycle = stitch(&launches, &gens, &misses);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(out)
    }
}
