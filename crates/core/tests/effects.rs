//! Effect-execution tier tests: pooled vs inline equivalence,
//! head-of-line blocking, queue backpressure, supervision with helpers
//! on, the saturated-stream digest guarantee, the `Status` durability
//! point of the fast-pin window, and deferred eviction deletes racing
//! re-productions.
//!
//! The daemon's default is pool ON (one helper per reactor shard);
//! `effect_helpers: Some(0)` is the inline compatibility mode these
//! tests use as the counterfactual.

use simbatch::ParallelismMap;
use simfs_core::client::SimfsClient;
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::server::{
    ClusterMember, DaemonTuning, DurabilityCfg, DvServer, ServerConfig, SimFaultSpec,
    ThreadSimLauncher,
};
use simstore::{Data, Dataset, StorageArea};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn step_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("simulator", "synthetic");
    let field: Vec<f64> = (0..16).map(|i| (key * 31 + i) as f64).collect();
    ds.add_var("field", vec![16], Data::F64(field)).unwrap();
    ds.encode().to_vec()
}

struct Fixture {
    server: DvServer,
    storage: StorageArea,
    _dir: std::path::PathBuf,
}

struct FixtureCfg {
    cache_steps: u64,
    smax: u32,
    prefetch: bool,
    faults: SimFaultSpec,
    supervisor: Option<simfs_core::model::SupervisorCfg>,
    tuning: DaemonTuning,
    policy: &'static str,
    /// Simulated restart latency and per-step production time.
    restart: Duration,
    per_step: Duration,
    durability: DurabilityCfg,
}

impl Default for FixtureCfg {
    fn default() -> FixtureCfg {
        FixtureCfg {
            cache_steps: 1000,
            smax: 8,
            prefetch: false,
            faults: SimFaultSpec::default(),
            supervisor: None,
            tuning: DaemonTuning::default(),
            policy: "dcl",
            restart: Duration::from_millis(2),
            per_step: Duration::from_millis(1),
            durability: DurabilityCfg::default(),
        }
    }
}

/// One-DV-shard daemon over a fresh storage area with explicit
/// [`DaemonTuning`] — the knob under test here.
fn start_daemon(tag: &str, cfg: FixtureCfg) -> Fixture {
    let dir = std::env::temp_dir().join(format!(
        "simfs-effects-{}-{}-{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let driver = Arc::new(
        PatternDriver::new("out-", ".sdf", 6)
            .with_parallelism(ParallelismMap::unconstrained(1, 2)),
    );
    let size = step_bytes(1).len() as u64;
    let steps = StepMath::new(1, 4, 64);
    let mut ctx = ContextCfg::new("test-ctx", steps, size, cfg.cache_steps * size)
        .with_policy(cfg.policy)
        .with_smax(cfg.smax)
        .with_prefetch(cfg.prefetch);
    if let Some(sup) = cfg.supervisor {
        ctx = ctx.with_supervisor(sup);
    }
    let checksums: HashMap<u64, u64> = (1..=8)
        .map(|k| (k, simstore::fnv1a64(&step_bytes(k))))
        .collect();
    let launcher = Arc::new(
        ThreadSimLauncher::new(
            step_bytes,
            |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
            cfg.restart,
            cfg.per_step,
        )
        .with_faults(cfg.faults),
    );
    let server = DvServer::start_tuned(
        vec![ServerConfig {
            ctx,
            driver,
            storage: storage.clone(),
            launcher,
            checksums,
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: cfg.durability,
        }],
        "127.0.0.1:0",
        cfg.tuning,
    )
    .unwrap();
    Fixture {
        server,
        storage,
        _dir: dir,
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Polls the status API until no re-simulation is active, so the next
/// op's hit/miss classification is timing-independent.
fn settle(client: &mut SimfsClient) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = client.status().unwrap();
        if st.active_sims == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "sims never settled: {st:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The pooled ≡ inline contract, end to end over real sockets: the
/// same deterministic request sequence driven through a default
/// (effect-pool) daemon and through an inline (`effect_helpers =
/// Some(0)`) daemon must produce identical client-visible outcomes —
/// per-request ready/failed sets, identical
/// hit/miss/restart/production/eviction totals after quiescence, and
/// identical final storage listings. The effect tier may only change
/// *where* effects execute, never *what* they do.
#[test]
fn pooled_and_inline_daemons_serve_identical_outcomes() {
    // A cache of 12 steps (3 intervals at B = 4) forces evictions
    // mid-sequence, exercising the pooled delete path; every acquire
    // is blocking and settled before the next op, so the eviction
    // decisions are deterministic on both sides.
    let mk = |tag: &str, helpers: Option<usize>| {
        start_daemon(
            tag,
            FixtureCfg {
                cache_steps: 12,
                tuning: DaemonTuning {
                    effect_helpers: helpers,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    };
    let pooled = mk("eq-pooled", None);
    let inline = mk("eq-inline", Some(0));
    let mut pc = SimfsClient::connect(pooled.server.addr(), "test-ctx").unwrap();
    let mut ic = SimfsClient::connect(inline.server.addr(), "test-ctx").unwrap();

    enum Op {
        Acquire(&'static [u64]),
        Release(u64),
    }
    let ops = [
        Op::Acquire(&[2]),
        Op::Acquire(&[6]),
        Op::Acquire(&[2]), // hit
        Op::Release(2),
        Op::Acquire(&[10]),
        Op::Release(6),
        Op::Release(2),
        Op::Acquire(&[14]), // pressure: evicts an unpinned interval
        Op::Acquire(&[18]),
        Op::Acquire(&[9999]), // out of timeline: typed failure
        Op::Release(10),
        Op::Acquire(&[22, 26]),
        Op::Acquire(&[6]), // may re-miss after eviction — same on both
    ];
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Acquire(keys) => {
                let got = pc.acquire(keys).unwrap();
                let want = ic.acquire(keys).unwrap();
                assert_eq!(
                    sorted(got.ready.clone()),
                    sorted(want.ready.clone()),
                    "op {i}: ready sets diverge"
                );
                let got_failed: Vec<u64> = got.failed.iter().map(|(k, _)| *k).collect();
                let want_failed: Vec<u64> = want.failed.iter().map(|(k, _)| *k).collect();
                assert_eq!(
                    sorted(got_failed),
                    sorted(want_failed),
                    "op {i}: failed sets diverge"
                );
                settle(&mut pc);
                settle(&mut ic);
            }
            Op::Release(key) => {
                pc.release(*key).unwrap();
                ic.release(*key).unwrap();
            }
        }
    }
    pc.finalize().unwrap();
    ic.finalize().unwrap();

    // Give queued eviction deletes on the pooled side time to land
    // before comparing the on-disk listings.
    std::thread::sleep(Duration::from_millis(200));
    let ps = pooled.server.stats();
    let is = inline.server.stats();
    for (name, p, i) in [
        ("hits", ps.hits, is.hits),
        ("misses", ps.misses, is.misses),
        ("restarts", ps.restarts, is.restarts),
        ("produced_steps", ps.produced_steps, is.produced_steps),
        ("failures", ps.failures, is.failures),
        ("evictions", ps.evictions, is.evictions),
    ] {
        assert_eq!(p, i, "{name} diverges: pooled {p} vs inline {i}");
    }
    assert!(ps.evictions > 0, "sequence never evicted: {ps:?}");
    assert!(
        ps.effects_offloaded > 0,
        "pooled daemon never used its helpers: {ps:?}"
    );
    assert_eq!(is.effects_offloaded, 0, "inline daemon offloaded: {is:?}");
    let mut plist = pooled.storage.list().unwrap();
    let mut ilist = inline.storage.list().unwrap();
    plist.sort();
    ilist.sort();
    assert_eq!(plist, ilist, "final storage listings diverge");
}

/// Drives the head-of-line scenario: a single-reactor-shard daemon, a
/// slow miss (600 ms synchronous `launch()`) issued from one
/// connection, then timed pure-hit acquires from a second connection.
/// Returns the worst observed hit latency.
fn worst_hit_latency_behind_slow_miss(tag: &str, helpers: Option<usize>) -> Duration {
    let fx = start_daemon(
        tag,
        FixtureCfg {
            faults: SimFaultSpec {
                launch_delay: Duration::from_millis(600),
                ..Default::default()
            },
            tuning: DaemonTuning {
                reactor_shards: 1,
                effect_helpers: helpers,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let addr = fx.server.addr();
    // Warm key 2 so the timed acquires are pure fast-path hits. The
    // warm-up miss pays the launch delay once, before timing starts.
    let mut hitter = SimfsClient::connect(addr, "test-ctx").unwrap();
    let status = hitter.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    settle(&mut hitter);

    // The miss client blocks in acquire() for the whole launch delay,
    // so it runs on its own thread; with one reactor shard its
    // `launch()` stalls the entire daemon front-end in inline mode.
    let misser = std::thread::spawn(move || {
        let mut mc = SimfsClient::connect(addr, "test-ctx").unwrap();
        let status = mc.acquire(&[30]).unwrap();
        assert!(status.ok(), "{status:?}");
        mc.finalize().unwrap();
    });
    // Let the miss frame reach the daemon and enter its transition.
    std::thread::sleep(Duration::from_millis(100));
    let mut worst = Duration::ZERO;
    for _ in 0..10 {
        let t0 = Instant::now();
        let status = hitter.acquire(&[2]).unwrap();
        assert!(status.ok(), "{status:?}");
        worst = worst.max(t0.elapsed());
        hitter.release(2).unwrap();
    }
    misser.join().unwrap();
    hitter.finalize().unwrap();
    worst
}

/// Inline counterfactual: with the pool disabled, the slow miss's
/// synchronous `launch()` runs on the only reactor shard thread and
/// hits queue behind it — the regression the effect tier exists to
/// fix. This test *demonstrates the failure mode*; its partner below
/// shows the pool removing it.
#[test]
fn slow_miss_blocks_hits_without_effect_pool() {
    let worst = worst_hit_latency_behind_slow_miss("hol-inline", Some(0));
    assert!(
        worst >= Duration::from_millis(200),
        "inline mode should stall hits behind the 600 ms launch, worst was {worst:?}"
    );
}

/// With the pool on (default helpers), the launch executes on a helper
/// thread and concurrent hits on the same reactor shard stay fast.
#[test]
fn slow_miss_does_not_block_hits_with_effect_pool() {
    let worst = worst_hit_latency_behind_slow_miss("hol-pooled", None);
    assert!(
        worst < Duration::from_millis(200),
        "pooled hits stalled behind the slow miss, worst was {worst:?}"
    );
}

/// Overflowing a tiny effect queue (capacity 2, one helper, 20 ms per
/// launch) must park the submitting shard thread — backpressure, not
/// loss: every acquire still completes, nothing deadlocks, and the
/// stall is visible in `helper_queue_full`.
#[test]
fn saturated_effect_queue_applies_backpressure_without_loss() {
    let fx = start_daemon(
        "saturate",
        FixtureCfg {
            faults: SimFaultSpec {
                launch_delay: Duration::from_millis(20),
                ..Default::default()
            },
            tuning: DaemonTuning {
                reactor_shards: 1,
                effect_helpers: Some(1),
                effect_queue_cap: 2,
            },
            ..Default::default()
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    // Eight misses in distinct restart intervals (B = 4) as one merged
    // request: the single commit carries eight 20 ms launches, keeping
    // the lone helper busy ~160 ms while the sims' ~48 protocol events
    // flood the capacity-2 queue and park the submitting shard thread.
    let keys: Vec<u64> = (0..8).map(|i| 1 + i * 4).collect();
    let mut req = client.acquire_nb(&keys).unwrap();
    let status = client.wait(&mut req).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(sorted(status.ready.clone()), keys);
    let stats = fx.server.stats();
    assert_eq!(stats.failures, 0, "{stats:?}");
    assert_eq!(stats.restarts, 8, "{stats:?}");
    assert!(stats.effects_offloaded > 0, "{stats:?}");
    assert!(
        stats.helper_queue_full >= 1,
        "queue never filled — backpressure untested: {stats:?}"
    );
    for &k in &keys {
        client.release(k).unwrap();
    }
    client.finalize().unwrap();
}

/// The PR 8 supervision ladder (transient crash retry + output
/// integrity) pinned against an explicitly pooled daemon: retries and
/// corrupt-output kills are themselves effects now, and must survive
/// the move onto helper threads.
#[test]
fn fault_supervision_holds_with_effect_pool() {
    let fx = start_daemon(
        "supervised",
        FixtureCfg {
            smax: 4,
            faults: SimFaultSpec {
                crash_quota: 1,
                corrupt_every: 7,
                ..Default::default()
            },
            supervisor: Some(simfs_core::model::SupervisorCfg {
                backoff_base: simkit::Dur::from_millis(2),
                backoff_cap: simkit::Dur::from_millis(10),
                quarantine: simkit::Dur::from_secs(2),
                ..Default::default()
            }),
            tuning: DaemonTuning {
                effect_helpers: Some(2),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    // Key 2's first sim crashes (quota 1); key 7's first output is
    // published corrupt. Both intervals must still come Ready.
    let status = client.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![2]);
    let status = client.acquire(&[7]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![7]);
    let stats = fx.server.stats();
    assert!(stats.sim_retries >= 1, "{stats:?}");
    assert_eq!(stats.corrupt_outputs, 1, "{stats:?}");
    assert_eq!(stats.intervals_poisoned, 0, "{stats:?}");
    assert!(stats.effects_offloaded > 0, "{stats:?}");
    client.finalize().unwrap();
}

/// A single saturated client must not lose digest records: ~3000
/// pure-hit acquires arrive far faster than the 20 ms reactor tick
/// drains, so without the high-water drain the 1024-record access ring
/// would drop roughly half the stream. The adaptive drain keeps
/// `digest_dropped` at zero, so the prefetch agents see every access.
#[test]
fn saturated_single_client_keeps_full_digest() {
    let fx = start_daemon(
        "digest",
        FixtureCfg {
            prefetch: true,
            ..Default::default()
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    settle(&mut client);
    for _ in 0..3000 {
        let status = client.acquire(&[2]).unwrap();
        assert!(status.ok(), "{status:?}");
        client.release(2).unwrap();
    }
    // One more slow-path transition plus a couple of ticks so the last
    // partial ring drains before counting.
    std::thread::sleep(Duration::from_millis(60));
    let stats = fx.server.stats();
    assert_eq!(
        stats.digest_dropped, 0,
        "saturated stream dropped digest records: {stats:?}"
    );
    assert!(stats.digest_replayed >= 3000, "{stats:?}");
    client.finalize().unwrap();
}

/// A `Status` reply is a durability point for the session's fast pins:
/// it leaves only after every fast-path pin the session holds is in the
/// WAL file. Twice over: first with the lone effect helper held in a
/// 400 ms launch stall when the pin is taken, so a reply sent ahead of
/// the helper would find the pin unjournaled; then with the helper
/// idle, right after a reactor tick, so the reply cannot lean on the
/// next tick's drain of the window.
#[test]
fn status_reply_follows_journaled_fast_pins() {
    let fx = start_daemon(
        "statuswal",
        FixtureCfg {
            faults: SimFaultSpec {
                launch_delay: Duration::from_millis(400),
                ..Default::default()
            },
            tuning: DaemonTuning {
                reactor_shards: 1,
                effect_helpers: Some(1),
                ..Default::default()
            },
            durability: DurabilityCfg::durable(false),
            ..Default::default()
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let wal = fx.storage.root().join("dv-member-0.wal");
    let id = client.client_id();
    // Pins `pin` on the fast path right after a tick has fired (a fast
    // pin on `prime` draws it), sends Status, and returns the pin count
    // the WAL file holds for `pin` when the reply arrives.
    let journaled_at_reply = |client: &mut SimfsClient, prime: u64, pin: u64| {
        let status = client.acquire(&[prime]).unwrap();
        assert!(status.ok(), "{status:?}");
        std::thread::sleep(Duration::from_millis(25));
        let status = client.acquire(&[pin]).unwrap();
        assert!(status.ok(), "{status:?}");
        assert_eq!(fx.server.fast_pinned("test-ctx", pin), Some(true), "{pin}: no fast pin");
        client.status().unwrap();
        let (records, _) = simstore::walog::replay_bytes(&std::fs::read(&wal).unwrap());
        let pins = simstore::walog::WalState::replay(&records).pins;
        pins.get(&(id, pin)).copied()
    };
    // Materialize 1..=4, then drop the slow-path pin on 2.
    let status = client.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    client.release(2).unwrap();
    settle(&mut client);

    // A miss in another interval occupies the helper with its launch.
    let mut miss = client.acquire_nb(&[30]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(journaled_at_reply(&mut client, 4, 3), Some(1), "stalled helper");
    let status = client.wait(&mut miss).unwrap();
    assert!(status.ok(), "{status:?}");
    settle(&mut client);
    assert_eq!(journaled_at_reply(&mut client, 1, 2), Some(1), "idle helper");

    for key in [1, 2, 3, 4, 30] {
        client.release(key).unwrap();
    }
    client.finalize().unwrap();
}

/// Deferred eviction deletes against re-productions: a tiny LRU cache
/// over a 64-step timeline keeps evicting steps that the next miss's
/// re-simulation of the same interval writes again. A delete decided
/// for the evicted copy must never remove the fresh one — seen as a
/// false `OutputCorrupt` (the verify read finds no file, the sim is
/// killed and retried) or as a `Ready` for a missing file — and the
/// deletes it had to skip must still happen, so storage returns to the
/// cache budget once the daemon is idle.
#[test]
fn evictions_never_delete_a_freshly_published_step() {
    const CACHE_STEPS: usize = 16;
    let fx = start_daemon(
        "freshstep",
        FixtureCfg {
            cache_steps: CACHE_STEPS as u64,
            policy: "lru",
            restart: Duration::from_micros(500),
            per_step: Duration::from_micros(100),
            ..Default::default()
        },
    );
    let addr = fx.server.addr();
    let run_for = Duration::from_secs(3);
    let handles: Vec<_> = (0..2u64)
        .map(|c| {
            let storage = fx.storage.clone();
            std::thread::spawn(move || {
                let driver = PatternDriver::new("out-", ".sdf", 6);
                let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (c + 1);
                let mut bad = Vec::new();
                let deadline = Instant::now() + run_for;
                while Instant::now() < deadline {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = 1 + state % 64;
                    let status = client.acquire(&[key]).unwrap();
                    if !status.ok() {
                        bad.push(format!("acquire {key}: {:?}", status.failed));
                        continue;
                    }
                    match storage.read(&driver.filename_of(key)) {
                        Ok(bytes) if bytes == step_bytes(key) => {}
                        Ok(_) => bad.push(format!("Ready {key}: wrong bytes")),
                        Err(e) => bad.push(format!("Ready {key}: {e}")),
                    }
                    client.release(key).unwrap();
                }
                client.finalize().unwrap();
                bad
            })
        })
        .collect();
    let bad: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let stats = fx.server.stats();
    assert!(bad.is_empty(), "{} bad acquires, first: {:?}", bad.len(), &bad[..bad.len().min(5)]);
    assert_eq!(stats.corrupt_outputs, 0, "{stats:?}");
    assert_eq!(stats.sim_retries, 0, "{stats:?}");

    let mut probe = SimfsClient::connect(addr, "test-ctx").unwrap();
    settle(&mut probe);
    probe.finalize().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let steps = fx
            .storage
            .list()
            .unwrap()
            .into_iter()
            .filter(|f| f.ends_with(".sdf"))
            .count();
        if steps <= CACHE_STEPS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{steps} step files on disk after quiescence, cache budget {CACHE_STEPS}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
