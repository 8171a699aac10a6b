//! SimFS benchmark: an in-process `DvServer` on default settings, driven
//! through DVLib (`SimfsClient`) by at most `nproc` closed-loop analysis
//! sessions, with every acquired step checked.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hits|scan|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats rounds until `--seconds` have passed. Each round starts
//! a fresh daemon over a fresh storage area holding the workload's
//! resident set and replays a fixed operation sequence generated from
//! the seed. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs each round twice, untraced then traced, and reports the
//! per-layer metrics of the traced rounds (see README.md). The last line
//! of standard output is the JSON result.

mod gen;
mod stats;
mod sysinfo;
mod trace;
mod workload;

use simfs_core::dv::DvStats;
use simfs_core::wire::{Request, Response};
use stats::{median, percentile, percentile_supported, tail_percentile};
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::Lifecycle;
use workload::{Bench, RoundOut, Workload, RESTART_DELAY, STEP_DELAY};

/// Analysis sessions, capped by the machine's cores.
const MAX_SESSIONS: usize = 2;
/// Rounds (pairs, when traced) a run makes however short `--seconds` is.
const MIN_ROUNDS: u64 = 3;
/// No new round starts after this much wall time, whatever `--seconds`.
const HARD_STOP: Duration = Duration::from_secs(140);

/// Metrics the JSON result line carries, by mode. Every metric is
/// printed; the JSON leaves out per-layer times that read exactly 0 on
/// some workload by design (the miss lifecycle on `hits`, effect classes
/// a workload never runs).
const END_TO_END: [&str; 4] = ["ops_per_s", "hit_p50_us", "setup_s", "peak_rss_mb"];
const PER_LAYER: [&str; 21] = [
    "hitindex.fast_ratio",
    "hitindex.fallbacks_per_kop",
    "wire.encode_ns",
    "wire.decode_ns",
    "dv.transitions_per_op",
    "dv.lock_wait_ns",
    "dv.lock_hold_ns",
    "prefetch.launches_per_op",
    "prefetch.hit_ratio",
    "prefetch.pollution_resets",
    "prefetch.kills",
    "prefetch.digest_drop_ratio",
    "effectpool.offloaded_per_op",
    "effectpool.queue_full",
    "walog.appends_per_op",
    "walog.appends_per_sync",
    "simcache.hit_ratio",
    "simcache.evictions_per_op",
    "proc.cpu_us_per_op",
    "proc.threads",
    "trace.overhead",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(&value)
                        .ok_or_else(|| format!("unknown workload {value} (hits|scan|churn)"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("--seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// One reported metric with its unit and what it was computed from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    basis: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: String) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric {
        name,
        value,
        unit,
        basis,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Percentile `p` of pooled latency samples, with its sample count and
/// a warning when fewer than ten samples lie beyond it.
fn latency(name: &'static str, samples: &[f64], p: f64, what: &str) -> Metric {
    let value = percentile(samples, p).unwrap_or(0.0);
    let mut basis = format!("n={} {what}", samples.len());
    if !percentile_supported(samples.len(), p) {
        basis.push_str(", fewer than 10 samples beyond");
    }
    if let Some(tail) = tail_percentile(samples.len()).filter(|&t| t > p) {
        let at = percentile(samples, tail).unwrap_or(0.0);
        basis.push_str(&format!(", p{} = {at:.1}", tail * 100.0));
    }
    metric(name, value, "us", basis)
}

fn rounds_total(rounds: &[RoundOut]) -> (u64, DvStats) {
    let mut stats = DvStats::default();
    for r in rounds {
        stats.accumulate(&r.stats);
    }
    (rounds.iter().map(|r| r.ops).sum(), stats)
}

/// End-to-end metrics of the untraced rounds; set-up times and failures
/// count every round.
fn end_to_end(untraced: &[RoundOut], traced: &[RoundOut]) -> Vec<Metric> {
    let n = untraced.len();
    let (ops, st) = rounds_total(untraced);
    let hits = sorted(
        untraced
            .iter()
            .flat_map(|r| r.hit_us.iter().copied())
            .collect(),
    );
    let misses = sorted(
        untraced
            .iter()
            .flat_map(|r| r.miss_us.iter().copied())
            .collect(),
    );
    // Pooled, not a median of rounds: single rounds swing with the
    // machine (45k to 150k ops/s on `hits` on two cores), and pooling
    // weighs every operation the same.
    let elapsed: f64 = untraced.iter().map(|r| r.elapsed_s).sum();
    let all = || untraced.iter().chain(traced);
    let setups: Vec<f64> = all().map(|r| r.setup_s).collect();
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    vec![
        metric(
            "ops_per_s",
            ops as f64 / elapsed,
            "1/s",
            format!("{ops} ops in {elapsed:.2} s over {n} rounds"),
        ),
        latency("hit_p50_us", &hits, 0.50, "hits"),
        latency("hit_p99_us", &hits, 0.99, "hits"),
        latency("miss_p50_us", &misses, 0.50, "misses"),
        latency("miss_p90_us", &misses, 0.90, "misses"),
        metric(
            "resim_steps_per_op",
            ratio(st.produced_steps, ops),
            "steps/op",
            format!("{} steps over {ops} ops", st.produced_steps),
        ),
        metric(
            "restarts_per_op",
            ratio(st.restarts, ops),
            "1/op",
            format!("{} restarts over {ops} ops", st.restarts),
        ),
        metric(
            "failed_ratio",
            ratio(failed, attempted),
            "ratio",
            format!("{failed} of {attempted} acquires"),
        ),
        metric(
            "setup_s",
            median(&setups).unwrap_or(0.0),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        // The first round's peak: later rounds add the benchmark's own
        // pooled samples, and their number varies with speed.
        metric(
            "peak_rss_mb",
            untraced[0].peak_rss_mb,
            "MB",
            "VmHWM after the first round".into(),
        ),
    ]
}

/// Mean nanoseconds per call of `f` over the frame mix, repeating the
/// mix until at least 20 ms have been timed.
fn time_frames<T>(frames: &[T], mut f: impl FnMut(&T)) -> f64 {
    let (mut calls, t0) = (0u64, Instant::now());
    while calls == 0 || t0.elapsed() < Duration::from_millis(20) {
        for frame in frames {
            f(black_box(frame));
        }
        calls += frames.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// `Request::encode` and `Response::decode` timed on the traced rounds'
/// own frame mix: per operation one acquire and one release sent, one
/// `Ready` received, plus one `Queued` per miss.
fn wire_timing(ops: u64, misses: u64, steps: u64) -> (f64, f64) {
    let n = ops.clamp(1, 20_000);
    let queued = |i: u64| (i + 1) * misses / ops.max(1) > i * misses / ops.max(1);
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for i in 0..n {
        let key = 1 + i % steps;
        requests.push(Request::Acquire {
            req_id: i,
            keys: vec![key],
        });
        requests.push(Request::Release { key });
        if queued(i) {
            responses.push(
                Response::Queued {
                    req_id: i,
                    key,
                    est_wait_ms: 5,
                }
                .encode()
                .to_vec(),
            );
        }
        responses.push(Response::Ready { req_id: i, key }.encode().to_vec());
    }
    let encode_ns = time_frames(&requests, |r| {
        black_box(r.encode());
    });
    let decode_ns = time_frames(&responses, |b| {
        black_box(Response::decode(b).expect("frame encoded above"));
    });
    (encode_ns, decode_ns)
}

fn stage(name: &'static str, samples: &[f64], what: &str) -> Metric {
    let value = median(samples).unwrap_or(0.0);
    metric(
        name,
        value,
        "us",
        format!("median of n={} {what}", samples.len()),
    )
}

fn per_layer(w: &Workload, traced: &mut [RoundOut], overhead: f64) -> (Vec<Metric>, Lifecycle) {
    let mut lc = Lifecycle::default();
    for r in traced.iter_mut() {
        lc.merge(std::mem::take(&mut r.lifecycle));
    }
    let traced = &*traced;
    let n = traced.len() as u64;
    let (ops, st) = rounds_total(traced);
    let misses: u64 = traced.iter().map(|r| r.miss_us.len() as u64).sum();
    let (encode_ns, decode_ns) = wire_timing(ops, misses, w.steps);
    let cpu: f64 = traced.iter().map(|r| r.cpu_s).sum();
    let threads: Vec<f64> = traced.iter().map(|r| r.threads as f64).collect();
    let per_op = |x: u64| ratio(x, ops);
    let per_round = |x: u64| ratio(x, n);
    let mean_us = |ns: u64, count: u64| ratio(ns, count) / 1e3;
    let over = format!("{ops} ops in {n} traced rounds");
    let metrics = vec![
        metric(
            "hitindex.fast_ratio",
            ratio(st.acquired_fast, st.acquired_fast + st.acquired_slow),
            "ratio",
            format!(
                "{} fast of {} acquires",
                st.acquired_fast,
                st.acquired_fast + st.acquired_slow
            ),
        ),
        metric(
            "hitindex.fallbacks_per_kop",
            1e3 * per_op(st.hit_fallbacks),
            "1/kop",
            format!("{} fallbacks, {over}", st.hit_fallbacks),
        ),
        metric(
            "wire.encode_ns",
            encode_ns,
            "ns",
            "Request::encode per frame".into(),
        ),
        metric(
            "wire.decode_ns",
            decode_ns,
            "ns",
            "Response::decode per frame".into(),
        ),
        metric(
            "dv.transitions_per_op",
            per_op(st.lock_transitions),
            "1/op",
            format!("{} lock transitions", st.lock_transitions),
        ),
        metric(
            "dv.lock_wait_ns",
            ratio(st.lock_wait_ns, st.lock_transitions),
            "ns",
            "mean per transition".into(),
        ),
        metric(
            "dv.lock_hold_ns",
            ratio(st.lock_hold_ns, st.lock_transitions),
            "ns",
            "mean per transition".into(),
        ),
        metric(
            "prefetch.launches_per_op",
            per_op(st.prefetch_launches),
            "1/op",
            format!("{} launches", st.prefetch_launches),
        ),
        metric(
            "prefetch.hit_ratio",
            per_op(st.prefetch_hits),
            "ratio",
            format!("{} prefetch hits over {ops} ops", st.prefetch_hits),
        ),
        metric(
            "prefetch.pollution_resets",
            per_round(st.pollution_resets),
            "1/round",
            format!("{} over {n} rounds", st.pollution_resets),
        ),
        metric(
            "prefetch.kills",
            per_round(st.kills),
            "1/round",
            format!("{} over {n} rounds", st.kills),
        ),
        metric(
            "prefetch.digest_drop_ratio",
            ratio(st.digest_dropped, st.digest_dropped + st.digest_replayed),
            "ratio",
            format!(
                "{} dropped, {} replayed",
                st.digest_dropped, st.digest_replayed
            ),
        ),
        metric(
            "effectpool.offloaded_per_op",
            per_op(st.effects_offloaded),
            "1/op",
            format!("{} effects", st.effects_offloaded),
        ),
        metric(
            "effectpool.queue_full",
            per_round(st.helper_queue_full),
            "1/round",
            format!("{} over {n} rounds", st.helper_queue_full),
        ),
        metric(
            "effectpool.spawn_us",
            mean_us(st.effect_spawn_ns, st.effect_spawn_ops),
            "us",
            format!("mean of {} jobs", st.effect_spawn_ops),
        ),
        metric(
            "effectpool.read_us",
            mean_us(st.effect_read_ns, st.effect_read_ops),
            "us",
            format!("mean of {} jobs", st.effect_read_ops),
        ),
        metric(
            "effectpool.evict_us",
            mean_us(st.effect_evict_ns, st.effect_evict_ops),
            "us",
            format!("mean of {} jobs", st.effect_evict_ops),
        ),
        metric(
            "effectpool.wal_us",
            mean_us(st.effect_wal_ns, st.effect_wal_ops),
            "us",
            format!("mean of {} jobs", st.effect_wal_ops),
        ),
        metric(
            "walog.appends_per_op",
            per_op(st.wal_appends),
            "1/op",
            format!("{} appends", st.wal_appends),
        ),
        metric(
            "walog.appends_per_sync",
            ratio(st.wal_appends, st.wal_syncs),
            "ratio",
            format!("{} syncs", st.wal_syncs),
        ),
        metric(
            "simcache.hit_ratio",
            ratio(st.hits, st.hits + st.misses),
            "ratio",
            format!("{} hits, {} misses", st.hits, st.misses),
        ),
        metric(
            "simcache.evictions_per_op",
            per_op(st.evictions),
            "1/op",
            format!("{} evictions", st.evictions),
        ),
        metric(
            "proc.cpu_us_per_op",
            1e6 * cpu / ops.max(1) as f64,
            "us",
            format!("{cpu:.2} CPU s, {over}"),
        ),
        metric(
            "proc.threads",
            median(&threads).unwrap_or(0.0),
            "count",
            "median at measured start".into(),
        ),
        stage("miss.p50_us", &lc.latency_us, "traced misses"),
        stage(
            "miss.to_launch_us",
            &lc.to_launch_us,
            "misses that launched",
        ),
        stage("launcher.launch_us", &lc.launch_us, "launches"),
        stage("sim.restart_us", &lc.restart_us, "sims"),
        stage("sim.step_us", &lc.step_us, "step gaps"),
        stage("miss.produce_us", &lc.produce_us, "misses"),
        stage("miss.deliver_us", &lc.deliver_us, "misses"),
        stage("miss.residual_us", &lc.residual_us, "misses"),
        metric(
            "trace.overhead",
            overhead,
            "ratio",
            "traced / untraced ops_per_s, median of pairs".into(),
        ),
    ];
    (metrics, lc)
}

/// The traced rounds' own checks. A sleep never ends early, so the
/// restart and step medians must reach the configured delays (their
/// excess under load is contention, reported, not checked here; the
/// calibration bounds it on an idle daemon). Nearly every miss must
/// stitch, and the stages must explain nearly all of its latency.
fn self_checks(lc: &Lifecycle) -> Vec<(String, bool)> {
    if lc.latency_us.is_empty() {
        return Vec::new();
    }
    let at_least = |name: &str, samples: &[f64], configured: Duration| {
        let configured = configured.as_secs_f64() * 1e6;
        let got = median(samples).unwrap_or(0.0);
        let excess = got - configured;
        (
            format!(
                "{name} median {got:.0} us, {excess:.0} us above configured {configured:.0} us"
            ),
            excess >= 0.0,
        )
    };
    let residual = median(&lc.residual_us).unwrap_or(0.0);
    let miss = median(&lc.latency_us).unwrap_or(0.0);
    let misses = lc.latency_us.len();
    vec![
        // The first step follows the restart delay and one step delay.
        at_least("sim.restart_us", &lc.restart_us, RESTART_DELAY + STEP_DELAY),
        at_least("sim.step_us", &lc.step_us, STEP_DELAY),
        (
            format!(
                "{} of {misses} misses stitched to {} sims",
                misses - lc.unstitched,
                lc.sims
            ),
            lc.unstitched * 100 <= misses,
        ),
        (
            format!(
                "miss.residual_us median {residual:.1} us at most 5% of miss median {miss:.0} us"
            ),
            residual <= 0.05 * miss,
        ),
    ]
}

fn print_round(index: u64, r: &RoundOut) {
    let hits = sorted(r.hit_us.clone());
    let misses = sorted(r.miss_us.clone());
    let at = |xs: &[f64], p| percentile(xs, p).unwrap_or(0.0);
    println!(
        "round {index}{}: {} ops in {:.3} s ({:.1}/s), set-up {:.4} s, hit p50/p99 {:.1}/{:.1} us, \
         miss p50 {:.0} us (n={}), {} failed",
        if r.traced { " traced" } else { "" },
        r.ops,
        r.elapsed_s,
        r.ops as f64 / r.elapsed_s,
        r.setup_s,
        at(&hits, 0.5),
        at(&hits, 0.99),
        at(&misses, 0.5),
        misses.len(),
        r.failed
    );
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<28} {:>14.3} {:<9} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
}

fn json_metrics(metrics: &[Metric], names: &[&str]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|name| {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .expect("every declared metric is computed");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// What a run measured, before any reporting.
struct Measured {
    calibration: Vec<(String, bool)>,
    rounds: Vec<RoundOut>,
    /// Traced over untraced `ops_per_s`, per round pair.
    overheads: Vec<f64>,
}

/// Calibrates the tracer (traced runs only), then makes rounds until
/// `seconds` have passed.
fn measure(bench: &Bench, args: &Args, run_start: Instant) -> std::io::Result<Measured> {
    let mut m = Measured {
        calibration: Vec::new(),
        rounds: Vec::new(),
        overheads: Vec::new(),
    };
    if args.trace {
        // Overheads vary from moment to moment, so a failed calibration
        // is retried; a tracer that mis-stitches fails every attempt.
        for attempt in 1..=3 {
            m.calibration = bench.calibrate()?;
            let passed = m.calibration.iter().all(|(_, ok)| *ok);
            println!(
                "calibration attempt {attempt}: {}",
                if passed { "passed" } else { "failed" }
            );
            if passed {
                break;
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for stream in 0.. {
        let index = m.rounds.len() as u64;
        let verify_all = index == 0 && !bench.w.verify_each;
        let plain = bench.round(index, stream, false, verify_all)?;
        print_round(index, &plain);
        if args.trace {
            let traced = bench.round(index + 1, stream, true, false)?;
            print_round(index + 1, &traced);
            let rate = |r: &RoundOut| r.ops as f64 / r.elapsed_s;
            m.overheads.push(rate(&traced) / rate(&plain));
            m.rounds.push(traced);
        }
        m.rounds.push(plain);
        let now = Instant::now();
        if (now >= deadline && stream + 1 >= MIN_ROUNDS) || now >= run_start + HARD_STOP {
            break;
        }
    }
    Ok(m)
}

fn run(args: Args) -> Result<(), String> {
    let run_start = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sessions = MAX_SESSIONS.min(nproc);
    let load_start = sysinfo::loadavg();
    let (overshoot_p50, overshoot_p90) = sysinfo::sleep_overshoot_us();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} sessions {sessions}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    let work = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(std::process::id().to_string());
    let measured = Bench::new(args.workload.clone(), args.seed, sessions, work.clone())
        .and_then(|bench| Ok((measure(&bench, &args, run_start)?, bench)));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(work.parent().expect("work dir has a parent"));
    let (
        Measured {
            calibration,
            rounds,
            overheads,
        },
        bench,
    ) = measured.map_err(|e| format!("run failed: {e}"))?;

    let (mut traced, untraced): (Vec<RoundOut>, Vec<RoundOut>) =
        rounds.into_iter().partition(|r| r.traced);
    let (reactor_shards, effect_helpers) = (untraced[0].reactor_shards, untraced[0].effect_helpers);
    println!(
        "conditions: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"sessions\": {sessions}, \"loadavg_start\": {load_start}, \
         \"loadavg_end\": {}, \"reactor_shards\": {reactor_shards}, \
         \"effect_helpers\": {effect_helpers}, \"dv_shards_auto\": {}, \"rounds\": {}, \
         \"sleep_overshoot_us\": {{\"p50\": {overshoot_p50:.1}, \"p90\": {overshoot_p90:.1}}}, \
         \"profile\": \"{}\", \"commit\": \"{}\", \"rustc\": \"{}\"}}",
        bench.w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        sysinfo::loadavg(),
        // What `dv_shards: 0` resolves to: min(cores, 4, s_max = 8).
        nproc.min(4),
        untraced.len() + traced.len(),
        sysinfo::build_profile(),
        sysinfo::git_commit(),
        sysinfo::rustc_version(),
    );
    let e2e = end_to_end(&untraced, &traced);
    print_metrics("end-to-end (untraced rounds):", &e2e);
    let all = || untraced.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let mut checks_ok = true;
    let metrics = if args.trace {
        let (layers, lc) = per_layer(&bench.w, &mut traced, median(&overheads).unwrap_or(0.0));
        print_metrics("per-layer (traced rounds):", &layers);
        for (what, ok) in calibration.iter().chain(&self_checks(&lc)) {
            println!("self-check {}: {what}", if *ok { "ok" } else { "FAILED" });
            checks_ok &= ok;
        }
        json_metrics(&layers, &PER_LAYER)
    } else {
        json_metrics(&e2e, &END_TO_END)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0 && checks_ok
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
