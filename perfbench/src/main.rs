//! End-to-end detection → SAE benchmark.
//!
//! ```sh
//! qkd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run starts the system the way a deployment does (durable fleet, one
//! link, ETSI-014 server), drives it from a producer thread and an SAE-pair
//! thread over loopback TCP, checks every key against a solo replay, and
//! prints one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. It exits non-zero
//! when a correctness check fails. `perfbench/README.md` explains the
//! workloads and every metric.

mod output;
mod replay;
mod stats;
mod system;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qkd_core::SessionSummary;
use qkd_manager::LinkManager;

use crate::output::Metric;
use crate::replay::{Replay, STAGE_SPANS};
use crate::stats::{median, percentile, slice_percentiles, slice_rates, sliced_percentile};
use crate::system::{
    fleet_config, journal_config, Producer, ProducerLog, Sae, SaeLog, SLAVE, WARMUP, WARMUP_PICKUPS,
};
use crate::trace::{LayerTable, Recorder, Span};
use crate::workload::{epoch_events, Load, Workload, KEY_BITS};

/// Setups timed per `--trace 0` run, each in a fresh process (the LDPC code
/// library is cached per process, so a second setup in one process would
/// skip the code construction `setup_s` exists to show).
const SETUP_SAMPLES: usize = 3;
/// Stage calls must add up to the solo engine's time within this share.
const STAGE_SUM_TOLERANCE: f64 = 0.10;
/// Self times plus unattributed time must add up to wall time within this
/// share.
const CLOSURE_TOLERANCE: f64 = 0.01;
/// Equal slices the measured window is cut into: a rate or a key-latency
/// percentile is the median of its slices' figures, so a few seconds of a
/// busy host do not set it.
const SLICES: usize = 5;
/// Longest measured window of a traced invocation's two phases. Its
/// per-layer metrics have no bound, and a traced phase replays every epoch
/// twice (engine and stage by stage), so a full-length window would not
/// fit the run's time limit.
const TRACED_SECONDS: f64 = 10.0;
/// Store calls timed per store on the traced run.
const STORE_CALLS: usize = 100;
/// The layers of the measured window's self-time table, with the metric
/// reporting each one's share of wall time.
const WINDOW_LAYERS: [(&str, &str); 5] = [
    ("simulator", "simulator.self_share"),
    ("manager", "manager.self_share"),
    ("api", "api.self_share"),
    ("generator", "generator.self_share"),
    ("idle", "idle.self_share"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: &workload::WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
        work: PathBuf::from("perfbench/.work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (known: {})", names.join(", "))
                })?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--work-dir" => args.work = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("create work dir: {e}"))?;
    if args.setup_probe {
        let dir = fresh_dir(&args, "probe")?;
        let mut rec = Recorder::new(false, Instant::now());
        let system = system::start(args.workload, args.seed, &dir, &mut rec)?;
        println!("{}", system.setup_s);
        system.server.shutdown();
        drop(system.fleet);
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(0);
    }
    let (phase, metrics) = if args.trace {
        let mut traced = run_phase(&args, true)?;
        let plain = run_phase(&args, false)?;
        let mut metrics = per_layer(&traced)?;
        let overhead = overhead_share(args.workload, &traced, &plain)?;
        metrics.push(Metric::new("trace.overhead_share", "ratio", overhead));
        eprint!("{}", plain.report("untraced"));
        let untraced_failures = plain
            .failures
            .iter()
            .map(|f| format!("untraced phase: {f}"));
        traced.failures.extend(untraced_failures);
        (traced, metrics)
    } else {
        let mut setups = probe_setups(&args)?;
        let phase = run_phase(&args, false)?;
        setups.push(phase.setup_s);
        let mut metrics = end_to_end(&phase)?;
        metrics.push(Metric::new("setup_s", "s", median(&setups)?));
        eprintln!("setup samples (s): {setups:?}");
        (phase, metrics)
    };
    eprint!(
        "{}",
        phase.report(if args.trace { "traced" } else { "untraced" })
    );
    let correct = phase.failures.is_empty();
    println!(
        "{}",
        output::render(correct, phase.sae.requests, phase.sae.errors, &metrics)?
    );
    Ok(if correct { 0 } else { 1 })
}

/// A fresh, empty directory under the work dir.
fn fresh_dir(args: &Args, tag: &str) -> Result<PathBuf, String> {
    let dir = args.work.join(format!(
        "{}-seed{}-pid{}-{tag}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Times `SETUP_SAMPLES - 1` setups, each in a fresh copy of this process.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", "--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .arg("--work-dir")
            .arg(&args.work)
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success());
        samples.push(value.ok_or_else(|| {
            format!(
                "setup probe failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?);
    }
    Ok(samples)
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One thread's spans with the interval it ran over.
struct ThreadSpans {
    rec: Recorder,
    start: u64,
    end: u64,
}

/// Everything one run of the workload produced.
struct Phase {
    workload: &'static Workload,
    setup_s: f64,
    producer: ProducerLog,
    /// Epochs distilled before the measured load started (pickup pool).
    prefill_epochs: usize,
    sae: SaeLog,
    window: (Instant, Instant),
    summary: SessionSummary,
    replay: Replay,
    rss_mb: f64,
    /// Wall time of the solo replay.
    replay_s: f64,
    failures: Vec<String>,
    setup_rec: Recorder,
    threads: Vec<ThreadSpans>,
    replay_rec: Recorder,
    store_rec: Recorder,
}

/// Starts the system, drives the workload, stops it and checks the result.
fn run_phase(args: &Args, traced: bool) -> Result<Phase, String> {
    let w = args.workload;
    let seconds = if args.trace {
        args.seconds.min(TRACED_SECONDS)
    } else {
        args.seconds
    };
    let origin = Instant::now();
    let dir = fresh_dir(args, if traced { "traced" } else { "plain" })?;
    let mut setup_rec = Recorder::new(traced, origin);
    let mut system = system::start(w, args.seed, &dir, &mut setup_rec)?;
    let link = system.link;
    let pickups = match w.load {
        Load::Pickup {
            pairs_per_second, ..
        } => WARMUP_PICKUPS + (pairs_per_second as f64 * seconds).round() as usize,
        _ => 0,
    };

    let stop = AtomicBool::new(false);
    let mut sae = Sae::new(
        system.server.local_addr(),
        w,
        args.seed,
        Recorder::new(traced, origin),
    );
    let mut producer = Producer::new(&mut system, w, args.seed, Recorder::new(false, origin))?;
    producer.prefill((pickups * w.pickup_bits()) as u64)?;
    let prefill_epochs = producer.log.epochs.len();
    producer.rec = Recorder::new(traced, origin);

    let start = Instant::now();
    let (produced, spans) = std::thread::scope(|s| {
        let p = s.spawn(|| {
            let begin = producer.rec.now();
            let result = producer.produce(w.load, start, &stop);
            (result, begin, producer.rec.now())
        });
        let c = s.spawn(|| {
            let begin = sae.rec.now();
            sae.consume(w.load, pickups, &stop);
            (begin, sae.rec.now())
        });
        if !matches!(w.load, Load::Pickup { .. }) {
            let end = start + WARMUP + Duration::from_secs_f64(seconds);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            stop.store(true, Ordering::SeqCst);
        }
        (p.join(), c.join())
    });
    let (produced, p_begin, p_end) = produced.map_err(|_| "producer thread panicked")?;
    let (c_begin, c_end) = spans.map_err(|_| "SAE thread panicked")?;
    let rss_mb = peak_rss_mb()?;
    let window = match w.load {
        Load::Pickup { .. } => (
            sae.log
                .pickups
                .get(WARMUP_PICKUPS)
                .ok_or("no timed pickup completed")?
                .0,
            sae.log.pickups.last().ok_or("no pickup completed")?.1,
        ),
        _ => (
            start + WARMUP,
            start + WARMUP + Duration::from_secs_f64(seconds),
        ),
    };
    let Producer {
        rec: p_rec, log, ..
    } = producer;

    let mut failures = Vec::new();
    if let Err(e) = produced {
        failures.push(format!("producer: {e}"));
    }
    let spec = w.spec(args.seed);
    let system::System {
        fleet,
        registry,
        server,
        setup_s,
        ..
    } = system;
    server.shutdown();
    let summary = fleet.summary(link).map_err(|e| e.to_string())?;
    let before = fleet.store().status(link).map_err(|e| e.to_string())?;
    if let Some(e) = fleet.link_failure(link).map_err(|e| e.to_string())? {
        failures.push(format!("link quarantined: {e}"));
    }
    if let Err(e) = fleet.reconcile() {
        failures.push(format!("store does not reconcile: {e}"));
    }
    drop(registry);
    drop(fleet);

    let mut replay_rec = Recorder::new(traced, origin);
    let replay_start = Instant::now();
    let replay = replay::replay(&spec, &log.epochs, traced, &mut replay_rec)?;
    let replay_s = replay_start.elapsed().as_secs_f64();
    if summary.accounting() != replay.accounting {
        failures.push(format!(
            "fleet accounting {:?} differs from the solo replay's {:?}",
            summary.accounting(),
            replay.accounting
        ));
    }
    check_keys(&sae.log, &replay, &mut failures);

    // Recovery: the journal alone must rebuild the store as it was.
    let reopened = LinkManager::open_durable_with(fleet_config(), &dir, journal_config())
        .map_err(|e| format!("reopen journal: {e}"))?;
    let after = reopened.store().status(link).map_err(|e| e.to_string())?;
    let counts = |s: &qkd_manager::KeyStatus| {
        (
            s.deposited_bits,
            s.delivered_bits,
            s.available_bits,
            s.keys_delivered,
        )
    };
    if counts(&before) != counts(&after) {
        failures.push(format!(
            "reopened store (deposited, delivered, available, keys) = {:?}, before shutdown {:?}",
            counts(&after),
            counts(&before)
        ));
    }
    drop(reopened);

    let mut store_rec = Recorder::new(traced, origin);
    if traced {
        store_calls(args, &fresh_dir(args, "stores")?, &mut store_rec)?;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut phase = Phase {
        workload: w,
        setup_s,
        producer: log,
        prefill_epochs,
        sae: sae.log,
        window,
        summary,
        replay,
        rss_mb,
        replay_s,
        failures,
        setup_rec,
        threads: vec![
            ThreadSpans {
                rec: p_rec,
                start: p_begin,
                end: p_end,
            },
            ThreadSpans {
                rec: sae.rec,
                start: c_begin,
                end: c_end,
            },
        ],
        replay_rec,
        store_rec,
    };
    if traced {
        trace_checks(&mut phase);
        write_spans(args, &phase)?;
    }
    Ok(phase)
}

/// Master and slave hold the same bits for every key, and the keys are the
/// solo replay's stream, in order, with no serial skipped.
fn check_keys(sae: &SaeLog, replay: &Replay, failures: &mut Vec<String>) {
    let split = sae.keys.iter().filter(|k| !k.both).count();
    if split > 0 {
        failures.push(format!("{split} keys differ between master and slave"));
    }
    for (i, key) in sae.keys.iter().enumerate() {
        let from = key.serial as usize * KEY_BITS;
        let expected = (key.serial == i as u64 && from + KEY_BITS <= replay.stream.len())
            .then(|| replay.stream.slice(from, from + KEY_BITS));
        if expected.as_ref() != Some(&key.bits) {
            failures.push(format!(
                "key {} (serial {}) is not bit {from} onward of the solo replay's stream",
                i, key.serial
            ));
            return;
        }
    }
}

/// Reserve/redeem calls on two stores fed the same epochs: a durable one
/// (journal as configured) and an in-memory one. The SAE stream's store is
/// left untouched.
fn store_calls(args: &Args, dir: &Path, rec: &mut Recorder) -> Result<(), String> {
    let w = args.workload;
    let spec = w.spec(args.seed);
    let err = |e: qkd_types::QkdError| e.to_string();
    let mut durable =
        LinkManager::open_durable_with(fleet_config(), dir, journal_config()).map_err(err)?;
    let mut memory = LinkManager::new(fleet_config()).map_err(err)?;
    let link = durable.add_link(spec.clone()).map_err(err)?;
    memory.add_link(spec.clone()).map_err(err)?;
    let mut source = spec.key_source().map_err(err)?;
    let needed = (STORE_CALLS * w.pickup_bits()) as u64;
    while memory.store().status(link).map_err(err)?.available_bits < needed {
        let events = epoch_events(&mut source, w.blocks_per_epoch);
        for fleet in [&mut durable, &mut memory] {
            fleet.submit_events(link, events.clone()).map_err(err)?;
            while fleet.backlog(link).map_err(err)? > 0 {
                fleet.run().map_err(err)?;
            }
        }
    }
    let ttl = system::api_config().reservation_ttl;
    let claim = Some(SLAVE);
    for i in 0..STORE_CALLS as u64 {
        for (fleet, reserve, redeem) in [
            (&durable, "store.reserve_keys", "store.get_keys_by_id"),
            (
                &memory,
                "store.reserve_keys_in_memory",
                "store.get_keys_by_id_in_memory",
            ),
        ] {
            let store = fleet.store();
            let keys = rec
                .time(reserve, i, || {
                    store.reserve_keys(link, w.keys_per_pickup, KEY_BITS, claim, ttl)
                })
                .map_err(err)?;
            let ids: Vec<_> = keys.iter().map(|k| k.id).collect();
            rec.time(redeem, i, || store.get_keys_by_id(&ids, claim))
                .map_err(err)?;
        }
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

impl Phase {
    fn in_window(&self, t: Instant) -> bool {
        t >= self.window.0 && t <= self.window.1
    }

    fn window_s(&self) -> f64 {
        (self.window.1 - self.window.0).as_secs_f64()
    }

    /// Epochs offered while the measured load ran (not the pickup pool).
    fn live_epochs(&self) -> &[system::Epoch] {
        &self.producer.epochs[self.prefill_epochs..]
    }

    /// `(offset into the window in s, latency in ms)` of every key both
    /// SAEs received in the window, latency counted from when the epoch that
    /// produced its last bit was due. The pickup pool is offered when the
    /// timed pickups start.
    fn key_latency_samples(&self) -> Vec<(f64, f64)> {
        let mut ends = Vec::new();
        let mut total = 0u64;
        for bits in &self.replay.epoch_bits {
            total += bits;
            ends.push(total);
        }
        let dues: Vec<Instant> = self
            .producer
            .epochs
            .iter()
            .filter(|e| e.admitted)
            .map(|e| match self.workload.load {
                Load::Pickup { .. } => e.due.max(self.window.0),
                _ => e.due,
            })
            .collect();
        self.sae
            .keys
            .iter()
            .filter(|k| k.both && self.in_window(k.at))
            .filter_map(|k| {
                let last = (k.serial + 1) * KEY_BITS as u64;
                let epoch = ends.partition_point(|&end| end < last);
                dues.get(epoch).map(|due| {
                    (
                        (k.at - self.window.0).as_secs_f64(),
                        k.at.saturating_duration_since(*due).as_secs_f64() * 1e3,
                    )
                })
            })
            .collect()
    }

    fn key_latencies_ms(&self) -> Vec<f64> {
        self.key_latency_samples().iter().map(|s| s.1).collect()
    }

    /// The median over the window's slices of each slice's `q`-quantile of
    /// key latency.
    fn key_latency_ms(&self, q: f64) -> Result<f64, String> {
        sliced_percentile(&self.key_latency_samples(), self.window_s(), SLICES, q)
    }

    fn pickup_latencies_ms(&self) -> Vec<f64> {
        self.sae
            .pickups
            .iter()
            .filter(|(_, end)| self.in_window(*end))
            .map(|(start, end)| (*end - *start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Keys both SAEs received per second in each slice of the window.
    fn key_slice_rates(&self) -> Vec<f64> {
        self.slice_rates(self.sae.keys.iter().filter(|k| k.both).map(|k| k.at))
    }

    /// Events per second in each of the window's [`SLICES`] slices; events
    /// outside the window are left out.
    fn slice_rates(&self, times: impl Iterator<Item = Instant>) -> Vec<f64> {
        let offsets: Vec<f64> = times
            .filter(|t| self.in_window(*t))
            .map(|t| (t - self.window.0).as_secs_f64())
            .collect();
        slice_rates(&offsets, self.window_s(), SLICES)
    }

    /// Median over the window's slices of the bits both SAEs received per
    /// second.
    fn key_rate_bps(&self) -> Result<f64, String> {
        Ok(median(&self.key_slice_rates())? * KEY_BITS as f64)
    }

    /// Median over the window's slices of the pickups completed per second.
    fn pickups_per_s(&self) -> Result<f64, String> {
        median(&self.slice_rates(self.sae.pickups.iter().map(|(_, end)| *end)))
    }

    /// The self-time table of the measured window's two threads.
    fn window_table(&self) -> LayerTable {
        let mut table = LayerTable::default();
        for t in &self.threads {
            table.add_thread(t.rec.spans(), t.start, t.end);
        }
        table
    }

    fn span_total_ms(&self, name: &str) -> f64 {
        self.threads.iter().map(|t| t.rec.total_ms(name)).sum()
    }

    fn span_durations_ms(&self, name: &str) -> Vec<f64> {
        self.threads
            .iter()
            .flat_map(|t| t.rec.durations_ms(name))
            .collect()
    }

    fn engine_ms_per_block(&self) -> f64 {
        self.replay_rec.total_ms("core.process_detections") / self.replay.blocks.max(1) as f64
    }

    fn stage_ms_per_block(&self) -> f64 {
        STAGE_SPANS
            .iter()
            .map(|s| self.replay_rec.total_ms(s))
            .sum::<f64>()
            / self.replay.blocks.max(1) as f64
    }

    fn report(&self, label: &str) -> String {
        let mut out = format!(
            "[{}] {label}: window {:.2} s, {} keys, {} pickups, {} requests ({} failed), {} epochs\n",
            self.workload.name,
            self.window_s(),
            self.sae.keys.len(),
            self.sae.pickups.len(),
            self.sae.requests,
            self.sae.errors,
            self.producer.epochs.len(),
        );
        for (name, samples) in [
            ("key latency", self.key_latencies_ms()),
            ("pickup latency", self.pickup_latencies_ms()),
        ] {
            let q: Vec<String> = [0.5, 0.9, 0.99]
                .iter()
                .map(|&q| percentile(&samples, q).map_or("-".into(), |v| format!("{v:.3}")))
                .collect();
            out.push_str(&format!(
                "  {name}: {} samples, ms p50/p90/p99 {}\n",
                samples.len(),
                q.join(" / ")
            ));
        }
        let slices: Vec<String> = self
            .key_slice_rates()
            .iter()
            .map(|r| format!("{:.0}", r * KEY_BITS as f64 / 1e3))
            .collect();
        let p99s: Vec<String> =
            slice_percentiles(&self.key_latency_samples(), self.window_s(), SLICES, 0.99)
                .iter()
                .map(|v| v.map_or("-".into(), |v| format!("{v:.1}")))
                .collect();
        out.push_str(&format!(
            "  key latency p99 by slice (ms): {}\n",
            p99s.join(" ")
        ));
        out.push_str(&format!(
            "  key rate by slice (kbit/s): {}\n",
            slices.join(" ")
        ));
        out.push_str(&format!(
            "  solo replay {:.2} ms/block\n",
            self.replay_s * 1e3 / self.replay.blocks.max(1) as f64
        ));
        if let Some(e) = &self.sae.first_error {
            out.push_str(&format!("  first API error: {e}\n"));
        }
        if self.threads.iter().any(|t| !t.rec.spans().is_empty()) {
            out.push_str("  window self time by layer (producer + SAE threads):\n");
            out.push_str(&self.window_table().render());
            out.push_str(&format!(
                "  engine {:.3} ms/block, stage calls {:.3} ms/block\n",
                self.engine_ms_per_block(),
                self.stage_ms_per_block()
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}

/// The traced run's self-checks: the window table closes on wall time and
/// the stage calls add up to the solo engine's time.
fn trace_checks(phase: &mut Phase) {
    let closure = phase.window_table().closure_error();
    if closure > CLOSURE_TOLERANCE {
        phase.failures.push(format!(
            "self times miss wall time by {:.2} % (tolerance {:.0} %)",
            closure * 100.0,
            CLOSURE_TOLERANCE * 100.0
        ));
    }
    let engine = phase.engine_ms_per_block();
    let gap = (engine - phase.stage_ms_per_block()).abs() / engine.max(f64::MIN_POSITIVE);
    if gap > STAGE_SUM_TOLERANCE {
        phase.failures.push(format!(
            "stage calls ({:.3} ms/block) differ from the engine ({engine:.3} ms/block) by {:.1} % (tolerance {:.0} %)",
            phase.stage_ms_per_block(),
            gap * 100.0,
            STAGE_SUM_TOLERANCE * 100.0
        ));
    }
}

/// Writes every span of a traced run, one JSON object per line, beside the
/// journal directories.
fn write_spans(args: &Args, phase: &Phase) -> Result<(), String> {
    let mut out = String::new();
    let mut dump = |thread: &str, spans: &[Span]| {
        for s in spans {
            out.push_str(&format!(
                "{{\"thread\":\"{thread}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}\n",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.id
            ));
        }
    };
    dump("setup", phase.setup_rec.spans());
    dump("producer", phase.threads[0].rec.spans());
    dump("sae", phase.threads[1].rec.spans());
    dump("replay", phase.replay_rec.spans());
    dump("stores", phase.store_rec.spans());
    let path = args.work.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name, args.seed
    ));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

fn end_to_end(p: &Phase) -> Result<Vec<Metric>, String> {
    let pickup_latency = p.pickup_latencies_ms();
    let blocks = (p.summary.blocks_ok + p.summary.blocks_failed).max(1) as f64;
    Ok(vec![
        Metric::new("key_rate_bps", "bit/s", p.key_rate_bps()?),
        Metric::new("key_latency_p50_ms", "ms", p.key_latency_ms(0.5)?),
        Metric::new("key_latency_p99_ms", "ms", p.key_latency_ms(0.99)?),
        Metric::new("pickup_pairs_per_s", "1/s", p.pickups_per_s()?),
        Metric::new(
            "pickup_latency_p50_ms",
            "ms",
            percentile(&pickup_latency, 0.5)?,
        ),
        // p90, not p99: the pickups' p99 rides on host timer and fsync noise
        // (IQR/median 0.44 across ten runs of pickup-metro-4k on a 2-vCPU VM;
        // p90: 0.14).
        Metric::new(
            "pickup_latency_p90_ms",
            "ms",
            percentile(&pickup_latency, 0.9)?,
        ),
        Metric::new(
            "secret_fraction",
            "ratio",
            p.summary.secret_bits_out as f64 / p.summary.sifted_bits_in.max(1) as f64,
        ),
        Metric::new(
            "request_ok_ratio",
            "ratio",
            1.0 - p.sae.errors as f64 / p.sae.requests.max(1) as f64,
        ),
        Metric::new(
            "block_ok_ratio",
            "ratio",
            p.summary.blocks_ok as f64 / blocks,
        ),
        Metric::new("peak_rss_mb", "MB", p.rss_mb),
    ])
}

/// The workload's headline metric, oriented so that larger is better.
fn headline(w: &Workload, p: &Phase) -> Result<f64, String> {
    Ok(match w.load {
        Load::Saturate => p.key_rate_bps()?,
        Load::Pickup { .. } => p.pickups_per_s()?,
    })
}

/// How much worse the headline metric reads with spans on than off.
fn overhead_share(w: &Workload, traced: &Phase, plain: &Phase) -> Result<f64, String> {
    Ok(1.0 - headline(w, traced)? / headline(w, plain)?)
}

fn per_layer(p: &Phase) -> Result<Vec<Metric>, String> {
    let blocks = p.replay.blocks.max(1) as f64;
    let per_block = |name: &str| p.replay_rec.total_ms(name) / blocks;
    let stages = p.replay.stages.unwrap_or_default();
    let p50 = |samples: Vec<f64>| percentile(&samples, 0.5);
    let store_p50 = |name: &str| p50(p.store_rec.durations_ms(name)).map(|ms| ms * 1e3);

    let live = p.live_epochs();
    let run_blocks: usize = live
        .iter()
        .filter(|e| e.run_start.is_some())
        .map(|e| e.blocks)
        .sum();
    let queue_wait: Vec<f64> = live
        .iter()
        .filter_map(|e| e.run_start.map(|r| (r - e.submitted).as_secs_f64() * 1e3))
        .collect();
    let lag_max = live
        .iter()
        .map(|e| e.submitted.saturating_duration_since(e.due).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    let keys_both = p.sae.keys.iter().filter(|k| k.both).count().max(1) as f64;

    let (reserve, redeem) = (
        store_p50("store.reserve_keys")?,
        store_p50("store.get_keys_by_id")?,
    );
    let (reserve_mem, redeem_mem) = (
        store_p50("store.reserve_keys_in_memory")?,
        store_p50("store.get_keys_by_id_in_memory")?,
    );
    let enc = p50(p.span_durations_ms("api.enc_keys"))?;
    let dec = p50(p.span_durations_ms("api.dec_keys"))?;
    let table = p.window_table();
    let engine = p.engine_ms_per_block();

    let mut metrics = vec![
        Metric::new(
            "privacy.amplify_ms_per_block",
            "ms",
            per_block("privacy.amplify"),
        ),
        Metric::new(
            "core.verify_ms_per_block",
            "ms",
            per_block("core.verify_keys"),
        ),
        Metric::new(
            "ldpc.reconcile_ms_per_block",
            "ms",
            per_block("ldpc.reconcile"),
        ),
        Metric::new(
            "ldpc.iterations_per_block",
            "count",
            stages.ldpc_iterations as f64 / blocks,
        ),
        Metric::new(
            "ldpc.attempts_per_block",
            "count",
            stages.ldpc_attempts as f64 / blocks,
        ),
        Metric::new("sifting.sift_ms_per_block", "ms", per_block("sifting.sift")),
        Metric::new(
            "sifting.estimate_ms_per_block",
            "ms",
            per_block("sifting.estimate"),
        ),
        Metric::new("auth.sign_ms_per_block", "ms", per_block("auth.sign")),
        Metric::new("core.engine_ms_per_block", "ms", engine),
        Metric::new(
            "core.glue_ms_per_block",
            "ms",
            engine - p.stage_ms_per_block(),
        ),
        Metric::new(
            "core.stage_replay_mismatches",
            "count",
            stages.mismatches as f64,
        ),
        Metric::new(
            "manager.run_ms_per_block",
            "ms",
            p.span_total_ms("manager.run") / run_blocks.max(1) as f64,
        ),
        Metric::new("manager.queue_wait_ms_p50", "ms", p50(queue_wait)?),
        Metric::new(
            "manager.epochs_rejected",
            "count",
            p.producer.rejected as f64,
        ),
        Metric::new(
            "ldpc.code_build_s",
            "s",
            p.setup_rec.total_ms("manager.add_link") / 1e3,
        ),
        Metric::new(
            "journal.open_s",
            "s",
            p.setup_rec.total_ms("journal.open_durable") / 1e3,
        ),
        Metric::new("store.reserve_us_p50", "us", reserve),
        Metric::new("store.redeem_us_p50", "us", redeem),
        Metric::new(
            "journal.store_overhead_us",
            "us",
            (reserve + redeem) - (reserve_mem + redeem_mem),
        ),
        Metric::new("api.enc_keys_ms_p50", "ms", enc),
        Metric::new("api.dec_keys_ms_p50", "ms", dec),
        Metric::new(
            "api.status_ms_p50",
            "ms",
            p50(p.span_durations_ms("api.status"))?,
        ),
        Metric::new(
            "api.transport_us_p50",
            "us",
            (enc * 1e3 - reserve + dec * 1e3 - redeem) / 2.0,
        ),
        Metric::new("api.requests", "count", p.sae.requests as f64),
        Metric::new(
            "simulator.submit_ms_per_epoch",
            "ms",
            p.span_total_ms("simulator.generate") / live.len().max(1) as f64,
        ),
        Metric::new("generator.lag_ms_max", "ms", lag_max),
        Metric::new(
            "generator.status_polls_per_key",
            "count",
            p.sae.status_polls as f64 / keys_both,
        ),
    ];
    for (layer, name) in WINDOW_LAYERS {
        metrics.push(Metric::new(name, "ratio", table.share(layer)));
    }
    metrics.push(Metric::new(
        "trace.unattributed_share",
        "ratio",
        table.unattributed as f64 / table.wall.max(1) as f64,
    ));
    Ok(metrics)
}
