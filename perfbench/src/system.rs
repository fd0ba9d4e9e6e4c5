//! The system under test, started the way a deployment starts it, and the
//! two load-generator threads that drive it: a producer that offers epochs
//! to the fleet and an SAE pair that picks key up over loopback TCP.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qkd_api::{ApiClient, ApiConfig, ApiServer, SaeProfile, SaeRegistry};
use qkd_journal::{FsyncPolicy, JournalConfig};
use qkd_manager::{FleetConfig, KeyId, LinkManager};
use qkd_simulator::CorrelatedKeySource;
use qkd_types::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Recorder;
use crate::workload::{epoch_events, Load, Workload, KEY_BITS};

/// The master SAE (calls `enc_keys`).
pub const MASTER: &str = "sae-master";
/// The slave SAE (calls `dec_keys`).
pub const SLAVE: &str = "sae-slave";
const MASTER_TOKEN: &str = "tok-sae-master";
const SLAVE_TOKEN: &str = "tok-sae-slave";

/// Fleet worker threads: one per vCPU of the 2-vCPU machine the benchmark
/// was sized on.
pub const WORKERS: usize = 2;
/// Untimed lead-in of the saturated workload, so the measured window sees a
/// full pipeline. The first second of `run` calls takes about twice as long
/// as the rest, and with a 1 s lead-in the epochs queued behind them set
/// the window's key-latency p99.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Untimed pickups before the timed ones on the pickup workload.
pub const WARMUP_PICKUPS: usize = 200;
/// How long the SAE pair waits before asking `status` again when no key is
/// ready.
const POLL: Duration = Duration::from_millis(2);
/// Longest pause the SAE pair takes before a pickup, in µs. The API server
/// polls its connections with an adaptive sleep (0.2 ms doubling to 5 ms);
/// with the server's default four shards, pickups with no pause, or pauses
/// of at most 0.5 ms, phase-locked with that sleep, and on a 2-vCPU VM whole
/// runs settled at one of two levels (0.4 or 0.7 ms median, 3.3 or 6.3 ms
/// p99). Pauses drawn from 0–2 ms spread the arrivals over the whole sleep
/// cycle.
const THINK_MAX_US: u64 = 2000;
/// Blocks per epoch while distilling the pickup workload's pool.
const PREFILL_BLOCKS: usize = 16;

/// The fleet settings every workload runs with. `batch_budget = 1` makes
/// each `LinkManager::run` call distil exactly one epoch, so the producer
/// can top the backlog up between epochs and knows which epoch each run
/// served.
pub fn fleet_config() -> FleetConfig {
    FleetConfig::default()
        .with_workers(WORKERS)
        .with_batch_budget(Some(1))
}

/// Group commit every 64 frames: with per-frame fsync (the default) the
/// run-to-run spread of the disk dominates every other layer.
pub fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Batch { max_frames: 64 },
        ..JournalConfig::default()
    }
}

/// The delivery server's settings: the defaults, with one shard thread for
/// the SAE pair's two connections. With the default four, master and slave
/// sat on different shards, so each pickup waited out two shards' poll
/// sleeps, and three more polling threads competed with the fleet's two
/// workers for the two vCPUs.
pub fn api_config() -> ApiConfig {
    ApiConfig {
        shards: 1,
        ..ApiConfig::default()
    }
}

/// A running system: durable fleet with one link, and the delivery API in
/// front of its store.
pub struct System {
    /// The fleet.
    pub fleet: LinkManager,
    /// The workload's link.
    pub link: usize,
    /// SAE identities; holds the journal for budget records.
    pub registry: Arc<SaeRegistry>,
    /// The ETSI-014 server on loopback.
    pub server: ApiServer,
    /// Seconds from opening the journal until the server accepted
    /// connections.
    pub setup_s: f64,
}

fn fail(what: &str) -> impl Fn(qkd_types::QkdError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Opens the durable fleet in `dir`, adds the workload's link and starts the
/// API server: everything until the system is ready to serve.
pub fn start(w: &Workload, seed: u64, dir: &Path, rec: &mut Recorder) -> Result<System, String> {
    let begin = Instant::now();
    let mut fleet = rec
        .time("journal.open_durable", 0, || {
            LinkManager::open_durable_with(fleet_config(), dir, journal_config())
        })
        .map_err(fail("open_durable_with"))?;
    let link = rec
        .time("manager.add_link", 0, || fleet.add_link(w.spec(seed)))
        .map_err(fail("add_link"))?;
    let registry = Arc::new(SaeRegistry::new());
    for (id, token) in [(MASTER, MASTER_TOKEN), (SLAVE, SLAVE_TOKEN)] {
        registry
            .register(SaeProfile::new(id, token))
            .map_err(fail("register SAE"))?;
    }
    registry
        .entitle(MASTER, SLAVE, link)
        .map_err(fail("entitle SAE pair"))?;
    registry
        .restore(fleet.recovered_budgets())
        .map_err(fail("restore SAE budgets"))?;
    if let Some(journal) = fleet.store().journal() {
        registry.attach_journal(journal);
    }
    let server = rec
        .time("api.start", 0, || {
            ApiServer::start(fleet.store_handle(), Arc::clone(&registry), api_config())
        })
        .map_err(fail("ApiServer::start"))?;
    Ok(System {
        fleet,
        link,
        registry,
        server,
        setup_s: begin.elapsed().as_secs_f64(),
    })
}

/// One epoch the producer generated.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    /// Blocks in the epoch.
    pub blocks: usize,
    /// When the load shape wanted it offered.
    pub due: Instant,
    /// When `submit_events` was called.
    pub submitted: Instant,
    /// Whether admission control accepted it.
    pub admitted: bool,
    /// When the `run` call that distilled it started.
    pub run_start: Option<Instant>,
}

/// What the producer did.
#[derive(Debug, Default)]
pub struct ProducerLog {
    /// Every generated epoch, in generation order.
    pub epochs: Vec<Epoch>,
    /// Epochs admission control turned away.
    pub rejected: u64,
}

/// The producer: generates epochs from the link's key source, submits them
/// and calls `run`. It owns the fleet while the load runs.
pub struct Producer<'a> {
    fleet: &'a mut LinkManager,
    link: usize,
    source: CorrelatedKeySource,
    blocks: usize,
    next_run: usize,
    /// The producer thread's spans.
    pub rec: Recorder,
    /// The epochs so far.
    pub log: ProducerLog,
}

impl<'a> Producer<'a> {
    /// A producer for the system's link.
    pub fn new(
        system: &'a mut System,
        w: &Workload,
        seed: u64,
        rec: Recorder,
    ) -> Result<Self, String> {
        Ok(Self {
            link: system.link,
            fleet: &mut system.fleet,
            source: w.spec(seed).key_source().map_err(fail("key_source"))?,
            blocks: w.blocks_per_epoch,
            next_run: 0,
            rec,
            log: ProducerLog::default(),
        })
    }

    /// Generates and submits one epoch of `blocks` blocks; `true` when it
    /// was admitted.
    fn offer(&mut self, due: Instant, blocks: usize) -> Result<bool, String> {
        let id = self.log.epochs.len() as u64;
        let events = self.rec.time("simulator.generate", id, || {
            epoch_events(&mut self.source, blocks)
        });
        let submitted = Instant::now();
        let admission = self
            .rec
            .time("manager.submit_events", id, || {
                self.fleet.submit_events(self.link, events)
            })
            .map_err(fail("submit_events"))?;
        let admitted = admission.accepted();
        self.log.rejected += u64::from(!admitted);
        self.log.epochs.push(Epoch {
            blocks,
            due,
            submitted,
            admitted,
            run_start: None,
        });
        Ok(admitted)
    }

    fn backlog(&mut self) -> Result<usize, String> {
        let id = self.log.epochs.len() as u64;
        self.rec
            .time("manager.backlog", id, || self.fleet.backlog(self.link))
            .map_err(fail("backlog"))
    }

    /// Distils the oldest queued epoch (the budget of one batch per `run`
    /// makes each call serve exactly one, in admission order).
    fn run_one(&mut self) -> Result<(), String> {
        while self
            .log
            .epochs
            .get(self.next_run)
            .is_some_and(|e| !e.admitted)
        {
            self.next_run += 1;
        }
        let start = Instant::now();
        self.rec
            .time("manager.run", self.next_run as u64, || self.fleet.run())
            .map_err(fail("run"))?;
        if let Some(epoch) = self.log.epochs.get_mut(self.next_run) {
            epoch.run_start = Some(start);
        }
        self.next_run += 1;
        Ok(())
    }

    /// Distils epochs until the store holds at least `bits` available bits.
    pub fn prefill(&mut self, bits: u64) -> Result<(), String> {
        while self
            .fleet
            .store()
            .status(self.link)
            .map_err(fail("status"))?
            .available_bits
            < bits
        {
            if !self.offer(Instant::now(), PREFILL_BLOCKS)? {
                return Err("the link refused a prefill epoch".into());
            }
            self.run_one()?;
        }
        Ok(())
    }

    /// Waits until `due`; `false` when told to stop first.
    fn wait_until(&mut self, due: Instant, stop: &AtomicBool) -> bool {
        let id = self.log.epochs.len() as u64;
        self.rec.time("idle.wait", id, || loop {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            let now = Instant::now();
            if now >= due {
                return true;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(20)));
        })
    }

    /// Offers load in the workload's shape from `start` until `stop`, then
    /// drains the backlog so that every admitted epoch is distilled.
    pub fn produce(&mut self, load: Load, start: Instant, stop: &AtomicBool) -> Result<(), String> {
        match load {
            Load::Saturate => {
                let cap = self.fleet.config().max_backlog;
                while !stop.load(Ordering::SeqCst) {
                    while self.backlog()? < cap {
                        if !self.offer(Instant::now(), self.blocks)? {
                            break;
                        }
                    }
                    if self.backlog()? > 0 {
                        self.run_one()?;
                    }
                }
            }
            Load::Pickup { period, .. } => {
                for k in 0u32.. {
                    let due = start + period * k;
                    if !self.wait_until(due, stop) {
                        break;
                    }
                    if self.offer(due, self.blocks)? {
                        self.run_one()?;
                    }
                }
            }
        }
        while self.backlog()? > 0 {
            self.run_one()?;
        }
        Ok(())
    }
}

/// One key as the SAE pair received it.
#[derive(Debug, Clone)]
pub struct Received {
    /// Delivery serial (the key's position in the link's key stream).
    pub serial: u64,
    /// When the slave's `dec_keys` returned it.
    pub at: Instant,
    /// The master's copy.
    pub bits: BitVec,
    /// Whether the slave got the same ID with the same bits.
    pub both: bool,
}

/// What the SAE pair did.
#[derive(Debug, Default)]
pub struct SaeLog {
    /// Every key the master reserved, in order.
    pub keys: Vec<Received>,
    /// `(start of enc_keys, end of dec_keys)` of every completed pickup.
    pub pickups: Vec<(Instant, Instant)>,
    /// API requests attempted.
    pub requests: u64,
    /// API requests that returned an error.
    pub errors: u64,
    /// `status` requests.
    pub status_polls: u64,
    /// The first error, for the report.
    pub first_error: Option<String>,
}

/// The SAE pair: one master and one slave client, each on its own
/// kept-alive connection.
pub struct Sae {
    master: ApiClient,
    slave: ApiClient,
    keys_per_pickup: usize,
    think: StdRng,
    /// The SAE thread's spans.
    pub rec: Recorder,
    /// The pickups so far.
    pub log: SaeLog,
}

impl Sae {
    /// An SAE pair talking to the server at `addr`, pausing by a schedule
    /// drawn from `seed`.
    pub fn new(addr: SocketAddr, w: &Workload, seed: u64, rec: Recorder) -> Self {
        Self {
            think: StdRng::seed_from_u64(seed ^ 0x5AE),
            master: ApiClient::new(addr, MASTER_TOKEN),
            slave: ApiClient::new(addr, SLAVE_TOKEN),
            keys_per_pickup: w.keys_per_pickup,
            rec,
            log: SaeLog::default(),
        }
    }

    fn error(&mut self, e: qkd_types::QkdError) {
        self.log.errors += 1;
        self.log.first_error.get_or_insert_with(|| e.to_string());
    }

    /// Keys the store can serve right now, by `status`.
    fn poll(&mut self) -> usize {
        let id = self.log.pickups.len() as u64;
        self.log.requests += 1;
        self.log.status_polls += 1;
        match self
            .rec
            .time("api.status", id, || self.master.status(SLAVE))
        {
            Ok(status) => usize::try_from(status.available_bits).unwrap_or(usize::MAX) / KEY_BITS,
            Err(e) => {
                self.error(e);
                0
            }
        }
    }

    /// One `enc_keys` of `keys` keys by the master and the matching
    /// `dec_keys` by the slave.
    fn pickup(&mut self, keys: usize) {
        let id = self.log.pickups.len() as u64;
        let pause = Duration::from_micros(self.think.gen_range(0..=THINK_MAX_US));
        self.rec
            .time("idle.think", id, || std::thread::sleep(pause));
        self.rec.enter("generator.pickup", id);
        let start = Instant::now();
        self.log.requests += 1;
        let reserved = self.rec.time("api.enc_keys", id, || {
            self.master.enc_keys(SLAVE, keys, KEY_BITS)
        });
        match reserved {
            Err(e) => self.error(e),
            Ok(keys) => {
                let ids: Vec<KeyId> = keys.iter().map(|k| k.id).collect();
                self.log.requests += 1;
                let picked = self
                    .rec
                    .time("api.dec_keys", id, || self.slave.dec_keys(MASTER, &ids));
                let at = Instant::now();
                let picked = picked.unwrap_or_else(|e| {
                    self.error(e);
                    Vec::new()
                });
                for (i, key) in keys.into_iter().enumerate() {
                    let both = picked
                        .get(i)
                        .is_some_and(|p| p.id == key.id && p.bits == key.bits);
                    self.log.keys.push(Received {
                        serial: key.id.serial,
                        at,
                        bits: key.bits,
                        both,
                    });
                }
                self.log.pickups.push((start, at));
            }
        }
        self.rec.exit();
    }

    /// Picks key up in the workload's shape: `pickups` back-to-back pickups
    /// (then signals `stop`) on the pickup workload, otherwise whatever
    /// `status` shows until `stop`.
    pub fn consume(&mut self, load: Load, pickups: usize, stop: &AtomicBool) {
        if let Load::Pickup { .. } = load {
            for i in 0..pickups {
                // Only the untimed warm-up asks `status` first, so that the
                // call is measured without changing the timed pickups.
                if i < WARMUP_PICKUPS {
                    self.poll();
                }
                self.pickup(self.keys_per_pickup);
            }
            stop.store(true, Ordering::SeqCst);
            return;
        }
        while !stop.load(Ordering::SeqCst) {
            let mut ready = self.poll();
            if ready == 0 {
                let id = self.log.pickups.len() as u64;
                self.rec.time("idle.wait", id, || std::thread::sleep(POLL));
            }
            // Up to `keys_per_pickup` per pickup, never waiting for a full
            // batch: a key that is ready is fetched now.
            while ready > 0 && !stop.load(Ordering::SeqCst) {
                let keys = ready.min(self.keys_per_pickup);
                self.pickup(keys);
                ready -= keys;
            }
        }
    }
}
