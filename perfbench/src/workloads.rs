//! The four workloads: what each sets up and what one operation does.
//! Every audit goes through the product's own code — `Auditor`,
//! `WallClockVerifier` over loopback TCP to a reactor
//! `MuxProverServer`, and one long-lived `LedgerWriter` (append, then
//! `finish`, as `geoproof audit --ledger` does).

use crate::trace::{OpTrace, Recorder};
use crate::verdict::{self, ProverClass};
use bytes::Bytes;
use geoproof::core::auditor::{AuditReport, Auditor};
use geoproof::core::dynamic_audit::DynAuditor;
use geoproof::core::engine::ProverId;
use geoproof::core::evidence::encode_report;
use geoproof::core::policy::TimingPolicy;
use geoproof::core::scheduler::{AuditScheduler, SchedulePolicy};
use geoproof::crypto::chacha::ChaChaRng;
use geoproof::crypto::fnv::fnv1a_64;
use geoproof::crypto::schnorr::{SigningKey, VerifyingKey};
use geoproof::crypto::sha256::Sha256;
use geoproof::geo::coords::places::BRISBANE;
use geoproof::geo::gps::GpsReceiver;
use geoproof::ledger::{
    DigestOp, DigestRecord, LedgerWriter, DEFAULT_CHECKPOINT_INTERVAL, NO_DIGEST,
};
use geoproof::por::dynamic::{owner_authorization, tag_segment, DynamicOwner};
use geoproof::por::encode::PorEncoder;
use geoproof::por::keys::PorKeys;
use geoproof::por::params::PorParams;
use geoproof::sim::time::Km;
use geoproof::tcp_audit::WallClockVerifier;
use geoproof::wire::{MuxProverServer, SegmentStore, TcpChallenger};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const MASTER: &[u8] = b"perfbench-owner-master";
const SLA_TOLERANCE: Km = Km(25.0);

/// Workload parameters, stamped into every result.
#[derive(Clone, Debug)]
pub struct Params {
    pub name: &'static str,
    /// Challenges per audit.
    pub k: u32,
    /// Bytes of original data per file (per prover in `fleet_sched`).
    pub file_bytes: usize,
    /// Prover files.
    pub provers: usize,
    pub corrupt: usize,
    pub relay: usize,
    /// Steady-state cadence and REJECT fast-track cadence (fleet only).
    pub cadence: Duration,
    pub reject_cadence: Duration,
    /// Service delay of the relay server.
    pub relay_delay: Duration,
    /// Dynamic segment body size, and appends per measured block (the
    /// other mutations are updates).
    pub dyn_body: usize,
    pub appends_per_block: u64,
}

impl Params {
    pub fn of(name: &str) -> Option<Params> {
        let base = Params {
            name: "",
            k: 8,
            file_bytes: 256 * 1024,
            provers: 1,
            corrupt: 0,
            relay: 0,
            cadence: Duration::ZERO,
            reject_cadence: Duration::ZERO,
            relay_delay: Duration::ZERO,
            dyn_body: 0,
            appends_per_block: 0,
        };
        Some(match name {
            "audit_k8" => Params {
                name: "audit_k8",
                ..base
            },
            "window_k128" => Params {
                name: "window_k128",
                k: 128,
                file_bytes: 4 * 1024 * 1024,
                ..base
            },
            "fleet_sched" => Params {
                name: "fleet_sched",
                file_bytes: 4 * 1024,
                provers: 1200,
                corrupt: 12,
                relay: 1,
                cadence: Duration::from_secs(12),
                reject_cadence: Duration::from_secs(1),
                relay_delay: Duration::from_millis(17),
                ..base
            },
            "dynamic_rw" => Params {
                name: "dynamic_rw",
                file_bytes: 1024 * 4096,
                dyn_body: 4096,
                appends_per_block: 1,
                ..base
            },
            _ => return None,
        })
    }

    /// Audits per second the fleet's cadences offer.
    pub fn offered_rate(&self) -> f64 {
        if self.cadence.is_zero() {
            return 0.0;
        }
        let honest = (self.provers - self.corrupt - self.relay) as f64;
        honest / self.cadence.as_secs_f64()
            + (self.corrupt + self.relay) as f64 / self.reject_cadence.as_secs_f64()
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"k\":{},\"file_bytes\":{},\"provers\":{},\"corrupt\":{},\"relay\":{},\
             \"offered_per_s\":{},\"relay_delay_ms\":{},\"dyn_body\":{},\"appends_per_block\":{}}}",
            self.k,
            self.file_bytes,
            self.provers,
            self.corrupt,
            self.relay,
            self.offered_rate(),
            self.relay_delay.as_millis(),
            self.dyn_body,
            self.appends_per_block
        )
    }
}

/// A ChaCha stream for one purpose, derived from the workload seed.
pub fn derive_rng(seed: u64, label: &str) -> ChaChaRng {
    let mut h = Sha256::new();
    h.update(&seed.to_be_bytes());
    h.update(label.as_bytes());
    ChaChaRng::from_seed(h.finalize())
}

fn random_bytes(rng: &mut ChaChaRng, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

/// A sealed record as it was appended, kept to check the ledger's
/// replay: its kind, its verdict, and a fingerprint of its canonical
/// verdict bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Appended {
    pub kind: RecordKind,
    pub accepted: bool,
    fingerprint: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    Static,
    Dynamic,
    Digest,
}

impl Appended {
    /// An evidence record whose verdict is `report`.
    pub fn report(kind: RecordKind, report: &AuditReport) -> Appended {
        Appended::verdict_bytes(kind, report.accepted(), &encode_report(report))
    }

    /// An evidence record whose canonical report bytes are `bytes`.
    pub fn verdict_bytes(kind: RecordKind, accepted: bool, bytes: &[u8]) -> Appended {
        Appended {
            kind,
            accepted,
            fingerprint: fnv1a_64(bytes),
        }
    }

    /// A digest-transition record.
    pub fn digest(record: &DigestRecord) -> Appended {
        let mut body = Vec::with_capacity(record.body_len());
        record.encode(&mut body);
        Appended::verdict_bytes(RecordKind::Digest, false, &body)
    }

    const LEN: usize = 10;

    fn to_bytes(self) -> [u8; Appended::LEN] {
        let mut b = [0; Appended::LEN];
        b[0] = self.kind as u8;
        b[1] = u8::from(self.accepted);
        b[2..].copy_from_slice(&self.fingerprint.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8]) -> Option<Appended> {
        let kind = match b[0] {
            0 => RecordKind::Static,
            1 => RecordKind::Dynamic,
            2 => RecordKind::Digest,
            _ => return None,
        };
        Some(Appended {
            kind,
            accepted: b[1] == 1,
            fingerprint: u64::from_le_bytes(b[2..Appended::LEN].try_into().ok()?),
        })
    }
}

/// Every [`Appended`] of a run, spooled to a file beside the ledger so
/// the run's memory does not grow with the records it writes (and
/// `peak_rss_mib` does not grow with the speed of the code under test).
pub struct AppendLog {
    path: PathBuf,
    out: BufWriter<File>,
}

impl AppendLog {
    fn create(path: PathBuf) -> AppendLog {
        let file = File::create(&path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
        AppendLog {
            path,
            out: BufWriter::new(file),
        }
    }

    pub fn push(&mut self, a: Appended) {
        self.out
            .write_all(&a.to_bytes())
            .unwrap_or_else(|e| panic!("write {:?}: {e}", self.path));
    }

    /// Everything pushed so far, in order.
    pub fn read_all(&mut self) -> std::io::Result<Vec<Appended>> {
        self.out.flush()?;
        let bytes = std::fs::read(&self.path)?;
        bytes
            .chunks(Appended::LEN)
            .map(|c| {
                Appended::from_bytes(c).ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad append-log entry")
                })
            })
            .collect()
    }
}

/// The TPA's ledger: one writer held open for the whole run, and what
/// was appended through it.
pub struct Ledger {
    pub writer: LedgerWriter,
    pub appended: AppendLog,
}

/// A workload's ledger with its file and the key that verifies it.
pub struct SharedLedger {
    pub path: PathBuf,
    pub tpa: VerifyingKey,
    pub state: Mutex<Ledger>,
}

/// What the operations of one block produced.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Audits verified and made durable.
    pub audits: u64,
    /// Timed rounds of those audits.
    pub rounds: u64,
    /// Per-audit latency (relay audits excluded: their latency is the
    /// injected delay).
    pub audit_ns: Vec<u64>,
    /// Per-round Δt' (relay rounds excluded, as above).
    pub rtt_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
    pub relay_audit_ns: Vec<u64>,
    /// Honest audits rightly rejected because a host stall pushed a
    /// round past Δt_max.
    pub stalled: u64,
    /// Summed wall time of every operation but relay audits.
    pub op_wall_ns: u64,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.audits += o.audits;
        self.rounds += o.rounds;
        self.audit_ns.extend(o.audit_ns);
        self.rtt_ns.extend(o.rtt_ns);
        self.update_ns.extend(o.update_ns);
        self.late_ns.extend(o.late_ns);
        self.relay_audit_ns.extend(o.relay_audit_ns);
        self.stalled += o.stalled;
        self.op_wall_ns += o.op_wall_ns;
    }
}

/// Counts a failed operation and says why (the first few only).
fn fail(tally: &mut Tally, why: impl FnOnce() -> String) {
    static SHOWN: AtomicU64 = AtomicU64::new(0);
    tally.failed += 1;
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 10 {
        println!("failure: {}", why());
    }
}

/// Durations of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub encode: Duration,
    pub serve: Duration,
    pub ledger: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.encode + self.serve + self.ledger
    }
}

/// A workload ready to run.
pub trait Workload: Send {
    /// Runs operations until `until`, filing spans into `spans` when
    /// `traced`. Returns with no operation in flight.
    fn run_block(
        &mut self,
        until: Instant,
        traced: bool,
        tally: &mut Tally,
        spans: &mut Vec<OpTrace>,
    );
    fn ledger(&self) -> &SharedLedger;
    /// Audits that fell due but were never dispatched.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Builds `params`' workload, timing each set-up stage.
pub fn setup(params: &Params, seed: u64, ledger_path: PathBuf) -> (Box<dyn Workload>, SetupTimes) {
    match params.name {
        "fleet_sched" => {
            let (w, t) = Fleet::setup(params, seed, ledger_path);
            (Box::new(w), t)
        }
        "dynamic_rw" => {
            let (w, t) = DynamicRw::setup(params, seed, ledger_path);
            (Box::new(w), t)
        }
        _ => {
            let (w, t) = ClosedLoop::setup(params, seed, ledger_path);
            (Box::new(w), t)
        }
    }
}

fn create_ledger(path: PathBuf, seed: u64) -> SharedLedger {
    let tpa = SigningKey::generate(&mut derive_rng(seed, "tpa"));
    let writer = LedgerWriter::create(&path, &tpa, DEFAULT_CHECKPOINT_INTERVAL, seed)
        .unwrap_or_else(|e| panic!("create ledger {path:?}: {e}"));
    let appended = AppendLog::create(path.with_extension("appended"));
    SharedLedger {
        path,
        tpa: tpa.verifying_key(),
        state: Mutex::new(Ledger { writer, appended }),
    }
}

/// True when every round served behind `delay` overruns the paper's
/// Δt_max, so a relay prover can only ever get REJECT `TooSlow`.
fn relay_always_too_slow(delay: Duration) -> bool {
    delay.as_nanos() > u128::from(TimingPolicy::paper().max_rtt().as_nanos())
}

fn spawn_server(store: SegmentStore, delay: Duration) -> MuxProverServer {
    MuxProverServer::spawn_reactor(store, delay).expect("bind loopback reactor server")
}

// ------------------------------------------------------------- static

/// One static-PoR prover site: its file, its verifier device and the
/// TPA's auditor for it.
pub struct StaticProver {
    id: String,
    class: ProverClass,
    addr: SocketAddr,
    auditor: Auditor,
    device: WallClockVerifier,
    epoch: u64,
}

impl StaticProver {
    /// Encodes a seeded file for prover `id`, breaking every tag when
    /// `class` is [`ProverClass::Corrupt`]. Returns the prover (its
    /// address still unset) and the segments its server must hold.
    fn encode(
        id: &str,
        class: ProverClass,
        file_bytes: usize,
        seed: u64,
    ) -> (StaticProver, Vec<Bytes>) {
        let params = PorParams::paper();
        let data = random_bytes(&mut derive_rng(seed, &format!("data/{id}")), file_bytes);
        let keys = PorKeys::derive(MASTER, id);
        let arena = PorEncoder::new(params).encode_arena(&data, &keys, id);
        let n = arena.segment_count();
        let segments: Vec<Bytes> = (0..n)
            .map(|i| {
                let seg = arena.segment(i);
                if class != ProverClass::Corrupt {
                    return seg;
                }
                let mut broken = seg.to_vec();
                let body = broken.len() - params.tag_byte_len();
                for b in &mut broken[body..] {
                    *b ^= 0xFF;
                }
                Bytes::from(broken)
            })
            .collect();
        let mut rng = derive_rng(seed, &format!("device/{id}"));
        let device_key = SigningKey::generate(&mut rng);
        let prover = StaticProver {
            id: id.to_owned(),
            class,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            auditor: Auditor::new(
                id.to_owned(),
                n,
                PorEncoder::new(params),
                keys.auditor_view(),
                device_key.verifying_key(),
                BRISBANE,
                SLA_TOLERANCE,
                TimingPolicy::paper(),
                rng.next_u64(),
            ),
            device: WallClockVerifier::new(device_key, GpsReceiver::new(BRISBANE), rng.next_u64()),
            epoch: 0,
        };
        (prover, segments)
    }

    /// One durable audit inside the operation `rec` has open: issue,
    /// timed TCP session, TPA verification, ledger append + finish.
    /// Closes the operation and returns its end and, on success, the
    /// verdict.
    fn audit(
        &mut self,
        k: u32,
        ledger: &Mutex<Ledger>,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> (Instant, Option<bool>) {
        tally.attempted += 1;
        let request = rec.span("core.issue", || self.auditor.issue_request(k));
        let (session, idx) = rec.span_idx("tcp_audit.session", || {
            self.device.run_audit(&request, self.addr)
        });
        let transcript = match session {
            Ok(t) => t,
            Err(e) => {
                fail(tally, || format!("{}: audit I/O: {e}", self.id));
                let end = Instant::now();
                rec.end(end);
                return (end, None);
            }
        };
        let rtts: Vec<u64> = transcript.rounds.iter().map(|r| r.rtt.as_nanos()).collect();
        rec.sequence(idx, "wire.round", rtts.iter().copied());
        // The epoch is this prover's audit count, which is what
        // `LedgerWriter::next_epoch` reads back from a ledger only this
        // run writes; keeping it here lets verification run outside the
        // writer's lock.
        let (report, bundle) = rec.span("core.verify", || {
            self.auditor
                .verify_evidence(&request, &transcript, self.id.clone(), self.epoch)
        });
        self.epoch += 1;
        let accepted = report.accepted();
        let budget = self.auditor.policy().max_rtt().as_nanos();
        let right = verdict::matches(self.class, &report, &rtts, budget);
        if !right {
            fail(tally, || {
                format!("{}: {:?} prover got {report:?}", self.id, self.class)
            });
        } else if !accepted && self.class == ProverClass::Honest {
            tally.stalled += 1;
        }
        let mut guard = rec.span("ledger.lock_wait", || {
            ledger.lock().expect("ledger lock poisoned")
        });
        let durable = rec
            .span("ledger.append", || guard.writer.append_bundle(&bundle))
            .and_then(|()| rec.span("ledger.finish", || guard.writer.finish()));
        match &durable {
            Ok(()) => guard
                .appended
                .push(Appended::report(RecordKind::Static, &report)),
            Err(e) if right => fail(tally, || format!("{}: ledger: {e}", self.id)),
            Err(_) => {}
        }
        drop(guard);
        let end = Instant::now();
        rec.end(end);
        if durable.is_ok() {
            tally.audits += 1;
            tally.rounds += rtts.len() as u64;
            if self.class != ProverClass::Relay {
                tally.rtt_ns.extend(rtts);
            }
        }
        (end, Some(accepted))
    }
}

/// `audit_k8` and `window_k128`: one TPA thread auditing one honest
/// prover back to back.
struct ClosedLoop {
    k: u32,
    prover: StaticProver,
    ledger: SharedLedger,
    next_id: u64,
    _server: MuxProverServer,
}

impl ClosedLoop {
    fn setup(params: &Params, seed: u64, ledger_path: PathBuf) -> (ClosedLoop, SetupTimes) {
        let t = Instant::now();
        let (mut prover, segments) =
            StaticProver::encode("site-0", ProverClass::Honest, params.file_bytes, seed);
        let encode = t.elapsed();
        let t = Instant::now();
        let store = SegmentStore::default();
        store.lock().insert(prover.id.clone(), segments);
        let server = spawn_server(store, Duration::ZERO);
        prover.addr = server.addr();
        let serve = t.elapsed();
        let t = Instant::now();
        let ledger = create_ledger(ledger_path, seed);
        let times = SetupTimes {
            encode,
            serve,
            ledger: t.elapsed(),
        };
        let w = ClosedLoop {
            k: params.k,
            prover,
            ledger,
            next_id: 1,
            _server: server,
        };
        (w, times)
    }
}

impl Workload for ClosedLoop {
    fn run_block(
        &mut self,
        until: Instant,
        traced: bool,
        tally: &mut Tally,
        spans: &mut Vec<OpTrace>,
    ) {
        let mut rec = Recorder::new(crate::origin(), traced);
        while Instant::now() < until {
            let start = Instant::now();
            rec.begin(self.next_id, "audit", start);
            self.next_id += 1;
            let (end, verdict) = self
                .prover
                .audit(self.k, &self.ledger.state, &mut rec, tally);
            let wall = (end - start).as_nanos() as u64;
            tally.op_wall_ns += wall;
            if verdict.is_some() {
                tally.audit_ns.push(wall);
            }
        }
        spans.append(&mut rec.done);
    }

    fn ledger(&self) -> &SharedLedger {
        &self.ledger
    }
}

// -------------------------------------------------------------- fleet

/// Scheduler bookkeeping for one prover: when its next audit is due
/// and its REJECT streak, mirrored from the scheduler's own rule
/// (jitter is off, so due = completion + cadence exactly).
struct FleetSlot {
    prover: StaticProver,
    due_ns: u64,
    streak: u32,
}

/// Shortest nap of an idle fleet worker, so waiting never turns into
/// spinning on `pop_due`.
const MIN_NAP: Duration = Duration::from_micros(20);

/// What a fleet worker does next.
enum Next {
    Audit(ProverId),
    /// Nothing was due; it napped.
    Idle,
    /// The block is over and no audit is in flight.
    Done,
}

/// `fleet_sched`: an open loop. `AuditScheduler` on the wall clock
/// decides which prover is due; up to one worker per core pops due
/// provers and audits them, all appending to one shared ledger.
struct Fleet {
    k: u32,
    policy: SchedulePolicy,
    sched: Option<AuditScheduler>,
    slots: Vec<Mutex<FleetSlot>>,
    index: HashMap<String, usize>,
    /// Popped provers waiting for a free worker.
    ready: Mutex<VecDeque<ProverId>>,
    handoff: Condvar,
    /// Workers mid-audit.
    busy: AtomicUsize,
    ledger: SharedLedger,
    /// Wall-clock zero of the scheduler's nanosecond time line.
    epoch: Instant,
    next_id: AtomicU64,
    workers: usize,
    _servers: [MuxProverServer; 2],
}

impl Fleet {
    fn setup(params: &Params, seed: u64, ledger_path: PathBuf) -> (Fleet, SetupTimes) {
        assert!(
            relay_always_too_slow(params.relay_delay),
            "the relay delay must exceed the whole Δt_max budget"
        );
        let t = Instant::now();
        let classes = verdict::fleet_classes(params.provers, params.corrupt, params.relay, seed);
        let encoded: Vec<(StaticProver, Vec<Bytes>)> = classes
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                StaticProver::encode(&format!("site-{i:05}"), class, params.file_bytes, seed)
            })
            .collect();
        let encode = t.elapsed();

        let t = Instant::now();
        let (local, remote) = (SegmentStore::default(), SegmentStore::default());
        let mut provers = Vec::with_capacity(encoded.len());
        for (prover, segments) in encoded {
            let store = if prover.class == ProverClass::Relay {
                &remote
            } else {
                &local
            };
            store.lock().insert(prover.id.clone(), segments);
            provers.push(prover);
        }
        let servers = [
            spawn_server(local, Duration::ZERO),
            spawn_server(remote, params.relay_delay),
        ];
        for p in &mut provers {
            p.addr = servers[usize::from(p.class == ProverClass::Relay)].addr();
        }
        let serve = t.elapsed();

        let t = Instant::now();
        let ledger = create_ledger(ledger_path, seed);
        let times = SetupTimes {
            encode,
            serve,
            ledger: t.elapsed(),
        };
        let workers = crate::sys::host_cores();
        let policy = SchedulePolicy {
            cadence: params.cadence,
            jitter: 0.0,
            reject_cadence: params.reject_cadence,
            reject_rounds: 3,
            max_in_flight: workers,
            rate_per_sec: 0,
        };
        let index = provers
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id.clone(), i))
            .collect();
        let slots = provers
            .into_iter()
            .map(|prover| {
                Mutex::new(FleetSlot {
                    prover,
                    due_ns: 0,
                    streak: 0,
                })
            })
            .collect();
        let w = Fleet {
            k: params.k,
            policy,
            sched: None,
            slots,
            index,
            ready: Mutex::new(VecDeque::new()),
            handoff: Condvar::new(),
            busy: AtomicUsize::new(0),
            ledger,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            workers,
            _servers: servers,
        };
        (w, times)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Enrols every prover; their first audits spread over one cadence.
    fn start(&mut self) -> &AuditScheduler {
        self.epoch = Instant::now();
        let sched = AuditScheduler::new(self.policy.clone());
        let cadence = self.policy.cadence.as_nanos() as u64;
        for slot in &self.slots {
            let slot = &mut *slot.lock().expect("slot lock poisoned");
            let id = ProverId(slot.prover.id.clone());
            sched.register(&id, 0);
            // The scheduler's enrolment phase.
            slot.due_ns = fnv1a_64(id.0.as_bytes()) % cadence.max(1);
        }
        self.sched.insert(sched)
    }

    /// Takes the next prover to audit: one another worker already
    /// popped, else a fresh `pop_due`. Extra provers a pop returns are
    /// handed to the other workers, so none waits behind a slow audit.
    /// When nothing is due the worker naps until the next due time, the
    /// end of the block, or a hand-off, whichever comes first, but never
    /// for less than [`MIN_NAP`]. Past `until`, a worker keeps
    /// dispatching while another is still mid-audit, so a block never
    /// ends with the loop stalled behind one slow (relay) audit; once no
    /// worker is busy, the block is over.
    fn next_due(&self, sched: &AuditScheduler, until: Instant, rec: &mut Recorder) -> Next {
        // `busy` changes only under this lock, so an idle worker that
        // sees another busy here is waiting before that one's notify.
        let mut ready = self.ready.lock().expect("ready lock poisoned");
        let id = ready.pop_front().or_else(|| {
            let now = Instant::now();
            if now >= until && self.busy.load(Ordering::SeqCst) == 0 {
                return None;
            }
            let mut due = rec
                .side("scheduler.pop_due", || sched.pop_due(self.now_ns()))
                .into_iter();
            let first = due.next();
            ready.extend(due);
            first
        });
        if let Some(id) = id {
            self.busy.fetch_add(1, Ordering::SeqCst);
            if !ready.is_empty() {
                self.handoff.notify_all();
            }
            return Next::Audit(id);
        }
        let now = Instant::now();
        if now >= until && self.busy.load(Ordering::SeqCst) == 0 {
            return Next::Done;
        }
        let wake = sched.next_wakeup_ns().unwrap_or(u64::MAX);
        let mut nap = Duration::from_nanos(wake.saturating_sub(self.now_ns()));
        if now < until {
            nap = nap.min(until - now);
        }
        drop(
            self.handoff
                .wait_timeout(ready, nap.max(MIN_NAP))
                .expect("ready lock poisoned"),
        );
        Next::Idle
    }

    /// One worker: audit due provers until the block is over.
    fn work(&self, sched: &AuditScheduler, until: Instant, rec: &mut Recorder, tally: &mut Tally) {
        let k = self.k;
        loop {
            let id = match self.next_due(sched, until, rec) {
                Next::Audit(id) => id,
                Next::Idle => continue,
                Next::Done => return,
            };
            let slot = &mut *self.slots[self.index[&id.0]]
                .lock()
                .expect("slot lock poisoned");
            let due_at = self.epoch + Duration::from_nanos(slot.due_ns);
            let start = Instant::now();
            if due_at > start {
                // The scheduler released an audit before the due time
                // this benchmark derived: the mirror is wrong.
                fail(tally, || {
                    format!("{}: released {:?} early", id.0, due_at - start)
                });
            }
            // Relay audits are timed apart, as in the latency metrics:
            // their wall time is the injected delay.
            let relay = slot.prover.class == ProverClass::Relay;
            let root = if relay { "relay_audit" } else { "audit" };
            rec.begin(
                self.next_id.fetch_add(1, Ordering::Relaxed),
                root,
                due_at.min(start),
            );
            rec.interval("scheduler.wait", due_at.min(start), start);
            tally
                .late_ns
                .push(start.saturating_duration_since(due_at).as_nanos() as u64);
            let (end, verdict) = slot.prover.audit(k, &self.ledger.state, rec, tally);
            let wall = end.saturating_duration_since(due_at).as_nanos() as u64;
            if relay {
                tally.relay_audit_ns.push(wall);
            } else {
                tally.op_wall_ns += wall;
                if verdict.is_some() {
                    tally.audit_ns.push(wall);
                }
            }
            let accepted = verdict.unwrap_or(false);
            slot.streak = if accepted {
                slot.streak.saturating_sub(1)
            } else {
                self.policy.reject_rounds
            };
            let base = if slot.streak > 0 {
                self.policy.reject_cadence
            } else {
                self.policy.cadence
            };
            let now = self.now_ns();
            slot.due_ns = now + base.as_nanos() as u64;
            sched.complete(&id, accepted, now);
            {
                let _ready = self.ready.lock().expect("ready lock poisoned");
                self.busy.fetch_sub(1, Ordering::SeqCst);
            }
            // Idle workers re-poll: something may have fallen due, or the
            // block may be over.
            self.handoff.notify_all();
        }
    }

    /// Provers whose audit has been due for longer than `grace` without
    /// being dispatched: audits the open loop dropped.
    fn overdue(&self, grace: Duration) -> u64 {
        let now = self.now_ns();
        self.slots
            .iter()
            .filter(|s| {
                s.lock().expect("slot lock poisoned").due_ns + grace.as_nanos() as u64 <= now
            })
            .count() as u64
    }
}

impl Workload for Fleet {
    fn run_block(
        &mut self,
        until: Instant,
        traced: bool,
        tally: &mut Tally,
        spans: &mut Vec<OpTrace>,
    ) {
        if self.sched.is_none() {
            self.start();
        }
        let this = &*self;
        let sched = this.sched.as_ref().expect("scheduler started");
        let results: Vec<(Tally, Vec<OpTrace>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..this.workers)
                .map(|_| {
                    s.spawn(move || {
                        let mut rec = Recorder::new(crate::origin(), traced);
                        let mut t = Tally::default();
                        this.work(sched, until, &mut rec, &mut t);
                        (t, rec.done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        });
        for (t, mut s) in results {
            tally.merge(t);
            spans.append(&mut s);
        }
    }

    fn dropped(&self) -> u64 {
        // An audit due a full reject cadence ago and still not
        // dispatched was dropped by the open loop.
        self.overdue(self.policy.reject_cadence)
    }

    fn ledger(&self) -> &SharedLedger {
        &self.ledger
    }
}

// ------------------------------------------------------------ dynamic

/// `dynamic_rw`: one owner thread alternating an authorised mutation
/// with a dynamic audit of the file's current digest. The first
/// `appends_per_block` mutations of each block are appends, the rest
/// updates, so the store grows by the same number of segments in every
/// run, however fast the code under test is.
struct DynamicRw {
    params: Params,
    file_id: String,
    keys: PorKeys,
    owner: DynamicOwner,
    owner_key: SigningKey,
    auditor: DynAuditor,
    device: WallClockVerifier,
    addr: SocketAddr,
    rng: ChaChaRng,
    epoch: u64,
    next_id: u64,
    ledger: SharedLedger,
    _server: MuxProverServer,
}

impl DynamicRw {
    fn setup(params: &Params, seed: u64, ledger_path: PathBuf) -> (DynamicRw, SetupTimes) {
        let file_id = "dyn-0".to_owned();
        let t = Instant::now();
        let keys = PorKeys::derive(MASTER, &file_id);
        let mut rng = derive_rng(seed, "dynamic/data");
        let segments = params.file_bytes / params.dyn_body;
        let tagged: Vec<Bytes> = (0..segments as u64)
            .map(|i| {
                Bytes::from(tag_segment(
                    &keys,
                    &file_id,
                    i,
                    &random_bytes(&mut rng, params.dyn_body),
                ))
            })
            .collect();
        let owner = DynamicOwner::from_tagged(&file_id, &tagged);
        let mut key_rng = derive_rng(seed, "dynamic/keys");
        let owner_key = SigningKey::generate(&mut key_rng);
        let device_key = SigningKey::generate(&mut key_rng);
        let auditor = DynAuditor::new(
            file_id.clone(),
            keys.auditor_view(),
            device_key.verifying_key(),
            BRISBANE,
            SLA_TOLERANCE,
            TimingPolicy::paper(),
            key_rng.next_u64(),
        );
        let device =
            WallClockVerifier::new(device_key, GpsReceiver::new(BRISBANE), key_rng.next_u64());
        let encode = t.elapsed();

        let t = Instant::now();
        let server = spawn_server(SegmentStore::default(), Duration::ZERO);
        let served = server.put_dynamic_with_owner(&file_id, tagged, owner_key.verifying_key());
        assert_eq!(
            served,
            owner.digest(),
            "server and owner disagree on the upload"
        );
        let serve = t.elapsed();

        let t = Instant::now();
        let ledger = create_ledger(ledger_path, seed);
        {
            let l = &mut *ledger.state.lock().expect("ledger lock poisoned");
            let init = DigestRecord {
                file_id: file_id.clone(),
                op: DigestOp::Init,
                index: 0,
                prev: NO_DIGEST,
                new: owner.digest(),
            };
            l.writer
                .append_digest(&init)
                .and_then(|()| l.writer.finish())
                .expect("record the initial digest");
            l.appended.push(Appended::digest(&init));
        }
        let times = SetupTimes {
            encode,
            serve,
            ledger: t.elapsed(),
        };
        let w = DynamicRw {
            params: params.clone(),
            file_id,
            keys,
            owner,
            owner_key,
            auditor,
            device,
            addr: server.addr(),
            rng: derive_rng(seed, "dynamic/ops"),
            epoch: 0,
            next_id: 1,
            ledger,
            _server: server,
        };
        (w, times)
    }

    /// One owner mutation, from tagging to its digest record being
    /// durable. It succeeds when the provider lands on the owner's
    /// digest and the record is durable.
    fn mutate(&mut self, append: bool, rec: &mut Recorder, tally: &mut Tally) {
        tally.attempted += 1;
        let index = if append {
            self.owner.len()
        } else {
            self.rng.next_u64() % self.owner.len()
        };
        let body = random_bytes(&mut self.rng, self.params.dyn_body);
        let start = Instant::now();
        rec.begin(self.next_id, "update", start);
        self.next_id += 1;
        let prev = self.owner.digest();
        let (tagged, expected) = rec.span("por.owner_tag", || {
            if append {
                self.owner.tag_append(&body, &self.keys)
            } else {
                self.owner
                    .tag_update(index, &body, &self.keys)
                    .expect("index drawn below the owner's length")
            }
        });
        let tagged = Bytes::from(tagged);
        let sig = rec.span("crypto.owner_sign", || {
            let msg = owner_authorization(&self.file_id, append, index, &tagged);
            self.owner_key.sign(&msg, &mut self.rng).to_bytes()
        });
        let ack = rec.span("wire.mutate", || {
            let mut client = TcpChallenger::connect(self.addr)?;
            let ack = if append {
                client.append(&self.file_id, tagged, sig)
            } else {
                client.update(&self.file_id, index, tagged, sig)
            }?;
            client.bye()?;
            Ok::<_, std::io::Error>(ack)
        });
        let record = DigestRecord {
            file_id: self.file_id.clone(),
            op: if append {
                DigestOp::Append
            } else {
                DigestOp::Update
            },
            index,
            prev,
            new: expected,
        };
        let ok = matches!(ack, Ok(Some(d)) if d == expected) && {
            let mut guard = rec.span("ledger.lock_wait", || {
                self.ledger.state.lock().expect("ledger lock poisoned")
            });
            let durable = rec
                .span("ledger.append", || guard.writer.append_digest(&record))
                .and_then(|()| rec.span("ledger.finish", || guard.writer.finish()))
                .is_ok();
            if durable {
                guard.appended.push(Appended::digest(&record));
            }
            durable
        };
        let end = Instant::now();
        rec.end(end);
        let wall = (end - start).as_nanos() as u64;
        tally.op_wall_ns += wall;
        if ok {
            tally.update_ns.push(wall);
        } else {
            fail(tally, || {
                format!(
                    "{} {index}: ack {ack:?}, expected {expected:?}",
                    if append { "append" } else { "update" }
                )
            });
        }
    }

    /// One durable dynamic audit of the current digest.
    fn audit(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        tally.attempted += 1;
        let k = self.params.k;
        let start = Instant::now();
        rec.begin(self.next_id, "audit", start);
        self.next_id += 1;
        let digest = self.owner.digest();
        let request = rec.span("core.issue", || self.auditor.issue_request(digest, k));
        let (session, idx) = rec.span_idx("tcp_audit.session", || {
            self.device.run_dyn_audit(&request, self.addr)
        });
        let transcript = match session {
            Ok(t) => t,
            Err(e) => {
                fail(tally, || format!("dynamic audit I/O: {e}"));
                rec.end(Instant::now());
                return;
            }
        };
        let rtts: Vec<u64> = transcript.rounds.iter().map(|r| r.rtt.as_nanos()).collect();
        rec.sequence(idx, "wire.round", rtts.iter().copied());
        let (report, bundle) = rec.span("core.verify", || {
            self.auditor
                .verify_evidence(&request, &transcript, self.file_id.clone(), self.epoch)
        });
        self.epoch += 1;
        let budget = self.auditor.policy().max_rtt().as_nanos();
        let right = verdict::matches(ProverClass::Honest, &report, &rtts, budget);
        if !right {
            fail(tally, || format!("dynamic audit got {report:?}"));
        } else if !report.accepted() {
            tally.stalled += 1;
        }
        let mut guard = rec.span("ledger.lock_wait", || {
            self.ledger.state.lock().expect("ledger lock poisoned")
        });
        let durable = rec
            .span("ledger.append", || guard.writer.append_dyn_bundle(&bundle))
            .and_then(|()| rec.span("ledger.finish", || guard.writer.finish()));
        match &durable {
            Ok(()) => guard
                .appended
                .push(Appended::report(RecordKind::Dynamic, &report)),
            Err(e) if right => fail(tally, || format!("dynamic audit ledger: {e}")),
            Err(_) => {}
        }
        drop(guard);
        let end = Instant::now();
        rec.end(end);
        let wall = (end - start).as_nanos() as u64;
        tally.op_wall_ns += wall;
        tally.audit_ns.push(wall);
        if durable.is_ok() {
            tally.audits += 1;
            tally.rounds += rtts.len() as u64;
            tally.rtt_ns.extend(rtts);
        }
    }
}

impl Workload for DynamicRw {
    fn run_block(
        &mut self,
        until: Instant,
        traced: bool,
        tally: &mut Tally,
        spans: &mut Vec<OpTrace>,
    ) {
        let mut rec = Recorder::new(crate::origin(), traced);
        let mut mutations = 0;
        while Instant::now() < until {
            self.mutate(mutations < self.params.appends_per_block, &mut rec, tally);
            mutations += 1;
            self.audit(&mut rec, tally);
        }
        spans.append(&mut rec.done);
    }

    fn ledger(&self) -> &SharedLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_log_reads_back_what_was_pushed() {
        let dir = std::env::temp_dir().join(format!("perfbench-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut log = AppendLog::create(dir.join("l.appended"));
        let pushed = [
            Appended::verdict_bytes(RecordKind::Static, true, b"a"),
            Appended::verdict_bytes(RecordKind::Dynamic, false, b"b"),
            Appended::verdict_bytes(RecordKind::Digest, false, b"c"),
        ];
        pushed.iter().for_each(|&a| log.push(a));
        assert_eq!(log.read_all().expect("read back"), pushed);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn every_workload_has_parameters() {
        for name in crate::WORKLOADS {
            assert!(Params::of(name).is_some(), "{name}");
        }
        assert!(Params::of("nope").is_none());
    }

    #[test]
    fn fleet_offers_its_stated_rate() {
        let p = Params::of("fleet_sched").expect("fleet params");
        // 1187 honest provers every 12 s, 13 rejecting ones every 1 s.
        assert!((p.offered_rate() - (1187.0 / 12.0 + 13.0)).abs() < 1e-9);
    }

    #[test]
    fn relay_delay_exceeds_the_paper_budget() {
        let p = Params::of("fleet_sched").expect("fleet params");
        assert!(relay_always_too_slow(p.relay_delay));
        assert!(!relay_always_too_slow(Duration::from_millis(16)));
    }
}
