//! End-to-end GeoProof audit benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <audit_k8|window_k128|fleet_sched|dynamic_rw> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run sets the workload up several
//! times (reporting the median as `setup_s`), warms up, then measures
//! in one-second blocks; end-to-end figures are the lower quartile of
//! the per-block figures. With `--trace 1` the blocks are a quarter of
//! a second and alternate between untraced and traced; the traced ones
//! record spans and enable the program's metrics registry, and the run
//! reports the per-layer waterfall instead of the end-to-end metrics. Every verdict is
//! checked against its prover's class and the ledger is replayed
//! offline at the end. The last line of standard output is one JSON
//! object; see README.md for the metrics.

mod stats;
mod sys;
mod trace;
mod verdict;
mod workloads;

use geoproof::core::auditor::AuditReport;
use geoproof::crypto::schnorr::VerifyingKey;
use geoproof::ledger::{replay, Entry, Ledger as LedgerFile};
use stats::{percentile, quantile, rtt_us_to_km, scaled, Hist};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use trace::{OpTrace, Waterfall};
use workloads::{Appended, Params, RecordKind, SetupTimes, Tally, Workload};

pub const WORKLOADS: [&str; 4] = ["audit_k8", "window_k128", "fleet_sched", "dynamic_rw"];

/// Set-ups per run: at least `SETUP_REPS`, and more, up to
/// `MAX_SETUP_REPS`, while they have taken less than `SETUP_BUDGET`, so
/// a set-up of a few milliseconds still gets a steady median.
const SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const WARMUP: Duration = Duration::from_secs(1);
/// Per-block times are summarised by their lower quartile: interference
/// from outside the process, such as CPU steal on a shared host, only
/// ever adds time, so the faster blocks are the steadier view of the
/// code under test.
const STEADY_Q: f64 = 0.25;
/// Traced runs alternate shorter blocks, so each traced block is
/// compared with an untraced one a fraction of a second earlier.
const TRACED_BLOCKS_PER_SECOND: u64 = 4;
/// Host steal share above which a run is flagged as measured on a
/// slowed host, and a traced/untraced block pair is left out of the
/// waterfall comparison.
const STEAL_FLAG: f64 = 0.05;
/// Scratch space inside the checkout: ledgers (deleted at the end) and
/// the span file of the last traced run of each workload.
const OUT_DIR: &str = ".bench_out";
/// Layer spans inside an operation, in waterfall order.
const LAYERS: [&str; 11] = [
    "scheduler.wait",
    "core.issue",
    "tcp_audit.session",
    "wire.round",
    "core.verify",
    "por.owner_tag",
    "crypto.owner_sign",
    "wire.mutate",
    "ledger.lock_wait",
    "ledger.append",
    "ledger.finish",
];

/// The clock every span is measured against.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    let args = Args {
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}: expected 0 or 1")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One phase of a run (untraced or traced blocks) with the process
/// counters read around each of its blocks.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    audits: u64,
    rounds: u64,
    stalled: u64,
    pooled: Pooled,
    wall: Duration,
    reactor_ticks: u64,
    ledger_bytes: u64,
    blocks: Vec<BlockStat>,
}

/// The phase's samples, pooled for the run-wide percentiles printed as
/// `extra` lines. Each block's own samples are dropped after its
/// figures are taken, so bookkeeping stays the same size however many
/// operations a run completes.
#[derive(Default)]
struct Pooled {
    audit: Hist,
    rtt: Hist,
    update: Hist,
    late: Hist,
    relay_audit: Hist,
}

/// Figures of one block. End-to-end figures are a quantile of these
/// across blocks, so a burst of interference from outside the process
/// moves one block, not the result.
struct BlockStat {
    rate: f64,
    /// Operation wall time (mutations included) per audit.
    wall_per_audit_us: f64,
    cpu_ms_per_audit: f64,
    audit_p50: Option<u64>,
    rtt_p50: Option<u64>,
    /// Host steal share during the block.
    steal: f64,
}

impl BlockStat {
    fn of(t: &Tally, wall: Duration, cpu_ticks: u64, steal: f64) -> BlockStat {
        let sorted = |v: &[u64]| {
            let mut s = v.to_vec();
            s.sort_unstable();
            s
        };
        let (audit, rtt) = (sorted(&t.audit_ns), sorted(&t.rtt_ns));
        BlockStat {
            rate: t.audits as f64 / wall.as_secs_f64(),
            wall_per_audit_us: t.op_wall_ns as f64 / 1e3 / t.audits.max(1) as f64,
            cpu_ms_per_audit: cpu_ticks as f64 * sys::TICK_US / 1e3 / t.audits.max(1) as f64,
            audit_p50: percentile(&audit, 0.5),
            rtt_p50: percentile(&rtt, 0.5),
            steal,
        }
    }
}

/// The `q`-quantile across blocks of a per-block figure, when at least
/// half of the blocks have it.
fn block_quantile(
    blocks: &[BlockStat],
    q: f64,
    f: impl Fn(&BlockStat) -> Option<f64>,
) -> Option<f64> {
    let v: Vec<f64> = blocks.iter().filter_map(f).collect();
    (!v.is_empty() && 2 * v.len() >= blocks.len()).then(|| quantile(v, q))
}

impl Phase {
    fn per_audit(&self, x: f64) -> f64 {
        x / self.audits as f64
    }

    fn add(&mut self, t: Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.audits += t.audits;
        self.rounds += t.rounds;
        self.stalled += t.stalled;
        let p = &mut self.pooled;
        p.audit.extend(&t.audit_ns);
        p.rtt.extend(&t.rtt_ns);
        p.update.extend(&t.update_ns);
        p.late.extend(&t.late_ns);
        p.relay_audit.extend(&t.relay_audit_ns);
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Runs one block, reading process counters around it.
fn block(
    w: &mut dyn Workload,
    len: Duration,
    traced: bool,
    phase: &mut Phase,
    spans: &mut Vec<OpTrace>,
) {
    let (cpu, reactor, bytes) = (
        sys::process_cpu_ticks(),
        sys::thread_cpu_ticks("geoproof-reactor"),
        file_len(&w.ledger().path),
    );
    geoproof::obs::set_enabled(traced);
    let host = sys::host_cpu_ticks();
    let start = Instant::now();
    let mut tally = Tally::default();
    w.run_block(start + len, traced, &mut tally, spans);
    let wall = start.elapsed();
    let steal = sys::steal_share(host, sys::host_cpu_ticks());
    geoproof::obs::set_enabled(false);
    let cpu = sys::process_cpu_ticks() - cpu;
    phase.blocks.push(BlockStat::of(&tally, wall, cpu, steal));
    phase.add(tally);
    phase.wall += wall;
    phase.reactor_ticks += sys::thread_cpu_ticks("geoproof-reactor").saturating_sub(reactor);
    phase.ledger_bytes += file_len(&w.ledger().path) - bytes;
}

/// A sealed evidence record as the ledger holds it.
fn recorded<E>(kind: RecordKind, report: Result<AuditReport, E>, bytes: &[u8]) -> Appended {
    let accepted = report.is_ok_and(|r| r.accepted());
    Appended::verdict_bytes(kind, accepted, bytes)
}

/// Replays the ledger offline and compares every sealed record with
/// what the run appended. Returns the number of mismatches.
fn check_ledger(path: &Path, tpa: &VerifyingKey, appended: &[Appended]) -> u64 {
    let ledger = match LedgerFile::read(path) {
        Ok(l) => l,
        Err(e) => {
            println!("ledger: cannot read {path:?}: {e}");
            return appended.len().max(1) as u64;
        }
    };
    let outcome = match replay(&ledger, tpa, None) {
        Ok(o) => o,
        Err(e) => {
            println!("ledger: replay failed: {e}");
            return appended.len().max(1) as u64;
        }
    };
    let sealed: Vec<Appended> = ledger
        .records()
        .iter()
        .filter_map(|r| match &r.entry {
            Entry::Evidence(e) => Some(recorded(RecordKind::Static, e.report(), &e.report_bytes)),
            Entry::DynEvidence(e) => {
                Some(recorded(RecordKind::Dynamic, e.report(), &e.report_bytes))
            }
            Entry::Digest(d) => Some(Appended::digest(d)),
            _ => None,
        })
        .collect();
    let records = sealed.len().abs_diff(appended.len()) as u64
        + sealed.iter().zip(appended).filter(|(a, b)| a != b).count() as u64;
    // The replay's own ACCEPT count cross-checks the records; a record
    // already counted as a mismatch is not counted twice.
    let accepted = appended.iter().filter(|a| a.accepted).count() as u64;
    let mismatches = records.max(outcome.accepted.abs_diff(accepted));
    println!(
        "ledger: {} records replayed ({} evidence, {} dynamic, {} digests, {} checkpoints; \
         {} ACCEPT, {} REJECT), {mismatches} mismatches",
        outcome.records,
        outcome.evidence,
        outcome.dynamic,
        outcome.digests,
        outcome.checkpoints,
        outcome.accepted,
        outcome.rejected
    );
    mismatches
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        })
}

fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// Metrics in output order: (name, value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(plain: &Phase, setup_s: f64, peak_rss_mib: f64) -> Result<Metrics, String> {
    let blocks = &plain.blocks;
    let steady = |name: &str, unit: &'static str, f: &dyn Fn(&BlockStat) -> Option<f64>| {
        block_quantile(blocks, STEADY_Q, f)
            .map(|v| (name.to_owned(), v, unit))
            .ok_or(format!("{name}: too few samples per block"))
    };
    Ok(vec![
        steady("audit_ms.p50", "ms", &|b| {
            b.audit_p50.map(|x| scaled(x, 1e6))
        })?,
        steady("window_rtt_us.p50", "us", &|b| {
            b.rtt_p50.map(|x| scaled(x, 1e3))
        })?,
        steady("cpu_ms_per_audit", "ms", &|b| Some(b.cpu_ms_per_audit))?,
        (
            "ledger_bytes_per_audit".into(),
            plain.per_audit(plain.ledger_bytes as f64),
            "B",
        ),
        ("peak_rss_mib".into(), peak_rss_mib, "MiB"),
        ("setup_s".into(), setup_s, "s"),
    ])
}

/// Figures printed for people only: not gated, because they exist on
/// some workloads only, or because host interference spreads them
/// wider than any regression bound (see README.md).
fn extras(plain: &Phase) {
    // Steal only lowers a rate, so its steady view is the upper quartile.
    if let Some(rate) = block_quantile(&plain.blocks, 1.0 - STEADY_Q, |b| Some(b.rate)) {
        println!("extra audits_per_s = {rate:.2} 1/s (upper-quartile block)");
    }
    let p = &plain.pooled;
    let show = |name: &str, h: &Hist, q: f64, per_ns: f64, unit: &str| {
        if let Some(x) = h.percentile(q) {
            println!(
                "extra {name} = {:.4} {unit} (n={})",
                scaled(x, per_ns),
                h.len()
            );
        }
    };
    show("audit_ms.p99", &p.audit, 0.99, 1e6, "ms");
    show("window_rtt_us.p99", &p.rtt, 0.99, 1e3, "us");
    show("update_ms.p50", &p.update, 0.5, 1e6, "ms");
    show("update_ms.p99", &p.update, 0.99, 1e6, "ms");
    show("dispatch_late_ms.p50", &p.late, 0.5, 1e6, "ms");
    show("dispatch_late_ms.p99", &p.late, 0.99, 1e6, "ms");
    show("relay_audit_ms.p50", &p.relay_audit, 0.5, 1e6, "ms");
    println!(
        "extra stalled_honest_rejects = {} (a round over Δt_max: REJECT is right)",
        plain.stalled
    );
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        if let Some(x) = p.rtt.percentile(q) {
            println!(
                "extra window_rtt_km.{name} = {:.3} km of relay slack",
                rtt_us_to_km(scaled(x, 1e3))
            );
        }
    }
}

fn per_layer(
    plain: &Phase,
    traced: &Phase,
    spans: &[OpTrace],
    reps: &[SetupTimes],
) -> Result<Metrics, String> {
    let audits = traced.audits;
    if audits == 0 || plain.audits == 0 {
        return Err("no audit completed in a traced or untraced block".into());
    }
    let w = Waterfall::build(spans);
    let us_per_audit = |ns: u64| traced.per_audit(ns as f64 / 1e3);
    let p99_us = |samples: &[u64]| {
        let mut s = samples.to_vec();
        s.sort_unstable();
        // 0 where the span never ran or ran too few times for a p99.
        percentile(&s, 0.99).map_or(0.0, |v| scaled(v, 1e3))
    };
    let mut m: Metrics = Vec::new();
    let empty = trace::LayerStat::default();
    for name in LAYERS {
        let l = w.layers.get(name).unwrap_or(&empty);
        m.push((
            format!("{name}.us_per_audit"),
            us_per_audit(l.total_ns),
            "us",
        ));
        m.push((format!("{name}.p99_us"), p99_us(&l.samples), "us"));
    }
    m.push((
        "unattributed.us_per_audit".into(),
        us_per_audit(w.unattributed.total_ns),
        "us",
    ));
    m.push((
        "unattributed.p99_us".into(),
        p99_us(&w.unattributed.samples),
        "us",
    ));
    let pop = w.side.get("scheduler.pop_due").unwrap_or(&empty);
    m.push((
        "scheduler.pop_due.us_per_audit".into(),
        us_per_audit(pop.total_ns),
        "us",
    ));

    let snap = geoproof::obs::global().snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let rounds = traced.rounds as f64;
    let polls = counter("reactor_polls_total");
    m.push((
        "reactor.cpu_us_per_round".into(),
        traced.reactor_ticks as f64 * sys::TICK_US / rounds,
        "us",
    ));
    m.push((
        "reactor.events_per_poll".into(),
        counter("reactor_io_events_total") / polls.max(1.0),
        "count",
    ));
    m.push(("reactor.polls_per_round".into(), polls / rounds, "count"));
    m.push((
        "wire.frames_per_audit".into(),
        traced.per_audit(counter("mux_frames_total")),
        "count",
    ));
    m.push((
        "wire.connections_per_audit".into(),
        traced.per_audit(counter("mux_connections_total")),
        "count",
    ));
    let fsync = snap
        .histogram("ledger_fsync_us")
        .cloned()
        .unwrap_or_default();
    m.push((
        "ledger.fsyncs_per_audit".into(),
        traced.per_audit(fsync.count as f64),
        "count",
    ));
    m.push((
        "ledger.fsync_us.p50".into(),
        fsync.quantile(0.5) as f64,
        "us",
    ));
    // The registry's histogram keeps buckets, not samples: apply the
    // ten-beyond rule to its count.
    let fsync_p99 = if fsync.count >= 1000 {
        fsync.quantile(0.99)
    } else {
        0
    };
    m.push(("ledger.fsync_us.p99".into(), fsync_p99 as f64, "us"));
    m.push((
        "scheduler.throttled_per_audit".into(),
        traced.per_audit(snap.counter_family("scheduler_throttled_total") as f64),
        "count",
    ));
    m.push((
        "scheduler.reaudits_per_audit".into(),
        traced.per_audit(snap.counter_family("scheduler_reaudits_total") as f64),
        "count",
    ));

    let stage =
        |f: fn(&SetupTimes) -> Duration| median(reps.iter().map(|r| f(r).as_secs_f64()).collect());
    m.push(("setup.encode_s".into(), stage(|r| r.encode), "s"));
    m.push(("setup.serve_s".into(), stage(|r| r.serve), "s"));
    m.push(("setup.ledger_s".into(), stage(|r| r.ledger), "s"));

    let rate =
        |p: &Phase| block_quantile(&p.blocks, 1.0 - STEADY_Q, |b| Some(b.rate)).unwrap_or(0.0);
    m.push(("trace.audits_per_s".into(), rate(traced), "1/s"));
    m.push(("trace.untraced_audits_per_s".into(), rate(plain), "1/s"));
    m.push((
        "trace.rate_ratio".into(),
        paired_ratio(plain, traced, |b| b.rate),
        "ratio",
    ));
    m.push((
        "waterfall.us_per_audit".into(),
        us_per_audit(w.sum_ns()),
        "us",
    ));
    m.push((
        "waterfall.untraced_us_per_audit".into(),
        block_quantile(&plain.blocks, STEADY_Q, |b| Some(b.wall_per_audit_us)).unwrap_or(0.0),
        "us",
    ));
    // The waterfall of a traced block adds up to that block's wall time
    // per audit.
    m.push((
        "waterfall.ratio".into(),
        paired_ratio(plain, traced, |b| b.wall_per_audit_us),
        "ratio",
    ));
    m.push((
        "unattributed.share".into(),
        w.unattributed.total_ns as f64 / w.sum_ns().max(1) as f64,
        "ratio",
    ));
    Ok(m)
}

/// Median, over adjacent (untraced, traced) block pairs, of the traced
/// block's figure over the untraced one's. Blocks alternate, so the two
/// blocks of a pair ran on nearly the same host and drift in the host's
/// speed over the run cancels out of the comparison. Pairs with more
/// host steal than [`STEAL_FLAG`] are left out, unless that would leave
/// less than half of them, when the least-stolen half counts: steal
/// comes in bursts of a second or so, and a burst in one block of a pair
/// says nothing about tracing.
fn paired_ratio(plain: &Phase, traced: &Phase, f: impl Fn(&BlockStat) -> f64) -> f64 {
    let mut pairs: Vec<(f64, f64)> = plain
        .blocks
        .iter()
        .zip(&traced.blocks)
        .map(|(p, t)| (p.steal.max(t.steal), f(t) / f(p)))
        .filter(|(_, r)| r.is_finite())
        .collect();
    if pairs.is_empty() {
        return f64::NAN;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let calm = pairs.iter().filter(|p| p.0 <= STEAL_FLAG).count();
    pairs.truncate(calm.max(pairs.len().div_ceil(2)));
    median(pairs.into_iter().map(|(_, r)| r).collect())
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let params = Params::of(&args.workload).ok_or(format!(
        "unknown workload {:?}; one of {WORKLOADS:?}",
        args.workload
    ))?;
    origin();
    let dir = PathBuf::from(OUT_DIR).join(format!("{}-{}", params.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;

    let mut reps = Vec::new();
    let mut rig: Option<Box<dyn Workload>> = None;
    let setup_started = Instant::now();
    while reps.len() < SETUP_REPS
        || (reps.len() < MAX_SETUP_REPS && setup_started.elapsed() < SETUP_BUDGET)
    {
        // Only the last rig is kept, and no two are alive at once, so
        // `peak_rss_mib` sees one rig, as the measured blocks do.
        if let Some(old) = rig.take() {
            let path = old.ledger().path.clone();
            drop(old);
            std::fs::remove_file(&path).map_err(|e| format!("remove {path:?}: {e}"))?;
        }
        let path = dir.join(format!("ledger-{}.log", reps.len()));
        let (w, times) = workloads::setup(&params, args.seed, path);
        reps.push(times);
        rig = Some(w);
    }
    let mut w = rig.expect("at least one set-up");
    let setup_s = median(reps.iter().map(|r| r.total().as_secs_f64()).collect());
    println!("setup: {} set-ups, median {setup_s:.4} s", reps.len());

    let mut warm = Phase::default();
    let mut spans = Vec::new();
    let host_before = sys::host_cpu_ticks();
    block(w.as_mut(), WARMUP, false, &mut warm, &mut spans);
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let blocks = if args.trace {
        args.seconds * TRACED_BLOCKS_PER_SECOND
    } else {
        args.seconds.max(2)
    };
    let len = Duration::from_secs(args.seconds) / blocks as u32;
    for b in 0..blocks {
        let on = args.trace && b % 2 == 1;
        let phase = if on { &mut traced } else { &mut plain };
        block(w.as_mut(), len, on, phase, &mut spans);
    }
    let host_after = sys::host_cpu_ticks();

    let dropped = w.dropped();
    // Before the offline replay, which reads the whole ledger back.
    let peak_rss_mib = sys::peak_rss_mib();
    let replay_started = Instant::now();
    let mismatches = {
        let ledger = w.ledger();
        let mut state = ledger.state.lock().expect("ledger lock poisoned");
        let appended = state
            .appended
            .read_all()
            .map_err(|e| format!("read back the append log: {e}"))?;
        check_ledger(&ledger.path, &ledger.tpa, &appended)
    };
    println!(
        "ledger: offline replay took {:.3} s",
        replay_started.elapsed().as_secs_f64()
    );
    drop(w);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;

    // Host CPU time the hypervisor gave to other tenants while this run
    // measured: a run with a high share ran on a slowed host.
    let steal_share = sys::steal_share(host_before, host_after);
    if steal_share > STEAL_FLAG {
        println!(
            "flag: host steal was {:.1}% during this run; its times are inflated",
            steal_share * 100.0
        );
    }
    println!(
        "provenance {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{},\
         \"host_steal_share\":{steal_share:.4},\"git_rev\":\"{}\",\"params\":{}}}",
        params.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::host_cores(),
        git_rev(),
        params.to_json()
    );
    let attempted = warm.attempted + plain.attempted + traced.attempted + dropped;
    let failed = warm.failed + plain.failed + traced.failed + dropped + mismatches;
    println!(
        "extra failed_share = {} ({failed} of {attempted}; {dropped} dropped, {mismatches} ledger mismatches)",
        failed as f64 / attempted.max(1) as f64
    );
    extras(&plain);
    let metrics = if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{}.tsv", params.name));
        trace::write_tsv(&path, &spans).map_err(|e| format!("write {path:?}: {e}"))?;
        println!(
            "trace: {} operations' spans written to {}",
            spans.len(),
            path.display()
        );
        per_layer(&plain, &traced, &spans, &reps)?
    } else {
        end_to_end(&plain, setup_s, peak_rss_mib)?
    };
    for (n, v, u) in &metrics {
        println!("metric {n} = {v:.4} {u}");
    }
    if let Some((n, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {n} is not a finite number"));
    }
    let correct = failed == 0;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waterfall_ratio_pairs_adjacent_blocks() {
        let phase = |blocks: &[(f64, f64)]| Phase {
            blocks: blocks
                .iter()
                .map(|&(w, steal)| BlockStat {
                    rate: 1e6 / w,
                    wall_per_audit_us: w,
                    cpu_ms_per_audit: 0.0,
                    audit_p50: None,
                    rtt_p50: None,
                    steal,
                })
                .collect(),
            ..Phase::default()
        };
        let wall = |b: &BlockStat| b.wall_per_audit_us;
        // The host slows down threefold partway; each pair still shows
        // the traced block 10% slower, 10% faster, or equal.
        let plain = phase(&[(100.0, 0.0), (100.0, 0.0), (300.0, 0.0)]);
        let traced = phase(&[(110.0, 0.0), (90.0, 0.0), (300.0, 0.0)]);
        assert!((paired_ratio(&plain, &traced, wall) - 1.0).abs() < 1e-12);
        // A steal burst in one block of a pair keeps that pair out.
        let plain = phase(&[(100.0, 0.0), (100.0, 0.2), (100.0, 0.0), (100.0, 0.3)]);
        let traced = phase(&[(101.0, 0.0), (150.0, 0.0), (103.0, 0.0), (60.0, 0.0)]);
        assert!((paired_ratio(&plain, &traced, wall) - 1.02).abs() < 1e-12);
        assert!(paired_ratio(&phase(&[]), &phase(&[]), |b| b.rate).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m: Metrics = vec![("setup_s".into(), 0.25, "s")];
        assert_eq!(
            json_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
