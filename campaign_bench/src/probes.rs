//! Layer probes for the traced run: each times calls into one layer's
//! public functions from outside, on the grid's own workloads, with a
//! benchmark span around every call.

use std::path::Path;
use std::time::Instant;

use pgss::ckpt::{decode_machine_snapshot, encode_machine_snapshot};
use pgss::{CheckpointLadder, LadderSpec};
use pgss_bbv::{BbvHash, FullBbvTracker, HashedBbvTracker, MavTracker};
use pgss_ckpt::Store;
use pgss_cpu::{Machine, MachineConfig, MachineSnapshot, Mode, NoopSink, RetireSink};
use pgss_serve::{Client, Listen, ServeConfig, Server};
use pgss_workloads::Workload;

use crate::grid::{SCALE, STRIDE, WORKERS};
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of each timed call per workload.
const REPS: usize = 5;

/// Repetitions of the signature probe, whose whole-workload functional
/// runs take only tens of milliseconds each: enough to resolve a
/// tracker overhead of about 1%.
const SIGNATURE_REPS: usize = 15;

/// Times `f` once inside a benchmark span, in seconds.
fn timed<T>(tracer: &Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tracer.span(name);
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Milliseconds per `Workload::machine_with` call: building the memory
/// image and lowering the program.
pub fn machine_new_ms(tracer: &Tracer, workloads: &[Workload]) -> f64 {
    let mut ms = Vec::new();
    for w in workloads {
        for _ in 0..REPS {
            let (machine, s) = timed(tracer, "cpu.machine_with", || {
                w.machine_with(MachineConfig::default())
            });
            drop(machine);
            ms.push(s * 1e3);
        }
    }
    median(&ms)
}

/// Snapshot, restore and store costs on the machine state of each
/// workload's first ladder rung (one stride of functional execution).
#[derive(Debug, Default)]
pub struct Snapshots {
    /// Milliseconds per `encode_machine_snapshot`.
    pub encode_ms: f64,
    /// Milliseconds per `decode_machine_snapshot`.
    pub decode_ms: f64,
    /// Milliseconds per `Machine::restore`.
    pub restore_ms: f64,
    /// Median encoded snapshot size in bytes.
    pub bytes: f64,
    /// Milliseconds per `Store::put` of an encoded snapshot, fsync
    /// included.
    pub put_ms: f64,
    /// Milliseconds per `Store::get` of the same record.
    pub get_ms: f64,
}

/// Measures [`Snapshots`] with a scratch store at `store_dir`.
pub fn snapshots(
    tracer: &Tracer,
    workloads: &[Workload],
    store_dir: &Path,
) -> Result<Snapshots, String> {
    let store = Store::open(store_dir).map_err(|e| format!("open probe store: {e}"))?;
    let (mut enc, mut dec, mut res, mut bytes, mut put, mut get) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut key = 0u64;
    for w in workloads {
        let mut machine = w.machine_with(MachineConfig::default());
        machine.run(Mode::Functional, STRIDE);
        let snap = machine.snapshot();
        let mut target = w.machine_with(MachineConfig::default());
        for _ in 0..REPS {
            let (encoded, s) = timed(tracer, "ckpt.snapshot.encode", || {
                encode_machine_snapshot(&snap)
            });
            enc.push(s * 1e3);
            bytes.push(encoded.len() as f64);
            let (decoded, s) = timed(tracer, "ckpt.snapshot.decode", || {
                decode_machine_snapshot(&encoded)
            });
            dec.push(s * 1e3);
            let decoded = decoded.map_err(|e| format!("decode a fresh snapshot: {e}"))?;
            let ((), s) = timed(tracer, "cpu.restore", || target.restore(&decoded));
            res.push(s * 1e3);
            key += 1;
            let (written, s) = timed(tracer, "ckpt.store.put", || store.put(key, &encoded));
            written.map_err(|e| format!("probe store put: {e}"))?;
            put.push(s * 1e3);
            let (read, s) = timed(tracer, "ckpt.store.get", || store.get(key));
            if read.as_deref() != Some(&encoded[..]) {
                return Err("probe store returned a different record".to_string());
            }
            get.push(s * 1e3);
        }
    }
    Ok(Snapshots {
        encode_ms: median(&enc),
        decode_ms: median(&dec),
        restore_ms: median(&res),
        bytes: median(&bytes),
        put_ms: median(&put),
        get_ms: median(&get),
    })
}

/// Seconds per workload for a ladder capture and for a load from a warm
/// store, with the campaign's own spec.
pub fn ladders(
    tracer: &Tracer,
    workloads: &[Workload],
    spec: &LadderSpec,
    store_dir: &Path,
) -> Result<(f64, f64), String> {
    let store = Store::open(store_dir).map_err(|e| format!("open probe store: {e}"))?;
    let cfg = MachineConfig::default();
    let (mut capture, mut load) = (0.0, 0.0);
    for w in workloads {
        let (ladder, s) = timed(tracer, "ckpt.ladder.capture", || {
            CheckpointLadder::capture(w, &cfg, spec)
        });
        capture += s;
        drop(ladder);
        // First call captures and writes back; the second is the warm load.
        drop(CheckpointLadder::load_or_capture(&store, w, &cfg, spec));
        let (ladder, s) = timed(tracer, "ckpt.ladder.load", || {
            CheckpointLadder::load_or_capture(&store, w, &cfg, spec)
        });
        if ladder.report().capture_ops != 0 {
            return Err(format!("{}: warm ladder load recaptured", w.name()));
        }
        load += s;
    }
    let n = workloads.len() as f64;
    Ok((capture / n, load / n))
}

/// Functional runs to halt with a BBV tracker against `NoopSink`.
#[derive(Debug, Default)]
pub struct Signatures {
    /// Seconds of the untracked runs, summed over workloads (medians).
    pub noop_s: f64,
    /// Untracked functional execution rate, Mops/s.
    pub functional_mops: f64,
    /// Extra time with a hashed-BBV tracker, percent of `noop_s`.
    pub hashed_overhead_pct: f64,
    /// Extra time with a MAV tracker, percent of `noop_s`.
    pub mav_overhead_pct: f64,
}

/// One functional run to halt from `start` into `sink`: seconds and ops.
/// The untimed restore first touches every memory page, so page faults
/// stay out of the comparison.
fn functional<S: RetireSink>(
    tracer: &Tracer,
    name: &str,
    machine: &mut Machine,
    start: &MachineSnapshot,
    mut sink: S,
) -> (f64, u64) {
    machine.restore(start);
    let (r, s) = timed(tracer, name, || {
        machine.run_with(Mode::Functional, u64::MAX, &mut sink)
    });
    (s, r.ops)
}

/// Measures [`Signatures`], alternating the three sinks.
pub fn signatures(tracer: &Tracer, workloads: &[Workload]) -> Signatures {
    let (mut noop, mut hashed, mut mav, mut ops_total) = (0.0, 0.0, 0.0, 0u64);
    for w in workloads {
        let mut machine = w.machine_with(MachineConfig::default());
        let start = machine.snapshot();
        let words = machine.memory().len();
        let (mut n, mut h, mut m) = (vec![], vec![], vec![]);
        let mut ops = 0;
        for _ in 0..SIGNATURE_REPS {
            let (s, executed) = functional(tracer, "bbv.noop", &mut machine, &start, NoopSink);
            n.push(s);
            ops = executed;
            let tracker = HashedBbvTracker::new(BbvHash::from_seed(0x5eed));
            h.push(functional(tracer, "bbv.hashed", &mut machine, &start, tracker).0);
            let tracker = MavTracker::new(words);
            m.push(functional(tracer, "bbv.mav", &mut machine, &start, tracker).0);
        }
        ops_total += ops;
        noop += median(&n);
        hashed += median(&h);
        mav += median(&m);
    }
    Signatures {
        noop_s: noop,
        functional_mops: ops_total as f64 / noop / 1e6,
        hashed_overhead_pct: (hashed / noop - 1.0) * 100.0,
        mav_overhead_pct: (mav / noop - 1.0) * 100.0,
    }
}

/// Milliseconds per SimPoint clustering (random projection plus
/// `KMeans::run`, k = 10) of one workload's 1M-op full-BBV intervals,
/// averaged over workloads.
pub fn kmeans_ms(tracer: &Tracer, workloads: &[Workload]) -> f64 {
    let mut per_workload = Vec::new();
    for w in workloads {
        let mut machine = w.machine_with(MachineConfig::default());
        let mut tracker = FullBbvTracker::new(w.program());
        let mut rows = Vec::new();
        loop {
            let r = machine.run_with(Mode::Functional, 1_000_000, &mut tracker);
            let bbv = tracker.take();
            if r.ops == 1_000_000 {
                rows.push(bbv.normalized());
            }
            if r.halted || r.ops < 1_000_000 {
                break;
            }
        }
        let mut ms = Vec::new();
        for _ in 0..REPS {
            let (_, s) = timed(tracer, "cluster.kmeans", || {
                let projected = pgss_cluster::project(&rows, 15, 0x5eed);
                pgss_cluster::KMeans::new(10)
                    .with_seed(0x5eed)
                    .run(&projected)
            });
            ms.push(s * 1e3);
        }
        per_workload.push(median(&ms));
    }
    per_workload.iter().sum::<f64>() / per_workload.len() as f64
}

/// Protocol costs against a fresh in-process server.
#[derive(Debug, Default)]
pub struct Protocol {
    /// Milliseconds per `ping` round trip.
    pub ping_ms: f64,
    /// Milliseconds per `submit` of a one-cell spec.
    pub submit_ms: f64,
    /// Milliseconds per `report` of that job.
    pub report_ms: f64,
    /// The server's `metrics` line after the job.
    pub metrics_line: String,
}

/// Measures [`Protocol`] with a server whose store lives at `store_dir`.
pub fn protocol(tracer: &Tracer, store_dir: &Path) -> Result<Protocol, String> {
    let cfg = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::start(store_dir, Listen::Tcp("127.0.0.1:0".into()), cfg)
        .map_err(|e| format!("start probe server: {e}"))?;
    let result = protocol_on(tracer, &server);
    server.stop();
    result
}

fn protocol_on(tracer: &Tracer, server: &Server) -> Result<Protocol, String> {
    let err = |e: pgss_serve::ClientError| format!("probe server: {e}");
    let mut client = Client::connect(server.addr()).map_err(err)?;
    let mut pings = Vec::new();
    for _ in 0..20 {
        let (r, s) = timed(tracer, "serve.ping", || client.ping());
        r.map_err(err)?;
        pings.push(s * 1e3);
    }
    let spec = format!(
        r#"{{"suite":[{{"name":"197.parser","scale":{SCALE}}}],"techniques":[{{"kind":"smarts","period_ops":100000}}],"stride":{STRIDE}}}"#
    );
    let (job, submit_s) = timed(tracer, "serve.submit", || client.submit("probe", &spec));
    let job = job.map_err(err)?;
    let phase = Client::connect(server.addr())
        .and_then(|c| c.watch(&job, |_| true))
        .map_err(err)?;
    if phase != "done" {
        return Err(format!("probe job ended {phase:?}"));
    }
    let (lines, report_s) = timed(tracer, "serve.report", || client.report(&job));
    lines.map_err(err)?;
    let metrics_line = client.metrics().map_err(err)?;
    Ok(Protocol {
        ping_ms: median(&pings),
        submit_ms: submit_s * 1e3,
        report_ms: report_s * 1e3,
        metrics_line,
    })
}
