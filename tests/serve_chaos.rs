//! Deterministic chaos suite for the crash-only campaign server
//! (`cargo test --features fault-inject --test serve_chaos`).
//!
//! Every scenario here composes the process-global fault-injection
//! machinery ([`pgss::faults`] / [`pgss_ckpt::faults`]) with the
//! server's crash-only hardening — leases, drain, disk budgets, store
//! GC — and asserts the two invariants the design promises under any
//! failure: **no finished cell is ever recomputed, and no quarantined
//! or live record is ever deleted**. Scenarios are deterministic by
//! construction: stalls pick cells by identity, deadlines tick on an
//! injected [`ManualClock`], disk-full and torn-rename faults fire at
//! named operations, and the SIGKILL scenario asserts invariants that
//! must hold wherever the kill lands.

mod util;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgss::campaign::RetryPolicy;
use pgss::faults::{self, CellPanic, CellStall, FaultPlan, StoreFaultPlan};
use pgss_ckpt::{is_budget_error, RecordError, RecordFault, Store};
use pgss_obs::ManualClock;
use pgss_serve::{json, BoundAddr, Client, ClientError, Listen, ServeConfig, Server};

/// Control env var for the re-exec'd daemon: `store\x1faddr_file\x1fworkers`.
const DAEMON_ENV: &str = "PGSS_SERVE_CHAOS_DAEMON";

/// One cell: finishes in well under a second.
const TINY_SPEC: &str = r#"{"suite":[{"name":"164.gzip","scale":0.003}],
    "techniques":[{"kind":"smarts","period_ops":50000}],"stride":50000}"#;

/// Two cells, so one can stall while the other finishes.
const PAIR_SPEC: &str = r#"{"suite":[
      {"name":"164.gzip","scale":0.003},{"name":"183.equake","scale":0.003}],
    "techniques":[{"kind":"smarts","period_ops":50000}],"stride":50000}"#;

/// Eight cells: enough that a drain always strands pending work.
const WIDE_SPEC: &str = r#"{"suite":[
      {"name":"164.gzip","scale":0.002},{"name":"183.equake","scale":0.002}],
    "techniques":[{"kind":"smarts","period_ops":50000},
                  {"kind":"turbo_smarts","period_ops":50000},
                  {"kind":"online_simpoint","interval_ops":100000},
                  {"kind":"pgss","ff_ops":50000,"spacing_ops":100000}],
    "stride":50000}"#;

/// Not a real test: the daemon half of the SIGKILL scenarios. No-ops
/// unless the parent set [`DAEMON_ENV`].
#[test]
fn daemon_entry() {
    let Ok(ctl) = std::env::var(DAEMON_ENV) else {
        return;
    };
    let mut parts = ctl.split('\x1f');
    let (store, addr_file, workers) = (
        parts.next().unwrap().to_string(),
        parts.next().unwrap().to_string(),
        parts.next().unwrap().parse::<usize>().unwrap(),
    );
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let server = Server::start(&store, Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let BoundAddr::Tcp(addr) = server.addr().clone() else {
        unreachable!("tcp listen yields a tcp addr")
    };
    let tmp = format!("{addr_file}.tmp");
    let mut f = std::fs::File::create(&tmp).unwrap();
    writeln!(f, "{addr}").unwrap();
    drop(f);
    std::fs::rename(&tmp, &addr_file).unwrap();
    server.wait();
}

fn spawn_daemon(store: &Path, addr_file: &Path, workers: usize) -> Child {
    let exe = std::env::current_exe().unwrap();
    Command::new(exe)
        .args(["daemon_entry", "--exact", "--nocapture"])
        .env(
            DAEMON_ENV,
            format!(
                "{}\x1f{}\x1f{workers}",
                store.display(),
                addr_file.display()
            ),
        )
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

fn await_daemon_addr(addr_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(s) = std::fs::read_to_string(addr_file) {
            let s = s.trim();
            if !s.is_empty() {
                return s.to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never published its address"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The server's `serve`-scope counters, by name.
fn serve_counters(addr: &BoundAddr) -> BTreeMap<String, u64> {
    let line = Client::connect(addr).unwrap().metrics().unwrap();
    let v = json::parse(&line).unwrap();
    let json::Value::Obj(counters) = v.get("counters").unwrap() else {
        panic!("metrics line without counters: {line}")
    };
    counters
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
        .collect()
}

fn wait_for<T>(what: &str, mut poll: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if let Some(v) = poll() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// All record-file names currently in a store directory (quarantine
/// sidecar excluded): the "live set" a GC must never shrink.
fn record_names(store_dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(store_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rec"))
        .collect();
    names.sort();
    names
}

/// A wedged worker's cell overruns its lease on the injected clock, the
/// watchdog reaps it into the failure ledger as `DeadlineExceeded`, the
/// campaign completes around it, and the zombie worker's late result is
/// discarded — never written, never double-counted.
#[test]
fn stalled_cell_is_reaped_into_the_ledger_as_deadline_exceeded() {
    let tmp = util::TempDir::new("pgss-chaos-lease");
    let clock = Arc::new(ManualClock::new());
    let _guard = faults::install(FaultPlan {
        cell_stalls: vec![CellStall {
            workload: String::new(), // whichever cell is claimed first
            technique: String::new(),
            times: 1,
        }],
        ..FaultPlan::default()
    });
    let cfg = ServeConfig {
        workers: 2,
        retry: RetryPolicy::none(),
        lease_deadline_ns: Some(1_000),
        clock: Arc::clone(&clock) as Arc<dyn pgss_obs::Clock>,
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let addr = server.addr().clone();

    let job = Client::connect(&addr)
        .unwrap()
        .submit("chaos", PAIR_SPEC)
        .unwrap();
    // The free worker finishes the unstalled cell; the other is wedged.
    wait_for("the unstalled cell to finish", || {
        (Client::connect(&addr).unwrap().status(&job).unwrap().done == 1).then_some(())
    });
    // Nothing is overdue until the injected clock says so.
    clock.advance(2_000);
    let done = wait_for("the watchdog to reap the stalled cell", || {
        let s = Client::connect(&addr).unwrap().status(&job).unwrap();
        (s.phase == "done").then_some(s)
    });
    assert_eq!((done.done, done.failed, done.total), (1, 1, 2));

    // The ledger names the lease, not a panic or an I/O error.
    let report = Client::connect(&addr).unwrap().report(&job).unwrap();
    assert!(
        report.iter().any(|l| l.contains("deadline exceeded")),
        "failure ledger must carry DeadlineExceeded: {report:?}"
    );
    let counters = serve_counters(&addr);
    assert_eq!(counters.get("serve.lease.reaped"), Some(&1));
    assert_eq!(counters.get("serve.lease.granted"), Some(&2));
    assert_eq!(counters.get("serve.cells.failed"), Some(&1));

    // Release the zombie: its late result must be discarded, not become
    // a second completion of an already-settled cell.
    faults::release_stalls();
    wait_for("the zombie worker's late result to be discarded", || {
        (serve_counters(&addr)
            .get("serve.lease.late_result")
            .copied()
            .unwrap_or(0)
            == 1)
            .then_some(())
    });
    let after = Client::connect(&addr).unwrap().status(&job).unwrap();
    assert_eq!((after.done, after.failed), (1, 1), "late result leaked in");
    server.stop();
}

/// A cell that panics on every attempt fails the same way through the
/// server as through the library: both canonical artifacts — failure
/// line, `attempts` and `retries` included — are byte-identical.
#[test]
fn failing_cell_artifact_is_byte_identical_to_the_library() {
    let spec = pgss_serve::CampaignSpec::from_json(&json::parse(WIDE_SPEC).unwrap()).unwrap();
    let mat = spec.materialize().unwrap();
    let jobs = mat.jobs();
    let _guard = faults::install(FaultPlan {
        cell_panics: vec![CellPanic {
            workload: "183.equake".to_string(),
            technique: mat.techniques[0].name(),
            times: u32::MAX,
        }],
        ..FaultPlan::default()
    });

    let (_lib_tmp, store) = util::temp_store("pgss-chaos-fail-lib");
    let config = pgss::CampaignConfig::with_workers(2);
    let report =
        pgss::campaign::run_checkpointed_with(&jobs, spec.stride, Some(&store), &config).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].job_index, 4);
    let expected = report.canonical_jsonl();

    let tmp = util::TempDir::new("pgss-chaos-fail-srv");
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let addr = server.addr().clone();
    let job = Client::connect(&addr)
        .unwrap()
        .submit("chaos", WIDE_SPEC)
        .unwrap();
    let done = wait_for("the job to finish", || {
        let s = Client::connect(&addr).unwrap().status(&job).unwrap();
        (s.phase == "done").then_some(s)
    });
    assert_eq!((done.done, done.failed, done.retries), (7, 1, 1));
    let mut actual = Client::connect(&addr)
        .unwrap()
        .report(&job)
        .unwrap()
        .join("\n");
    actual.push('\n');
    server.stop();

    assert!(expected.contains("\"kind\":\"failure\",\"job\":4,"));
    assert_eq!(
        actual, expected,
        "server artifact diverged from the library's on a failing cell"
    );
}

/// `drain` stops admission and claiming, lets in-flight cells finish,
/// then exits 0; the cells it never claimed stay durable and a restarted
/// server completes them without recomputing the finished ones.
#[test]
fn drain_stops_admission_and_preserves_pending_cells_durably() {
    let tmp = util::TempDir::new("pgss-chaos-drain");
    {
        // Wedge both workers so "in flight at drain time" is exactly 2.
        let _guard = faults::install(FaultPlan {
            cell_stalls: vec![CellStall {
                workload: String::new(),
                technique: String::new(),
                times: 2,
            }],
            ..FaultPlan::default()
        });
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
        let addr = server.addr().clone();
        let job = Client::connect(&addr)
            .unwrap()
            .submit("chaos", WIDE_SPEC)
            .unwrap();
        wait_for("both workers to claim a cell", || {
            (serve_counters(&addr)
                .get("serve.lease.granted")
                .copied()
                .unwrap_or(0)
                >= 2)
                .then_some(())
        });

        let inflight = Client::connect(&addr).unwrap().drain().unwrap();
        assert_eq!(inflight, 2, "both wedged cells are in flight");
        // Admission is closed (a plain rejection, not a retryable busy —
        // retrying against a draining server is pointless)...
        let refused = Client::connect(&addr).unwrap().submit("chaos", TINY_SPEC);
        assert!(
            matches!(&refused, Err(ClientError::Server(m)) if m.contains("draining")),
            "expected a draining rejection, got {refused:?}"
        );
        // ...but reads still work while the drain waits on the leases.
        let status = Client::connect(&addr).unwrap().status(&job).unwrap();
        assert_eq!((status.phase.as_str(), status.done), ("running", 0));
        assert_eq!(serve_counters(&addr).get("serve.drain.requested"), Some(&1));

        // Un-wedge the workers: their cells finish, the drain completes,
        // and the server exits on its own — no shutdown verb.
        faults::release_stalls();
        server.wait();
    }

    // The drained store resumes: 2 finished cells come back from disk,
    // the 6 never-claimed ones execute now, nothing is recomputed. Fault
    // plans are process-wide: hold the fault-test lock with an empty plan
    // so a concurrently running test's cell panics cannot fail these cells.
    let _no_faults = faults::install(FaultPlan::default());
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let addr = server.addr().clone();
    let job = wait_for("the resumed job to finish", || {
        let counters = serve_counters(&addr);
        (counters.get("serve.jobs.completed").copied().unwrap_or(0) >= 1).then_some(counters)
    });
    assert_eq!(job.get("serve.jobs.resumed"), Some(&1));
    assert_eq!(job.get("serve.cells.resumed"), Some(&2));
    assert_eq!(job.get("serve.cells.executed"), Some(&6));
    server.stop();
}

/// Puts a fresh server makes to accept one job: its spec, status and
/// index records. Nothing is written before the first submit.
const SUBMIT_PUTS: u64 = 3;

/// Disk-full from a named put onward: the server degrades (counts the
/// failed writes, keeps serving the protocol, refuses a report it cannot
/// assemble whole) instead of crashing, and recovers fully once space
/// returns. A submit that cannot make its job durable is refused, so a
/// restart never forgets a job the server acknowledged.
#[test]
fn disk_full_mid_campaign_degrades_without_crashing() {
    let tmp = util::TempDir::new("pgss-chaos-full");
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let full_from = |put| {
        faults::install(FaultPlan {
            store: StoreFaultPlan {
                full_after_puts: Some(put),
                ..StoreFaultPlan::default()
            },
            ..FaultPlan::default()
        })
    };

    // Full before the submit: the spec record cannot land, so the job is
    // refused with the failed write named, and a restart finds no job.
    {
        let _guard = full_from(0);
        let server =
            Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg.clone()).unwrap();
        let addr = server.addr().clone();
        let refused = Client::connect(&addr).unwrap().submit("chaos", TINY_SPEC);
        assert!(
            matches!(&refused, Err(ClientError::Server(m)) if m.contains("spec record")),
            "expected a typed not-durable rejection, got {refused:?}"
        );
        let counters = serve_counters(&addr);
        assert_eq!(
            counters.get("serve.jobs.rejected"),
            Some(&1),
            "{counters:?}"
        );
        assert_eq!(counters.get("serve.jobs.submitted"), None, "{counters:?}");
        server.stop();
    }
    {
        let _no_faults = faults::install(FaultPlan::default());
        let server =
            Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg.clone()).unwrap();
        let counters = serve_counters(server.addr());
        assert_eq!(counters.get("serve.jobs.resumed"), None, "{counters:?}");
        assert_eq!(counters.get("serve.jobs.unresumable"), None, "{counters:?}");
        server.stop();
        assert!(record_names(tmp.path()).is_empty());
    }

    // Full right after the submit's writes: the job is durable, and
    // every later put (status updates, ladder rungs, cell records) fails.
    let server = {
        let _guard = full_from(SUBMIT_PUTS);
        let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
        let addr = server.addr().clone();
        let job = Client::connect(&addr)
            .unwrap()
            .submit("chaos", TINY_SPEC)
            .unwrap();
        wait_for("the job to finish in memory despite the full disk", || {
            (Client::connect(&addr).unwrap().status(&job).unwrap().phase == "done").then_some(())
        });
        let counters = serve_counters(&addr);
        assert!(
            counters.get("serve.store.put_failed").copied().unwrap_or(0) >= 1,
            "failed durability writes must be counted: {counters:?}"
        );
        // The protocol plane is unaffected by the storage plane.
        Client::connect(&addr).unwrap().ping().unwrap();
        // A report never silently omits a done cell whose record failed
        // to land: it names the missing record instead.
        let report = Client::connect(&addr).unwrap().report(&job);
        assert!(
            matches!(&report, Err(ClientError::Server(m))
                if m.contains("cell 0") && m.contains("record is missing")),
            "expected a typed missing-record error, got {report:?}"
        );
        server
        // Guard drops here: the disk has "space" again.
    };
    let addr = server.addr().clone();
    let job = Client::connect(&addr)
        .unwrap()
        .submit("chaos", TINY_SPEC)
        .unwrap();
    wait_for("a post-recovery job to finish durably", || {
        (Client::connect(&addr).unwrap().status(&job).unwrap().phase == "done").then_some(())
    });
    server.stop();
    // This job's records actually landed.
    assert!(!record_names(tmp.path()).is_empty());
}

/// A torn rename (power loss between rename and fsync) reports success
/// but leaves a half-written destination; reads detect the tear, the
/// evidence quarantines, and a re-put heals the key. A dropped fsync is
/// observable in the injection log — the tests can tell the difference.
#[test]
fn torn_rename_surfaces_as_detectable_corruption_and_heals() {
    let (_dir, store) = util::temp_store("pgss-chaos-torn");
    let payload = b"phase signature".as_slice();
    {
        let _guard = faults::install(FaultPlan {
            store: StoreFaultPlan {
                torn_renames: vec![0],
                drop_fsyncs: true,
                ..StoreFaultPlan::default()
            },
            ..FaultPlan::default()
        });
        store.put(7, payload).unwrap(); // "succeeds" — the tear is silent
        assert!(matches!(
            store.get_checked(7),
            Err(RecordError::Invalid(RecordFault::TooShort))
        ));
        let moved = store.quarantine(7).unwrap().unwrap();
        assert!(moved.exists());
        store.put(7, payload).unwrap(); // put #1: not torn, heals the key
        assert_eq!(store.get_checked(7).unwrap(), payload);
        let log = faults::injection_log();
        assert!(log.iter().any(|l| l.contains("torn rename")), "{log:?}");
        assert!(log.iter().any(|l| l.contains("fsync: dropped")), "{log:?}");
    }
    // Quarantined evidence outlives the fault plan and the healing.
    assert!(store.quarantine_dir().join("0000000000000007.rec").exists());
}

/// A store at its byte budget admits new captures only after GC frees
/// reclaimable garbage; truth-cache entries are honoured as liveness
/// roots and quarantined evidence is never swept.
#[test]
fn budget_admits_new_captures_only_after_gc_frees_garbage() {
    let dir = util::TempDir::new("pgss-chaos-budget");
    let payload = vec![0xa5u8; 64]; // 100-byte record (36-byte header)
    let workload = pgss_workloads::gzip(0.003);
    let truth = pgss_bench::truth_key(&workload);
    // Fault plans are process-wide: hold the fault-test lock with an
    // empty plan so a concurrently running test's disk-full plan cannot
    // fail these puts.
    let _no_faults = faults::install(FaultPlan::default());

    let store = Store::open(dir.path()).unwrap().with_budget(350);
    // Quarantined evidence must not count against the budget.
    store.put(9, &payload).unwrap();
    store.quarantine(9).unwrap().unwrap();
    assert_eq!(store.usage_bytes().unwrap(), 0);

    store.put(truth, &payload).unwrap(); // a truth-cache entry: live
    store.put(1, &payload).unwrap(); // garbage
    store.put(2, &payload).unwrap(); // garbage
    let err = store.put(3, &payload).unwrap_err();
    assert!(is_budget_error(&err), "want a budget rejection, got {err}");

    let report = store.gc(|key| key == truth).unwrap();
    assert_eq!((report.live, report.swept), (1, 2));
    assert_eq!(report.bytes_freed, 200);

    store.put(3, &payload).unwrap(); // freed space admits the capture
    assert_eq!(store.get_checked(truth).unwrap(), payload);
    assert!(store.quarantine_dir().join("0000000000000009.rec").exists());
}

/// SIGKILL racing `Store::gc` in a real daemon process: wherever the
/// kill lands, no live or quarantined record is lost, the finished job
/// is never recomputed, and a clean sweep afterwards removes exactly
/// the garbage.
#[test]
fn kill_nine_mid_gc_loses_no_live_or_quarantined_record() {
    let tmp = util::TempDir::new("pgss-chaos-killgc");
    std::fs::create_dir_all(tmp.path()).unwrap();
    let store_dir = tmp.path().join("store");
    let addr_file = tmp.path().join("addr");

    // Run one job to completion, then stop the daemon cleanly.
    let mut child = spawn_daemon(&store_dir, &addr_file, 1);
    let addr = await_daemon_addr(&addr_file);
    let job = Client::connect_tcp(&addr)
        .unwrap()
        .submit("chaos", TINY_SPEC)
        .unwrap();
    wait_for("the daemon's job to finish", || {
        (Client::connect_tcp(&addr)
            .unwrap()
            .status(&job)
            .unwrap()
            .phase
            == "done")
            .then_some(())
    });
    Client::connect_tcp(&addr).unwrap().shutdown().unwrap();
    child.wait().unwrap();

    // Seed the dormant store with garbage and quarantined evidence.
    let live_names = record_names(&store_dir);
    assert!(!live_names.is_empty(), "a finished job leaves records");
    let quarantine_file: PathBuf;
    {
        let store = Store::open(&store_dir).unwrap();
        for key in [0xdead_0001u64, 0xdead_0002, 0xdead_0003] {
            store.put(key, b"reclaimable garbage").unwrap();
        }
        store.put(0x0bad, b"suspect evidence").unwrap();
        quarantine_file = store.quarantine(0x0bad).unwrap().unwrap();
    }

    // Restart, fire a raw `gc`, and SIGKILL the daemon into the sweep.
    std::fs::remove_file(&addr_file).unwrap();
    let mut child = spawn_daemon(&store_dir, &addr_file, 1);
    let addr = await_daemon_addr(&addr_file);
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"{\"op\":\"gc\"}\n").unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(5));
    child.kill().unwrap(); // SIGKILL: mid-mark or mid-sweep, no goodbyes
    child.wait().unwrap();

    // Wherever the kill landed: quarantine intact, live records intact.
    assert!(quarantine_file.exists(), "SIGKILL'd gc deleted quarantine");
    let after_kill = record_names(&store_dir);
    for name in &live_names {
        assert!(after_kill.contains(name), "gc lost live record {name}");
    }

    // A third daemon resumes the (terminal) job without recomputing it,
    // serves its report, and a clean gc removes exactly the garbage.
    std::fs::remove_file(&addr_file).unwrap();
    let mut child = spawn_daemon(&store_dir, &addr_file, 1);
    let addr = await_daemon_addr(&addr_file);
    let status = Client::connect_tcp(&addr).unwrap().status(&job).unwrap();
    assert_eq!(status.phase, "done");
    let report = Client::connect_tcp(&addr).unwrap().report(&job).unwrap();
    assert!(report[0].contains("\"kind\":\"campaign\""));

    let outcome = Client::connect_tcp(&addr).unwrap().gc().unwrap();
    assert!(outcome.swept <= 3, "only garbage is sweepable: {outcome:?}");

    let counters = {
        let line = Client::connect_tcp(&addr).unwrap().metrics().unwrap();
        json::parse(&line).unwrap()
    };
    assert_eq!(
        counters
            .get("counters")
            .and_then(|c| c.get("serve.cells.executed"))
            .and_then(json::Value::as_u64)
            .unwrap_or(0),
        0,
        "a finished cell was recomputed after the gc chaos"
    );
    Client::connect_tcp(&addr).unwrap().shutdown().unwrap();
    child.wait().unwrap();

    let final_names = record_names(&store_dir);
    for name in &live_names {
        assert!(final_names.contains(name), "clean gc lost {name}");
    }
    for garbage in ["00000000dead0001", "00000000dead0002", "00000000dead0003"] {
        assert!(
            !final_names.contains(&format!("{garbage}.rec")),
            "clean gc left garbage {garbage}"
        );
    }
    assert!(quarantine_file.exists(), "clean gc deleted quarantine");
}
