//! Campaign-server resilience: SIGKILL-and-resume without recomputation,
//! re-running a finished job's lost cell record, tenant quota
//! enforcement, and cooperative cancellation.
//!
//! The SIGKILL test runs a real daemon in a separate process by
//! re-executing this test binary with the `daemon_entry` filter and a
//! control env var — the child is a full `pgss-serve` process that can be
//! killed with prejudice while the parent watches its durable store
//! survive. The quota and cancellation tests drive an in-process server.

mod util;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pgss_ckpt::{job_key, JobRecordKind, Store};
use pgss_serve::{json, Client, ClientError, JobStatus, Listen, ServeConfig, Server, TenantQuota};

/// Control env var: `store_dir\x1faddr_file\x1fworkers`.
const DAEMON_ENV: &str = "PGSS_SERVE_DAEMON";

/// One workload, one technique: finishes in well under a second.
const TINY_SPEC: &str = r#"{"suite":[{"name":"164.gzip","scale":0.003}],
    "techniques":[{"kind":"smarts","period_ops":50000}],"stride":50000}"#;

/// Two cells, so a re-run of one of them is told apart from a re-run of
/// the whole job.
const PAIR_SPEC: &str = r#"{"suite":[
      {"name":"164.gzip","scale":0.003},{"name":"183.equake","scale":0.003}],
    "techniques":[{"kind":"smarts","period_ops":50000}],"stride":50000}"#;

/// Eight cells (and four technique kinds through the wire format) so a
/// kill after the first completion always lands mid-campaign.
const WIDE_SPEC: &str = r#"{"suite":[
      {"name":"164.gzip","scale":0.002},{"name":"183.equake","scale":0.002}],
    "techniques":[{"kind":"smarts","period_ops":50000},
                  {"kind":"turbo_smarts","period_ops":50000},
                  {"kind":"online_simpoint","interval_ops":100000},
                  {"kind":"pgss","ff_ops":50000,"spacing_ops":100000}],
    "stride":50000}"#;

/// Not a real test: the daemon half of the SIGKILL scenario. No-ops
/// unless the parent set [`DAEMON_ENV`]; otherwise serves the given
/// store until shut down (or killed).
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
    let pgss_serve::BoundAddr::Tcp(addr) = server.addr().clone() else {
        unreachable!("tcp listen yields a tcp addr")
    };
    // Write-then-rename so the parent never reads a half-written addr.
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

fn status_of(addr: &str, job: &str) -> JobStatus {
    Client::connect_tcp(addr).unwrap().status(job).unwrap()
}

fn wait_for_phase_tcp(addr: &str, job: &str, want: &str) -> JobStatus {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = status_of(addr, job);
        if status.phase == want {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "job never reached {want:?}; stuck at {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The server's `serve`-scope counters, by name.
fn serve_counters(addr: &str) -> BTreeMap<String, u64> {
    let line = Client::connect_tcp(addr).unwrap().metrics().unwrap();
    let v = json::parse(&line).unwrap();
    let json::Value::Obj(counters) = v.get("counters").unwrap() else {
        panic!("metrics line without counters: {line}")
    };
    counters
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
        .collect()
}

#[test]
fn sigkilled_server_resumes_without_recomputing_finished_cells() {
    let tmp = util::TempDir::new("pgss-serve-kill");
    std::fs::create_dir_all(tmp.path()).unwrap();
    let store = tmp.path().join("store");
    let addr_file = tmp.path().join("addr");

    let mut child = spawn_daemon(&store, &addr_file, 1);
    let addr = await_daemon_addr(&addr_file);
    let job = Client::connect_tcp(&addr)
        .unwrap()
        .submit("kill-test", WIDE_SPEC)
        .unwrap();
    let total = {
        let deadline = Instant::now() + Duration::from_secs(180);
        loop {
            let status = status_of(&addr, &job);
            if status.done >= 1 {
                break status.total;
            }
            assert!(Instant::now() < deadline, "no cell ever finished");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    // SIGKILL: no destructors, no flushes, no goodbye.
    child.kill().unwrap();
    child.wait().unwrap();

    std::fs::remove_file(&addr_file).unwrap();
    let mut child = spawn_daemon(&store, &addr_file, 2);
    let addr = await_daemon_addr(&addr_file);
    wait_for_phase_tcp(&addr, &job, "done");

    let counters = serve_counters(&addr);
    let resumed = counters.get("serve.cells.resumed").copied().unwrap_or(0);
    let executed = counters.get("serve.cells.executed").copied().unwrap_or(0);
    assert!(resumed >= 1, "kill landed before any cell was durable");
    assert_eq!(
        executed + resumed,
        total,
        "restarted server recomputed already-finished cells \
         (executed {executed} + resumed {resumed} != total {total})"
    );
    assert_eq!(counters.get("serve.jobs.resumed"), Some(&1));

    // The finished job's report assembles fine from the twice-opened
    // store.
    let lines = Client::connect_tcp(&addr).unwrap().report(&job).unwrap();
    assert!(lines[0].contains("\"kind\":\"campaign\""));
    assert_eq!(lines.len() as u64, 1 + 2 * total);

    Client::connect_tcp(&addr).unwrap().shutdown().unwrap();
    child.wait().unwrap();
}

/// A `Done` job whose cell record was lost (here: corrupted on disk
/// while the server was down) goes back to running on restart, re-runs
/// exactly that cell, and serves the same artifact as before.
#[test]
fn restarted_server_reruns_a_done_jobs_corrupt_cell_record() {
    let tmp = util::TempDir::new("pgss-serve-lost-cell");
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg.clone()).unwrap();
    let addr = server.addr().clone();
    let job = Client::connect(&addr)
        .unwrap()
        .submit("lost-cell", PAIR_SPEC)
        .unwrap();
    let wait_done = |addr: &pgss_serve::BoundAddr| {
        let deadline = Instant::now() + Duration::from_secs(300);
        while Client::connect(addr).unwrap().status(&job).unwrap().phase != "done" {
            assert!(Instant::now() < deadline, "job never finished");
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    wait_done(&addr);
    let before = Client::connect(&addr).unwrap().report(&job).unwrap();
    server.stop();

    let id = u64::from_str_radix(&job, 16).unwrap();
    let store = Store::open(tmp.path()).unwrap();
    let path = store.path_for(job_key(JobRecordKind::Cell, id, 1));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let addr = server.addr().clone();
    wait_done(&addr);
    let counters = {
        let line = Client::connect(&addr).unwrap().metrics().unwrap();
        json::parse(&line).unwrap()
    };
    let counter = |name: &str| {
        counters
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Value::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(
        counter("serve.cells.executed"),
        1,
        "exactly the lost cell re-runs"
    );
    assert_eq!(counter("serve.jobs.resumed"), 1);
    assert!(store
        .quarantine_dir()
        .join(path.file_name().unwrap())
        .exists());
    let after = Client::connect(&addr).unwrap().report(&job).unwrap();
    server.stop();
    assert_eq!(after, before, "the re-run cell changed the artifact");
}

#[test]
fn quotas_gate_concurrency_and_reject_over_queueing() {
    let tmp = util::TempDir::new("pgss-serve-quota");
    let mut quotas = BTreeMap::new();
    quotas.insert(
        "gated".to_string(),
        TenantQuota {
            max_concurrent_cells: 0,
            max_queued_jobs: 1,
        },
    );
    let cfg = ServeConfig {
        workers: 2,
        quotas,
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let addr = server.addr().clone();

    // Admitted, but its concurrency quota of zero parks it in `queued`.
    let gated_job = Client::connect(&addr)
        .unwrap()
        .submit("gated", TINY_SPEC)
        .unwrap();
    // A second active job would exceed the tenant's queue quota. The
    // rejection is typed busy (it carries the server's retry hint), not
    // a terminal error.
    let err = Client::connect(&addr).unwrap().submit("gated", TINY_SPEC);
    assert!(
        matches!(
            &err,
            Err(ClientError::Busy { message, retry_after_ms })
                if message.contains("quota") && *retry_after_ms > 0
        ),
        "expected a typed busy rejection, got {err:?}"
    );

    // An unconstrained tenant runs to completion on the same workers —
    // the gated job is parked, not wedging the pool.
    let free_job = Client::connect(&addr)
        .unwrap()
        .submit("free", TINY_SPEC)
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = Client::connect(&addr).unwrap().status(&free_job).unwrap();
        if status.phase == "done" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "free tenant's job never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let gated = Client::connect(&addr).unwrap().status(&gated_job).unwrap();
    assert_eq!(gated.phase, "queued", "over-quota job must stay queued");
    assert_eq!(gated.done, 0, "over-quota job must not run cells");

    let mut c = Client::connect(&addr).unwrap();
    let metrics_line = c.metrics().unwrap();
    let v = json::parse(&metrics_line).unwrap();
    let rejected = v
        .get("counters")
        .and_then(|c| c.get("serve.jobs.rejected"))
        .and_then(json::Value::as_u64)
        .unwrap_or(0);
    assert!(rejected >= 1, "rejection must be counted: {metrics_line}");

    server.stop();
}

#[test]
fn cancellation_leaves_a_clean_durable_record_and_frees_workers() {
    let tmp = util::TempDir::new("pgss-serve-cancel");
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg.clone()).unwrap();
    let addr = server.addr().clone();

    let job = Client::connect(&addr)
        .unwrap()
        .submit("cancel-test", WIDE_SPEC)
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let status = Client::connect(&addr).unwrap().status(&job).unwrap();
        if status.done >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no cell ever finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    Client::connect(&addr).unwrap().cancel(&job).unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    let cancelled = loop {
        let status = Client::connect(&addr).unwrap().status(&job).unwrap();
        if status.phase == "cancelled" {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "cancel never drained; stuck at {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        cancelled.done < cancelled.total,
        "cancel landed after the campaign finished; widen the grid"
    );

    // Workers are free again: a fresh job completes normally.
    let after = Client::connect(&addr)
        .unwrap()
        .submit("cancel-test", TINY_SPEC)
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = Client::connect(&addr).unwrap().status(&after).unwrap();
        if status.phase == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "post-cancel job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    // A cancelled job still serves a report of what it did finish.
    let lines = Client::connect(&addr).unwrap().report(&job).unwrap();
    assert!(lines[0].contains("\"kind\":\"campaign\""));
    server.stop();

    // The cancelled state is durable: a fresh server sees it terminal
    // and resurrects no work for it.
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let addr = server.addr().clone();
    let status = Client::connect(&addr).unwrap().status(&job).unwrap();
    assert_eq!(status.phase, "cancelled");
    let counters = {
        let line = Client::connect(&addr).unwrap().metrics().unwrap();
        json::parse(&line).unwrap()
    };
    assert_eq!(
        counters
            .get("counters")
            .and_then(|c| c.get("serve.jobs.resumed"))
            .and_then(json::Value::as_u64)
            .unwrap_or(0),
        0,
        "terminal jobs must not be re-scheduled on resume"
    );
    server.stop();
}
