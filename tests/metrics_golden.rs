//! Golden tests for the metrics export: the JSONL emitted by a campaign's
//! [`pgss::MetricsReport`] is a *stable artifact* — byte-identical across
//! reruns and across `PGSS_WORKERS` settings, with a pinned schema. Tools
//! downstream (experiment logs, diffing, dashboards) rely on both.

mod util;

use pgss::{
    campaign, CampaignConfig, MetricsRecorder, MetricsReport, PgssSim, RankedSet, Recorder,
    Signature, Smarts, Technique, TwoPhaseStratified,
};
use pgss_cpu::MachineConfig;

const METRICS_SCHEMA_VERSION: u32 = 1;

fn jobs_jsonl(threads: usize) -> String {
    let workloads = [pgss_workloads::gzip(0.01), pgss_workloads::art(0.01)];
    let smarts = Smarts {
        period_ops: 50_000,
        ..Smarts::default()
    };
    let pgss = PgssSim {
        ff_ops: 100_000,
        spacing_ops: 100_000,
        ..PgssSim::default()
    };
    let two_phase = TwoPhaseStratified {
        ff_ops: 100_000,
        budget: 20,
        ..TwoPhaseStratified::default()
    };
    let ranked = RankedSet {
        ff_ops: 100_000,
        ..RankedSet::default()
    };
    let pgss_mav = PgssSim {
        signature: Signature::Mav,
        ..pgss
    };
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss, &two_phase, &ranked, &pgss_mav];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());
    let report =
        campaign::run_with(&jobs, &CampaignConfig::with_workers(threads)).expect("campaign runs");
    assert!(report.is_complete());
    report.metrics.to_jsonl()
}

/// The acceptance criterion of the observability layer: worker count is a
/// performance knob, not an observable — 1, 2, and 8 workers produce the
/// same bytes, and a rerun reproduces them.
#[test]
fn jsonl_is_byte_identical_across_worker_counts_and_reruns() {
    let one = jobs_jsonl(1);
    assert_eq!(one, jobs_jsonl(2), "1 vs 2 workers");
    assert_eq!(one, jobs_jsonl(8), "1 vs 8 workers");
    assert_eq!(one, jobs_jsonl(1), "rerun");
    // Every line is a scope record of the pinned schema version.
    for line in one.lines() {
        assert!(
            line.starts_with(&format!("{{\"v\":{METRICS_SCHEMA_VERSION},\"scope\":")),
            "unexpected line prefix: {line}"
        );
    }
    // Campaign scope first, then one scope per cell in job order
    // (2 workloads × 5 techniques).
    assert_eq!(one.lines().count(), 1 + 10);
    assert!(one.starts_with("{\"v\":1,\"scope\":\"campaign\","));
}

/// Pins the exported schema version: bump [`pgss::METRICS_SCHEMA_VERSION`]
/// deliberately (and update this test plus any downstream consumers), never
/// accidentally.
#[test]
fn schema_version_is_pinned() {
    assert_eq!(pgss::METRICS_SCHEMA_VERSION, METRICS_SCHEMA_VERSION);
}

/// The campaign server's own observability rides the same pinned
/// schema: scope `serve`, a `"v"`-tagged line, and a pinned
/// `serve.jobs.*` / `serve.cells.*` counter vocabulary plus the
/// `serve.job.run` span. New counters are a deliberate schema change —
/// extend the pinned list here when adding one.
#[test]
fn serve_scope_schema_is_pinned() {
    use pgss_serve::{json, Client, Listen, ServeConfig, Server};

    let tmp = util::TempDir::new("pgss-serve-schema");
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let addr = server.addr().clone();
    let job = Client::connect(&addr)
        .unwrap()
        .submit(
            "pin",
            r#"{"suite":[{"name":"164.gzip","scale":0.003}],
                "techniques":[{"kind":"smarts","period_ops":50000}],"stride":50000}"#,
        )
        .unwrap();
    let mut events = 0;
    let phase = Client::connect(&addr)
        .unwrap()
        .watch(&job, |_| {
            events += 1;
            true
        })
        .unwrap();
    assert_eq!(phase, "done");
    assert_eq!(events, 1, "one cell, one stream event");
    let line = Client::connect(&addr).unwrap().metrics().unwrap();
    server.stop();

    assert!(
        line.starts_with(&format!(
            "{{\"v\":{METRICS_SCHEMA_VERSION},\"scope\":\"serve\","
        )),
        "serve metrics line left the pinned schema: {line}"
    );
    let v = json::parse(&line).unwrap();
    let json::Value::Obj(counters) = v.get("counters").unwrap() else {
        panic!("no counters object: {line}")
    };
    let serve_keys: Vec<&str> = counters
        .keys()
        .filter(|k| k.starts_with("serve."))
        .map(String::as_str)
        .collect();
    assert_eq!(
        serve_keys,
        [
            "serve.cells.executed",
            "serve.cells.streamed",
            "serve.jobs.completed",
            "serve.jobs.submitted",
            "serve.lease.granted",
        ],
        "pinned serve counter vocabulary changed: {line}"
    );
    for key in &serve_keys {
        assert_eq!(
            counters[*key].as_u64(),
            Some(1),
            "one-job one-cell scenario: {key} should be exactly 1"
        );
    }
    let json::Value::Obj(spans) = v.get("spans").unwrap() else {
        panic!("no spans object: {line}")
    };
    assert!(
        spans.contains_key("serve.job.run"),
        "per-job span missing: {line}"
    );
}

/// Pins the exact JSONL encoding of a hand-built frame, the way
/// `snapshot_format_is_pinned` pins the checkpoint format: key order
/// (BTreeMap-sorted), number formatting, and the `null` encoding for
/// non-finite values are all part of the contract.
#[test]
fn jsonl_line_format_is_pinned() {
    let rec = MetricsRecorder::new();
    rec.add("b.counter", 7);
    rec.add("a.counter", 2);
    rec.observe("lat", 1.5);
    rec.observe("lat", 2.5);
    rec.observe("bad", f64::INFINITY);
    rec.register_hist("share", 0.0, 1.0, 2);
    rec.record_hist("share", 0.25);
    let mut report = MetricsReport::new();
    report.push_scope("pin", rec.into_frame());
    assert_eq!(
        report.to_jsonl(),
        concat!(
            "{\"v\":1,\"scope\":\"pin\",",
            "\"counters\":{\"a.counter\":2,\"b.counter\":7},",
            "\"spans\":{},",
            "\"dists\":{\"bad\":{\"n\":1,\"mean\":null,\"std\":0},",
            "\"lat\":{\"n\":2,\"mean\":2,\"std\":0.7071067811865476}},",
            "\"hists\":{\"share\":{\"min\":0,\"max\":1,\"total\":1,\"counts\":[1,0]}}}\n",
        )
    );
}
