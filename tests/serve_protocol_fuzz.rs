//! Property/fuzz coverage for the campaign server's wire protocol.
//!
//! Two layers, both driven by the deterministic [`DetRng`] (so a failure
//! reproduces from its seed alone, no corpus files):
//!
//! 1. **Parser-level**: arbitrary byte soup, truncated frames, deeply
//!    nested and duplicate-key JSON pushed through
//!    [`pgss_serve::json::parse`] must return a typed [`ParseError`] or a
//!    [`Value`] — never panic, never hang.
//! 2. **Server-level**: the same hostile inputs over a real socket, plus
//!    oversized lines and a slow-loris half-request, must each get a
//!    typed error line (or a clean close) while the server keeps serving
//!    well-formed clients.
//! 3. **Record-level**: the decoders of what the server persists — cell
//!    records and the index, spec and status job records — get every
//!    truncation, every single-bit flip and byte soup of a valid
//!    encoding, and must return a typed `CodecError`, never panic.

mod util;

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use pgss::campaign::{run_cell, CellError, CellFailure, Job};
use pgss::wire::canonical_failure_line;
use pgss::{PgssSim, SimContext};
use pgss_ckpt::CodecError;
use pgss_serve::{
    json, CellRecord, Client, IndexRecord, JobPhase, Listen, ServeConfig, Server, SpecRecord,
    StatusRecord,
};
use pgss_stats::DetRng;

/// Every input must produce `Ok` or a typed error; a panic (caught here
/// so one bad input doesn't hide the rest) or a hang fails the test.
fn parses_without_panicking(input: &str) {
    let outcome = std::panic::catch_unwind(|| json::parse(input).map(|_| ()));
    match outcome {
        Ok(Ok(())) | Ok(Err(_)) => {}
        Err(_) => panic!("json::parse panicked on {input:?}"),
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_parser() {
    let mut rng = DetRng::seed_from_u64(0x5eed_f00d);
    for _ in 0..2_000 {
        let len = rng.range_usize(64);
        // Raw bytes, lossily decoded the way a socket line would be.
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        parses_without_panicking(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn truncated_frames_yield_typed_errors() {
    let whole = r#"{"op":"submit","tenant":"fuzz","spec":{"suite":[{"name":"164.gzip",
        "scale":0.01}],"techniques":[{"kind":"smarts","period_ops":50000}]},
        "n":-1.5e-3,"t":true,"u":null,"s":"A\n\" "}"#;
    // Every prefix of a valid request is either valid or a typed error.
    for cut in 0..whole.len() {
        if whole.is_char_boundary(cut) {
            parses_without_panicking(&whole[..cut]);
        }
    }
    assert!(json::parse(whole).is_ok(), "the uncut frame must parse");
}

#[test]
fn deep_nesting_is_bounded_not_a_stack_overflow() {
    // 1000 levels is far past MAX_DEPTH: must be a typed error.
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let deep = format!("{}1{}", open.repeat(1_000), close.repeat(1_000));
        assert!(
            json::parse(&deep).is_err(),
            "unbounded nesting must be rejected"
        );
    }
    // ...while reasonable nesting (under the documented cap) still works.
    let shallow = format!("{}1{}", "[".repeat(32), "]".repeat(32));
    assert!(json::parse(&shallow).is_ok());
}

#[test]
fn duplicate_keys_are_deterministic_last_wins() {
    let v = json::parse(r#"{"a":1,"a":2,"b":{"c":3,"c":4},"a":5}"#).unwrap();
    assert_eq!(v.get("a").and_then(json::Value::as_u64), Some(5));
    assert_eq!(
        v.get("b")
            .and_then(|b| b.get("c"))
            .and_then(json::Value::as_u64),
        Some(4)
    );
}

#[test]
fn mutated_real_requests_never_panic_the_parser() {
    let seeds = [
        "{\"op\":\"ping\"}",
        "{\"op\":\"status\",\"job\":\"0123456789abcdef\"}",
        "{\"op\":\"metrics\"}",
        "{\"op\":\"gc\"}",
    ];
    let mut rng = DetRng::seed_from_u64(0xc4a0_5bad);
    for round in 0..2_000 {
        let mut bytes = seeds[round % seeds.len()].as_bytes().to_vec();
        for _ in 0..1 + rng.range_usize(4) {
            let at = rng.range_usize(bytes.len());
            match rng.range_u64(3) {
                0 => bytes[at] = rng.next_u64() as u8,       // flip
                1 => drop(bytes.remove(at)),                 // delete
                _ => bytes.insert(at, rng.next_u64() as u8), // insert
            }
        }
        parses_without_panicking(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn cell_record_decoder_fails_typed_on_corrupt_bytes() {
    // A PGSS cell renders every optional part of a cell line (phases and
    // a CI) and a populated metric-scope line.
    let w = pgss_workloads::gzip(0.005);
    let pgss = PgssSim {
        ff_ops: 50_000,
        spacing_ops: 50_000,
        ..PgssSim::default()
    };
    let (cell, frame) = run_cell(&Job::new(&w, &pgss), &SimContext::none()).unwrap();
    let record = CellRecord::new(&cell, frame);
    let bytes = record.encode();
    assert_eq!(CellRecord::decode(&bytes).unwrap(), record);
    let mut rng = DetRng::seed_from_u64(0xce11_f022);
    util::fuzz_decoder(&bytes, &mut rng, |b| CellRecord::decode(b).map(drop));
}

#[test]
fn job_record_decoders_fail_typed_on_corrupt_bytes() {
    let index = IndexRecord {
        next_seq: 3,
        jobs: vec![(0x0123_4567_89ab_cdef, "alice".into()), (7, "bob".into())],
    };
    let spec = SpecRecord {
        request: r#"{"op":"submit","tenant":"alice","spec":{"suite":[{"name":"164.gzip","scale":0.01},{"name":"300.twolf","scale":0.01}],"techniques":[{"kind":"smarts","period_ops":50000},{"kind":"pgss","ff_ops":50000}],"configs":[{},{"issue_width":2}],"stride":50000}}"#.into(),
    };
    let status = StatusRecord {
        phase: JobPhase::Running,
        retries: 1,
        failures: vec![(
            3,
            canonical_failure_line(&CellFailure {
                job_index: 3,
                workload: "300.twolf".into(),
                technique: "SMARTS(50k)".into(),
                attempts: 2,
                error: CellError::Panicked("boom".into()),
            }),
        )],
    };
    let mut rng = DetRng::seed_from_u64(0x10b_f022);
    let mut fuzz = |bytes: Vec<u8>, decode: fn(&[u8]) -> Result<(), CodecError>| {
        util::fuzz_decoder(&bytes, &mut rng, decode)
    };
    fuzz(index.encode(), |b| IndexRecord::decode(b).map(drop));
    fuzz(spec.encode(), |b| SpecRecord::decode(b).map(drop));
    fuzz(status.encode(), |b| StatusRecord::decode(b).map(drop));
}

/// Raw socket helper: send `payload` (no framing added) and collect
/// whatever the server answers until it closes or goes quiet.
fn raw_exchange(addr: &str, payload: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(payload).unwrap();
    s.flush().unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => break, // quiet is fine; the assertions text-match
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn hostile_connections_get_typed_errors_and_the_server_survives() {
    let tmp = util::TempDir::new("pgss-fuzz-serve");
    let cfg = ServeConfig {
        workers: 1,
        max_line_bytes: 256,
        read_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let server = Server::start(tmp.path(), Listen::Tcp("127.0.0.1:0".into()), cfg).unwrap();
    let pgss_serve::BoundAddr::Tcp(tcp) = server.addr().clone() else {
        unreachable!("tcp listen yields a tcp addr")
    };
    let tcp = tcp.to_string();

    // Garbage bytes: a typed protocol error, not a hang or a crash.
    let answer = raw_exchange(&tcp, b"\x00\xff\x17 not json at all\n");
    assert!(answer.contains("\"ok\":false"), "garbage got: {answer:?}");

    // An oversized line is refused by name and the connection closed.
    let oversized = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(512));
    let answer = raw_exchange(&tcp, oversized.as_bytes());
    assert!(
        answer.contains("exceeds") && answer.contains("\"ok\":false"),
        "oversized got: {answer:?}"
    );

    // Slow loris: a half request and silence. The read deadline closes
    // the connection with a typed error instead of parking a thread.
    let answer = raw_exchange(&tcp, b"{\"op\":\"pi");
    assert!(
        answer.contains("deadline") && answer.contains("\"ok\":false"),
        "slow loris got: {answer:?}"
    );

    // A truncated frame that *does* end in a newline parses as JSON and
    // fails as a request — still typed, still no panic.
    let answer = raw_exchange(&tcp, b"{\"op\":\"submit\"\n");
    assert!(answer.contains("\"ok\":false"), "truncated got: {answer:?}");

    // Deterministic byte soup against the live server.
    let mut rng = DetRng::seed_from_u64(0x0dd_ba11);
    for _ in 0..32 {
        let len = 1 + rng.range_usize(96);
        let bytes: Vec<u8> = (0..len)
            .map(|_| rng.next_u64() as u8)
            .chain([b'\n'])
            .collect();
        let _ = raw_exchange(&tcp, &bytes); // any answer, as long as...
    }

    // ...a well-formed client still gets served afterwards.
    let mut c = Client::connect(server.addr()).unwrap();
    c.ping().unwrap();
    let counters = {
        let line = c.metrics().unwrap();
        json::parse(&line).unwrap()
    };
    let count = |k: &str| {
        counters
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(json::Value::as_u64)
            .unwrap_or(0)
    };
    assert!(count("serve.protocol.oversized") >= 1);
    assert!(count("serve.conns.timed_out") >= 1);
    server.stop();
}
