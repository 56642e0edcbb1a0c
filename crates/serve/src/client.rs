//! A small blocking client for the campaign server's line-delimited JSON
//! protocol. Used by the tests and examples; also a precise description
//! of the protocol itself.
//!
//! # Protocol
//!
//! One request per line, one (or, for streaming ops, several) response
//! lines back. Every response object carries `"ok"`; failures carry an
//! `"error"` string. Streaming responses (`report`, `metrics`) announce
//! `"lines":N` and are followed by exactly N raw payload lines. `watch`
//! streams `"event":"cell"` lines until an `"event":"end"` line.
//!
//! ```text
//! → {"op":"submit","tenant":"ci","spec":{"suite":[{"name":"164.gzip","scale":0.01}],
//!    "techniques":[{"kind":"smarts"}]}}
//! ← {"ok":true,"job":"91b2f00c1d9aa3e7","cells":1}
//! → {"op":"status","job":"91b2f00c1d9aa3e7"}
//! ← {"ok":true,"phase":"running","done":0,"total":1,"failed":0,"retries":0}
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use pgss_obs::json_string;

use crate::json::{self, Value};
use crate::server::{dial, BoundAddr, Stream};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes didn't parse as the protocol.
    Protocol(String),
    /// The server answered `"ok":false` with this error.
    Server(String),
    /// The server is saturated (connection cap or tenant quota) and
    /// attached a retry hint. Transient by
    /// construction: retrying after `retry_after_ms` is expected to
    /// succeed once load drains.
    Busy {
        /// The server's human-readable rejection reason.
        message: String,
        /// The server's suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Busy {
                message,
                retry_after_ms,
            } => write!(f, "server busy (retry after {retry_after_ms}ms): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Deterministic capped exponential backoff for client-side retries.
///
/// The schedule is pure arithmetic — `delay_ms(n)` for retry `n` is
/// `min(cap_ms, base_ms << n)` — so tests inject a recording sleeper and
/// assert the exact delays instead of watching a wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Total attempts (the initial try plus retries). `1` disables
    /// retry entirely; `0` is treated as `1`.
    pub max_attempts: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub cap_ms: u64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            max_attempts: 5,
            base_ms: 50,
            cap_ms: 2000,
        }
    }
}

impl Backoff {
    /// The delay before retry number `retry` (0-based), in milliseconds:
    /// `base_ms` doubled per retry, saturating, capped at `cap_ms`.
    pub fn delay_ms(&self, retry: u32) -> u64 {
        let doubled = if retry >= 63 {
            u64::MAX
        } else {
            self.base_ms.saturating_mul(1u64 << retry)
        };
        doubled.min(self.cap_ms)
    }
}

/// A `gc` response: what the server's mark-and-sweep saw and freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Records examined.
    pub checked: u64,
    /// Records kept because a liveness root claimed them.
    pub live: u64,
    /// Garbage records deleted.
    pub swept: u64,
    /// Bytes reclaimed by the sweep.
    pub bytes_freed: u64,
}

/// A `status` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// `"queued"`, `"running"`, `"done"`, or `"cancelled"`.
    pub phase: String,
    /// Cells completed successfully.
    pub done: u64,
    /// Total cells in the grid.
    pub total: u64,
    /// Cells that exhausted their retries.
    pub failed: u64,
    /// Retry attempts so far.
    pub retries: u64,
}

/// One `watch` stream event (a completed cell).
#[derive(Debug, Clone, PartialEq)]
pub struct CellEvent {
    /// Cell index in canonical grid order.
    pub index: u64,
    /// Cells done so far (out-of-order completion means this is the
    /// count at send time, not `index + 1`).
    pub done: u64,
    /// Total cells.
    pub total: u64,
    /// Workload name.
    pub workload: String,
    /// Technique name.
    pub technique: String,
    /// The cell's IPC estimate.
    pub ipc: f64,
}

/// Blocking protocol client over one connection.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    fn from_stream(stream: Stream) -> Result<Client, ClientError> {
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Connects to a started [`crate::server::Server`]'s address.
    pub fn connect(addr: &BoundAddr) -> Result<Client, ClientError> {
        Client::from_stream(dial(addr)?)
    }

    /// Connects to a TCP address such as `127.0.0.1:7071`.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        Client::from_stream(Stream::Tcp(TcpStream::connect(addr)?))
    }

    /// [`Client::connect`] with bounded retry on transport errors,
    /// sleeping `backoff.delay_ms(n)` milliseconds between attempts via
    /// the injected `sleep` (tests pass a recorder; production code can
    /// use [`Client::connect_with_retry`]). Protocol and server errors
    /// are never retried — only [`ClientError::Io`].
    pub fn connect_with_retry_using(
        addr: &BoundAddr,
        backoff: &Backoff,
        sleep: &mut dyn FnMut(u64),
    ) -> Result<Client, ClientError> {
        let attempts = backoff.max_attempts.max(1);
        let mut retry = 0u32;
        loop {
            match Client::connect(addr) {
                Err(ClientError::Io(e)) if retry + 1 < attempts => {
                    sleep(backoff.delay_ms(retry));
                    retry += 1;
                    let _ = e;
                }
                other => return other,
            }
        }
    }

    /// [`Client::connect_with_retry_using`] with a real wall-clock sleep.
    pub fn connect_with_retry(addr: &BoundAddr, backoff: &Backoff) -> Result<Client, ClientError> {
        Client::connect_with_retry_using(addr, backoff, &mut |ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms))
        })
    }

    /// Submits a spec with bounded retry, opening a fresh connection per
    /// attempt. Transport errors wait the backoff delay; a server
    /// [`ClientError::Busy`] rejection waits the *larger* of the backoff
    /// delay and the server's `retry_after_ms` hint. Anything else (a
    /// malformed spec, an unknown tenant) fails immediately — retrying a
    /// deterministic rejection only repeats it.
    pub fn submit_with_retry_using(
        addr: &BoundAddr,
        tenant: &str,
        spec_json: &str,
        backoff: &Backoff,
        sleep: &mut dyn FnMut(u64),
    ) -> Result<String, ClientError> {
        let attempts = backoff.max_attempts.max(1);
        let mut retry = 0u32;
        loop {
            let result = Client::connect(addr).and_then(|mut c| c.submit(tenant, spec_json));
            let delay = match &result {
                Err(ClientError::Io(_)) => backoff.delay_ms(retry),
                Err(ClientError::Busy { retry_after_ms, .. }) => {
                    backoff.delay_ms(retry).max(*retry_after_ms)
                }
                _ => return result,
            };
            if retry + 1 >= attempts {
                return result;
            }
            sleep(delay);
            retry += 1;
        }
    }

    /// [`Client::submit_with_retry_using`] with a real wall-clock sleep.
    pub fn submit_with_retry(
        addr: &BoundAddr,
        tenant: &str,
        spec_json: &str,
        backoff: &Backoff,
    ) -> Result<String, ClientError> {
        Client::submit_with_retry_using(addr, tenant, spec_json, backoff, &mut |ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms))
        })
    }

    /// Sends one request line in a single write: a line split across two
    /// writes stalls its tail on Nagle's algorithm until the server's
    /// delayed ACK.
    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_raw_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("connection closed".to_string()));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Classifies one response line. A failure carrying `retry_after_ms`
    /// is the server's backpressure shape ([`ClientError::Busy`]); any
    /// other `"ok":false` is a terminal [`ClientError::Server`].
    fn interpret(line: &str) -> Result<Value, ClientError> {
        let v = json::parse(line)
            .map_err(|e| ClientError::Protocol(format!("bad response line: {e}")))?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let message = v
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified")
                    .to_string();
                match v.get("retry_after_ms").and_then(Value::as_u64) {
                    Some(retry_after_ms) => Err(ClientError::Busy {
                        message,
                        retry_after_ms,
                    }),
                    None => Err(ClientError::Server(message)),
                }
            }
            None => Err(ClientError::Protocol("response without \"ok\"".to_string())),
        }
    }

    fn read_response(&mut self) -> Result<Value, ClientError> {
        let line = self.read_raw_line()?;
        Self::interpret(&line)
    }

    fn round_trip(&mut self, request: &str) -> Result<Value, ClientError> {
        self.send(request)?;
        self.read_response()
    }

    fn field_u64(v: &Value, name: &str) -> Result<u64, ClientError> {
        v.get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("response missing {name:?}")))
    }

    fn field_str(v: &Value, name: &str) -> Result<String, ClientError> {
        Ok(v.get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| ClientError::Protocol(format!("response missing {name:?}")))?
            .to_string())
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.round_trip("{\"op\":\"ping\"}").map(|_| ())
    }

    /// Submits a campaign spec (a JSON object; see
    /// [`crate::spec::CampaignSpec::from_json`] for the schema) and
    /// returns the 16-hex-digit job id.
    ///
    /// The spec may be pretty-printed: the protocol is line-delimited,
    /// and raw newlines are illegal inside JSON strings, so flattening
    /// them away cannot change the spec's meaning.
    pub fn submit(&mut self, tenant: &str, spec_json: &str) -> Result<String, ClientError> {
        let mut req = String::from("{\"op\":\"submit\",\"tenant\":");
        json_string(&mut req, tenant);
        req.push_str(",\"spec\":");
        req.extend(spec_json.chars().filter(|c| *c != '\n' && *c != '\r'));
        req.push('}');
        let v = self.round_trip(&req)?;
        Self::field_str(&v, "job")
    }

    fn job_request(op: &str, job: &str) -> String {
        let mut req = format!("{{\"op\":\"{op}\",\"job\":");
        json_string(&mut req, job);
        req.push('}');
        req
    }

    /// Fetches a job's progress.
    pub fn status(&mut self, job: &str) -> Result<JobStatus, ClientError> {
        let v = self.round_trip(&Self::job_request("status", job))?;
        Ok(JobStatus {
            phase: Self::field_str(&v, "phase")?,
            done: Self::field_u64(&v, "done")?,
            total: Self::field_u64(&v, "total")?,
            failed: Self::field_u64(&v, "failed")?,
            retries: Self::field_u64(&v, "retries")?,
        })
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&mut self, job: &str) -> Result<(), ClientError> {
        self.round_trip(&Self::job_request("cancel", job))
            .map(|_| ())
    }

    /// Fetches a finished job's canonical campaign artifact — the exact
    /// lines [`pgss::CampaignReport::canonical_jsonl`] would produce.
    pub fn report(&mut self, job: &str) -> Result<Vec<String>, ClientError> {
        let v = self.round_trip(&Self::job_request("report", job))?;
        let n = Self::field_u64(&v, "lines")?;
        // Grown as lines arrive: `n` is the server's claim, not a bound.
        let mut lines = Vec::new();
        for _ in 0..n {
            lines.push(self.read_raw_line()?);
        }
        Ok(lines)
    }

    /// Fetches the server's own metric frame as one pinned-schema scope
    /// line (scope `serve`).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let v = self.round_trip("{\"op\":\"metrics\"}")?;
        let n = Self::field_u64(&v, "lines")?;
        let mut line = String::new();
        for _ in 0..n {
            line = self.read_raw_line()?;
        }
        Ok(line)
    }

    /// Watches a job: replays already-completed cells, then streams live
    /// completions until the job ends. `on_event` returning `false`
    /// stops watching early (the connection is consumed either way).
    /// Returns the job's final phase (or `"detached"` on server
    /// shutdown, `"stopped"` on early stop).
    pub fn watch(
        mut self,
        job: &str,
        mut on_event: impl FnMut(&CellEvent) -> bool,
    ) -> Result<String, ClientError> {
        self.send(&Self::job_request("watch", job))?;
        loop {
            let v = self.read_response()?;
            match v.get("event").and_then(Value::as_str) {
                Some("cell") => {
                    let ev = CellEvent {
                        index: Self::field_u64(&v, "index")?,
                        done: Self::field_u64(&v, "done")?,
                        total: Self::field_u64(&v, "total")?,
                        workload: Self::field_str(&v, "workload")?,
                        technique: Self::field_str(&v, "technique")?,
                        ipc: v.get("ipc").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    };
                    if !on_event(&ev) {
                        return Ok("stopped".to_string());
                    }
                }
                Some("end") => return Self::field_str(&v, "phase"),
                _ => return Err(ClientError::Protocol("unexpected watch line".to_string())),
            }
        }
    }

    /// Asks the server to drain: stop admitting and claiming work, let
    /// in-flight cells finish (or be lease-reaped), then exit 0. Returns
    /// the number of cells still in flight at the moment of the request.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        let v = self.round_trip("{\"op\":\"drain\"}")?;
        Self::field_u64(&v, "inflight")
    }

    /// Asks the server to garbage-collect its store: mark every record a
    /// live root can reach, sweep the rest.
    pub fn gc(&mut self) -> Result<GcOutcome, ClientError> {
        let v = self.round_trip("{\"op\":\"gc\"}")?;
        Ok(GcOutcome {
            checked: Self::field_u64(&v, "checked")?,
            live: Self::field_u64(&v, "live")?,
            swept: Self::field_u64(&v, "swept")?,
            bytes_freed: Self::field_u64(&v, "bytes_freed")?,
        })
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.round_trip("{\"op\":\"shutdown\"}").map(|_| ())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_saturates_and_caps() {
        let b = Backoff::default();
        assert_eq!(b.delay_ms(0), 50);
        assert_eq!(b.delay_ms(1), 100);
        assert_eq!(b.delay_ms(2), 200);
        assert_eq!(b.delay_ms(5), 1600);
        assert_eq!(b.delay_ms(6), 2000); // capped
        assert_eq!(b.delay_ms(200), 2000); // no shift overflow
        let uncapped = Backoff {
            max_attempts: 2,
            base_ms: u64::MAX / 2,
            cap_ms: u64::MAX,
        };
        assert_eq!(uncapped.delay_ms(63), u64::MAX); // saturates, no panic
    }

    #[test]
    fn busy_responses_surface_the_retry_hint() {
        let busy = Client::interpret(
            "{\"ok\":false,\"error\":\"tenant \\\"ci\\\" is at its queued-job quota (1)\",\
             \"retry_after_ms\":250}",
        );
        match busy {
            Err(ClientError::Busy {
                message,
                retry_after_ms,
            }) => {
                assert!(message.contains("quota"));
                assert_eq!(retry_after_ms, 250);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // A plain failure (no hint) stays a terminal server error.
        match Client::interpret("{\"ok\":false,\"error\":\"no such job\"}") {
            Err(ClientError::Server(m)) => assert_eq!(m, "no such job"),
            other => panic!("expected Server, got {other:?}"),
        }
        assert!(Client::interpret("{\"ok\":true,\"job\":\"ab\"}").is_ok());
    }

    #[cfg(unix)]
    #[test]
    fn connect_retry_sleeps_the_deterministic_schedule() {
        // A Unix socket path that does not exist refuses every connect,
        // so the retry loop runs its full schedule with no wall sleeps.
        let addr = BoundAddr::Unix(std::path::PathBuf::from(
            "/nonexistent/pgss-serve-client-test.sock",
        ));
        let mut slept = Vec::new();
        let got =
            Client::connect_with_retry_using(&addr, &Backoff::default(), &mut |ms| slept.push(ms));
        assert!(matches!(got, Err(ClientError::Io(_))));
        assert_eq!(slept, vec![50, 100, 200, 400]); // 5 attempts, 4 waits
    }

    #[cfg(unix)]
    #[test]
    fn submit_retry_gives_up_after_max_attempts() {
        let addr = BoundAddr::Unix(std::path::PathBuf::from(
            "/nonexistent/pgss-serve-client-test.sock",
        ));
        let mut slept = Vec::new();
        let backoff = Backoff {
            max_attempts: 3,
            base_ms: 10,
            cap_ms: 1000,
        };
        let got =
            Client::submit_with_retry_using(&addr, "ci", "{\"suite\":[]}", &backoff, &mut |ms| {
                slept.push(ms)
            });
        assert!(matches!(got, Err(ClientError::Io(_))));
        assert_eq!(slept, vec![10, 20]);
    }

    #[test]
    fn sequential_pings_do_not_stall_on_delayed_acks() {
        // Each request and response line must leave in one write: a line
        // split across two writes waits on Nagle's algorithm for the
        // peer's delayed ACK, tens of milliseconds per round trip.
        let dir = std::env::temp_dir().join(format!("pgss-serve-ping-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = crate::Server::start(
            &dir,
            crate::Listen::Tcp("127.0.0.1:0".into()),
            crate::ServeConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..100 {
            client.ping().unwrap();
        }
        let elapsed = start.elapsed();
        drop(client);
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "100 pings on one connection took {elapsed:?}"
        );
    }

    #[test]
    fn report_line_count_is_not_trusted_for_allocation() {
        use std::io::{BufRead, Write};
        // u64::MAX (unrepresentable as a JSON integer here) and 2^53, the
        // largest count the parser accepts: a pre-sized Vec of 2^53
        // Strings would abort the process on allocation failure.
        for lines in ["18446744073709551615", "9007199254740992"] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let mut request = String::new();
                reader.read_line(&mut request).unwrap();
                let mut stream = stream;
                writeln!(stream, "{{\"ok\":true,\"lines\":{lines}}}").unwrap();
                // Dropping the stream closes the connection.
            });
            let mut client = Client::connect(&BoundAddr::Tcp(addr)).unwrap();
            let got = client.report("0123456789abcdef");
            assert!(
                matches!(got, Err(ClientError::Protocol(_))),
                "lines {lines}: {got:?}"
            );
            server.join().unwrap();
        }
    }
}
