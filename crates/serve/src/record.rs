//! Durable job records: the versioned payloads the server persists in
//! the checkpoint store so a killed process resumes mid-campaign.
//!
//! A job is made durable as four record kinds, addressed by
//! [`pgss_ckpt::job_key`]:
//!
//! * **Index** (singleton) — every job id the store knows, its tenant,
//!   and the submit-sequence counter. Rewritten on submit.
//! * **Spec** — the immutable submission: the `submit` request line,
//!   verbatim ([`SpecRecord`]). Written once; on resume its `"spec"`
//!   object goes through [`crate::CampaignSpec::from_json`], the same
//!   validation a submit gets.
//! * **Status** — the mutable phase, retry count, and failure ledger, each
//!   ledger entry stored as the artifact line it prints
//!   ([`pgss::wire::canonical_failure_line`]). Rewritten (atomically, via
//!   the store's write-then-rename) on every transition.
//! * **Cell** — one completed cell as the artifact lines it prints: its
//!   [`pgss::wire::canonical_cell_line`], its annotated metric-scope
//!   line, and the IPC its watch event quotes ([`CellRecord`]). Rendered
//!   and written exactly once per cell, when it finishes; their presence
//!   *is* the completion set, so resume never trusts a stale summary
//!   over the ground truth.
//!
//! Every payload starts with [`JOB_RECORD_VERSION`]; the store layer
//! additionally checksums and versions the container, so torn or corrupt
//! records surface as typed faults, get quarantined, and the affected
//! work is simply re-run.

use pgss::campaign::{annotate_cell_frame, CellResult};
use pgss::wire::canonical_cell_line;
use pgss_ckpt::{CodecError, Decoder, Encoder};
use pgss_obs::{scope_line, MetricsFrame};

/// Version of every job-record payload in this module. A record written
/// under another version reads as a decode error and gets the usual
/// corrupt-record treatment (quarantine, then re-run or start empty).
pub const JOB_RECORD_VERSION: u32 = 3;

/// Where a job is in its lifecycle. `Done` and `Cancelled` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, no cell has started (possibly quota-gated).
    Queued,
    /// At least one cell has started.
    Running,
    /// Every cell finished or exhausted its retries.
    Done,
    /// Cancelled by the client; no further cells will run.
    Cancelled,
}

impl JobPhase {
    /// Protocol rendering (`"queued"`, `"running"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// True for `Done` and `Cancelled`.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Cancelled)
    }

    fn tag(self) -> u8 {
        match self {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
            JobPhase::Done => 2,
            JobPhase::Cancelled => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<JobPhase, CodecError> {
        Ok(match tag {
            0 => JobPhase::Queued,
            1 => JobPhase::Running,
            2 => JobPhase::Done,
            3 => JobPhase::Cancelled,
            _ => return Err(CodecError::Malformed("unknown job phase")),
        })
    }
}

/// The singleton job index: submit-sequence counter plus every job's id
/// and tenant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexRecord {
    /// Next submission sequence number.
    pub next_seq: u64,
    /// `(job id, tenant)` in submission order.
    pub jobs: Vec<(u64, String)>,
}

impl IndexRecord {
    /// Serialises the index.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(JOB_RECORD_VERSION);
        e.put_u64(self.next_seq);
        e.put_u64(self.jobs.len() as u64);
        for (id, tenant) in &self.jobs {
            e.put_u64(*id);
            e.put_str(tenant);
        }
        e.into_bytes()
    }

    /// Deserialises [`IndexRecord::encode`]'s bytes.
    pub fn decode(bytes: &[u8]) -> Result<IndexRecord, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_version(JOB_RECORD_VERSION, "job record version mismatch")?;
        let next_seq = d.get_u64()?;
        let n = d.get_len(1)?;
        let mut jobs = Vec::with_capacity(n);
        for _ in 0..n {
            let id = d.get_u64()?;
            jobs.push((id, d.get_str()?));
        }
        d.finish()?;
        Ok(IndexRecord { next_seq, jobs })
    }
}

/// A job's immutable submission record: the `submit` request line it
/// was accepted from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRecord {
    /// The request line, verbatim.
    pub request: String,
}

impl SpecRecord {
    /// Serialises the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(JOB_RECORD_VERSION);
        e.put_str(&self.request);
        e.into_bytes()
    }

    /// Deserialises [`SpecRecord::encode`]'s bytes.
    pub fn decode(bytes: &[u8]) -> Result<SpecRecord, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_version(JOB_RECORD_VERSION, "job record version mismatch")?;
        let request = d.get_str()?;
        d.finish()?;
        Ok(SpecRecord { request })
    }
}

/// A job's mutable status record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusRecord {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Total retry attempts performed so far.
    pub retries: u64,
    /// Terminal failures as `(job index, artifact line)`, in job-index
    /// order; these cells are settled and are **not** re-run on resume.
    pub failures: Vec<(u64, String)>,
}

impl StatusRecord {
    /// Serialises the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(JOB_RECORD_VERSION);
        e.put_u8(self.phase.tag());
        e.put_u64(self.retries);
        e.put_u64(self.failures.len() as u64);
        for (cell, line) in &self.failures {
            e.put_u64(*cell);
            e.put_str(line);
        }
        e.into_bytes()
    }

    /// Deserialises [`StatusRecord::encode`]'s bytes.
    pub fn decode(bytes: &[u8]) -> Result<StatusRecord, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_version(JOB_RECORD_VERSION, "job record version mismatch")?;
        let phase = JobPhase::from_tag(d.get_u8()?)?;
        let retries = d.get_u64()?;
        let n = d.get_len(16)?;
        let mut failures = Vec::with_capacity(n);
        for _ in 0..n {
            let cell = d.get_u64()?;
            failures.push((cell, d.get_str()?));
        }
        d.finish()?;
        Ok(StatusRecord {
            phase,
            retries,
            failures,
        })
    }
}

/// One finished cell, stored as what the report prints.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell's IPC estimate, quoted by its watch event.
    pub ipc: f64,
    /// The cell's canonical artifact line
    /// ([`pgss::wire::canonical_cell_line`]).
    pub cell_line: String,
    /// The cell's annotated metric frame as a `pgss-obs` scope line.
    pub scope_line: String,
}

impl CellRecord {
    /// Renders a finished cell: annotates its raw metric `frame` with
    /// [`annotate_cell_frame`] and renders both artifact lines, exactly
    /// as [`pgss::CampaignReport::canonical_jsonl`] would.
    pub fn new(cell: &CellResult, mut frame: MetricsFrame) -> CellRecord {
        annotate_cell_frame(cell, &mut frame);
        CellRecord {
            ipc: cell.estimate.ipc,
            cell_line: canonical_cell_line(cell),
            scope_line: scope_line(&cell.scope_name(), &frame),
        }
    }

    /// Serialises the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(JOB_RECORD_VERSION);
        e.put_f64(self.ipc);
        e.put_str(&self.cell_line);
        e.put_str(&self.scope_line);
        e.into_bytes()
    }

    /// Deserialises [`CellRecord::encode`]'s bytes.
    pub fn decode(bytes: &[u8]) -> Result<CellRecord, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_version(JOB_RECORD_VERSION, "job record version mismatch")?;
        let ipc = d.get_f64()?;
        let cell_line = d.get_str()?;
        let scope_line = d.get_str()?;
        d.finish()?;
        Ok(CellRecord {
            ipc,
            cell_line,
            scope_line,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn index_record() -> IndexRecord {
        IndexRecord {
            next_seq: 3,
            jobs: vec![(0xdead, "t0".into()), (0xbeef, "t1".into())],
        }
    }

    fn spec_record() -> SpecRecord {
        SpecRecord {
            request: r#"{"op":"submit","tenant":"t0","spec":{"suite":[{"name":"164.gzip","scale":0.01}],"techniques":[{"kind":"smarts","period_ops":50000}],"stride":50000}}"#.into(),
        }
    }

    fn status_record() -> StatusRecord {
        StatusRecord {
            phase: JobPhase::Running,
            retries: 4,
            failures: vec![(
                1,
                "{\"v\":1,\"kind\":\"failure\",\"job\":1,\"workload\":\"164.gzip\",\
                 \"technique\":\"SMARTS(50k)\",\"attempts\":2,\
                 \"error\":\"technique panicked: boom\"}"
                    .into(),
            )],
        }
    }

    fn cell_record() -> CellRecord {
        CellRecord {
            ipc: 1.234_567_890_123_456_7,
            cell_line: "{\"v\":1,\"kind\":\"cell\",\"workload\":\"164.gzip\"}".into(),
            scope_line: "{\"v\":1,\"scope\":\"164.gzip/SMARTS(50k)\"}".into(),
        }
    }

    #[test]
    fn records_roundtrip() {
        let idx = index_record();
        assert_eq!(IndexRecord::decode(&idx.encode()).unwrap(), idx);
        let sr = spec_record();
        assert_eq!(SpecRecord::decode(&sr.encode()).unwrap(), sr);
        let st = status_record();
        assert_eq!(StatusRecord::decode(&st.encode()).unwrap(), st);

        let cell = cell_record();
        let back = CellRecord::decode(&cell.encode()).unwrap();
        assert_eq!(back, cell);
        assert_eq!(back.ipc.to_bits(), cell.ipc.to_bits());
    }

    #[test]
    fn corrupt_records_are_rejected() {
        let st = StatusRecord {
            phase: JobPhase::Done,
            retries: 0,
            failures: vec![],
        };
        let bytes = st.encode();
        let mut bad = bytes.clone();
        bad[0] ^= 0xff; // version
        assert!(StatusRecord::decode(&bad).is_err());
        assert!(StatusRecord::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_phase = bytes.clone();
        bad_phase[4] = 9;
        assert!(StatusRecord::decode(&bad_phase).is_err());

        let bytes = cell_record().encode();
        let mut bad = bytes.clone();
        bad[0] ^= 0xff; // version
        assert!(CellRecord::decode(&bad).is_err());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(CellRecord::decode(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CellRecord::decode(&trailing).is_err());
    }

    #[test]
    fn job_record_format_is_pinned() {
        // Bump JOB_RECORD_VERSION deliberately when a digest changes; a
        // store written under the old layout then has its index
        // quarantined and starts empty instead of decoding wrongly.
        assert_eq!(JOB_RECORD_VERSION, 3);
        let digests = [
            index_record().encode(),
            spec_record().encode(),
            status_record().encode(),
            cell_record().encode(),
        ]
        .map(|bytes| pgss_ckpt::fnv1a64(&bytes));
        assert_eq!(
            digests,
            [
                0x4ae8_2c7e_1975_2356,
                0x8c6a_9186_987c_0bd7,
                0xfe7b_5a26_8c5d_db4b,
                0xf20f_4c9d_068e_0da8,
            ],
            "a job-record encoding changed (index, spec, status, cell); \
             bump JOB_RECORD_VERSION"
        );
    }

    #[test]
    fn phase_protocol_names() {
        assert_eq!(JobPhase::Queued.as_str(), "queued");
        assert!(JobPhase::Done.is_terminal());
        assert!(JobPhase::Cancelled.is_terminal());
        assert!(!JobPhase::Running.is_terminal());
    }
}
