//! Versioned byte codecs and the canonical campaign artifact.
//!
//! The campaign server persists per-cell results and metric frames in the
//! checkpoint store and must reassemble them — possibly across a server
//! restart — into output **byte-identical** to a direct library run. This
//! module owns both halves of that contract:
//!
//! * binary codecs (on [`pgss_ckpt::codec`]) for [`CellResult`],
//!   [`MetricsFrame`], and failure-ledger entries, versioned by
//!   [`WIRE_FORMAT_VERSION`] so a layout change orphans old records
//!   instead of misreading them;
//! * the *canonical campaign artifact* renderer,
//!   [`canonical_artifact`], behind both
//!   [`crate::CampaignReport::canonical_jsonl`] and the server's report
//!   assembly, so both sides emit the same bytes.
//!
//! # What the canonical artifact contains
//!
//! A header (cell/failure/retry counts), one line per successful cell in
//! job order (estimate, mode ops, CI, phase summary, driver trace), one
//! line per ledger entry, then the per-cell metric scopes on the pinned
//! `pgss-obs` JSONL schema. It deliberately **excludes** the `"campaign"`
//! metric scope and the ladder/checkpoint-fault accounting: those
//! describe *how* the run was executed (store hits vs. captures, healed
//! faults, wall spans) and legitimately differ between an uninterrupted
//! run and a resumed one, while everything in the artifact is a pure
//! function of the job grid.
//!
//! Span wall times never enter the artifact (scope lines carry counts
//! only — see `pgss_obs`), and floats are emitted with shortest-roundtrip
//! formatting, so bit-identical results produce byte-identical artifacts.

// Decoded records feed campaign reports; a stray unwrap would turn a
// corrupt record into an abort instead of a typed error.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;

use pgss_ckpt::{CodecError, Decoder, Encoder};
use pgss_obs::{json_f64, json_string, scope_line, MetricsFrame, SpanStat};
use pgss_stats::{ConfidenceInterval, Histogram, Welford};

use crate::campaign::{CellFailure, CellResult};
use crate::ckpt::{get_mode_ops, put_mode_ops};
use crate::driver::RunTrace;
use crate::estimate::{Estimate, PhaseSummary};

/// Version of every encoding in this module. Bump on any layout change;
/// decoders reject other versions.
pub const WIRE_FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Cell results

fn put_estimate(e: &mut Encoder, est: &Estimate) {
    e.put_f64(est.ipc);
    put_mode_ops(e, est.mode_ops);
    e.put_u64(est.samples);
    e.put_bool(est.phases.is_some());
    if let Some(p) = &est.phases {
        e.put_u64(p.phases as u64);
        e.put_u64(p.changes);
        e.put_u64_slice(&p.samples_per_phase);
        e.put_u64(p.weights.len() as u64);
        for &w in &p.weights {
            e.put_f64(w);
        }
    }
    e.put_bool(est.ci.is_some());
    if let Some(ci) = &est.ci {
        e.put_f64(ci.mean);
        e.put_f64(ci.half_width);
        e.put_u64(ci.n);
    }
}

fn get_estimate(d: &mut Decoder<'_>) -> Result<Estimate, CodecError> {
    let ipc = d.get_f64()?;
    let mode_ops = get_mode_ops(d)?;
    let samples = d.get_u64()?;
    let phases = if d.get_bool()? {
        let phases = usize::try_from(d.get_u64()?)
            .map_err(|_| CodecError::Malformed("phase count overflow"))?;
        let changes = d.get_u64()?;
        let samples_per_phase = d.get_u64_slice()?;
        let n = d.get_len(8)?;
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            weights.push(d.get_f64()?);
        }
        Some(PhaseSummary {
            phases,
            changes,
            samples_per_phase,
            weights,
        })
    } else {
        None
    };
    let ci = if d.get_bool()? {
        Some(ConfidenceInterval {
            mean: d.get_f64()?,
            half_width: d.get_f64()?,
            n: d.get_u64()?,
        })
    } else {
        None
    };
    Ok(Estimate {
        ipc,
        mode_ops,
        samples,
        phases,
        ci,
    })
}

fn put_trace(e: &mut Encoder, t: &RunTrace) {
    for &s in &t.segments {
        e.put_u64(s);
    }
    e.put_u64(t.truncated_segments);
    e.put_u64(t.samples_taken);
    e.put_u64(t.skipped_ci_met);
    e.put_u64(t.skipped_spacing);
    e.put_u64(t.phases_created);
    e.put_u64(t.phase_changes);
}

fn get_trace(d: &mut Decoder<'_>) -> Result<RunTrace, CodecError> {
    let mut segments = [0u64; 4];
    for s in &mut segments {
        *s = d.get_u64()?;
    }
    Ok(RunTrace {
        segments,
        truncated_segments: d.get_u64()?,
        samples_taken: d.get_u64()?,
        skipped_ci_met: d.get_u64()?,
        skipped_spacing: d.get_u64()?,
        phases_created: d.get_u64()?,
        phase_changes: d.get_u64()?,
    })
}

/// Encodes one completed cell — result plus its (un-annotated) metric
/// frame — as a versioned record payload.
pub fn encode_cell_record(cell: &CellResult, frame: &MetricsFrame) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(WIRE_FORMAT_VERSION);
    e.put_str(&cell.workload);
    e.put_str(&cell.technique);
    put_estimate(&mut e, &cell.estimate);
    put_trace(&mut e, &cell.trace);
    put_frame(&mut e, frame);
    e.into_bytes()
}

/// Decodes a record produced by [`encode_cell_record`].
pub fn decode_cell_record(bytes: &[u8]) -> Result<(CellResult, MetricsFrame), CodecError> {
    let mut d = Decoder::new(bytes);
    d.expect_version(WIRE_FORMAT_VERSION, "wire format version mismatch")?;
    let workload = d.get_str()?;
    let technique = d.get_str()?;
    let estimate = get_estimate(&mut d)?;
    let trace = get_trace(&mut d)?;
    let frame = get_frame(&mut d)?;
    d.finish()?;
    Ok((
        CellResult {
            workload,
            technique,
            estimate,
            trace,
        },
        frame,
    ))
}

// ---------------------------------------------------------------------------
// Metric frames

/// Encodes a [`MetricsFrame`] body (no version header — callers embed
/// frames inside versioned records).
///
/// Span **wall times are dropped** (counts survive): wall time is
/// nondeterministic and already excluded from frame equality and the
/// JSONL export, so round-tripping a frame preserves everything those
/// contracts observe.
pub fn put_frame(e: &mut Encoder, frame: &MetricsFrame) {
    e.put_u64(frame.counters.len() as u64);
    for (k, &v) in &frame.counters {
        e.put_str(k);
        e.put_u64(v);
    }
    e.put_u64(frame.spans.len() as u64);
    for (k, s) in &frame.spans {
        e.put_str(k);
        e.put_u64(s.count);
    }
    e.put_u64(frame.dists.len() as u64);
    for (k, w) in &frame.dists {
        e.put_str(k);
        e.put_u64(w.count());
        e.put_f64(w.mean());
        e.put_f64(w.m2());
    }
    e.put_u64(frame.hists.len() as u64);
    for (k, h) in &frame.hists {
        e.put_str(k);
        e.put_f64(h.min());
        e.put_f64(h.max());
        e.put_u64_slice(h.counts());
    }
}

/// Decodes a frame body written by [`put_frame`].
pub fn get_frame(d: &mut Decoder<'_>) -> Result<MetricsFrame, CodecError> {
    let mut frame = MetricsFrame::new();
    for _ in 0..d.get_u64()? {
        let k = d.get_str()?;
        frame.counters.insert(k, d.get_u64()?);
    }
    for _ in 0..d.get_u64()? {
        let k = d.get_str()?;
        frame.spans.insert(
            k,
            SpanStat {
                count: d.get_u64()?,
                total_ns: 0,
            },
        );
    }
    for _ in 0..d.get_u64()? {
        let k = d.get_str()?;
        let n = d.get_u64()?;
        let mean = d.get_f64()?;
        let m2 = d.get_f64()?;
        frame.dists.insert(k, Welford::from_parts(n, mean, m2));
    }
    for _ in 0..d.get_u64()? {
        let k = d.get_str()?;
        let min = d.get_f64()?;
        let max = d.get_f64()?;
        let counts = d.get_counts()?;
        if counts.is_empty() || !(min.is_finite() && max.is_finite() && min < max) {
            return Err(CodecError::Malformed("histogram shape"));
        }
        frame
            .hists
            .insert(k, Histogram::from_parts(min, max, counts));
    }
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Failure-ledger entries

/// Encodes one failure-ledger entry.
pub fn put_failure(e: &mut Encoder, f: &WireFailure) {
    e.put_u64(f.job_index as u64);
    e.put_str(&f.workload);
    e.put_str(&f.technique);
    e.put_u32(f.attempts);
    e.put_str(&f.error);
}

/// A failure-ledger entry as persisted. The cause is stored **rendered**
/// (the [`crate::CellError`] `Display` form): the ledger's purpose
/// downstream of a campaign is the human-readable report line, and
/// rendering at fail time keeps the record format independent of the
/// `CellError` variant set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFailure {
    /// Index of the failed cell in the campaign's job grid.
    pub job_index: usize,
    /// Workload name of the failed cell.
    pub workload: String,
    /// Technique name of the failed cell.
    pub technique: String,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Rendered terminal error.
    pub error: String,
}

impl From<&CellFailure> for WireFailure {
    fn from(f: &CellFailure) -> WireFailure {
        WireFailure {
            job_index: f.job_index,
            workload: f.workload.clone(),
            technique: f.technique.clone(),
            attempts: f.attempts,
            error: f.error.to_string(),
        }
    }
}

/// Decodes an entry written by [`put_failure`].
pub fn get_failure(d: &mut Decoder<'_>) -> Result<WireFailure, CodecError> {
    Ok(WireFailure {
        job_index: usize::try_from(d.get_u64()?)
            .map_err(|_| CodecError::Malformed("job index overflow"))?,
        workload: d.get_str()?,
        technique: d.get_str()?,
        attempts: d.get_u32()?,
        error: d.get_str()?,
    })
}

// ---------------------------------------------------------------------------
// Canonical campaign artifact

/// The canonical campaign artifact, one JSONL line per element: the
/// header, every successful cell in job order, the failure ledger, then
/// the per-cell metric `scopes` (name and annotated frame, in job order)
/// on the pinned `pgss-obs` schema. The one layout behind both
/// [`crate::CampaignReport::canonical_jsonl`] and the campaign server's
/// reports.
pub fn canonical_artifact<'a>(
    cells: &[CellResult],
    failures: &[WireFailure],
    retries: u64,
    scopes: impl IntoIterator<Item = (&'a str, &'a MetricsFrame)>,
) -> Vec<String> {
    let mut lines = vec![canonical_header(cells.len(), failures.len(), retries)];
    lines.extend(cells.iter().map(canonical_cell_line));
    lines.extend(failures.iter().map(canonical_failure_line));
    lines.extend(
        scopes
            .into_iter()
            .map(|(name, frame)| scope_line(name, frame)),
    );
    lines
}

/// The artifact's header line: campaign-level counts.
pub fn canonical_header(cells: usize, failed: usize, retries: u64) -> String {
    format!(
        "{{\"v\":{WIRE_FORMAT_VERSION},\"kind\":\"campaign\",\
         \"cells\":{cells},\"failed\":{failed},\"retries\":{retries}}}"
    )
}

/// One successful cell's artifact line: the full estimate and driver
/// trace, floats in shortest-roundtrip form.
fn canonical_cell_line(cell: &CellResult) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"v\":{WIRE_FORMAT_VERSION},\"kind\":\"cell\",");
    out.push_str("\"workload\":");
    json_string(&mut out, &cell.workload);
    out.push_str(",\"technique\":");
    json_string(&mut out, &cell.technique);
    out.push_str(",\"ipc\":");
    json_f64(&mut out, cell.estimate.ipc);
    let ops = cell.estimate.mode_ops;
    let _ = write!(
        out,
        ",\"mode_ops\":{{\"fast_forward\":{},\"functional\":{},\"warm\":{},\"detail\":{}}}",
        ops.fast_forward, ops.functional, ops.detailed_warming, ops.detailed_measured
    );
    let _ = write!(out, ",\"samples\":{}", cell.estimate.samples);
    out.push_str(",\"ci\":");
    match &cell.estimate.ci {
        Some(ci) => {
            out.push_str("{\"mean\":");
            json_f64(&mut out, ci.mean);
            out.push_str(",\"half_width\":");
            json_f64(&mut out, ci.half_width);
            let _ = write!(out, ",\"n\":{}}}", ci.n);
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"phases\":");
    match &cell.estimate.phases {
        Some(p) => {
            let _ = write!(out, "{{\"phases\":{},\"changes\":{}", p.phases, p.changes);
            out.push_str(",\"samples_per_phase\":[");
            for (i, s) in p.samples_per_phase.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{s}");
            }
            out.push_str("],\"weights\":[");
            for (i, w) in p.weights.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_f64(&mut out, *w);
            }
            out.push_str("]}");
        }
        None => out.push_str("null"),
    }
    let t = &cell.trace;
    let _ = write!(
        out,
        ",\"trace\":{{\"segments\":[{},{},{},{}],\"truncated\":{},\"samples_taken\":{},\
         \"skipped_ci_met\":{},\"skipped_spacing\":{},\"phases_created\":{},\
         \"phase_changes\":{}}}}}",
        t.segments[0],
        t.segments[1],
        t.segments[2],
        t.segments[3],
        t.truncated_segments,
        t.samples_taken,
        t.skipped_ci_met,
        t.skipped_spacing,
        t.phases_created,
        t.phase_changes
    );
    out
}

/// One failure-ledger artifact line.
fn canonical_failure_line(f: &WireFailure) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"v\":{WIRE_FORMAT_VERSION},\"kind\":\"failure\",\"job\":{},\"workload\":",
        f.job_index
    );
    json_string(&mut out, &f.workload);
    out.push_str(",\"technique\":");
    json_string(&mut out, &f.technique);
    let _ = write!(out, ",\"attempts\":{},\"error\":", f.attempts);
    json_string(&mut out, &f.error);
    out.push('}');
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pgss_cpu::ModeOps;

    fn sample_cell() -> CellResult {
        CellResult {
            workload: "164.gzip".to_string(),
            technique: "SMARTS(50k)".to_string(),
            estimate: Estimate {
                ipc: 1.2345678901234567,
                mode_ops: ModeOps {
                    fast_forward: 10,
                    functional: 1_000_000,
                    detailed_warming: 3_000,
                    detailed_measured: 1_000,
                },
                samples: 42,
                phases: Some(PhaseSummary {
                    phases: 3,
                    changes: 17,
                    samples_per_phase: vec![10, 20, 12],
                    weights: vec![0.5, 0.25, 0.25],
                }),
                ci: Some(ConfidenceInterval {
                    mean: 1.23,
                    half_width: 0.04,
                    n: 42,
                }),
            },
            trace: RunTrace {
                segments: [1, 200, 40, 40],
                truncated_segments: 1,
                samples_taken: 42,
                skipped_ci_met: 3,
                skipped_spacing: 5,
                phases_created: 3,
                phase_changes: 17,
            },
        }
    }

    fn sample_frame() -> MetricsFrame {
        let mut f = MetricsFrame::new();
        f.add("driver.ops.functional", 1_000_000);
        f.spans.insert(
            "cell.run".to_string(),
            SpanStat {
                count: 1,
                total_ns: 987,
            },
        );
        f.dists
            .insert("ipc".to_string(), [1.0, 1.5, 2.0].into_iter().collect());
        let mut h = Histogram::new(0.0, 2.0, 4);
        h.add(1.1);
        f.hists.insert("share".to_string(), h);
        f
    }

    #[test]
    fn cell_record_roundtrips() {
        let cell = sample_cell();
        let frame = sample_frame();
        let bytes = encode_cell_record(&cell, &frame);
        let (cell2, frame2) = decode_cell_record(&bytes).unwrap();
        assert_eq!(cell, cell2);
        // Frame equality ignores span wall time, which the codec drops.
        assert_eq!(frame, frame2);
        assert_eq!(frame2.span("cell.run").unwrap().total_ns, 0);
        assert_eq!(
            frame.dists["ipc"].mean().to_bits(),
            frame2.dists["ipc"].mean().to_bits()
        );
    }

    #[test]
    fn cell_record_rejects_version_and_truncation() {
        let bytes = encode_cell_record(&sample_cell(), &sample_frame());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(decode_cell_record(&bad).is_err());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_cell_record(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn failure_roundtrips() {
        let f = WireFailure {
            job_index: 7,
            workload: "177.mesa".to_string(),
            technique: "PGSS".to_string(),
            attempts: 2,
            error: crate::campaign::CellError::Panicked("boom".to_string()).to_string(),
        };
        let mut e = Encoder::new();
        put_failure(&mut e, &f);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = get_failure(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, f);
        assert_eq!(back.error, "technique panicked: boom");
        assert_eq!(
            canonical_failure_line(&back),
            "{\"v\":1,\"kind\":\"failure\",\"job\":7,\"workload\":\"177.mesa\",\
             \"technique\":\"PGSS\",\"attempts\":2,\"error\":\"technique panicked: boom\"}"
        );
    }

    #[test]
    fn canonical_lines_are_valid_shapes() {
        let header = canonical_header(9, 1, 2);
        assert!(header.starts_with("{\"v\":1,\"kind\":\"campaign\""));
        assert!(header.contains("\"cells\":9"));
        let line = canonical_cell_line(&sample_cell());
        assert!(line.contains("\"workload\":\"164.gzip\""));
        assert!(line.contains("\"segments\":[1,200,40,40]"));
        assert!(line.ends_with("}}"));
        // Bit-identical estimates produce byte-identical lines.
        assert_eq!(line, canonical_cell_line(&sample_cell()));
        let mut other = sample_cell();
        other.estimate.ipc = f64::from_bits(other.estimate.ipc.to_bits() ^ 1);
        assert_ne!(line, canonical_cell_line(&other));
    }
}
