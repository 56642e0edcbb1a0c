//! The canonical campaign artifact.
//!
//! The campaign server persists each finished cell and each failure-ledger
//! entry as the artifact lines it renders and must reassemble them —
//! possibly across a server restart — into output **byte-identical** to a
//! direct library run. This module owns the line renderers behind that
//! contract — [`canonical_cell_line`] for a cell,
//! [`canonical_failure_line`] for a ledger entry and
//! [`canonical_artifact`] for the whole layout — which both
//! [`crate::CampaignReport::canonical_jsonl`] and the server's report
//! assembly use, so both sides emit the same bytes.
//!
//! [`WIRE_FORMAT_VERSION`] is printed in every artifact line, so a layout
//! change is visible to anything that compares artifacts.
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

// Artifact lines are what the server stores and reports; a stray unwrap
// here would turn one odd cell into an aborted report.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;

use pgss_obs::{json_f64, json_string};

use crate::campaign::{CellFailure, CellResult};

/// Version of the artifact's line layout, printed as `"v"` in every
/// artifact line. Bump on any layout change.
pub const WIRE_FORMAT_VERSION: u32 = 1;

/// The canonical campaign artifact, one JSONL line per element: the
/// header, every successful cell's [`canonical_cell_line`] in job order,
/// the failure ledger's [`canonical_failure_line`]s in job order, then the
/// per-cell metric `scope_lines` (each cell's annotated frame on the
/// pinned `pgss-obs` schema, in job order). The one layout behind both
/// [`crate::CampaignReport::canonical_jsonl`] and the campaign server's
/// reports, which pass lines rendered once when each cell settled.
pub fn canonical_artifact(
    cell_lines: Vec<String>,
    failure_lines: Vec<String>,
    retries: u64,
    scope_lines: Vec<String>,
) -> Vec<String> {
    let mut lines = vec![canonical_header(
        cell_lines.len(),
        failure_lines.len(),
        retries,
    )];
    lines.extend(cell_lines);
    lines.extend(failure_lines);
    lines.extend(scope_lines);
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
pub fn canonical_cell_line(cell: &CellResult) -> String {
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

/// One failure-ledger entry's artifact line; the cause is rendered in its
/// [`crate::CellError`] `Display` form.
pub fn canonical_failure_line(f: &CellFailure) -> String {
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
    json_string(&mut out, &f.error.to_string());
    out.push('}');
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::driver::RunTrace;
    use crate::estimate::{Estimate, PhaseSummary};
    use pgss_cpu::ModeOps;
    use pgss_stats::ConfidenceInterval;

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

    #[test]
    fn failure_line_format_is_pinned() {
        let f = CellFailure {
            job_index: 7,
            workload: "177.mesa".to_string(),
            technique: "PGSS".to_string(),
            attempts: 2,
            error: crate::campaign::CellError::Panicked("boom".to_string()),
        };
        assert_eq!(
            canonical_failure_line(&f),
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
