//! The output check: every cell line and per-cell metric-scope line of a
//! canonical campaign artifact against pinned digests.
//!
//! Cell lines (`"kind":"cell"`) are the same on every path. The per-cell
//! metric-scope lines differ between plain and checkpointed runs, which
//! legitimately count `driver.jumps` and `driver.ops.jumped`, so those are
//! pinned per path. `grid-ckpt-warm` and `serve-cold` check against the
//! same checkpointed pins; a header, order and line-by-line match on both
//! makes their artifacts byte-identical for a given seed.

use std::collections::BTreeMap;

use pgss_ckpt::fnv1a64;
use pgss_serve::json::{self, Value};

/// The pins the benchmark is built with (regenerate with `--print-pins`).
pub const BUILTIN_PINS: &str = include_str!("../pins.txt");

/// Which execution path produced an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `campaign::run_with`: no ladder, no jumps.
    Plain,
    /// A checkpoint ladder at the grid's stride, library or server.
    Checkpointed,
}

impl Path {
    fn scope_kind(self) -> &'static str {
        match self {
            Path::Plain => "scope-plain",
            Path::Checkpointed => "scope-ckpt",
        }
    }
}

/// Pinned line digests, keyed by kind and `(workload, technique)`.
#[derive(Debug, Default)]
pub struct Pins {
    digests: BTreeMap<(String, String, String), u64>,
}

impl Pins {
    /// Parses the pins format: `#` comments, then one
    /// `<kind>\t<workload>\t<technique>\t<16 hex digits>` line per pin,
    /// `<kind>` being `cell`, `scope-plain` or `scope-ckpt`.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Pins::default();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [kind, workload, technique, digest] = fields[..] else {
                return Err(format!(
                    "pins line {}: expected 4 tab-separated fields",
                    n + 1
                ));
            };
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| format!("pins line {}: bad digest: {e}", n + 1))?;
            pins.digests.insert(
                (
                    kind.to_string(),
                    workload.to_string(),
                    technique.to_string(),
                ),
                digest,
            );
        }
        Ok(pins)
    }

    fn get(&self, kind: &str, key: &(String, String)) -> Option<u64> {
        self.digests
            .get(&(kind.to_string(), key.0.clone(), key.1.clone()))
            .copied()
    }
}

/// The digest a pin holds for one artifact line.
pub fn line_digest(line: &str) -> u64 {
    fnv1a64(line.as_bytes())
}

/// Renders pins for a plain and a checkpointed artifact of the same grid.
pub fn render_pins(plain: &str, checkpointed: &str) -> Result<String, String> {
    let mut out = String::new();
    for (path, artifact) in [(Path::Plain, plain), (Path::Checkpointed, checkpointed)] {
        for line in artifact.lines() {
            match classify(line)? {
                Line::Cell(key) if path == Path::Plain => {
                    out.push_str(&pin_line("cell", &key, line));
                }
                Line::Scope(key) => out.push_str(&pin_line(path.scope_kind(), &key, line)),
                _ => {}
            }
        }
    }
    Ok(out)
}

fn pin_line(kind: &str, key: &(String, String), line: &str) -> String {
    format!("{kind}\t{}\t{}\t{:016x}\n", key.0, key.1, line_digest(line))
}

enum Line {
    Header,
    Cell((String, String)),
    Scope((String, String)),
    Other,
}

fn classify(line: &str) -> Result<Line, String> {
    let v = json::parse(line).map_err(|e| format!("artifact line is not JSON: {e}"))?;
    let field = |name: &str| v.get(name).and_then(Value::as_str).map(str::to_string);
    if let Some(scope) = field("scope") {
        return Ok(match scope.split_once('/') {
            Some((w, t)) => Line::Scope((w.to_string(), t.to_string())),
            None => Line::Other,
        });
    }
    Ok(match v.get("kind").and_then(Value::as_str) {
        Some("campaign") => Line::Header,
        Some("cell") => match (field("workload"), field("technique")) {
            (Some(w), Some(t)) => Line::Cell((w, t)),
            _ => Line::Other,
        },
        _ => Line::Other,
    })
}

/// The outcome of checking one artifact.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Expected cells whose cell or scope line is missing or differs
    /// from its pin (every cell, when the artifact's framing is wrong).
    pub mismatched: usize,
    /// One line per problem found.
    pub notes: Vec<String>,
}

/// Checks `artifact` against `pins` for the cells `keys` (in job order).
///
/// The artifact must be the header for a fault-free campaign, the cell
/// lines in job order, then the scope lines in job order. A cell counts
/// as mismatched when either of its lines is missing or differs from its
/// pin; a wrong header, order or extra line fails every cell.
pub fn check_artifact(
    artifact: &str,
    keys: &[(String, String)],
    pins: &Pins,
    path: Path,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut header_ok = false;
    let mut cells: Vec<((String, String), &str)> = Vec::new();
    let mut scopes: Vec<((String, String), &str)> = Vec::new();
    let mut stray = 0usize;
    for line in artifact.lines() {
        match classify(line) {
            Ok(Line::Header) => {
                header_ok = line == pgss::wire::canonical_header(keys.len(), 0, 0);
            }
            Ok(Line::Cell(key)) => cells.push((key, line)),
            Ok(Line::Scope(key)) => scopes.push((key, line)),
            Ok(Line::Other) | Err(_) => stray += 1,
        }
    }
    let in_job_order = |found: &[((String, String), &str)]| {
        found.len() == keys.len() && found.iter().zip(keys).all(|((k, _), want)| k == want)
    };
    if !header_ok || stray > 0 || !in_job_order(&cells) || !in_job_order(&scopes) {
        verdict.mismatched = keys.len();
        verdict.notes.push(format!(
            "artifact framing: header ok {header_ok}, {stray} stray lines, {} cell and {} scope \
             lines for {} cells (or out of job order)",
            cells.len(),
            scopes.len(),
            keys.len()
        ));
        return verdict;
    }
    for (i, key) in keys.iter().enumerate() {
        let mut bad = Vec::new();
        if pins.get("cell", key) != Some(line_digest(cells[i].1)) {
            bad.push("cell line");
        }
        if pins.get(path.scope_kind(), key) != Some(line_digest(scopes[i].1)) {
            bad.push("scope line");
        }
        if !bad.is_empty() {
            verdict.mismatched += 1;
            verdict.notes.push(format!(
                "{} / {}: {} differs from its pin",
                key.0,
                key.1,
                bad.join(" and ")
            ));
        }
    }
    verdict
}

/// Sums a counter over the artifact's per-cell scope lines.
pub fn scope_counter_sum(artifact: &str, counter: &str) -> u64 {
    artifact
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|v| v.get("scope").is_some())
        .filter_map(|v| v.get("counters")?.get(counter)?.as_u64())
        .sum()
}
