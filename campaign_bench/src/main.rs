//! Campaign wall-time benchmark for PGSS-Sim.
//!
//! Runs the Figure 12 fixed-configuration grid (see [`grid`]) one of three
//! ways, checks every cell's output against pinned digests, and prints one
//! JSON result line last on standard output:
//!
//! * `grid-plain`: `campaign::run_with`, no checkpoint ladder;
//! * `grid-ckpt-warm`: `campaign::run_checkpointed_with` against a private
//!   store that set-up has already filled;
//! * `serve-cold`: the grid as one `CampaignSpec`, submitted to an
//!   in-process `pgss-serve` over loopback TCP by one closed-loop client
//!   (submit, watch to the end, report), on a fresh store every time.
//!
//! ```text
//! campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--benchmarks <a,b,..|all>] [--pins <file>]
//! campaign_bench --print-pins
//! ```
//!
//! `--trace 0` repeats set-up plus campaign until `--seconds` would be
//! exceeded and reports the end-to-end metrics (medians over iterations).
//! `--trace 1` alternates untraced and traced iterations, runs the layer
//! probes of [`probes`], reports the per-layer metrics, and writes the
//! benchmark's spans to `.bench_work/traces/`. All files live under
//! `.bench_work/` in the working directory.

#![forbid(unsafe_code)]

mod check;
mod grid;
mod probes;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use pgss::{campaign, CampaignConfig, CheckpointLadder, FullDetailed, MetricsFrame};
use pgss_ckpt::Store;
use pgss_cpu::MachineConfig;
use pgss_serve::json::{self, Value};
use pgss_serve::{Client, Listen, ServeConfig, Server};

use check::{Path, Pins};
use grid::{Grid, STRIDE, WORKERS};
use stats::{median, quantile, tail_level, TAIL_BEYOND};
use trace::Tracer;

/// The three ways the benchmark runs the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GridPlain,
    GridCkptWarm,
    ServeCold,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::GridPlain,
        Workload::GridCkptWarm,
        Workload::ServeCold,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::GridPlain => "grid-plain",
            Workload::GridCkptWarm => "grid-ckpt-warm",
            Workload::ServeCold => "serve-cold",
        }
    }

    fn path(self) -> Path {
        match self {
            Workload::GridPlain => Path::Plain,
            Workload::GridCkptWarm | Workload::ServeCold => Path::Checkpointed,
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    benchmarks: Vec<String>,
    pins: Option<PathBuf>,
    print_pins: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        benchmarks: grid::DEFAULT_BENCHMARKS.map(String::from).to_vec(),
        pins: None,
        print_pins: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--print-pins" {
            parsed.print_pins = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                };
            }
            "--benchmarks" => {
                parsed.benchmarks = if value == "all" {
                    pgss_workloads::SUITE_NAMES.map(String::from).to_vec()
                } else {
                    value.split(',').map(String::from).collect()
                };
                for name in &parsed.benchmarks {
                    if !pgss_workloads::SUITE_NAMES.contains(&name.as_str()) {
                        return Err(bad("unknown benchmark"));
                    }
                }
            }
            "--pins" => parsed.pins = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// A private directory under `.bench_work/`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(label: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one campaign left behind for the per-layer analysis.
#[derive(Default)]
struct Observed {
    /// Every cell scope folded: driver op counters and wall spans, and
    /// `cell.run`. Empty for the server, which exports no wall times.
    cells: MetricsFrame,
    /// `cell.run` seconds summed per technique name.
    per_technique_s: BTreeMap<String, f64>,
    /// The campaign scope's counters (library) or the server's `metrics`
    /// verb counters.
    counters: BTreeMap<String, u64>,
    /// The canonical campaign artifact.
    artifact: String,
}

/// One set-up plus campaign.
struct Iteration {
    setup_s: f64,
    campaign_s: f64,
    first_result_s: f64,
    /// Per-cell seconds: `cell.run` spans for library runs. The server
    /// exposes no cell spans, so there these are the gaps between
    /// consecutive results on the watch stream: the cadence a watching
    /// client sees, and unlike arrival times since submit, not dominated
    /// by where the grid order puts the expensive cells.
    cell_s: Vec<f64>,
    logical_ops: u64,
    mean_error_pct: f64,
    failed: usize,
    observed: Observed,
}

/// Where a campaign runs after set-up.
enum Target {
    Library(Option<Store>),
    Server(Server),
}

struct Bench {
    workload: Workload,
    benchmarks: Vec<String>,
    seed: u64,
    pins: Pins,
    work: WorkDir,
}

impl Bench {
    fn new(workload: Workload, args: &Args) -> Result<Bench, String> {
        let pins_text = match &args.pins {
            Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
            None => check::BUILTIN_PINS.to_string(),
        };
        Ok(Bench {
            workload,
            benchmarks: args.benchmarks.clone(),
            seed: args.seed,
            pins: Pins::parse(&pins_text)?,
            work: WorkDir::new(workload.name())?,
        })
    }

    /// The grid of round `round`: the run's seed order, rotated by the
    /// round, so a run's medians span several orders.
    fn grid(&self, round: usize) -> Grid {
        Grid::new(&self.benchmarks, self.seed, round)
    }

    /// Cells per campaign.
    fn cells(&self) -> usize {
        self.benchmarks.len() * grid::techniques().len()
    }

    /// One set-up plus campaign on the grid of round `round`; spans carry
    /// trace id `index`.
    fn iteration(&self, index: usize, round: usize, tracer: &Tracer) -> Result<Iteration, String> {
        tracer.set_trace(index as u64);
        let _iteration = tracer.span("iteration");
        let grid = self.grid(round);
        let techs = grid.build_techniques();
        let keys = grid.keys(&techs);
        let setup_start = Instant::now();
        let setup = tracer.span("setup");
        let workloads = {
            let _s = tracer.span("workloads.generate");
            grid.generate()
        };
        let truths: BTreeMap<String, f64> = {
            let _s = tracer.span("truth.full_detailed");
            workloads
                .iter()
                .map(|w| {
                    (
                        w.name().to_string(),
                        FullDetailed::new().ground_truth(w).ipc,
                    )
                })
                .collect()
        };
        let refs = grid::technique_refs(&techs);
        let store_dir = self.work.sub(&format!("store-{index}"));
        let target = match self.workload {
            Workload::GridPlain => Target::Library(None),
            Workload::GridCkptWarm => {
                let _s = tracer.span("ckpt.warm_store");
                let store = Store::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
                let spec = grid::ladder_spec(&refs);
                for w in &workloads {
                    let _s = tracer.span("ckpt.ladder.load_or_capture");
                    drop(CheckpointLadder::load_or_capture(
                        &store,
                        w,
                        &MachineConfig::default(),
                        &spec,
                    ));
                }
                Target::Library(Some(store))
            }
            Workload::ServeCold => {
                let _s = tracer.span("serve.start");
                let cfg = ServeConfig {
                    workers: WORKERS,
                    ..ServeConfig::default()
                };
                Target::Server(
                    Server::start(&store_dir, Listen::Tcp("127.0.0.1:0".into()), cfg)
                        .map_err(|e| format!("start server: {e}"))?,
                )
            }
        };
        drop(setup);
        let setup_s = setup_start.elapsed().as_secs_f64();

        let (observed, campaign_s, first_result_s, cell_s) = match target {
            Target::Library(store) => {
                let jobs = grid::jobs(&workloads, &refs);
                self.library(&jobs, store.as_ref(), tracer)?
            }
            Target::Server(server) => {
                let outcome = self.serve(&grid, &server, tracer);
                server.stop();
                outcome?
            }
        };
        let _ = std::fs::remove_dir_all(&store_dir);

        let _check = tracer.span("check");
        let verdict =
            check::check_artifact(&observed.artifact, &keys, &self.pins, self.workload.path());
        let mut notes = verdict.notes;
        if self.workload == Workload::GridCkptWarm
            && observed.counters.get("ckpt.store.miss") > Some(&0)
        {
            notes.push("the warmed store missed; the campaign recaptured".to_string());
        }
        let (logical_ops, mean_error_pct) = score(&observed.artifact, &truths);
        eprintln!(
            "iteration {index}: setup {setup_s:.3} s, campaign {campaign_s:.3} s, first result \
             {first_result_s:.3} s, {} failed cells",
            verdict.mismatched
        );
        for note in &notes {
            eprintln!("  {note}");
        }
        Ok(Iteration {
            setup_s,
            campaign_s,
            first_result_s,
            cell_s,
            logical_ops,
            mean_error_pct,
            failed: verdict.mismatched,
            observed,
        })
    }

    /// Runs the library campaign; returns what it observed, campaign and
    /// first-result seconds (equal: the library hands back every cell at
    /// once) and per-cell `cell.run` seconds.
    fn library(
        &self,
        jobs: &[pgss::Job<'_>],
        store: Option<&Store>,
        tracer: &Tracer,
    ) -> Result<(Observed, f64, f64, Vec<f64>), String> {
        let cfg = CampaignConfig::with_workers(WORKERS);
        let start = Instant::now();
        let report = {
            let _s = tracer.span("pgss.campaign");
            match store {
                None => campaign::run_with(jobs, &cfg),
                Some(st) => campaign::run_checkpointed_with(jobs, STRIDE, Some(st), &cfg),
            }
            .map_err(|e| format!("campaign: {e}"))?
        };
        let artifact = {
            let _s = tracer.span("pgss.canonical_jsonl");
            report.canonical_jsonl()
        };
        let campaign_s = start.elapsed().as_secs_f64();
        let mut observed = Observed {
            artifact,
            ..Observed::default()
        };
        let mut cell_s = Vec::new();
        for (name, frame) in &report.metrics.scopes {
            if name == "campaign" {
                observed.counters = frame.counters.clone();
                continue;
            }
            let s = frame.span("cell.run").map_or(0, |s| s.total_ns) as f64 / 1e9;
            cell_s.push(s);
            let technique = name.split_once('/').map_or(name.as_str(), |(_, t)| t);
            *observed
                .per_technique_s
                .entry(technique.to_string())
                .or_default() += s;
            observed.cells.merge(frame);
        }
        Ok((observed, campaign_s, campaign_s, cell_s))
    }

    /// Submits the grid to `server`, watches it to the end and fetches the
    /// report, as one client on one thread; returns what it observed,
    /// campaign and first-result seconds, and the result-stream gaps.
    fn serve(
        &self,
        grid: &Grid,
        server: &Server,
        tracer: &Tracer,
    ) -> Result<(Observed, f64, f64, Vec<f64>), String> {
        let err = |e: pgss_serve::ClientError| format!("serve-cold client: {e}");
        let spec = grid.spec_json();
        let start = Instant::now();
        let mut client = Client::connect(server.addr()).map_err(err)?;
        let job = {
            let _s = tracer.span("serve.submit");
            client.submit("bench", &spec).map_err(err)?
        };
        let mut arrivals = Vec::new();
        let phase = {
            let _s = tracer.span("serve.watch");
            Client::connect(server.addr())
                .and_then(|c| {
                    c.watch(&job, |_| {
                        arrivals.push(start.elapsed().as_secs_f64());
                        true
                    })
                })
                .map_err(err)?
        };
        if phase != "done" {
            return Err(format!("serve-cold job ended in phase {phase:?}"));
        }
        let lines = {
            let _s = tracer.span("serve.report");
            client.report(&job).map_err(err)?
        };
        let campaign_s = start.elapsed().as_secs_f64();
        let metrics = client.metrics().map_err(err)?;
        let mut artifact = lines.join("\n");
        artifact.push('\n');
        let observed = Observed {
            artifact,
            counters: counters_of(&metrics),
            ..Observed::default()
        };
        let first_result_s = arrivals.first().copied().unwrap_or(campaign_s);
        let gaps = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
        Ok((observed, campaign_s, first_result_s, gaps))
    }
}

/// The counters of one pinned-schema scope line.
fn counters_of(scope_line: &str) -> BTreeMap<String, u64> {
    let Ok(v) = json::parse(scope_line) else {
        return BTreeMap::new();
    };
    match v.get("counters") {
        Some(Value::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Logical simulated ops over the artifact's cells, and the A-mean of
/// their |IPC error| in percent against full detailed simulation.
fn score(artifact: &str, truths: &BTreeMap<String, f64>) -> (u64, f64) {
    let mut ops = 0u64;
    // Keyed by cell, so the sum runs in the same order whatever the grid
    // order was and the mean is bit-identical across seeds.
    let mut errors = BTreeMap::new();
    for v in artifact.lines().filter_map(|l| json::parse(l).ok()) {
        if v.get("kind").and_then(Value::as_str) != Some("cell") {
            continue;
        }
        if let Some(m) = v.get("mode_ops") {
            ops += ["fast_forward", "functional", "warm", "detail"]
                .iter()
                .filter_map(|k| m.get(k)?.as_u64())
                .sum::<u64>();
        }
        let text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let (workload, technique) = (text("workload"), text("technique"));
        if let (Some(ipc), Some(truth)) =
            (v.get("ipc").and_then(Value::as_f64), truths.get(&workload))
        {
            errors.insert(
                (workload, technique),
                pgss::relative_error(ipc, *truth).abs(),
            );
        }
    }
    let mean = errors.values().sum::<f64>() / errors.len().max(1) as f64;
    (ops, 100.0 * mean)
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Result metrics in declaration order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; an undefined ratio reads as 0
        // (and adding 0.0 turns an empty sum's -0.0 into 0).
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{"#
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{name}":{{"value":{value},"unit":"{unit}"}}"#);
        }
        out.push_str("}}");
        out
    }
}

/// Runs `round(0)`, `round(1)`, ... until the next round would overrun
/// `seconds`, judging by the length of the last one.
fn repeat(seconds: f64, mut round: impl FnMut(usize) -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let mut r = 0;
    loop {
        let t = Instant::now();
        round(r)?;
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            return Ok(());
        }
        r += 1;
    }
}

fn end_to_end(bench: &Bench, iterations: &[Iteration]) -> Result<(Metrics, usize, usize), String> {
    let per = |f: &dyn Fn(&Iteration) -> f64| median(&iterations.iter().map(f).collect::<Vec<_>>());
    let attempted = iterations.len() * bench.cells();
    let failed: usize = iterations.iter().map(|it| it.failed).sum();
    // Cells pooled over the run; the tail level is that of one campaign.
    let pooled: Vec<f64> = iterations
        .iter()
        .flat_map(|it| it.cell_s.iter().copied())
        .collect();
    let per_campaign = iterations[0].cell_s.len();
    let level = tail_level(per_campaign);
    let mut m = Metrics::default();
    m.put("setup_s", per(&|it| it.setup_s), "s");
    m.put("campaign_s", per(&|it| it.campaign_s), "s");
    m.put(
        "sim_mips",
        per(&|it| it.logical_ops as f64 / it.campaign_s / 1e6),
        "Mops/s",
    );
    m.put("cell_p50_s", median(&pooled), "s");
    m.put("cell_tail_s", quantile(&pooled, level), "s");
    m.put("first_result_s", per(&|it| it.first_result_s), "s");
    m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    m.put(
        "ok_frac",
        1.0 - failed as f64 / attempted as f64,
        "fraction",
    );
    m.put("mean_error_pct", per(&|it| it.mean_error_pct), "%");
    eprintln!(
        "{}: {} iterations of {} cells, {} workers on {} host threads; cell_p50_s and \
         cell_tail_s pool {} cell times, the tail at p{:.2}, the highest level with {} of a \
         campaign's {per_campaign} beyond it; failed_frac {failed}/{attempted}; IPC error is \
         against FullDetailed on the same simulator, which is not validated against hardware",
        bench.workload.name(),
        iterations.len(),
        bench.cells(),
        WORKERS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pooled.len(),
        100.0 * level,
        TAIL_BEYOND.min(per_campaign),
    );
    Ok((m, attempted, failed))
}

/// Executed ops per second of one mode, in Mops/s: the mode's driver op
/// counter (minus ladder-skipped ops for functional) over its wall span.
fn mode_mops(frame: &MetricsFrame, mode: &str) -> f64 {
    let mut ops = frame.counter(&format!("driver.ops.{mode}"));
    if mode == "functional" {
        ops = ops.saturating_sub(frame.counter("driver.ops.jumped"));
    }
    let wall_ns = frame
        .span(&format!("driver.wall.{mode}"))
        .map_or(0, |s| s.total_ns);
    if wall_ns == 0 {
        0.0
    } else {
        ops as f64 * 1e3 / wall_ns as f64
    }
}

fn per_layer(
    bench: &Bench,
    tracer: &Tracer,
    untraced: &[Iteration],
    traced: &[Iteration],
) -> Result<Metrics, String> {
    let last = traced.last().expect("at least one traced iteration");
    let trace_id = (traced.len() * 2 - 1) as u64;
    tracer.set_trace(u64::MAX);
    let grid = bench.grid(0);
    let workloads = {
        let _s = tracer.span("workloads.generate");
        grid.generate()
    };
    let techs = grid.build_techniques();
    let refs = grid::technique_refs(&techs);
    let _probes = tracer.span("probes");
    let machine_new_ms = probes::machine_new_ms(tracer, &workloads);
    let snaps = probes::snapshots(tracer, &workloads, &bench.work.sub("probe-snapshots"))?;
    let (capture_s, load_s) = probes::ladders(
        tracer,
        &workloads,
        &grid::ladder_spec(&refs),
        &bench.work.sub("probe-ladders"),
    )?;
    let sigs = probes::signatures(tracer, &workloads);
    let kmeans_ms = probes::kmeans_ms(tracer, &workloads);
    let proto = probes::protocol(tracer, &bench.work.sub("probe-serve"))?;

    let obs = &last.observed;
    let server = bench.workload == Workload::ServeCold;
    let mut notes = Vec::new();
    let mut m = Metrics::default();
    m.put(
        "workloads.generate_s",
        tracer.total_s(trace_id, "workloads.generate"),
        "s",
    );
    m.put("cpu.machine_new_ms", machine_new_ms, "ms");
    let mut functional_mops = mode_mops(&obs.cells, "functional");
    if server {
        functional_mops = sigs.functional_mops;
        notes.push(
            "the server exports no driver wall spans: cpu.*_mops other than functional are 0, \
             and cpu.functional_mops is the untracked functional probe",
        );
    }
    m.put(
        "cpu.fast_forward_mops",
        mode_mops(&obs.cells, "fast_forward"),
        "Mops/s",
    );
    m.put("cpu.functional_mops", functional_mops, "Mops/s");
    m.put("cpu.warm_mops", mode_mops(&obs.cells, "warm"), "Mops/s");
    m.put("cpu.detail_mops", mode_mops(&obs.cells, "detail"), "Mops/s");
    if obs.cells.counter("driver.ops.fast_forward") == 0 {
        notes
            .push("no technique of the grid runs FastForward segments: cpu.fast_forward_mops is 0");
    }
    m.put("cpu.restore_ms", snaps.restore_ms, "ms");
    m.put("bbv.noop_s", sigs.noop_s, "s");
    m.put("bbv.hashed_overhead_pct", sigs.hashed_overhead_pct, "%");
    m.put("bbv.mav_overhead_pct", sigs.mav_overhead_pct, "%");
    m.put("ckpt.snapshot.encode_ms", snaps.encode_ms, "ms");
    m.put("ckpt.snapshot.decode_ms", snaps.decode_ms, "ms");
    m.put("ckpt.snapshot.bytes", snaps.bytes, "bytes");
    m.put("ckpt.ladder.capture_s", capture_s, "s");
    m.put("ckpt.ladder.load_s", load_s, "s");
    m.put("ckpt.store.put_ms", snaps.put_ms, "ms");
    m.put("ckpt.store.get_ms", snaps.get_ms, "ms");
    let counter = |name: &str| obs.counters.get(name).copied().unwrap_or(0);
    let (jumps, skipped) = if server {
        notes.push(
            "the server reports no ladder totals: jumps and skipped ops are summed from the \
             artifact's cell scopes, executed and capture ops are 0",
        );
        (
            check::scope_counter_sum(&obs.artifact, "driver.jumps"),
            check::scope_counter_sum(&obs.artifact, "driver.ops.jumped"),
        )
    } else {
        (
            counter("ckpt.ladder.jumps"),
            counter("ckpt.ladder.skipped_ops"),
        )
    };
    m.put("ckpt.ladder.jumps", jumps as f64, "count");
    m.put("ckpt.ladder.skipped_ops", skipped as f64, "count");
    m.put(
        "ckpt.ladder.executed_ops",
        counter("ckpt.ladder.executed_ops") as f64,
        "count",
    );
    m.put(
        "ckpt.ladder.capture_ops",
        counter("ckpt.ladder.capture_ops") as f64,
        "count",
    );
    m.put("ckpt.store.hit", counter("ckpt.store.hit") as f64, "count");
    m.put(
        "ckpt.store.miss",
        counter("ckpt.store.miss") as f64,
        "count",
    );
    let jump_cost_ms = snaps.decode_ms + snaps.restore_ms;
    m.put("ckpt.jump_cost_ms", jump_cost_ms, "ms");
    let payoff = if jumps == 0 {
        notes.push("no ladder jumps: ckpt.jump_payoff is 0");
        0.0
    } else {
        (skipped as f64 / (functional_mops * 1e6)) / (jumps as f64 * jump_cost_ms / 1e3)
    };
    m.put("ckpt.jump_payoff", payoff, "ratio");

    let cell_run_s: f64 = obs.per_technique_s.values().sum();
    for (tech, built) in grid.techs.iter().zip(&techs) {
        let s = obs
            .per_technique_s
            .get(&built.name())
            .copied()
            .unwrap_or(0.0);
        m.put(&format!("core.cell.{}_s", tech.slug), s, "s");
    }
    if server {
        notes.push("the server exports no cell spans: core.cell.* and core.*_frac are 0");
    }
    let driver_wall_s = ["fast_forward", "functional", "warm", "detail"]
        .iter()
        .filter_map(|mode| obs.cells.span(&format!("driver.wall.{mode}")))
        .map(|s| s.total_ns as f64 / 1e9)
        .sum::<f64>();
    let traced_s = median(&traced.iter().map(|it| it.campaign_s).collect::<Vec<_>>());
    let untraced_s = median(&untraced.iter().map(|it| it.campaign_s).collect::<Vec<_>>());
    m.put("core.cell_run_s", cell_run_s, "s");
    m.put("core.driver_wall_s", driver_wall_s, "s");
    m.put("core.traced_campaign_s", traced_s, "s");
    m.put("core.untraced_campaign_s", untraced_s, "s");
    let busy = cell_run_s / (last.campaign_s * WORKERS as f64);
    let attributed = driver_wall_s + jumps as f64 * jump_cost_ms / 1e3;
    let unattributed = if cell_run_s > 0.0 {
        1.0 - attributed / cell_run_s
    } else {
        0.0
    };
    m.put("core.worker_busy_frac", busy, "ratio");
    m.put("core.unattributed_frac", unattributed, "ratio");
    m.put("cluster.kmeans_ms", kmeans_ms, "ms");
    m.put("serve.ping_ms", proto.ping_ms, "ms");
    let (submit_ms, report_ms, serve_counters) = if server {
        (
            tracer.total_s(trace_id, "serve.submit") * 1e3,
            tracer.total_s(trace_id, "serve.report") * 1e3,
            obs.counters.clone(),
        )
    } else {
        notes.push(
            "serve.submit_ms, serve.report_ms and serve.* counts come from a one-cell probe job",
        );
        (
            proto.submit_ms,
            proto.report_ms,
            counters_of(&proto.metrics_line),
        )
    };
    m.put("serve.submit_ms", submit_ms, "ms");
    m.put("serve.report_ms", report_ms, "ms");
    let serve_count = |name: &str| serve_counters.get(name).copied().unwrap_or(0) as f64;
    m.put(
        "serve.cells.executed",
        serve_count("serve.cells.executed"),
        "count",
    );
    m.put(
        "serve.lease.granted",
        serve_count("serve.lease.granted"),
        "count",
    );
    m.put(
        "trace.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );

    eprintln!(
        "ledger ({}): jump_payoff {payoff:.3} = skipped {skipped} ops at {functional_mops:.1} \
         Mops/s / ({jumps} jumps x {jump_cost_ms:.2} ms decode+restore); worker_busy_frac \
         {busy:.3} = {cell_run_s:.2} s cell.run / ({:.2} s x {WORKERS} workers); \
         unattributed_frac {unattributed:.3} = 1 - ({driver_wall_s:.2} s driver.wall + {jumps} \
         x {jump_cost_ms:.2} ms) / {cell_run_s:.2} s; bbv overheads against {:.2} s untracked; \
         trace overhead {:.2}% = {traced_s:.3} s traced / {untraced_s:.3} s untraced",
        bench.workload.name(),
        last.campaign_s,
        sigs.noop_s,
        (traced_s / untraced_s - 1.0) * 100.0,
    );
    for note in notes {
        eprintln!("  {note}");
    }
    Ok(m)
}

fn write_trace(tracer: &Tracer, workload: Workload, seed: u64) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let bench = Bench::new(workload, args)?;
    eprintln!(
        "{}: seed {}, {} cells per campaign over {}",
        workload.name(),
        args.seed,
        bench.cells(),
        bench.benchmarks.join(","),
    );
    let off = Tracer::new(false);
    if !args.trace {
        let mut iterations = Vec::new();
        repeat(args.seconds, |r| {
            iterations.push(bench.iteration(r, r, &off)?);
            Ok(())
        })?;
        let (m, attempted, failed) = end_to_end(&bench, &iterations)?;
        return Ok(m.result_line(failed == 0, attempted, failed));
    }
    let on = Tracer::new(true);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Both halves of a pair run the same grid order.
    repeat(args.seconds, |r| {
        untraced.push(bench.iteration(2 * r, r, &off)?);
        traced.push(bench.iteration(2 * r + 1, r, &on)?);
        Ok(())
    })?;
    let m = per_layer(&bench, &on, &untraced, &traced)?;
    let path = write_trace(&on, workload, args.seed)?;
    eprintln!("spans written to {}", path.display());
    let attempted = (untraced.len() + traced.len()) * bench.cells();
    let failed: usize = untraced.iter().chain(&traced).map(|it| it.failed).sum();
    Ok(m.result_line(failed == 0, attempted, failed))
}

/// Runs the whole suite plain and checkpointed and prints the pins file.
fn print_pins() -> Result<String, String> {
    let names = pgss_workloads::SUITE_NAMES.map(String::from).to_vec();
    let grid = Grid::new(&names, 0, 0);
    let workloads = grid.generate();
    let techs = grid.build_techniques();
    let refs = grid::technique_refs(&techs);
    let jobs = grid::jobs(&workloads, &refs);
    let cfg = CampaignConfig::with_workers(WORKERS);
    let plain = campaign::run_with(&jobs, &cfg).map_err(|e| format!("campaign: {e}"))?;
    let ckpt = campaign::run_checkpointed_with(&jobs, STRIDE, None, &cfg)
        .map_err(|e| format!("campaign: {e}"))?;
    if !plain.is_complete() || !ckpt.is_complete() {
        return Err(format!("{}\n{}", plain.ledger(), ckpt.ledger()));
    }
    let mut out = format!(
        "# Pinned digests (FNV-1a 64) of canonical campaign artifact lines at scale {}, \
         stride {STRIDE}.\n# Regenerate with `campaign_bench --print-pins` only when a change \
         is meant to alter cell outputs.\n",
        grid::SCALE
    );
    out.push_str(&check::render_pins(
        &plain.canonical_jsonl(),
        &ckpt.canonical_jsonl(),
    )?);
    Ok(out)
}

fn main() {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| {
        if args.print_pins {
            print_pins()
        } else {
            run(&args)
        }
    });
    match result {
        Ok(out) => println!("{}", out.trim_end()),
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            std::process::exit(1);
        }
    }
}
