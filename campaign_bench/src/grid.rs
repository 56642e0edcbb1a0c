//! The job grid every workload runs: the eight fixed configurations of
//! Figure 12 over a benchmark subset of `pgss_workloads::suite`, in an
//! order permuted by the run's seed.

use pgss::{campaign, LadderSpec, Technique, Track};
use pgss_cpu::MachineConfig;
use pgss_serve::TechSpec;
use pgss_stats::DetRng;
use pgss_workloads::Workload;

/// Workload scale. Below about 0.1 most generators floor their repetition
/// counts, so this is the smallest grid the suite offers.
pub const SCALE: f64 = 0.05;

/// Checkpoint-ladder rung stride of the checkpointed workloads.
pub const STRIDE: u64 = 1_000_000;

/// Campaign and server worker threads.
pub const WORKERS: usize = 2;

/// The benchmarks a run uses unless `--benchmarks` says otherwise.
///
/// The whole ten-benchmark grid (80 cells, `--benchmarks all`) takes about
/// 20 s plain and 40 s checkpointed per campaign on a 2-core host, too long
/// to repeat within a run, and its medians would rest on one or two grid
/// orders. These are the three cheapest benchmarks (2-3.5 M ops each):
/// branchy integer code, a many-phase interpreter and a stable low-variance
/// program. Every technique still runs on each.
pub const DEFAULT_BENCHMARKS: [&str; 3] = ["197.parser", "253.perlbmk", "300.twolf"];

/// One technique of the grid: a metric-name slug, its server spec and the
/// same spec as submitted JSON.
#[derive(Debug, Clone)]
pub struct Tech {
    /// Metric-name form of the technique (`core.cell.<slug>_s`).
    pub slug: &'static str,
    /// The server's description, which also builds the library technique,
    /// so both paths run identical configurations.
    pub spec: TechSpec,
    /// The spec as a `CampaignSpec` JSON technique entry.
    pub json: &'static str,
}

/// The eight fixed configurations of Figure 12, in figure order.
pub fn techniques() -> Vec<Tech> {
    vec![
        Tech {
            slug: "smarts",
            spec: TechSpec::Smarts {
                period_ops: Some(100_000),
            },
            json: r#"{"kind":"smarts","period_ops":100000}"#,
        },
        Tech {
            slug: "turbo_smarts",
            spec: TechSpec::TurboSmarts {
                period_ops: Some(100_000),
            },
            json: r#"{"kind":"turbo_smarts","period_ops":100000}"#,
        },
        Tech {
            slug: "simpoint",
            spec: TechSpec::SimPoint {
                interval_ops: Some(1_000_000),
                k: Some(10),
            },
            json: r#"{"kind":"simpoint","interval_ops":1000000,"k":10}"#,
        },
        Tech {
            slug: "online_simpoint",
            spec: TechSpec::OnlineSimPoint { interval_ops: None },
            json: r#"{"kind":"online_simpoint"}"#,
        },
        Tech {
            slug: "pgss",
            spec: TechSpec::Pgss {
                ff_ops: None,
                spacing_ops: None,
            },
            json: r#"{"kind":"pgss"}"#,
        },
        Tech {
            slug: "two_phase",
            spec: TechSpec::TwoPhase {
                ff_ops: None,
                budget: None,
            },
            json: r#"{"kind":"two_phase"}"#,
        },
        Tech {
            slug: "ranked_set",
            spec: TechSpec::RankedSet {
                ff_ops: None,
                replicates: None,
            },
            json: r#"{"kind":"ranked_set"}"#,
        },
        Tech {
            slug: "pgss_mav",
            spec: TechSpec::PgssMav {
                ff_ops: None,
                spacing_ops: None,
            },
            json: r#"{"kind":"pgss_mav"}"#,
        },
    ]
}

/// The grid of one run: benchmarks and techniques, both in seed order.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Benchmark names in job order.
    pub benchmarks: Vec<String>,
    /// Techniques in job order.
    pub techs: Vec<Tech>,
}

impl Grid {
    /// The grid over `benchmarks` for round `round` of a run: the suite
    /// and the techniques are each shuffled by `seed`, then rotated left by
    /// `round`, so successive rounds put every benchmark and technique
    /// first in turn. Cell outputs do not depend on the order; grouping,
    /// scheduling, ladder order and which result streams first do.
    pub fn new(benchmarks: &[String], seed: u64, round: usize) -> Grid {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut benchmarks = benchmarks.to_vec();
        let mut techs = techniques();
        rng.shuffle(&mut benchmarks);
        rng.shuffle(&mut techs);
        let (nb, nt) = (benchmarks.len(), techs.len());
        benchmarks.rotate_left(round % nb);
        techs.rotate_left(round % nt);
        Grid { benchmarks, techs }
    }

    /// Generates the grid's workloads, in job order.
    pub fn generate(&self) -> Vec<Workload> {
        self.benchmarks
            .iter()
            .map(|name| pgss_workloads::by_name(name, SCALE).expect("benchmark names are checked"))
            .collect()
    }

    /// Builds the grid's techniques, in job order.
    pub fn build_techniques(&self) -> Vec<Box<dyn Technique + Send + Sync>> {
        self.techs.iter().map(|t| t.spec.build()).collect()
    }

    /// The `(workload, technique)` key of every cell, in job order.
    pub fn keys(&self, techniques: &[Box<dyn Technique + Send + Sync>]) -> Vec<(String, String)> {
        self.benchmarks
            .iter()
            .flat_map(|w| techniques.iter().map(move |t| (w.clone(), t.name())))
            .collect()
    }

    /// The grid as the `CampaignSpec` JSON a client submits.
    pub fn spec_json(&self) -> String {
        let suite: Vec<String> = self
            .benchmarks
            .iter()
            .map(|name| format!(r#"{{"name":"{name}","scale":{SCALE}}}"#))
            .collect();
        let techs: Vec<&str> = self.techs.iter().map(|t| t.json).collect();
        format!(
            r#"{{"suite":[{}],"techniques":[{}],"stride":{STRIDE}}}"#,
            suite.join(","),
            techs.join(",")
        )
    }
}

/// Borrows built techniques in the form `campaign::grid` takes.
pub fn technique_refs(
    techniques: &[Box<dyn Technique + Send + Sync>],
) -> Vec<&(dyn Technique + Sync)> {
    techniques
        .iter()
        .map(|t| &**t as &(dyn Technique + Sync))
        .collect()
}

/// The library jobs of the grid, in job order.
pub fn jobs<'a>(
    workloads: &'a [Workload],
    techniques: &'a [&'a (dyn Technique + Sync)],
) -> Vec<pgss::Job<'a>> {
    campaign::grid(workloads, techniques, MachineConfig::default())
}

/// The ladder spec `campaign::run_checkpointed_with` derives for one
/// workload's group: the union of the techniques' tracks, hashed seeds in
/// first-seen job order. Store keys include it, so a warm-up must use the
/// same spec for the campaign to find its rungs.
pub fn ladder_spec(techniques: &[&(dyn Technique + Sync)]) -> LadderSpec {
    let mut spec = LadderSpec::machine_only(STRIDE);
    for t in techniques {
        for track in t.tracks() {
            match track {
                Track::Hashed(s) if !spec.hashed_seeds.contains(&s) => spec.hashed_seeds.push(s),
                Track::Full => spec.with_full = true,
                _ => {}
            }
        }
    }
    spec
}
