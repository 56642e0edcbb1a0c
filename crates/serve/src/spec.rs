//! Campaign specifications: what a client submits, validated by
//! [`CampaignSpec::from_json`] (on submit, and again when a restarted
//! server reads the stored request back), and materialised into the
//! workloads / techniques / machine configurations a campaign actually
//! runs.
//!
//! A spec is a *grid*: `suite × configs × techniques`, flattened in
//! workload-major order (for each workload, for each configuration, every
//! technique). With a single configuration this is exactly the order of
//! [`pgss::campaign::grid`], which is what makes a server-side run
//! byte-comparable to a direct library run of the same grid.

use pgss::{
    AdaptivePgss, FullDetailed, OnlineSimPoint, PgssSim, RankedSet, Signature, SimPointOffline,
    Smarts, Technique, TurboSmarts, TwoPhaseStratified,
};
use pgss_cpu::MachineConfig;
use pgss_workloads::Workload;

use crate::json::Value;

/// One technique of the grid: a named kind plus the parameter overrides
/// the protocol exposes (everything else keeps the paper's defaults).
#[derive(Debug, Clone, PartialEq)]
pub enum TechSpec {
    /// [`Smarts`] with an optional sampling-period override.
    Smarts {
        /// `period_ops` override.
        period_ops: Option<u64>,
    },
    /// [`TurboSmarts`] with an optional sampling-period override.
    TurboSmarts {
        /// `smarts.period_ops` override.
        period_ops: Option<u64>,
    },
    /// [`PgssSim`] with optional fast-forward / spacing overrides.
    Pgss {
        /// `ff_ops` override.
        ff_ops: Option<u64>,
        /// `spacing_ops` override.
        spacing_ops: Option<u64>,
    },
    /// [`AdaptivePgss`] with the paper's defaults.
    AdaptivePgss,
    /// [`SimPointOffline`] with optional interval / cluster overrides.
    SimPoint {
        /// `interval_ops` override.
        interval_ops: Option<u64>,
        /// `k` override.
        k: Option<u64>,
    },
    /// [`OnlineSimPoint`] with an optional interval override.
    OnlineSimPoint {
        /// `interval_ops` override.
        interval_ops: Option<u64>,
    },
    /// [`FullDetailed`] — the ground truth, at ground-truth cost.
    Full,
    /// [`TwoPhaseStratified`] with optional period / budget overrides.
    TwoPhase {
        /// `ff_ops` override.
        ff_ops: Option<u64>,
        /// `budget` override.
        budget: Option<u64>,
    },
    /// [`RankedSet`] with optional period / replicate overrides.
    RankedSet {
        /// `ff_ops` override.
        ff_ops: Option<u64>,
        /// `replicates` override.
        replicates: Option<u64>,
    },
    /// [`PgssSim`] classifying on Memory Access Vectors instead of the
    /// hashed branch BBV.
    PgssMav {
        /// `ff_ops` override.
        ff_ops: Option<u64>,
        /// `spacing_ops` override.
        spacing_ops: Option<u64>,
    },
}

impl TechSpec {
    /// Builds the runnable technique this spec names.
    pub fn build(&self) -> Box<dyn Technique + Send + Sync> {
        match *self {
            TechSpec::Smarts { period_ops } => Box::new(Smarts {
                period_ops: period_ops.unwrap_or(Smarts::default().period_ops),
                ..Smarts::default()
            }),
            TechSpec::TurboSmarts { period_ops } => Box::new(TurboSmarts {
                smarts: Smarts {
                    period_ops: period_ops.unwrap_or(Smarts::default().period_ops),
                    ..Smarts::default()
                },
                ..TurboSmarts::default()
            }),
            TechSpec::Pgss {
                ff_ops,
                spacing_ops,
            } => Box::new(PgssSim {
                ff_ops: ff_ops.unwrap_or(PgssSim::default().ff_ops),
                spacing_ops: spacing_ops.unwrap_or(PgssSim::default().spacing_ops),
                ..PgssSim::default()
            }),
            TechSpec::AdaptivePgss => Box::new(AdaptivePgss::default()),
            TechSpec::SimPoint { interval_ops, k } => Box::new(SimPointOffline {
                interval_ops: interval_ops.unwrap_or(SimPointOffline::default().interval_ops),
                k: k.map_or(SimPointOffline::default().k, |k| k as usize),
                ..SimPointOffline::default()
            }),
            TechSpec::OnlineSimPoint { interval_ops } => Box::new(OnlineSimPoint {
                interval_ops: interval_ops.unwrap_or(OnlineSimPoint::default().interval_ops),
                ..OnlineSimPoint::default()
            }),
            TechSpec::Full => Box::new(FullDetailed::new()),
            TechSpec::TwoPhase { ff_ops, budget } => Box::new(TwoPhaseStratified {
                ff_ops: ff_ops.unwrap_or(TwoPhaseStratified::default().ff_ops),
                budget: budget.unwrap_or(TwoPhaseStratified::default().budget),
                ..TwoPhaseStratified::default()
            }),
            TechSpec::RankedSet { ff_ops, replicates } => Box::new(RankedSet {
                ff_ops: ff_ops.unwrap_or(RankedSet::default().ff_ops),
                replicates: replicates.unwrap_or(RankedSet::default().replicates),
                ..RankedSet::default()
            }),
            TechSpec::PgssMav {
                ff_ops,
                spacing_ops,
            } => Box::new(PgssSim {
                ff_ops: ff_ops.unwrap_or(PgssSim::default().ff_ops),
                spacing_ops: spacing_ops.unwrap_or(PgssSim::default().spacing_ops),
                signature: Signature::Mav,
                ..PgssSim::default()
            }),
        }
    }

    fn from_json(v: &Value) -> Result<TechSpec, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("technique needs a \"kind\" string")?;
        let u = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(x) => x.as_u64().map(Some).ok_or_else(|| {
                    format!("technique field {key:?} must be a non-negative integer")
                }),
            }
        };
        match kind {
            "smarts" => Ok(TechSpec::Smarts {
                period_ops: u("period_ops")?,
            }),
            "turbo_smarts" => Ok(TechSpec::TurboSmarts {
                period_ops: u("period_ops")?,
            }),
            "pgss" => Ok(TechSpec::Pgss {
                ff_ops: u("ff_ops")?,
                spacing_ops: u("spacing_ops")?,
            }),
            "adaptive_pgss" => Ok(TechSpec::AdaptivePgss),
            "simpoint" => Ok(TechSpec::SimPoint {
                interval_ops: u("interval_ops")?,
                k: u("k")?,
            }),
            "online_simpoint" => Ok(TechSpec::OnlineSimPoint {
                interval_ops: u("interval_ops")?,
            }),
            "full" => Ok(TechSpec::Full),
            "two_phase" => Ok(TechSpec::TwoPhase {
                ff_ops: u("ff_ops")?,
                budget: u("budget")?,
            }),
            "ranked_set" => Ok(TechSpec::RankedSet {
                ff_ops: u("ff_ops")?,
                replicates: u("replicates")?,
            }),
            "pgss_mav" => Ok(TechSpec::PgssMav {
                ff_ops: u("ff_ops")?,
                spacing_ops: u("spacing_ops")?,
            }),
            other => Err(format!("unknown technique kind {other:?}")),
        }
    }
}

/// One machine configuration of the grid: the default machine with the
/// overrides a design-space sweep typically varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfigSpec {
    /// `issue_width` override.
    pub issue_width: Option<u32>,
    /// `mshrs` override.
    pub mshrs: Option<u32>,
}

impl ConfigSpec {
    /// The concrete [`MachineConfig`] this spec describes.
    pub fn build(&self) -> MachineConfig {
        let mut c = MachineConfig::default();
        if let Some(w) = self.issue_width {
            c.issue_width = w;
        }
        if let Some(m) = self.mshrs {
            c.mshrs = m;
        }
        c
    }

    fn from_json(v: &Value) -> Result<ConfigSpec, String> {
        let u32_field = |key: &str| -> Result<Option<u32>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(x) => x
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(Some)
                    .ok_or_else(|| format!("config field {key:?} must be a u32")),
            }
        };
        Ok(ConfigSpec {
            issue_width: u32_field("issue_width")?,
            mshrs: u32_field("mshrs")?,
        })
    }
}

/// A validated campaign submission: the grid plus the checkpoint-ladder
/// stride its groups share.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// `(benchmark name, scale)` pairs; names must be known to
    /// [`pgss_workloads::by_name`].
    pub suite: Vec<(String, f64)>,
    /// The techniques of the grid, in submission order.
    pub techniques: Vec<TechSpec>,
    /// The machine configurations of the grid; `[ConfigSpec::default()]`
    /// when the submission omits them.
    pub configs: Vec<ConfigSpec>,
    /// Checkpoint-ladder rung stride in retired ops.
    pub stride: u64,
}

impl CampaignSpec {
    /// Parses and validates a submission's `"spec"` object.
    pub fn from_json(v: &Value) -> Result<CampaignSpec, String> {
        let suite_json = v
            .get("suite")
            .and_then(Value::as_arr)
            .ok_or("spec needs a \"suite\" array")?;
        let mut suite = Vec::new();
        for w in suite_json {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("suite entry needs a \"name\" string")?;
            let scale = w
                .get("scale")
                .and_then(Value::as_f64)
                .ok_or("suite entry needs a numeric \"scale\"")?;
            if !(scale > 0.0 && scale <= pgss_workloads::MAX_SCALE) {
                return Err(format!(
                    "workload {name:?}: scale must be in (0, {}]",
                    pgss_workloads::MAX_SCALE
                ));
            }
            if pgss_workloads::by_name(name, scale).is_none() {
                return Err(format!("unknown workload {name:?}"));
            }
            suite.push((name.to_string(), scale));
        }
        if suite.is_empty() {
            return Err("spec needs at least one workload".to_string());
        }
        let techs_json = v
            .get("techniques")
            .and_then(Value::as_arr)
            .ok_or("spec needs a \"techniques\" array")?;
        let techniques = techs_json
            .iter()
            .map(TechSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if techniques.is_empty() {
            return Err("spec needs at least one technique".to_string());
        }
        let configs = match v.get("configs") {
            None => vec![ConfigSpec::default()],
            Some(arr) => {
                let arr = arr.as_arr().ok_or("\"configs\" must be an array")?;
                if arr.is_empty() {
                    return Err("\"configs\" must not be empty".to_string());
                }
                arr.iter()
                    .map(ConfigSpec::from_json)
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let stride = match v.get("stride") {
            None => 1_000_000,
            Some(s) => s.as_u64().ok_or("\"stride\" must be a positive integer")?,
        };
        if stride == 0 {
            return Err("\"stride\" must be positive".to_string());
        }
        Ok(CampaignSpec {
            suite,
            techniques,
            configs,
            stride,
        })
    }

    /// Instantiates the workloads and techniques this spec names.
    ///
    /// Fails if a workload name is unknown; [`CampaignSpec::from_json`]
    /// rejects those, so only a spec built by hand can fail here.
    pub fn materialize(&self) -> Result<Materialized, String> {
        let mut workloads = Vec::with_capacity(self.suite.len());
        for (name, scale) in &self.suite {
            workloads.push(
                pgss_workloads::by_name(name, *scale)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?,
            );
        }
        Ok(Materialized {
            workloads,
            techniques: self.techniques.iter().map(TechSpec::build).collect(),
            configs: self.configs.iter().map(ConfigSpec::build).collect(),
            stride: self.stride,
        })
    }
}

/// A spec made runnable: owned workloads, boxed techniques, concrete
/// machine configurations.
pub struct Materialized {
    /// Workloads, in suite order.
    pub workloads: Vec<Workload>,
    /// Techniques, in submission order.
    pub techniques: Vec<Box<dyn Technique + Send + Sync>>,
    /// Machine configurations, in submission order.
    pub configs: Vec<MachineConfig>,
    /// Checkpoint-ladder stride.
    pub stride: u64,
}

impl Materialized {
    /// Cells in the grid: `workloads × configs × techniques`.
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.configs.len() * self.techniques.len()
    }

    /// Cell `i` as a [`pgss::Job`]. Canonical cell order is
    /// workload-major, then configuration, then technique; with one
    /// configuration this is [`pgss::campaign::grid`]'s order exactly.
    pub fn job(&self, i: usize) -> pgss::Job<'_> {
        let (t, c) = (self.techniques.len(), self.configs.len());
        pgss::Job {
            workload: &self.workloads[i / (c * t)],
            technique: &*self.techniques[i % t],
            config: self.configs[i / t % c],
        }
    }

    /// The whole grid as [`pgss::Job`]s, in cell order.
    pub fn jobs(&self) -> Vec<pgss::Job<'_>> {
        (0..self.cell_count()).map(|i| self.job(i)).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> CampaignSpec {
        let v = json::parse(
            r#"{"suite":[{"name":"164.gzip","scale":0.01},{"name":"300.twolf","scale":0.01}],
                "techniques":[{"kind":"smarts","period_ops":50000},{"kind":"pgss","ff_ops":50000,"spacing_ops":50000}],
                "stride":50000}"#,
        )
        .unwrap();
        CampaignSpec::from_json(&v).unwrap()
    }

    #[test]
    fn parses() {
        let spec = sample();
        assert_eq!(spec.materialize().unwrap().cell_count(), 4);
        assert_eq!(spec.configs, vec![ConfigSpec::default()]);
    }

    #[test]
    fn jobs_match_library_grid_order() {
        let spec = sample();
        let m = spec.materialize().unwrap();
        let jobs = m.jobs();
        assert_eq!(jobs.len(), 4);
        let techs: Vec<&(dyn Technique + Sync)> = m
            .techniques
            .iter()
            .map(|t| &**t as &(dyn Technique + Sync))
            .collect();
        let grid = pgss::campaign::grid(&m.workloads, &techs, m.configs[0]);
        for (a, b) in jobs.iter().zip(&grid) {
            assert_eq!(a.workload.name(), b.workload.name());
            assert_eq!(a.technique.name(), b.technique.name());
            assert_eq!(a.config, b.config);
        }
    }

    #[test]
    fn new_estimator_kinds_build() {
        let v = json::parse(
            r#"{"suite":[{"name":"164.gzip","scale":0.01}],
                "techniques":[{"kind":"two_phase","ff_ops":100000,"budget":40},
                              {"kind":"ranked_set","ff_ops":100000,"replicates":5},
                              {"kind":"pgss_mav","ff_ops":100000,"spacing_ops":100000}]}"#,
        )
        .unwrap();
        let spec = CampaignSpec::from_json(&v).unwrap();
        let names: Vec<String> = spec.techniques.iter().map(|t| t.build().name()).collect();
        assert_eq!(
            names,
            [
                "TwoPhase(100k/b40)",
                "RankedSet(100k/r2x5)",
                "PGSS-MAV(100k/.05)"
            ]
        );
    }

    #[test]
    fn rejects_bad_specs() {
        for (doc, needle) in [
            (r#"{"techniques":[{"kind":"full"}]}"#, "suite"),
            (
                r#"{"suite":[],"techniques":[{"kind":"full"}]}"#,
                "at least one workload",
            ),
            (
                r#"{"suite":[{"name":"nope","scale":0.01}],"techniques":[{"kind":"full"}]}"#,
                "unknown workload",
            ),
            (
                r#"{"suite":[{"name":"164.gzip","scale":0.01}],"techniques":[]}"#,
                "at least one technique",
            ),
            (
                r#"{"suite":[{"name":"164.gzip","scale":0.01}],"techniques":[{"kind":"warp"}]}"#,
                "unknown technique",
            ),
            (
                r#"{"suite":[{"name":"164.gzip","scale":0.01}],"techniques":[{"kind":"full"}],"stride":0}"#,
                "stride",
            ),
            (
                r#"{"suite":[{"name":"164.gzip","scale":-1}],"techniques":[{"kind":"full"}]}"#,
                "scale",
            ),
            (
                r#"{"suite":[{"name":"164.gzip","scale":1000}],"techniques":[{"kind":"full"}]}"#,
                "scale",
            ),
            (
                r#"{"suite":[{"name":"164.gzip","scale":1e300}],"techniques":[{"kind":"full"}]}"#,
                "scale",
            ),
            (
                r#"{"suite":[{"name":"164.gzip","scale":0.01}],"techniques":[{"kind":"full"}],"configs":[]}"#,
                "configs",
            ),
        ] {
            let v = json::parse(doc).unwrap();
            let err = CampaignSpec::from_json(&v).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn config_overrides_apply() {
        let v = json::parse(
            r#"{"suite":[{"name":"164.gzip","scale":0.01}],
                "techniques":[{"kind":"full"}],
                "configs":[{"issue_width":2},{"issue_width":8,"mshrs":16}]}"#,
        )
        .unwrap();
        let m = CampaignSpec::from_json(&v).unwrap().materialize().unwrap();
        assert_eq!(m.cell_count(), 2);
        assert_eq!(m.configs[0].issue_width, 2);
        assert_eq!(m.configs[1].issue_width, 8);
        assert_eq!(m.configs[1].mshrs, 16);
        assert_eq!(m.configs[0].mshrs, MachineConfig::default().mshrs);
        // Cell order is workload-major, then configuration.
        let widths: Vec<u32> = m.jobs().iter().map(|j| j.config.issue_width).collect();
        assert_eq!(widths, [2, 8]);
    }
}
