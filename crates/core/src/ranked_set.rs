//! Ranked-set sampling with repeated subsampling (Ekman & Stenström,
//! ISPASS 2005): candidate intervals within each stratum are ranked by a
//! cheap concomitant, rank-selected representatives are detail-simulated,
//! and replicate estimates are averaged — the between-replicate variance
//! gives the confidence interval directly.

use std::collections::BTreeSet;

use pgss_cpu::{MachineConfig, Mode};
use pgss_stats::{replicate_ci, DetRng, Z_95};
use pgss_workloads::Workload;

use crate::ckpt::SimContext;
use crate::driver::{RunTrace, Segment, Signature, SimDriver, Track};
use crate::estimate::{period_label, Estimate, PhaseSummary, Technique};
use crate::phase::PhaseTable;
use crate::two_phase::replay_points;

/// Ranked-set sampling over online phase strata:
///
/// 1. a **rank pass** opens every `ff_ops` interval with a short
///    detailed-warming probe whose CPI is the *concomitant* — a cheap,
///    noisy stand-in for the interval's true CPI — then finishes the
///    interval functionally while the signature tracker classifies it into
///    a stratum;
/// 2. for each of `replicates` **subsamples**, every stratum's occurrence
///    list is shuffled and partitioned into sets of `set_size`; each set is
///    ranked by concomitant and one member is selected at a rotating rank,
///    so across replicates every rank position is represented;
/// 3. the union of all selections is detail-simulated once (the machine is
///    deterministic, so re-measuring a re-selected interval would return
///    the identical CPI); each replicate's estimate composes its selected
///    CPIs by stratum weight;
/// 4. the final estimate is the replicate mean, with a 95 % interval from
///    the **between-replicate variance** ([`pgss_stats::replicate_ci`]) —
///    no within-stratum variance model needed.
///
/// Ranked selection buys variance reduction over random sampling whenever
/// the concomitant correlates with the true CPI; the statistical-validation
/// sweep checks whether that is enough to beat PGSS's budget at equal
/// coverage.
///
/// # Example
///
/// ```no_run
/// use pgss::{RankedSet, Technique};
///
/// let est = RankedSet::new().run(&pgss_workloads::gzip(0.05));
/// assert!(est.ci.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedSet {
    /// Stratification interval (the classifier's BBV period).
    pub ff_ops: u64,
    /// Phase-change threshold in radians.
    pub threshold_rad: f64,
    /// Detailed-warming probe opening each interval; its CPI is the
    /// ranking concomitant and its ops are charged as warming.
    pub probe_ops: u64,
    /// Measured detailed instructions per selected sample.
    pub unit_ops: u64,
    /// Detailed-warming instructions before each selected sample.
    pub warm_ops: u64,
    /// Ranked-set size `r`: candidates compared per selection.
    pub set_size: usize,
    /// Number of repeated subsamples averaged into the estimate.
    pub replicates: u64,
    /// Seed for the per-replicate shuffles.
    pub seed: u64,
    /// Seed choosing the five hashed-BBV address bits.
    pub hash_seed: u64,
    /// Phase-signature family the classifier runs on.
    pub signature: Signature,
}

impl Default for RankedSet {
    fn default() -> RankedSet {
        RankedSet {
            ff_ops: 1_000_000,
            threshold_rad: crate::threshold(0.05),
            probe_ops: 500,
            unit_ops: 1_000,
            warm_ops: 3_000,
            set_size: 2,
            replicates: 5,
            seed: 0x5253,
            hash_seed: 0x5047_5353,
            signature: Signature::Bbv,
        }
    }
}

impl RankedSet {
    /// The defaults above (1M-op strata, sets of 2, 5 replicates).
    pub fn new() -> RankedSet {
        RankedSet::default()
    }
}

impl Technique for RankedSet {
    fn name(&self) -> String {
        format!(
            "RankedSet{}({}/r{}x{})",
            self.signature.name_suffix(),
            period_label(self.ff_ops),
            self.set_size,
            self.replicates
        )
    }

    fn tracks(&self) -> Vec<Track> {
        vec![self.signature.hashed_track(self.hash_seed), Track::None]
    }

    fn run_traced(
        &self,
        workload: &Workload,
        config: &MachineConfig,
        ctx: &SimContext,
    ) -> (Estimate, RunTrace) {
        assert!(
            self.probe_ops > 0 && self.probe_ops < self.ff_ops,
            "the probe must fit strictly inside an interval"
        );
        assert!(
            self.set_size >= 2 && self.replicates >= 2,
            "ranked-set sampling needs set_size >= 2 and replicates >= 2"
        );
        // Pass 1: probe + classify every interval. Each interval opens
        // with the probe and finishes functionally; the BBV closes at the
        // interval end so the signature covers both segments.
        let mut rank = SimDriver::new(
            workload,
            config,
            self.signature.hashed_track(self.hash_seed),
            ctx,
        );
        let mut table = PhaseTable::new(self.threshold_rad);
        // Stratum and concomitant (probe CPI) per complete interval.
        let mut interval_phases = Vec::new();
        let mut concomitants = Vec::new();
        loop {
            let probe = rank.execute(Segment::new(Mode::DetailedWarming, self.probe_ops));
            if !probe.complete() {
                break;
            }
            let rest = rank.execute(Segment::with_bbv(
                Mode::Functional,
                self.ff_ops - self.probe_ops,
            ));
            if rest.complete() {
                let bbv = rest.bbv.as_ref().expect("rank intervals close a BBV");
                let c = table.classify(bbv.hashed(), self.ff_ops);
                if c.created {
                    rank.trace_mut().phases_created += 1;
                }
                interval_phases.push(c.phase);
                concomitants.push(probe.cpi());
            }
            if rest.halted {
                break;
            }
        }
        assert!(
            !interval_phases.is_empty(),
            "workload shorter than one ranked-set interval"
        );
        let mut trace = *rank.trace();
        trace.phase_changes = table.changes();

        let num_strata = table.phases().len();
        let mut occurrences: Vec<Vec<usize>> = vec![Vec::new(); num_strata];
        for (i, &p) in interval_phases.iter().enumerate() {
            occurrences[p].push(i);
        }

        // Per-replicate ranked selections. The rotating rank
        // `(set index + replicate) % set_size` makes every rank position
        // appear across replicates even for strata with a single set.
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut selections: Vec<Vec<Vec<usize>>> = Vec::new(); // [replicate][stratum]
        for j in 0..self.replicates {
            let mut per_stratum = Vec::with_capacity(num_strata);
            for occ in &occurrences {
                let mut pool = occ.clone();
                rng.shuffle(&mut pool);
                let mut chosen = Vec::new();
                for (set_idx, set) in pool.chunks(self.set_size).enumerate() {
                    let mut ranked: Vec<usize> = set.to_vec();
                    // Rank by concomitant, interval index breaking ties.
                    ranked.sort_by(|&a, &b| {
                        concomitants[a]
                            .partial_cmp(&concomitants[b])
                            .expect("probe CPIs are finite")
                            .then(a.cmp(&b))
                    });
                    let rank = ((set_idx + j as usize) % self.set_size).min(ranked.len() - 1);
                    chosen.push(ranked[rank]);
                }
                per_stratum.push(chosen);
            }
            selections.push(per_stratum);
        }

        // Pass 2: measure the union of all selections once — deterministic
        // execution means a re-selected interval would re-measure
        // identically, so the union is equivalent and cheaper.
        let union: BTreeSet<usize> = selections.iter().flatten().flatten().copied().collect();
        let points: Vec<usize> = union.iter().copied().collect();
        let mut measure = SimDriver::new(workload, config, Track::None, ctx);
        let cpis = replay_points(
            &mut measure,
            self.ff_ops,
            self.warm_ops,
            self.unit_ops,
            &points,
        );
        trace.merge(measure.trace());
        let mut cpi_of = vec![f64::NAN; interval_phases.len()];
        for (&p, &cpi) in points.iter().zip(&cpis) {
            cpi_of[p] = cpi;
        }

        // Replicate estimates: stratum means composed by instruction
        // weight; strata whose selections all fell to an incomplete
        // measurement fall back to the replicate's own mean.
        let weights = table.weights();
        let estimates: Vec<f64> = selections
            .iter()
            .map(|per_stratum| {
                let means: Vec<Option<f64>> = per_stratum
                    .iter()
                    .map(|sel| {
                        let cpis: Vec<f64> = sel
                            .iter()
                            .map(|&i| cpi_of[i])
                            .filter(|c| c.is_finite())
                            .collect();
                        (!cpis.is_empty()).then(|| cpis.iter().sum::<f64>() / cpis.len() as f64)
                    })
                    .collect();
                let fallback = {
                    let all: Vec<f64> = means.iter().flatten().copied().collect();
                    assert!(!all.is_empty(), "replicate measured no intervals");
                    all.iter().sum::<f64>() / all.len() as f64
                };
                means
                    .iter()
                    .zip(&weights)
                    .map(|(m, &w)| w * m.unwrap_or(fallback))
                    .sum()
            })
            .collect();

        let cpi_ci = replicate_ci(&estimates, Z_95);
        let samples = cpis.iter().filter(|c| c.is_finite()).count() as u64;
        let mut mode_ops = rank.mode_ops();
        mode_ops += measure.mode_ops();

        let mut samples_per_phase = vec![0u64; num_strata];
        for &p in &union {
            if cpi_of[p].is_finite() {
                samples_per_phase[interval_phases[p]] += 1;
            }
        }
        let estimate = Estimate {
            ipc: 1.0 / cpi_ci.mean,
            mode_ops,
            samples,
            phases: Some(PhaseSummary {
                phases: num_strata,
                changes: table.changes(),
                samples_per_phase,
                weights,
            }),
            ci: Some(crate::estimate::ipc_interval_from_cpi(cpi_ci)),
        };
        (estimate, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::relative_error;
    use crate::FullDetailed;

    fn scaled() -> RankedSet {
        RankedSet {
            ff_ops: 100_000,
            probe_ops: 200,
            warm_ops: 1_500,
            unit_ops: 500,
            ..RankedSet::default()
        }
    }

    #[test]
    fn measures_union_of_selections_only() {
        let w = pgss_workloads::gzip(0.02);
        let t = scaled();
        let est = t.run(&w);
        // Detail budget: one probe per interval (a few extra for trailing
        // partial intervals, since nominal_ops is approximate) plus
        // warm+unit per distinct selected interval.
        let intervals = (w.nominal_ops() / t.ff_ops) + 4;
        let max_detail = intervals * t.probe_ops + est.samples * (t.warm_ops + t.unit_ops);
        assert!(
            est.detailed_ops() <= max_detail,
            "detail {} > bound {max_detail}",
            est.detailed_ops()
        );
        assert!(est.samples > 0);
    }

    #[test]
    fn reasonable_accuracy_with_finite_ci() {
        let w = pgss_workloads::wupwise(0.02);
        let truth = FullDetailed::new().ground_truth(&w);
        let est = scaled().run(&w);
        let err = relative_error(est.ipc, truth.ipc);
        assert!(err < 0.2, "ranked-set error {err:.4}");
        let ci = est.ci.expect("between-replicate interval");
        assert!(ci.half_width.is_finite() && ci.half_width > 0.0);
        assert_eq!(ci.n, scaled().replicates);
    }

    #[test]
    fn deterministic() {
        let w = pgss_workloads::parser(0.01);
        let a = scaled().run(&w);
        let b = scaled().run(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn more_replicates_do_not_inflate_measured_cost_per_sample() {
        // The union pass measures each distinct interval once, so doubling
        // replicates grows the union sublinearly.
        let w = pgss_workloads::gzip(0.02);
        let few = scaled().run(&w);
        let many = RankedSet {
            replicates: 10,
            ..scaled()
        }
        .run(&w);
        assert!(many.samples < few.samples * 5, "{}", many.samples);
    }

    #[test]
    fn name_encodes_parameters() {
        assert_eq!(RankedSet::new().name(), "RankedSet(1M/r2x5)");
        assert_eq!(
            RankedSet {
                signature: Signature::Mav,
                ..scaled()
            }
            .name(),
            "RankedSet-MAV(100k/r2x5)"
        );
    }
}
