//! The result of one simulation: reliability, energy, performance.

use crate::capture::HierarchySnapshot;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::readpath::ReadPathModel;
use crate::scheme::ProtectionScheme;
use reap_cache::CacheStats;
use reap_reliability::{LogHistogram, Mttf, ReplayScore};
use std::fmt;

/// Aggregated results of one simulation run, queryable per
/// [`ProtectionScheme`].
///
/// # Examples
///
/// ```
/// use reap_core::{Experiment, ProtectionScheme};
/// use reap_trace::SpecWorkload;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let report = Experiment::paper_hierarchy()
///     .workload(SpecWorkload::H264ref)
///     .accesses(50_000)
///     .run()?;
/// // Fig. 5 metric:
/// let gain = report.mttf_improvement(ProtectionScheme::Reap);
/// // Fig. 6 metric:
/// let overhead = report.energy_overhead(ProtectionScheme::Reap);
/// assert!(gain >= 1.0 && overhead >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Report {
    l1i_stats: CacheStats,
    l1d_stats: CacheStats,
    l2_stats: CacheStats,
    memory_reads: u64,
    memory_writes: u64,
    histogram: LogHistogram,
    fail_conventional: f64,
    fail_reap: f64,
    fail_serial: f64,
    writeback_exposure: f64,
    energy_model: EnergyModel,
    readpath_model: ReadPathModel,
    duration_seconds: f64,
    p_rd: f64,
}

impl Report {
    /// Assembles a report from a hierarchy snapshot and the scored
    /// failure sums — the common tail of both a single-pass run and a
    /// capture/replay evaluation (called by [`crate::Simulator`]).
    pub(crate) fn assemble(
        snapshot: &HierarchySnapshot,
        aggregator: &ReplayScore,
        energy_model: EnergyModel,
        readpath_model: ReadPathModel,
        duration_seconds: f64,
        p_rd: f64,
    ) -> Self {
        Self {
            l1i_stats: snapshot.l1i,
            l1d_stats: snapshot.l1d,
            l2_stats: snapshot.l2,
            memory_reads: snapshot.memory_reads,
            memory_writes: snapshot.memory_writes,
            fail_conventional: aggregator.conventional().expected_failures(),
            fail_reap: aggregator.reap().expected_failures(),
            fail_serial: aggregator.serial().expected_failures(),
            writeback_exposure: aggregator.writeback_exposure(),
            histogram: aggregator.histogram().clone(),
            energy_model,
            readpath_model,
            duration_seconds,
            p_rd,
        }
    }

    /// L1 instruction-cache counters.
    pub fn l1i_stats(&self) -> &CacheStats {
        &self.l1i_stats
    }

    /// L1 data-cache counters.
    pub fn l1d_stats(&self) -> &CacheStats {
        &self.l1d_stats
    }

    /// L2 counters (measurement window only).
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2_stats
    }

    /// Reads that reached main memory.
    pub fn memory_reads(&self) -> u64 {
        self.memory_reads
    }

    /// Writes that reached main memory.
    pub fn memory_writes(&self) -> u64 {
        self.memory_writes
    }

    /// The per-read, per-cell disturbance probability in force.
    pub fn p_rd(&self) -> f64 {
        self.p_rd
    }

    /// Simulated wall-clock duration of the measurement window (s).
    pub fn duration_seconds(&self) -> f64 {
        self.duration_seconds
    }

    /// The Fig. 3 histogram: demand-check events binned by accumulated
    /// read count, with conventional failure contribution per bin.
    pub fn histogram(&self) -> &LogHistogram {
        &self.histogram
    }

    /// Expected uncorrectable failures over the window under `scheme`.
    ///
    /// Disruptive-restore shares the serial scheme's law — one read's
    /// disturbance per demand read; see [`crate::observer`].
    pub fn expected_failures(&self, scheme: ProtectionScheme) -> f64 {
        match scheme {
            ProtectionScheme::Conventional => self.fail_conventional,
            ProtectionScheme::Reap => self.fail_reap,
            ProtectionScheme::SerialTagFirst | ProtectionScheme::DisruptiveRestore => {
                self.fail_serial
            }
        }
    }

    /// Unchecked failure probability carried out by dirty write-backs —
    /// an exposure channel the paper does not model (extension metric).
    pub fn writeback_exposure(&self) -> f64 {
        self.writeback_exposure
    }

    /// MTTF under `scheme`.
    pub fn mttf(&self, scheme: ProtectionScheme) -> Mttf {
        Mttf::from_seconds(self.duration_seconds / self.expected_failures(scheme))
    }

    /// MTTF normalized to the conventional baseline — the Fig. 5 metric.
    ///
    /// Returns 1.0 when no failure-exposed demand reads occurred at all
    /// (e.g. a purely streaming workload with zero L2 read hits), where
    /// the ratio is otherwise undefined.
    pub fn mttf_improvement(&self, scheme: ProtectionScheme) -> f64 {
        let conv = self.expected_failures(ProtectionScheme::Conventional);
        let this = self.expected_failures(scheme);
        if conv == 0.0 && this == 0.0 {
            return 1.0;
        }
        conv / this
    }

    /// Dynamic-energy breakdown of the L2 under `scheme`.
    pub fn energy(&self, scheme: ProtectionScheme) -> EnergyBreakdown {
        self.energy_model.breakdown(&self.l2_stats, scheme)
    }

    /// Dynamic-energy overhead versus conventional — the Fig. 6 metric.
    pub fn energy_overhead(&self, scheme: ProtectionScheme) -> f64 {
        self.energy_model
            .overhead_vs_conventional(&self.l2_stats, scheme)
    }

    /// L2 read access time under `scheme` (s).
    pub fn access_time(&self, scheme: ProtectionScheme) -> f64 {
        self.readpath_model.read_access_time(scheme)
    }

    /// Mean concealed reads per L2 access observed in the window.
    pub fn mean_concealed_reads(&self) -> f64 {
        self.l2_stats.concealed_per_access()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "L1I: {}", self.l1i_stats)?;
        writeln!(f, "L1D: {}", self.l1d_stats)?;
        writeln!(f, "L2 : {}", self.l2_stats)?;
        writeln!(
            f,
            "memory: {} reads, {} writes; P_rd = {:.3e}",
            self.memory_reads, self.memory_writes, self.p_rd
        )?;
        for s in ProtectionScheme::ALL {
            writeln!(
                f,
                "{:<28} E[fail] = {:.3e}  MTTF gain = {:>9.2}x  energy = {:+.2}%",
                s.to_string(),
                self.expected_failures(s),
                self.mttf_improvement(s),
                100.0 * self.energy_overhead(s)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;
    use reap_trace::SpecWorkload;

    fn report(workload: SpecWorkload) -> Report {
        Experiment::paper_hierarchy()
            .workload(workload)
            .budgets(2_000, 40_000)
            .seed(11)
            .run()
            .unwrap()
    }

    #[test]
    fn reap_beats_conventional_on_mttf() {
        let r = report(SpecWorkload::DealII);
        assert!(r.mttf_improvement(ProtectionScheme::Reap) > 2.0);
        assert!(
            r.mttf(ProtectionScheme::Reap).as_seconds()
                > r.mttf(ProtectionScheme::Conventional).as_seconds()
        );
    }

    #[test]
    fn serial_matches_reap_failures_but_not_time() {
        let r = report(SpecWorkload::DealII);
        // Serial checks each demand read singly; REAP additionally checks
        // concealed reads, so REAP accrues *more* check events — but both
        // eliminate accumulation. Expected failures per check are equal,
        // so serial <= reap in failure mass, both far below conventional.
        assert!(
            r.expected_failures(ProtectionScheme::SerialTagFirst)
                <= r.expected_failures(ProtectionScheme::Reap)
        );
        assert!(
            r.expected_failures(ProtectionScheme::Reap)
                < r.expected_failures(ProtectionScheme::Conventional)
        );
        assert!(
            r.access_time(ProtectionScheme::SerialTagFirst) > r.access_time(ProtectionScheme::Reap)
        );
    }

    #[test]
    fn energy_overheads_ordered() {
        let r = report(SpecWorkload::CactusAdm);
        let reap = r.energy_overhead(ProtectionScheme::Reap);
        let restore = r.energy_overhead(ProtectionScheme::DisruptiveRestore);
        let serial = r.energy_overhead(ProtectionScheme::SerialTagFirst);
        assert!(reap > 0.0 && reap < 0.15, "reap overhead = {reap}");
        assert!(restore > 10.0 * reap, "restore is much costlier: {restore}");
        assert!(serial < 0.0, "serial saves data-read energy: {serial}");
    }

    #[test]
    fn histogram_populated() {
        let r = report(SpecWorkload::Perlbench);
        assert!(r.histogram().total_count() > 0);
        assert!(r.histogram().max_n() >= 1);
    }

    #[test]
    fn display_mentions_all_schemes() {
        let r = report(SpecWorkload::Mcf);
        let text = r.to_string();
        for s in ProtectionScheme::ALL {
            assert!(text.contains(&s.to_string()), "missing {s}");
        }
    }
}
