//! Unified simulation statistics shared by every accelerator model.

use crate::breakdown::CycleBreakdown;
use crate::energy::EnergyModel;

/// Per-category energy totals in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// bf16 multiplications.
    pub multiply_pj: f64,
    /// bf16 accumulator additions.
    pub accumulate_pj: f64,
    /// Integer index operations (ranges, FNIR comparators, output indices).
    pub index_pj: f64,
    /// SRAM reads (values, indices, row pointers, image).
    pub sram_read_pj: f64,
    /// Output accumulator SRAM writes.
    pub sram_write_pj: f64,
}

impl EnergyBreakdown {
    /// Component-wise sum of two breakdowns.
    pub fn merge(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            multiply_pj: self.multiply_pj + other.multiply_pj,
            accumulate_pj: self.accumulate_pj + other.accumulate_pj,
            index_pj: self.index_pj + other.index_pj,
            sram_read_pj: self.sram_read_pj + other.sram_read_pj,
            sram_write_pj: self.sram_write_pj + other.sram_write_pj,
        }
    }

    /// Named components, in declaration order — the one place that
    /// enumerates categories for reports and traces.
    pub fn fields(&self) -> [(&'static str, f64); 5] {
        [
            ("multiply_pj", self.multiply_pj),
            ("accumulate_pj", self.accumulate_pj),
            ("index_pj", self.index_pj),
            ("sram_read_pj", self.sram_read_pj),
            ("sram_write_pj", self.sram_write_pj),
        ]
    }

    /// Total energy in picojoules.
    pub fn total(&self) -> f64 {
        self.fields().iter().map(|(_, v)| v).sum()
    }
}

/// Host-throughput rates derived from a [`SimStats`] and the wall time the
/// host spent producing it: simulated work per second of real time. These
/// measure the *simulator's* speed (for bench history and regression
/// tracking), not the modeled accelerator's.
///
/// The rates are only honest over the counters the host actually
/// simulated: raw per-pair sums, before channel-sample scaling. Scaled
/// counters are the work a run *represents* (the full layer), an
/// informational figure; divided by host time they would credit the host
/// with pairs it never simulated (one sampled fig09 run reported 4.7e11
/// pairs/s on 2 cores that way). The runner reports rates over its raw
/// counters (`NetworkResult::simulated` in `ant-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Throughput {
    /// Non-zero kernel/image pairs simulated per wall-clock second.
    pub pairs_per_sec: f64,
    /// Effectual MACs (useful multiplications) simulated per wall-clock
    /// second.
    pub effectual_macs_per_sec: f64,
    /// Simulated cycles (`total_cycles`) per wall-clock second.
    pub sim_cycles_per_sec: f64,
}

impl Throughput {
    /// Named rates, in declaration order — for traces and manifests.
    pub fn fields(&self) -> [(&'static str, f64); 3] {
        [
            ("pairs_per_sec", self.pairs_per_sec),
            ("effectual_macs_per_sec", self.effectual_macs_per_sec),
            ("sim_cycles_per_sec", self.sim_cycles_per_sec),
        ]
    }
}

/// Operation and cycle counters for a simulated workload (one kernel/image
/// pair, a layer, or a whole network — counters accumulate).
///
/// SRAM read counters are in 16-bit words, matching the paper's storage
/// format (Table 4 / Section 6.3: 16-bit values, 16-bit indices, two
/// 32-bit elements per 64-bit access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Active compute cycles accumulated across PEs (pre-load-balancing).
    pub pe_cycles: u64,
    /// Pipeline start-up cycles (5 per matrix pair handed to a PE).
    pub startup_cycles: u64,
    /// Multiplications executed.
    pub mults: u64,
    /// Executed multiplications contributing to a valid output.
    pub useful_mults: u64,
    /// Executed multiplications that were RCPs.
    pub rcps_executed: u64,
    /// Non-zero products skipped by anticipation.
    pub rcps_skipped: u64,
    /// All non-zero kernel/image pairs of the workload.
    pub pairs_total: u64,
    /// Kernel Values buffer reads (16-bit words).
    pub kernel_value_reads: u64,
    /// Kernel Columns-array reads (16-bit words).
    pub kernel_index_reads: u64,
    /// Kernel Row-pointers reads (16-bit words).
    pub rowptr_reads: u64,
    /// Image value + index reads (16-bit words).
    pub image_reads: u64,
    /// Integer index operations (range computation, FNIR comparators,
    /// output-index computation) — charged as 32-bit adds (Section 6.3).
    pub index_ops: u64,
    /// Output accumulator buffer writes.
    pub accumulator_writes: u64,
    /// Accumulator additions (bf16 adds, one per useful product).
    pub accumulator_adds: u64,
    /// Per-cause attribution of `total_cycles()`: every cycle counted in
    /// `pe_cycles + startup_cycles` is charged to exactly one
    /// [`crate::CycleCause`]. Machines uphold `cycles.total() ==
    /// total_cycles()` (checked by [`SimStats::debug_assert_cycles_attributed`]).
    pub cycles: CycleBreakdown,
}

impl SimStats {
    /// Total cycles including start-up (pre-load-balancing).
    pub fn total_cycles(&self) -> u64 {
        self.pe_cycles + self.startup_cycles
    }

    /// Total SRAM reads in 16-bit words.
    pub fn sram_reads(&self) -> u64 {
        self.kernel_value_reads + self.kernel_index_reads + self.rowptr_reads + self.image_reads
    }

    /// Total RCPs in the workload's cartesian product.
    pub fn rcps_total(&self) -> u64 {
        self.rcps_executed + self.rcps_skipped
    }

    /// Fraction of RCPs eliminated (Table 5 metric); 1.0 when none existed.
    pub fn rcps_avoided_fraction(&self) -> f64 {
        let total = self.rcps_total();
        if total == 0 {
            1.0
        } else {
            self.rcps_skipped as f64 / total as f64
        }
    }

    /// Energy in picojoules under the operation-counter model
    /// (paper Section 6.3).
    pub fn energy_pj(&self, model: &EnergyModel) -> f64 {
        self.energy_breakdown(model).total()
    }

    /// Per-category energy (the stack behind [`SimStats::energy_pj`]).
    pub fn energy_breakdown(&self, model: &EnergyModel) -> EnergyBreakdown {
        EnergyBreakdown {
            multiply_pj: model.mult_bf16 * self.mults as f64,
            accumulate_pj: model.add_bf16 * self.accumulator_adds as f64,
            index_pj: model.int_add32 * self.index_ops as f64,
            sram_read_pj: model.sram_word_read() * self.sram_reads() as f64,
            sram_write_pj: model.sram_word_write() * self.accumulator_writes as f64,
        }
    }

    /// Whether the per-cause attribution covers `total_cycles()` exactly.
    /// Holds for every machine output; arbitrary hand-built stats (e.g.
    /// property-test inputs) may violate it.
    pub fn cycles_attributed(&self) -> bool {
        self.cycles.total() == self.total_cycles()
    }

    /// Debug-asserts the attribution invariant at a machine's
    /// stat-construction site. `context` names the machine for the panic
    /// message. Free in release builds.
    #[track_caller]
    pub fn debug_assert_cycles_attributed(&self, context: &str) {
        debug_assert!(
            self.cycles_attributed(),
            "{context}: cycle attribution {} != total_cycles {} (breakdown {:?})",
            self.cycles.total(),
            self.total_cycles(),
            self.cycles,
        );
    }

    /// Effectual MACs: executed multiplications that contributed to a valid
    /// output (the paper's "effectual computation" — alias of
    /// `useful_mults`, named for throughput reporting).
    pub fn effectual_macs(&self) -> u64 {
        self.useful_mults
    }

    /// Simulated-work-per-wall-second rates for a region that took
    /// `wall_secs` of host time to simulate. Zero rates when `wall_secs`
    /// is non-positive or non-finite (a clock that did not advance).
    pub fn throughput(&self, wall_secs: f64) -> Throughput {
        // NaN, zero, negative, and infinite wall times all yield zero rates.
        if !(wall_secs.is_finite() && wall_secs > 0.0) {
            return Throughput::default();
        }
        Throughput {
            pairs_per_sec: self.pairs_total as f64 / wall_secs,
            effectual_macs_per_sec: self.effectual_macs() as f64 / wall_secs,
            sim_cycles_per_sec: self.total_cycles() as f64 / wall_secs,
        }
    }

    /// Accumulator bank-conflict serialization cycles (first-class view of
    /// `cycles.accum_conflict`). Zero unless bank modeling is enabled, e.g.
    /// via `AntAccelerator::with_accumulator_banks`.
    pub fn accum_conflict_cycles(&self) -> u64 {
        self.cycles.accum_conflict
    }

    /// Named counter values, in declaration order (the seven `cycles_*`
    /// attribution entries last) — the one place that enumerates fields for
    /// tracing, manifests, and merge checks.
    pub fn fields(&self) -> [(&'static str, u64); 21] {
        [
            ("pe_cycles", self.pe_cycles),
            ("startup_cycles", self.startup_cycles),
            ("mults", self.mults),
            ("useful_mults", self.useful_mults),
            ("rcps_executed", self.rcps_executed),
            ("rcps_skipped", self.rcps_skipped),
            ("pairs_total", self.pairs_total),
            ("kernel_value_reads", self.kernel_value_reads),
            ("kernel_index_reads", self.kernel_index_reads),
            ("rowptr_reads", self.rowptr_reads),
            ("image_reads", self.image_reads),
            ("index_ops", self.index_ops),
            ("accumulator_writes", self.accumulator_writes),
            ("accumulator_adds", self.accumulator_adds),
            ("cycles_compute", self.cycles.compute),
            ("cycles_fnir_scan", self.cycles.fnir_scan),
            ("cycles_accum_conflict", self.cycles.accum_conflict),
            ("cycles_sram_fetch", self.cycles.sram_fetch),
            ("cycles_drain", self.cycles.drain),
            ("cycles_idle_imbalance", self.cycles.idle_imbalance),
            ("cycles_startup", self.cycles.startup),
        ]
    }

    /// Component-wise sum of two stats — the pure counterpart of
    /// [`SimStats::accumulate`].
    pub fn merge(&self, other: &SimStats) -> SimStats {
        let mut out = *self;
        out.accumulate(other);
        out
    }

    /// Component-wise difference (`self - baseline`), saturating at zero.
    /// Used to report what one phase or layer added to a running total.
    pub fn delta_from(&self, baseline: &SimStats) -> SimStats {
        let mut out = SimStats::default();
        for ((name, after), (_, before)) in self.fields().iter().zip(baseline.fields().iter()) {
            *out.field_mut(name) = after.saturating_sub(*before);
        }
        out
    }

    /// Sets a named counter — the write-side inverse of
    /// [`SimStats::fields`], used to reconstruct stats from serialized
    /// form. Returns `false` (leaving `self` unchanged) for an unknown
    /// name instead of panicking, so deserializers can surface a typed
    /// error.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        if !SimStats::default().fields().iter().any(|(n, _)| *n == name) {
            return false;
        }
        *self.field_mut(name) = value;
        true
    }

    fn field_mut(&mut self, name: &str) -> &mut u64 {
        match name {
            "pe_cycles" => &mut self.pe_cycles,
            "startup_cycles" => &mut self.startup_cycles,
            "mults" => &mut self.mults,
            "useful_mults" => &mut self.useful_mults,
            "rcps_executed" => &mut self.rcps_executed,
            "rcps_skipped" => &mut self.rcps_skipped,
            "pairs_total" => &mut self.pairs_total,
            "kernel_value_reads" => &mut self.kernel_value_reads,
            "kernel_index_reads" => &mut self.kernel_index_reads,
            "rowptr_reads" => &mut self.rowptr_reads,
            "image_reads" => &mut self.image_reads,
            "index_ops" => &mut self.index_ops,
            "accumulator_writes" => &mut self.accumulator_writes,
            "accumulator_adds" => &mut self.accumulator_adds,
            "cycles_compute" => &mut self.cycles.compute,
            "cycles_fnir_scan" => &mut self.cycles.fnir_scan,
            "cycles_accum_conflict" => &mut self.cycles.accum_conflict,
            "cycles_sram_fetch" => &mut self.cycles.sram_fetch,
            "cycles_drain" => &mut self.cycles.drain,
            "cycles_idle_imbalance" => &mut self.cycles.idle_imbalance,
            "cycles_startup" => &mut self.cycles.startup,
            _ => unreachable!("unknown SimStats field {name}"),
        }
    }

    /// Merges another run's counters into this one.
    pub fn accumulate(&mut self, other: &SimStats) {
        self.pe_cycles += other.pe_cycles;
        self.startup_cycles += other.startup_cycles;
        self.mults += other.mults;
        self.useful_mults += other.useful_mults;
        self.rcps_executed += other.rcps_executed;
        self.rcps_skipped += other.rcps_skipped;
        self.pairs_total += other.pairs_total;
        self.kernel_value_reads += other.kernel_value_reads;
        self.kernel_index_reads += other.kernel_index_reads;
        self.rowptr_reads += other.rowptr_reads;
        self.image_reads += other.image_reads;
        self.index_ops += other.index_ops;
        self.accumulator_writes += other.accumulator_writes;
        self.accumulator_adds += other.accumulator_adds;
        self.cycles.accumulate(&other.cycles);
    }

    /// Scales every counter by a real factor (rounding), for channel-pair
    /// sampling with non-integer ratios.
    pub fn scaled_f64(&self, factor: f64) -> SimStats {
        assert!(factor >= 0.0 && factor.is_finite(), "factor must be finite");
        let s = |v: u64| (v as f64 * factor).round() as u64;
        let pe_cycles = s(self.pe_cycles);
        let startup_cycles = s(self.startup_cycles);
        SimStats {
            pe_cycles,
            startup_cycles,
            mults: s(self.mults),
            useful_mults: s(self.useful_mults),
            rcps_executed: s(self.rcps_executed),
            rcps_skipped: s(self.rcps_skipped),
            pairs_total: s(self.pairs_total),
            kernel_value_reads: s(self.kernel_value_reads),
            kernel_index_reads: s(self.kernel_index_reads),
            rowptr_reads: s(self.rowptr_reads),
            image_reads: s(self.image_reads),
            index_ops: s(self.index_ops),
            accumulator_writes: s(self.accumulator_writes),
            accumulator_adds: s(self.accumulator_adds),
            // Per-cause rounding drifts off the independently rounded
            // pe+startup totals; renormalize so attribution survives
            // non-integer channel-sampling scales.
            cycles: self
                .cycles
                .scaled_f64_to(factor, pe_cycles + startup_cycles),
        }
    }

    /// Scales every counter by an integer factor — used when a deterministic
    /// sample of channel pairs stands in for the full set (DESIGN.md,
    /// "Sampling").
    pub fn scaled(&self, factor: u64) -> SimStats {
        SimStats {
            pe_cycles: self.pe_cycles * factor,
            startup_cycles: self.startup_cycles * factor,
            mults: self.mults * factor,
            useful_mults: self.useful_mults * factor,
            rcps_executed: self.rcps_executed * factor,
            rcps_skipped: self.rcps_skipped * factor,
            pairs_total: self.pairs_total * factor,
            kernel_value_reads: self.kernel_value_reads * factor,
            kernel_index_reads: self.kernel_index_reads * factor,
            rowptr_reads: self.rowptr_reads * factor,
            image_reads: self.image_reads * factor,
            index_ops: self.index_ops * factor,
            accumulator_writes: self.accumulator_writes * factor,
            accumulator_adds: self.accumulator_adds * factor,
            cycles: self.cycles.scaled(factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            pe_cycles: 100,
            startup_cycles: 5,
            mults: 400,
            useful_mults: 300,
            rcps_executed: 100,
            rcps_skipped: 900,
            pairs_total: 1300,
            kernel_value_reads: 50,
            kernel_index_reads: 80,
            rowptr_reads: 10,
            image_reads: 40,
            index_ops: 500,
            accumulator_writes: 300,
            accumulator_adds: 300,
            cycles: CycleBreakdown {
                compute: 60,
                fnir_scan: 20,
                accum_conflict: 5,
                sram_fetch: 10,
                drain: 3,
                idle_imbalance: 2,
                startup: 5,
            },
        }
    }

    #[test]
    fn totals_and_fractions() {
        let s = sample();
        assert_eq!(s.total_cycles(), 105);
        assert_eq!(s.sram_reads(), 180);
        assert_eq!(s.rcps_total(), 1000);
        assert!((s.rcps_avoided_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn avoided_fraction_with_no_rcps_is_one() {
        let s = SimStats::default();
        assert_eq!(s.rcps_avoided_fraction(), 1.0);
    }

    #[test]
    fn accumulate_sums_all_fields() {
        let mut a = sample();
        a.accumulate(&sample());
        assert_eq!(a.mults, 800);
        assert_eq!(a.pe_cycles, 200);
        assert_eq!(a.accumulator_adds, 600);
        assert_eq!(a.pairs_total, 2600);
    }

    #[test]
    fn scaled_multiplies_all_fields() {
        let s = sample().scaled(3);
        assert_eq!(s.mults, 1200);
        assert_eq!(s.startup_cycles, 15);
        assert_eq!(s.image_reads, 120);
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let model = EnergyModel::paper_7nm();
        let s = sample();
        let b = s.energy_breakdown(&model);
        assert!((b.total() - s.energy_pj(&model)).abs() < 1e-9);
        assert!(b.multiply_pj > 0.0 && b.sram_read_pj > 0.0);
    }

    #[test]
    fn merge_matches_accumulate_and_is_commutative() {
        let a = sample();
        let b = sample().scaled(2);
        let merged = a.merge(&b);
        let mut acc = a;
        acc.accumulate(&b);
        assert_eq!(merged, acc);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&SimStats::default()), a);
    }

    #[test]
    fn delta_from_inverts_merge() {
        let a = sample();
        let b = sample().scaled(3);
        assert_eq!(a.merge(&b).delta_from(&a), b);
        assert_eq!(a.delta_from(&a), SimStats::default());
    }

    #[test]
    fn fields_cover_every_counter() {
        // fields() must enumerate all 14 counters plus the 7 cycle-cause
        // entries: summing a stats whose every field is 1 gives 21.
        let ones = SimStats::default().merge(&SimStats {
            pe_cycles: 1,
            startup_cycles: 1,
            mults: 1,
            useful_mults: 1,
            rcps_executed: 1,
            rcps_skipped: 1,
            pairs_total: 1,
            kernel_value_reads: 1,
            kernel_index_reads: 1,
            rowptr_reads: 1,
            image_reads: 1,
            index_ops: 1,
            accumulator_writes: 1,
            accumulator_adds: 1,
            cycles: CycleBreakdown {
                compute: 1,
                fnir_scan: 1,
                accum_conflict: 1,
                sram_fetch: 1,
                drain: 1,
                idle_imbalance: 1,
                startup: 1,
            },
        });
        assert_eq!(ones.fields().iter().map(|(_, v)| v).sum::<u64>(), 21);
    }

    #[test]
    fn sample_attribution_is_consistent() {
        let s = sample();
        assert!(s.cycles_attributed());
        assert_eq!(s.cycles.total(), s.total_cycles());
        assert_eq!(s.accum_conflict_cycles(), 5);
        s.debug_assert_cycles_attributed("sample");
    }

    #[test]
    fn merge_scaled_and_delta_preserve_attribution() {
        let a = sample();
        let b = sample().scaled(3);
        assert!(b.cycles_attributed());
        assert!(a.merge(&b).cycles_attributed());
        assert!(b.delta_from(&a).cycles_attributed());
    }

    #[test]
    fn scaled_f64_preserves_attribution_exactly() {
        // 1/3 is the adversarial case: per-cause rounding sums to one more
        // cycle than the rounded pe+startup totals without renormalization.
        for factor in [0.0, 1.0 / 3.0, 0.37, 1.0, 2.5, 10.01] {
            let s = sample().scaled_f64(factor);
            assert!(
                s.cycles_attributed(),
                "factor {factor}: {} != {}",
                s.cycles.total(),
                s.total_cycles()
            );
        }
    }

    #[test]
    fn throughput_divides_by_wall_seconds() {
        let s = sample();
        let t = s.throughput(2.0);
        assert!((t.pairs_per_sec - 650.0).abs() < 1e-9);
        assert!((t.effectual_macs_per_sec - 150.0).abs() < 1e-9);
        assert!((t.sim_cycles_per_sec - 52.5).abs() < 1e-9);
        assert_eq!(s.effectual_macs(), s.useful_mults);
    }

    #[test]
    fn throughput_guards_degenerate_wall_time() {
        let s = sample();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(s.throughput(bad), Throughput::default(), "wall {bad}");
        }
    }

    #[test]
    fn throughput_fields_enumerate_every_rate() {
        let t = Throughput {
            pairs_per_sec: 1.0,
            effectual_macs_per_sec: 1.0,
            sim_cycles_per_sec: 1.0,
        };
        assert_eq!(t.fields().iter().map(|(_, v)| v).sum::<f64>(), 3.0);
    }

    #[test]
    fn energy_breakdown_merge_sums_componentwise() {
        let model = EnergyModel::paper_7nm();
        let a = sample().energy_breakdown(&model);
        let b = sample().scaled(2).energy_breakdown(&model);
        let merged = a.merge(&b);
        assert!((merged.total() - (a.total() + b.total())).abs() < 1e-9);
        assert_eq!(merged.multiply_pj, a.multiply_pj + b.multiply_pj);
        assert_eq!(merged.sram_write_pj, a.sram_write_pj + b.sram_write_pj);
    }

    #[test]
    fn energy_is_monotone_in_counters() {
        let model = EnergyModel::paper_7nm();
        let small = SimStats {
            mults: 10,
            ..SimStats::default()
        };
        let big = SimStats {
            mults: 1000,
            ..SimStats::default()
        };
        assert!(big.energy_pj(&model) > small.energy_pj(&model));
    }
}
