//! The First `n+1` Indices within Range (FNIR) block (paper Section 4.4,
//! Fig. 8).
//!
//! The FNIR block is combinational logic with two jobs (paper Section 4.2,
//! item 4): find the first `n` kernel indices whose `s` coordinate lies in
//! `[min, max]` so their values can be fetched and sent to the multiplier
//! array, and find the `n+1`-st valid index (if any) to feed back to the
//! Kernel Indices Buffer controller so the next window starts there.
//!
//! The model mirrors the hardware structure: `k` parallel comparator blocks
//! produce a `k`-bit validity mask; an iterative chain of `n+1`
//! *Arbiter Select* stages (each a fixed-priority arbiter whose one-hot
//! grant is stripped from the request vector before the next stage) encodes
//! the positions of the first `n+1` ones.

use std::fmt;

/// The FNIR block configured with array size `n` and window size `k`.
///
/// # Example
///
/// ```
/// use ant_core::Fnir;
///
/// let fnir = Fnir::new(2, 4).expect("valid parameters");
/// // Window of 4 s-indices, range [2, 5]:
/// let out = fnir.select(2, 5, &[0, 3, 5, 7]);
/// // First 2 valid positions are 1 and 2; no 3rd valid exists.
/// assert_eq!(out.positions(), &[Some(1), Some(2), None]);
/// assert!(!out.feedback_valid());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnir {
    n: usize,
    k: usize,
}

/// Errors constructing an [`Fnir`] block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnirError {
    /// `n` and `k` must both be at least 1.
    ZeroParameter,
}

impl fmt::Display for FnirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnirError::ZeroParameter => write!(f, "fnir parameters must be non-zero"),
        }
    }
}

impl std::error::Error for FnirError {}

/// Output of one FNIR evaluation: `n+1` binary-encoded positions with their
/// valid bits. Index `n` (the last) is the feedback output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnirOutput {
    positions: Vec<Option<usize>>,
    comparator_ops: u64,
}

impl FnirOutput {
    /// The `n+1` position outputs; `None` where the valid bit is clear.
    pub fn positions(&self) -> &[Option<usize>] {
        &self.positions
    }

    /// The positions of the first `n` valid indices (for the value fetch).
    pub fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        self.positions[..self.positions.len() - 1]
            .iter()
            .flatten()
            .copied()
    }

    /// Number of selected (first `n`) valid positions.
    pub fn selected_count(&self) -> usize {
        self.positions[..self.positions.len() - 1]
            .iter()
            .filter(|p| p.is_some())
            .count()
    }

    /// The `n+1`-st position (the feedback into the Kernel Indices Buffer),
    /// if a `n+1`-st valid index existed in the window.
    pub fn feedback(&self) -> Option<usize> {
        *self.positions.last().expect("n+1 outputs")
    }

    /// Whether the feedback output's valid bit is set.
    pub fn feedback_valid(&self) -> bool {
        self.feedback().is_some()
    }

    /// Comparator operations performed (2 per window lane: `>= min` and
    /// `<= max`), for the energy model.
    pub fn comparator_ops(&self) -> u64 {
        self.comparator_ops
    }
}

impl Fnir {
    /// Creates an FNIR block for an `n x n` multiplier array with a `k`-wide
    /// index window.
    ///
    /// With `k <= n` the feedback (`n+1`-st) output can never fire and the
    /// scan degenerates to plain sequential windows — exactly the
    /// throughput-bottleneck regime the paper's Fig. 13 shows for `k = 4`
    /// with a 4x4 array.
    ///
    /// # Errors
    ///
    /// [`FnirError::ZeroParameter`] when `n == 0` or `k == 0`.
    pub fn new(n: usize, k: usize) -> Result<Self, FnirError> {
        if n == 0 || k == 0 {
            return Err(FnirError::ZeroParameter);
        }
        Ok(Self { n, k })
    }

    /// Multiplier array dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Window size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Evaluates the block on a window of up to `k` `s`-indices against the
    /// inclusive range `[min, max]`.
    ///
    /// Shorter windows model the end of the Columns array; lanes beyond
    /// `window.len()` present invalid inputs to the priority encoder.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() > k`.
    pub fn select(&self, min: i64, max: i64, window: &[i64]) -> FnirOutput {
        let mut positions = Vec::with_capacity(self.n + 1);
        let (count, feedback) =
            self.select_core(min, max, window.len(), |i| window[i], &mut |pos| {
                positions.push(Some(pos));
            });
        debug_assert_eq!(count as usize, positions.len());
        positions.resize(self.n, None);
        positions.push(feedback);
        FnirOutput {
            positions,
            comparator_ops: 2 * window.len() as u64,
        }
    }

    /// Allocation-free evaluation over a window of column (`s`) indices, as
    /// stored in CSR `col_idx`. Invokes `on_selected` with the lane position
    /// of each of the first `n` in-range indices, in lane order, and returns
    /// the selection summary.
    ///
    /// Semantically identical to [`Fnir::select`] on the same window: for
    /// `k <= 64` the validity mask lives in one machine word and the
    /// `n+1` Arbiter Select stages are `trailing_zeros` + clear-lowest-bit
    /// steps; wider windows fall back to a scalar lane walk with the same
    /// outputs.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() > k`.
    pub fn select_cols(
        &self,
        min: i64,
        max: i64,
        window: &[usize],
        mut on_selected: impl FnMut(usize),
    ) -> FnirSelect {
        let (selected, feedback) = self.select_core(
            min,
            max,
            window.len(),
            |i| window[i] as i64,
            &mut on_selected,
        );
        FnirSelect {
            selected,
            feedback,
            comparator_ops: 2 * window.len() as u64,
        }
    }

    /// Shared comparator + arbiter-chain model behind [`Fnir::select`] and
    /// [`Fnir::select_cols`]: emits the first `n` valid lane positions and
    /// returns `(count, feedback)` where `feedback` is the `n+1`-st valid
    /// lane, if any.
    fn select_core(
        &self,
        min: i64,
        max: i64,
        len: usize,
        lane: impl Fn(usize) -> i64,
        on_selected: &mut impl FnMut(usize),
    ) -> (u32, Option<usize>) {
        assert!(len <= self.k, "window of {} exceeds k={}", len, self.k);
        if len <= 64 {
            // Stage 1: k parallel comparator blocks -> one-word validity mask.
            let mut mask: u64 = 0;
            for i in 0..len {
                let s = lane(i);
                mask |= u64::from(min <= s && s <= max) << i;
            }
            // Stage 2: n+1 Arbiter Select stages — find lowest set bit,
            // strip it, repeat.
            let mut count = 0u32;
            while mask != 0 && (count as usize) < self.n {
                on_selected(mask.trailing_zeros() as usize);
                mask &= mask - 1;
                count += 1;
            }
            let feedback = (mask != 0).then(|| mask.trailing_zeros() as usize);
            (count, feedback)
        } else {
            // k > 64: same semantics, lane-at-a-time.
            let mut count = 0u32;
            let mut feedback = None;
            for i in 0..len {
                let s = lane(i);
                if min <= s && s <= max {
                    if (count as usize) < self.n {
                        on_selected(i);
                        count += 1;
                    } else {
                        feedback = Some(i);
                        break;
                    }
                }
            }
            (count, feedback)
        }
    }
}

/// Summary of one allocation-free FNIR evaluation ([`Fnir::select_cols`]):
/// how many lanes were selected, the feedback lane, and the comparator
/// energy charge. The selected lane positions themselves are streamed to the
/// caller's closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnirSelect {
    /// Number of selected (first `n`) valid lanes.
    pub selected: u32,
    /// The `n+1`-st valid lane (feedback into the Kernel Indices Buffer).
    pub feedback: Option<usize>,
    /// Comparator operations performed (2 per window lane).
    pub comparator_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_first_n_plus_one() {
        let fnir = Fnir::new(2, 8).unwrap();
        let out = fnir.select(3, 6, &[1, 4, 5, 2, 6, 3, 9, 4]);
        // Valid lanes: 1 (4), 2 (5), 4 (6), 5 (3), 7 (4).
        assert_eq!(out.positions(), &[Some(1), Some(2), Some(4)]);
        assert_eq!(out.selected().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(out.feedback(), Some(4));
        assert!(out.feedback_valid());
    }

    #[test]
    fn no_valid_inputs_yields_all_invalid() {
        let fnir = Fnir::new(4, 16).unwrap();
        let out = fnir.select(10, 20, &[0, 1, 2, 3]);
        assert_eq!(out.selected_count(), 0);
        assert!(!out.feedback_valid());
        assert!(out.positions().iter().all(Option::is_none));
    }

    #[test]
    fn exactly_n_valid_has_no_feedback() {
        let fnir = Fnir::new(2, 4).unwrap();
        let out = fnir.select(0, 10, &[5, 20, 7, 30]);
        assert_eq!(out.selected_count(), 2);
        assert!(!out.feedback_valid());
    }

    #[test]
    fn more_than_n_valid_sets_feedback() {
        let fnir = Fnir::new(2, 4).unwrap();
        let out = fnir.select(0, 10, &[5, 6, 7, 8]);
        assert_eq!(out.selected().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(out.feedback(), Some(2));
    }

    #[test]
    fn short_window_at_stream_end() {
        let fnir = Fnir::new(4, 16).unwrap();
        let out = fnir.select(0, 100, &[1, 2]);
        assert_eq!(out.selected_count(), 2);
        assert!(!out.feedback_valid());
        assert_eq!(out.comparator_ops(), 4);
    }

    #[test]
    fn boundary_values_are_inclusive() {
        let fnir = Fnir::new(1, 4).unwrap();
        let out = fnir.select(3, 5, &[3, 5, 2, 6]);
        assert_eq!(out.positions()[0], Some(0));
        assert_eq!(out.feedback(), Some(1));
    }

    #[test]
    fn negative_range_bounds_work() {
        // Ranges can have negative minima before clamping (Eq. 11).
        let fnir = Fnir::new(1, 4).unwrap();
        let out = fnir.select(-5, 1, &[0, 1, 2, 3]);
        assert_eq!(out.positions()[0], Some(0));
        assert_eq!(out.feedback(), Some(1));
    }

    #[test]
    fn parameter_validation() {
        assert_eq!(Fnir::new(0, 4), Err(FnirError::ZeroParameter));
        assert_eq!(Fnir::new(4, 0), Err(FnirError::ZeroParameter));
        assert!(Fnir::new(4, 4).is_ok());
        assert!(Fnir::new(4, 16).is_ok());
    }

    #[test]
    fn window_not_larger_than_n_never_feeds_back() {
        // k <= n: even an all-valid window cannot produce an n+1-st output.
        let fnir = Fnir::new(4, 4).unwrap();
        let out = fnir.select(0, 100, &[1, 2, 3, 4]);
        assert_eq!(out.selected_count(), 4);
        assert!(!out.feedback_valid());
    }

    #[test]
    #[should_panic(expected = "exceeds k")]
    fn oversized_window_panics() {
        let fnir = Fnir::new(2, 4).unwrap();
        let _ = fnir.select(0, 1, &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            FnirError::ZeroParameter.to_string(),
            "fnir parameters must be non-zero"
        );
    }

    fn assert_select_cols_matches_select(fnir: &Fnir, min: i64, max: i64, window: &[usize]) {
        let as_i64: Vec<i64> = window.iter().map(|&c| c as i64).collect();
        let reference = fnir.select(min, max, &as_i64);
        let mut selected = Vec::new();
        let fast = fnir.select_cols(min, max, window, |pos| selected.push(pos));
        assert_eq!(
            selected,
            reference.selected().collect::<Vec<_>>(),
            "selected lanes diverge for window {window:?} range [{min}, {max}]"
        );
        assert_eq!(fast.selected as usize, reference.selected_count());
        assert_eq!(fast.feedback, reference.feedback());
        assert_eq!(fast.comparator_ops, reference.comparator_ops());
    }

    #[test]
    fn select_cols_matches_select_word_path() {
        let fnir = Fnir::new(2, 8).unwrap();
        assert_select_cols_matches_select(&fnir, 3, 6, &[1, 4, 5, 2, 6, 3, 9, 4]);
        assert_select_cols_matches_select(&fnir, 10, 20, &[0, 1, 2, 3]);
        assert_select_cols_matches_select(&fnir, 0, 10, &[5, 6, 7, 8]);
        assert_select_cols_matches_select(&fnir, 0, 0, &[]);
        // Negative minima before clamping (Eq. 11).
        assert_select_cols_matches_select(&fnir, -5, 1, &[0, 1, 2, 3]);
    }

    #[test]
    fn select_cols_matches_select_exhaustively_on_small_windows() {
        // Every 6-lane validity pattern, for several (n, k).
        for n in [1, 2, 4] {
            let fnir = Fnir::new(n, 6).unwrap();
            for pattern in 0u32..64 {
                let window: Vec<usize> = (0..6)
                    .map(|i| if pattern & (1 << i) != 0 { 5 } else { 50 })
                    .collect();
                assert_select_cols_matches_select(&fnir, 0, 10, &window);
            }
        }
    }

    #[test]
    fn select_cols_matches_select_beyond_word_width() {
        // k > 64 exercises the scalar fallback lane walk.
        let fnir = Fnir::new(3, 80).unwrap();
        let window: Vec<usize> = (0..70).map(|i| (i * 13) % 97).collect();
        assert_select_cols_matches_select(&fnir, 20, 40, &window);
        // Exactly 64 and 65 lanes straddle the path boundary.
        let window64: Vec<usize> = (0..64).map(|i| (i * 7) % 31).collect();
        assert_select_cols_matches_select(&fnir, 5, 12, &window64);
        let window65: Vec<usize> = (0..65).map(|i| (i * 7) % 31).collect();
        assert_select_cols_matches_select(&fnir, 5, 12, &window65);
    }
}
