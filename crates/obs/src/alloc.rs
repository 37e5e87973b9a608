//! Opt-in counting global allocator.
//!
//! [`CountingAlloc`] wraps the system allocator and, while counting is
//! enabled, tracks allocation count, allocated/freed bytes, live bytes, and
//! the live-byte peak in process-wide relaxed atomics. Install it as a
//! binary's global allocator (`ant-bench` does this for every experiment
//! binary, so the instrumentation is always *compiled in*):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ant_obs::alloc::CountingAlloc = ant_obs::alloc::CountingAlloc::new();
//! ```
//!
//! Counting is **off by default**: the disabled path is one relaxed atomic
//! load in front of the system allocator, mirroring the tracing design
//! (the regression test allocates a million boxes and bounds the wall time).
//! Turn it on with `ANT_OBS=alloc` (read lazily, by [`enabled`] — never
//! from inside the allocator itself) or programmatically with [`enable`].
//!
//! While tracing (`ANT_OBS=trace`) and counting are both on, every span record
//! additionally carries the allocation delta across its lifetime (`allocs`,
//! `alloc_bytes`, `alloc_net_bytes` fields; see [`crate::span`]).
//!
//! Counters are process-global: [`snapshot`] reads them all at once and
//! [`AllocStats::delta_from`] turns two snapshots into a per-region delta.
//! Enabling mid-run is safe — frees of allocations made before enabling
//! saturate the live-byte gauge at zero instead of underflowing.

// The one unsafe surface of the crate: forwarding `GlobalAlloc` to the
// system allocator. No pointer arithmetic happens here; every method
// delegates and then bumps counters.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Once;

static ENABLED: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
// Signed so that frees of pre-enable allocations cannot wrap; reported
// live bytes clamp at zero.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Whether allocation counting is active. The first call reads the parsed
/// `ANT_OBS` flags ([`crate::config::flags`]); later calls are one relaxed
/// load.
///
/// Deliberately *not* called from the allocator hot path — parsing the
/// environment allocates, and the allocator must never re-enter itself.
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if crate::config::flags().alloc {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turns counting on programmatically (the `bench_history` recorder does
/// this so alloc metrics exist without any environment setup).
pub fn enable() {
    ENV_INIT.call_once(|| {});
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns counting off. Counters keep their values (snapshot deltas taken
/// across a disable are still monotone).
pub fn disable() {
    ENV_INIT.call_once(|| {});
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether a [`CountingAlloc`] is actually installed as the global
/// allocator *and* has observed traffic while enabled. `false` means alloc
/// metrics will read zero (e.g. a binary that never installed the
/// allocator), so consumers can label their output honestly.
pub fn counting_active() -> bool {
    if !enabled() {
        return false;
    }
    if INSTALLED.load(Ordering::Relaxed) {
        return true;
    }
    // Probe: one small allocation through the global allocator. If ours is
    // installed, it sets INSTALLED on the enabled path.
    let probe = std::hint::black_box(vec![0u8; 16]);
    drop(probe);
    INSTALLED.load(Ordering::Relaxed)
}

/// One consistent-enough read of every allocator counter. Individual loads
/// are relaxed; treat cross-field arithmetic on a snapshot taken during
/// heavy concurrent allocation as approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocations observed (reallocs count one allocation and one free).
    pub allocs: u64,
    /// Deallocations observed.
    pub frees: u64,
    /// Total bytes handed out.
    pub allocated_bytes: u64,
    /// Total bytes returned.
    pub freed_bytes: u64,
    /// Bytes currently live (clamped at zero when counting started after
    /// the allocations being freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since counting started.
    pub peak_bytes: u64,
}

impl AllocStats {
    /// The counter movement between `earlier` and `self` (two snapshots of
    /// the same process). Monotone counters saturate at zero; `net_bytes`
    /// is signed (a region can free more than it allocates).
    pub fn delta_from(&self, earlier: &AllocStats) -> AllocDelta {
        AllocDelta {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            allocated_bytes: self.allocated_bytes.saturating_sub(earlier.allocated_bytes),
            freed_bytes: self.freed_bytes.saturating_sub(earlier.freed_bytes),
            net_bytes: self.live_bytes as i64 - earlier.live_bytes as i64,
            peak_bytes: self.peak_bytes,
        }
    }

    /// Named counters, for manifests and traces.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("allocs", self.allocs),
            ("frees", self.frees),
            ("allocated_bytes", self.allocated_bytes),
            ("freed_bytes", self.freed_bytes),
            ("live_bytes", self.live_bytes),
            ("peak_bytes", self.peak_bytes),
        ]
    }
}

/// Allocator-counter movement across a region (see
/// [`AllocStats::delta_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Allocations during the region.
    pub allocs: u64,
    /// Frees during the region.
    pub frees: u64,
    /// Bytes allocated during the region.
    pub allocated_bytes: u64,
    /// Bytes freed during the region.
    pub freed_bytes: u64,
    /// Live-byte movement (allocated minus freed), signed.
    pub net_bytes: i64,
    /// Process-wide live-byte peak as of the region's end (not a delta —
    /// peaks do not subtract).
    pub peak_bytes: u64,
}

/// Reads every counter now.
pub fn snapshot() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

#[inline]
fn record_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    if live > 0 {
        PEAK_BYTES.fetch_max(live as u64, Ordering::Relaxed);
    }
}

#[inline]
fn record_free(size: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// A counting wrapper around the system allocator. Zero-sized; all state is
/// in process-wide atomics so tools can read it without a handle to the
/// installed static.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator (const, so it can initialize a
    /// `#[global_allocator]` static).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: every method forwards to `System`, which upholds the GlobalAlloc
// contract; counter updates touch only atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            record_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_free(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_saturates_and_signs_net_bytes() {
        let earlier = AllocStats {
            allocs: 10,
            frees: 4,
            allocated_bytes: 1000,
            freed_bytes: 400,
            live_bytes: 600,
            peak_bytes: 800,
        };
        let later = AllocStats {
            allocs: 15,
            frees: 12,
            allocated_bytes: 1500,
            freed_bytes: 1400,
            live_bytes: 100,
            peak_bytes: 900,
        };
        let d = later.delta_from(&earlier);
        assert_eq!(d.allocs, 5);
        assert_eq!(d.frees, 8);
        assert_eq!(d.allocated_bytes, 500);
        assert_eq!(d.freed_bytes, 1000);
        assert_eq!(d.net_bytes, -500);
        assert_eq!(d.peak_bytes, 900);
        // Reversed order saturates instead of wrapping.
        let r = earlier.delta_from(&later);
        assert_eq!(r.allocs, 0);
        assert_eq!(r.net_bytes, 500);
    }

    #[test]
    fn fields_enumerate_every_counter() {
        let ones = AllocStats {
            allocs: 1,
            frees: 1,
            allocated_bytes: 1,
            freed_bytes: 1,
            live_bytes: 1,
            peak_bytes: 1,
        };
        assert_eq!(ones.fields().iter().map(|(_, v)| v).sum::<u64>(), 6);
    }

    #[test]
    fn snapshot_without_installed_allocator_is_zero_traffic() {
        // The obs unit-test binary does not install CountingAlloc, so the
        // raw counters never move regardless of the enable flag.
        let a = snapshot();
        let b = snapshot();
        assert_eq!(a, b);
    }
}
