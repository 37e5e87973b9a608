//! `ant-obs`: zero-dependency observability for the ANT simulator stack.
//!
//! The accelerator-simulation experiments in this workspace were opaque
//! while running: a binary printed a banner, went quiet for the whole sweep,
//! then dumped a table. This crate adds the three observability primitives
//! the stack needs, with no external dependencies (the build environment has
//! no crates.io access):
//!
//! * **Spans and events** ([`span`], [`event`]) — hierarchical timed
//!   regions written as JSONL records to `<stem>.trace.jsonl` under
//!   `ANT_OBS=trace`; `ANT_OBS=pairs` adds hot per-channel-pair detail.
//!   Disabled cost is one atomic load per check.
//! * **Metrics** ([`metrics::Registry`], [`metrics::registry`]) — named
//!   counters, gauges, and nearest-rank-percentile histograms, snapshotted
//!   into manifests or the trace.
//! * **Run manifests** ([`RunManifest`]) — a JSON sidecar per experiment
//!   recording config, git revision, platform, wall time, outputs, and final
//!   stats, written next to the CSV it describes.
//! * **Timelines** ([`timeline::Timeline`]) — Chrome Trace Event / Perfetto
//!   JSON export of per-PE phase slices in *simulated* time (1 cycle =
//!   1 µs), written by the `profile` bench binary (`ANT_OBS=profile` adds
//!   the runner's per-job host slices).
//! * **Allocation counting** ([`alloc::CountingAlloc`]) — an opt-in
//!   counting global allocator (`ANT_OBS=alloc`): allocation count, bytes,
//!   live, and peak, with per-span deltas attached to span records. One
//!   relaxed atomic load per allocation when disabled.
//! * **Flamegraphs** ([`flame`]) — span-tree rollup of self/total wall
//!   time per span path, exported as collapsed stacks
//!   (inferno/speedscope-compatible) to `<stem>.folded` under
//!   `ANT_OBS=flame`.
//! * **HTTP server and metrics exporter** ([`export`]) — the workspace's
//!   one std-only HTTP server ([`export::Server`]): `GET /metrics`
//!   (Prometheus text exposition of the process registry), `GET /status`
//!   (live `ant-status/1` JSON), and `GET /healthz`, plus any application
//!   routes (the `ant-sweepd` `/jobs` API). The exporter
//!   (`ANT_METRICS_ADDR=host:port`) is off by default with zero overhead.
//!
//! One switch list, `ANT_OBS`, parsed once in [`config`], turns these on;
//! every sidecar lands beside the experiment's CSV as
//! `<experiments_dir>/<stem>.<ext>`.
//!
//! See `docs/OBSERVABILITY.md` for the full event schema and workflows.

#![warn(missing_docs)]
// Unsafe is denied crate-wide; the single exception is `alloc`, whose
// `GlobalAlloc` impl forwards to the system allocator.
#![deny(unsafe_code)]

pub mod alloc;
pub mod config;
pub mod export;
pub mod flame;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod span;
pub mod timeline;
pub mod trace;

pub use alloc::{AllocDelta, AllocStats, CountingAlloc};
pub use config::{experiments_dir, ObsConfig, ObsError};
pub use export::{render_prometheus, sanitize_metric_name};
pub use flame::SpanStat;
pub use json::{parse as parse_json, Json, Value};
pub use manifest::{git_revision, RunManifest};
pub use metrics::{registry, Counter, Gauge, Histogram, InstrumentSnapshot, Registry};
pub use progress::{banner, note, Progress, RunStatus, StatusReporter};
pub use span::{current_span_id, event, span, Span};
pub use timeline::Timeline;
pub use trace::{detail_enabled, enabled, trace_file, MemorySink, Sink};
