//! `sweepd`: the fault-tolerant multi-tenant sweep service.
//!
//! ```text
//! ANT_SWEEPD_ADDR=127.0.0.1:0 sweepd
//! ```
//!
//! Binds an HTTP/JSONL listener (see `ant_bench::serve`), recovers any
//! interrupted jobs from the spool, and runs until killed. Configuration is
//! entirely environment-driven (`ANT_SWEEPD_*`; defaults in
//! `docs/OBSERVABILITY.md`), so the binary takes no arguments:
//!
//! - `POST /jobs` submits a sweep spec (tenant, model, machines, sparsity
//!   grid, weight, deadline);
//! - `GET /jobs` / `GET /jobs/{id}` report queue position, attempts,
//!   backoff schedule, and result paths;
//! - `GET /status` and `GET /metrics` expose live progress and the
//!   `sweepd.*` service counters.
//!
//! The daemon is crash-safe by construction: every state transition spools
//! a job record and every completed layer lands in the spool's layer cache
//! (`<spool>/simcache`), so a `kill -9` at any point recovers on restart
//! with byte-identical results.

use std::process::ExitCode;

use ant_bench::serve::{Sweepd, SweepdConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: sweepd\n\nconfiguration via ANT_SWEEPD_* (see docs/OBSERVABILITY.md):\n  \
             ANT_SWEEPD_ADDR (default 127.0.0.1:0), ANT_SWEEPD_SPOOL,\n  \
             ANT_SWEEPD_ADDR_FILE, ANT_SWEEPD_QUEUE, ANT_SWEEPD_MAX_ATTEMPTS,\n  \
             ANT_SWEEPD_BACKOFF_MS, ANT_SWEEPD_THREADS, ANT_SWEEPD_SEED"
        );
        return ExitCode::SUCCESS;
    }
    let config = SweepdConfig::from_env();
    eprintln!(
        "ant-sweepd: spool {} queue {} max_attempts {} backoff {}ms",
        config.spool.display(),
        config.queue_capacity,
        config.max_attempts,
        config.backoff_base_ms
    );
    match Sweepd::start(config) {
        Ok(daemon) => {
            eprintln!("ant-sweepd: listening on http://{}", daemon.addr());
            daemon.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ant-sweepd: failed to start: {e}");
            ExitCode::FAILURE
        }
    }
}
