//! `sweepd`: the fault-tolerant multi-tenant sweep service.
//!
//! ```text
//! ANT_SWEEPD_ADDR=127.0.0.1:0 sweepd
//! ```
//!
//! Binds an HTTP/JSONL listener (see `ant_bench::serve`), recovers any
//! interrupted jobs from the spool, and runs until killed. The binary takes
//! no arguments; three environment variables place it: `ANT_SWEEPD_ADDR`,
//! `ANT_SWEEPD_SPOOL` and `ANT_SWEEPD_ADDR_FILE` (defaults in
//! `docs/OBSERVABILITY.md`). A retired `ANT_*` variable, an unknown
//! `ANT_OBS` item, or an `ANT_CHAOS` that does not parse exits 2 naming
//! the variable. The wire surface:
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

use ant_bench::obs::obs_config;
use ant_bench::serve::{Sweepd, SweepdConfig};
use ant_sim::chaos;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: sweepd\n\nconfiguration (see docs/OBSERVABILITY.md):\n  \
             ANT_SWEEPD_ADDR (default 127.0.0.1:0), ANT_SWEEPD_SPOOL,\n  \
             ANT_SWEEPD_ADDR_FILE"
        );
        return ExitCode::SUCCESS;
    }
    let config = match obs_config(ant_obs::config::resolved())
        .and_then(|_| chaos::try_active())
        .map(|_| SweepdConfig::from_env())
    {
        Ok(config) => config,
        Err(e) => {
            eprintln!("ant-sweepd: {e}");
            return ExitCode::from(2);
        }
    };
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
