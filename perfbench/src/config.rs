//! Every constant the benchmark's results depend on. None of them is
//! calibrated at run time: a change to one is a change to the
//! benchmark, made in its own commit with a fresh baseline.

/// Worker threads for the sweeps (`--jobs 2`).
pub const WORKERS: usize = 2;

/// Reports one sweep renders, as `lookahead figure3 figure4 summary`.
pub const REPORTS: [&str; 3] = ["figure3", "figure4", "summary"];

/// Length of the concatenated default-tier sweep reports, in bytes.
pub const REPORT_BYTES: usize = 18338;

/// FNV-1a of the concatenated default-tier sweep reports.
pub const REPORT_FNV1A: u64 = 0x03ce_eaa1_8c6d_8dc8;

/// Sum of simulated totals (busy + sync + read + write cycles) over
/// the sweep's unique re-timing cells, default tier. Simulated time,
/// so it repeats exactly on every run and machine.
pub const SWEEP_SIM_CYCLES: u64 = 33_571_083;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Discarded warm-up operations before each timed phase.
pub const WARMUP_SWEEPS: usize = 2;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Handler threads of the in-process server.
pub const SERVE_THREADS: usize = 2;

/// Keep-alive connections the load generator spreads requests over.
pub const SERVE_CONNECTIONS: usize = 2;

/// One request in this many is a fresh key; the rest (80%) repeat
/// the warmed hot set.
pub const FRESH_EVERY: usize = 5;

/// Requests per second at which `req_p50_ms` and `req_p99_ms` are
/// measured.
pub const NOMINAL_RPS: f64 = 50.0;

/// Steps above the nominal rate tried, in order, for `max_rps`: (rate
/// per second, requests sent). The nominal rate gets the measuring time
/// the steps leave. The steps sit far from the service's capacity
/// (250–600 req/s on the 2-core box, moving with the host's load), so
/// the result does not flip between runs: 100 req/s always meets the
/// limit, and a second of 1000 req/s always builds a backlog.
pub const RATE_LADDER: [(f64, usize); 2] = [(100.0, 400), (1000.0, 1000)];

/// p99 latency a rate must meet to count towards `max_rps`, in ms.
pub const P99_LIMIT_MS: f64 = 500.0;

/// A request not answered this long after its due time has failed.
pub const REQUEST_DEADLINE_MS: u64 = 5000;

/// Slack a whole run keeps under the 180-second limit; past it the
/// watchdog aborts without a result.
pub const RUN_LIMIT_S: u64 = 170;
