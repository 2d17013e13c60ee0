//! `sweep-warm` and `sweep-cold`: the `figure3 figure4 summary` sweep
//! as one gang-mode DAG sweep, against a filled or an empty cache.

use crate::config::{REPORTS, REPORT_BYTES, REPORT_FNV1A, SETUPS, WARMUP_SWEEPS, WORKERS};
use crate::ledger::Results;
use crate::{layers, stats, sys};
use lookahead_bench::reports::dag_sweep_mode;
use lookahead_bench::Runner;
use lookahead_core::model::ExecutionResult;
use lookahead_harness::cache::{cache_key, load_or_generate, TraceCache};
use lookahead_harness::dag::{run_dag_with_stats, DagStats, TaskDag};
use lookahead_harness::experiments::{
    columns_from_results, figure3_cells, figure4_cells, hidden_row, retime_gang, summary_cells,
    CellSpec, RetimeMode, PAPER_WINDOWS,
};
use lookahead_harness::format::{render_figure, render_table};
use lookahead_harness::pipeline::AppRun;
use lookahead_harness::SizeTier;
use lookahead_multiproc::SimConfig;
use lookahead_obs::span::{self, SpanRecord, TraceContext, TraceScope};
use lookahead_trace::storage::fnv1a;
use lookahead_workloads::App;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The tier every workload runs at.
pub const TIER: SizeTier = SizeTier::Default;

/// DAG cost of a generation node, as the driver's sweep plans it.
const GENERATE_COST: u64 = 600;

/// The cache key and archive path of `app` in `cache`.
pub fn archive_path(cache: &TraceCache, app: App) -> (String, PathBuf) {
    let name = app.name();
    let key = cache_key(name, TIER.name(), &SimConfig::default());
    let path = cache.path_for(name, &key);
    (key, path)
}

/// A runner exactly as `lookahead --jobs 2 --cache-dir DIR` builds one.
pub fn runner(dir: &Path) -> Runner {
    Runner::new(
        SimConfig::default(),
        TIER,
        Some(TraceCache::new(dir)),
        WORKERS,
    )
}

/// Generates every application's trace into `dir`; returns seconds.
pub fn fill(dir: &Path) -> f64 {
    let t = Instant::now();
    drop(runner(dir).run_all());
    t.elapsed().as_secs_f64()
}

/// The sweep's cells: each report's cell list, the union of unique
/// cells one gang computes per application, and per report the union
/// index of each of its cells.
pub struct SweepCells {
    pub reports: Vec<(&'static str, Vec<CellSpec>)>,
    pub union: Vec<CellSpec>,
    maps: Vec<Vec<usize>>,
}

impl SweepCells {
    pub fn new() -> SweepCells {
        let reports: Vec<(&'static str, Vec<CellSpec>)> = vec![
            ("figure3", figure3_cells(&PAPER_WINDOWS)),
            ("figure4", figure4_cells(&PAPER_WINDOWS)),
            ("summary", summary_cells(&PAPER_WINDOWS)),
        ];
        let mut union: Vec<CellSpec> = Vec::new();
        let maps = reports
            .iter()
            .map(|(_, specs)| {
                specs
                    .iter()
                    .map(
                        |spec| match union.iter().position(|c| c.model == spec.model) {
                            Some(u) => u,
                            None => {
                                union.push(spec.clone());
                                union.len() - 1
                            }
                        },
                    )
                    .collect()
            })
            .collect();
        SweepCells {
            reports,
            union,
            maps,
        }
    }

    /// Report cells one sweep renders, over all applications.
    pub fn report_cells(&self) -> usize {
        self.reports.iter().map(|(_, s)| s.len()).sum::<usize>() * App::ALL.len()
    }
}

/// Checks a sweep's concatenated report bytes against the recorded
/// default-tier length and digest.
pub fn check_report(text: &str) -> Result<(), String> {
    check_bytes(text.as_bytes(), REPORT_BYTES, REPORT_FNV1A)
}

fn check_bytes(bytes: &[u8], len: usize, digest: u64) -> Result<(), String> {
    let got = fnv1a(bytes);
    if bytes.len() != len || got != digest {
        return Err(format!(
            "report bytes differ: {} bytes with FNV-1a {got:016x}, expected {len} bytes \
             with {digest:016x}",
            bytes.len()
        ));
    }
    Ok(())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// One untraced sweep through the driver's own entry point; returns
/// its seconds, or why it failed.
fn untraced_sweep(dir: &Path, cold: bool) -> Result<f64, String> {
    let runner = runner(dir);
    let t = Instant::now();
    let sweep = catch_unwind(AssertUnwindSafe(|| {
        dag_sweep_mode(&runner, &REPORTS, WORKERS, RetimeMode::Gang)
    }))
    .map_err(|p| format!("sweep panicked: {}", panic_message(p.as_ref())))?;
    let secs = t.elapsed().as_secs_f64();
    let text: String = sweep.texts.into_iter().map(|(_, t)| t).collect();
    check_report(&text)?;
    let (hits, misses) = runner.cache_stats();
    let want = if cold {
        (0, App::ALL.len())
    } else {
        (App::ALL.len(), 0)
    };
    if (hits, misses) != want {
        return Err(format!(
            "cache saw {hits} hits and {misses} misses, expected {want:?}"
        ));
    }
    Ok(secs)
}

/// A new, empty cache directory under `scratch`. Cold caches are
/// deleted with the run's scratch directory, not between sweeps, so the
/// file-system work of deleting ~70 MB of archives does not land inside
/// the next timed sweep.
fn fresh_dir(scratch: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    scratch.join(format!("cold-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Runs untraced sweeps until `budget` has passed (at least `min`),
/// each cold one into a fresh directory under `scratch`.
fn timed_sweeps(
    warm_dir: &Path,
    scratch: &Path,
    cold: bool,
    budget: Duration,
    min: usize,
    res: &mut Results,
) -> Vec<f64> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut i = 0usize;
    while times.len() < min || started.elapsed() < budget {
        let dir = if cold {
            fresh_dir(scratch)
        } else {
            warm_dir.to_path_buf()
        };
        i += 1;
        match untraced_sweep(&dir, cold) {
            Ok(secs) => {
                times.push(secs);
                res.op(Ok(()));
            }
            Err(e) => res.op(Err(e)),
        }
        if res.failed > 0 && times.is_empty() && i >= min {
            break;
        }
    }
    times
}

/// Set-up: fills `SETUPS` fresh caches, keeps the last one filled, and
/// records `setup_s` as the median fill time.
fn setup(scratch: &Path, repeats: usize, res: &mut Results) -> PathBuf {
    let mut secs = Vec::new();
    let mut dir = PathBuf::new();
    for i in 0..repeats {
        if i > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = scratch.join(format!("setup-{i}"));
        secs.push(fill(&dir));
    }
    let s = stats::spread(&secs);
    res.set("setup_s", s.median);
    res.line(format!(
        "setup_s {:.4} s (median of {} cache fills: {})",
        s.median,
        s.count,
        fmt_list(&secs)
    ));
    dir
}

fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs `sweep-warm` (`cold == false`) or `sweep-cold` in `scratch`.
pub fn run(cold: bool, seconds: u64, trace: bool, scratch: &Path, res: &mut Results) {
    res.line(format!(
        "cache directories under {} on {}",
        scratch.display(),
        sys::fs_type(scratch)
    ));
    let warm_dir = setup(scratch, if trace { 1 } else { SETUPS }, res);
    // Warm-ups settle the DAG cost model's running averages, the file
    // cache and the allocator; their times are discarded.
    timed_sweeps(&warm_dir, scratch, cold, Duration::ZERO, WARMUP_SWEEPS, res);
    if trace {
        traced(cold, seconds, &warm_dir, scratch, res);
    } else {
        measured(cold, seconds, &warm_dir, scratch, res);
    }
}

fn measured(cold: bool, seconds: u64, warm_dir: &Path, scratch: &Path, res: &mut Results) {
    let rss_reset = sys::reset_peak_rss();
    let times = timed_sweeps(
        warm_dir,
        scratch,
        cold,
        Duration::from_secs(seconds),
        3,
        res,
    );
    let rss = sys::peak_rss_mib();
    let s = stats::spread(&times);
    let cells = SweepCells::new().report_cells();
    res.set("latency_p50_ms", s.median * 1e3);
    res.set("latency_tail_ms", s.q3 * 1e3);
    res.set(
        "throughput_per_s",
        (cells * times.len()) as f64 / times.iter().sum::<f64>(),
    );
    res.set("peak_rss_mib", rss);
    res.line(format!(
        "sweep_s median {:.4} s, q1 {:.4}, q3 {:.4}, n {} (latency_p50_ms and \
         latency_tail_ms are the median and q3 in ms: ~1 s sweeps leave no \
         percentile above the median with ten samples beyond it)",
        s.median, s.q1, s.q3, s.count
    ));
    res.line(format!(
        "sweep_s samples in run order: {}",
        fmt_list(&times)
    ));
    res.line(format!(
        "throughput_per_s {:.2} report cells/s ({cells} cells per sweep, {} sweeps)",
        res.get("throughput_per_s").unwrap_or(f64::NAN),
        times.len()
    ));
    res.line(format!(
        "peak_rss_mib {rss:.1} MiB ({})",
        if rss_reset {
            "timed phase only"
        } else {
            "whole process: the high-water mark could not be reset"
        }
    ));
}

/// What one traced sweep observed.
struct Traced {
    text: String,
    wall: f64,
    spans: Vec<SpanRecord>,
    stats: DagStats,
    /// Seconds per DAG node (node `2a` loads app `a`, `2a + 1` is its gang).
    node_secs: Vec<f64>,
    hits: usize,
    gang_fallbacks: usize,
    /// Applications whose archive this sweep wrote.
    generated: Vec<App>,
}

/// The sweep rebuilt from public calls — `load_or_generate`,
/// `retime_gang`, `run_dag_with_stats`, `columns_from_results` and
/// `render_figure` — with spans around each layer, kept in memory.
fn traced_sweep(cache: &TraceCache, cells: &SweepCells) -> Result<Traced, String> {
    let config = SimConfig::default();
    let apps = App::ALL;
    let ctx = TraceContext::new("sweep");
    let prev = span::set_scope(Some(TraceScope::new(ctx.clone(), 0)));
    let started = Instant::now();

    let mut dag = TaskDag::new();
    let gang_cost = cells.union.iter().map(|c| c.model.cost()).sum();
    for &app in &apps {
        let gen = if archive_path(cache, app).1.exists() {
            dag.add_collapsed(&[])
        } else {
            dag.add_task_kind(GENERATE_COST, &[], "generate")
        };
        dag.add_task_kind(gang_cost, &[gen], "gang");
    }
    let loaded: Vec<OnceLock<Result<(AppRun, bool), String>>> =
        apps.iter().map(|_| OnceLock::new()).collect();
    let results: Vec<OnceLock<Vec<ExecutionResult>>> =
        apps.iter().map(|_| OnceLock::new()).collect();
    let node_secs = Mutex::new(vec![0.0; 2 * apps.len()]);
    let fallbacks = Mutex::new(0usize);
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for (ai, &app) in apps.iter().enumerate() {
        let (loaded, results, node_secs, fallbacks) = (&loaded, &results, &node_secs, &fallbacks);
        jobs.push(Box::new(move || {
            let t = Instant::now();
            let workload = TIER.workload(app);
            let out = span::record_current("load", || {
                load_or_generate(Some(cache), workload.as_ref(), TIER.name(), &config)
            });
            let out = out
                .map(|(run, outcome)| (run, outcome.is_hit()))
                .map_err(|e| format!("{}: {e}", app.name()));
            let _ = loaded[ai].set(out);
            node_secs.lock().expect("node times")[2 * ai] = t.elapsed().as_secs_f64();
        }));
        jobs.push(Box::new(move || {
            let t = Instant::now();
            let Some(Ok((run, _))) = loaded[ai].get() else {
                return;
            };
            let out = span::record_current("retime.gang", || retime_gang(run, &cells.union));
            let out = out.unwrap_or_else(|| {
                *fallbacks.lock().expect("fallbacks") += 1;
                cells.union.iter().map(|c| c.model.retime(run)).collect()
            });
            let _ = results[ai].set(out);
            node_secs.lock().expect("node times")[2 * ai + 1] = t.elapsed().as_secs_f64();
        }));
    }
    let (_, stats) = run_dag_with_stats(&dag, jobs, WORKERS);

    let mut runs = Vec::new();
    let mut rows = Vec::new();
    for (ai, slot) in loaded.iter().enumerate() {
        match slot.get() {
            Some(Ok((run, hit))) => runs.push((run, *hit)),
            Some(Err(e)) => return Err(e.clone()),
            None => return Err(format!("{} never loaded", apps[ai].name())),
        }
        rows.push(results[ai].get().ok_or("a gang node did not finish")?);
    }
    let text = span::record_current("render", || {
        let runs: Vec<&AppRun> = runs.iter().map(|(r, _)| *r).collect();
        render(cells, &runs, &rows)
    });
    let wall = started.elapsed().as_secs_f64();
    span::set_scope(prev);
    Ok(Traced {
        text,
        wall,
        spans: ctx.spans(),
        stats,
        node_secs: node_secs.into_inner().expect("node times"),
        hits: runs.iter().filter(|(_, hit)| *hit).count(),
        gang_fallbacks: fallbacks.into_inner().expect("fallbacks"),
        generated: apps
            .iter()
            .zip(&runs)
            .filter(|(_, (_, hit))| !hit)
            .map(|(a, _)| *a)
            .collect(),
    })
}

/// Renders the three reports exactly as `lookahead figure3 figure4
/// summary` prints them.
fn render(cells: &SweepCells, runs: &[&AppRun], rows: &[&Vec<ExecutionResult>]) -> String {
    let mut out = String::new();
    for ((name, specs), map) in cells.reports.iter().zip(&cells.maps) {
        let results = |ai: usize| -> Vec<ExecutionResult> {
            map.iter().map(|&u| rows[ai][u].clone()).collect()
        };
        for (ai, run) in runs.iter().enumerate() {
            let title = match *name {
                "figure3" => format!(
                    "Figure 3 — {} (trace: {} instructions, processor {})",
                    run.app,
                    run.trace_len(),
                    run.proc
                ),
                "figure4" => format!(
                    "Figure 4 — {} (bp = perfect branch prediction; \
                     bp+nd = also ignoring data dependences)",
                    run.app
                ),
                _ => continue,
            };
            let cols = columns_from_results(specs, &results(ai));
            let _ = writeln!(out, "{}", render_figure(&title, &cols));
        }
        if *name == "summary" {
            let matrix: Vec<Vec<f64>> =
                (0..runs.len()).map(|ai| hidden_row(&results(ai))).collect();
            out.push_str(&summary_text(runs, &matrix));
        }
    }
    out
}

fn summary_text(runs: &[&AppRun], matrix: &[Vec<f64>]) -> String {
    let mut header = vec!["Program".to_string()];
    header.extend(PAPER_WINDOWS.iter().map(|w| format!("W={w}")));
    let mut rows = vec![header];
    for (run, row) in runs.iter().zip(matrix) {
        let mut r = vec![run.app.clone()];
        r.extend(row.iter().map(|h| format!("{:.0}%", h * 100.0)));
        rows.push(r);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    avg.extend((0..PAPER_WINDOWS.len()).map(|j| {
        let mean = matrix.iter().map(|row| row[j]).sum::<f64>() / runs.len().max(1) as f64;
        format!("{:.0}%", mean * 100.0)
    }));
    rows.push(avg);
    format!(
        "Percentage of read latency hidden (DS under RC vs BASE)\n{}\n\
         Paper (§7, 50-cycle latency): 33% at W=16, 63% at W=32, 81% at W=64.\n",
        render_table(&rows)
    )
}

/// Sum of the durations of spans named `name`, in seconds.
fn span_secs(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 / 1e6)
        .sum()
}

/// The traced run: traced sweeps, whose spans make the ledger,
/// alternating with untraced ones for the overhead baseline; then the
/// layer probes.
fn traced(cold: bool, seconds: u64, warm_dir: &Path, scratch: &Path, res: &mut Results) {
    let budget = Duration::from_secs(seconds);
    let cells = SweepCells::new();
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut walls = Vec::new();
    let mut kept_spans = Vec::new();
    let mut i = 0;
    while samples.len() < 3 || started.elapsed() < budget {
        untraced.extend(timed_sweeps(
            warm_dir,
            scratch,
            cold,
            Duration::ZERO,
            1,
            res,
        ));
        let dir = if cold {
            fresh_dir(scratch)
        } else {
            warm_dir.to_path_buf()
        };
        i += 1;
        let cache = TraceCache::new(&dir);
        let out =
            catch_unwind(AssertUnwindSafe(|| traced_sweep(&cache, &cells))).unwrap_or_else(|p| {
                Err(format!(
                    "traced sweep panicked: {}",
                    panic_message(p.as_ref())
                ))
            });
        span::set_scope(None);
        let out = out.and_then(|t| {
            check_report(&t.text)?;
            let want = if cold { 0 } else { App::ALL.len() };
            if t.hits != want {
                return Err(format!(
                    "traced sweep had {} cache hits, expected {want}",
                    t.hits
                ));
            }
            Ok(t)
        });
        match out {
            Ok(t) => {
                res.op(Ok(()));
                samples.push(ledger_of(&t, &cache));
                walls.push(t.wall);
                kept_spans = t.spans;
            }
            Err(e) => res.op(Err(e)),
        }
        if res.failed > 0 && samples.is_empty() && i >= 3 {
            break;
        }
    }
    // Per-layer values are medians over the traced sweeps.
    if let Some(first) = samples.first() {
        for (k, (name, _)) in first.iter().enumerate() {
            let vals: Vec<f64> = samples.iter().map(|s| s[k].1).collect();
            res.set(name, stats::median(&vals));
        }
    }
    let wall = stats::median(&walls);
    let base = stats::median(&untraced);
    res.set("ledger.wall_s", wall);
    res.set("obs.overhead_pct", (wall - base) / base * 100.0);
    res.line(format!(
        "traced sweep median {wall:.4} s over {} sweeps vs untraced {base:.4} s over {}",
        walls.len(),
        untraced.len()
    ));
    crate::write_spans(scratch, &kept_spans);

    let probe = TraceCache::new(warm_dir);
    layers::probe(&probe, &cells, true, res);
    let gang = res.get("retime.gang.s").unwrap_or(f64::NAN);
    let solo = res.get("retime.cell.solo_sum.s").unwrap_or(f64::NAN);
    res.set("retime.gang.share", solo / gang);
    res.line(format!(
        "retime.gang.share {:.3} = solo cells {solo:.4} s / gang {gang:.4} s",
        solo / gang
    ));
    res.none(&[
        "queue.ms.p50",
        "queue.ms.p99",
        "parse.ms.p50",
        "handler.ms.p50",
        "handler.ms.p99",
        "write.ms.p50",
        "reactor.events_per_req",
        "flight.memo_ratio",
        "flight.led",
        "run.generations",
        "loadgen.sent",
        "loadgen.late_ms.p99",
    ]);
}

/// One traced sweep's layer values.
fn ledger_of(t: &Traced, cache: &TraceCache) -> Vec<(&'static str, f64)> {
    let s = &t.spans;
    // The calling thread's layers; DAG workers adopt the same root, so
    // their spans are counted inside `dag.run`, not beside it.
    let top: f64 = ["dag.schedule", "dag.run", "render"]
        .iter()
        .map(|name| span_secs(s, name))
        .sum();
    let finish = span_secs(s, "archive.finish");
    let generate = span_secs(s, "generate") - finish;
    let (mut instructions, mut mp_cycles, mut bytes) = (0u64, 0u64, 0u64);
    for &app in &t.generated {
        let (_, path) = archive_path(cache, app);
        if let Some(info) = layers::archive_info(&path) {
            instructions += info.totals.iter().map(|p| p.entries).sum::<u64>();
            mp_cycles += info.mp_cycles;
        }
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    }
    let dag_run = span_secs(s, "dag.run");
    let busy: f64 = t.node_secs.iter().sum();
    let critical = t
        .node_secs
        .chunks(2)
        .map(|c| c[0] + c[1])
        .fold(0.0, f64::max);
    let misses = t.generated.len() as f64;
    vec![
        ("generate.s", generate),
        ("generate.instructions", instructions as f64),
        ("generate.mp_cycles", mp_cycles as f64),
        (
            "generate.minstr_per_s",
            if generate > 0.0 {
                instructions as f64 / generate / 1e6
            } else {
                0.0
            },
        ),
        ("archive.finish.s", finish),
        ("archive.bytes", bytes as f64),
        ("cache.lookup.s", span_secs(s, "cache.lookup")),
        ("cache.hits", t.hits as f64),
        ("cache.misses", misses),
        ("retime.gang.s", span_secs(s, "retime.gang")),
        ("gang.fallbacks", t.gang_fallbacks as f64),
        ("dag.schedule.s", span_secs(s, "dag.schedule")),
        ("dag.run.s", dag_run),
        ("dag.busy_s", busy),
        ("dag.idle_frac", 1.0 - busy / (WORKERS as f64 * dag_run)),
        ("dag.critical_path_s", critical),
        ("dag.peak_ready", t.stats.peak_ready as f64),
        ("render.s", span_secs(s, "render")),
        ("ledger.unattributed_frac", (t.wall - top) / t.wall),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_report_byte_is_a_failure() {
        let text = b"Figure 3 - LU\n  BASE ####\n".to_vec();
        let digest = fnv1a(&text);
        assert!(check_bytes(&text, text.len(), digest).is_ok());
        for i in 0..text.len() {
            for bit in 0..8 {
                let mut flipped = text.clone();
                flipped[i] ^= 1 << bit;
                let mut res = Results::default();
                res.op(check_bytes(&flipped, text.len(), digest));
                assert_eq!((res.attempted, res.failed), (1, 1), "byte {i} bit {bit}");
                assert!(!res.correct());
            }
        }
        // A truncated report fails on length alone.
        assert!(check_bytes(&text[1..], text.len(), digest).is_err());
    }

    #[test]
    fn the_union_dedups_the_summary_cells() {
        let cells = SweepCells::new();
        let per_app: usize = cells.reports.iter().map(|(_, s)| s.len()).sum();
        assert!(cells.union.len() < per_app);
        for ((_, specs), map) in cells.reports.iter().zip(&cells.maps) {
            for (spec, &u) in specs.iter().zip(map) {
                assert_eq!(cells.union[u].model, spec.model);
            }
        }
    }
}
