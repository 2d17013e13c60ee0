//! Layer probes: each layer called alone on a filled cache, outside any
//! timed operation — archive open and validation, a full chunk decode,
//! every unique sweep cell on its own engine, and one gang pass for
//! its ring depth.

use crate::ledger::Results;
use crate::sweep::{archive_path, SweepCells};
use lookahead_harness::cache::TraceCache;
use lookahead_harness::pipeline::AppRun;
use lookahead_trace::storage::{read_archive_info, validate_archive_chunks, ArchiveInfo};
use lookahead_trace::{GangCursor, TraceSource};
use lookahead_workloads::App;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Chunks a gang's fastest member may lead its slowest by; the value
/// the sweep's gang re-timing uses.
const GANG_LEAD: usize = 8;

/// The header and trailer of the archive at `path`.
pub fn archive_info(path: &Path) -> Option<ArchiveInfo> {
    read_archive_info(BufReader::new(File::open(path).ok()?)).ok()
}

fn open_and_validate(path: &Path) -> Result<(), String> {
    let mut r = BufReader::new(File::open(path).map_err(|e| e.to_string())?);
    let info = read_archive_info(&mut r).map_err(|e| e.to_string())?;
    validate_archive_chunks(&mut r, &info).map_err(|e| e.to_string())
}

fn source(run: &AppRun) -> Result<Box<dyn TraceSource + Send + '_>, String> {
    run.gang_source()
        .ok_or_else(|| format!("{} cannot stream from its archive", run.app))
}

/// Runs every probe against the filled `cache`; `with_gang` adds the
/// gang pass (sweeps only — serve never gangs).
pub fn probe(cache: &TraceCache, cells: &SweepCells, with_gang: bool, res: &mut Results) {
    let out = (|| -> Result<(), String> {
        let (mut open_s, mut decode_s, mut entries) = (0.0, 0.0, 0u64);
        let mut kind_s = [0.0f64; 4];
        let (mut ds_entries, mut sim_cycles, mut cells_run, mut peak_ring) = (0u64, 0u64, 0, 0);
        for app in App::ALL {
            let (key, path) = archive_path(cache, app);
            let t = Instant::now();
            open_and_validate(&path)?;
            open_s += t.elapsed().as_secs_f64();

            let run = cache
                .load(app.name(), &key)
                .map_err(|e| format!("{}: {e}", app.name()))?;
            let mut src = source(&run)?;
            let t = Instant::now();
            while let Some(chunk) = src.next_chunk().map_err(|e| e.to_string())? {
                entries += chunk.len() as u64;
            }
            decode_s += t.elapsed().as_secs_f64();

            for cell in &cells.union {
                let engine = cell.model.build();
                let mut src = source(&run)?;
                let t = Instant::now();
                let result = engine
                    .run_source(&run.program, &mut *src)
                    .map_err(|e| e.to_string())?;
                let kind = cell.model.kind();
                let k = match kind.as_str() {
                    "BASE" => 0,
                    "SSBR" => 1,
                    "SS" => 2,
                    _ => 3,
                };
                kind_s[k] += t.elapsed().as_secs_f64();
                if k == 3 {
                    ds_entries += run.trace_len() as u64;
                }
                sim_cycles += result.breakdown.total();
                cells_run += 1;
            }

            if with_gang {
                let mut gang = GangCursor::new(source(&run)?, cells.union.len(), GANG_LEAD);
                let members = gang.members();
                let failed = std::thread::scope(|s| {
                    let handles: Vec<_> = cells
                        .union
                        .iter()
                        .zip(members)
                        .map(|(cell, mut m)| {
                            let run = &run;
                            s.spawn(move || cell.model.build().run_source(&run.program, &mut m))
                        })
                        .collect();
                    handles.into_iter().any(|h| !matches!(h.join(), Ok(Ok(_))))
                });
                if failed {
                    return Err(format!("{}: gang probe failed", app.name()));
                }
                peak_ring = peak_ring.max(gang.stats().peak_ring);
            }
        }
        res.set("archive.open.s", open_s);
        res.set("decode.s", decode_s);
        res.set("decode.mentries_per_s", entries as f64 / decode_s / 1e6);
        res.set("retime.cell.base.s", kind_s[0]);
        res.set("retime.cell.ssbr.s", kind_s[1]);
        res.set("retime.cell.ss.s", kind_s[2]);
        res.set("retime.cell.ds.s", kind_s[3]);
        res.set(
            "retime.cell.ds.minstr_per_s",
            ds_entries as f64 / kind_s[3] / 1e6,
        );
        res.set("retime.cell.solo_sum.s", kind_s.iter().sum());
        res.set("retime.cells", cells_run as f64);
        res.set("retime.sim_cycles", sim_cycles as f64);
        res.set("gang.peak_ring", peak_ring as f64);
        res.check(
            format!(
                "retime.sim_cycles {sim_cycles} equals the recorded {}",
                crate::config::SWEEP_SIM_CYCLES
            ),
            sim_cycles == crate::config::SWEEP_SIM_CYCLES,
        );
        Ok(())
    })();
    res.op(out);
}
