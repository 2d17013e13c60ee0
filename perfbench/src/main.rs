//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-warm|sweep-cold|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//! Each run also writes its full detail under `perfbench/out/`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod config;
mod layers;
mod ledger;
mod schedule;
mod serve;
mod stats;
mod sweep;
mod sys;

use ledger::{Results, END_TO_END, PER_LAYER};
use lookahead_obs::json::JsonObject;
use lookahead_obs::span::{render_spans_jsonl, SpanRecord, TraceContext};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload sweep-warm|sweep-cold|serve-mix \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["sweep-warm", "sweep-cold", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: config::DEFAULT_SEED,
        seconds: 25,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => match value()?.parse() {
                Ok(s) if (1..=60).contains(&s) => a.seconds = s,
                _ => return Err("--seconds must be an integer in 1..=60".into()),
            },
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// The `LOOKAHEAD_*` variables set in `vars`. The library reads several
/// of them (`LOOKAHEAD_APPS`, `LOOKAHEAD_RETIME`,
/// `LOOKAHEAD_FORCE_MATERIALIZE`, `LOOKAHEAD_OBS_OUT`, ...), and any of
/// them would silently change the measured workload.
fn knobs_set(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    let mut set: Vec<String> = vars
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("LOOKAHEAD_"))
        .collect();
    set.sort();
    set
}

/// Where runs write their detail: `perfbench/out/` of the checkout the
/// benchmark was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans as JSONL beside its detail file.
pub fn write_spans(scratch: &Path, spans: &[SpanRecord]) {
    let ctx = TraceContext::new("ledger");
    for s in spans {
        ctx.push(s.clone());
    }
    let path = scratch.with_extension("spans.jsonl");
    if let Err(e) = std::fs::write(&path, render_spans_jsonl(&ctx)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = knobs_set(std::env::vars());
    if !knobs.is_empty() {
        eprintln!(
            "error: refusing to run with LOOKAHEAD_* variables set, which change the \
             measured workload: {}",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    // A hung operation must not outlive the run's time limit: past it,
    // exit without a result.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(config::RUN_LIMIT_S));
        eprintln!("error: run exceeded {} s; aborting", config::RUN_LIMIT_S);
        std::process::exit(3);
    });

    let machine = sys::Machine::probe();
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let scratch = out_dir().join(&name);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }

    let mut res = Results::default();
    res.line(format!(
        "workload {} seed {} seconds {} trace {} | nproc {} | cpu {} | commit {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        machine.nproc,
        machine.cpu,
        machine.commit
    ));
    match args.workload.as_str() {
        "sweep-warm" => sweep::run(false, args.seconds, args.trace, &scratch, &mut res),
        "sweep-cold" => sweep::run(true, args.seconds, args.trace, &scratch, &mut res),
        _ => serve::run(args.seed, args.seconds, args.trace, &scratch, &mut res),
    }
    res.line(format!(
        "error_rate {} ({} of {} operations failed)",
        res.error_rate(),
        res.failed,
        res.attempted
    ));
    let _ = std::fs::remove_dir_all(&scratch);

    let defs: &[ledger::Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = match res.result_json(defs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            for l in &res.lines {
                eprintln!("{l}");
            }
            return ExitCode::from(1);
        }
    };
    let detail = JsonObject::render(|o| {
        o.str("workload", &args.workload)
            .u64("seed", args.seed)
            .u64("seconds", args.seconds)
            .bool("trace", args.trace)
            .object("machine", |m| {
                m.u64("nproc", machine.nproc as u64)
                    .str("cpu", &machine.cpu)
                    .str("commit", &machine.commit);
            })
            .raw("detail", &res.detail_json())
            .raw("result", &result);
    });
    let detail_path = out_dir().join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&detail_path, detail + "\n") {
        eprintln!("warning: cannot write {}: {e}", detail_path.display());
    }
    for l in &res.lines {
        println!("{l}");
    }
    for d in defs {
        if let Some(v) = res.get(d.name) {
            println!("{:<28} {v:>14.6} {}", d.name, d.unit);
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 12, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sweep-warm", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep-warm", "--seconds", "0"]).is_err());
    }

    #[test]
    fn lists_every_lookahead_knob() {
        let vars = [
            ("PATH", "/bin"),
            ("LOOKAHEAD_RETIME", "per-cell"),
            ("LOOKAHEAD_APPS", "LU"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(
            knobs_set(vars.into_iter()),
            ["LOOKAHEAD_APPS", "LOOKAHEAD_RETIME"]
        );
    }
}
