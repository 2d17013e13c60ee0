//! The event-driven DS engine's correctness contract: skipping dead
//! cycles must be *invisible* in every reported number. For randomized
//! workloads across window sizes, MSHR limits, latencies, consistency
//! models and the §4.1.3/§6 ablations, the skip-ahead engine
//! ([`Ds::run`]) must produce results identical to the retained
//! cycle-by-cycle reference stepper ([`Ds::run_reference`]) — not just
//! total cycles but the full busy/read/write/sync breakdown and all
//! statistics — and both must satisfy the accounting invariant
//! `busy + read + write + sync == total`.

use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::{ConsistencyModel, ProcessorModel};
use lookahead_isa::instr::BranchCond;
use lookahead_isa::rng::XorShift64;
use lookahead_isa::{Assembler, IntReg, Program, SyncKind};
use lookahead_trace::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};

/// A random workload over the full trace vocabulary — loads, stores,
/// compute, paired lock/unlock, barriers, wait/set events, and
/// data-dependent branches (which exercise the misprediction
/// fetch-stall / fetch-resume path the skip logic must respect). Miss
/// latencies vary per access so completion times do not align on a
/// lattice.
fn gen_workload(rng: &mut XorShift64) -> (Program, Trace) {
    let regs = [IntReg::T1, IntReg::T2, IntReg::T3, IntReg::T4];
    let latencies = [20u32, 50, 100, 200];
    let steps = rng.range_usize(149) + 1;
    let mut a = Assembler::new();
    let mut entries = Vec::new();
    let mut pc = 0u32;
    let mut held_lock = false;
    for _ in 0..steps {
        let op = rng.next_below(12);
        let addr = rng.next_below(48) * 8;
        let miss = rng.next_bool();
        let r = *rng.choose(&regs);
        let latency = if miss { *rng.choose(&latencies) } else { 1 };
        match op {
            0..=2 => {
                a.load(r, IntReg::G0, addr as i64);
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Load(MemAccess {
                        addr,
                        miss,
                        latency,
                    }),
                });
            }
            3..=4 => {
                a.store(r, IntReg::G0, addr as i64);
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Store(MemAccess {
                        addr,
                        miss,
                        latency,
                    }),
                });
            }
            5 => {
                let (kind, wait) = if held_lock {
                    (SyncKind::Unlock, 0)
                } else {
                    (SyncKind::Lock, rng.next_below(150) as u32)
                };
                if held_lock {
                    a.unlock(IntReg::G1, 0);
                } else {
                    a.lock(IntReg::G1, 0);
                }
                held_lock = !held_lock;
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Sync(SyncAccess {
                        kind,
                        addr: 8,
                        wait,
                        access: if miss { latency.max(2) } else { 1 },
                    }),
                });
            }
            10 | 11 => {
                // Barriers (acquire and release at once) and events
                // (wait = acquire, set = release).
                let (kind, addr) = match (op, rng.next_bool()) {
                    (10, _) => (SyncKind::Barrier, 16),
                    (_, true) => (SyncKind::WaitEvent, 24),
                    (_, false) => (SyncKind::SetEvent, 24),
                };
                let wait = if kind == SyncKind::SetEvent {
                    0
                } else {
                    rng.next_below(150) as u32
                };
                match kind {
                    SyncKind::Barrier => a.barrier(IntReg::G1, addr as i64),
                    SyncKind::WaitEvent => a.wait_event(IntReg::G1, addr as i64),
                    _ => a.set_event(IntReg::G1, addr as i64),
                }
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Sync(SyncAccess {
                        kind,
                        addr,
                        wait,
                        access: if miss { latency.max(2) } else { 1 },
                    }),
                });
            }
            6 => {
                let fall = a.label();
                a.branch(BranchCond::Eq, r, IntReg::ZERO, fall);
                a.bind(fall).unwrap();
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Branch {
                        taken: rng.next_bool(),
                        target: pc + 1,
                    },
                });
            }
            _ => {
                a.addi(r, r, 1);
                entries.push(TraceEntry::compute(pc));
            }
        }
        pc += 1;
    }
    if held_lock {
        a.unlock(IntReg::G1, 0);
        entries.push(TraceEntry {
            pc,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Unlock,
                addr: 8,
                wait: 0,
                access: 1,
            }),
        });
    }
    a.halt();
    (a.assemble().unwrap(), Trace::from_entries(entries))
}

const MODELS: [ConsistencyModel; 4] = [
    ConsistencyModel::Sc,
    ConsistencyModel::Pc,
    ConsistencyModel::Wo,
    ConsistencyModel::Rc,
];

/// Runs both engines on one configuration and asserts full equality
/// plus the accounting invariant.
fn assert_equivalent(tag: &str, cfg: DsConfig, program: &Program, trace: &Trace) {
    let ds = Ds::new(cfg);
    let skip = ds.run(program, trace);
    let reference = ds.run_reference(program, trace);
    assert_eq!(
        skip, reference,
        "{tag}: skip-ahead and reference stepper disagree"
    );
    for (engine, r) in [("skip", &skip), ("reference", &reference)] {
        let b = &r.breakdown;
        assert_eq!(
            b.busy + b.read + b.write + b.sync,
            b.total(),
            "{tag} ({engine}): breakdown components must sum to total"
        );
    }
    assert_eq!(
        skip.stats.instructions,
        trace.len() as u64,
        "{tag}: every traced instruction retires"
    );
}

#[test]
fn skip_equals_reference_across_windows_and_models() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_0001);
    for case in 0..20 {
        let (program, trace) = gen_workload(&mut rng);
        for model in MODELS {
            for w in [1, 4, 16, 64, 256] {
                for issue_width in [1, 4] {
                    let cfg = DsConfig {
                        issue_width,
                        ..DsConfig::with_model(model).window(w)
                    };
                    let tag = format!("case {case} {model} w{w} x{issue_width}");
                    assert_equivalent(&tag, cfg, &program, &trace);
                }
            }
        }
    }
}

#[test]
fn skip_equals_reference_with_mshr_limits() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_0002);
    for case in 0..20 {
        let (program, trace) = gen_workload(&mut rng);
        for model in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
            for mshr_limit in [None, Some(1), Some(4)] {
                for store_buffer_depth in [1, 16] {
                    let cfg = DsConfig {
                        mshr_limit,
                        store_buffer_depth,
                        ..DsConfig::with_model(model).window(16)
                    };
                    assert_equivalent(
                        &format!("case {case} {model} mshr {mshr_limit:?} sb {store_buffer_depth}"),
                        cfg,
                        &program,
                        &trace,
                    );
                }
            }
        }
    }
}

#[test]
fn skip_equals_reference_under_ablations() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_0003);
    for case in 0..16 {
        let (program, trace) = gen_workload(&mut rng);
        for model in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
            let base = DsConfig::with_model(model).window(32);
            let variants = [
                DsConfig {
                    perfect_branch_prediction: true,
                    ..base
                },
                DsConfig {
                    ignore_data_dependences: true,
                    ..base
                },
                DsConfig {
                    nonbinding_prefetch: true,
                    ..base
                },
                DsConfig {
                    speculative_loads: true,
                    ..base
                },
                DsConfig {
                    issue_width: 4,
                    ..base
                },
            ];
            for (i, cfg) in variants.into_iter().enumerate() {
                assert_equivalent(
                    &format!("case {case} {model} ablation {i}"),
                    cfg,
                    &program,
                    &trace,
                );
            }
        }
    }
}

/// Degenerate traces must not trip the skip logic's progress bound.
#[test]
fn skip_handles_tiny_and_uniform_traces() {
    // Empty trace.
    let mut a = Assembler::new();
    a.halt();
    let p = a.assemble().unwrap();
    assert_equivalent("empty", DsConfig::rc(), &p, &Trace::new());

    // One giant miss.
    let mut a = Assembler::new();
    a.load(IntReg::T1, IntReg::G0, 0);
    a.halt();
    let p = a.assemble().unwrap();
    let t = Trace::from_entries(vec![TraceEntry {
        pc: 0,
        op: TraceOp::Load(MemAccess::miss(0, 10_000)),
    }]);
    for w in [1, 64] {
        assert_equivalent("one miss", DsConfig::rc().window(w), &p, &t);
    }

    // A long pure-compute run (fetch-limited, no memops at all).
    let mut a = Assembler::new();
    let mut entries = Vec::new();
    for i in 0..500u32 {
        a.addi(IntReg::T1, IntReg::T1, 1);
        entries.push(TraceEntry::compute(i));
    }
    a.halt();
    let p = a.assemble().unwrap();
    assert_equivalent(
        "pure compute",
        DsConfig::rc().window(8),
        &p,
        &Trace::from_entries(entries),
    );
}
