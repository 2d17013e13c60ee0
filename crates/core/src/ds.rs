//! The dynamically scheduled processor (Johnson-style) — §3.1.
//!
//! The model follows the paper's description of the architecture
//! derived from Johnson's design:
//!
//! * decoded instructions enter a **reorder buffer** (the *lookahead
//!   window*) of 16–256 entries, at most `issue_width` per cycle
//!   (1 in the main experiments, 4 in §4.2);
//! * **register renaming** through the reorder buffer removes WAR/WAW
//!   hazards — an instruction waits only for its true producers;
//! * all functional units are single-cycle and fully available (the
//!   paper assumes 1-cycle latency everywhere but the load/store
//!   unit), so an instruction completes one cycle after its operands
//!   are ready; only the **single cache port** (one load/store issued
//!   per cycle) and the window itself are structural hazards;
//! * a **branch target buffer** predicts branches at decode;
//!   speculative execution proceeds past predicted branches, and a
//!   misprediction stalls fetch until the branch resolves (wrong-path
//!   instructions are not in the trace; the modelled penalty is the
//!   fetch gap, the standard trace-driven treatment);
//! * **FIFO retirement** (precise interrupts): instructions leave the
//!   window in program order, so a long-latency load at the head holds
//!   window slots even when younger instructions have executed —
//!   exactly the conservatism the paper's §5 discusses;
//! * a store retires from the window "as soon as its address
//!   translation completes and the consistency constraints allow its
//!   issue" (paper footnote 2) into a 16-entry **store buffer** that
//!   issues to memory through the shared port; loads check the buffer
//!   and forward matching values;
//! * the data cache is **lockup-free**: misses occupy MSHRs
//!   (unbounded by default) and overlap; misses to the same line
//!   merge.
//!
//! Consistency models gate when each memory operation may issue, via
//! the [`ConsistencyModel::must_wait_for`] matrix over all earlier
//! not-yet-performed operations (window *and* store buffer).
//!
//! The §4.1.3 ablations are `perfect_branch_prediction` (never
//! mispredict) and `ignore_data_dependences` (operands always ready;
//! consistency constraints still respected, per the paper's
//! footnote 3).

use crate::btb::{Btb, BtbConfig};
use crate::consistency::{ConsistencyModel, MemOpKind};
use crate::model::{ExecutionResult, ProcessorModel};
use lookahead_isa::{Instruction, Program, SyncKind, WORD_BYTES};
use lookahead_memsys::MshrFile;
#[cfg(feature = "obs")]
use lookahead_obs::{self as obs, EventKind};
use lookahead_trace::{StreamError, Trace, TraceCursor, TraceOp, TraceSource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cache line size used for MSHR merging (the paper's 16 bytes).
const LINE_BYTES: u64 = 16;

/// Number of [`MemOpKind`]s; `kind as usize` indexes per-kind tables.
const KIND_COUNT: usize = 5;

const KINDS: [MemOpKind; KIND_COUNT] = [
    MemOpKind::Read,
    MemOpKind::Write,
    MemOpKind::Acquire,
    MemOpKind::Release,
    MemOpKind::Barrier,
];

/// Configuration of the dynamically scheduled processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsConfig {
    /// Reorder-buffer (lookahead window) size: 16–256 in the paper.
    pub window_size: usize,
    /// Instructions decoded and retired per cycle (1, or 4 for §4.2).
    pub issue_width: usize,
    /// Consistency model enforced by the load/store unit.
    pub model: ConsistencyModel,
    /// §4.1.3 ablation: branches never mispredict.
    pub perfect_branch_prediction: bool,
    /// §4.1.3 ablation: register and memory data dependences are
    /// ignored (consistency constraints still apply).
    pub ignore_data_dependences: bool,
    /// Store buffer depth (paper: 16).
    pub store_buffer_depth: usize,
    /// Maximum outstanding missed lines (`None` = unbounded, the
    /// paper's aggressive memory system).
    pub mshr_limit: Option<usize>,
    /// Branch target buffer geometry.
    pub btb: BtbConfig,
    /// §6 / reference \[8\], technique 1: **non-binding prefetch** for
    /// loads delayed by consistency constraints. The cache fill starts
    /// when the address is known; by the time the constraints allow
    /// the binding access, the line is (partially) fetched, shrinking
    /// the observed latency. Boosts strict models (SC/PC) without
    /// violating them.
    pub nonbinding_prefetch: bool,
    /// §6 / reference \[8\], technique 2: **speculative load execution**
    /// — loads issue and bind their values regardless of consistency
    /// constraints, with hardware rollback on a detected violation. In
    /// trace-driven re-timing no violation can manifest, so this
    /// models the technique's best case (the paper's own caveat).
    pub speculative_loads: bool,
}

impl DsConfig {
    /// The paper's main configuration under the given model: 64-entry
    /// window, single issue, real BTB, dependences honored.
    pub fn with_model(model: ConsistencyModel) -> DsConfig {
        DsConfig {
            window_size: 64,
            issue_width: 1,
            model,
            perfect_branch_prediction: false,
            ignore_data_dependences: false,
            store_buffer_depth: 16,
            mshr_limit: None,
            btb: BtbConfig::PAPER,
            nonbinding_prefetch: false,
            speculative_loads: false,
        }
    }

    /// Shorthand for [`DsConfig::with_model`]`(ConsistencyModel::Rc)`.
    pub fn rc() -> DsConfig {
        DsConfig::with_model(ConsistencyModel::Rc)
    }

    /// Returns the configuration with a different window size.
    pub fn window(self, window_size: usize) -> DsConfig {
        DsConfig {
            window_size,
            ..self
        }
    }
}

/// The dynamically scheduled processor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ds {
    config: DsConfig,
}

impl Ds {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero window size, issue
    /// width, or store buffer depth).
    pub fn new(config: DsConfig) -> Ds {
        assert!(config.window_size > 0, "window must hold an instruction");
        assert!(config.issue_width > 0, "issue width must be positive");
        assert!(config.store_buffer_depth > 0, "store buffer too small");
        Ds { config }
    }

    /// The configuration.
    pub fn config(&self) -> DsConfig {
        self.config
    }
}

/// The register slots one static instruction reads and writes, with
/// fp registers at `32 + index` (the layout of `reg_time` and
/// `reg_producer`). [`Engine::with_cursor`] decodes the program into
/// one row per pc, so decode and completion never touch the
/// [`Instruction`] enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Operands {
    /// Integer sources, then fp sources, in accessor order (a register
    /// read twice is listed twice); the first `source_count` are live.
    sources: [u8; 4],
    source_count: u8,
    /// The integer destination, then the fp destination.
    dests: [Option<u8>; 2],
}

impl Operands {
    /// The row of a pc outside the program: no operands.
    const NONE: Operands = Operands {
        sources: [0; 4],
        source_count: 0,
        dests: [None; 2],
    };

    fn of(instr: &Instruction) -> Operands {
        let mut row = Operands::NONE;
        let int = instr.int_sources();
        let fp = instr.fp_sources();
        let slots = int
            .iter()
            .map(|r| r.index())
            .chain(fp.iter().map(|r| 32 + r.index()));
        for slot in slots {
            row.sources[row.source_count as usize] = slot as u8;
            row.source_count += 1;
        }
        row.dests = [
            instr.int_dest().map(|r| r.index() as u8),
            instr.fp_dest().map(|r| 32 + r.index() as u8),
        ];
        row
    }

    fn sources(&self) -> &[u8] {
        &self.sources[..self.source_count as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EKind {
    Alu,
    Branch,
    /// Any memory or synchronization operation; details in `MemOp`.
    Mem,
}

#[derive(Debug)]
struct Entry {
    trace_idx: usize,
    kind: EKind,
    /// Producers not yet resolved.
    unresolved: u32,
    /// Max over decode time and known producer completion times.
    base_ready: u64,
    /// Register slots this entry claimed as their producer at decode;
    /// its completion time folds into them.
    dests: [Option<u8>; 2],
    /// Completion time (ALU/branch: ready+1; load-like: set at memory
    /// issue; stores: unused, they retire into the buffer).
    completion: Option<u64>,
    /// Entries waiting on this one's completion.
    waiters: Vec<u64>,
    /// Memop id, for memory operations.
    mem: Option<usize>,
    /// Whether fetch is stalled waiting for this branch to resolve.
    fetch_blocker: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    /// Operands not yet ready.
    Waiting,
    /// Operands ready (at the contained time); not yet issued.
    Ready(u64),
    /// Retired into the store buffer (stores/releases only).
    InBuffer,
    /// Issued to memory; performs at the contained time.
    Issued(u64),
}

#[derive(Debug, Clone, Copy)]
struct MemOp {
    kind: MemOpKind,
    word_addr: u64,
    /// Memory latency issued to the cache (for acquires this is the
    /// *access* component only; the wait component is charged at the
    /// window head, where it cannot be hidden).
    latency: u32,
    /// Unhidable wait component of an acquire/barrier (contention,
    /// load imbalance), charged while the operation sits at the head
    /// of the window.
    wait: u32,
    is_miss: bool,
    decode_time: u64,
    entry_id: u64,
    state: MState,
    /// Trace pc, kept past retirement for event labelling.
    #[cfg(feature = "obs")]
    pc: u32,
    /// First cycle the operation was observed at the window head.
    head_since: Option<u64>,
    /// For acquires/barriers: the cycle the operation retired, which
    /// is when it counts as performed for ordering purposes (the lock
    /// is not held before the wait has elapsed).
    acquire_done: Option<u64>,
}

impl MemOp {
    /// Filler for ring slots that hold no live operation.
    const VACANT: MemOp = MemOp {
        kind: MemOpKind::Read,
        word_addr: 0,
        latency: 0,
        wait: 0,
        is_miss: false,
        decode_time: 0,
        entry_id: 0,
        state: MState::Waiting,
        #[cfg(feature = "obs")]
        pc: 0,
        head_since: None,
        acquire_done: None,
    };

    fn performed_by(&self, now: u64) -> bool {
        if self.kind.acquires() {
            self.acquire_done.is_some_and(|t| t <= now)
        } else {
            matches!(self.state, MState::Issued(done) if done <= now)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallClass {
    Read,
    Write,
    Sync,
    Fetch,
}

struct Engine<'a> {
    cfg: DsConfig,
    /// Register operands per program pc (see [`Operands`]).
    operands: Vec<Operands>,
    #[cfg(debug_assertions)]
    program: &'a Program,
    cursor: TraceCursor<'a>,
    now: u64,
    next_decode: usize,
    /// Whether `next_decode` is past the end of the trace, refreshed
    /// whenever `next_decode` moves (the check pulls chunks on the
    /// streamed path, so it cannot live in `&self` accessors).
    decode_exhausted: bool,
    /// Ids are dense and monotonic: the live window is exactly the id
    /// range `[head_id, next_id)`, stored in a preallocated slab ring
    /// indexed by `id & slab_mask` (capacity = window size rounded up
    /// to a power of two, so live ids can never collide).
    head_id: u64,
    next_id: u64,
    slab: Vec<Option<Entry>>,
    slab_mask: u64,
    /// Memory operations get dense program-order ids. Live ids are
    /// `[mem_floor, mem_next)`, stored in a power-of-two ring indexed
    /// by `id & mem_mask` that doubles when the live span fills it
    /// (see [`Engine::push_memop`]).
    memops: Vec<MemOp>,
    mem_mask: usize,
    mem_floor: usize,
    mem_next: usize,
    /// The first id that may still be unperformed.
    mem_head: usize,
    /// Memops of retired window entries are exactly `[0, mem_retired)`.
    mem_retired: usize,
    /// Per [`MemOpKind`], the ids of that kind in program order, minus
    /// a prefix known to have performed. Fronts are pruned lazily, so
    /// a front that survives [`Engine::oldest_unperformed`] is the
    /// oldest unperformed operation of its kind; entries behind it may
    /// have performed already.
    unperformed: [VecDeque<usize>; KIND_COUNT],
    /// For each later kind, a bit per earlier kind the model makes it
    /// wait for (`must_wait_for`, tabulated once).
    wait_mask: [u8; KIND_COUNT],
    /// A bit per kind that every later kind must wait for.
    blocks_all: u8,
    /// Every memop threshold still ahead: operand-ready times and
    /// memory completions, pushed when set (see
    /// [`Engine::set_mem_state`]) and popped once `now` reaches them.
    thresholds: BinaryHeap<Reverse<u64>>,
    /// Window memops awaiting issue (loads/acquires/barriers), in the
    /// order their operands resolved. That is not program order: a
    /// younger independent load can sit ahead of an older dependent
    /// one, and `issue_phase` issues the first eligible op in this
    /// order.
    pending_loads: VecDeque<usize>,
    /// Store buffer: memop ids in FIFO order. Stores issue in this
    /// order and leave from the front once performed, so the issued
    /// ones are always its first `store_buffer_issued` entries.
    store_buffer: VecDeque<usize>,
    store_buffer_issued: usize,
    /// Register state: ready time or producing entry.
    reg_time: [u64; 64],
    reg_producer: [Option<u64>; 64],
    btb: Btb,
    mshrs: MshrFile,
    /// Work stack of `set_completion`, kept to reuse its allocation.
    completion_work: Vec<(u64, u64)>,
    /// Emptied waiter lists, reused by later entries.
    waiter_pool: Vec<Vec<u64>>,
    fetch_resume: u64,
    fetch_blocked: bool,
    /// Event-driven mode: skip straight over dead cycles. `false`
    /// retains the original cycle-by-cycle reference stepper that the
    /// equivalence suite and `lookahead bench` compare against.
    skip: bool,
    result: ExecutionResult,
}

impl<'a> Engine<'a> {
    fn new(cfg: DsConfig, program: &'a Program, trace: &'a Trace, skip: bool) -> Engine<'a> {
        Engine::with_cursor(cfg, program, TraceCursor::slice(trace), skip)
    }

    fn with_cursor(
        cfg: DsConfig,
        program: &'a Program,
        mut cursor: TraceCursor<'a>,
        skip: bool,
    ) -> Engine<'a> {
        let slab_cap = cfg.window_size.next_power_of_two();
        let mem_cap = (cfg.window_size + cfg.store_buffer_depth).next_power_of_two();
        let decode_exhausted = cursor.past_end(0);
        let mut wait_mask = [0u8; KIND_COUNT];
        for later in KINDS {
            for earlier in KINDS {
                if cfg.model.must_wait_for(earlier, later) {
                    wait_mask[later as usize] |= 1 << earlier as usize;
                }
            }
        }
        let blocks_all = wait_mask.iter().fold(u8::MAX, |all, &mask| all & mask);
        let pending_cap = cfg.window_size.min(cursor.loaded_len());
        Engine {
            cfg,
            operands: program.instructions().iter().map(Operands::of).collect(),
            #[cfg(debug_assertions)]
            program,
            cursor,
            now: 0,
            next_decode: 0,
            decode_exhausted,
            head_id: 0,
            next_id: 0,
            slab: std::iter::repeat_with(|| None).take(slab_cap).collect(),
            slab_mask: (slab_cap - 1) as u64,
            memops: vec![MemOp::VACANT; mem_cap],
            mem_mask: mem_cap - 1,
            mem_floor: 0,
            mem_next: 0,
            mem_head: 0,
            mem_retired: 0,
            unperformed: Default::default(),
            wait_mask,
            blocks_all,
            thresholds: BinaryHeap::new(),
            pending_loads: VecDeque::with_capacity(pending_cap),
            store_buffer: VecDeque::with_capacity(cfg.store_buffer_depth),
            store_buffer_issued: 0,
            reg_time: [0; 64],
            reg_producer: [None; 64],
            btb: Btb::new(cfg.btb),
            mshrs: MshrFile::new(cfg.mshr_limit),
            completion_work: Vec::new(),
            waiter_pool: Vec::new(),
            fetch_resume: 0,
            fetch_blocked: false,
            skip,
            result: ExecutionResult::default(),
        }
    }

    fn window_len(&self) -> usize {
        (self.next_id - self.head_id) as usize
    }

    /// The live entry with id `id`. Ids outside `[head_id, next_id)`
    /// are a logic error (the slot may hold a different live entry).
    fn entry(&self, id: u64) -> &Entry {
        debug_assert!(self.head_id <= id && id < self.next_id, "dead id {id}");
        self.slab[(id & self.slab_mask) as usize]
            .as_ref()
            .expect("live entry")
    }

    fn entry_mut(&mut self, id: u64) -> &mut Entry {
        debug_assert!(self.head_id <= id && id < self.next_id, "dead id {id}");
        self.slab[(id & self.slab_mask) as usize]
            .as_mut()
            .expect("live entry")
    }

    /// The live memop with id `id`.
    fn mem(&self, id: usize) -> &MemOp {
        debug_assert!(
            self.mem_floor <= id && id < self.mem_next,
            "dead memop {id}"
        );
        &self.memops[id & self.mem_mask]
    }

    fn mem_mut(&mut self, id: usize) -> &mut MemOp {
        debug_assert!(
            self.mem_floor <= id && id < self.mem_next,
            "dead memop {id}"
        );
        &mut self.memops[id & self.mem_mask]
    }

    /// Registers a decoded memop and returns its id.
    ///
    /// When the ring is full, the floor is first raised to the oldest
    /// id anything can still read; unless that frees a quarter of the
    /// ring, it doubles (so a span hovering near capacity does not
    /// recompute the floor on every push). The live span is not
    /// bounded by the window plus the store buffer: under RC,
    /// performed reads keep retiring past an old store or release that
    /// has not performed, and `mem_head` (hence the floor) stays at
    /// that operation.
    fn push_memop(&mut self, m: MemOp) -> usize {
        if self.mem_next - self.mem_floor == self.memops.len() {
            self.raise_mem_floor();
            if (self.mem_next - self.mem_floor) * 4 > self.memops.len() * 3 {
                let cap = self.memops.len() * 2;
                let mut ring = vec![MemOp::VACANT; cap];
                for id in self.mem_floor..self.mem_next {
                    ring[id & (cap - 1)] = self.memops[id & self.mem_mask];
                }
                self.memops = ring;
                self.mem_mask = cap - 1;
            }
        }
        let id = self.mem_next;
        self.memops[id & self.mem_mask] = m;
        self.mem_next += 1;
        // Pruning on push keeps every queue as short as its unperformed
        // span, also for kinds no consistency check asks about.
        let kind = m.kind as usize;
        self.oldest_unperformed(kind);
        self.unperformed[kind].push_back(id);
        id
    }

    /// Raises `mem_floor` to the oldest memop id still referenced:
    /// `mem_head` (the scan start of the stall classifier), the first
    /// memop still in the window, the store-buffer front, and the
    /// per-kind queue fronts. Every other reference is younger than
    /// one of these.
    fn raise_mem_floor(&mut self) {
        for kind in 0..KIND_COUNT {
            self.oldest_unperformed(kind);
        }
        let fronts = self
            .unperformed
            .iter()
            .chain(std::iter::once(&self.store_buffer))
            .filter_map(|q| q.front().copied());
        let floor = fronts.fold(self.mem_head.min(self.mem_retired), usize::min);
        debug_assert!(floor >= self.mem_floor, "memop floor moved back");
        self.mem_floor = floor;
    }

    /// The oldest memop of kind index `kind` not performed by `now`,
    /// dropping performed ones from the front of its queue.
    fn oldest_unperformed(&mut self, kind: usize) -> Option<usize> {
        while let Some(&id) = self.unperformed[kind].front() {
            if !self.mem(id).performed_by(self.now) {
                return Some(id);
            }
            self.unperformed[kind].pop_front();
        }
        None
    }

    /// A hard progress bound: no trace entry can legitimately take
    /// longer than its worst-case serial latency, so a run exceeding
    /// this is a model deadlock (usually a mismatched program/trace
    /// pair) and must fail loudly. On the streamed path the bound
    /// grows with the entries pulled so far, which always covers
    /// everything decoded.
    fn progress_bound(&self) -> u64 {
        100_000 + (self.cursor.loaded_len() as u64) * (1 << 14)
    }

    fn run(mut self) -> Result<ExecutionResult, StreamError> {
        self.simulate()?;
        Ok(self.result)
    }

    fn simulate(&mut self) -> Result<(), StreamError> {
        loop {
            let bound = self.progress_bound();
            let done = self.decode_exhausted
                && self.head_id == self.next_id
                && self.store_buffer_occupancy() == 0;
            if done {
                break;
            }
            self.mshrs.retire_completed(self.now);
            let retired = self.retire_phase();
            let issued = self.issue_phase();
            let decoded = self.fetch_phase();
            if retired > 0 {
                self.result.breakdown.busy += 1;
                #[cfg(feature = "obs")]
                {
                    let occupancy = self.window_len() as u64;
                    obs::with(|r| {
                        r.metrics.observe("core.ds.rob_occupancy", occupancy);
                        r.busy_cycle();
                    });
                }
                self.now += 1;
            } else {
                // Nothing retired at `now`. If nothing issued or
                // decoded either, the architectural state is frozen:
                // every eligibility predicate in the model is a
                // monotone threshold on time, so nothing can happen
                // strictly before the earliest pending threshold.
                // Jump there in one step and charge the whole span to
                // the stall class at `now` (constant across the span,
                // since no threshold fires inside it). The span is
                // clamped to the progress bound so a skip can never
                // jump past it silently: a deadlocked machine lands
                // exactly on the bound and the assert below fires.
                let span = if self.skip && !issued && decoded == 0 {
                    self.next_event_time()
                        .unwrap_or(bound)
                        .clamp(self.now + 1, bound)
                        - self.now
                } else {
                    1
                };
                let class = self.stall_class();
                match class {
                    StallClass::Read => self.result.breakdown.read += span,
                    StallClass::Write => self.result.breakdown.write += span,
                    StallClass::Sync => self.result.breakdown.sync += span,
                    StallClass::Fetch => {
                        self.result.breakdown.busy += span;
                        self.result.stats.fetch_stall_cycles += span;
                    }
                }
                #[cfg(feature = "obs")]
                {
                    let occupancy = self.window_len() as u64;
                    let (pc, cause) = self.stall_blame(class);
                    let now = self.now;
                    obs::with(|r| {
                        r.metrics
                            .observe_n("core.ds.rob_occupancy", occupancy, span);
                        r.stall_span(now, span, pc, obs_class(class), cause);
                    });
                }
                self.now += span;
            }
            assert!(
                self.now < self.progress_bound(),
                "no forward progress after {} cycles ({} trace entries decoded): \
                 the program and trace likely do not match",
                self.now,
                self.next_decode
            );
        }
        if let Some(e) = self.cursor.take_error() {
            // The source failed mid-run: the engine saw a truncated
            // trace, so the partial accounting is meaningless.
            return Err(e);
        }
        self.result.stats.peak_outstanding_misses = self.mshrs.peak();
        Ok(())
    }

    /// The earliest future cycle at which the frozen machine state can
    /// change: a window-head completion or acquire-wait expiry, a
    /// pending operand-ready or memory-completion threshold, an MSHR
    /// retiring (freeing a slot for a structurally stalled request),
    /// or the fetch stage resuming after a resolved misprediction.
    /// `None` with work still outstanding is a model deadlock; the
    /// caller jumps to the progress bound so it fails loudly.
    fn next_event_time(&self) -> Option<u64> {
        let now = self.now;
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now {
                next = Some(next.map_or(t, |n: u64| n.min(t)));
            }
        };
        if self.head_id < self.next_id {
            let e = self.entry(self.head_id);
            if let Some(c) = e.completion {
                consider(c);
            }
            if let Some(mi) = e.mem {
                let m = self.mem(mi);
                if m.kind.acquires() {
                    // head_since was set by this cycle's retire phase.
                    if let Some(since) = m.head_since {
                        consider(since + m.wait as u64);
                    }
                }
            }
        }
        if let Some(t) = self.next_memop_event() {
            consider(t);
        }
        if let Some(t) = self.mshrs.next_completion() {
            consider(t);
        }
        if !self.fetch_blocked && self.window_len() < self.cfg.window_size && !self.decode_exhausted
        {
            consider(self.fetch_resume);
        }
        next
    }

    /// The earliest memop threshold after `now`: an operand-ready time
    /// or a memory completion. (These cover store-buffer drains and
    /// consistency-constraint expiry: both are "an earlier op
    /// performs", which is that op's own Issued threshold.)
    ///
    /// A threshold, once set, stays valid until `now` passes it: a
    /// `Ready(t)` op issues only at or after `t`, and `Issued(done)` is
    /// final. So the heap's top is the answer once the thresholds
    /// `advance_mem_head` has popped are gone, and everything pushed
    /// since lies after `now`.
    fn next_memop_event(&self) -> Option<u64> {
        let next = self.thresholds.peek().map(|&Reverse(t)| t);
        #[cfg(debug_assertions)]
        debug_assert_eq!(next, self.next_memop_event_scan());
        next
    }

    /// Oracle for [`Engine::next_memop_event`]: every memop from
    /// `mem_head` on.
    #[cfg(debug_assertions)]
    fn next_memop_event_scan(&self) -> Option<u64> {
        (self.mem_head..self.mem_next)
            .filter_map(|j| match self.mem(j).state {
                MState::Ready(t) | MState::Issued(t) if t > self.now => Some(t),
                _ => None,
            })
            .min()
    }

    /// Moves memop `mi` to `state`, recording a threshold it carries
    /// that lies ahead.
    fn set_mem_state(&mut self, mi: usize, state: MState) {
        self.mem_mut(mi).state = state;
        if let MState::Ready(t) | MState::Issued(t) = state {
            if t > self.now {
                self.thresholds.push(Reverse(t));
            }
        }
    }

    // ---- retirement ----------------------------------------------------

    fn retire_phase(&mut self) -> usize {
        let mut retired = 0;
        while retired < self.cfg.issue_width {
            if self.head_id == self.next_id {
                break;
            }
            let head = self.head_id;
            let (kind, mem_idx, completion) = {
                let e = self.entry(head);
                (e.kind, e.mem, e.completion)
            };
            let can_retire = match kind {
                EKind::Alu | EKind::Branch => completion.is_some_and(|c| c <= self.now),
                EKind::Mem => {
                    let mi = mem_idx.expect("mem entry");
                    match self.mem(mi).kind {
                        MemOpKind::Write | MemOpKind::Release => self.store_can_move_to_buffer(mi),
                        MemOpKind::Acquire | MemOpKind::Barrier => {
                            // The wait component starts counting when
                            // the acquire reaches the head: imbalance
                            // and contention cannot be looked past.
                            let now = self.now;
                            let m = self.mem_mut(mi);
                            let since = *m.head_since.get_or_insert(now);
                            let wait_over = now >= since + m.wait as u64;
                            let access_done = matches!(m.state, MState::Issued(d) if d <= now);
                            wait_over && access_done
                        }
                        MemOpKind::Read => completion.is_some_and(|c| c <= self.now),
                    }
                }
            };
            if !can_retire {
                break;
            }
            if let Some(mi) = mem_idx {
                match self.mem(mi).kind {
                    MemOpKind::Write | MemOpKind::Release => {
                        self.mem_mut(mi).state = MState::InBuffer;
                        self.store_buffer.push_back(mi);
                    }
                    MemOpKind::Acquire | MemOpKind::Barrier => {
                        let now = self.now;
                        let m = self.mem_mut(mi);
                        m.acquire_done = Some(now);
                        let entry_id = m.entry_id;
                        self.set_completion(entry_id, now);
                    }
                    MemOpKind::Read => {}
                }
                self.mem_retired = mi + 1;
            }
            #[cfg(feature = "obs")]
            {
                let pc = self.cursor.pc(self.entry(head).trace_idx);
                let now = self.now;
                obs::with(|r| {
                    r.event(now, EventKind::Retire { pc });
                    r.metrics.inc("core.ds.retired", 1);
                });
            }
            let retiring = self.slab[(head & self.slab_mask) as usize]
                .take()
                .expect("head exists");
            self.recycle_waiters(retiring.waiters);
            self.head_id += 1;
            self.result.stats.instructions += 1;
            retired += 1;
        }
        if retired > 0 {
            // Entries older than the new window head can never be read
            // again (dataflow walks only live ids, whose trace indices
            // are monotone in id); let the cursor drop their chunks.
            let keep_from = if self.head_id < self.next_id {
                self.entry(self.head_id).trace_idx
            } else {
                self.next_decode
            };
            self.cursor.release_before(keep_from);
        }
        retired
    }

    /// Whether the store/release at `mi` (assumed at the window head)
    /// may retire into the store buffer now.
    fn store_can_move_to_buffer(&mut self, mi: usize) -> bool {
        let ready = match self.mem(mi).state {
            MState::Ready(t) => t <= self.now,
            _ => false,
        };
        ready
            && self.store_buffer_occupancy() < self.cfg.store_buffer_depth
            && self.consistency_eligible(mi)
    }

    fn store_buffer_occupancy(&self) -> usize {
        self.store_buffer
            .iter()
            .filter(|&&mi| !self.mem(mi).performed_by(self.now))
            .count()
    }

    // ---- memory issue ----------------------------------------------------

    /// Every earlier not-yet-performed memop the model orders before
    /// `mi` must have performed. Which earlier ops count depends only
    /// on the two kinds, so it is enough that the oldest unperformed op
    /// of each ordered-before kind is not older than `mi`.
    fn consistency_eligible(&mut self, mi: usize) -> bool {
        let mask = self.wait_mask[self.mem(mi).kind as usize];
        let eligible = (0..KIND_COUNT).all(|kind| {
            mask & (1 << kind) == 0 || self.oldest_unperformed(kind).is_none_or(|id| id >= mi)
        });
        #[cfg(debug_assertions)]
        debug_assert_eq!(eligible, self.consistency_eligible_scan(mi), "memop {mi}");
        eligible
    }

    /// Oracle for [`Engine::consistency_eligible`]: every memop between
    /// `mem_head` and `mi`.
    #[cfg(debug_assertions)]
    fn consistency_eligible_scan(&self, mi: usize) -> bool {
        let later = self.mem(mi).kind;
        (self.mem_head..mi).all(|j| {
            let e = self.mem(j);
            e.performed_by(self.now) || !self.cfg.model.must_wait_for(e.kind, later)
        })
    }

    /// For a load: the latest earlier unperformed store/release to the
    /// same word, if any. Only the Write and Release queues can hold
    /// one.
    fn forwarding_source(&self, mi: usize) -> Option<usize> {
        let addr = self.mem(mi).word_addr;
        let latest = |kind: MemOpKind| {
            let queue = &self.unperformed[kind as usize];
            let older = queue.partition_point(|&j| j < mi);
            queue.range(..older).rev().copied().find(|&j| {
                let e = self.mem(j);
                e.word_addr == addr && !e.performed_by(self.now)
            })
        };
        let src = latest(MemOpKind::Write).max(latest(MemOpKind::Release));
        #[cfg(debug_assertions)]
        debug_assert_eq!(src, self.forwarding_source_scan(mi), "memop {mi}");
        src
    }

    /// Oracle for [`Engine::forwarding_source`]: every memop between
    /// `mem_head` and `mi`, youngest first.
    #[cfg(debug_assertions)]
    fn forwarding_source_scan(&self, mi: usize) -> Option<usize> {
        let addr = self.mem(mi).word_addr;
        (self.mem_head..mi).rev().find(|&j| {
            let e = self.mem(j);
            matches!(e.kind, MemOpKind::Write | MemOpKind::Release)
                && e.word_addr == addr
                && !e.performed_by(self.now)
        })
    }

    /// Issues at most one memory operation to the single cache port.
    /// Returns whether anything issued (if so, the cycle made progress
    /// and cannot be skipped past).
    fn issue_phase(&mut self) -> bool {
        self.advance_mem_head();
        // Window ops (loads/acquires/barriers) have priority over the
        // store buffer on the single cache port.
        let mut chosen: Option<(usize, u64)> = None;
        // An unperformed op of a kind every kind waits for (any op
        // under SC, a read under PC, an acquire under RC) fails the
        // consistency check of every younger op.
        let fence = if self.pending_loads.is_empty() || self.cfg.speculative_loads {
            None
        } else {
            let blocks_all = self.blocks_all;
            (0..KIND_COUNT)
                .filter(|&kind| blocks_all & (1 << kind) != 0)
                .filter_map(|kind| self.oldest_unperformed(kind))
                .min()
        };
        for pos in 0..self.pending_loads.len() {
            let mi = self.pending_loads[pos];
            if fence.is_some_and(|f| f < mi) {
                continue;
            }
            let MemOp {
                kind,
                word_addr,
                latency,
                is_miss,
                state,
                ..
            } = *self.mem(mi);
            let MState::Ready(t) = state else { continue };
            if t > self.now {
                continue;
            }
            // Speculative loads ([8], technique 2) bypass the
            // consistency check entirely.
            let speculate = self.cfg.speculative_loads && kind == MemOpKind::Read;
            if !speculate && !self.consistency_eligible(mi) {
                continue;
            }
            if kind == MemOpKind::Read {
                if let Some(src) = self.forwarding_source(mi) {
                    // Forward from the store buffer in one cycle once
                    // the store's data is actually available; block
                    // while it is unknown or still being computed
                    // (unless dependences are being ignored, in which
                    // case forwarding still applies — it is a latency
                    // shortcut, not a stall).
                    let data_available = match self.mem(src).state {
                        MState::Waiting => false,
                        MState::Ready(t) => t <= self.now,
                        MState::InBuffer | MState::Issued(_) => true,
                    };
                    if !data_available && !self.cfg.ignore_data_dependences {
                        continue;
                    }
                    chosen = Some((pos, self.now + 1));
                    break;
                }
            }
            // Non-binding prefetch ([8], technique 1): the fill began
            // when the address became known; cycles spent blocked on
            // consistency constraints come off the latency.
            let latency = if self.cfg.nonbinding_prefetch && kind == MemOpKind::Read {
                let covered = self.now.saturating_sub(t);
                (latency as u64).saturating_sub(covered).max(1) as u32
            } else {
                latency
            };
            if is_miss {
                let line = word_addr & !(LINE_BYTES - 1);
                match self.mshrs.request(line, self.now, latency) {
                    Some(done) => {
                        chosen = Some((pos, done));
                        break;
                    }
                    None => continue, // MSHRs full: structural stall
                }
            }
            chosen = Some((pos, self.now + latency as u64));
            break;
        }
        if let Some((pos, done)) = chosen {
            let mi = self.pending_loads.remove(pos).expect("chosen position");
            self.set_mem_state(mi, MState::Issued(done));
            let m = *self.mem(mi);
            #[cfg(feature = "obs")]
            {
                let (now, pc, addr) = (self.now, m.pc, m.word_addr);
                obs::with(|r| {
                    r.event(now, EventKind::Issue { pc, addr });
                    r.event(done, EventKind::Complete { pc, addr });
                });
            }
            if m.kind == MemOpKind::Read && m.is_miss {
                self.result
                    .stats
                    .read_miss_issue_delays
                    .push((self.now - m.decode_time) as u32);
            }
            if !m.kind.acquires() {
                // Acquires complete at retirement (after their wait);
                // everything else completes when memory responds.
                self.set_completion(m.entry_id, done);
            }
            return true;
        }
        // Otherwise the store buffer may use the port (FIFO). Store
        // misses occupy MSHRs like loads: same-line misses merge and a
        // full file stalls the issue.
        let next_store = self.store_buffer.get(self.store_buffer_issued).copied();
        debug_assert_eq!(
            next_store,
            self.store_buffer
                .iter()
                .copied()
                .find(|&mi| self.mem(mi).state == MState::InBuffer),
            "issued stores are not a prefix of the store buffer"
        );
        if let Some(mi) = next_store {
            let m = *self.mem(mi);
            let done = if m.is_miss {
                let line = m.word_addr & !(LINE_BYTES - 1);
                match self.mshrs.request(line, self.now, m.latency) {
                    Some(done) => done,
                    None => return false, // MSHRs full: retry next cycle
                }
            } else {
                self.now + m.latency as u64
            };
            #[cfg(feature = "obs")]
            {
                let (now, pc, addr) = (self.now, m.pc, m.word_addr);
                obs::with(|r| {
                    r.event(now, EventKind::Issue { pc, addr });
                    r.event(done, EventKind::Complete { pc, addr });
                });
            }
            self.set_mem_state(mi, MState::Issued(done));
            self.store_buffer_issued += 1;
            return true;
        }
        false
    }

    /// Moves `mem_head` and the store-buffer front past performed ops.
    fn advance_mem_head(&mut self) {
        while self
            .thresholds
            .peek()
            .is_some_and(|&Reverse(t)| t <= self.now)
        {
            self.thresholds.pop();
        }
        while self.mem_head < self.mem_next && self.mem(self.mem_head).performed_by(self.now) {
            self.mem_head += 1;
        }
        while self
            .store_buffer
            .front()
            .is_some_and(|&mi| self.mem(mi).performed_by(self.now))
        {
            self.store_buffer.pop_front();
            self.store_buffer_issued -= 1;
        }
    }

    // ---- decode / dataflow ----------------------------------------------

    /// Decodes up to `issue_width` trace entries into the window.
    /// Returns the number decoded (a cycle that decoded anything made
    /// progress and cannot be skipped past).
    fn fetch_phase(&mut self) -> usize {
        if self.fetch_blocked || self.now < self.fetch_resume {
            return 0;
        }
        let mut decoded = 0;
        for _ in 0..self.cfg.issue_width {
            if self.window_len() >= self.cfg.window_size || self.decode_exhausted {
                break;
            }
            let stop_after = self.decode_one();
            decoded += 1;
            if stop_after {
                break;
            }
        }
        decoded
    }

    /// Decodes one trace entry into the window. Returns `true` if
    /// fetch must stop (mispredicted branch).
    fn decode_one(&mut self) -> bool {
        let idx = self.next_decode;
        let te = self.cursor.entry(idx);
        self.next_decode += 1;
        self.decode_exhausted = self.cursor.past_end(self.next_decode);
        let id = self.next_id;
        self.next_id += 1;
        #[cfg(feature = "obs")]
        {
            let (now, pc) = (self.now, te.pc);
            obs::with(|r| r.event(now, EventKind::Fetch { pc }));
        }

        let (kind, mem) = match te.op {
            TraceOp::Compute | TraceOp::Jump { .. } => (EKind::Alu, None),
            TraceOp::Branch { .. } => (EKind::Branch, None),
            TraceOp::Load(m) => (
                EKind::Mem,
                Some(MemOp {
                    kind: MemOpKind::Read,
                    word_addr: m.addr & !(WORD_BYTES - 1),
                    latency: m.latency,
                    wait: 0,
                    is_miss: m.miss,
                    decode_time: self.now,
                    entry_id: id,
                    state: MState::Waiting,
                    #[cfg(feature = "obs")]
                    pc: te.pc,
                    head_since: None,
                    acquire_done: None,
                }),
            ),
            TraceOp::Store(m) => (
                EKind::Mem,
                Some(MemOp {
                    kind: MemOpKind::Write,
                    word_addr: m.addr & !(WORD_BYTES - 1),
                    latency: m.latency,
                    wait: 0,
                    is_miss: m.miss,
                    decode_time: self.now,
                    entry_id: id,
                    state: MState::Waiting,
                    #[cfg(feature = "obs")]
                    pc: te.pc,
                    head_since: None,
                    acquire_done: None,
                }),
            ),
            TraceOp::Sync(s) => {
                let kind = match s.kind {
                    SyncKind::Lock | SyncKind::WaitEvent => MemOpKind::Acquire,
                    SyncKind::Unlock | SyncKind::SetEvent => MemOpKind::Release,
                    SyncKind::Barrier => MemOpKind::Barrier,
                };
                // Acquires issue the memory access only; the wait is
                // charged at the window head. Releases carry no wait.
                let (latency, wait) = if kind.acquires() {
                    (s.access, s.wait)
                } else {
                    (s.wait + s.access, 0)
                };
                (
                    EKind::Mem,
                    Some(MemOp {
                        kind,
                        word_addr: s.addr & !(WORD_BYTES - 1),
                        latency,
                        wait,
                        is_miss: false,
                        decode_time: self.now,
                        entry_id: id,
                        state: MState::Waiting,
                        #[cfg(feature = "obs")]
                        pc: te.pc,
                        head_since: None,
                        acquire_done: None,
                    }),
                )
            }
        };

        let mem_idx = mem.map(|m| self.push_memop(m));

        let mut entry = Entry {
            trace_idx: idx,
            kind,
            unresolved: 0,
            base_ready: self.now,
            dests: [None; 2],
            completion: None,
            waiters: self.waiter_pool.pop().unwrap_or_default(),
            mem: mem_idx,
            fetch_blocker: false,
        };

        // Register dependences (renaming: only true producers matter).
        // Store-like entries never complete through set_completion, so
        // they must not claim destination registers — with a matched
        // program/trace they have none, but a mismatched pair (user
        // error) must degrade to wrong timing, not a silent hang.
        let store_like = matches!(
            mem.map(|m| m.kind),
            Some(MemOpKind::Write) | Some(MemOpKind::Release)
        );
        if !self.cfg.ignore_data_dependences {
            let row = self.operands_at(te.pc);
            for &slot in row.sources() {
                let slot = slot as usize;
                match self.reg_producer[slot] {
                    // A producer id below head_id has retired: its time
                    // was folded into reg_time when it completed (its
                    // slab slot may already hold a different live
                    // entry).
                    Some(pid) if pid >= self.head_id => {
                        let p = self.entry_mut(pid);
                        if let Some(c) = p.completion {
                            entry.base_ready = entry.base_ready.max(c);
                        } else {
                            p.waiters.push(id);
                            entry.unresolved += 1;
                        }
                    }
                    _ => entry.base_ready = entry.base_ready.max(self.reg_time[slot]),
                }
            }
            if !store_like {
                for slot in row.dests.into_iter().flatten() {
                    self.reg_producer[slot as usize] = Some(id);
                }
                entry.dests = row.dests;
            }
        }

        // Branch prediction at decode.
        let mut mispredicted = false;
        if let TraceOp::Branch { taken, target } = te.op {
            self.result.stats.branches += 1;
            if !self.cfg.perfect_branch_prediction {
                use lookahead_trace::BranchPredictor;
                let correct = self.btb.predict_and_update(te.pc, taken, target);
                if !correct {
                    self.result.stats.mispredictions += 1;
                    mispredicted = true;
                }
            }
        }

        let resolved = entry.unresolved == 0;
        let base = entry.base_ready;
        if mispredicted {
            entry.fetch_blocker = true;
            self.fetch_blocked = true;
        }
        let slot = (id & self.slab_mask) as usize;
        debug_assert!(self.slab[slot].is_none(), "slab slot still live");
        self.slab[slot] = Some(entry);
        if resolved {
            self.set_ready(id, base);
        }
        mispredicted
    }

    /// The operand row of the instruction at `pc`; [`Operands::NONE`]
    /// for a pc outside the program.
    fn operands_at(&self, pc: u32) -> Operands {
        let row = self
            .operands
            .get(pc as usize)
            .copied()
            .unwrap_or(Operands::NONE);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            row,
            self.program
                .fetch(pc as usize)
                .map_or(Operands::NONE, Operands::of),
            "operand row of pc {pc}"
        );
        row
    }

    /// All producers of `id` are known: fix its ready time and, for
    /// single-cycle units, its completion.
    fn set_ready(&mut self, id: u64, ready: u64) {
        let e = self.entry_mut(id);
        match e.kind {
            EKind::Alu | EKind::Branch => {
                let c = ready.max(e.base_ready) + 1;
                self.set_completion(id, c);
            }
            EKind::Mem => {
                let mi = e.mem.expect("mem entry");
                self.set_mem_state(mi, MState::Ready(ready));
                if !matches!(self.mem(mi).kind, MemOpKind::Write | MemOpKind::Release) {
                    self.pending_loads.push_back(mi);
                }
            }
        }
    }

    /// Propagate a known completion time to dependents (iteratively,
    /// to keep long ALU chains off the call stack).
    fn set_completion(&mut self, id: u64, time: u64) {
        let mut work = std::mem::take(&mut self.completion_work);
        work.push((id, time));
        while let Some((id, time)) = work.pop() {
            let e = self.entry_mut(id);
            e.completion = Some(time);
            let unblocks_fetch = std::mem::take(&mut e.fetch_blocker);
            let waiters = std::mem::take(&mut e.waiters);
            let dests = e.dests;
            if unblocks_fetch {
                self.fetch_blocked = false;
                self.fetch_resume = self.fetch_resume.max(time + 1);
            }
            // Fold into the register file view for consumers that
            // decode after this entry retires.
            for slot in dests.into_iter().flatten() {
                let slot = slot as usize;
                if self.reg_producer[slot] == Some(id) {
                    self.reg_producer[slot] = None;
                    self.reg_time[slot] = time;
                }
            }
            for &w in &waiters {
                let we = self.entry_mut(w);
                we.base_ready = we.base_ready.max(time);
                we.unresolved -= 1;
                if we.unresolved == 0 {
                    let base = we.base_ready;
                    let kind = we.kind;
                    match kind {
                        EKind::Alu | EKind::Branch => work.push((w, base + 1)),
                        EKind::Mem => self.set_ready(w, base),
                    }
                }
            }
            self.recycle_waiters(waiters);
        }
        self.completion_work = work;
    }

    /// Keeps an emptied waiter list's allocation for a later entry.
    fn recycle_waiters(&mut self, mut waiters: Vec<u64>) {
        if waiters.capacity() > 0 {
            waiters.clear();
            self.waiter_pool.push(waiters);
        }
    }

    // ---- stall attribution ------------------------------------------------

    fn stall_class(&self) -> StallClass {
        let head_class = (self.head_id < self.next_id).then(|| {
            let e = self.entry(self.head_id);
            match e.kind {
                EKind::Mem => Some(class_of(self.mem(e.mem.expect("mem entry")).kind)),
                _ => None,
            }
        });
        match head_class {
            Some(Some(c)) => c,
            Some(None) => {
                // ALU/branch at head: blame the oldest unperformed
                // memory operation, the usual producer of the wait.
                self.oldest_unperformed_class().unwrap_or(StallClass::Fetch)
            }
            None => self.oldest_unperformed_class().unwrap_or(StallClass::Fetch),
        }
    }

    fn oldest_unperformed_class(&self) -> Option<StallClass> {
        (self.mem_head..self.mem_next)
            .find(|&j| !self.mem(j).performed_by(self.now))
            .map(|j| class_of(self.mem(j).kind))
    }

    /// Refines a coarse stall class into the blamed pc and fine cause.
    /// Purely observational: the coarse class is passed through
    /// unchanged, so attribution reconciles with the breakdown by
    /// construction.
    #[cfg(feature = "obs")]
    fn stall_blame(&self, class: StallClass) -> (u32, obs::StallCause) {
        use obs::StallCause as C;
        if self.head_id < self.next_id {
            let e = self.entry(self.head_id);
            let pc = self.cursor.pc(e.trace_idx);
            let cause = match e.kind {
                // ALU/branch at head: retirement waits on its operands.
                EKind::Alu | EKind::Branch => C::TrueDependence,
                EKind::Mem => {
                    let m = self.mem(e.mem.expect("mem entry"));
                    match m.kind {
                        MemOpKind::Read => match m.state {
                            MState::Waiting => C::TrueDependence,
                            MState::Ready(t) if t > self.now => C::TrueDependence,
                            MState::Issued(_) if self.window_len() >= self.cfg.window_size => {
                                C::RobFull
                            }
                            _ => C::ReadMiss,
                        },
                        MemOpKind::Write | MemOpKind::Release => match m.state {
                            MState::Waiting => C::TrueDependence,
                            MState::Ready(t) if t > self.now => C::TrueDependence,
                            _ => C::WriteMiss,
                        },
                        MemOpKind::Acquire | MemOpKind::Barrier => C::Acquire,
                    }
                }
            };
            (pc, cause)
        } else {
            // Window empty: nothing to retire; blame the next
            // instruction the fetch stage would decode.
            let pc = if self.next_decode < self.cursor.loaded_len() {
                self.cursor.pc(self.next_decode)
            } else {
                0
            };
            let cause = match class {
                StallClass::Read => C::ReadMiss,
                StallClass::Write => C::WriteMiss,
                StallClass::Sync => C::Acquire,
                StallClass::Fetch => C::FetchLimit,
            };
            (pc, cause)
        }
    }
}

/// Maps the core-local stall class onto the obs taxonomy.
#[cfg(feature = "obs")]
fn obs_class(c: StallClass) -> obs::StallClass {
    match c {
        StallClass::Read => obs::StallClass::Read,
        StallClass::Write => obs::StallClass::Write,
        StallClass::Sync => obs::StallClass::Sync,
        StallClass::Fetch => obs::StallClass::Fetch,
    }
}

fn class_of(kind: MemOpKind) -> StallClass {
    match kind {
        MemOpKind::Read => StallClass::Read,
        MemOpKind::Write | MemOpKind::Release => StallClass::Write,
        MemOpKind::Acquire | MemOpKind::Barrier => StallClass::Sync,
    }
}

impl ProcessorModel for Ds {
    fn name(&self) -> String {
        let mut name = format!("DS-{}/{}", self.config.window_size, self.config.model);
        if self.config.perfect_branch_prediction {
            name.push_str("+pbp");
        }
        if self.config.ignore_data_dependences {
            name.push_str("+nodep");
        }
        if self.config.nonbinding_prefetch {
            name.push_str("+pf");
        }
        if self.config.speculative_loads {
            name.push_str("+spec");
        }
        if self.config.issue_width != 1 {
            name.push_str(&format!("+w{}", self.config.issue_width));
        }
        name
    }

    fn run(&self, program: &Program, trace: &Trace) -> ExecutionResult {
        Engine::new(self.config, program, trace, true)
            .run()
            .expect("slice-backed run cannot fail")
    }

    fn run_source(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
    ) -> Result<ExecutionResult, StreamError> {
        let cursor = TraceCursor::stream(Box::new(source));
        Engine::with_cursor(self.config, program, cursor, true).run()
    }
}

impl Ds {
    /// Re-times `trace` with the retained cycle-by-cycle reference
    /// stepper: identical state machine, but every cycle is walked
    /// explicitly instead of skipping dead spans. Exists as the ground
    /// truth for the skip-ahead equivalence suite and as the baseline
    /// engine for `lookahead bench`.
    pub fn run_reference(&self, program: &Program, trace: &Trace) -> ExecutionResult {
        Engine::new(self.config, program, trace, false)
            .run()
            .expect("slice-backed run cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use lookahead_isa::{Assembler, BranchCond, IntReg};
    use lookahead_trace::{MemAccess, TraceEntry};

    /// `n` independent load misses, each followed by `gap` independent
    /// compute instructions.
    fn independent_misses(n: usize, gap: usize) -> (Program, Trace) {
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        let mut pc = 0u32;
        for i in 0..n {
            a.load(IntReg::T1, IntReg::T0, (i as i64) * 64);
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Load(MemAccess::miss(i as u64 * 64, 50)),
            });
            pc += 1;
            for _ in 0..gap {
                a.addi(IntReg::T2, IntReg::T2, 1);
                entries.push(TraceEntry::compute(pc));
                pc += 1;
            }
        }
        a.halt();
        (a.assemble().unwrap(), Trace::from_entries(entries))
    }

    /// A chain of dependent load misses (each load's address depends
    /// on the previous load's value).
    fn dependent_misses(n: usize) -> (Program, Trace) {
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        for i in 0..n {
            a.load(IntReg::T1, IntReg::T1, 0);
            entries.push(TraceEntry {
                pc: i as u32,
                op: TraceOp::Load(MemAccess::miss(i as u64 * 64, 50)),
            });
        }
        a.halt();
        (a.assemble().unwrap(), Trace::from_entries(entries))
    }

    fn ds(window: usize) -> Ds {
        Ds::new(DsConfig::rc().window(window))
    }

    #[test]
    fn independent_misses_overlap_under_rc() {
        let (p, t) = independent_misses(8, 2);
        let base = Base.run(&p, &t);
        let r = ds(64).run(&p, &t);
        // BASE pays 8 * 50; DS pays roughly one miss plus pipelining.
        assert!(
            r.cycles() < base.cycles() / 3,
            "DS {} vs BASE {}",
            r.cycles(),
            base.cycles()
        );
        assert!(r.breakdown.read < base.breakdown.read / 3);
    }

    #[test]
    fn dependent_misses_cannot_overlap() {
        let (p, t) = dependent_misses(6);
        let base = Base.run(&p, &t);
        let r = ds(256).run(&p, &t);
        // A dependence chain serializes no matter the window.
        assert!(
            r.cycles() + 20 > base.cycles(),
            "DS {} vs BASE {}",
            r.cycles(),
            base.cycles()
        );
        // And the issue-delay diagnostic shows the chain.
        assert!(r.stats.read_miss_delay_fraction_over(40) > 0.5);
    }

    #[test]
    fn sc_serializes_even_with_a_big_window() {
        let (p, t) = independent_misses(8, 2);
        let sc = Ds::new(DsConfig::with_model(ConsistencyModel::Sc).window(256)).run(&p, &t);
        let rc = Ds::new(DsConfig::rc().window(256)).run(&p, &t);
        assert!(
            sc.cycles() > rc.cycles() * 3,
            "SC {} vs RC {}",
            sc.cycles(),
            rc.cycles()
        );
    }

    #[test]
    fn bigger_windows_hide_more_read_latency() {
        // Misses 20 instructions apart: window 16 cannot reach the
        // next miss, window 64 can overlap several.
        let (p, t) = independent_misses(12, 19);
        let r16 = ds(16).run(&p, &t);
        let r64 = ds(64).run(&p, &t);
        let r256 = ds(256).run(&p, &t);
        assert!(r64.cycles() < r16.cycles());
        assert!(r256.cycles() <= r64.cycles());
        assert!(r64.breakdown.read < r16.breakdown.read);
    }

    #[test]
    fn window_one_behaves_like_base_on_loads() {
        let (p, t) = independent_misses(4, 3);
        let base = Base.run(&p, &t);
        let r = ds(1).run(&p, &t);
        // A 1-entry window cannot overlap anything; small constant
        // pipeline differences aside, it tracks BASE.
        assert!(r.cycles() + 8 >= base.cycles());
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        // A data-dependent branch after each load: alternating
        // direction defeats the BTB, so fetch keeps stalling.
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        let mut pc = 0u32;
        for i in 0..12u32 {
            a.load(IntReg::T1, IntReg::T0, 64 * i as i64);
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Load(MemAccess::miss(64 * i as u64, 50)),
            });
            pc += 1;
            let skip = a.label();
            a.branch(BranchCond::Eq, IntReg::T1, IntReg::ZERO, skip);
            a.bind(skip).unwrap();
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Branch {
                    taken: i % 2 == 0,
                    target: pc + 1,
                },
            });
            pc += 1;
        }
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(entries);
        let real = ds(64).run(&p, &t);
        let perfect = Ds::new(DsConfig {
            perfect_branch_prediction: true,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        assert!(real.stats.mispredictions > 3);
        assert_eq!(perfect.stats.mispredictions, 0);
        assert!(
            perfect.cycles() < real.cycles(),
            "perfect {} vs real {}",
            perfect.cycles(),
            real.cycles()
        );
    }

    #[test]
    fn ignore_data_dependences_unlocks_chains() {
        let (p, t) = dependent_misses(6);
        let real = ds(64).run(&p, &t);
        let nodep = Ds::new(DsConfig {
            ignore_data_dependences: true,
            perfect_branch_prediction: true,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        assert!(
            nodep.cycles() < real.cycles() / 2,
            "nodep {} vs real {}",
            nodep.cycles(),
            real.cycles()
        );
    }

    #[test]
    fn load_forwards_from_pending_store() {
        // store miss to A, then load of A: the load forwards from the
        // store buffer instead of paying a miss.
        let mut a = Assembler::new();
        a.store(IntReg::T0, IntReg::T0, 0);
        a.load(IntReg::T1, IntReg::T0, 0);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(vec![
            TraceEntry {
                pc: 0,
                op: TraceOp::Store(MemAccess::miss(0, 50)),
            },
            TraceEntry {
                pc: 1,
                op: TraceOp::Load(MemAccess::miss(0, 50)),
            },
        ]);
        let r = ds(16).run(&p, &t);
        // Without forwarding this would be >= 100 cycles serial.
        assert!(r.cycles() < 70, "forwarding failed: {} cycles", r.cycles());
    }

    #[test]
    fn store_buffer_capacity_backpressures() {
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        for i in 0..12u32 {
            a.store(IntReg::T0, IntReg::T0, 64 * i as i64);
            entries.push(TraceEntry {
                pc: i,
                op: TraceOp::Store(MemAccess::miss(64 * i as u64, 50)),
            });
        }
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(entries);
        let deep = ds(16).run(&p, &t);
        let shallow = Ds::new(DsConfig {
            store_buffer_depth: 1,
            ..DsConfig::rc().window(16)
        })
        .run(&p, &t);
        assert!(
            shallow.cycles() > deep.cycles() + 100,
            "shallow {} vs deep {}",
            shallow.cycles(),
            deep.cycles()
        );
    }

    #[test]
    fn mshr_limit_throttles_miss_overlap() {
        let (p, t) = independent_misses(8, 0);
        let unbounded = ds(64).run(&p, &t);
        let one = Ds::new(DsConfig {
            mshr_limit: Some(1),
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        assert!(one.cycles() > unbounded.cycles() * 2);
        assert!(unbounded.stats.peak_outstanding_misses >= 4);
        assert_eq!(one.stats.peak_outstanding_misses, 1);
    }

    #[test]
    fn busy_equals_instructions_single_issue() {
        let (p, t) = independent_misses(5, 7);
        for w in [16, 64, 256] {
            let r = ds(w).run(&p, &t);
            assert_eq!(r.stats.instructions, t.len() as u64, "window {w}");
            assert_eq!(
                r.breakdown.busy,
                t.len() as u64 + r.stats.fetch_stall_cycles,
                "window {w}: busy accounts instructions plus fetch gaps"
            );
        }
    }

    #[test]
    fn four_wide_issue_is_faster_but_needs_bigger_windows() {
        let (p, t) = independent_misses(10, 24);
        let one = ds(64).run(&p, &t);
        let four64 = Ds::new(DsConfig {
            issue_width: 4,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        let four128 = Ds::new(DsConfig {
            issue_width: 4,
            ..DsConfig::rc().window(128)
        })
        .run(&p, &t);
        assert!(four64.cycles() < one.cycles());
        assert!(four128.cycles() <= four64.cycles());
    }

    #[test]
    fn nonbinding_prefetch_boosts_sc() {
        let (p, t) = independent_misses(8, 2);
        let sc = Ds::new(DsConfig::with_model(ConsistencyModel::Sc).window(64));
        let plain = sc.run(&p, &t);
        let boosted = Ds::new(DsConfig {
            nonbinding_prefetch: true,
            ..sc.config()
        })
        .run(&p, &t);
        let rc = ds(64).run(&p, &t);
        assert!(
            boosted.cycles() < plain.cycles(),
            "prefetch {} !< plain SC {}",
            boosted.cycles(),
            plain.cycles()
        );
        // Prefetch brings SC to within a whisker of RC — exactly the
        // claim of [8] — but cannot be dramatically better.
        assert!(
            boosted.cycles() * 10 >= rc.cycles() * 9,
            "boosted SC {} implausibly beats RC {}",
            boosted.cycles(),
            rc.cycles()
        );
    }

    #[test]
    fn speculative_loads_bring_sc_near_rc() {
        let (p, t) = independent_misses(8, 2);
        let spec = Ds::new(DsConfig {
            speculative_loads: true,
            ..DsConfig::with_model(ConsistencyModel::Sc).window(64)
        })
        .run(&p, &t);
        let rc = ds(64).run(&p, &t);
        // Loads dominate this trace, so speculative SC is close to RC.
        assert!(
            spec.cycles() as f64 <= rc.cycles() as f64 * 1.15,
            "speculative SC {} far from RC {}",
            spec.cycles(),
            rc.cycles()
        );
    }

    #[test]
    fn boosting_does_not_change_rc() {
        // Under RC loads are already unconstrained; the techniques are
        // no-ops (within a cycle of noise).
        let (p, t) = independent_misses(6, 3);
        let plain = ds(64).run(&p, &t).cycles();
        let boosted = Ds::new(DsConfig {
            nonbinding_prefetch: true,
            speculative_loads: true,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t)
        .cycles();
        assert!(boosted.abs_diff(plain) <= 2, "{boosted} vs {plain}");
    }

    /// `iterations` copies of a miss-heavy loop body: an independent
    /// load miss, a store miss and two compute instructions, closed by
    /// a taken branch. Under RC the loads keep retiring past the
    /// stores still draining from the buffer.
    fn miss_heavy_loop(iterations: usize) -> (Program, Trace) {
        let mut a = Assembler::new();
        let top = a.label();
        a.bind(top).unwrap();
        a.load(IntReg::T1, IntReg::T0, 0);
        a.store(IntReg::T2, IntReg::T0, 8);
        a.addi(IntReg::T3, IntReg::T3, 1);
        a.addi(IntReg::T4, IntReg::T4, 1);
        a.branch(BranchCond::Ne, IntReg::T3, IntReg::ZERO, top);
        a.halt();
        let mut entries = Vec::with_capacity(iterations * 5);
        for i in 0..iterations as u64 {
            let line = (i % 4096) * 64;
            entries.push(TraceEntry {
                pc: 0,
                op: TraceOp::Load(MemAccess::miss(line, 50)),
            });
            entries.push(TraceEntry {
                pc: 1,
                op: TraceOp::Store(MemAccess::miss(line + (1 << 20), 100)),
            });
            entries.push(TraceEntry::compute(2));
            entries.push(TraceEntry::compute(3));
            entries.push(TraceEntry {
                pc: 4,
                op: TraceOp::Branch {
                    taken: true,
                    target: 0,
                },
            });
        }
        (a.assemble().unwrap(), Trace::from_entries(entries))
    }

    /// Runs `trace` streamed, as `run_source` does, and returns the
    /// memop ring's final (hence peak: it never shrinks) capacity.
    fn streamed_ring_capacity(cfg: DsConfig, program: &Program, trace: &Trace) -> usize {
        let source = lookahead_trace::SliceSource::new(trace);
        let cursor = TraceCursor::stream(Box::new(source));
        let mut engine = Engine::with_cursor(cfg, program, cursor, true);
        engine.simulate().expect("slice source cannot fail");
        assert_eq!(engine.result.stats.instructions, trace.len() as u64);
        engine.memops.len()
    }

    #[test]
    fn memop_ring_is_sized_by_the_window_not_the_trace() {
        let (p, short) = miss_heavy_loop(2_000);
        let (_, long) = miss_heavy_loop(40_000);
        for cfg in [DsConfig::rc().window(64), DsConfig::rc().window(256)] {
            let small = streamed_ring_capacity(cfg, &p, &short);
            let large = streamed_ring_capacity(cfg, &p, &long);
            assert_eq!(
                small, large,
                "window {}: ring capacity grew with the trace",
                cfg.window_size
            );
            assert!(small <= 4 * (cfg.window_size + cfg.store_buffer_depth));
        }
    }

    #[test]
    fn memop_ring_grows_past_a_slow_release() {
        // A release that takes 5000 cycles to perform holds the ring's
        // floor while 1000 younger load hits retire past it under RC:
        // the live span outgrows window plus store buffer, so the ring
        // must double instead of overwriting live operations.
        let mut a = Assembler::new();
        a.set_event(IntReg::G1, 0);
        let mut entries = vec![TraceEntry {
            pc: 0,
            op: TraceOp::Sync(lookahead_trace::SyncAccess {
                kind: SyncKind::SetEvent,
                addr: 0,
                wait: 5_000,
                access: 1,
            }),
        }];
        for i in 0..1_000u32 {
            a.load(IntReg::T1, IntReg::G0, 8);
            entries.push(TraceEntry {
                pc: i + 1,
                op: TraceOp::Load(MemAccess::hit(8 * i as u64 + 64)),
            });
        }
        a.halt();
        let (p, t) = (a.assemble().unwrap(), Trace::from_entries(entries));
        let cfg = DsConfig::rc().window(16);
        let capacity = streamed_ring_capacity(cfg, &p, &t);
        assert!(capacity >= 1_024, "ring stayed at {capacity}");
        assert_eq!(Ds::new(cfg).run(&p, &t), Ds::new(cfg).run_reference(&p, &t));
    }

    #[test]
    fn pending_loads_issue_in_operand_resolution_order() {
        // With one MSHR, I0's miss holds the file until 51, so I1
        // (independent) issues at 51 and holds it until 101. I2 needs
        // I1's value: its operands resolve when I1 issues, at 51. I3 is
        // independent and has been waiting since its decode. At 101
        // both I2 and I3 are eligible and only the MSHR decides; the
        // pending list holds I3 ahead of I2 (operand resolution order),
        // so the younger I3 goes first. An oldest-first pick would
        // swap their completions and move the golden reports.
        let mut a = Assembler::new();
        a.load(IntReg::T1, IntReg::G0, 0); // I0
        a.load(IntReg::T4, IntReg::G0, 0x100); // I1
        a.load(IntReg::T2, IntReg::T4, 0); // I2: depends on I1
        a.load(IntReg::T3, IntReg::G0, 0x200); // I3
        a.halt();
        let p = a.assemble().unwrap();
        let addrs = [0x000u64, 0x100, 0x300, 0x200];
        let t = Trace::from_entries(
            addrs
                .iter()
                .enumerate()
                .map(|(pc, &addr)| TraceEntry {
                    pc: pc as u32,
                    op: TraceOp::Load(MemAccess::miss(addr, 50)),
                })
                .collect(),
        );
        let cfg = DsConfig {
            mshr_limit: Some(1),
            ..DsConfig::rc().window(16)
        };
        let mut engine = Engine::new(cfg, &p, &t, true);
        engine.simulate().unwrap();
        let done: Vec<_> = (0..4).map(|id| engine.mem(id).state).collect();
        assert_eq!(
            done,
            [51, 101, 201, 151].map(MState::Issued),
            "I3 (younger) must issue before I2"
        );
        // The skip-ahead and reference steppers agree on it.
        assert_eq!(Ds::new(cfg).run(&p, &t), Ds::new(cfg).run_reference(&p, &t));
    }

    #[test]
    fn operand_rows_match_the_instruction_accessors() {
        use lookahead_isa::{AluOp, FpCmpOp, FpReg, FpuOp};
        let f = |i: usize| FpReg::new(i).unwrap();
        let program = Program::new(vec![
            Instruction::Alu {
                op: AluOp::Add,
                rd: IntReg::T1,
                rs1: IntReg::T2,
                rs2: IntReg::T2,
            },
            Instruction::AluImm {
                op: AluOp::Add,
                rd: IntReg::ZERO,
                rs1: IntReg::T3,
                imm: 4,
            },
            Instruction::LoadImm {
                rd: IntReg::T4,
                imm: 7,
            },
            Instruction::LoadImmF {
                fd: f(1),
                value: 1.5,
            },
            Instruction::Fpu {
                op: FpuOp::Mul,
                fd: f(2),
                fs1: f(3),
                fs2: f(4),
            },
            Instruction::Fpu {
                op: FpuOp::Sqrt,
                fd: f(5),
                fs1: f(6),
                fs2: f(7),
            },
            Instruction::FpCmp {
                op: FpCmpOp::Lt,
                rd: IntReg::T5,
                fs1: f(8),
                fs2: f(9),
            },
            Instruction::IntToFp {
                fd: f(10),
                rs: IntReg::T6,
            },
            Instruction::FpToInt {
                rd: IntReg::T7,
                fs: f(11),
            },
            Instruction::Load {
                rd: IntReg::ZERO,
                base: IntReg::S0,
                offset: 8,
            },
            Instruction::Store {
                rs: IntReg::S1,
                base: IntReg::S2,
                offset: 0,
            },
            Instruction::LoadF {
                fd: f(31),
                base: IntReg::S3,
                offset: 16,
            },
            Instruction::StoreF {
                fs: f(12),
                base: IntReg::S4,
                offset: 24,
            },
            Instruction::Branch {
                cond: BranchCond::Ne,
                rs1: IntReg::T8,
                rs2: IntReg::ZERO,
                target: 0,
            },
            Instruction::Jump { target: 0 },
            Instruction::JumpAndLink {
                rd: IntReg::T9,
                target: 0,
            },
            Instruction::JumpReg { rs: IntReg::T9 },
            Instruction::Sync {
                kind: SyncKind::Lock,
                base: IntReg::G0,
                offset: 0,
            },
            Instruction::Nop,
            Instruction::Halt,
        ]);
        let trace = Trace::from_entries(vec![TraceEntry::compute(0)]);
        let engine = Engine::new(DsConfig::rc(), &program, &trace, true);
        for (pc, instr) in program.instructions().iter().enumerate() {
            let row = engine.operands_at(pc as u32);
            let sources: Vec<usize> = instr
                .int_sources()
                .iter()
                .map(|r| r.index())
                .chain(instr.fp_sources().iter().map(|r| 32 + r.index()))
                .collect();
            let row_sources: Vec<usize> = row.sources().iter().map(|&s| s as usize).collect();
            assert_eq!(row_sources, sources, "sources of {instr:?}");
            let dests = [
                instr.int_dest().map(|r| r.index()),
                instr.fp_dest().map(|r| 32 + r.index()),
            ];
            assert_eq!(
                row.dests.map(|d| d.map(usize::from)),
                dests,
                "dests of {instr:?}"
            );
        }
        // Spot checks that pin the slot layout independently.
        let t2 = IntReg::T2.index() as u8;
        assert_eq!(
            engine.operands_at(0).sources(),
            [t2, t2],
            "rs1 == rs2 twice"
        );
        assert_eq!(engine.operands_at(1).dests, [None, None], "zero register");
        assert_eq!(engine.operands_at(5).sources(), [32 + 6], "unary sqrt");
        assert_eq!(engine.operands_at(6).sources(), [32 + 8, 32 + 9]);
        assert_eq!(engine.operands_at(11).dests, [None, Some(32 + 31)]);
        assert_eq!(engine.operands_at(10).dests, [None, None], "store");
        // A pc the program does not contain has no operands, like a
        // failed `program.fetch`.
        for pc in [program.len() as u32, program.len() as u32 + 1, u32::MAX] {
            assert_eq!(engine.operands_at(pc), Operands::NONE, "pc {pc}");
            assert!(program.fetch(pc as usize).is_none());
        }
    }

    #[test]
    fn names_encode_configuration() {
        assert_eq!(ds(64).name(), "DS-64/RC");
        let name = Ds::new(DsConfig {
            perfect_branch_prediction: true,
            ignore_data_dependences: true,
            issue_width: 4,
            ..DsConfig::with_model(ConsistencyModel::Sc).window(128)
        })
        .name();
        assert_eq!(name, "DS-128/SC+pbp+nodep+w4");
        let boosted = Ds::new(DsConfig {
            nonbinding_prefetch: true,
            speculative_loads: true,
            ..DsConfig::with_model(ConsistencyModel::Sc)
        })
        .name();
        assert_eq!(boosted, "DS-64/SC+pf+spec");
    }
}
