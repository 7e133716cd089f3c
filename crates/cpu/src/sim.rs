//! The cycle-by-cycle pipeline simulator.

use hbdc_core::{MemRequest, Offered, PortConfig, PortModel, SpanGrant, Violation};
use hbdc_isa::{FuClass, Program};
use hbdc_mem::{Hierarchy, HierarchyConfig};

use hbdc_stats::Histogram;

use crate::bpred::{BranchPredictor, FrontEnd};
use crate::config::CpuConfig;
use crate::dynamic::DynInst;
use crate::error::SimError;
use crate::fu::FuPools;
use crate::functional::Emulator;
use crate::lsq::{Lsq, LsqStalls, ReadyRefs};
use crate::report::SimReport;
use crate::trace::{CommittedTrace, TracePlayer};
use crate::window::Window;

/// Per-stage wall-clock accounting for regression hunts, enabled by the
/// `HBDC_STAGE_PROF` environment variable (off: a single cold branch per
/// cycle). Only one cycle in [`stageprof::SAMPLE`] is timed, so the probe
/// barely perturbs what it measures; [`stageprof::dump`] scales the
/// sampled totals back up. Totals accumulate across every simulator in
/// the process.
#[doc(hidden)]
pub mod stageprof {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::OnceLock;

    pub const NAMES: [&str; 7] = [
        "completions",
        "addr_ready",
        "issue",
        "arbitrate",
        "fetch",
        "commit",
        "port_tick",
    ];
    pub static NS: [AtomicU64; 7] = [const { AtomicU64::new(0) }; 7];
    /// Sampling period: the cycles whose number is a multiple of this
    /// are timed; the dump multiplies by it to estimate full totals.
    pub const SAMPLE: u64 = 64;

    pub fn enabled() -> bool {
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| std::env::var_os("HBDC_STAGE_PROF").is_some())
    }

    pub fn add(stage: usize, ns: u64) {
        NS[stage].fetch_add(ns, Relaxed);
    }

    /// Prints each stage's sampled time scaled by [`SAMPLE`].
    pub fn dump() {
        if enabled() {
            for (name, v) in NAMES.iter().zip(&NS) {
                let ns = v.load(Relaxed) * SAMPLE;
                eprintln!("stageprof {name} {:.3}s", ns as f64 / 1e9);
            }
        }
    }
}

// Functional-unit classes that can refuse an issue (structural hazard);
// the index is the class's bit in `Simulator::fu_blocked`. `LoadStore`
// and `None` never block and carry no bit.
/// Engage the batched (mirror-backed) arbitration round when the offered
/// backlog reaches this many multiples of the port model's peak grant
/// rate. `offered / peak` lower-bounds how many rounds each reference is
/// re-offered before draining; past this ratio the per-round savings of
/// the incremental mirror dominate its per-transition upkeep. Measured
/// break-even on the FP-stencil workloads sits near 10–15 rounds per
/// reference; entering above it keeps the mode switch strictly
/// profitable.
const BATCH_ENTER_RATIO: usize = 16;

/// Disengage the batched round when the backlog falls below this many
/// multiples of peak — half the entry ratio, so a backlog hovering at the
/// boundary does not thrash `offer_reset` rebuilds.
const BATCH_EXIT_RATIO: usize = 8;

/// Pure hysteresis step for the adaptive arbitration-mode switch
/// (DESIGN.md §14): engage the batched round when the offered backlog
/// reaches `enter`, and once engaged stay there until the backlog falls
/// below `exit`. Factored out of the per-cycle loop so the boundary
/// goldens in `tests/arb_hysteresis.rs` can pin the enter/no-exit edges
/// (`peak×BATCH_ENTER_RATIO` / `peak×BATCH_EXIT_RATIO`) directly.
#[doc(hidden)]
pub fn arb_batched_next(batched: bool, offered: usize, enter: usize, exit: usize) -> bool {
    if batched {
        offered >= exit
    } else {
        offered >= enter
    }
}

const BLOCKABLE_CLASSES: [FuClass; 6] = [
    FuClass::IntAlu,
    FuClass::IntMult,
    FuClass::IntDiv,
    FuClass::FpAdd,
    FuClass::FpMult,
    FuClass::FpDiv,
];

fn class_bit(class: FuClass) -> u8 {
    match class {
        FuClass::IntAlu => 1 << 0,
        FuClass::IntMult => 1 << 1,
        FuClass::IntDiv => 1 << 2,
        FuClass::FpAdd => 1 << 3,
        FuClass::FpMult => 1 << 4,
        FuClass::FpDiv => 1 << 5,
        FuClass::LoadStore | FuClass::None => 0,
    }
}

/// Per-cycle pipeline activity distributions, for bottleneck diagnosis.
#[derive(Debug, Clone)]
pub struct PipeStats {
    /// Instructions issued per cycle.
    pub issued: Histogram,
    /// Instructions dispatched (fetched into the window) per cycle.
    pub dispatched: Histogram,
    /// Instructions committed per cycle.
    pub committed: Histogram,
    /// Window occupancy sampled each cycle.
    pub window_occupancy: Histogram,
    /// LSQ occupancy sampled each cycle.
    pub lsq_occupancy: Histogram,
}

impl PipeStats {
    fn new(cfg: &CpuConfig) -> Self {
        Self {
            issued: Histogram::new("issued/cycle", cfg.issue_width as usize),
            dispatched: Histogram::new("dispatched/cycle", cfg.fetch_width as usize),
            committed: Histogram::new("committed/cycle", cfg.commit_width as usize),
            window_occupancy: Histogram::new("window occupancy", cfg.ruu_size),
            lsq_occupancy: Histogram::new("lsq occupancy", cfg.lsq_size),
        }
    }
}

/// Where the committed dynamic instruction stream comes from: live
/// functional execution (the classic mode) or a pre-captured
/// [`CommittedTrace`] replayed with no architectural state at all.
///
/// Both variants feed [`Simulator::fetch`] the identical stream for the
/// same program and warmup, so every downstream structure — window, LSQ,
/// port arbitration, event calendar, auditor, watchdog — behaves (and
/// reports) bit-identically in either mode.
// One `InstSource` exists per simulator (not per record), so the size
// spread between the emulator and the replay cursor costs nothing;
// boxing the emulator would instead add a pointer chase to every
// execute-mode dispatch.
#[allow(clippy::large_enum_variant)]
pub(crate) enum InstSource {
    /// Execute mode: a functional emulator advances architectural state
    /// and yields each committed instruction as it retires.
    Execute(Emulator),
    /// Replay mode: a validated trace streams the recorded committed
    /// instructions; no registers, data memory, or branch resolution.
    Replay {
        /// The parsed trace (kept for snapshot self-containment).
        trace: CommittedTrace,
        /// The streaming cursor.
        player: TracePlayer,
    },
}

impl InstSource {
    /// Yields the next committed instruction, or `None` at stream end.
    fn step(&mut self) -> Option<DynInst> {
        match self {
            InstSource::Execute(emu) => emu.step(),
            InstSource::Replay { player, .. } => player.step(),
        }
    }

    /// The PC of the next instruction the stream would deliver
    /// (diagnostics: progress dumps with an empty window).
    fn next_pc(&self) -> u32 {
        match self {
            InstSource::Execute(emu) => emu.pc(),
            InstSource::Replay { player, .. } => player.peek_pc(),
        }
    }
}

/// The dynamic superscalar timing simulator (paper Figure 1): a perfect
/// front end feeding an RUU + LSQ execution core whose data supply is
/// arbitrated by a pluggable [`PortModel`] over a two-level
/// [`Hierarchy`].
///
/// Every IPC number in the paper's Tables 3 and 4 is regenerated by
/// constructing one of these per (benchmark, port-model) pair and calling
/// [`run`](Self::run).
///
/// # Examples
///
/// ```
/// use hbdc_cpu::{CpuConfig, Simulator};
/// use hbdc_core::PortConfig;
/// use hbdc_isa::asm::assemble;
/// use hbdc_mem::HierarchyConfig;
///
/// let p = assemble("main: li r1, 1\n li r2, 2\n add r3, r1, r2\n halt\n")?;
/// let report = Simulator::new(
///     &p,
///     CpuConfig::default(),
///     HierarchyConfig::default(),
///     PortConfig::Ideal { ports: 2 },
/// )
/// .run()?;
/// assert_eq!(report.committed, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    // Fields are crate-visible so the checkpoint module (`snapshot.rs`)
    // can serialize and restore them without a forest of accessors.
    pub(crate) source: InstSource,
    pub(crate) window: Window,
    pub(crate) lsq: Lsq,
    pub(crate) fus: FuPools,
    pub(crate) port: Box<dyn PortModel>,
    pub(crate) hier: Hierarchy,
    pub(crate) cfg: CpuConfig,
    // The declarative port configuration this simulator was built from,
    // when one exists (`with_port_model` bypasses it). Checkpoints embed
    // it so `resume` can rebuild the same model.
    pub(crate) port_cfg: Option<PortConfig>,
    // The serialized program object, kept so checkpoints are
    // self-contained (the emulator only retains the decoded text).
    pub(crate) program_image: Vec<u8>,
    pub(crate) now: u64,
    pub(crate) committed: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    // Cycles the run loop fast-forwarded over without executing them
    // (provably idle spans); always <= `now`.
    pub(crate) skipped_cycles: u64,
    pub(crate) pending_fetch: Option<DynInst>,
    pub(crate) fetch_done: bool,
    pub(crate) halted: bool,
    pub(crate) last_commit_cycle: u64,
    // Per-cycle scratch buffers, allocated once and reused so the hot
    // loop performs no heap allocation in steady state.
    issue_buf: Vec<u64>,
    ready_scratch: ReadyRefs,
    forwards_buf: Vec<u64>,
    reqs_buf: Vec<MemRequest>,
    granted_buf: Vec<usize>,
    offered_buf: Vec<MemRequest>,
    // Adaptive arbitration-mode switch (derived, never serialized):
    // whether the port model keeps a real offered-set mirror, the
    // backlog thresholds at which the batched round engages/disengages,
    // and whether it is currently active. See `arbitrate_memory`.
    port_mirrors: bool,
    batch_enter: usize,
    batch_exit: usize,
    batched_port: bool,
    commit_buf: Vec<crate::window::Retired>,
    // Auditor scratch: stays empty (and allocation-free) on clean cycles.
    audit_buf: Vec<Violation>,
    // Idle-span bookkeeping, refreshed every cycle and consulted only
    // when the cycle turned out to be quiescent: which FU classes
    // refused an issue (their `next_free` horizons are wake-up events)
    // and how much the LSQ stall counters moved (replayed in bulk for
    // each skipped cycle, whose ready-list scans would be identical).
    fu_blocked: u8,
    idle_stall_delta: LsqStalls,
    // Span-drain fast-forward (derived, never serialized): whether bulk
    // multi-cycle arbitration drains are enabled (`HBDC_SPAN_DRAIN`),
    // whether the just-executed cycle was input-quiescent with a standing
    // memory backlog (the span trigger), and the reusable grant-schedule
    // buffer. See `drain_backlog_span` and DESIGN.md §15.
    span_drain: bool,
    span_trigger: bool,
    span_grants: Vec<SpanGrant>,
    // Cycles resolved through `drain_span` calls (diagnostic only — span
    // cycles are *executed* cycles, so this never feeds the report).
    span_cycles: u64,
    // Wall-clock time accumulated inside `run` (simulator throughput).
    wall: std::time::Duration,
    pub(crate) pipe: PipeStats,
    pub(crate) predictor: Option<Box<dyn BranchPredictor>>,
    redirect_penalty: u32,
    // Misprediction recovery: fetch stalls until `stall_on` resolves,
    // then resumes at `fetch_resume_at`.
    pub(crate) stall_on: Option<u64>,
    pub(crate) fetch_resume_at: u64,
    pub(crate) branches: u64,
    pub(crate) mispredicts: u64,
    /// When set, eprintln every issue as `cycle seq pc` (diagnostics).
    #[doc(hidden)]
    pub debug_issue_log: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("port", &self.port.label())
            .field("cycle", &self.now)
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a simulator for `program` with the given machine, memory,
    /// and port-model configurations.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate port configuration; use
    /// [`try_new`](Self::try_new) to get a typed error instead.
    pub fn new(
        program: &Program,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
    ) -> Self {
        let port = port_cfg.build(hier_cfg.l1_line);
        let mut sim = Self::with_port_model(program, cfg, hier_cfg, port);
        sim.port_cfg = Some(port_cfg);
        sim
    }

    /// Builds a simulator after validating both the machine and the port
    /// configuration, so degenerate inputs surface as
    /// [`SimError::Config`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] describing the first problem found.
    pub fn try_new(
        program: &Program,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
    ) -> Result<Self, SimError> {
        cfg.validate()
            .map_err(|detail| SimError::Config { detail })?;
        let port = port_cfg
            .try_build(hier_cfg.l1_line)
            .map_err(|detail| SimError::Config { detail })?;
        let mut sim = Self::with_port_model(program, cfg, hier_cfg, port);
        sim.port_cfg = Some(port_cfg);
        Ok(sim)
    }

    /// Builds a simulator around an explicit port model instance — the
    /// escape hatch for configurations [`PortConfig`] cannot express
    /// (e.g. word-interleaved bank mappers for the interleaving ablation).
    pub fn with_port_model(
        program: &Program,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port: Box<dyn PortModel>,
    ) -> Self {
        Self::build(program, cfg, hier_cfg, port, true)
    }

    /// Builds a *replay-mode* simulator: timing is driven by `trace`'s
    /// recorded committed stream instead of live functional execution.
    /// For a trace captured from the same program with the same
    /// `warmup_insts`, the resulting report is bit-identical to execute
    /// mode — the functional model simply isn't re-run.
    ///
    /// # Errors
    ///
    /// * [`SimError::Config`] — degenerate machine or port configuration
    ///   (same checks as [`try_new`](Self::try_new)).
    /// * [`SimError::Trace`] — the trace's warmup disagrees with
    ///   `cfg.warmup_insts` (the stream would start at a different
    ///   measurement point), or the capture was truncated by a cap (the
    ///   stream would starve fetch earlier than execute mode).
    pub fn try_from_trace(
        trace: &CommittedTrace,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port_cfg: PortConfig,
    ) -> Result<Self, SimError> {
        cfg.validate()
            .map_err(|detail| SimError::Config { detail })?;
        let port = port_cfg
            .try_build(hier_cfg.l1_line)
            .map_err(|detail| SimError::Config { detail })?;
        let mut sim = Self::with_port_model_from_trace(trace, cfg, hier_cfg, port)?;
        sim.port_cfg = Some(port_cfg);
        Ok(sim)
    }

    /// Replay-mode counterpart of [`with_port_model`](Self::with_port_model):
    /// a trace-driven simulator around an explicit port model instance.
    ///
    /// # Errors
    ///
    /// [`SimError::Trace`] on a warmup mismatch or an incomplete capture
    /// (see [`try_from_trace`](Self::try_from_trace)).
    pub fn with_port_model_from_trace(
        trace: &CommittedTrace,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port: Box<dyn PortModel>,
    ) -> Result<Self, SimError> {
        if trace.warmup_insts() != cfg.warmup_insts {
            return Err(SimError::Trace {
                detail: format!(
                    "trace was captured with warmup {} but the configuration asks for {}; \
                     recapture with the matching warmup",
                    trace.warmup_insts(),
                    cfg.warmup_insts
                ),
            });
        }
        if !trace.is_complete() {
            return Err(SimError::Trace {
                detail: format!(
                    "trace is incomplete ({} records, capture cap hit before halt); \
                     replaying it would starve fetch earlier than execute mode",
                    trace.records()
                ),
            });
        }
        let source = InstSource::Replay {
            player: trace.player(),
            trace: trace.clone(),
        };
        let image = hbdc_isa::object::to_bytes(trace.program());
        Ok(Self::build_from_source(source, image, cfg, hier_cfg, port))
    }

    /// The shared constructor. `warmup` selects whether the functional
    /// fast-forward runs; checkpoint restore skips it because the restored
    /// emulator state already sits past the measurement point.
    pub(crate) fn build(
        program: &Program,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port: Box<dyn PortModel>,
        warmup: bool,
    ) -> Self {
        let mut emu = Emulator::new(program);
        if warmup {
            // Fast-forward the warm-up region functionally; sequence
            // numbers restart at the measurement point so the window sees
            // a contiguous stream.
            for _ in 0..cfg.warmup_insts {
                if emu.step().is_none() {
                    break;
                }
            }
            emu.rebase_seq();
        }
        Self::build_from_source(
            InstSource::Execute(emu),
            hbdc_isa::object::to_bytes(program),
            cfg,
            hier_cfg,
            port,
        )
    }

    /// Assembles the simulator around an already-positioned instruction
    /// source (a warmed-up emulator or a trace player at record 0).
    fn build_from_source(
        source: InstSource,
        program_image: Vec<u8>,
        cfg: CpuConfig,
        hier_cfg: HierarchyConfig,
        port: Box<dyn PortModel>,
    ) -> Self {
        let hier = Hierarchy::new(hier_cfg);
        let port_mirrors = port.mirrors_offers();
        // `HBDC_ARB_MODE` pins the arbitration mode for regression hunts
        // (`naive` = slice walk only, `batched` = mirror-backed rounds
        // only); both modes produce bit-identical reports, so the pin is
        // purely a performance diagnostic. Unset means adaptive.
        let peak = port.peak_per_cycle();
        let (batch_enter, batch_exit) = match std::env::var("HBDC_ARB_MODE").ok().as_deref() {
            Some("naive") => (usize::MAX, 0),
            Some("batched") => (0, 0),
            _ => (
                peak.saturating_mul(BATCH_ENTER_RATIO),
                peak.saturating_mul(BATCH_EXIT_RATIO),
            ),
        };
        // `HBDC_SPAN_DRAIN=off` (or `0`) disables the steady-backlog span
        // fast-forward, forcing per-cycle arbitration of quiescent spans.
        // Reports are bit-identical either way (the span≡per-cycle fuzz
        // relation pins this), so the switch is purely a performance
        // diagnostic. Read per instance, like `HBDC_ARB_MODE`, so
        // harnesses can toggle it between builds in one process.
        let span_drain = !matches!(
            std::env::var("HBDC_SPAN_DRAIN").ok().as_deref(),
            Some("off") | Some("0")
        );
        // Every run starts in the slice-walking arbitration mode: no
        // offered-set mirror is live, so ready-list delta logging is
        // switched off until (and unless) the batched mode engages.
        let mut lsq = Lsq::new(cfg.lsq_size);
        lsq.set_ready_logging(false);
        Self {
            source,
            window: Window::new(cfg.ruu_size),
            lsq,
            fus: FuPools::new(&cfg),
            port,
            hier,
            cfg,
            port_cfg: None,
            program_image,
            now: 0,
            committed: 0,
            loads: 0,
            stores: 0,
            skipped_cycles: 0,
            pending_fetch: None,
            fetch_done: false,
            halted: false,
            last_commit_cycle: 0,
            issue_buf: Vec::new(),
            ready_scratch: ReadyRefs::default(),
            forwards_buf: Vec::new(),
            reqs_buf: Vec::new(),
            granted_buf: Vec::new(),
            offered_buf: Vec::new(),
            port_mirrors,
            batch_enter,
            batch_exit,
            batched_port: false,
            commit_buf: Vec::new(),
            audit_buf: Vec::new(),
            fu_blocked: 0,
            idle_stall_delta: LsqStalls::default(),
            span_drain,
            span_trigger: false,
            span_grants: Vec::new(),
            span_cycles: 0,
            wall: std::time::Duration::ZERO,
            pipe: PipeStats::new(&cfg),
            predictor: match cfg.front_end {
                FrontEnd::Perfect => None,
                FrontEnd::Predicted { kind, .. } => Some(kind.build()),
            },
            redirect_penalty: match cfg.front_end {
                FrontEnd::Perfect => 0,
                FrontEnd::Predicted {
                    redirect_penalty, ..
                } => redirect_penalty,
            },
            stall_on: None,
            fetch_resume_at: 0,
            branches: 0,
            mispredicts: 0,
            debug_issue_log: false,
        }
    }

    /// Conditional branches seen and mispredicted (0/0 under the perfect
    /// front end).
    pub fn branch_stats(&self) -> (u64, u64) {
        (self.branches, self.mispredicts)
    }

    /// Per-cycle pipeline activity distributions.
    pub fn pipe_stats(&self) -> &PipeStats {
        &self.pipe
    }

    /// The port model's arbitration statistics (grants-per-cycle
    /// histogram, model-specific counters).
    pub fn port_stats(&self) -> &hbdc_core::ArbStats {
        self.port.stats()
    }

    /// Mutable access to the emulator, for pre-initializing workload data
    /// before [`run`](Self::run). `None` in replay mode, which carries no
    /// architectural state to initialize (the trace already recorded the
    /// data-dependent stream).
    pub fn emulator_mut(&mut self) -> Option<&mut Emulator> {
        match &mut self.source {
            InstSource::Execute(emu) => Some(emu),
            InstSource::Replay { .. } => None,
        }
    }

    /// Whether this simulator replays a captured trace (as opposed to
    /// executing the program functionally).
    pub fn is_replay(&self) -> bool {
        matches!(self.source, InstSource::Replay { .. })
    }

    /// Cumulative LSQ load-stall diagnostics (per ready-list scan).
    pub fn lsq_stalls(&self) -> crate::lsq::LsqStalls {
        self.lsq.stalls()
    }

    fn issue(&mut self) -> usize {
        self.window
            .fill_ready(self.cfg.issue_width as usize, &mut self.issue_buf);
        let mut issued = 0usize;
        let mut mem_issued = 0u32;
        self.fu_blocked = 0;
        for i in 0..self.issue_buf.len() {
            let seq = self.issue_buf[i];
            let meta = self.window.meta(seq);
            if self.debug_issue_log {
                let pc = self.window.inst(seq).pc;
                eprintln!("ISSUE cyc={} seq={} pc={pc}", self.now, seq);
            }
            if meta.mem {
                if mem_issued >= self.cfg.ls_units {
                    continue; // all AGUs busy this cycle — retry next
                }
                mem_issued += 1;
                // The cache access is arbitrated separately. Loads'
                // addresses become known here; stores' addresses were
                // published when their base register became available
                // (the addr-ready event stream), so issue only marks
                // their data available.
                if meta.store {
                    self.lsq.mark_data_known(seq);
                    self.window.mark_issued(seq, Some(self.now + 1));
                } else {
                    self.lsq.mark_addr_known(seq);
                    self.window.mark_issued(seq, None);
                }
                issued += 1;
            } else {
                let class = meta.class;
                if let Some(lat) = self.fus.try_issue(class, self.now) {
                    self.window.mark_issued(seq, Some(self.now + lat.total));
                    issued += 1;
                } else {
                    // Structural hazard — stays ready, retries next cycle.
                    // Remember the class: a unit freeing up is a wake-up
                    // event for the idle-span skipper.
                    self.fu_blocked |= class_bit(class);
                }
            }
        }
        self.pipe.issued.record(issued);
        issued
    }

    fn arbitrate_memory(&mut self) -> Result<bool, SimError> {
        if self.cfg.audit {
            return self.arbitrate_memory_audited();
        }
        let frontier = self.window.oldest_not_done();
        let stalls_before = self.lsq.stalls();
        self.lsq.begin_round(frontier);
        let stalls_after = self.lsq.stalls();
        self.idle_stall_delta = LsqStalls {
            addr_unknown: stalls_after.addr_unknown - stalls_before.addr_unknown,
            prior_store_addr: stalls_after.prior_store_addr - stalls_before.prior_store_addr,
            store_overlap: stalls_after.store_overlap - stalls_before.store_overlap,
        };

        self.lsq.take_forwards(&mut self.forwards_buf);
        for k in 0..self.forwards_buf.len() {
            let seq = self.forwards_buf[k];
            self.lsq.mark_forwarded(seq);
            self.window.set_complete_at(seq, self.now + 1);
        }

        // Adaptive arbitration-mode switch (DESIGN.md §14). Models with
        // incremental offered-set mirrors (banked, LBIC) arbitrate in
        // O(grants + newly-ready) per round instead of O(offered), but
        // pay a fixed upkeep per offered-set transition — which only
        // repays itself when the standing backlog is re-offered for many
        // rounds before draining. `offered / peak` is a lower bound on
        // that round count, so the batched mode engages when the ratio
        // crosses BATCH_ENTER_RATIO (seeding the mirror once via
        // `offer_reset`) and disengages — reverting to the classic
        // slice-walking round, with delta logging off — when it falls
        // below the half-rate BATCH_EXIT_RATIO hysteresis floor. Both
        // rounds compute identical grants and statistics (the
        // batched≡naive property tests pin this), so the switch is
        // invisible in every report. Mirror-free models (ideal,
        // replicated) skip the switch: their offered entry point reads
        // the view in place at no upkeep, so it is never worse.
        let offered = self.lsq.ready_view().len();
        if self.port_mirrors {
            let next = arb_batched_next(
                self.batched_port,
                offered,
                self.batch_enter,
                self.batch_exit,
            );
            if self.batched_port && !next {
                self.batched_port = false;
                self.lsq.set_ready_logging(false);
            } else if !self.batched_port && next {
                self.batched_port = true;
                self.lsq.set_ready_logging(true);
                self.port.offer_reset(self.lsq.ready_view());
            }
        }
        // Grants are copied out (they are serviced below, which mutates
        // the ready list the view borrows). An empty round is still
        // presented so store queues can drain.
        if self.batched_port {
            for (req, inserted) in self.lsq.drain_ready_deltas() {
                if inserted {
                    self.port.offer_insert(req);
                } else {
                    self.port.offer_remove(req);
                }
            }
            self.port
                .arbitrate_offered(self.lsq.ready_view(), &mut self.reqs_buf);
        } else if self.port_mirrors {
            // Slice-walking round: materialize the view (the naive entry
            // point wants contiguous requests) — bounded by the entry
            // threshold, so the copy stays small by construction.
            self.offered_buf.clear();
            let view = self.lsq.ready_view();
            for k in 0..view.len() {
                self.offered_buf.push(view.get(k));
            }
            self.port
                .arbitrate_into(&self.offered_buf, &mut self.granted_buf);
            self.reqs_buf.clear();
            for &g in &self.granted_buf {
                self.reqs_buf.push(self.offered_buf[g]);
            }
        } else {
            self.port
                .arbitrate_offered(self.lsq.ready_view(), &mut self.reqs_buf);
        }
        for k in 0..self.reqs_buf.len() {
            let c = self.reqs_buf[k];
            let outcome = self.hier.access(c.addr, c.is_store, self.now);
            if outcome.rejected {
                continue; // MSHRs full: retry next cycle
            }
            self.lsq.mark_issued(c.id);
            if c.is_store {
                self.window.mark_access_done(c.id);
            } else {
                self.window.set_complete_at(c.id, outcome.ready_at);
            }
        }
        // Any forwarded load or offered reference is machine activity —
        // even an offered-but-refused round mutates arbitration stats.
        Ok(!self.forwards_buf.is_empty() || offered > 0)
    }

    /// Audit-mode arbitration round: identical semantics to
    /// [`arbitrate_memory`](Self::arbitrate_memory) but materializes the
    /// [`ReadyRefs`] sets so the LSQ auditor can cross-check them (the
    /// replay golden suite runs both paths against each other).
    fn arbitrate_memory_audited(&mut self) -> Result<bool, SimError> {
        let frontier = self.window.oldest_not_done();
        let stalls_before = self.lsq.stalls();
        self.lsq
            .collect_ready_into(frontier, &mut self.ready_scratch);
        let stalls_after = self.lsq.stalls();
        self.idle_stall_delta = LsqStalls {
            addr_unknown: stalls_after.addr_unknown - stalls_before.addr_unknown,
            prior_store_addr: stalls_after.prior_store_addr - stalls_before.prior_store_addr,
            store_overlap: stalls_after.store_overlap - stalls_before.store_overlap,
        };

        for k in 0..self.ready_scratch.forwards.len() {
            let seq = self.ready_scratch.forwards[k];
            self.lsq.mark_forwarded(seq);
            self.window.set_complete_at(seq, self.now + 1);
        }

        // The audited round always arbitrates from the materialized
        // slice (the auditor needs indices into it), so the offered-set
        // mirror is never consulted here: delta logging stays off (its
        // construction-time default) and no mirror upkeep is paid.
        self.reqs_buf.clear();
        for c in &self.ready_scratch.cache {
            self.reqs_buf.push(MemRequest {
                id: c.seq,
                addr: c.addr,
                is_store: c.is_store,
            });
        }
        // An empty round is still presented so store queues can drain.
        self.port
            .arbitrate_into(&self.reqs_buf, &mut self.granted_buf);
        // Audit *before* acting on the grants, so an illegal round is
        // reported instead of corrupting window/LSQ/hierarchy state.
        self.audit_buf.clear();
        self.port
            .audit_round(&self.reqs_buf, &self.granted_buf, &mut self.audit_buf);
        self.lsq
            .audit_round(frontier, &self.ready_scratch, &mut self.audit_buf);
        if !self.audit_buf.is_empty() {
            return Err(SimError::Invariant {
                cycle: self.now,
                violations: std::mem::take(&mut self.audit_buf),
            });
        }
        for k in 0..self.granted_buf.len() {
            let c = self.ready_scratch.cache[self.granted_buf[k]];
            let outcome = self.hier.access(c.addr, c.is_store, self.now);
            if outcome.rejected {
                continue; // MSHRs full: retry next cycle
            }
            self.lsq.mark_issued(c.seq);
            if c.is_store {
                self.window.mark_access_done(c.seq);
            } else {
                self.window.set_complete_at(c.seq, outcome.ready_at);
            }
        }
        Ok(!self.ready_scratch.forwards.is_empty() || !self.reqs_buf.is_empty())
    }

    fn fetch(&mut self) -> Result<bool, SimError> {
        // Misprediction recovery: wait for the branch to resolve, then
        // for the redirect penalty to elapse.
        if let Some(seq) = self.stall_on {
            if !self.window.resolved(seq) {
                self.pipe.dispatched.record(0);
                return Ok(false);
            }
            // Clearing the stall is a state change even though nothing
            // dispatches until the redirect penalty elapses.
            self.stall_on = None;
            self.fetch_resume_at = self.now + 1 + self.redirect_penalty as u64;
            self.pipe.dispatched.record(0);
            return Ok(true);
        }
        if self.now < self.fetch_resume_at {
            self.pipe.dispatched.record(0);
            return Ok(false);
        }
        let mut active = false;
        let mut dispatched = 0usize;
        for _ in 0..self.cfg.fetch_width {
            if !self.window.has_space() {
                break;
            }
            let di = match self.pending_fetch.take() {
                Some(di) => di,
                None => match self.source.step() {
                    Some(di) => {
                        // The stream advanced even if this instruction
                        // ends up parked in `pending_fetch` below.
                        active = true;
                        di
                    }
                    None => {
                        if !self.fetch_done {
                            active = true; // first observation of stream end
                        }
                        self.fetch_done = true;
                        break;
                    }
                },
            };
            if di.inst.is_mem() && !self.lsq.has_space() {
                self.pending_fetch = Some(di);
                break;
            }
            // Resolve the access width *before* touching pipeline state so
            // a malformed instruction fails the run cleanly instead of
            // leaving a window entry with no LSQ twin.
            let mem_width = if di.inst.is_mem() {
                match di.inst.mem_width() {
                    Some(w) => Some(w.bytes()),
                    None => {
                        return Err(SimError::Malformed {
                            cycle: self.now,
                            seq: di.seq,
                            pc: di.pc.into(),
                            detail: format!(
                                "memory instruction {:?} carries no access width",
                                di.inst
                            ),
                        })
                    }
                }
            } else {
                None
            };
            self.window.dispatch(di);
            dispatched += 1;
            if let Some(width) = mem_width {
                self.lsq
                    .dispatch(di.seq, di.mem_addr(), width, di.inst.is_store());
            }
            if let (Some(pred), Some(actual)) = (self.predictor.as_mut(), di.taken) {
                self.branches += 1;
                let guess = pred.predict(di.pc);
                pred.train(di.pc, actual);
                if guess != actual {
                    // Fetch runs down the wrong path until this branch
                    // resolves; with a functional-first oracle stream we
                    // model that as fetch starvation.
                    self.mispredicts += 1;
                    self.stall_on = Some(di.seq);
                    break;
                }
            }
        }
        self.pipe.dispatched.record(dispatched);
        Ok(active || dispatched > 0)
    }

    fn commit(&mut self) -> usize {
        let remaining = self.cfg.max_insts.saturating_sub(self.committed);
        let width = (self.cfg.commit_width as u64).min(remaining) as u32;
        self.window.commit_compact_into(width, &mut self.commit_buf);
        self.pipe.committed.record(self.commit_buf.len());
        if !self.commit_buf.is_empty() {
            self.last_commit_cycle = self.now;
        }
        for k in 0..self.commit_buf.len() {
            let ret = self.commit_buf[k];
            if ret.meta.mem {
                self.lsq.retire(ret.seq);
                if ret.meta.store {
                    self.stores += 1;
                } else {
                    self.loads += 1;
                }
            }
            self.committed += 1;
            if ret.meta.halt || self.committed >= self.cfg.max_insts {
                self.halted = true;
            }
        }
        self.commit_buf.len()
    }

    fn done(&self) -> bool {
        self.halted || (self.fetch_done && self.window.is_empty() && self.pending_fetch.is_none())
    }

    /// Executes one machine cycle. Returns whether the machine did any
    /// work: `Ok(false)` means the cycle was quiescent — no completions,
    /// issues, memory references, dispatches, or commits — so every
    /// mutation it performed (per-cycle statistics, the port's empty
    /// tick) would repeat identically next cycle. That is the
    /// load-bearing guarantee behind [`skip_idle_span`](Self::skip_idle_span).
    fn cycle(&mut self) -> Result<bool, SimError> {
        if self.now.is_multiple_of(stageprof::SAMPLE) && stageprof::enabled() {
            return self.cycle_profiled();
        }
        self.pipe.window_occupancy.record(self.window.len());
        self.pipe.lsq_occupancy.record(self.lsq.len());
        let completed = self.window.advance_completions(self.now);
        let mut addr_events = 0usize;
        for seq in self.window.drain_addr_ready() {
            self.lsq.mark_addr_known(seq);
            addr_events += 1;
        }
        let issued = self.issue();
        let mem_active = self.arbitrate_memory()?;
        let fetch_active = self.fetch()?;
        let commits = self.commit();
        self.port.tick();
        self.now += 1;
        // Input-quiescent with a standing backlog: nothing *new* fed the
        // memory stage (no completions, address events, issues,
        // dispatches, or forwards). Commits are allowed — in a steady
        // backlog drain the head store retires the cycle its access
        // lands — because the next cycles' grants, and the commits they
        // feed, are then a pure function of the backlog and the port
        // model's state: a span-drain candidate. `drain_backlog_span`
        // vets every state commits could wake before engaging.
        self.span_trigger = mem_active
            && completed == 0
            && addr_events == 0
            && issued == 0
            && !fetch_active
            && self.forwards_buf.is_empty();
        Ok(completed > 0
            || addr_events > 0
            || issued > 0
            || mem_active
            || fetch_active
            || commits > 0)
    }

    /// [`cycle`](Self::cycle) with per-stage wall-clock accounting —
    /// identical work, plus one `Instant` read per stage, taken on the
    /// sampled cycles when `HBDC_STAGE_PROF` is set.
    fn cycle_profiled(&mut self) -> Result<bool, SimError> {
        self.pipe.window_occupancy.record(self.window.len());
        self.pipe.lsq_occupancy.record(self.lsq.len());
        let mut t = std::time::Instant::now();
        let mut lap = |stage: usize| {
            let now = std::time::Instant::now();
            stageprof::add(stage, (now - t).as_nanos() as u64);
            t = now;
        };
        let completed = self.window.advance_completions(self.now);
        lap(0);
        let mut addr_events = 0usize;
        for seq in self.window.drain_addr_ready() {
            self.lsq.mark_addr_known(seq);
            addr_events += 1;
        }
        lap(1);
        let issued = self.issue();
        lap(2);
        let mem_active = self.arbitrate_memory()?;
        lap(3);
        let fetch_active = self.fetch()?;
        lap(4);
        let commits = self.commit();
        lap(5);
        self.port.tick();
        lap(6);
        self.now += 1;
        self.span_trigger = mem_active
            && completed == 0
            && addr_events == 0
            && issued == 0
            && !fetch_active
            && self.forwards_buf.is_empty();
        Ok(completed > 0
            || addr_events > 0
            || issued > 0
            || mem_active
            || fetch_active
            || commits > 0)
    }

    /// Executes one cycle (exposed for diagnostics and incremental
    /// drivers); most callers use [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Returns the same failures [`run`](Self::run) can, except the
    /// watchdog and cycle-limit checks, which only the run loop applies.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        self.cycle().map(|_| ())
    }

    /// Whether the run is finished.
    pub fn is_done(&self) -> bool {
        self.done()
    }

    /// Diagnostic snapshot: (cycle, ready-set size, window length,
    /// completion frontier sequence, committed).
    #[doc(hidden)]
    pub fn snapshot(&self) -> (u64, usize, usize, u64, u64) {
        (
            self.now,
            self.window.ready_count(),
            self.window.len(),
            self.window.oldest_not_done(),
            self.committed,
        )
    }

    /// Window state census: (waiting, ready, issued, done).
    #[doc(hidden)]
    pub fn census(&self) -> (usize, usize, usize, usize) {
        self.window.state_census()
    }

    /// Runs to completion and returns the report.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — the forward-progress watchdog fired: no
    ///   instruction committed for
    ///   [`watchdog_cycles`](CpuConfig::watchdog_cycles) consecutive
    ///   cycles. The error carries a diagnostic dump of the window
    ///   census, LSQ occupancy, and port-model state. Always a model bug,
    ///   never a property of the workload.
    /// * [`SimError::CycleLimit`] — the run exceeded
    ///   [`max_cycles`](CpuConfig::max_cycles) without finishing.
    /// * [`SimError::Invariant`] — with [`audit`](CpuConfig::audit) on,
    ///   an arbitration round broke a structural legality rule.
    /// * [`SimError::Malformed`] — the instruction stream handed fetch an
    ///   instruction it cannot dispatch.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.run_for(u64::MAX).map(|_| self.report())
    }

    /// Runs for at most `budget` further cycles.
    ///
    /// Returns `Ok(true)` when the workload finished within the budget and
    /// `Ok(false)` when the budget was exhausted first — the simulator is
    /// then paused at a cycle boundary, safe to checkpoint with
    /// [`save_snapshot`](Self::save_snapshot) or to continue with another
    /// `run_for` call. The watchdog and cycle-limit checks apply across
    /// calls exactly as they do within a single [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// The same failures as [`run`](Self::run).
    pub fn run_for(&mut self, budget: u64) -> Result<bool, SimError> {
        let start = std::time::Instant::now();
        let result = self.run_for_inner(budget);
        self.wall += start.elapsed();
        result
    }

    fn run_for_inner(&mut self, budget: u64) -> Result<bool, SimError> {
        // Skipping is disabled under audit (the auditor observes every
        // round, so audited runs tick — and double as an equivalence
        // check against skipped runs) and under the issue log (whose
        // per-cycle output would otherwise lose the repeated lines).
        let skip = self.cfg.cycle_skip && !self.cfg.audit && !self.debug_issue_log;
        let mut steps = 0u64;
        while !self.done() {
            if steps >= budget {
                return Ok(false);
            }
            if self.now >= self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    max_cycles: self.cfg.max_cycles,
                    committed: self.committed,
                    dump: self.progress_dump(),
                });
            }
            let active = self.cycle()?;
            steps += 1;
            let stalled_for = self.now.saturating_sub(self.last_commit_cycle);
            if stalled_for >= self.cfg.watchdog_cycles {
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    committed: self.committed,
                    stalled_for,
                    dump: self.progress_dump(),
                });
            }
            if skip && !active && !self.done() {
                self.skip_idle_span(budget - steps, &mut steps)?;
            } else if skip && self.span_drain && self.span_trigger && !self.done() {
                // The cycle was active, but only in the memory stage and
                // with no new input: fast-forward the backlog drain.
                self.drain_backlog_span(budget - steps, &mut steps)?;
            }
        }
        Ok(true)
    }

    /// Fast-forwards over a provably idle span after a quiescent cycle.
    ///
    /// The machine state (everything except statistics and `now`) is
    /// frozen: re-running the quiescent cycle at any intermediate time
    /// would repeat it bit for bit. So this jumps `now` to the earliest
    /// cycle at which *anything* can happen — the next window
    /// completion, the fetch-redirect resume point, a blocked functional
    /// unit freeing up, the port model's own next event, or an
    /// outstanding cache fill — and replays the per-cycle bookkeeping of
    /// the skipped cycles in bulk. The jump is capped at the watchdog
    /// deadline, the cycle limit, and the remaining `run_for` budget, so
    /// a skipping run errors, pauses, and checkpoints at exactly the
    /// same cycles as a ticking run.
    fn skip_idle_span(&mut self, budget_left: u64, steps: &mut u64) -> Result<(), SimError> {
        // With no wake-up event at all the machine is wedged; run
        // straight to the watchdog deadline, as a ticking loop would.
        let mut target = u64::MAX;
        if let Some(at) = self.window.next_completion_at() {
            target = target.min(at);
        }
        // Fetch wakes by itself at `fetch_resume_at` (redirect penalty
        // elapsing). `>=` matters: after a quiescent final penalty cycle
        // the resume point equals `now`, and fetch acts *this* cycle.
        // Once the resume point is in the past an idle fetch must be
        // blocked on window/LSQ space, which only completions free.
        if self.stall_on.is_none() && !self.fetch_done && self.fetch_resume_at >= self.now {
            target = target.min(self.fetch_resume_at);
        }
        for (i, class) in BLOCKABLE_CLASSES.iter().enumerate() {
            if self.fu_blocked & (1 << i) != 0 {
                target = target.min(self.fus.next_free(*class));
            }
        }
        // A port event due *now* means the model has internal work on
        // otherwise-idle cycles (LBIC store-queue drains). Without span
        // drains that blocks the skip entirely — every drain cycle is
        // executed one by one; with them, the port resolves the whole
        // drain stretch in one empty-view `drain_span` call below.
        let mut port_busy = false;
        if let Some(at) = self.port.next_event(self.now) {
            if at <= self.now && self.span_drain {
                port_busy = true;
            } else {
                target = target.min(at);
            }
        }
        if let Some(at) = self.hier.next_event(self.now) {
            target = target.min(at);
        }
        target = target
            .min(
                self.last_commit_cycle
                    .saturating_add(self.cfg.watchdog_cycles),
            )
            .min(self.cfg.max_cycles)
            .min(self.now.saturating_add(budget_left));
        if target <= self.now {
            return Ok(()); // event due immediately (or no headroom)
        }
        if port_busy {
            // Idle pipeline, busy port: the offered set is empty (the
            // cycle was inactive), so the span is pure internal port
            // evolution. These cycles do real work — they are drained,
            // not skipped, exactly as the ticking loop would execute
            // them — so `skipped_cycles` stays untouched and the port
            // accounts its own ticks inside `drain_span`.
            let n = target - self.now;
            let mut grants = std::mem::take(&mut self.span_grants);
            grants.clear();
            let k = self
                .port
                .drain_span(Offered::new(&[], &[], &[]), n, &mut grants);
            debug_assert!(grants.is_empty(), "grants from an empty offered view");
            self.span_grants = grants;
            if k == 0 {
                return Ok(()); // model declined: per-cycle fallback
            }
            self.pipe.window_occupancy.record_n(self.window.len(), k);
            self.pipe.lsq_occupancy.record_n(self.lsq.len(), k);
            self.pipe.issued.record_n(0, k);
            self.pipe.dispatched.record_n(0, k);
            self.pipe.committed.record_n(0, k);
            self.lsq.add_stalls_n(self.idle_stall_delta, k);
            self.now += k;
            self.span_cycles += k;
            *steps += k;
            let stalled_for = self.now.saturating_sub(self.last_commit_cycle);
            if stalled_for >= self.cfg.watchdog_cycles {
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    committed: self.committed,
                    stalled_for,
                    dump: self.progress_dump(),
                });
            }
            return Ok(());
        }
        let k = target - self.now;
        // Replay k quiescent cycles' worth of bookkeeping in bulk.
        self.pipe.window_occupancy.record_n(self.window.len(), k);
        self.pipe.lsq_occupancy.record_n(self.lsq.len(), k);
        self.pipe.issued.record_n(0, k);
        self.pipe.dispatched.record_n(0, k);
        self.pipe.committed.record_n(0, k);
        self.lsq.add_stalls_n(self.idle_stall_delta, k);
        self.port.skip_idle(k);
        self.now = target;
        self.skipped_cycles += k;
        *steps += k;
        // The ticking loop checks the watchdog after every cycle; a jump
        // that lands on the deadline must fail identically.
        let stalled_for = self.now.saturating_sub(self.last_commit_cycle);
        if stalled_for >= self.cfg.watchdog_cycles {
            return Err(SimError::Deadlock {
                cycle: self.now,
                committed: self.committed,
                stalled_for,
                dump: self.progress_dump(),
            });
        }
        Ok(())
    }

    /// Fast-forwards a steady-backlog span: bulk multi-cycle arbitration
    /// drains (DESIGN.md §15).
    ///
    /// Called after an input-quiescent cycle whose only activity was the
    /// memory stage (and the in-order commits it feeds). While nothing
    /// *new* reaches that stage — no window completion, address event,
    /// issue, dispatch, or forward — the grant sequence
    /// banked/LBIC/ideal/replicated arbitration will produce is a pure
    /// function of the standing backlog and the port model's internal
    /// state, and the commits are a pure function of that grant
    /// schedule (stores retire in order as their accesses land). So
    /// instead of re-running the full cycle loop once per cycle, this
    /// asks the port model for the whole multi-cycle grant schedule in
    /// one [`PortModel::drain_span`] call and replays the effects: one
    /// cheap pass per cycle applying that cycle's grants (hierarchy
    /// access, LSQ issue marking, store access-done) and running the
    /// real commit stage, with the skipped stages' statistics recorded
    /// in bulk. The issue scan, arbitration rounds, and fetch stage —
    /// the expensive per-cycle work — run zero times. Reports,
    /// checkpoints, and error cycles are bit-identical to per-cycle
    /// execution (`HBDC_SPAN_DRAIN=off`); the span≡per-cycle fuzz
    /// relation and the mid-span snapshot goldens pin this.
    ///
    /// Declines (leaving the per-cycle loop to proceed) unless every
    /// side effect of the span is provably input-quiescent:
    ///
    /// * the backlog is all stores — a granted load schedules a window
    ///   completion mid-span;
    /// * the window has a completion frontier barrier whose Done prefix
    ///   (the only entries in-span commits can consume) contains no
    ///   `halt`, and committing all of it stays under `max_insts` —
    ///   otherwise the machine could finish mid-span while the port
    ///   model keeps ticking;
    /// * fetch cannot restart: the program is fully fetched with no
    ///   instruction parked awaiting window space (in-span commits free
    ///   space), or fetch is stalled on an unresolved branch (which
    ///   only a completion — the span horizon — resolves);
    /// * no load is parked on a state a store retirement changes
    ///   (dep-waiters, pending forwards);
    /// * the MSHR file has headroom for every backlog entry — a
    ///   rejected access re-offers and diverges from the schedule.
    fn drain_backlog_span(&mut self, budget_left: u64, steps: &mut u64) -> Result<(), SimError> {
        {
            let view = self.lsq.ready_view();
            if view.is_empty() || !view.stores().iter().all(|&s| s) {
                return Ok(());
            }
            let Some((prefix_len, prefix_has_halt)) = self.window.span_commit_prefix() else {
                return Ok(());
            };
            if prefix_has_halt
                || self.committed.saturating_add(prefix_len as u64) >= self.cfg.max_insts
            {
                return Ok(());
            }
            let fetch_quiet =
                (self.fetch_done && self.pending_fetch.is_none()) || self.stall_on.is_some();
            if !fetch_quiet || self.lsq.span_wake_hazards() {
                return Ok(());
            }
            let free = self
                .hier
                .config()
                .mshr_entries
                .saturating_sub(self.hier.outstanding_misses(self.now));
            if free < view.len() {
                return Ok(());
            }
        }
        // The horizon: the earliest cycle at which new input can reach
        // the memory stage — the next window completion (which wakes
        // dependents, resolves branch stalls, and moves the frontier)
        // or a blocked functional unit freeing up. The port's own next
        // event is deliberately absent (the span *is* the port's work),
        // as is the hierarchy's (MSHR fills only matter to loads, which
        // completions already bound). The watchdog deadline uses the
        // span-start commit time, which is conservative: in-span
        // commits only push the true deadline later.
        let mut target = u64::MAX;
        if let Some(at) = self.window.next_completion_at() {
            target = target.min(at);
        }
        for (i, class) in BLOCKABLE_CLASSES.iter().enumerate() {
            if self.fu_blocked & (1 << i) != 0 {
                target = target.min(self.fus.next_free(*class));
            }
        }
        target = target
            .min(
                self.last_commit_cycle
                    .saturating_add(self.cfg.watchdog_cycles),
            )
            .min(self.cfg.max_cycles)
            .min(self.now.saturating_add(budget_left));
        if target <= self.now {
            return Ok(());
        }
        let n = target - self.now;
        let mut grants = std::mem::take(&mut self.span_grants);
        grants.clear();
        let k = self.port.drain_span(self.lsq.ready_view(), n, &mut grants);
        debug_assert!(k <= n, "span drain overran its horizon");
        if k == 0 {
            // The model declined (no span support): per-cycle execution
            // simply continues from here.
            self.span_grants = grants;
            return Ok(());
        }
        // Replay the k cycles: occupancies at cycle top, this cycle's
        // grants serviced exactly as the per-cycle loop's grant pass
        // would (hierarchy access at the scheduled cycle, LSQ issue
        // marking, store access-done), then the real commit stage — the
        // head store retires the cycle its access lands, exactly as it
        // does per-cycle. Completions, address events, issues, fetch,
        // and forwards are all provably absent (preconditions above),
        // so their stages are skipped and their statistics recorded in
        // bulk below. Grants arrive in ascending offset order.
        let grants = {
            let mut gi = 0usize;
            for c in 0..k {
                self.pipe.window_occupancy.record(self.window.len());
                self.pipe.lsq_occupancy.record(self.lsq.len());
                while gi < grants.len() && grants[gi].offset == c {
                    let g = grants[gi];
                    gi += 1;
                    let outcome = self.hier.access(g.req.addr, g.req.is_store, self.now);
                    debug_assert!(
                        !outcome.rejected,
                        "span grant rejected despite the MSHR headroom precondition"
                    );
                    if outcome.rejected {
                        continue;
                    }
                    self.lsq.mark_issued(g.req.id);
                    if g.req.is_store {
                        self.window.mark_access_done(g.req.id);
                    } else {
                        self.window.set_complete_at(g.req.id, outcome.ready_at);
                    }
                }
                self.commit();
                self.now += 1;
            }
            debug_assert_eq!(gi, grants.len(), "span grants past the drained horizon");
            grants
        };
        self.span_grants = grants;
        // The skipped stages' per-cycle records: issue and dispatch
        // histograms at zero, and the ready-list stall delta (constant
        // in-span: grant marking and store retirement never touch the
        // wait-state counters while the hazard preconditions hold). The
        // port model accounted its own rounds and ticks inside
        // `drain_span`; the commit stage recorded its own histogram.
        // These cycles did real work, so they are *not* skipped cycles.
        self.pipe.issued.record_n(0, k);
        self.pipe.dispatched.record_n(0, k);
        self.lsq.add_stalls_n(self.idle_stall_delta, k);
        self.span_cycles += k;
        *steps += k;
        // A span that runs to the watchdog deadline must fail exactly as
        // the ticking loop would after that cycle.
        let stalled_for = self.now.saturating_sub(self.last_commit_cycle);
        if stalled_for >= self.cfg.watchdog_cycles {
            return Err(SimError::Deadlock {
                cycle: self.now,
                committed: self.committed,
                stalled_for,
                dump: self.progress_dump(),
            });
        }
        Ok(())
    }

    /// The current simulated cycle.
    pub fn current_cycle(&self) -> u64 {
        self.now
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Cycles the run loop fast-forwarded over without executing them
    /// (see [`cycle_skip`](CpuConfig::cycle_skip)); always at most
    /// [`current_cycle`](Self::current_cycle).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Cycles resolved through bulk span drains
    /// ([`PortModel::drain_span`]) instead of the per-cycle loop. Unlike
    /// [`skipped_cycles`](Self::skipped_cycles) these cycles *executed* —
    /// grants were serviced and statistics recorded — so the counter is a
    /// pure diagnostic: it never appears in reports or checkpoints, and
    /// resets on resume.
    pub fn span_drained_cycles(&self) -> u64 {
        self.span_cycles
    }

    /// Enables or disables the steady-backlog span fast-forward on this
    /// instance, overriding the `HBDC_SPAN_DRAIN` environment default.
    /// Both settings produce bit-identical reports; harnesses use the
    /// switch to compare the two paths without process-global env races.
    #[doc(hidden)]
    pub fn set_span_drain(&mut self, on: bool) {
        self.span_drain = on;
    }

    /// Whether the adaptive arbitration switch (DESIGN.md §14) is
    /// currently in the batched, mirror-backed mode. Both modes produce
    /// bit-identical reports; the hysteresis tests read this to pin the
    /// mode trajectory itself.
    #[doc(hidden)]
    pub fn arb_batched(&self) -> bool {
        self.batched_port
    }

    /// Overrides this instance's batched-mode enter/exit backlog
    /// thresholds, replacing both the adaptive `peak×ratio` defaults and
    /// any `HBDC_ARB_MODE` pin — per instance, so harnesses comparing
    /// forced modes avoid process-global env races. `(usize::MAX, 0)`
    /// forces the slice-walking round, `(0, 0)` forces batched.
    #[doc(hidden)]
    pub fn set_batch_thresholds(&mut self, enter: usize, exit: usize) {
        self.batch_enter = enter;
        self.batch_exit = exit;
    }

    /// The diagnostic dump attached to watchdog and cycle-limit failures:
    /// cycle/PC progress, window census, LSQ occupancy, and
    /// model-internal port state.
    fn progress_dump(&self) -> String {
        let (waiting, ready, issued, done) = self.window.state_census();
        let frontier = self.window.oldest_not_done();
        // The PC the machine is wedged on: the oldest incomplete
        // instruction, or (with an empty window) wherever fetch stands.
        let pc = self
            .window
            .get(frontier)
            .map(|di| di.pc)
            .unwrap_or_else(|| self.source.next_pc());
        let mut dump = format!(
            "  cycle {}, committed {}, pc {pc}\n  window: {}/{} (waiting {waiting}, \
             ready {ready}, issued {issued}, done {done}); completion frontier seq \
             {frontier}\n  {}",
            self.now,
            self.committed,
            self.window.len(),
            self.cfg.ruu_size,
            self.lsq.dump(),
        );
        let port = self.port.debug_state();
        if !port.is_empty() {
            dump.push_str("\n  port: ");
            dump.push_str(&port);
        }
        dump
    }

    /// The report for the cycles simulated so far.
    pub fn report(&self) -> SimReport {
        let arb = self.port.stats();
        let wall_secs = self.wall.as_secs_f64();
        SimReport {
            committed: self.committed,
            cycles: self.now,
            loads: self.loads,
            stores: self.stores,
            forwards: self.lsq.forwards(),
            l1_accesses: self.hier.l1_stats().accesses(),
            l1_misses: self.hier.l1_stats().misses(),
            l1_writebacks: self.hier.l1_stats().writebacks(),
            l2_accesses: self.hier.l2_stats().accesses(),
            l2_misses: self.hier.l2_stats().misses(),
            arb_offered: arb.offered(),
            arb_granted: arb.granted(),
            arb_rounds: arb.rounds(),
            bank_conflicts: arb.extra_counter("bank_conflicts"),
            combined: arb.extra_counter("combined"),
            store_serializations: arb.extra_counter("store_serializations"),
            port_label: self.port.label(),
            skipped_cycles: self.skipped_cycles,
            wall_secs,
            cycles_per_sec: if wall_secs > 0.0 {
                self.now as f64 / wall_secs
            } else {
                0.0
            },
            events_per_sec: if wall_secs > 0.0 {
                (self.now - self.skipped_cycles) as f64 / wall_secs
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    fn sim(src: &str, port: PortConfig) -> SimReport {
        let p = assemble(src).unwrap();
        Simulator::new(&p, CpuConfig::default(), HierarchyConfig::default(), port)
            .run()
            .unwrap()
    }

    const INDEPENDENT_ALU: &str = "main:
        li r1, 1
        li r2, 2
        li r3, 3
        li r4, 4
        li r5, 5
        li r6, 6
        li r7, 7
        li r8, 8
        halt
    ";

    #[test]
    fn independent_alu_ops_commit_fast() {
        let r = sim(INDEPENDENT_ALU, PortConfig::Ideal { ports: 1 });
        assert_eq!(r.committed, 9);
        // 64-wide machine: all independent, a handful of cycles at most.
        assert!(r.cycles < 10, "took {} cycles", r.cycles);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        let src = "main:
            li r1, 0
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            halt
        ";
        let r = sim(src, PortConfig::Ideal { ports: 1 });
        assert_eq!(r.committed, 7);
        // Five dependent adds at 1 cycle each bound the runtime below.
        assert!(r.cycles >= 5, "only {} cycles", r.cycles);
    }

    #[test]
    fn loads_and_stores_reach_the_cache() {
        let src = ".data
            v: .space 64
            .text
            main:
            la r8, v
            lw r1, 0(r8)
            sw r1, 32(r8)
            lw r2, 32(r8)
            halt
        ";
        let r = sim(src, PortConfig::Ideal { ports: 2 });
        assert_eq!(r.loads, 2);
        assert_eq!(r.stores, 1);
        // The load of 32(r8) matches the store exactly: must forward.
        assert_eq!(r.forwards, 1);
        assert_eq!(r.l1_accesses, 2); // one load + one store; forward skipped
    }

    #[test]
    fn more_ports_never_hurt() {
        let src = ".data
            a: .space 4096
            .text
            main:
            la r8, a
            li r9, 64
            loop:
            lw r1, 0(r8)
            lw r2, 32(r8)
            lw r3, 64(r8)
            lw r4, 96(r8)
            addi r8, r8, 4
            addi r9, r9, -1
            bnez r9, loop
            halt
        ";
        let one = sim(src, PortConfig::Ideal { ports: 1 });
        let four = sim(src, PortConfig::Ideal { ports: 4 });
        assert_eq!(one.committed, four.committed);
        assert!(four.cycles <= one.cycles);
        assert!(four.ipc() > one.ipc());
    }

    #[test]
    fn halt_alone_works() {
        let r = sim("main: halt\n", PortConfig::Ideal { ports: 1 });
        assert_eq!(r.committed, 1);
    }

    #[test]
    fn max_insts_caps_run() {
        let p = assemble("main: j main\n").unwrap(); // infinite loop
        let r = Simulator::new(
            &p,
            CpuConfig::with_max_insts(500),
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .run()
        .unwrap();
        assert_eq!(r.committed, 500);
    }

    #[test]
    fn report_is_stable_after_run() {
        let p = assemble("main: li r1, 1\n halt\n").unwrap();
        let mut s = Simulator::new(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        );
        let a = s.run().unwrap();
        let b = s.report();
        assert_eq!(a, b);
    }

    #[test]
    fn determinism_across_runs() {
        let src = ".data
            v: .space 512
            .text
            main:
            la r8, v
            li r9, 32
            loop:
            lw r1, 0(r8)
            addi r1, r1, 1
            sw r1, 0(r8)
            addi r8, r8, 8
            addi r9, r9, -1
            bnez r9, loop
            halt
        ";
        let a = sim(src, PortConfig::lbic(4, 2));
        let b = sim(src, PortConfig::lbic(4, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn store_heavy_replicated_slower_than_banked() {
        // A store-dominated kernel: replication serializes every store,
        // banking does not (matches the paper's compress/gcc observation).
        let src = ".data
            v: .space 8192
            .text
            main:
            la r8, v
            li r9, 200
            loop:
            sw r0, 0(r8)
            sw r0, 32(r8)
            sw r0, 64(r8)
            sw r0, 96(r8)
            addi r8, r8, 4
            addi r9, r9, -1
            bnez r9, loop
            halt
        ";
        let repl = sim(src, PortConfig::Replicated { ports: 4 });
        let bank = sim(src, PortConfig::banked(4));
        assert!(
            bank.ipc() > repl.ipc(),
            "bank {} vs repl {}",
            bank.ipc(),
            repl.ipc()
        );
        assert!(repl.store_serializations > 0);
    }
}

#[cfg(test)]
mod ls_unit_tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    #[test]
    fn fewer_ls_units_slow_memory_codes() {
        let src = ".data\nv: .space 4096\n.text\nmain:\n la r8, v\n li r15, 200\nloop:\n \
                   lw r1, 0(r8)\n lw r2, 32(r8)\n lw r3, 64(r8)\n lw r4, 96(r8)\n \
                   addi r8, r8, 8\n andi r8, r8, 2047\n la r9, v\n add r8, r9, r8\n sub r8, r8, r9\n \
                   addi r15, r15, -1\n bnez r15, loop\n halt\n";
        let p = assemble(src).unwrap();
        let run = |ls_units: u32| {
            Simulator::new(
                &p,
                CpuConfig {
                    ls_units,
                    ..CpuConfig::default()
                },
                HierarchyConfig::default(),
                PortConfig::Ideal { ports: 16 },
            )
            .run()
            .unwrap()
        };
        let narrow = run(1);
        let wide = run(16);
        assert_eq!(narrow.committed, wide.committed);
        assert!(
            narrow.cycles > wide.cycles,
            "1 L/S unit ({}) must be slower than 16 ({})",
            narrow.cycles,
            wide.cycles
        );
    }
}

#[cfg(test)]
mod front_end_tests {
    use super::*;
    use crate::bpred::PredictorKind;
    use hbdc_isa::asm::assemble;

    const LOOPY: &str = "main:
        li r9, 3000
    loop:
        addi r8, r8, 3
        andi r10, r9, 1
        bnez r10, skip
        addi r8, r8, 5
    skip:
        addi r9, r9, -1
        bnez r9, loop
        halt
    ";

    fn run(front_end: FrontEnd) -> (SimReport, u64, u64) {
        let p = assemble(LOOPY).unwrap();
        let mut sim = Simulator::new(
            &p,
            CpuConfig {
                front_end,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 2 },
        );
        let r = sim.run().unwrap();
        let (b, m) = sim.branch_stats();
        (r, b, m)
    }

    #[test]
    fn perfect_front_end_counts_nothing() {
        let (_, branches, mispredicts) = run(FrontEnd::Perfect);
        assert_eq!(branches, 0);
        assert_eq!(mispredicts, 0);
    }

    #[test]
    fn predictors_slow_the_machine_but_commit_identically() {
        let (perfect, ..) = run(FrontEnd::Perfect);
        let (predicted, branches, mispredicts) = run(FrontEnd::Predicted {
            kind: PredictorKind::Bimodal { entries: 1024 },
            redirect_penalty: 2,
        });
        assert_eq!(perfect.committed, predicted.committed);
        assert!(branches > 0);
        assert!(
            mispredicts > 0,
            "the alternating branch must mispredict sometimes"
        );
        assert!(
            predicted.cycles > perfect.cycles,
            "mispredictions must cost cycles ({} vs {})",
            predicted.cycles,
            perfect.cycles
        );
    }

    #[test]
    fn gshare_beats_bimodal_on_patterned_branches() {
        let (_, b_bi, m_bi) = run(FrontEnd::Predicted {
            kind: PredictorKind::Bimodal { entries: 1024 },
            redirect_penalty: 2,
        });
        let (_, b_gs, m_gs) = run(FrontEnd::Predicted {
            kind: PredictorKind::Gshare {
                entries: 1024,
                history_bits: 8,
            },
            redirect_penalty: 2,
        });
        assert_eq!(b_bi, b_gs);
        // The alternating pattern is periodic: history-based prediction must
        // learn it, bimodal cannot.
        assert!(
            m_gs * 2 < m_bi,
            "gshare {m_gs} should mispredict far less than bimodal {m_bi}"
        );
    }

    #[test]
    fn redirect_penalty_monotone() {
        let run_with = |penalty| {
            run(FrontEnd::Predicted {
                kind: PredictorKind::AlwaysTaken,
                redirect_penalty: penalty,
            })
            .0
            .cycles
        };
        let fast = run_with(0);
        let slow = run_with(10);
        assert!(slow > fast, "penalty 10 ({slow}) vs 0 ({fast})");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use hbdc_core::{ArbStats, FaultClass, FaultInjector};
    use hbdc_isa::asm::assemble;

    /// A port model that never grants anything: memory instructions wedge
    /// forever, which is exactly what the watchdog must catch.
    struct NoGrant {
        stats: ArbStats,
    }

    impl PortModel for NoGrant {
        fn arbitrate_into(&mut self, _ready: &[MemRequest], granted: &mut Vec<usize>) {
            granted.clear();
        }
        fn tick(&mut self) {}
        fn peak_per_cycle(&self) -> usize {
            1
        }
        fn label(&self) -> String {
            "NoGrant".into()
        }
        fn stats(&self) -> &ArbStats {
            &self.stats
        }
        fn debug_state(&self) -> String {
            "refuses every request".into()
        }
    }

    const ONE_LOAD: &str = ".data\nv: .space 8\n.text\nmain:\n la r8, v\n lw r1, 0(r8)\n halt\n";

    #[test]
    fn watchdog_catches_deadlock_with_diagnostic_dump() {
        let p = assemble(ONE_LOAD).unwrap();
        let err = Simulator::with_port_model(
            &p,
            CpuConfig {
                watchdog_cycles: 500,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            Box::new(NoGrant {
                stats: ArbStats::new(1),
            }),
        )
        .run()
        .unwrap_err();
        match err {
            SimError::Deadlock {
                stalled_for, dump, ..
            } => {
                assert!(stalled_for >= 500);
                assert!(dump.contains("window:"), "{dump}");
                assert!(dump.contains("LSQ"), "{dump}");
                assert!(dump.contains("refuses every request"), "{dump}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cycle_cap_catches_livelock() {
        // `j main` commits forever, so the watchdog never fires — only the
        // hard cycle cap can bound this run.
        let p = assemble("main: j main\n").unwrap();
        let err = Simulator::new(
            &p,
            CpuConfig {
                max_cycles: 1_000,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .run()
        .unwrap_err();
        match err {
            SimError::CycleLimit {
                max_cycles,
                committed,
                dump,
            } => {
                assert_eq!(max_cycles, 1_000);
                assert!(committed > 0, "the loop commits while it spins");
                assert!(dump.contains("cycle 1000"), "{dump}");
                assert!(dump.contains("pc "), "{dump}");
                assert!(dump.contains("window:"), "{dump}");
                assert!(dump.contains("LSQ"), "{dump}");
            }
            other => panic!("expected CycleLimit, got {other:?}"),
        }
    }

    #[test]
    fn diagnostic_dump_format_is_pinned() {
        // The dump is diagnostic UI that operators grep and scripts parse;
        // pin its structure — section order, prefixes, populated numeric
        // fields — so it cannot silently rot.
        let p = assemble(ONE_LOAD).unwrap();
        let err = Simulator::with_port_model(
            &p,
            CpuConfig {
                watchdog_cycles: 300,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            Box::new(NoGrant {
                stats: ArbStats::new(1),
            }),
        )
        .run()
        .unwrap_err();
        let SimError::Deadlock { dump, .. } = &err else {
            panic!("expected Deadlock, got {err:?}");
        };
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines.len() >= 4, "dump has header/window/LSQ/port: {dump}");

        // Line 1: "cycle N, committed M, pc P" with every field populated.
        let head = lines[0].trim_start();
        assert!(head.starts_with("cycle "), "{dump}");
        assert!(head.contains(", committed "), "{dump}");
        let pc = head.rsplit("pc ").next().unwrap_or("");
        pc.trim().parse::<u64>().expect("pc field is a number");
        let cycle = &head["cycle ".len()..head.find(',').unwrap()];
        assert!(cycle.trim().parse::<u64>().unwrap() > 0, "{dump}");

        // Line 2: window census with all four states and the frontier.
        let window = lines[1].trim_start();
        assert!(window.starts_with("window: "), "{dump}");
        for field in [
            "waiting ",
            "ready ",
            "issued ",
            "done ",
            "; completion frontier seq ",
        ] {
            assert!(window.contains(field), "missing `{field}` in: {dump}");
        }

        // Line 3: LSQ occupancy and head/tail sequence state.
        let lsq = lines[2].trim_start();
        assert!(lsq.starts_with("LSQ "), "{dump}");
        assert!(lsq.contains('/') && lsq.contains("head seq"), "{dump}");

        // Line 4: the port model's own state section.
        let port = lines[3].trim_start();
        assert!(port.starts_with("port: "), "{dump}");

        // The rendered error carries the headline and the full dump.
        let shown = err.to_string();
        assert!(shown.starts_with("pipeline deadlock at cycle "), "{shown}");
        assert!(
            shown.contains("window:") && shown.contains("LSQ "),
            "{shown}"
        );
    }

    const STRIDED_LOADS: &str = ".data\nv: .space 4096\n.text\nmain:\n la r8, v\n li r9, 64\n\
        loop:\n lw r1, 0(r8)\n lw r2, 64(r8)\n lw r3, 128(r8)\n sw r1, 192(r8)\n\
        addi r8, r8, 8\n addi r9, r9, -1\n bnez r9, loop\n halt\n";

    fn run_audited(audit: bool, port: PortConfig) -> SimReport {
        let p = assemble(STRIDED_LOADS).unwrap();
        Simulator::new(
            &p,
            CpuConfig {
                audit,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            port,
        )
        .run()
        .unwrap()
    }

    #[test]
    fn audited_runs_are_bit_identical_and_clean() {
        for port in [
            PortConfig::Ideal { ports: 4 },
            PortConfig::Replicated { ports: 4 },
            PortConfig::banked(4),
            PortConfig::lbic(4, 2),
        ] {
            let plain = run_audited(false, port);
            let audited = run_audited(true, port);
            assert_eq!(plain, audited, "{port:?}: auditing must not perturb");
        }
    }

    #[test]
    fn injected_faults_fail_audited_runs() {
        let p = assemble(STRIDED_LOADS).unwrap();
        let inj =
            FaultInjector::new(PortConfig::banked(2), 32, FaultClass::BankDoubleGrant, 99).unwrap();
        let err = Simulator::with_port_model(
            &p,
            CpuConfig {
                audit: true,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            Box::new(inj),
        )
        .run()
        .unwrap_err();
        match err {
            SimError::Invariant { violations, .. } => {
                assert!(
                    violations.iter().any(|v| v.rule == "banked-double-grant"),
                    "{violations:?}"
                );
            }
            other => panic!("expected Invariant, got {other:?}"),
        }
    }

    #[test]
    fn injected_faults_pass_unnoticed_without_audit() {
        // The same corrupted model runs to completion with auditing off —
        // demonstrating exactly the silent-corruption mode the auditor
        // exists to catch.
        let p = assemble(STRIDED_LOADS).unwrap();
        let inj =
            FaultInjector::new(PortConfig::banked(2), 32, FaultClass::BankDoubleGrant, 99).unwrap();
        let r = Simulator::with_port_model(
            &p,
            CpuConfig {
                audit: false,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            Box::new(inj),
        )
        .run()
        .unwrap();
        assert!(r.committed > 0);
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        let p = assemble("main: halt\n").unwrap();
        let err = Simulator::try_new(
            &p,
            CpuConfig {
                issue_width: 0,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::Config { .. }), "{err:?}");

        let err = Simulator::try_new(
            &p,
            CpuConfig::default(),
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 0 },
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::Config { .. }), "{err:?}");
    }
}

#[cfg(test)]
mod cycle_skip_tests {
    use super::*;
    use crate::bpred::PredictorKind;
    use hbdc_isa::asm::assemble;

    /// Serially dependent cold-missing loads: each iteration's address
    /// needs the previous load's data, so the machine goes fully
    /// quiescent while each DRAM fill is in flight.
    const DEPENDENT_MISSES: &str = ".data\nv: .space 8192\n.text\nmain:\n la r8, v\n li r9, 40\n\
        loop:\n lw r1, 0(r8)\n add r8, r8, r1\n addi r8, r8, 64\n\
        addi r9, r9, -1\n bnez r9, loop\n halt\n";

    fn every_port() -> [PortConfig; 4] {
        [
            PortConfig::Ideal { ports: 4 },
            PortConfig::Replicated { ports: 4 },
            PortConfig::banked(4),
            PortConfig::lbic(4, 2),
        ]
    }

    fn run_to_end(src: &str, cfg: CpuConfig, port: PortConfig) -> Simulator {
        let p = assemble(src).unwrap();
        let mut sim = Simulator::new(&p, cfg, HierarchyConfig::default(), port);
        sim.run().unwrap();
        sim
    }

    fn assert_bit_identical(ticked: &Simulator, skipped: &Simulator, ctx: &str) {
        assert_eq!(ticked.report(), skipped.report(), "{ctx}: report diverged");
        assert_eq!(
            ticked.lsq_stalls(),
            skipped.lsq_stalls(),
            "{ctx}: LSQ stall counters diverged"
        );
        assert_eq!(
            ticked.branch_stats(),
            skipped.branch_stats(),
            "{ctx}: branch stats diverged"
        );
        let (t, s) = (ticked.pipe_stats(), skipped.pipe_stats());
        assert_eq!(t.issued, s.issued, "{ctx}: issued/cycle diverged");
        assert_eq!(
            t.dispatched, s.dispatched,
            "{ctx}: dispatched/cycle diverged"
        );
        assert_eq!(t.committed, s.committed, "{ctx}: committed/cycle diverged");
        assert_eq!(
            t.window_occupancy, s.window_occupancy,
            "{ctx}: window occupancy diverged"
        );
        assert_eq!(
            t.lsq_occupancy, s.lsq_occupancy,
            "{ctx}: LSQ occupancy diverged"
        );
    }

    #[test]
    fn skipped_runs_are_bit_identical_to_ticked_runs() {
        for port in every_port() {
            // `audit: false` explicitly: the auditor must observe every
            // arbitration round, so it forces skipping off — including
            // when the `audit` cargo feature flips the default on.
            let cfg = |cycle_skip| CpuConfig {
                cycle_skip,
                audit: false,
                ..CpuConfig::default()
            };
            let ticked = run_to_end(DEPENDENT_MISSES, cfg(false), port);
            let skipped = run_to_end(DEPENDENT_MISSES, cfg(true), port);
            assert_eq!(
                ticked.skipped_cycles(),
                0,
                "{port:?}: ticked run must not skip"
            );
            assert!(
                skipped.skipped_cycles() > 0,
                "{port:?}: the dependent-miss chain must exercise skipping"
            );
            assert_bit_identical(&ticked, &skipped, &format!("{port:?}"));
        }
    }

    #[test]
    fn skipping_spans_redirect_penalties_identically() {
        // Mispredicted branches park fetch for a long redirect penalty;
        // with an empty window those penalty cycles are skippable.
        let src = "main:
            li r9, 400
        loop:
            andi r10, r9, 1
            bnez r10, skip
            addi r8, r8, 5
        skip:
            addi r9, r9, -1
            bnez r9, loop
            halt
        ";
        let cfg = |cycle_skip| CpuConfig {
            cycle_skip,
            audit: false, // the auditor forces skipping off
            front_end: FrontEnd::Predicted {
                kind: PredictorKind::AlwaysTaken,
                redirect_penalty: 12,
            },
            ..CpuConfig::default()
        };
        let port = PortConfig::Ideal { ports: 2 };
        let ticked = run_to_end(src, cfg(false), port);
        let skipped = run_to_end(src, cfg(true), port);
        assert!(
            skipped.skipped_cycles() > 0,
            "redirect penalties must be skippable"
        );
        assert_bit_identical(&ticked, &skipped, "redirect-penalty workload");
    }

    #[test]
    fn watchdog_fires_identically_under_skipping() {
        // A watchdog budget shorter than one DRAM fill: the ticked run
        // counts its way to the deadline, the skipping run jumps straight
        // to it — same cycle, same diagnostics.
        let p = assemble(DEPENDENT_MISSES).unwrap();
        let run = |cycle_skip| {
            Simulator::new(
                &p,
                CpuConfig {
                    cycle_skip,
                    watchdog_cycles: 5,
                    ..CpuConfig::default()
                },
                HierarchyConfig::default(),
                PortConfig::Ideal { ports: 4 },
            )
            .run()
            .unwrap_err()
        };
        match (run(false), run(true)) {
            (
                SimError::Deadlock {
                    cycle: tc,
                    committed: ti,
                    stalled_for: ts,
                    dump: td,
                },
                SimError::Deadlock {
                    cycle: sc,
                    committed: si,
                    stalled_for: ss,
                    dump: sd,
                },
            ) => {
                assert_eq!(tc, sc, "deadlock cycle");
                assert_eq!(ti, si, "committed at deadlock");
                assert_eq!(ts, ss, "stall length");
                assert_eq!(td, sd, "diagnostic dump");
            }
            other => panic!("expected two Deadlocks, got {other:?}"),
        }
    }

    #[test]
    fn cycle_limit_fires_identically_under_skipping() {
        let p = assemble(DEPENDENT_MISSES).unwrap();
        let run = |cycle_skip| {
            Simulator::new(
                &p,
                CpuConfig {
                    cycle_skip,
                    max_cycles: 35,
                    ..CpuConfig::default()
                },
                HierarchyConfig::default(),
                PortConfig::Ideal { ports: 4 },
            )
            .run()
            .unwrap_err()
        };
        match (run(false), run(true)) {
            (
                SimError::CycleLimit {
                    committed: ti,
                    dump: td,
                    ..
                },
                SimError::CycleLimit {
                    committed: si,
                    dump: sd,
                    ..
                },
            ) => {
                assert_eq!(ti, si, "committed at the cap");
                assert_eq!(td, sd, "diagnostic dump");
            }
            other => panic!("expected two CycleLimits, got {other:?}"),
        }
    }

    #[test]
    fn budget_pauses_are_unperturbed_by_skipping() {
        // `run_for` must pause at exactly the same cycle either way: every
        // skipped cycle consumes budget just as an executed one would.
        let p = assemble(DEPENDENT_MISSES).unwrap();
        let drive = |cycle_skip| {
            let mut sim = Simulator::new(
                &p,
                CpuConfig {
                    cycle_skip,
                    ..CpuConfig::default()
                },
                HierarchyConfig::default(),
                PortConfig::banked(4),
            );
            let mut pauses = Vec::new();
            while !sim.run_for(17).unwrap() {
                pauses.push(sim.current_cycle());
            }
            (pauses, sim.report())
        };
        let (ticked_pauses, ticked) = drive(false);
        let (skipped_pauses, skipped) = drive(true);
        assert_eq!(ticked_pauses, skipped_pauses);
        assert_eq!(ticked, skipped);
    }
}

#[cfg(test)]
mod warmup_tests {
    use super::*;
    use hbdc_isa::asm::assemble;

    #[test]
    fn warmup_skips_initialization_from_timing() {
        // 1000 serial init instructions, then a short parallel body.
        let src = "main:
            li r9, 500
        init:
            addi r8, r8, 1
            addi r9, r9, -1
            bnez r9, init
            li r1, 1
            li r2, 2
            li r3, 3
            li r4, 4
            halt
        ";
        let p = assemble(src).unwrap();
        let run = |warmup| {
            Simulator::new(
                &p,
                CpuConfig {
                    warmup_insts: warmup,
                    ..CpuConfig::default()
                },
                HierarchyConfig::default(),
                PortConfig::Ideal { ports: 4 },
            )
            .run()
            .unwrap()
        };
        let cold = run(0);
        let warmed = run(1501); // skip the whole init loop
        assert_eq!(warmed.committed, cold.committed - 1501);
        assert!(
            warmed.cycles < cold.cycles / 10,
            "warmup must remove the serial init ({} vs {})",
            warmed.cycles,
            cold.cycles
        );
    }

    #[test]
    fn warmup_past_the_end_yields_empty_run() {
        let p = assemble("main: nop\n halt\n").unwrap();
        let r = Simulator::new(
            &p,
            CpuConfig {
                warmup_insts: 100,
                ..CpuConfig::default()
            },
            HierarchyConfig::default(),
            PortConfig::Ideal { ports: 1 },
        )
        .run()
        .unwrap();
        assert_eq!(r.committed, 0);
    }
}
