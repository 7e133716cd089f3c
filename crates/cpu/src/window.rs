//! The register update unit (RUU): a unified instruction window with
//! dataflow wakeup.

use std::cell::Cell;

use hbdc_isa::{ArchReg, Inst};
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::dynamic::DynInst;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for source operands.
    Waiting,
    /// All operands available; eligible for issue.
    Ready,
    /// Issued; result pending at `complete_at` (or an unknown future cycle
    /// for loads awaiting a cache grant).
    Issued,
    /// Result produced; dependents woken.
    Done,
}

impl State {
    fn tag(self) -> u8 {
        match self {
            State::Waiting => 0,
            State::Ready => 1,
            State::Issued => 2,
            State::Done => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapError> {
        match tag {
            0 => Ok(State::Waiting),
            1 => Ok(State::Ready),
            2 => Ok(State::Issued),
            3 => Ok(State::Done),
            other => Err(SnapError::Corrupt(format!(
                "unknown window entry state tag {other}"
            ))),
        }
    }
}

/// End-of-list marker for wakeup-list links.
const NIL: u32 = u32::MAX;

/// One node of the wakeup-edge arena: a link in some producer's FIFO
/// wakeup list. Consumer slot `s` owns nodes `2s` and `2s + 1` — an
/// instruction reads at most two registers, so it waits on at most two
/// producers — and the consumer is recovered from the node index alone.
#[derive(Debug, Clone, Copy)]
struct Edge {
    next: u32,
    /// Whether this edge gates the consumer's *address* (store base
    /// register) rather than only its execution.
    addr: bool,
}

/// A producer's wakeup list: head and tail node, or [`NIL`] when empty.
/// Appending at the tail keeps wake order equal to dispatch order.
#[derive(Debug, Clone, Copy)]
struct WakeList {
    head: u32,
    tail: u32,
}

impl WakeList {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
    };
}

/// Pre-decoded instruction facts the issue and commit stages consult
/// every cycle. Derived (not stored) state: snapshots persist only the
/// instruction record and rebuild this on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstMeta {
    /// Load or store.
    pub mem: bool,
    /// Store (implies `mem`).
    pub store: bool,
    /// The `halt` instruction (ends the run at commit).
    pub halt: bool,
    /// Functional-unit class for non-memory issue.
    pub class: hbdc_isa::FuClass,
}

impl InstMeta {
    fn of(inst: &Inst) -> Self {
        Self {
            mem: inst.is_mem(),
            store: inst.is_store(),
            halt: matches!(inst, Inst::Halt),
            class: inst.fu_class(),
        }
    }
}

/// A retired entry as yielded by
/// [`commit_compact_into`](Window::commit_compact_into): the sequence
/// number plus the cached instruction facts commit bookkeeping needs,
/// in place of a copy of the full instruction record.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Program-order sequence number.
    pub seq: u64,
    /// Pre-decoded instruction facts.
    pub meta: InstMeta,
}

fn reg_slot(r: ArchReg) -> usize {
    match r {
        ArchReg::Int(r) => r.index(),
        ArchReg::Fp(f) => 32 + f.index(),
    }
}

/// The register update unit (Sohi \[21], as used by SimpleScalar): a
/// program-ordered instruction window that tracks register dependences,
/// wakes consumers as producers complete, and retires from the front in
/// order.
///
/// The window is purely a *timing* structure — values live in the
/// functional emulator. Dependences are derived from each instruction's
/// architectural defs/uses at dispatch (equivalent to renaming, since the
/// latest producer of each register is tracked).
///
/// # Examples
///
/// ```
/// use hbdc_cpu::{DynInst, Window};
/// use hbdc_isa::{AluOp, Inst, Reg};
///
/// let mut w = Window::new(8);
/// let producer = DynInst {
///     seq: 0, pc: 0, addr: None, taken: None,
///     inst: Inst::AluImm { op: AluOp::Or, rd: Reg::new(1), rs: Reg::ZERO, imm: 5 },
/// };
/// let consumer = DynInst {
///     seq: 1, pc: 1, addr: None, taken: None,
///     inst: Inst::Alu { op: AluOp::Add, rd: Reg::new(2), rs: Reg::new(1), rt: Reg::new(1) },
/// };
/// w.dispatch(producer);
/// w.dispatch(consumer);
/// assert_eq!(w.ready_seqs(), vec![0]); // consumer waits on r1
/// w.mark_issued(0, Some(1));
/// w.advance_completions(1);
/// assert_eq!(w.ready_seqs(), vec![1]); // woken
/// ```
#[derive(Debug)]
pub struct Window {
    // The live window is `[base_seq, base_seq + len)`. Entry `seq` lives
    // in ring slot `seq & mask` (the slot count is the capacity rounded
    // up to a power of two); every per-slot array below is indexed by it.
    base_seq: u64,
    len: usize,
    capacity: usize,
    mask: usize,
    // Hot per-slot state, one parallel array per field.
    state: Vec<State>,
    remaining_deps: Vec<u8>,
    // Outstanding producers of the store's base register; when this
    // reaches zero the store's effective address is architecturally
    // known, which unblocks younger loads in the LSQ.
    addr_deps: Vec<u8>,
    meta: Vec<InstMeta>,
    // Stores: cache access performed (commit gate).
    access_done: Vec<bool>,
    wake: Vec<WakeList>,
    // Wakeup-edge arena, two nodes per slot (see `Edge`).
    edges: Vec<Edge>,
    // Cold per-slot state: the full instruction record.
    insts: Vec<DynInst>,
    producer: [Option<u64>; 64],
    // Ready set as a bitmap over ring slots, packed 64 to a word so the
    // oldest-first scan from `base_seq`'s slot skips empty regions via
    // `trailing_zeros`.
    ready: Vec<u64>,
    ready_count: usize,
    completions: CompletionWheel,
    // Stores whose address became known since the last drain.
    addr_ready: Vec<u64>,
    // Monotone cache for `oldest_not_done` — the Done prefix only grows.
    frontier_hint: Cell<u64>,
}

impl Window {
    /// Creates an empty window with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds 2^30.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window needs at least one entry");
        assert!(capacity <= 1 << 30, "window capacity {capacity} too large");
        let slots = capacity.next_power_of_two();
        let placeholder = DynInst {
            seq: 0,
            pc: 0,
            inst: Inst::Nop,
            addr: None,
            taken: None,
        };
        Self {
            base_seq: 0,
            len: 0,
            capacity,
            mask: slots - 1,
            state: vec![State::Waiting; slots],
            remaining_deps: vec![0; slots],
            addr_deps: vec![0; slots],
            meta: vec![InstMeta::of(&Inst::Nop); slots],
            access_done: vec![false; slots],
            wake: vec![WakeList::EMPTY; slots],
            edges: vec![
                Edge {
                    next: NIL,
                    addr: false
                };
                2 * slots
            ],
            insts: vec![placeholder; slots],
            producer: [None; 64],
            ready: vec![0; slots.div_ceil(64)],
            ready_count: 0,
            completions: CompletionWheel::new(),
            addr_ready: Vec::new(),
            frontier_hint: Cell::new(0),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window has room for another instruction.
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Ring slot of `seq`, which the caller knows to be live.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        seq as usize & self.mask
    }

    /// Ring slot of `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in the live window.
    #[inline]
    fn live_slot(&self, seq: u64) -> usize {
        assert!(
            seq.wrapping_sub(self.base_seq) < self.len as u64,
            "seq {seq} outside the live window [{}, {})",
            self.base_seq,
            self.base_seq + self.len as u64
        );
        self.slot(seq)
    }

    /// Sequence number of the live entry in ring slot `slot`.
    #[inline]
    fn seq_at(&self, slot: usize) -> u64 {
        self.base_seq + (slot.wrapping_sub(self.base_seq as usize) & self.mask) as u64
    }

    fn set_ready(&mut self, s: usize) {
        debug_assert_eq!(
            self.ready[s >> 6] >> (s & 63) & 1,
            0,
            "ready slot already set"
        );
        self.ready[s >> 6] |= 1 << (s & 63);
        self.ready_count += 1;
    }

    /// Appends edge `node` to the tail of producer slot `p`'s wakeup list.
    fn link(&mut self, p: usize, node: u32, addr: bool) {
        self.edges[node as usize] = Edge { next: NIL, addr };
        let list = &mut self.wake[p];
        if list.tail == NIL {
            list.head = node;
        } else {
            self.edges[list.tail as usize].next = node;
        }
        list.tail = node;
    }

    /// Producer slot `p`'s wakeup list in wake order, as
    /// (consumer seq, address edge) pairs.
    fn dependents(&self, p: usize) -> impl Iterator<Item = (u64, bool)> + '_ {
        let mut node = self.wake[p].head;
        std::iter::from_fn(move || {
            if node == NIL {
                return None;
            }
            let e = self.edges[node as usize];
            let consumer = self.seq_at(node as usize >> 1);
            node = e.next;
            Some((consumer, e.addr))
        })
    }

    /// Dispatches the next instruction in program order.
    ///
    /// # Panics
    ///
    /// Panics if the window is full or `di.seq` is out of order.
    pub fn dispatch(&mut self, di: DynInst) {
        assert!(self.has_space(), "dispatch into full window");
        let expected = self.base_seq + self.len as u64;
        assert_eq!(di.seq, expected, "dispatch out of program order");

        let s = self.slot(di.seq);
        let meta = InstMeta::of(&di.inst);
        let is_store = meta.store;
        let base = di.inst.mem_base().map(hbdc_isa::ArchReg::Int);
        let mut remaining = 0u8;
        let mut addr_deps = 0u8;
        self.wake[s] = WakeList::EMPTY;
        di.inst.for_each_use(|u| {
            if let Some(prod_seq) = self.producer[reg_slot(u)] {
                if prod_seq >= self.base_seq {
                    let p = self.slot(prod_seq);
                    if self.state[p] != State::Done {
                        let addr = is_store && Some(u) == base;
                        // Node 2s+2 would be the next slot's first node.
                        assert!(remaining < 2, "more than two register uses");
                        self.link(p, (s << 1) as u32 | remaining as u32, addr);
                        remaining += 1;
                        if addr {
                            addr_deps += 1;
                        }
                    }
                }
            }
        });
        if let Some(d) = di.inst.def() {
            self.producer[reg_slot(d)] = Some(di.seq);
        }
        if is_store && addr_deps == 0 {
            // Base register already available: address known at dispatch.
            self.addr_ready.push(di.seq);
        }
        self.state[s] = if remaining == 0 {
            self.set_ready(s);
            State::Ready
        } else {
            State::Waiting
        };
        self.remaining_deps[s] = remaining;
        self.addr_deps[s] = addr_deps;
        self.meta[s] = meta;
        self.access_done[s] = false;
        self.insts[s] = di;
        self.len += 1;
    }

    /// Drains the stores whose effective address has become
    /// architecturally known since the last call (so the LSQ can unblock
    /// younger loads). The backing buffer's capacity is retained.
    pub fn drain_addr_ready(&mut self) -> std::vec::Drain<'_, u64> {
        self.addr_ready.drain(..)
    }

    /// Scans bitmap slots `[a, a + len)`, appending the sequence number
    /// `seq0 + (slot - a)` for each set bit in slot order. Returns `false`
    /// once `max` entries are collected (the caller's signal to stop).
    fn scan_ready_span(
        &self,
        a: usize,
        len: usize,
        seq0: u64,
        max: usize,
        out: &mut Vec<u64>,
    ) -> bool {
        let b = a + len;
        let mut w = a >> 6;
        while (w << 6) < b {
            let mut bits = self.ready[w];
            if (w << 6) < a {
                bits &= !0 << (a & 63);
            }
            if (w << 6) + 64 > b {
                bits &= !0 >> (64 - (b - (w << 6)));
            }
            while bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                out.push(seq0 + (slot - a) as u64);
                if out.len() == max {
                    return false;
                }
                bits &= bits - 1;
            }
            w += 1;
        }
        true
    }

    /// Fills `out` with up to `max` ready-to-issue sequence numbers,
    /// oldest first. Clears `out` first; never allocates once `out` has
    /// warmed up.
    pub fn fill_ready(&self, max: usize, out: &mut Vec<u64>) {
        out.clear();
        if self.ready_count == 0 || max == 0 {
            return;
        }
        let max = max.min(self.ready_count);
        // The live window occupies `len` ring slots starting at the base
        // sequence's slot; a wrap splits it into two linear spans.
        let start = self.slot(self.base_seq);
        let span1 = (self.mask + 1 - start).min(self.len);
        let span2 = self.len - span1;
        if self.scan_ready_span(start, span1, self.base_seq, max, out) && span2 > 0 {
            self.scan_ready_span(0, span2, self.base_seq + span1 as u64, max, out);
        }
    }

    /// Number of entries currently ready to issue.
    pub fn ready_count(&self) -> usize {
        self.ready_count
    }

    /// Sequence numbers currently ready to issue, oldest first.
    /// Allocates; the hot path uses [`fill_ready`](Self::fill_ready).
    pub fn ready_seqs(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.ready_count);
        self.fill_ready(usize::MAX, &mut out);
        out
    }

    /// The instruction record at `seq`.
    pub fn inst(&self, seq: u64) -> &DynInst {
        &self.insts[self.live_slot(seq)]
    }

    /// The cached instruction facts for `seq` — what the issue stage
    /// reads each cycle instead of copying the record out and
    /// re-matching the opcode.
    pub fn meta(&self, seq: u64) -> InstMeta {
        self.meta[self.live_slot(seq)]
    }

    /// Marks `seq` issued. `complete_at` is the cycle its result appears,
    /// or `None` for loads whose completion awaits a cache grant (set
    /// later with [`set_complete_at`](Self::set_complete_at)).
    ///
    /// # Panics
    ///
    /// Panics if the entry is not ready.
    pub fn mark_issued(&mut self, seq: u64, complete_at: Option<u64>) {
        let s = self.live_slot(seq);
        assert!(
            self.ready[s >> 6] >> (s & 63) & 1 == 1,
            "issue of non-ready entry"
        );
        self.ready[s >> 6] &= !(1 << (s & 63));
        self.ready_count -= 1;
        self.state[s] = State::Issued;
        if let Some(at) = complete_at {
            self.completions.push(at, seq);
        }
    }

    /// Schedules the completion of an already-issued entry (loads, once
    /// the cache grants their access and the fill latency is known).
    pub fn set_complete_at(&mut self, seq: u64, at: u64) {
        let s = self.live_slot(seq);
        debug_assert_eq!(self.state[s], State::Issued);
        self.completions.push(at, seq);
    }

    /// Marks Done every issued entry whose completion time has arrived,
    /// waking its dependents. Returns the number of entries completed.
    pub fn advance_completions(&mut self, now: u64) -> usize {
        let mut completed = 0usize;
        self.completions.drain_due(now);
        for i in 0..self.completions.due_buf.len() {
            let seq = self.completions.due_buf[i];
            if seq < self.base_seq {
                continue; // already committed (defensive)
            }
            completed += 1;
            // Events are only scheduled for live entries, and consumers
            // are younger than their live producer: both slots are live.
            let s = self.slot(seq);
            debug_assert_eq!(self.state[s], State::Issued);
            self.state[s] = State::Done;
            let mut node = self.wake[s].head;
            self.wake[s] = WakeList::EMPTY;
            while node != NIL {
                let Edge { next, addr } = self.edges[node as usize];
                let c = node as usize >> 1;
                self.remaining_deps[c] -= 1;
                let addr_now_known = addr && {
                    self.addr_deps[c] -= 1;
                    self.addr_deps[c] == 0
                };
                if addr_now_known {
                    self.addr_ready.push(self.seq_at(c));
                }
                if self.remaining_deps[c] == 0 && self.state[c] == State::Waiting {
                    self.state[c] = State::Ready;
                    self.set_ready(c);
                }
                node = next;
            }
        }
        completed
    }

    /// Whether `seq` has produced its result.
    pub fn is_done(&self, seq: u64) -> bool {
        self.state[self.live_slot(seq)] == State::Done
    }

    /// Whether `seq` has produced its result *or already committed* —
    /// safe to call for sequence numbers that may have left the window.
    pub fn resolved(&self, seq: u64) -> bool {
        seq < self.base_seq || self.is_done(seq)
    }

    /// Records that a store's commit-time cache access has been performed.
    pub fn mark_access_done(&mut self, seq: u64) {
        let s = self.live_slot(seq);
        self.access_done[s] = true;
    }

    /// Whether a store's cache access has been performed.
    pub fn access_done(&self, seq: u64) -> bool {
        self.access_done[self.live_slot(seq)]
    }

    /// Sequence number of the oldest entry that is not yet Done; all
    /// entries older than this are complete. Returns one past the youngest
    /// entry when everything is Done (or the window is empty).
    pub fn oldest_not_done(&self) -> u64 {
        let end = self.base_seq + self.len as u64;
        let mut frontier = self.frontier_hint.get().max(self.base_seq);
        while frontier < end && self.state[self.slot(frontier)] == State::Done {
            frontier += 1;
        }
        self.frontier_hint.set(frontier);
        frontier
    }

    /// Counts entries by state: (waiting, ready, issued, done).
    #[doc(hidden)]
    pub fn state_census(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for seq in self.base_seq..self.base_seq + self.len as u64 {
            match self.state[self.slot(seq)] {
                State::Waiting => c.0 += 1,
                State::Ready => c.1 += 1,
                State::Issued => c.2 += 1,
                State::Done => c.3 += 1,
            }
        }
        c
    }

    /// Shared retirement walk: retires up to `max` front entries that are
    /// Done (and, for stores, access-performed), pushing `f(self, slot)`
    /// into `out` (cleared first) for each.
    fn commit_with<T>(&mut self, max: u32, out: &mut Vec<T>, f: impl Fn(&Self, usize) -> T) {
        out.clear();
        while out.len() < max as usize && self.len > 0 {
            let s = self.slot(self.base_seq);
            if self.state[s] != State::Done || (self.meta[s].store && !self.access_done[s]) {
                break;
            }
            out.push(f(self, s));
            self.base_seq += 1;
            self.len -= 1;
        }
    }

    /// Retires up to `max` instructions from the front, in order, into
    /// `out` (cleared first). An entry retires if it is Done and, for
    /// stores, its cache access has been performed.
    pub fn commit_into(&mut self, max: u32, out: &mut Vec<DynInst>) {
        self.commit_with(max, out, |w, s| w.insts[s]);
    }

    /// Like [`commit_into`](Self::commit_into), but yields only each
    /// retired entry's sequence number and cached instruction facts —
    /// the simulator's hot path, which never needs the full record.
    pub fn commit_compact_into(&mut self, max: u32, out: &mut Vec<Retired>) {
        self.commit_with(max, out, |w, s| Retired {
            seq: w.base_seq,
            meta: w.meta[s],
        });
    }

    /// Retires up to `max` instructions from the front, in order,
    /// returning them. Allocates; the hot path uses
    /// [`commit_into`](Self::commit_into).
    pub fn commit(&mut self, max: u32) -> Vec<DynInst> {
        let mut out = Vec::new();
        self.commit_into(max, &mut out);
        out
    }

    /// The instruction record at `seq`, or `None` if it is not live in
    /// the window (diagnostics; [`inst`](Self::inst) panics instead).
    pub fn get(&self, seq: u64) -> Option<&DynInst> {
        (seq.wrapping_sub(self.base_seq) < self.len as u64).then(|| &self.insts[self.slot(seq)])
    }

    /// Serializes the window's architectural timing state: every live
    /// entry (as a slim dynamic record plus its dependence bookkeeping
    /// and its wakeup list in wake order), the per-register producer
    /// map, the pending completion events, and the address-ready event
    /// queue. The ready bitmap is derivable from entry states and is
    /// rebuilt on load; scratch (the frontier hint) is not persisted.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.base_seq);
        w.put_usize(self.len);
        for seq in self.base_seq..self.base_seq + self.len as u64 {
            let s = self.slot(seq);
            self.insts[s].save_slim(w);
            w.put_u8(self.state[s].tag());
            w.put_u32(self.remaining_deps[s].into());
            w.put_u32(self.addr_deps[s].into());
            w.put_usize(self.dependents(s).count());
            for (dep, addr) in self.dependents(s) {
                w.put_u64(dep);
                w.put_bool(addr);
            }
            w.put_bool(self.access_done[s]);
        }
        for p in &self.producer {
            w.put_opt_u64(*p);
        }
        // Heap layout order is unspecified: emit completion events sorted
        // so identical states always produce identical bytes.
        let completions = self.completions.sorted_events();
        w.put_usize(completions.len());
        for (at, seq) in completions {
            w.put_u64(at);
            w.put_u64(seq);
        }
        w.put_usize(self.addr_ready.len());
        for &seq in &self.addr_ready {
            w.put_u64(seq);
        }
    }

    /// Restores state written by [`save_state`](Self::save_state) into a
    /// window of the same capacity, re-deriving each entry's instruction
    /// from `text` and rebuilding the ready bitmap.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Corrupt`] if the stream holds more entries
    /// than this window's capacity, names a PC outside `text`, carries
    /// an unknown state tag, or is inconsistent with itself: an entry
    /// whose sequence number is not its position in the window, a
    /// dependent that is not a younger live entry, a consumer listed
    /// under more than two producers or under a different number of
    /// producers than it waits on, a producer-map entry or completion
    /// event for an instruction that is not live (or not issued).
    pub fn load_state(&mut self, r: &mut StateReader<'_>, text: &[Inst]) -> Result<(), SnapError> {
        let base_seq = r.get_u64()?;
        let n = r.get_usize()?;
        if n > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "window snapshot holds {n} entries but capacity is {}",
                self.capacity
            )));
        }
        let end = base_seq
            .checked_add(n as u64)
            .ok_or_else(|| SnapError::Corrupt(format!("window base seq {base_seq} overflows")))?;
        self.base_seq = base_seq;
        self.len = 0;
        // Per entry: the (all, address) producer counts it declares, and
        // the (all, address) edges actually listed under its producers.
        let mut declared = vec![(0u32, 0u32); n];
        let mut listed = vec![(0u8, 0u8); n];
        for (i, declared) in declared.iter_mut().enumerate() {
            let seq = base_seq + i as u64;
            let di = DynInst::load_slim(r, text)?;
            if di.seq != seq {
                return Err(SnapError::Corrupt(format!(
                    "window entry {i} carries seq {} but base seq {base_seq} puts it at {seq}",
                    di.seq
                )));
            }
            let s = self.slot(seq);
            self.state[s] = State::from_tag(r.get_u8()?)?;
            *declared = (r.get_u32()?, r.get_u32()?);
            self.wake[s] = WakeList::EMPTY;
            let deps = r.get_usize()?;
            for _ in 0..deps {
                let dep = r.get_u64()?;
                let addr = r.get_bool()?;
                if dep <= seq || dep >= end {
                    return Err(SnapError::Corrupt(format!(
                        "window entry {seq} lists dependent {dep} outside the younger live \
                         window ({seq}, {end})"
                    )));
                }
                let tally = &mut listed[(dep - base_seq) as usize];
                if tally.0 == 2 {
                    return Err(SnapError::Corrupt(format!(
                        "window entry {dep} is listed under more than 2 producers"
                    )));
                }
                let node = (self.slot(dep) << 1) as u32 | tally.0 as u32;
                tally.0 += 1;
                tally.1 += addr as u8;
                self.link(s, node, addr);
            }
            self.access_done[s] = r.get_bool()?;
            self.meta[s] = InstMeta::of(&di.inst);
            self.insts[s] = di;
        }
        for (i, (&(rem, addr), &(edges, addr_edges))) in declared.iter().zip(&listed).enumerate() {
            if (rem, addr) != (edges.into(), addr_edges.into()) {
                return Err(SnapError::Corrupt(format!(
                    "window entry {} waits on {rem} producers ({addr} address) but is listed \
                     under {edges} ({addr_edges} address)",
                    base_seq + i as u64
                )));
            }
            let s = self.slot(base_seq + i as u64);
            self.remaining_deps[s] = edges;
            self.addr_deps[s] = addr_edges;
        }
        self.len = n;
        for p in &mut self.producer {
            *p = r.get_opt_u64()?;
            if let Some(seq) = *p {
                if seq >= end {
                    return Err(SnapError::Corrupt(format!(
                        "producer map names seq {seq}, past the window end {end}"
                    )));
                }
            }
        }
        self.completions.clear();
        let completions = r.get_usize()?;
        for _ in 0..completions {
            let at = r.get_u64()?;
            let seq = r.get_u64()?;
            if seq.wrapping_sub(base_seq) >= n as u64 || self.state[self.slot(seq)] != State::Issued
            {
                return Err(SnapError::Corrupt(format!(
                    "completion event for seq {seq}, which is not an issued live entry"
                )));
            }
            self.completions.push(at, seq);
        }
        self.addr_ready.clear();
        let addr_ready = r.get_usize()?;
        for _ in 0..addr_ready {
            self.addr_ready.push(r.get_u64()?);
        }
        // Rebuild the ready bitmap from the restored entry states.
        self.ready.iter_mut().for_each(|word| *word = 0);
        self.ready_count = 0;
        for seq in base_seq..end {
            let s = self.slot(seq);
            if self.state[s] == State::Ready {
                self.set_ready(s);
            }
        }
        self.frontier_hint.set(self.base_seq);
        Ok(())
    }
}

/// Calendar-wheel slot count; power of two so the slot of cycle `t` is
/// `t & (WHEEL - 1)`. Sized past every bounded completion latency (FU
/// pipelines and cache hits are single digits, memory-hierarchy misses a
/// few hundred cycles), so in steady state every event takes the O(1)
/// bucket path and the far heap stays empty.
const WHEEL: usize = 1024;

/// Pending completion events as a calendar wheel plus far-event heap.
///
/// The hot structure of the completion stage: every issued instruction
/// pushes exactly one `(complete_at, seq)` event and pops it when due,
/// so a comparison-based priority queue pays two O(log n) sifts per
/// instruction against hundreds of in-flight events. Completion delays
/// are almost always small and bounded, which is the textbook calendar
/// case: `buckets[t & (WHEEL-1)]` holds the sequence numbers completing
/// at cycle `t` for `t` within the next `WHEEL` cycles (O(1) push), and
/// the per-cycle drain empties exactly one bucket (O(1) plus one sort of
/// the handful of same-cycle events). The rare event beyond the horizon
/// — and every event restored from a snapshot — parks in the
/// [`CompletionHeap`] and is merged when its cycle comes up.
///
/// Drain order is the lexicographic `(at, seq)` minimum, identical to
/// the plain min-heap this replaces: cycles drain in order, and the
/// same-cycle batch (bucket contents plus far-heap arrivals) is sorted
/// by sequence number before processing.
#[derive(Debug)]
struct CompletionWheel {
    buckets: Vec<Vec<u64>>,
    far: CompletionHeap,
    /// Every event at a cycle `< cursor` has been drained; bucket
    /// residents lie in `[cursor, cursor + WHEEL)`.
    cursor: u64,
    /// Sound lower bound on the earliest pending event cycle
    /// (`u64::MAX` when a drain just emptied the structure); keeps the
    /// per-cycle drain O(1) when nothing is due without scanning slots.
    next_lb: u64,
    len: usize,
    /// Scratch the drain writes due sequence numbers into, in exact
    /// `(at, seq)` order; the caller iterates it by index so the borrow
    /// on `self` is released between entries.
    due_buf: Vec<u64>,
}

impl CompletionWheel {
    fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); WHEEL],
            far: CompletionHeap::default(),
            cursor: 0,
            next_lb: u64::MAX,
            len: 0,
            due_buf: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.far.clear();
        self.cursor = 0;
        self.next_lb = u64::MAX;
        self.len = 0;
        self.due_buf.clear();
    }

    fn push(&mut self, at: u64, seq: u64) {
        debug_assert!(at >= self.cursor, "completion scheduled in the past");
        if at < self.cursor + WHEEL as u64 {
            self.buckets[at as usize & (WHEEL - 1)].push(seq);
        } else {
            self.far.push(at, seq);
        }
        self.next_lb = self.next_lb.min(at);
        self.len += 1;
    }

    /// Moves every event due at or before `now` into `due_buf`, cycles
    /// in order and same-cycle batches sorted by sequence number, and
    /// advances the wheel cursor past `now`.
    fn drain_due(&mut self, now: u64) {
        self.due_buf.clear();
        if self.next_lb > now {
            // Nothing due. The cursor may still advance to `now + 1`:
            // every pending event is at `>= next_lb > now`, so no bucket
            // slot the cursor moves past is occupied.
            self.cursor = self.cursor.max(now + 1);
            return;
        }
        let mut t = self.next_lb.max(self.cursor);
        while t <= now {
            let mark = self.due_buf.len();
            while let Some((at, _)) = self.far.peek() {
                debug_assert!(at >= t, "far event slipped past the drain");
                if at > t {
                    break;
                }
                let (_, seq) = self.far.pop().expect("peeked event exists");
                self.due_buf.push(seq);
            }
            let bucket = &mut self.buckets[t as usize & (WHEEL - 1)];
            self.due_buf.append(bucket);
            self.due_buf[mark..].sort_unstable();
            t += 1;
        }
        self.len -= self.due_buf.len();
        self.cursor = now + 1;
        self.next_lb = if self.len == 0 { u64::MAX } else { self.cursor };
    }

    /// Every pending event sorted by `(at, seq)` — the canonical order
    /// snapshots serialize (wheel and heap layout order is not
    /// deterministic). Bucket residents recover their absolute cycle
    /// from the slot index: the unique `t` in `[cursor, cursor + WHEEL)`
    /// congruent to the slot.
    fn sorted_events(&self) -> Vec<(u64, u64)> {
        let mut events: Vec<(u64, u64)> = self
            .far
            .ats
            .iter()
            .copied()
            .zip(self.far.seqs.iter().copied())
            .collect();
        for (slot, bucket) in self.buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut t = (self.cursor & !(WHEEL as u64 - 1)) + slot as u64;
            if t < self.cursor {
                t += WHEEL as u64;
            }
            events.extend(bucket.iter().map(|&seq| (t, seq)));
        }
        events.sort_unstable();
        events
    }
}

/// Overflow store of the [`CompletionWheel`]: far-future events as a
/// structure-of-arrays binary min-heap keyed on `(complete_at, seq)` —
/// two parallel `u64` vectors instead of a vector of tuples, so the sift
/// paths (which compare `at` almost always and touch `seq` only on ties)
/// stream through dense, separately prefetchable arrays. Pop order is
/// the lexicographic `(at, seq)` minimum.
#[derive(Debug, Default)]
struct CompletionHeap {
    ats: Vec<u64>,
    seqs: Vec<u64>,
}

impl CompletionHeap {
    fn clear(&mut self) {
        self.ats.clear();
        self.seqs.clear();
    }

    #[inline]
    fn key(&self, i: usize) -> (u64, u64) {
        (self.ats[i], self.seqs[i])
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.ats.swap(a, b);
        self.seqs.swap(a, b);
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.ats.first().map(|&at| (at, self.seqs[0]))
    }

    fn push(&mut self, at: u64, seq: u64) {
        self.ats.push(at);
        self.seqs.push(seq);
        let mut i = self.ats.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(parent) <= self.key(i) {
                break;
            }
            self.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let n = self.ats.len();
        if n == 0 {
            return None;
        }
        self.swap(0, n - 1);
        let out = match (self.ats.pop(), self.seqs.pop()) {
            (Some(at), Some(seq)) => (at, seq),
            _ => return None,
        };
        let n = n - 1;
        let mut i = 0usize;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let smallest = if r < n && self.key(r) < self.key(l) {
                r
            } else {
                l
            };
            if self.key(i) <= self.key(smallest) {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbdc_isa::{AluOp, Inst, Reg, Width};
    use hbdc_snap::{StateReader, StateWriter};

    fn alu(seq: u64, rd: u8, rs: u8, rt: u8) -> DynInst {
        DynInst {
            seq,
            pc: seq as u32,
            addr: None,
            taken: None,
            inst: Inst::Alu {
                op: AluOp::Add,
                rd: Reg::new(rd),
                rs: Reg::new(rs),
                rt: Reg::new(rt),
            },
        }
    }

    fn store(seq: u64, addr: u64) -> DynInst {
        DynInst {
            seq,
            pc: seq as u32,
            addr: Some(addr),
            taken: None,
            inst: Inst::Store {
                width: Width::Word,
                rs: Reg::new(1),
                base: Reg::new(2),
                offset: 0,
            },
        }
    }

    #[test]
    fn independent_instructions_all_ready() {
        let mut w = Window::new(4);
        w.dispatch(alu(0, 1, 0, 0));
        w.dispatch(alu(1, 2, 0, 0));
        assert_eq!(w.ready_seqs(), vec![0, 1]);
    }

    #[test]
    fn dependent_wakes_after_producer_completes() {
        let mut w = Window::new(4);
        w.dispatch(alu(0, 1, 0, 0)); // r1 = ...
        w.dispatch(alu(1, 2, 1, 0)); // r2 = r1 + ...
        assert_eq!(w.ready_seqs(), vec![0]);
        w.mark_issued(0, Some(3));
        w.advance_completions(2);
        assert_eq!(w.ready_seqs(), Vec::<u64>::new());
        w.advance_completions(3);
        assert_eq!(w.ready_seqs(), vec![1]);
    }

    #[test]
    fn chain_of_three() {
        let mut w = Window::new(8);
        w.dispatch(alu(0, 1, 0, 0));
        w.dispatch(alu(1, 2, 1, 0));
        w.dispatch(alu(2, 3, 2, 1)); // depends on both r2 and r1
        w.mark_issued(0, Some(1));
        w.advance_completions(1);
        assert_eq!(w.ready_seqs(), vec![1]);
        w.mark_issued(1, Some(2));
        w.advance_completions(2);
        assert_eq!(w.ready_seqs(), vec![2]);
    }

    #[test]
    fn anti_dependence_does_not_block() {
        // Write-after-read: consumer of old r1 dispatched after a new
        // producer of r1 must depend on the *latest prior* producer only.
        let mut w = Window::new(8);
        w.dispatch(alu(0, 1, 0, 0)); // r1 = v0
        w.dispatch(alu(1, 1, 0, 0)); // r1 = v1 (overwrites)
        w.dispatch(alu(2, 3, 1, 0)); // reads r1 → depends on seq 1 only
        w.mark_issued(1, Some(1));
        w.mark_issued(0, Some(99)); // old producer finishes late
        w.advance_completions(1);
        assert_eq!(w.ready_seqs(), vec![2]);
    }

    #[test]
    fn commit_is_in_order_and_gated() {
        let mut w = Window::new(8);
        w.dispatch(alu(0, 1, 0, 0));
        w.dispatch(alu(1, 2, 0, 0));
        w.mark_issued(1, Some(1));
        w.advance_completions(1);
        // Younger is done, older is not: nothing commits.
        assert!(w.commit(4).is_empty());
        w.mark_issued(0, Some(2));
        w.advance_completions(2);
        let retired = w.commit(4);
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[0].seq, 0);
        assert_eq!(retired[1].seq, 1);
        assert!(w.is_empty());
    }

    #[test]
    fn store_commit_requires_access_done() {
        let mut w = Window::new(8);
        w.dispatch(store(0, 0x100));
        w.mark_issued(0, Some(1));
        w.advance_completions(1);
        assert!(w.commit(1).is_empty()); // access not yet performed
        w.mark_access_done(0);
        assert_eq!(w.commit(1).len(), 1);
    }

    #[test]
    fn oldest_not_done_tracks_frontier() {
        let mut w = Window::new(8);
        w.dispatch(alu(0, 1, 0, 0));
        w.dispatch(alu(1, 2, 0, 0));
        assert_eq!(w.oldest_not_done(), 0);
        w.mark_issued(0, Some(1));
        w.advance_completions(1);
        assert_eq!(w.oldest_not_done(), 1);
        w.mark_issued(1, Some(2));
        w.advance_completions(2);
        assert_eq!(w.oldest_not_done(), 2);
    }

    #[test]
    fn commit_width_respected() {
        let mut w = Window::new(8);
        for s in 0..4 {
            w.dispatch(alu(s, 1 + (s as u8 % 3), 0, 0));
        }
        for s in 0..4 {
            w.mark_issued(s, Some(1));
        }
        w.advance_completions(1);
        assert_eq!(w.commit(2).len(), 2);
        assert_eq!(w.commit(2).len(), 2);
    }

    #[test]
    fn load_pending_completion_via_set_complete_at() {
        let mut w = Window::new(8);
        let ld = DynInst {
            seq: 0,
            pc: 0,
            addr: Some(0x40),
            taken: None,
            inst: Inst::Load {
                width: Width::Word,
                rd: Reg::new(1),
                base: Reg::new(2),
                offset: 0,
            },
        };
        w.dispatch(ld);
        w.dispatch(alu(1, 2, 1, 0)); // uses the loaded r1
        w.mark_issued(0, None); // completion unknown until grant
        w.advance_completions(100);
        assert!(!w.is_done(0));
        w.set_complete_at(0, 101);
        w.advance_completions(101);
        assert!(w.is_done(0));
        assert_eq!(w.ready_seqs(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "full window")]
    fn overfull_dispatch_panics() {
        let mut w = Window::new(1);
        w.dispatch(alu(0, 1, 0, 0));
        w.dispatch(alu(1, 2, 0, 0));
    }

    #[test]
    #[should_panic(expected = "out of program order")]
    fn out_of_order_dispatch_panics() {
        let mut w = Window::new(4);
        w.dispatch(alu(1, 1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "outside the live window")]
    fn aliased_slot_outside_the_window_panics() {
        // Capacity 5 rounds up to 8 slots: seq 8 shares seq 0's slot.
        let mut w = Window::new(5);
        for s in 0..4 {
            w.dispatch(alu(s, 1, 0, 0));
        }
        w.meta(8);
    }

    fn save(w: &Window) -> Vec<u8> {
        let mut out = StateWriter::new();
        w.save_state(&mut out);
        out.into_bytes()
    }

    fn load(capacity: usize, bytes: &[u8], text: &[Inst]) -> Result<Window, SnapError> {
        let mut w = Window::new(capacity);
        w.load_state(&mut StateReader::new(bytes), text)?;
        Ok(w)
    }

    /// Runs a window of `capacity` entries through at least four ring
    /// wraps. The window is kept full of groups — a producer of `r2`
    /// followed by stores based on `r2` — so wakeup edges are live at
    /// every wrap. Each round snapshots the window, restores it into a
    /// fresh one (which must re-save to the same bytes) and continues on
    /// the restored copy; then retires the oldest group, whose producer
    /// must wake its stores' addresses in dispatch order.
    fn ring_wraps_with_live_edges(capacity: usize) {
        let text = [
            // r2 = r3 + r0; r3 has no producer.
            alu(0, 2, 3, 0).inst,
            // Store r1 to (r2): one address edge.
            store(0, 0).inst,
            // Store r2 to (r2): two address edges from one producer.
            Inst::Store {
                width: Width::Word,
                rs: Reg::new(2),
                base: Reg::new(2),
                offset: 0,
            },
        ];
        let mk = |seq: u64, pc: usize| DynInst {
            seq,
            pc: pc as u32,
            addr: (pc > 0).then_some(0x100 + 8 * seq),
            taken: None,
            inst: text[pc],
        };
        let mut w = Window::new(capacity);
        let mut groups: std::collections::VecDeque<Vec<u64>> = Default::default();
        let (mut next, mut now, mut round) = (0u64, 0u64, 0usize);
        let wraps_end = 4 * capacity.next_power_of_two() as u64;
        while next < wraps_end {
            loop {
                let size = 2 + (round * 7 + groups.len()) % (capacity.min(64) - 1);
                if w.len() + size > capacity {
                    break;
                }
                let group: Vec<u64> = (next..next + size as u64).collect();
                for &seq in &group {
                    let pc = if seq == next {
                        0
                    } else {
                        1 + (seq % 3 == 0) as usize
                    };
                    w.dispatch(mk(seq, pc));
                }
                next += size as u64;
                groups.push_back(group);
            }
            assert_eq!(
                w.drain_addr_ready().count(),
                0,
                "every store waits on its producer"
            );

            let bytes = save(&w);
            w = load(capacity, &bytes, &text).expect("window snapshot restores");
            assert_eq!(save(&w), bytes, "save -> load -> save changed the bytes");

            let group = groups.pop_front().expect("window holds a group");
            let (producer, stores) = (group[0], &group[1..]);
            now += 1;
            w.mark_issued(producer, Some(now));
            w.advance_completions(now);
            let woken: Vec<u64> = w.drain_addr_ready().collect();
            assert_eq!(
                woken, stores,
                "round {round}: stores woken out of dispatch order"
            );
            assert_eq!(&w.ready_seqs()[..stores.len()], stores);
            now += 1;
            for &seq in stores {
                w.mark_issued(seq, Some(now));
                w.mark_access_done(seq);
            }
            w.advance_completions(now);
            let retired: Vec<u64> = w.commit(group.len() as u32).iter().map(|d| d.seq).collect();
            assert_eq!(retired, group);
            round += 1;
        }
    }

    #[test]
    fn ring_wraps_keep_snapshots_and_wake_order_at_capacity_5() {
        ring_wraps_with_live_edges(5);
    }

    #[test]
    fn ring_wraps_keep_snapshots_and_wake_order_at_capacity_1000() {
        ring_wraps_with_live_edges(1000);
    }

    /// One window entry in `save_state`'s encoding.
    struct RawEntry {
        di: DynInst,
        state: State,
        remaining: u32,
        deps: Vec<u64>,
    }

    /// Encodes a window stream by hand (no address edges, no stores):
    /// `producer` maps registers to seqs, `completions` lists events.
    fn encode(
        base: u64,
        entries: &[RawEntry],
        producer: &[(usize, u64)],
        completions: &[(u64, u64)],
    ) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64(base);
        w.put_usize(entries.len());
        for e in entries {
            e.di.save_slim(&mut w);
            w.put_u8(e.state.tag());
            w.put_u32(e.remaining);
            w.put_u32(0);
            w.put_usize(e.deps.len());
            for &d in &e.deps {
                w.put_u64(d);
                w.put_bool(false);
            }
            w.put_bool(false);
        }
        for r in 0..64 {
            w.put_opt_u64(producer.iter().find(|p| p.0 == r).map(|p| p.1));
        }
        w.put_usize(completions.len());
        for &(at, seq) in completions {
            w.put_u64(at);
            w.put_u64(seq);
        }
        w.put_usize(0);
        w.into_bytes()
    }

    #[test]
    fn load_state_rejects_inconsistent_windows() {
        // r1, r2, r5 independent; seq 3 computes r3 = r1 + r2.
        let insts = [
            alu(0, 1, 0, 0),
            alu(1, 2, 0, 0),
            alu(2, 5, 0, 0),
            alu(3, 3, 1, 2),
        ];
        let text: Vec<Inst> = insts.iter().map(|d| d.inst).collect();
        let mut w = Window::new(8);
        for d in insts {
            w.dispatch(d);
        }
        w.mark_issued(0, Some(5));
        let entries = || {
            let raw = |i: usize, state, remaining, deps: Vec<u64>| RawEntry {
                di: insts[i],
                state,
                remaining,
                deps,
            };
            vec![
                raw(0, State::Issued, 0, vec![3]),
                raw(1, State::Ready, 0, vec![3]),
                raw(2, State::Ready, 0, vec![]),
                raw(3, State::Waiting, 2, vec![]),
            ]
        };
        let producer = [(1, 0), (2, 1), (5, 2), (3, 3)];
        let completions = [(5, 0)];
        let good = encode(0, &entries(), &producer, &completions);
        assert_eq!(good, save(&w), "hand encoding drifted from save_state");
        assert!(load(8, &good, &text).is_ok());

        let corrupt = |bytes: Vec<u8>, what: &str| match load(8, &bytes, &text) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("{what}: expected SnapError::Corrupt, got {other:?}"),
        };
        // An entry whose seq is not base_seq + its position.
        let mut e = entries();
        e[1].di.seq = 7;
        corrupt(encode(0, &e, &producer, &completions), "misplaced seq");
        // A dependent outside the live window.
        let mut e = entries();
        e[0].deps.push(6);
        corrupt(
            encode(0, &e, &producer, &completions),
            "dependent past the window",
        );
        // A consumer listed under three producers.
        let mut e = entries();
        e[2].deps.push(3);
        e[3].remaining = 3;
        corrupt(encode(0, &e, &producer, &completions), "three producers");
        // Declared producer count differs from the edges listed.
        let mut e = entries();
        e[3].remaining = 1;
        corrupt(
            encode(0, &e, &producer, &completions),
            "remaining disagrees with edges",
        );
        // A producer-map seq past the window end.
        let mut p = producer.to_vec();
        p.push((4, 9));
        corrupt(
            encode(0, &entries(), &p, &completions),
            "producer past the window",
        );
        // A completion event for an entry that is not issued.
        corrupt(
            encode(0, &entries(), &producer, &[(5, 1)]),
            "completion for a ready entry",
        );
    }
}
