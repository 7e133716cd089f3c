//! Miss status holding registers (MSHRs) for the non-blocking L1.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hbdc_snap::{MulBuildHasher, SnapError, StateReader, StateWriter};

/// Outcome of registering a miss with the [`MshrFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the miss goes out to the next level.
    Allocated,
    /// The line already has an outstanding miss; this reference merged
    /// into it and will complete when the original fill returns.
    Merged {
        /// Cycle at which the outstanding fill completes.
        ready_at: u64,
    },
    /// All MSHRs are busy; the reference must retry later. (With the
    /// paper's "one outstanding miss per physical register" provisioning —
    /// 64 entries here — this is rare but must still be modelled.)
    Full,
}

/// A file of miss status holding registers keyed by line address.
///
/// Tracks outstanding fills so that (a) secondary misses to an in-flight
/// line merge instead of issuing duplicate requests, and (b) total
/// outstanding misses are bounded.
///
/// # Examples
///
/// ```
/// use hbdc_mem::{MshrFile, MshrOutcome};
///
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.register(0x100, 15), MshrOutcome::Allocated);
/// assert_eq!(mshrs.register(0x100, 15), MshrOutcome::Merged { ready_at: 15 });
/// mshrs.retire_completed(20);
/// assert_eq!(mshrs.outstanding(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    // line address -> completion cycle
    entries: HashMap<u64, u64, MulBuildHasher>,
    // Min-heap of (completion cycle, line), kept in lockstep with
    // `entries`: a heap entry exists iff the map entry does. Merges never
    // push (the line is already present) and a line's completion cycle is
    // never rewritten, so there is no lazy deletion — retirement pops the
    // heap and removes from the map together. The top is therefore always
    // the earliest outstanding fill.
    by_ready: BinaryHeap<Reverse<(u64, u64)>>,
    merges: u64,
    rejects: u64,
}

impl MshrFile {
    /// Creates a file with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Self {
            capacity,
            entries: HashMap::default(),
            by_ready: BinaryHeap::new(),
            merges: 0,
            rejects: 0,
        }
    }

    /// Registers a miss on `line_addr` that will complete at `ready_at`.
    pub fn register(&mut self, line_addr: u64, ready_at: u64) -> MshrOutcome {
        if let Some(&existing) = self.entries.get(&line_addr) {
            self.merges += 1;
            return MshrOutcome::Merged { ready_at: existing };
        }
        if self.entries.len() >= self.capacity {
            self.rejects += 1;
            return MshrOutcome::Full;
        }
        self.entries.insert(line_addr, ready_at);
        self.by_ready.push(Reverse((ready_at, line_addr)));
        MshrOutcome::Allocated
    }

    /// Completion cycle of the outstanding miss on `line_addr`, if any.
    pub fn ready_at(&self, line_addr: u64) -> Option<u64> {
        self.entries.get(&line_addr).copied()
    }

    /// Frees every MSHR whose fill has completed by cycle `now`.
    ///
    /// Event-driven: pops completed fills off the min-ready heap, so a
    /// call where nothing is due is a single O(1) peek rather than a
    /// sweep over every outstanding entry.
    pub fn retire_completed(&mut self, now: u64) {
        while let Some(&Reverse((ready, line))) = self.by_ready.peek() {
            if ready > now {
                break;
            }
            self.by_ready.pop();
            let removed = self.entries.remove(&line);
            debug_assert_eq!(removed, Some(ready), "heap/map desync on line {line:#x}");
        }
    }

    /// Completion cycle of the earliest outstanding fill still strictly
    /// in the future at `now`. Entries at or before `now` are already
    /// complete (they linger until the next access retires them) and are
    /// not future events.
    pub fn next_ready_after(&self, now: u64) -> Option<u64> {
        match self.by_ready.peek() {
            // Fast path: the earliest fill is still in the future.
            Some(&Reverse((ready, _))) if ready > now => Some(ready),
            None => None,
            // A completed-but-unretired fill sits on top (a store's fill,
            // say, that nothing probed since it landed): fall back to a
            // scan for the earliest future one. Bounded by the file
            // capacity and only reachable between retirements.
            Some(_) => self
                .by_ready
                .iter()
                .map(|&Reverse((r, _))| r)
                .filter(|&r| r > now)
                .min(),
        }
    }

    /// Number of misses currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Number of misses whose fills are still in flight strictly after
    /// `now` — [`outstanding`](Self::outstanding) as it would read once
    /// everything due by `now` is retired, without mutating anything.
    pub fn outstanding_after(&self, now: u64) -> usize {
        self.entries.values().filter(|&&r| r > now).count()
    }

    /// Whether a new (non-merging) miss can be accepted.
    pub fn has_free_entry(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Total secondary misses merged into an existing entry.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total misses rejected because the file was full.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Serializes outstanding misses in ascending line order (so the byte
    /// stream is deterministic) plus the merge/reject counters.
    pub fn save_state(&self, w: &mut StateWriter) {
        let mut lines: Vec<u64> = self.entries.keys().copied().collect();
        lines.sort_unstable();
        w.put_usize(lines.len());
        for line in lines {
            w.put_u64(line);
            w.put_u64(self.entries[&line]);
        }
        w.put_u64(self.merges);
        w.put_u64(self.rejects);
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if more entries are serialized than this
    /// file's capacity, or any decode error.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "{n} outstanding misses exceed the MSHR capacity {}",
                self.capacity
            )));
        }
        self.entries.clear();
        self.by_ready.clear();
        for _ in 0..n {
            let line = r.get_u64()?;
            let ready = r.get_u64()?;
            self.entries.insert(line, ready);
            self.by_ready.push(Reverse((ready, line)));
        }
        self.merges = r.get_u64()?;
        self.rejects = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.register(0x40, 10), MshrOutcome::Allocated);
        assert_eq!(m.register(0x40, 99), MshrOutcome::Merged { ready_at: 10 });
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.register(0x00, 5), MshrOutcome::Allocated);
        assert_eq!(m.register(0x40, 5), MshrOutcome::Allocated);
        assert_eq!(m.register(0x80, 5), MshrOutcome::Full);
        assert_eq!(m.rejects(), 1);
        assert!(!m.has_free_entry());
        // Merging still works when full.
        assert_eq!(m.register(0x40, 9), MshrOutcome::Merged { ready_at: 5 });
    }

    #[test]
    fn retire_frees_only_completed() {
        let mut m = MshrFile::new(4);
        m.register(0x00, 5);
        m.register(0x40, 10);
        m.retire_completed(5);
        assert_eq!(m.outstanding(), 1);
        assert_eq!(m.ready_at(0x40), Some(10));
        assert_eq!(m.ready_at(0x00), None);
    }

    #[test]
    fn next_ready_skips_already_completed_fills() {
        let mut m = MshrFile::new(4);
        m.register(0x00, 5);
        m.register(0x40, 10);
        // Entry at cycle 5 is complete by now=7 but not yet retired: it
        // must not masquerade as a future event.
        assert_eq!(m.next_ready_after(7), Some(10));
        assert_eq!(m.next_ready_after(4), Some(5));
        assert_eq!(m.next_ready_after(10), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }

    #[test]
    fn state_roundtrip_preserves_outstanding_misses() {
        let mut m = MshrFile::new(4);
        m.register(0x40, 10);
        m.register(0x80, 20);
        m.register(0x40, 99); // merge
        let mut w = StateWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = MshrFile::new(4);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(restored.ready_at(0x40), Some(10));
        assert_eq!(restored.ready_at(0x80), Some(20));
        assert_eq!(restored.outstanding(), 2);
        assert_eq!(restored.merges(), 1);
    }

    #[test]
    fn heap_survives_roundtrip_and_retirement() {
        let mut m = MshrFile::new(4);
        m.register(0x00, 5);
        m.register(0x40, 10);
        m.register(0x80, 10);
        let mut w = StateWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = MshrFile::new(4);
        restored.load_state(&mut StateReader::new(&bytes)).unwrap();
        // The rebuilt heap must drive events and retirement exactly as
        // the original's does.
        assert_eq!(restored.next_ready_after(0), Some(5));
        restored.retire_completed(5);
        assert_eq!(restored.outstanding(), 2);
        assert_eq!(restored.next_ready_after(5), Some(10));
        restored.retire_completed(10);
        assert_eq!(restored.outstanding(), 0);
        assert_eq!(restored.next_ready_after(10), None);
        // Freed entries really are reusable capacity.
        for i in 0..4u64 {
            assert_eq!(
                restored.register(0x100 + i * 0x40, 20),
                MshrOutcome::Allocated
            );
        }
        assert_eq!(restored.register(0x300, 20), MshrOutcome::Full);
    }

    #[test]
    fn load_rejects_overcapacity_state() {
        let mut big = MshrFile::new(8);
        for i in 0..8u64 {
            big.register(i * 0x40, 10);
        }
        let mut w = StateWriter::new();
        big.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut small = MshrFile::new(2);
        assert!(matches!(
            small.load_state(&mut StateReader::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }
}
