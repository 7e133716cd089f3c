//! Traditional multi-banking (interleaved cache).

use hbdc_mem::BankMapper;
use hbdc_snap::{SnapError, StateReader, StateWriter};

use crate::audit::{self, Violation};
use crate::model::PortModel;
use crate::request::{MemRequest, Offered};
use crate::stats::ArbStats;

/// A traditional multi-bank cache: `M` line-interleaved, single-ported
/// banks behind a crossbar (paper §3.2, Figure 2b; the MIPS R10000
/// scheme).
///
/// Each bank services at most one reference per cycle; references are
/// granted oldest-first, and a reference whose bank is already taken this
/// cycle stalls — a *bank conflict*. Bank selection is bit selection on
/// the line address (Figure 2c), the paper's choice; alternative mappers
/// are available through [`BankedPorts::with_mapper`] for the
/// bank-selection ablation.
///
/// # Examples
///
/// ```
/// use hbdc_core::{BankedPorts, MemRequest, PortModel};
///
/// let mut m = BankedPorts::new(2, 32);
/// let ready = vec![
///     MemRequest::load(0, 0x00), // bank 0
///     MemRequest::load(1, 0x20), // bank 1
///     MemRequest::load(2, 0x40), // bank 0 again: conflict
/// ];
/// assert_eq!(m.arbitrate(&ready), ready[..2]);
/// ```
#[derive(Debug)]
pub struct BankedPorts {
    mapper: BankMapper,
    taken: Vec<bool>, // scratch, one per bank
    stats: ArbStats,
}

impl BankedPorts {
    /// Creates a multi-bank model with bit-selection mapping.
    ///
    /// # Panics
    ///
    /// Panics unless `banks` is a power of two (and at least 1).
    pub fn new(banks: u32, line_size: u64) -> Self {
        Self::with_mapper(BankMapper::bit_select(banks, line_size))
    }

    /// Creates a multi-bank model with an explicit bank-selection function.
    pub fn with_mapper(mapper: BankMapper) -> Self {
        let banks = mapper.banks() as usize;
        Self {
            mapper,
            taken: vec![false; banks],
            stats: ArbStats::new(banks),
        }
    }

    /// The bank-selection function in use.
    pub fn mapper(&self) -> &BankMapper {
        &self.mapper
    }
}

impl PortModel for BankedPorts {
    // One oldest-first walk over the offered addresses: the first
    // reference to each bank claims it, every later one conflicts.
    fn arbitrate_offered(&mut self, offered: Offered<'_>, granted: &mut Vec<MemRequest>) {
        granted.clear();
        self.taken.iter_mut().for_each(|t| *t = false);
        let banks = self.taken.len();
        let addrs = offered.addrs();
        let mut conflicts = 0u64;
        for (i, &addr) in addrs.iter().enumerate() {
            // Once every bank is claimed no later request can win, so the
            // rest of the (age-ordered) view is all conflicts — counting
            // it wholesale keeps the round O(banks) even when ports
            // saturate and the backlog grows long.
            if granted.len() == banks {
                conflicts += (addrs.len() - i) as u64;
                break;
            }
            let bank = self.mapper.bank_of(addr) as usize;
            if self.taken[bank] {
                conflicts += 1;
            } else {
                self.taken[bank] = true;
                granted.push(offered.get(i));
            }
        }
        if conflicts > 0 {
            self.stats.bump("bank_conflicts", conflicts);
        }
        self.stats.record_round(addrs.len(), granted.len());
    }

    fn tick(&mut self) {
        self.stats.record_tick();
    }

    fn peak_per_cycle(&self) -> usize {
        self.mapper.banks() as usize
    }

    fn label(&self) -> String {
        format!("Bank-{}", self.mapper.banks())
    }

    fn stats(&self) -> &ArbStats {
        &self.stats
    }

    // `taken` is per-round scratch (cleared at the top of every
    // arbitration), so the statistics are the only persistent state.
    fn save_state(&self, w: &mut StateWriter) {
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.stats.load_state(r)
    }

    /// Banked legality: at most one grant per bank per cycle, and the
    /// grant must be the *oldest* ready reference mapping to that bank
    /// (nothing but an earlier same-bank reference can deny a request).
    fn audit_round(&self, offered: Offered<'_>, granted: &[MemRequest], out: &mut Vec<Violation>) {
        audit::check_generic(self.peak_per_cycle(), offered, granted, out);
        let banks = self.mapper.banks() as usize;
        let mut oldest_ready: Vec<Option<u64>> = vec![None; banks];
        for r in offered.iter() {
            let b = self.mapper.bank_of(r.addr) as usize;
            oldest_ready[b].get_or_insert(r.id);
        }
        let mut granted_in: Vec<Option<u64>> = vec![None; banks];
        for g in granted {
            let b = self.mapper.bank_of(g.addr) as usize;
            match granted_in[b] {
                Some(prev) => out.push(Violation::new(
                    "banked-double-grant",
                    format!(
                        "bank {b} granted twice in one cycle (ids {prev} and {})",
                        g.id
                    ),
                )),
                None => {
                    granted_in[b] = Some(g.id);
                    if oldest_ready[b] != Some(g.id) {
                        out.push(Violation::new(
                            "banked-age-priority",
                            format!(
                                "bank {b}: granted id {} but oldest ready is {:?}",
                                g.id, oldest_ready[b]
                            ),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_banks_all_proceed() {
        let mut m = BankedPorts::new(4, 32);
        let ready: Vec<MemRequest> = (0..4).map(|i| MemRequest::load(i, i * 32)).collect();
        assert_eq!(m.arbitrate(&ready), ready);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 0);
    }

    #[test]
    fn same_bank_conflicts_serialize() {
        let mut m = BankedPorts::new(4, 32);
        // Same line => same bank; different line but stride 4*32 => same bank.
        let ready = vec![
            MemRequest::load(0, 0x00),
            MemRequest::load(1, 0x08), // same line as #0: still a conflict here!
            MemRequest::load(2, 0x80), // 4 lines later: same bank 0
            MemRequest::load(3, 0x20), // bank 1
        ];
        assert_eq!(m.arbitrate(&ready), vec![ready[0], ready[3]]);
        assert_eq!(m.stats().extra_counter("bank_conflicts"), 2);
    }

    #[test]
    fn stores_use_banks_like_loads() {
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![MemRequest::store(0, 0x00), MemRequest::store(1, 0x20)];
        assert_eq!(m.arbitrate(&ready), ready);
    }

    #[test]
    fn age_priority_within_bank() {
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![
            MemRequest::load(3, 0x40), // bank 0, oldest
            MemRequest::load(9, 0x00), // bank 0, younger — loses
        ];
        assert_eq!(m.arbitrate(&ready), ready[..1]);
    }

    #[test]
    fn single_bank_is_single_port() {
        let mut m = BankedPorts::new(1, 32);
        let ready: Vec<MemRequest> = (0..3).map(|i| MemRequest::load(i, i * 64)).collect();
        assert_eq!(m.arbitrate(&ready), ready[..1]);
        assert_eq!(m.peak_per_cycle(), 1);
    }

    #[test]
    fn scratch_state_resets_between_cycles() {
        let mut m = BankedPorts::new(2, 32);
        let ready = vec![MemRequest::load(0, 0x00)];
        assert_eq!(m.arbitrate(&ready), ready);
        m.tick();
        // Bank 0 must be free again next cycle.
        assert_eq!(m.arbitrate(&ready), ready);
    }

    #[test]
    fn label() {
        assert_eq!(BankedPorts::new(16, 32).label(), "Bank-16");
    }

    #[test]
    fn saturation_counts_tail_conflicts() {
        // Two banks, six requests: the oldest reference of each bank wins
        // and, once both banks are claimed, the remaining tail is counted
        // as conflicts wholesale — 1 conflict before saturation (id 1),
        // 3 after it.
        let ready = vec![
            MemRequest::load(0, 0x00),  // bank 0: granted
            MemRequest::load(1, 0x40),  // bank 0: conflict
            MemRequest::store(2, 0x60), // bank 1: granted, banks saturate
            MemRequest::load(3, 0x20),  // tail
            MemRequest::store(4, 0x80), // tail
            MemRequest::load(5, 0xa0),  // tail
        ];
        let mut m = BankedPorts::new(2, 32);
        assert_eq!(m.arbitrate(&ready), vec![ready[0], ready[2]]);
        m.tick();
        let s = m.stats();
        assert_eq!(
            (s.offered(), s.granted(), s.rounds(), s.cycles()),
            (6, 2, 1, 1)
        );
        assert_eq!(s.extra(), [("bank_conflicts", 4)]);
    }
}
