//! Property tests: structural invariants of every port model under
//! arbitrary ready lists (DESIGN.md §7).

use proptest::prelude::*;

use hbdc_core::{CombinePolicy, MemRequest, PortConfig};
use hbdc_mem::BankMapper;

/// An age-ordered ready list: ids are positions (strictly increasing, the
/// `Offered` contract), addresses span a 128KB region, 8-byte aligned.
fn arb_ready() -> impl Strategy<Value = Vec<MemRequest>> {
    prop::collection::vec((0u64..4096, any::<bool>()), 0..40).prop_map(|slots| {
        slots
            .into_iter()
            .enumerate()
            .map(|(i, (slot, is_store))| MemRequest {
                id: i as u64,
                addr: slot * 8 % 0x20000,
                is_store,
            })
            .collect()
    })
}

fn all_configs() -> Vec<PortConfig> {
    vec![
        PortConfig::Ideal { ports: 1 },
        PortConfig::Ideal { ports: 7 },
        PortConfig::Replicated { ports: 3 },
        PortConfig::banked(4),
        PortConfig::banked(16),
        PortConfig::lbic(2, 2),
        PortConfig::lbic(4, 4),
        PortConfig::Lbic {
            banks: 4,
            line_ports: 2,
            store_queue: 2,
            policy: CombinePolicy::LargestGroup,
        },
    ]
}

proptest! {
    #[test]
    fn grants_are_sorted_unique_bounded(rounds in prop::collection::vec(arb_ready(), 1..20)) {
        for config in all_configs() {
            let mut model = config.build(32);
            for ready in &rounds {
                let granted = model.arbitrate(ready);
                model.tick();
                prop_assert!(granted.len() <= model.peak_per_cycle(), "{}", model.label());
                prop_assert!(granted.windows(2).all(|w| w[0].id < w[1].id),
                    "{}: not strictly increasing", model.label());
                prop_assert!(granted.iter().all(|g| ready.get(g.id as usize) == Some(g)),
                    "{}: granted a request that was not offered", model.label());
            }
        }
    }

    #[test]
    fn ideal_grants_exactly_the_oldest_prefix(ready in arb_ready()) {
        let mut model = PortConfig::Ideal { ports: 5 }.build(32);
        let granted = model.arbitrate(&ready);
        prop_assert_eq!(granted, &ready[..ready.len().min(5)]);
    }

    #[test]
    fn replicated_stores_are_always_alone(rounds in prop::collection::vec(arb_ready(), 1..10)) {
        let mut model = PortConfig::Replicated { ports: 4 }.build(32);
        for ready in &rounds {
            let granted = model.arbitrate(ready);
            model.tick();
            let has_store = granted.iter().any(|g| g.is_store);
            if has_store {
                prop_assert_eq!(granted.len(), 1, "a broadcast store must go alone");
            }
        }
    }

    #[test]
    fn banked_grants_at_most_one_per_bank(ready in arb_ready()) {
        let mapper = BankMapper::bit_select(4, 32);
        let mut model = PortConfig::banked(4).build(32);
        let granted = model.arbitrate(&ready);
        let mut seen = [false; 4];
        for g in &granted {
            let bank = mapper.bank_of(g.addr) as usize;
            prop_assert!(!seen[bank], "two grants in bank {}", bank);
            seen[bank] = true;
        }
    }

    #[test]
    fn banked_is_age_greedy(ready in arb_ready()) {
        // Every non-granted request must conflict with an older grant in
        // its bank (work conservation).
        let mapper = BankMapper::bit_select(4, 32);
        let mut model = PortConfig::banked(4).build(32);
        let granted = model.arbitrate(&ready);
        for r in &ready {
            if granted.contains(r) {
                continue;
            }
            let bank = mapper.bank_of(r.addr);
            let blocked_by_older = granted
                .iter()
                .any(|g| g.id < r.id && mapper.bank_of(g.addr) == bank);
            prop_assert!(blocked_by_older, "request {} refused without cause", r.id);
        }
    }

    #[test]
    fn lbic_grants_single_line_per_bank(ready in arb_ready()) {
        let mapper = BankMapper::bit_select(4, 32);
        for policy in [CombinePolicy::LeadingRequest, CombinePolicy::LargestGroup] {
            let mut model = PortConfig::Lbic {
                banks: 4,
                line_ports: 3,
                store_queue: 8,
                policy,
            }
            .build(32);
            let granted = model.arbitrate(&ready);
            let mut per_bank: [Option<u64>; 4] = [None; 4];
            let mut counts = [0usize; 4];
            for g in &granted {
                let bank = mapper.bank_of(g.addr) as usize;
                let line = g.addr >> 5;
                match per_bank[bank] {
                    None => per_bank[bank] = Some(line),
                    Some(l) => prop_assert_eq!(l, line,
                        "{:?}: two lines granted in bank {}", policy, bank),
                }
                counts[bank] += 1;
                prop_assert!(counts[bank] <= 3, "line-port cap exceeded");
            }
        }
    }

    #[test]
    fn lbic_dominates_banked_grant_count(ready in arb_ready()) {
        // With an empty store queue, the LBIC's grant set in a single
        // round is always at least as large as traditional banking's: the
        // leading requests coincide, and combining only adds.
        let mut banked = PortConfig::banked(4).build(32);
        let mut lbic = PortConfig::lbic(4, 4).build(32);
        let b = banked.arbitrate(&ready).len();
        let l = lbic.arbitrate(&ready).len();
        prop_assert!(l >= b, "LBIC granted {l} < banked {b}");
    }

    #[test]
    fn stats_account_every_offer(rounds in prop::collection::vec(arb_ready(), 1..12)) {
        for config in all_configs() {
            let mut model = config.build(32);
            let mut offered = 0u64;
            let mut granted = 0u64;
            for ready in &rounds {
                offered += ready.len() as u64;
                granted += model.arbitrate(ready).len() as u64;
                model.tick();
            }
            prop_assert_eq!(model.stats().offered(), offered);
            prop_assert_eq!(model.stats().granted(), granted);
            prop_assert_eq!(model.stats().cycles(), rounds.len() as u64);
        }
    }
}
