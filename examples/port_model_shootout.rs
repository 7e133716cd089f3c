//! Port-model shootout on a real benchmark analog, including the paper's
//! Figure 4c worked example.
//!
//! First replays the Figure 4c access pattern — st/ld/ld/st over two
//! banks — showing the cycle counts the paper derives (2-bank: 2 cycles,
//! 2-port replicated: 3 cycles, 2x2 LBIC: 1 cycle). Then runs the `swim`
//! analog (the most bank-conflicted benchmark) under comparable models.
//!
//! Run with: `cargo run --release --example port_model_shootout`

use hbdc::core::{MemRequest, PortModel};
use hbdc::prelude::*;

/// Replays `pattern` through `model`, counting the cycles needed to grant
/// every reference.
fn cycles_to_drain(model: &mut dyn PortModel, pattern: &[MemRequest]) -> u32 {
    let mut pending: Vec<MemRequest> = pattern.to_vec();
    let mut cycles = 0;
    while !pending.is_empty() {
        let granted = model.arbitrate(&pending);
        model.tick();
        cycles += 1;
        pending.retain(|r| !granted.contains(r));
        assert!(cycles < 100, "pattern never drains");
    }
    cycles
}

fn main() {
    // ---- Figure 4c ----
    // Two banks, 32-byte lines: line 12 (0x180..) is bank 0, line 11
    // (0x160..) is bank 1.
    let pattern = [
        MemRequest::store(0, 0x180), // bank 0, line 12, offset 0
        MemRequest::load(1, 0x164),  // bank 1, line 11, offset 4
        MemRequest::load(2, 0x168),  // bank 1, line 11, offset 8
        MemRequest::store(3, 0x18c), // bank 0, line 12, offset 12
    ];
    println!("Figure 4c: st/ld/ld/st across two banks, one line each");
    for config in [
        PortConfig::banked(2),
        PortConfig::Replicated { ports: 2 },
        PortConfig::lbic(2, 2),
    ] {
        let mut model = config.build(32);
        let cycles = cycles_to_drain(model.as_mut(), &pattern);
        println!("  {:8} takes {cycles} cycle(s)", model.label());
    }
    println!("  (paper: 2-bank = 2, replicated = 3, 2x2 LBIC = 1)\n");

    // ---- swim shootout ----
    let bench = by_name("swim").expect("registered benchmark");
    let program = bench.build(Scale::Small);
    println!("swim analog, Table-1 machine:");
    println!("  model      ipc    conflicts  combined");
    for port in [
        PortConfig::Ideal { ports: 4 },
        PortConfig::Replicated { ports: 4 },
        PortConfig::banked(4),
        PortConfig::lbic(4, 2),
        PortConfig::lbic(4, 4),
    ] {
        let report = Simulator::new(
            &program,
            CpuConfig::default(),
            HierarchyConfig::default(),
            port,
        )
        .run()
        .expect("example kernel simulates cleanly");
        println!(
            "  {:9} {:6.2}  {:9}  {:8}",
            report.port_label,
            report.ipc(),
            report.bank_conflicts,
            report.combined,
        );
    }
}
