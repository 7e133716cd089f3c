//! Integration test for the paper's Figure 4c worked example.
//!
//! "Consider the references in Figure 4c to be ready entries in a LSQ.
//! Whereas a 2-way multi-bank cache will require two cycles to execute
//! these load/stores …, a multi-ported cache by replication will use
//! three cycles (one cycle per store, plus one for the two loads). A 2x2
//! LBIC, however, will be able to handle all four requests in a single
//! cycle."

use hbdc::core::MemRequest;
use hbdc::prelude::*;

/// st(B0,L12), ld(B1,L11), ld(B1,L11), st(B0,L12) under 2 banks with
/// 32-byte lines (line 12 = bank 0, line 11 = bank 1).
fn figure4c_pattern() -> Vec<MemRequest> {
    vec![
        MemRequest::store(0, 0x180),
        MemRequest::load(1, 0x164),
        MemRequest::load(2, 0x168),
        MemRequest::store(3, 0x18c),
    ]
}

fn cycles_to_drain(config: PortConfig) -> u32 {
    let mut model = config.build(32);
    let mut pending = figure4c_pattern();
    let mut cycles = 0;
    while !pending.is_empty() {
        let granted = model.arbitrate(&pending);
        model.tick();
        cycles += 1;
        pending.retain(|r| !granted.contains(r));
        assert!(cycles < 10, "pattern never drains under {}", model.label());
    }
    cycles
}

#[test]
fn two_bank_cache_takes_two_cycles() {
    assert_eq!(cycles_to_drain(PortConfig::banked(2)), 2);
}

#[test]
fn replicated_two_port_takes_three_cycles() {
    assert_eq!(cycles_to_drain(PortConfig::Replicated { ports: 2 }), 3);
}

#[test]
fn lbic_2x2_takes_one_cycle() {
    assert_eq!(cycles_to_drain(PortConfig::lbic(2, 2)), 1);
}

#[test]
fn ideal_four_port_takes_one_cycle() {
    assert_eq!(cycles_to_drain(PortConfig::Ideal { ports: 4 }), 1);
}

/// The same pattern end-to-end: an assembly program whose LSQ presents
/// exactly this shape of traffic (two same-line stores in one bank, two
/// same-line loads in the other) must finish faster on the 2x2 LBIC than
/// on the 2-port replicated cache.
#[test]
fn end_to_end_figure4c_traffic_favors_lbic() {
    let src = r#"
        .data
        banks: .space 8192
        .text
        main:
            la   r8, banks       # lines alternate banks from here
            li   r15, 500
        loop:
            sw   r0, 0(r8)       # bank 0, line k
            lw   r1, 36(r8)      # bank 1, line k+1
            lw   r2, 40(r8)      # bank 1, line k+1 (same line)
            sw   r0, 12(r8)      # bank 0, line k (same line)
            addi r8, r8, 64
            la   r16, banks+8000
            blt  r8, r16, nw
            la   r8, banks
        nw:
            addi r15, r15, -1
            bnez r15, loop
            halt
    "#;
    let program = assemble(src).expect("kernel assembles");
    let run = |port: PortConfig| {
        Simulator::new(
            &program,
            CpuConfig::default(),
            HierarchyConfig::default(),
            port,
        )
        .run()
        .expect("kernel simulates cleanly")
    };
    let lbic = run(PortConfig::lbic(2, 2));
    let repl = run(PortConfig::Replicated { ports: 2 });
    let bank = run(PortConfig::banked(2));
    assert!(
        lbic.ipc() > repl.ipc(),
        "LBIC {} vs replicated {}",
        lbic.ipc(),
        repl.ipc()
    );
    assert!(
        lbic.ipc() > bank.ipc(),
        "LBIC {} vs banked {}",
        lbic.ipc(),
        bank.ipc()
    );
    assert!(lbic.combined > 0, "LBIC must actually combine");
}
