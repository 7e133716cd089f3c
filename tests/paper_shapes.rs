//! Full-shape assertions against the paper's headline claims at
//! `Scale::Small` (hundreds of thousands of instructions per simulation).
//!
//! These are `#[ignore]`d by default because they simulate the whole
//! benchmark suite — run them explicitly in release mode:
//!
//! ```console
//! cargo test --release --test paper_shapes -- --ignored
//! ```
//!
//! `scripts/check.sh` runs them this way as a required step.
//!
//! Each test encodes one claim from the paper's evaluation; the
//! quantitative record lives in `EXPERIMENTS.md`.

use hbdc::prelude::*;
use hbdc::stats::summary::arithmetic_mean;

fn suite_mean(port: PortConfig, suite: Suite) -> f64 {
    let ipcs: Vec<f64> = all()
        .iter()
        .filter(|b| b.suite() == suite)
        .map(|b| {
            let program = b.build(Scale::Small);
            Simulator::new(
                &program,
                CpuConfig::default(),
                HierarchyConfig::default(),
                port,
            )
            .run()
            .expect("benchmark simulates cleanly")
            .ipc()
        })
        .collect();
    arithmetic_mean(&ipcs)
}

#[test]
#[ignore = "simulates the full suite; run with --release -- --ignored"]
fn true_multiporting_doubles_single_port_throughput() {
    // Paper §3.1: one → two ideal ports buys +89% (int) / +92% (fp).
    for suite in [Suite::Int, Suite::Fp] {
        let one = suite_mean(PortConfig::Ideal { ports: 1 }, suite);
        let two = suite_mean(PortConfig::Ideal { ports: 2 }, suite);
        assert!(
            two / one > 1.4,
            "{suite:?}: 2 ports only {:.2}x of 1 port",
            two / one
        );
    }
}

#[test]
#[ignore = "simulates the full suite; run with --release -- --ignored"]
fn replication_never_beats_ideal_and_suffers_with_stores() {
    for suite in [Suite::Int, Suite::Fp] {
        for ports in [2usize, 4, 8] {
            let ideal = suite_mean(PortConfig::Ideal { ports }, suite);
            let repl = suite_mean(PortConfig::Replicated { ports }, suite);
            assert!(repl <= ideal + 1e-9, "{suite:?} {ports} ports");
        }
    }
    // The gap grows with port count (stores serialize harder).
    let gap = |p| {
        suite_mean(PortConfig::Ideal { ports: p }, Suite::Int)
            - suite_mean(PortConfig::Replicated { ports: p }, Suite::Int)
    };
    assert!(gap(8) > gap(2), "replication gap must widen with ports");
}

#[test]
#[ignore = "simulates the full suite; run with --release -- --ignored"]
fn lbic_2x2_outperforms_its_cost_peers() {
    // Paper §6: the 2x2 LBIC beats the 2-port replicated cache and is at
    // least competitive with the 2-port ideal cache.
    for suite in [Suite::Int, Suite::Fp] {
        let lbic = suite_mean(PortConfig::lbic(2, 2), suite);
        let repl = suite_mean(PortConfig::Replicated { ports: 2 }, suite);
        let ideal = suite_mean(PortConfig::Ideal { ports: 2 }, suite);
        assert!(lbic > repl, "{suite:?}: LBIC {lbic} vs repl {repl}");
        assert!(
            lbic > 0.95 * ideal,
            "{suite:?}: LBIC {lbic} vs ideal-2 {ideal}"
        );
    }
}

#[test]
#[ignore = "simulates the full suite; run with --release -- --ignored"]
fn lbic_4x4_crushes_plain_8_banks_on_specint() {
    // Paper §6: "the 4x4 LBIC also performs slightly better than the
    // 8-bank cache for SPECint … and far better for SPECfp."
    for suite in [Suite::Int, Suite::Fp] {
        let lbic = suite_mean(PortConfig::lbic(4, 4), suite);
        let bank = suite_mean(PortConfig::banked(8), suite);
        assert!(lbic > bank, "{suite:?}: 4x4 {lbic} vs Bank-8 {bank}");
    }
}

#[test]
#[ignore = "simulates the full suite; run with --release -- --ignored"]
fn combining_buys_fp_bandwidth() {
    // Paper §6: for SPECfp, raising N at fixed M yields a solid gain.
    let n2 = suite_mean(PortConfig::lbic(4, 2), Suite::Fp);
    let n4 = suite_mean(PortConfig::lbic(4, 4), Suite::Fp);
    assert!(
        n4 / n2 > 1.05,
        "doubling line ports bought only {:.1}%",
        (n4 / n2 - 1.0) * 100.0
    );
}
