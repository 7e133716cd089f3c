//! Pure helpers of the benchmark harness: report digests, the paper's
//! derived-claim error, the Table 3/4 text layout, seeded cell orders
//! and span self time. The binary in `main.rs` does the timing and I/O.

use hbdc_core::PortConfig;
use hbdc_cpu::SimReport;
use hbdc_snap::fnv1a64;
use hbdc_stats::{ipc, Table};
use hbdc_workloads::{Benchmark, Suite};

/// Record line standing in for a cell that produced no report, so a
/// failed cell always changes the digest.
pub const FAILED_RECORD: &str = "FAILED";

/// The record line of one cell: its `SimReport::to_record()` line, or
/// [`FAILED_RECORD`].
pub fn cell_record(report: Option<&SimReport>) -> String {
    report.map_or_else(|| FAILED_RECORD.to_string(), SimReport::to_record)
}

/// Digest of a matrix: `fnv1a64` over every cell's record line, each
/// followed by `\n`, in matrix (bench-major) order.
pub fn records_digest<S: AsRef<str>>(records: &[S]) -> u64 {
    let mut bytes = Vec::new();
    for r in records {
        bytes.extend_from_slice(r.as_ref().as_bytes());
        bytes.push(b'\n');
    }
    fnv1a64(&bytes)
}

/// Which paper table a matrix regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperTable {
    /// Table 3: True / Repl / Bank, 13 columns.
    Three,
    /// Table 4: six MxN LBIC configurations.
    Four,
}

impl PaperTable {
    /// Parses `3` or `4`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "3" => Some(Self::Three),
            "4" => Some(Self::Four),
            _ => None,
        }
    }

    /// The table's port-model columns, as the experiment binaries define
    /// them.
    pub fn columns(self) -> Vec<(String, PortConfig)> {
        match self {
            Self::Three => hbdc_bench::runner::table3_columns(),
            Self::Four => hbdc_bench::runner::table4_columns(),
        }
    }

    fn title(self) -> &'static str {
        match self {
            Self::Three => "Table 3: IPC for True / Repl / Bank port models",
            Self::Four => "Table 4: IPC for six MxN LBIC configurations",
        }
    }
}

/// Per-suite mean IPC per column over complete rows, as the table
/// binaries compute their "Ave." rows: `(SPECint, SPECfp)`.
pub fn suite_means(
    benches: &[Benchmark],
    reports: &[Vec<Option<SimReport>>],
) -> (Vec<f64>, Vec<f64>) {
    let mut averages = hbdc_bench::runner::SuiteAverages::new();
    for (bench, row) in benches.iter().zip(reports) {
        if let Some(row) = row
            .iter()
            .map(|r| r.as_ref().map(SimReport::ipc))
            .collect::<Option<Vec<f64>>>()
        {
            averages.push(bench.suite(), row);
        }
    }
    (averages.int_means(), averages.fp_means())
}

/// The table block the `table3`/`table4` binaries print to stdout (title
/// line, IPC rows, suite averages), byte for byte, without the derived
/// claims that follow it.
pub fn render_table(
    table: PaperTable,
    benches: &[Benchmark],
    columns: &[(String, PortConfig)],
    reports: &[Vec<Option<SimReport>>],
) -> String {
    let mut headers = vec!["Program".to_string()];
    headers.extend(columns.iter().map(|(name, _)| name.clone()));
    let mut t = Table::new(headers);
    t.numeric();
    let mut printed_fp_rule = false;
    for (bench, row) in benches.iter().zip(reports) {
        if bench.suite() == Suite::Fp && !printed_fp_rule {
            t.rule();
            printed_fp_rule = true;
        }
        let mut cells = vec![bench.name().to_string()];
        cells.extend(row.iter().map(|r| {
            r.as_ref()
                .map_or_else(|| "--".to_string(), |r| ipc(r.ipc()))
        }));
        t.row(cells);
    }
    if benches.len() > 1 {
        t.rule();
        let (int, fp) = suite_means(benches, reports);
        for (label, means) in [("SPECint Ave.", int), ("SPECfp Ave.", fp)] {
            if means.is_empty() {
                continue;
            }
            let mut cells = vec![label.to_string()];
            cells.extend(means.iter().map(|&v| ipc(v)));
            t.row(cells);
        }
    }
    format!("\n{}\n\n{t}\n", table.title())
}

/// Distance in percentage points from `value` to the closed interval
/// `[lo, hi]` (a point claim has `lo == hi`).
fn distance_pp(value: f64, lo: f64, hi: f64) -> f64 {
    if value < lo {
        lo - value
    } else if value > hi {
        value - hi
    } else {
        0.0
    }
}

fn gain_pct(from: f64, to: f64) -> f64 {
    (to / from - 1.0) * 100.0
}

/// Mean absolute error, in percentage points, of the paper's numeric
/// derived claims that the table binary prints, computed from the
/// per-column suite means. `None` when a suite average is missing (a
/// failed row).
///
/// * Table 3 (§3.1): True 1→2, 2→4 and 8→16 port speed-ups for SPECint
///   (+89%, +41%, +0.12%) and SPECfp (+92%, +50%, ~4%); columns 0, 1,
///   4, 7 and 10 are `~1`, True-2, True-4, True-8 and True-16.
/// * Table 4 (§6): SPECfp doubling N (+10.3%) and doubling M
///   (+6.5..8.5%, scored as the distance to that interval); the SPECint
///   claims are qualitative and not scored.
pub fn paper_err_pp(table: PaperTable, int: &[f64], fp: &[f64]) -> Option<f64> {
    match table {
        PaperTable::Three => {
            if int.len() != 13 || fp.len() != 13 {
                return None;
            }
            let claims = [
                (gain_pct(int[0], int[1]), 89.0),
                (gain_pct(fp[0], fp[1]), 92.0),
                (gain_pct(int[1], int[4]), 41.0),
                (gain_pct(fp[1], fp[4]), 50.0),
                (gain_pct(int[7], int[10]), 0.12),
                (gain_pct(fp[7], fp[10]), 4.0),
            ];
            let sum: f64 = claims.iter().map(|&(v, p)| (v - p).abs()).sum();
            Some(sum / claims.len() as f64)
        }
        PaperTable::Four => {
            if fp.len() != 6 {
                return None;
            }
            // Columns: 2x2, 2x4, 4x2, 4x4, 8x2, 8x4 — the table4 binary's
            // averaging of the N- and M-doubling steps.
            let n_gain =
                (gain_pct(fp[0], fp[1]) + gain_pct(fp[2], fp[3]) + gain_pct(fp[4], fp[5])) / 3.0;
            let m_gain = (gain_pct(fp[0], fp[2])
                + gain_pct(fp[2], fp[4])
                + gain_pct(fp[1], fp[3])
                + gain_pct(fp[3], fp[5]))
                / 4.0;
            Some((distance_pp(n_gain, 10.3, 10.3) + distance_pp(m_gain, 6.5, 8.5)) / 2.0)
        }
    }
}

/// A seeded permutation of `0..n` (xorshift64* Fisher–Yates); seed 0 is
/// the identity, so the default order is the matrix order.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == 0 {
        return order;
    }
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One timed interval recorded by the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The span that caused it; `None` for the workload root.
    pub parent: Option<usize>,
    /// What ran, e.g. `build:mgrid` or `cell:mgrid/Bank-4`.
    pub name: String,
    /// The crate layer the interval is charged to.
    pub layer: &'static str,
    /// Nanoseconds since the run started.
    pub start_ns: u64,
    /// Nanoseconds since the run started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of its interval that its children cover (children may run in
/// parallel, so coverage is the union of their intervals), summed by
/// layer.
pub fn self_ns_by_layer(spans: &[Span]) -> std::collections::BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = std::collections::BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
            if a >= b {
                continue;
            }
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(committed: u64, cycles: u64, label: &str) -> SimReport {
        let mut r = SimReport::from_record(&format!(
            "{committed}\t{cycles}\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t{label}"
        ))
        .expect("well-formed record");
        r.wall_secs = 1.5;
        r
    }

    #[test]
    fn digest_is_pinned_and_ignores_host_timing() {
        let a = report(100, 50, "True-2");
        let mut b = a.clone();
        b.wall_secs = 99.0;
        b.cycles_per_sec = 1.0;
        let records = [cell_record(Some(&a)), cell_record(None)];
        assert_eq!(
            records_digest(&records),
            records_digest(&[cell_record(Some(&b)), cell_record(None)])
        );
        // Pinned: a change to the record format or the digest rule shows
        // here before it silently invalidates the stored digests.
        assert_eq!(
            format!("{:016x}", records_digest(&records)),
            format!(
                "{:016x}",
                fnv1a64(b"100\t50\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\tTrue-2\nFAILED\n")
            )
        );
    }

    #[test]
    fn digest_depends_on_matrix_order() {
        let a = cell_record(Some(&report(100, 50, "True-2")));
        let b = cell_record(Some(&report(100, 40, "True-4")));
        assert_ne!(
            records_digest(&[a.clone(), b.clone()]),
            records_digest(&[b, a])
        );
    }

    #[test]
    fn paper_err_table3_hand_worked() {
        // SPECint: 1→2 = +100% (err 11), 2→4 = +50% (err 9),
        // 8→16 = +1% (err 0.88). SPECfp: 1→2 = +92% (err 0),
        // 2→4 = +40% (err 10), 8→16 = +10% (err 6).
        // Mean = (11 + 9 + 0.88 + 0 + 10 + 6) / 6 = 6.146666…
        let mut int = vec![1.0; 13];
        int[0] = 1.0;
        int[1] = 2.0;
        int[4] = 3.0;
        int[7] = 4.0;
        int[10] = 4.04;
        let mut fp = vec![1.0; 13];
        fp[0] = 1.0;
        fp[1] = 1.92;
        fp[4] = 2.688;
        fp[7] = 5.0;
        fp[10] = 5.5;
        let err = paper_err_pp(PaperTable::Three, &int, &fp).expect("13 columns");
        assert!((err - 36.88 / 6.0).abs() < 1e-9, "{err}");
    }

    #[test]
    fn paper_err_table4_scores_ranges_by_distance() {
        // Every N step +20% (err 9.7); every M step +7.5% (inside
        // 6.5..8.5, err 0). Mean = 4.85.
        let fp = [1.0, 1.2, 1.075, 1.29, 1.155_625, 1.386_75];
        let err = paper_err_pp(PaperTable::Four, &[], &fp).expect("6 columns");
        assert!((err - 4.85).abs() < 1e-9, "{err}");
        assert_eq!(distance_pp(5.0, 6.5, 8.5), 1.5);
        assert_eq!(distance_pp(9.0, 6.5, 8.5), 0.5);
        assert_eq!(paper_err_pp(PaperTable::Four, &[], &fp[..5]), None);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        assert_eq!(permutation(5, 0), vec![0, 1, 2, 3, 4]);
        let p = permutation(130, 7);
        assert_eq!(p, permutation(130, 7));
        assert_ne!(p, permutation(130, 8));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, layer, start_ns, end_ns| Span {
            id,
            parent,
            name: String::new(),
            layer,
            start_ns,
            end_ns,
        };
        // Root 0..100 with two overlapping children 10..40 and 30..60
        // (union 50) and a grandchild 35..45 inside the first child.
        let spans = [
            span(0, None, "bench.runner", 0, 100),
            span(1, Some(0), "cpu.sim", 10, 40),
            span(2, Some(0), "cpu.sim", 30, 60),
            span(3, Some(1), "cpu.trace", 35, 45),
        ];
        let by = self_ns_by_layer(&spans);
        assert_eq!(by["bench.runner"], 50);
        assert_eq!(by["cpu.sim"], (30 - 5) + 30);
        assert_eq!(by["cpu.trace"], 10);
    }
}
