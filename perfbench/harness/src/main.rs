//! `hbdc-perfbench`: the process `perfbench/run.py` starts. Each invocation
//! does one repetition and prints one JSON object as its last stdout line.
//!
//! ```text
//! hbdc-perfbench matrix --table 3|4 --scale S --threads N [--order-seed K]
//! hbdc-perfbench shard  --table 3|4 --scale S --threads 1 --shard --journal J
//!                       --trace-cache DIR
//! hbdc-perfbench traced --table 3|4 --scale S --threads N [--order-seed K]
//!                       [--layers] [--spans FILE]
//! ```
//!
//! * `matrix` runs the table in process through the library runner
//!   (`simulate_matrix_opts`), as the `table3`/`table4` binaries do, with
//!   the benches and columns submitted in a seeded order.
//! * `shard` is one process of a `--shard` campaign; its workers re-execute
//!   this binary with the hidden worker flags, as the table binaries do.
//! * `traced` drives the same cells itself through
//!   `Simulator::try_from_trace(..).run()` and records a span around every
//!   call into a crate; `--layers` adds the per-crate drivers (trace
//!   decode, port-model arbitration, memory hierarchy) and `--spans` writes
//!   the spans out as JSON lines at the end.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hbdc_bench::runner::{
    matrix_opts_from_args, scale_from_args, simulate_matrix_opts, threads_from_args, MatrixOpts,
};
use hbdc_core::{MemRequest, Offered, PortConfig};
use hbdc_cpu::{CommittedTrace, CpuConfig, SimReport, Simulator};
use hbdc_mem::{Hierarchy, HierarchyConfig};
use hbdc_perfbench::{
    cell_record, paper_err_pp, permutation, records_digest, render_table, self_ns_by_layer,
    suite_means, PaperTable, Span,
};
use hbdc_workloads::{Benchmark, Scale};

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("hbdc-perfbench: {msg}");
    eprintln!("usage: hbdc-perfbench matrix|shard|traced --table 3|4 --scale test|small|full ...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let Some(table) = flag("--table").as_deref().and_then(PaperTable::parse) else {
        return usage("--table needs 3 or 4");
    };
    let seed = match flag("--order-seed").map(|s| s.parse::<u64>()) {
        None => 0,
        Some(Ok(s)) => s,
        Some(Err(_)) => return usage("--order-seed needs a whole number"),
    };
    let scale = scale_from_args();
    match mode.as_str() {
        "matrix" => matrix(table, scale, seed),
        "shard" => shard(table, scale),
        "traced" => traced(table, scale, seed),
        other => usage(&format!("unknown mode `{other}`")),
    }
}

/// Appends `"key": value` pairs to a JSON object under construction.
struct Json(String);

impl Json {
    fn new() -> Self {
        Self(String::from("{"))
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{key}\": {value}");
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, &num(v))
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, &v.to_string())
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &format!("\"{}\"", v.escape_default()))
    }

    fn finish(&mut self) -> String {
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn list<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    let parts: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", parts.join(", "))
}

/// The fields every mode reports about a finished matrix (reports in
/// matrix order): correctness digests, the paper-claim error, and the
/// deterministic simulated totals the per-layer ratios are built from.
fn summarize(
    json: &mut Json,
    table: PaperTable,
    benches: &[Benchmark],
    columns: &[(String, PortConfig)],
    reports: &[Vec<Option<SimReport>>],
) {
    let records: Vec<String> = reports
        .iter()
        .flatten()
        .map(|r| cell_record(r.as_ref()))
        .collect();
    let cell_digests: Vec<u64> = records
        .iter()
        .map(|r| records_digest(std::slice::from_ref(r)))
        .collect();
    let text = render_table(table, benches, columns, reports);
    let (int, fp) = suite_means(benches, reports);
    let ok: Vec<&SimReport> = reports.iter().flatten().flatten().collect();
    let sum = |f: fn(&SimReport) -> u64| ok.iter().map(|r| f(r)).sum::<u64>();
    json.int("cells", records.len() as u64)
        .int("failed", (records.len() - ok.len()) as u64)
        .str("digest", &format!("{:016x}", records_digest(&records)))
        .raw(
            "cell_digests",
            &list(&cell_digests, |d| format!("\"{d:016x}\"")),
        )
        .str(
            "table_digest",
            &format!("{:016x}", hbdc_snap::fnv1a64(text.as_bytes())),
        )
        .num(
            "paper_err_pp",
            paper_err_pp(table, &int, &fp).unwrap_or(f64::NAN),
        );
    let mut totals = Json::new();
    totals
        .int("committed", sum(|r| r.committed))
        .int("cycles", sum(|r| r.cycles))
        .int("loads", sum(|r| r.loads))
        .int("stores", sum(|r| r.stores))
        .int("forwards", sum(|r| r.forwards))
        .int("l1_accesses", sum(|r| r.l1_accesses))
        .int("l1_misses", sum(|r| r.l1_misses))
        .int("l2_accesses", sum(|r| r.l2_accesses))
        .int("l2_misses", sum(|r| r.l2_misses))
        .int("arb_offered", sum(|r| r.arb_offered))
        .int("arb_granted", sum(|r| r.arb_granted))
        .int("arb_rounds", sum(|r| r.arb_rounds))
        .int("bank_conflicts", sum(|r| r.bank_conflicts))
        .int("combined", sum(|r| r.combined))
        .int("store_serializations", sum(|r| r.store_serializations))
        .int("skipped_cycles", sum(|r| r.skipped_cycles));
    json.raw("totals", &totals.finish());
}

/// Untraced in-process run through the library runner. The bench and
/// column order are permuted by the seed; reports are put back in matrix
/// order before anything is digested.
fn matrix(table: PaperTable, scale: Scale, seed: u64) -> ExitCode {
    let t0 = Instant::now();
    let benches = hbdc_workloads::all();
    let columns = table.columns();
    let bperm = permutation(benches.len(), seed);
    let cperm = permutation(columns.len(), seed.rotate_left(32));
    let pbenches: Vec<Benchmark> = bperm.iter().map(|&i| benches[i].clone()).collect();
    let pcolumns: Vec<(String, PortConfig)> = cperm.iter().map(|&i| columns[i].clone()).collect();
    let opts = MatrixOpts::default();
    let run = match simulate_matrix_opts(&pbenches, scale, &pcolumns, &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("hbdc-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut reports: Vec<Vec<Option<SimReport>>> = vec![vec![None; columns.len()]; benches.len()];
    for (pb, row) in run.reports.into_iter().enumerate() {
        for (pc, r) in row.into_iter().enumerate() {
            reports[bperm[pb]][cperm[pc]] = r;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cell_wall: Vec<f64> = reports
        .iter()
        .flatten()
        .map(|r| r.as_ref().map_or(f64::NAN, |r| r.wall_secs))
        .collect();
    let mut json = Json::new();
    json.str("mode", "matrix")
        .num("wall_s_internal", wall)
        .num("capture_s", run.capture_secs)
        .raw("cell_wall_s", &list(&cell_wall, |&v| num(v)));
    summarize(&mut json, table, &benches, &columns, &reports);
    println!("{}", json.finish());
    ExitCode::SUCCESS
}

/// One process of a `--shard` campaign over the table's matrix. Worker
/// subprocesses re-execute this binary with the same arguments plus the
/// hidden worker flags, run one cell inside `simulate_matrix_opts` and
/// exit there.
fn shard(table: PaperTable, scale: Scale) -> ExitCode {
    let benches = hbdc_workloads::all();
    let columns = table.columns();
    let opts = matrix_opts_from_args();
    let run = match simulate_matrix_opts(&benches, scale, &columns, &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("hbdc-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut json = Json::new();
    json.str("mode", "shard")
        .int("quarantined", run.quarantined.len() as u64);
    summarize(&mut json, table, &benches, &columns, &run.reports);
    println!("{}", json.finish());
    ExitCode::SUCCESS
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let mut j = Json::new();
        j.int("id", s.id as u64)
            .raw(
                "parent",
                &s.parent.map_or("null".to_string(), |p| p.to_string()),
            )
            .str("name", &s.name)
            .str("layer", s.layer)
            .int("start_ns", s.start_ns)
            .int("end_ns", s.end_ns);
        out.push_str(&j.finish());
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// In-memory span recorder: spans are reserved when they open (so
/// children can name their parent) and filled in when they close.
struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&self, parent: Option<usize>, name: String, layer: &'static str) -> usize {
        let start_ns = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking worker");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&self, id: usize) -> u64 {
        let end = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking worker");
        spans[id].end_ns = end;
        spans[id].dur_ns()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    fn time<T>(
        &self,
        parent: usize,
        name: String,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(Some(parent), name, layer);
        let out = f();
        (out, self.close(id))
    }
}

/// Runs `job(i)` for every `i` in `order` on `threads` scoped threads.
fn pool(threads: usize, order: &[usize], job: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(order.len()).max(1) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(k) else { break };
                job(i);
            });
        }
    });
}

/// Port family a column belongs to, for the per-family splits.
fn family(port: &PortConfig) -> &'static str {
    match port {
        PortConfig::Ideal { .. } => "ideal",
        PortConfig::Replicated { .. } => "repl",
        PortConfig::Banked { .. } => "bank",
        PortConfig::Lbic { .. } => "lbic",
    }
}

const FAMILIES: [&str; 4] = ["ideal", "repl", "bank", "lbic"];

/// What the traced set-up measured for one benchmark.
struct Setup {
    trace: CommittedTrace,
    build_ns: u64,
    capture_ns: u64,
    static_insts: u64,
}

/// What one traced cell measured.
#[derive(Default, Clone)]
struct CellTiming {
    report: Option<SimReport>,
    init_ns: u64,
    run_ns: u64,
    span_drained: u64,
}

/// The traced run: the workload's cells driven by this harness, with a
/// span around every call into a crate.
fn traced(table: PaperTable, scale: Scale, seed: u64) -> ExitCode {
    let rec = Recorder {
        t0: Instant::now(),
        spans: Mutex::new(Vec::new()),
    };
    let threads = threads_from_args().unwrap_or(2);
    let benches = hbdc_workloads::all();
    let columns = table.columns();
    let cpu_cfg = CpuConfig::default();
    let hier = HierarchyConfig::default();
    let root = rec.open(None, format!("workload:{table:?}"), "bench.runner");

    // Set-up: build and capture every benchmark.
    let setup = rec.open(Some(root), "phase:setup".into(), "bench.runner");
    let setups: Mutex<Vec<Option<Setup>>> = Mutex::new((0..benches.len()).map(|_| None).collect());
    let bench_order = permutation(benches.len(), seed);
    pool(threads, &bench_order, |b| {
        let bench = &benches[b];
        let (program, build_ns) = rec.time(
            setup,
            format!("build:{}", bench.name()),
            "workloads",
            || bench.build(scale),
        );
        let (trace, capture_ns) = rec.time(
            setup,
            format!("capture:{}", bench.name()),
            "cpu.capture",
            || CommittedTrace::capture(&program, cpu_cfg.warmup_insts, None).ok(),
        );
        let Some(trace) = trace else { return };
        let static_insts = program.text().len() as u64;
        setups.lock().expect("set-up slots poisoned")[b] = Some(Setup {
            trace,
            build_ns,
            capture_ns,
            static_insts,
        });
    });
    rec.close(setup);
    let setups = setups.into_inner().expect("set-up slots poisoned");

    // Cells, in a seeded order on `threads` workers.
    let cells_phase = rec.open(Some(root), "phase:cells".into(), "bench.runner");
    let total = benches.len() * columns.len();
    let timings: Mutex<Vec<CellTiming>> = Mutex::new(vec![CellTiming::default(); total]);
    pool(threads, &permutation(total, seed), |i| {
        let (b, c) = (i / columns.len(), i % columns.len());
        let Some(Setup { trace, .. }) = &setups[b] else {
            return;
        };
        let (label, port) = &columns[c];
        let cell = rec.open(
            Some(cells_phase),
            format!("cell:{}/{label}", benches[b].name()),
            "bench.runner",
        );
        let mut t = CellTiming::default();
        let (sim, init_ns) = rec.time(cell, "sim.init".into(), "cpu.sim", || {
            Simulator::try_from_trace(trace, cpu_cfg, hier, *port)
        });
        t.init_ns = init_ns;
        if let Ok(mut sim) = sim {
            let (report, run_ns) = rec.time(cell, "sim.run".into(), "cpu.sim", || sim.run());
            t.run_ns = run_ns;
            t.report = report.ok();
            t.span_drained = sim.span_drained_cycles();
        }
        rec.close(cell);
        timings.lock().expect("cell slots poisoned")[i] = t;
    });
    rec.close(cells_phase);
    let timings = timings.into_inner().expect("cell slots poisoned");
    let mut reports: Vec<Vec<Option<SimReport>>> = vec![Vec::new(); benches.len()];
    for (i, t) in timings.iter().enumerate() {
        reports[i / columns.len()].push(t.report.clone());
    }
    rec.close(root);
    let mut json = Json::new();
    json.str("mode", "traced")
        .num("wall_s_internal", rec.now() as f64 / 1e9);
    summarize(&mut json, table, &benches, &columns, &reports);

    // Per-layer figures from the spans.
    let spans = rec.spans.into_inner().expect("span list poisoned");
    let self_ns = self_ns_by_layer(&spans);
    let mut layers = Json::new();
    for (layer, ns) in &self_ns {
        layers.num(layer, *ns as f64 / 1e9);
    }
    json.raw("self_s", &layers.finish());
    let setups: Vec<&Setup> = setups.iter().flatten().collect();
    json.num(
        "build_s",
        setups.iter().map(|s| s.build_ns).sum::<u64>() as f64 / 1e9,
    )
    .int("static_insts", setups.iter().map(|s| s.static_insts).sum())
    .int("capture_ns", setups.iter().map(|s| s.capture_ns).sum())
    .int(
        "capture_records",
        setups.iter().map(|s| s.trace.records()).sum(),
    )
    .int("init_ns", timings.iter().map(|t| t.init_ns).sum())
    .int(
        "span_drained_cycles",
        timings.iter().map(|t| t.span_drained).sum(),
    );
    let mut fam = Json::new();
    for f in FAMILIES {
        let (mut ns, mut cycles, mut insts, mut cells) = (0u64, 0u64, 0u64, 0u64);
        for (i, t) in timings.iter().enumerate() {
            if family(&columns[i % columns.len()].1) != f {
                continue;
            }
            if let Some(r) = &t.report {
                ns += t.run_ns;
                cycles += r.cycles;
                insts += r.committed;
                cells += 1;
            }
        }
        let mut one = Json::new();
        one.int("cells", cells)
            .int("run_ns", ns)
            .int("cycles", cycles)
            .int("committed", insts);
        fam.raw(f, &one.finish());
    }
    json.raw("families", &fam.finish());

    if std::env::args().any(|a| a == "--layers") {
        let traces: Vec<&CommittedTrace> = setups.iter().map(|s| &s.trace).collect();
        json.raw("layers", &layer_drivers(&traces, hier));
    }
    if let Some(path) = flag("--spans") {
        if let Err(e) = write_spans(Path::new(&path), &spans) {
            eprintln!("hbdc-perfbench: cannot write spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", json.finish());
    ExitCode::SUCCESS
}

/// References per trace the arbitration and hierarchy drivers replay.
const DRIVER_REFS: usize = 200_000;
/// Standing offered-set size of the arbitration driver.
const OFFERED_CAP: usize = 32;

/// Per-crate drivers over the captured traces: HBTR decode and replay
/// stepping (`cpu.trace`), every port family's arbitration entry points
/// (`core`) and the memory hierarchy (`mem`).
fn layer_drivers(traces: &[&CommittedTrace], hier: HierarchyConfig) -> String {
    let mut out = Json::new();

    // cpu.trace: decode a copy of each sealed image (parse plus the
    // shared predecode a first player pays), then step a player through.
    let (mut bytes, mut records, mut decode_ns, mut step_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut refs: Vec<Vec<MemRequest>> = Vec::new();
    for t in traces {
        let image = t.as_bytes().to_vec();
        bytes += image.len() as u64;
        let start = Instant::now();
        let Ok(copy) = CommittedTrace::from_bytes(image) else {
            continue;
        };
        let mut player = copy.player();
        decode_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let mut n = 0u64;
        while let Some(di) = player.step() {
            std::hint::black_box(&di);
            n += 1;
        }
        step_ns += start.elapsed().as_nanos() as u64;
        records += n;
        // The memory stream, age-ordered, for the drivers below.
        let mut player = copy.player();
        let mut mem = Vec::new();
        while let Some(di) = player.step() {
            if let Some(addr) = di.addr {
                let req = if di.inst.is_store() {
                    MemRequest::store(di.seq, addr)
                } else {
                    MemRequest::load(di.seq, addr)
                };
                mem.push(req);
                if mem.len() == DRIVER_REFS {
                    break;
                }
            }
        }
        refs.push(mem);
    }
    let per = |ns: u64, n: u64| {
        if n == 0 {
            f64::NAN
        } else {
            ns as f64 / n as f64
        }
    };
    out.num("trace_bytes_per_record", per(bytes, records))
        .num("trace_decode_ns_per_record", per(decode_ns, records))
        .num("trace_step_ns_per_record", per(step_ns, records));

    // core: each family's 4-port model through `offer_insert` /
    // `arbitrate_offered` / `offer_remove` / `tick`, as the simulator's
    // batched path drives it, over a standing age-ordered offered set of
    // up to OFFERED_CAP references refilled from the memory stream.
    let mut arb = Json::new();
    for (f, cfg) in [
        ("ideal", PortConfig::Ideal { ports: 4 }),
        ("repl", PortConfig::Replicated { ports: 4 }),
        ("bank", PortConfig::banked(4)),
        ("lbic", PortConfig::lbic(4, 2)),
    ] {
        let (mut ns, mut offered) = (0u64, 0u64);
        for stream in &refs {
            let (n, o) = drive_arbitration(&cfg, hier.l1_line, stream);
            ns += n;
            offered += o;
        }
        arb.num(f, per(ns, offered));
    }
    out.raw("arb_ns_per_offered", &arb.finish());

    // mem: the hierarchy fed four references per cycle in stream order;
    // a reference rejected for want of an MSHR retries next cycle.
    let (mut ns, mut attempts, mut rejected) = (0u64, 0u64, 0u64);
    for stream in &refs {
        let mut h = Hierarchy::new(hier);
        let (mut now, mut i) = (0u64, 0usize);
        let start = Instant::now();
        while i < stream.len() {
            for _ in 0..4 {
                let Some(r) = stream.get(i) else { break };
                attempts += 1;
                if h.access(r.addr, r.is_store, now).rejected {
                    rejected += 1;
                    break;
                }
                i += 1;
            }
            now += 1;
        }
        ns += start.elapsed().as_nanos() as u64;
    }
    out.num("mem_ns_per_access", per(ns, attempts))
        .num("mem_rejected_frac", per(rejected, attempts));
    out.finish()
}

/// Replays `stream` through one port model; returns the nanoseconds spent
/// and the references offered (summed over rounds).
fn drive_arbitration(cfg: &PortConfig, line: u64, stream: &[MemRequest]) -> (u64, u64) {
    let mut model = cfg.build(line);
    let (mut ids, mut addrs, mut stores) = (Vec::new(), Vec::new(), Vec::new());
    let mut granted: Vec<MemRequest> = Vec::new();
    let (mut next, mut offered, mut idle) = (0usize, 0u64, 0u32);
    let start = Instant::now();
    while next < stream.len() || !ids.is_empty() {
        while ids.len() < OFFERED_CAP && next < stream.len() {
            let r = stream[next];
            model.offer_insert(r);
            ids.push(r.id);
            addrs.push(r.addr);
            stores.push(r.is_store);
            next += 1;
        }
        offered += ids.len() as u64;
        model.arbitrate_offered(Offered::new(&ids, &addrs, &stores), &mut granted);
        idle = if granted.is_empty() { idle + 1 } else { 0 };
        if idle > 1_000 {
            // A model that stops granting would spin forever; the
            // simulator's watchdog would have fired long before.
            break;
        }
        let mut g = 0;
        let mut keep = 0;
        for k in 0..ids.len() {
            if g < granted.len() && granted[g].id == ids[k] {
                model.offer_remove(granted[g]);
                g += 1;
                continue;
            }
            ids[keep] = ids[k];
            addrs[keep] = addrs[k];
            stores[keep] = stores[k];
            keep += 1;
        }
        ids.truncate(keep);
        addrs.truncate(keep);
        stores.truncate(keep);
        model.tick();
    }
    (start.elapsed().as_nanos() as u64, offered)
}
