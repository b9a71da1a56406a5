//! Per-layer metrics for the traced run, each measured from outside by
//! timing calls into one crate's public functions on the workloads' own
//! inputs, and by reading the counts those functions return
//! (`TranStats`, `SolverStats`, `ExecStats`, `GmresStats`).
//!
//! Host times are medians over repeated calls; counts come from a single
//! deterministic call and repeat exactly.

use std::hint::black_box;
use std::time::Instant;

use sfet_circuit::{Circuit, Element, NodeId};
use sfet_devices::mosfet;
use sfet_numeric::dense::{DenseMatrix, LuFactors};
use sfet_numeric::exec::{par_map_with_stats, ExecConfig};
use sfet_numeric::krylov::{gmres, GmresOptions, GmresWorkspace, Ilu0};
use sfet_numeric::sparse::{CscMatrix, SparseLu, TripletMatrix};
use sfet_pdn::PdnGrid;
use sfet_sim::{dc_operating_point_with_stats, transient, SolverPolicy, TranResult};
use softfet::metrics::{inverter_sim_options, measure_from_result, measure_inverter_with};

use crate::report::{median, Metrics};
use crate::workload::{workers, SimCase, Size};
use crate::{mc, pdn, serve};

/// Median wall time of `reps` calls of `f` \[s\], and the last output.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(black_box(f()));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(&secs), out.expect("at least one repetition"))
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Repetition count for a probe: `full` at full size, a few when tiny.
fn reps(size: Size, full: usize) -> usize {
    match size {
        Size::Full => full,
        Size::Tiny => 2,
    }
}

/// `(row, column, value)` entries of a matrix; duplicates add.
type Entries = Vec<(usize, usize, f64)>;

/// Triplet entries of an MNA matrix; ground (`None`) rows and columns
/// are dropped.
#[derive(Default)]
struct Stamps(Entries);

impl Stamps {
    fn add(&mut self, r: Option<usize>, c: Option<usize>, x: f64) {
        if let (Some(r), Some(c)) = (r, c) {
            self.0.push((r, c, x));
        }
    }

    fn conductance(&mut self, p: Option<usize>, n: Option<usize>, g: f64) {
        self.add(p, p, g);
        self.add(n, n, g);
        self.add(p, n, -g);
        self.add(n, p, -g);
    }

    /// A branch unknown `b` tying `p`-`n`, with `z` on its diagonal.
    fn branch(&mut self, b: usize, p: Option<usize>, n: Option<usize>, z: f64) {
        let b = Some(b);
        self.add(p, b, 1.0);
        self.add(n, b, -1.0);
        self.add(b, p, 1.0);
        self.add(b, n, -1.0);
        if z != 0.0 {
            self.add(b, b, z);
        }
    }
}

/// The linear system the simulator solves at one trapezoidal step of
/// size `h` around node voltages `v`: conductances, `2C/h` capacitor
/// companions, `2L/h` inductor branch rows, voltage-source branch rows,
/// MOSFET Jacobian stamps from the EKV model, insulating-state PTMs and
/// a 1e-12 S gmin on every node. Returns the order and the entries.
fn mna_entries(
    ckt: &Circuit,
    h: f64,
    v: &dyn Fn(NodeId) -> f64,
) -> Result<(usize, Entries), String> {
    let nodes = ckt.node_count() - 1;
    let idx = |n: NodeId| n.index().checked_sub(1);
    let mut s = Stamps::default();
    for i in 0..nodes {
        s.add(Some(i), Some(i), 1e-12);
    }
    let mut branch = nodes;
    for el in ckt.elements() {
        match el {
            Element::Resistor(r) => s.conductance(idx(r.p), idx(r.n), 1.0 / r.ohms),
            Element::Ptm(p) => s.conductance(idx(p.p), idx(p.n), 1.0 / p.params.r_ins),
            Element::Capacitor(c) => s.conductance(idx(c.p), idx(c.n), 2.0 * c.farads / h),
            Element::Inductor(l) => {
                s.branch(branch, idx(l.p), idx(l.n), -2.0 * l.henries / h);
                branch += 1;
            }
            Element::VoltageSource(vs) => {
                s.branch(branch, idx(vs.p), idx(vs.n), 0.0);
                branch += 1;
            }
            Element::CurrentSource(_) => {}
            Element::Mosfet(m) => {
                let op = mosfet::eval(&m.model, m.w, m.l, v(m.g), v(m.d), v(m.s), v(m.b));
                for (col, g) in [(m.g, op.gm), (m.d, op.gds), (m.s, op.gms), (m.b, op.gmb)] {
                    s.add(idx(m.d), idx(col), g);
                    s.add(idx(m.s), idx(col), -g);
                }
            }
            other => return Err(format!("no stamp for element {}", other.name())),
        }
    }
    Ok((branch, s.0))
}

fn to_csc(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
    let mut t = TripletMatrix::with_capacity(n, n, entries.len());
    t.extend(entries.iter().copied());
    t.to_csc()
}

/// `devices`, dense `numeric` and `waveform` metrics on the inverter of
/// the Monte-Carlo sweep, at operating points from its own transient.
fn inverter_layers(size: Size, out: &mut Metrics) -> Result<(), String> {
    let spec = mc::draw_spec(mc::REF_SEED, 0);
    let ckt = spec.build().map_err(err("inverter build"))?;
    let opts = inverter_sim_options(&spec);
    let result = transient(&ckt, spec.t_stop, &opts).map_err(err("inverter transient"))?;
    let times = result.times();
    let picks: Vec<usize> = (0..64).map(|k| k * (times.len() - 1) / 63).collect();
    let volts = |node: NodeId, k: usize| -> f64 {
        if node.index() == 0 {
            return 0.0;
        }
        result
            .node_samples(ckt.node_name(node))
            .map_or(0.0, |s| s[k])
    };

    let mosfets: Vec<_> = ckt
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Mosfet(m) => Some(m),
            _ => None,
        })
        .collect();
    let points: Vec<_> = picks
        .iter()
        .flat_map(|&k| {
            mosfets.iter().map(move |m| {
                (
                    m,
                    [volts(m.g, k), volts(m.d, k), volts(m.s, k), volts(m.b, k)],
                )
            })
        })
        .collect();
    let inner = 50;
    let (secs, _) = timed(reps(size, 15), || {
        let mut acc = 0.0;
        for _ in 0..inner {
            for (m, [g, d, s, b]) in &points {
                acc += mosfet::eval(&m.model, m.w, m.l, *g, *d, *s, *b).id;
            }
        }
        acc
    });
    out.push(
        "devices.ekv_eval_ns",
        secs * 1e9 / (inner * points.len()) as f64,
        "ns",
    );

    // Dense factor + solve at the inverter's MNA order, mid-transition.
    let mid = picks[picks.len() / 3];
    let (n, entries) = mna_entries(&ckt, opts.dtmax, &|node| volts(node, mid))?;
    let mut a = DenseMatrix::zeros(n, n);
    for &(r, c, x) in &entries {
        a.add(r, c, x);
    }
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let mut lu = LuFactors::workspace(n);
    let (mut b, mut scratch) = (rhs.clone(), Vec::new());
    let inner = 2000;
    let (secs, res) = timed(reps(size, 15), || -> Result<(), String> {
        for _ in 0..inner {
            lu.refactor(&a).map_err(err("dense refactor"))?;
            b.copy_from_slice(&rhs);
            lu.solve_in_place(&mut b, &mut scratch)
                .map_err(err("dense solve"))?;
        }
        Ok(())
    });
    res?;
    out.push(
        "numeric.dense_factor_solve_us",
        secs * 1e6 / inner as f64,
        "us",
    );
    println!("dense MNA order {n} (inverter)");

    let (secs, m) = timed(reps(size, 31), || measure_from_result(&spec, &result));
    m.map_err(err("inverter measurement"))?;
    out.push("waveform.measure_us", secs * 1e6, "us");
    Ok(())
}

/// Sparse LU and GMRES+ILU(0) on the grid's matrix, and the `pdn`
/// extraction cost around its transient.
fn grid_layers(size: Size, out: &mut Metrics) -> Result<(), String> {
    let grid = pdn::reference_grid(size);
    let ckt = grid.build().map_err(err("grid build"))?;
    let opts = pdn::options(&grid, SolverPolicy::Auto);
    let (n, entries) = mna_entries(&ckt, opts.dtmax, &|_| grid.pdn.v_nom)?;
    let a = to_csc(n, &entries);
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 - (i % 7) as f64 * 1e-3).collect();
    let rhs = a.matvec(&x_true).map_err(err("grid matvec"))?;

    let mut lu = SparseLu::factor(&a).map_err(err("sparse factor"))?;
    let (mut b, mut scratch) = (rhs.clone(), Vec::new());
    let inner = 20;
    let (secs, res) = timed(reps(size, 15), || -> Result<(), String> {
        for _ in 0..inner {
            lu.refactor(&a).map_err(err("sparse refactor"))?;
            b.copy_from_slice(&rhs);
            lu.solve_in_place(&mut b, &mut scratch)
                .map_err(err("sparse solve"))?;
        }
        Ok(())
    });
    res?;
    out.push(
        "numeric.sparse_refactor_solve_us",
        secs * 1e6 / inner as f64,
        "us",
    );

    let ilu = Ilu0::factor(&a).map_err(err("ILU(0)"))?;
    let gopts = GmresOptions::default();
    let mut ws = GmresWorkspace::new(n, gopts.restart);
    let mut x = vec![0.0; n];
    let (secs, stats) = timed(reps(size, 15), || {
        x.iter_mut().for_each(|v| *v = 0.0);
        gmres(&a, &ilu, &rhs, &mut x, &gopts, &mut ws)
    });
    let stats = stats.map_err(err("GMRES"))?;
    out.push("numeric.gmres_solve_us", secs * 1e6, "us");
    out.push(
        "numeric.gmres_iters_per_solve",
        stats.iterations as f64,
        "count",
    );
    println!("sparse MNA order {n}, {} nonzeros (grid)", a.nnz());

    // droop_map_with = build + transient + per-tile extraction. The
    // part around the transient is timed on its own: the build, then
    // each tile's minimum from the same transient result.
    let result = transient(&ckt, grid.t_stop, &opts).map_err(err("grid transient"))?;
    let (secs, res) = timed(reps(size, 31), || -> Result<_, String> {
        let ckt = grid.build().map_err(err("grid build"))?;
        let mut worst = f64::INFINITY;
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let samples = result
                    .node_samples(&PdnGrid::tile_node_name(ix, iy))
                    .map_err(err("tile samples"))?;
                worst = samples.iter().fold(worst, |m, &v| m.min(v));
            }
        }
        Ok((ckt, worst))
    });
    res?;
    out.push("pdn.extract_ms", secs * 1e3, "ms");
    Ok(())
}

/// Scheduling of the Monte-Carlo sweep's tasks through the exec engine.
fn exec_layer(size: Size, out: &mut Metrics) -> Result<(), String> {
    let draws: Vec<usize> = (0..match size {
        Size::Full => mc::REF_DRAWS,
        Size::Tiny => 4,
    })
        .collect();
    let cfg = ExecConfig::with_workers(workers());
    let mut util = Vec::new();
    let mut idle_ms = Vec::new();
    for _ in 0..reps(size, 5) {
        let (res, st) = par_map_with_stats(&cfg, &draws, |_, &i| {
            let spec = mc::draw_spec(mc::REF_SEED, i);
            measure_inverter_with(&spec, &inverter_sim_options(&spec)).map(|m| m.i_max)
        });
        res.map_err(|e| format!("exec sweep task {}: {}", e.index, e.source))?;
        util.push(st.utilization());
        idle_ms.push(st.wall.as_secs_f64() * (1.0 - st.utilization()) * 1e3);
    }
    out.push("numeric.exec_utilization", median(&util), "ratio");
    out.push("numeric.exec_overhead_ms", median(&idle_ms), "ms");
    Ok(())
}

/// Parsing the serve mix's decks and building the workloads' circuits.
fn circuit_layer(size: Size, out: &mut Metrics) -> Result<(), String> {
    let decks: Vec<String> = serve::hot_set()
        .iter()
        .filter_map(|j| match j {
            serve::Job::Deck { cl_ff } => Some(serve::deck_text(*cl_ff)),
            _ => None,
        })
        .collect();
    let (secs, res) = timed(reps(size, 101), || {
        decks
            .iter()
            .map(|d| sfet_circuit::parse::parse_netlist(d).map(|p| p.circuit.node_count()))
            .collect::<Result<Vec<_>, _>>()
    });
    res.map_err(err("deck parse"))?;
    out.push(
        "circuit.parse_netlist_us",
        secs * 1e6 / decks.len() as f64,
        "us",
    );
    let spec = mc::draw_spec(mc::REF_SEED, 0);
    let grid = pdn::reference_grid(size);
    let (secs, res) = timed(reps(size, 31), || {
        spec.build()
            .map_err(|e| e.to_string())
            .and_then(|a| grid.build().map(|b| (a, b)).map_err(|e| e.to_string()))
    });
    res?;
    out.push("circuit.build_us", secs * 1e6, "us");
    Ok(())
}

/// Transient and DC operating point of the workload's circuits, summed
/// over the cases.
fn sim_layer(size: Size, cases: &[SimCase], out: &mut Metrics) -> Result<(), String> {
    let (mut wall, mut solve_s, mut dcop) = (0.0, 0.0, 0.0);
    let (mut attempted, mut accepted, mut rejected, mut newton) = (0usize, 0usize, 0usize, 0usize);
    for case in cases {
        let mut runs: Vec<(f64, TranResult)> = Vec::new();
        for _ in 0..reps(size, 5) {
            let t0 = Instant::now();
            let r = transient(&case.circuit, case.tstop, &case.opts).map_err(err("transient"))?;
            runs.push((t0.elapsed().as_secs_f64(), r));
        }
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (secs, r) = &runs[runs.len() / 2];
        let st = r.stats();
        wall += secs;
        solve_s += st.solver.solve_time_ns as f64 * 1e-9;
        attempted += st.steps_attempted;
        accepted += st.steps_accepted;
        rejected += st.steps_rejected;
        newton += st.newton_iterations;
        let (secs, res) = timed(reps(size, 15), || {
            dc_operating_point_with_stats(&case.circuit, &case.opts)
        });
        res.map_err(err("DC operating point"))?;
        dcop += secs;
    }
    out.push("sim.tran_ms", wall * 1e3, "ms");
    out.push("sim.ns_per_step", wall * 1e9 / attempted as f64, "ns");
    out.push("sim.steps_accepted", accepted as f64, "count");
    out.push("sim.steps_rejected", rejected as f64, "count");
    out.push(
        "sim.newton_per_step",
        newton as f64 / attempted as f64,
        "count",
    );
    out.push("sim.solve_share", solve_s / wall, "ratio");
    out.push("sim.dcop_us", dcop * 1e6, "us");
    Ok(())
}

/// Every per-layer metric except `telemetry.overhead_frac`, which the
/// runner in `main.rs` derives from its two windows.
pub fn measure(size: Size, seed: u64, cases: &[SimCase]) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    inverter_layers(size, &mut out)?;
    grid_layers(size, &mut out)?;
    exec_layer(size, &mut out)?;
    circuit_layer(size, &mut out)?;
    sim_layer(size, cases, &mut out)?;
    serve::layer_probe(size, seed, &mut out)?;
    Ok(out)
}
