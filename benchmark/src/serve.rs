//! `serve_mixed`: an in-process loopback `sfet-serve` with one client
//! connection and one worker. The client runs a closed loop on the
//! calling thread over a seeded mix: a quarter duplicate submissions of a fixed hot
//! set (cache hits: HTTP, JSON, the store and the netlist parse behind
//! the cache key) and three quarters fresh `rc_step`, `power_gate_wake`
//! and netlist-deck jobs (misses: simulated, then written to the store).
//!
//! Both the hot set and the fresh jobs are one-fifth `rc_step`, three
//! fifths deck and one fifth power-gate wake. Each kind's latency forms
//! its own cluster, so the shares are chosen to put every median and
//! tail inside a cluster rather than on the edge between two: the call
//! median falls among deck misses, the hit and miss medians among deck
//! jobs and the tails among power-gate jobs.
//!
//! Fresh jobs draw values from ranges disjoint from the hot set and never
//! repeat, so the hit/miss split of a fixed job count is exact.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sfet_circuit::parse::{parse_netlist, Analysis};
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::ptm::PtmParams;
use sfet_pdn::power_gate::PowerGateScenario;
use sfet_serve::json::Json;
use sfet_serve::{encode_tran_result, Client, ServeConfig, Server};
use sfet_sim::{transient, SimOptions};
use sfet_telemetry::Telemetry;
use sfet_verify::analytic::rho_first_order;

use crate::report::{median, Digest, Metrics, Rng};
use crate::workload::{SimCase, Size, Window, Workload};

/// Share of submissions that duplicate a hot-set job, and the shares of
/// `rc_step`, power-gate and deck jobs among both hits and misses.
const HIT_SHARE: f64 = 0.25;
const KIND_SHARES: [f64; 3] = [0.2, 0.2, 0.6];
/// Jobs per block of the mix; the shares are exact within a block.
const BLOCK: usize = 20;
/// `rc_step` defaults the jobs leave unset.
const RC_C: f64 = 1e-15;
const RC_V: f64 = 1.0;
const RC_T_RAMP: f64 = 1e-12;
const RC_TSTOP: f64 = 10e-12;
/// Power-gate wake window \[s\].
const GATE_T_STOP: f64 = 6e-9;
/// Served misses per kind kept for the direct-call check.
const CHECKED_PER_KIND: usize = 2;
/// Accuracy gate on the `rc_step` closed-form error.
const MAX_REL_ERR: f64 = 1e-2;

/// One job of the mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    Rc {
        r: f64,
    },
    Gate {
        wake_ramp: f64,
        i_active: f64,
        soft: bool,
    },
    Deck {
        cl_ff: f64,
    },
}

impl Job {
    fn kind(&self) -> usize {
        match self {
            Job::Rc { .. } => 0,
            Job::Gate { .. } => 1,
            Job::Deck { .. } => 2,
        }
    }

    /// The submit-request body.
    pub fn body(&self) -> String {
        match self {
            Job::Rc { r } => format!(r#"{{"scenario":"rc_step","params":{{"r":{r:?}}}}}"#),
            Job::Gate {
                wake_ramp,
                i_active,
                soft,
            } => format!(
                r#"{{"scenario":"power_gate_wake","params":{{"t_stop":{GATE_T_STOP:?},"wake_ramp":{wake_ramp:?},"i_active":{i_active:?},"soft":{soft}}}}}"#
            ),
            Job::Deck { cl_ff } => {
                let deck = deck_text(*cl_ff).replace('\n', "\\n");
                format!(r#"{{"netlist":"{deck}"}}"#)
            }
        }
    }

    /// The circuit, stop time and options the direct library call uses.
    pub fn direct_case(&self) -> Result<SimCase, String> {
        match self {
            Job::Rc { r } => {
                let mut ckt = Circuit::new();
                let (inp, out, gnd) = (ckt.node("in"), ckt.node("out"), Circuit::ground());
                (|| {
                    ckt.add_voltage_source(
                        "V1",
                        inp,
                        gnd,
                        SourceWaveform::ramp(0.0, RC_V, 0.0, RC_T_RAMP),
                    )?;
                    ckt.add_resistor("R1", inp, out, *r)?;
                    ckt.add_capacitor("C1", out, gnd, RC_C)
                })()
                .map_err(|e| e.to_string())?;
                Ok(SimCase {
                    circuit: ckt,
                    tstop: RC_TSTOP,
                    opts: SimOptions::for_duration(RC_TSTOP, 400),
                })
            }
            Job::Gate {
                wake_ramp,
                i_active,
                soft,
            } => {
                let mut scenario = PowerGateScenario {
                    wake_ramp: *wake_ramp,
                    t_stop: GATE_T_STOP,
                    i_active: *i_active,
                    ..PowerGateScenario::default()
                };
                if *soft {
                    scenario = scenario.with_soft_fet(PtmParams::vo2_default());
                }
                Ok(SimCase {
                    circuit: scenario.build().map_err(|e| e.to_string())?,
                    tstop: GATE_T_STOP,
                    opts: SimOptions::for_duration(GATE_T_STOP, 4000),
                })
            }
            Job::Deck { cl_ff } => {
                let parsed = parse_netlist(&deck_text(*cl_ff)).map_err(|e| e.to_string())?;
                let (dtmax, tstop) = parsed
                    .analyses
                    .iter()
                    .find_map(|a| match a {
                        Analysis::Tran { dtmax, tstop } => Some((*dtmax, *tstop)),
                        _ => None,
                    })
                    .ok_or("deck has no .tran")?;
                let mut opts = SimOptions::for_duration(tstop, 16);
                opts.dtmax = dtmax;
                Ok(SimCase {
                    circuit: parsed.circuit,
                    tstop,
                    opts,
                })
            }
        }
    }

    /// The result document of the direct library call.
    fn direct_document(&self) -> Result<String, String> {
        let case = self.direct_case()?;
        let result = transient(&case.circuit, case.tstop, &case.opts).map_err(|e| e.to_string())?;
        Ok(encode_tran_result(&result))
    }
}

/// A two-stage inverter chain with a parameterised load, in the
/// repository's netlist dialect.
pub fn deck_text(cl_ff: f64) -> String {
    format!(
        "* served inverter chain\n\
         .param cl={cl_ff:?}f\n\
         .model fastn nmos40 vt_shift=-0.05\n\
         .model fastp pmos40 vt_shift=0.05\n\
         VDD vdd 0 DC 1.0\n\
         VIN a 0 PULSE(0 1 50p 10p 10p 150p 400p)\n\
         M1 b a vdd vdd fastp W=240n L=40n\n\
         M2 b a 0 0 fastn W=120n L=40n\n\
         M3 c b vdd vdd fastp W=480n L=40n\n\
         M4 c b 0 0 fastn W=240n L=40n\n\
         C1 b 0 1f\n\
         C2 c 0 {{cl}}\n\
         .tran 0.5p 400p\n\
         .end\n"
    )
}

/// The fixed hot set every run pre-populates: one-fifth `rc_step`,
/// three fifths deck and one fifth power-gate jobs.
pub fn hot_set() -> Vec<Job> {
    let mut jobs: Vec<Job> = [800.0, 1200.0].map(|r| Job::Rc { r }).to_vec();
    jobs.extend([1.0, 1.5, 2.0, 2.5, 3.0, 3.5].map(|cl_ff| Job::Deck { cl_ff }));
    jobs.push(Job::Gate {
        wake_ramp: 1e-9,
        i_active: 50e-3,
        soft: false,
    });
    jobs.push(Job::Gate {
        wake_ramp: 2e-9,
        i_active: 40e-3,
        soft: true,
    });
    jobs
}

/// Closed-form `v(out)` of an `rc_step` job (ramp from `t` = 0).
fn rc_exact(r: f64, t: f64) -> f64 {
    let tau = r * RC_C;
    RC_V / RC_T_RAMP * (rho_first_order(t, tau) - rho_first_order(t - RC_T_RAMP, tau))
}

/// Largest |served − exact| of an `rc_step` result document, relative
/// to the step height.
fn rc_error(r: f64, document: &str) -> Result<f64, String> {
    let doc = Json::parse(document)?;
    let nums = |v: Option<&Json>| -> Result<Vec<f64>, String> {
        v.and_then(Json::as_arr)
            .ok_or("result lacks an array")?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| "non-numeric sample".to_string()))
            .collect()
    };
    let times = nums(doc.get("times"))?;
    let out = nums(doc.get("nodes").and_then(|n| n.get("out")))?;
    if times.len() != out.len() || times.is_empty() {
        return Err("rc_step result has mismatched time and sample counts".into());
    }
    Ok(times
        .iter()
        .zip(&out)
        .map(|(&t, &v)| (v - rc_exact(r, t)).abs() / RC_V)
        .fold(0.0, f64::max))
}

/// The seeded job stream; it lasts across windows.
#[derive(Clone)]
struct Mix {
    rng: Rng,
    used: HashSet<u64>,
    /// Slots left in the current block: `(kind, is_hit)`.
    block: Vec<(usize, bool)>,
}

impl Mix {
    /// The next job: a hot-set duplicate (`Some(index)`) or a fresh job.
    ///
    /// Jobs come in blocks of `BLOCK` in seeded order, each block holding
    /// exactly the mix's shares, so every stretch of a run does the same
    /// mix of work.
    fn next_job(&mut self, hot: &[Job]) -> (Job, Option<usize>) {
        if self.block.is_empty() {
            for (kind, share) in KIND_SHARES.iter().enumerate() {
                let hits = (BLOCK as f64 * HIT_SHARE * share).round() as usize;
                let misses = (BLOCK as f64 * (1.0 - HIT_SHARE) * share).round() as usize;
                self.block.extend((0..hits).map(|_| (kind, true)));
                self.block.extend((0..misses).map(|_| (kind, false)));
            }
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i + 1));
            }
        }
        let (kind, hit) = self.block.pop().expect("a refilled block is not empty");
        if hit {
            let of_kind: Vec<usize> = (0..hot.len()).filter(|&i| hot[i].kind() == kind).collect();
            let k = of_kind[self.rng.below(of_kind.len())];
            return (hot[k].clone(), Some(k));
        }
        loop {
            let (u, v) = (self.rng.unit(), self.rng.unit());
            let job = match kind {
                0 => Job::Rc {
                    r: 2000.0 + 900.0 * u,
                },
                1 => Job::Gate {
                    wake_ramp: 0.5e-9 + 1.5e-9 * u,
                    i_active: 20e-3 + 9e-3 * v,
                    soft: self.rng.unit() < 0.5,
                },
                _ => Job::Deck {
                    cl_ff: 5.0 + 1.9 * u,
                },
            };
            if self
                .used
                .insert(Digest::default().bytes(job.body().as_bytes()).0)
            {
                return (job, None);
            }
        }
    }
}

/// Per-request phase timings of a run.
#[derive(Debug, Default)]
struct Phases {
    submit_us: Vec<f64>,
    follow_ms: Vec<f64>,
    fetch_us: Vec<f64>,
    bytes: Vec<f64>,
}

/// How long a run lasts.
#[derive(Debug, Clone, Copy)]
enum Budget {
    Time(Duration),
    Jobs(usize),
}

/// Jobs of the memory phase, after which `peak_rss_mb` is read.
fn memory_jobs(size: Size) -> usize {
    match size {
        Size::Full => 100,
        Size::Tiny => 6,
    }
}

struct Running {
    server: Arc<Server>,
    accept: Option<JoinHandle<()>>,
    traced: bool,
}

impl Running {
    /// A one-worker server on `store`.
    fn start(store: &Path, telemetry: &Telemetry) -> Result<Running, String> {
        let cfg = ServeConfig::new(store)
            .with_workers(1)
            .with_queue_capacity(4)
            .with_telemetry(telemetry.clone());
        let server =
            Arc::new(Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind loopback: {e}"))?);
        let accept = Some(server.spawn());
        Ok(Running {
            server,
            accept,
            traced: telemetry.is_enabled(),
        })
    }

    fn client(&self) -> Client {
        Client::new(self.server.addr())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.client().shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

pub struct Serve {
    size: Size,
    store: PathBuf,
    /// The untraced server, and the traced one once a traced window has
    /// run; both serve the same store.
    servers: Vec<Running>,
    hot: Vec<Job>,
    /// The served bytes of each hot job, from its first fetch.
    hot_docs: Vec<String>,
    mix: Mix,
    /// Served misses kept for the direct-call check, per kind.
    checked: [Vec<(Job, String)>; 3],
    phases: Phases,
    violation: Option<String>,
}

/// Submits, follows to the terminal event and fetches the result,
/// timing each phase. Returns the result document.
fn round_trip(client: &Client, body: &str, phases: &mut Phases) -> Result<String, String> {
    let t0 = Instant::now();
    let sub = client
        .submit_raw(body)
        .map_err(|e| format!("submit: {e}"))?;
    phases.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
    if sub.status != 200 && sub.status != 202 {
        return Err(format!("submit status {}: {}", sub.status, sub.body));
    }
    let receipt = sub.json()?;
    let id = receipt
        .get("job_id")
        .and_then(Json::as_str)
        .ok_or("submit response lacks job_id")?
        .to_owned();
    // A job answered from the store is done at submission; only fresh
    // jobs are followed to their terminal event.
    if receipt.get("state").and_then(Json::as_str) != Some("done") {
        let t1 = Instant::now();
        let events = client
            .follow_events(&id)
            .map_err(|e| format!("events: {e}"))?;
        phases.follow_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        match events.last() {
            Some((name, _)) if name == "done" => {}
            other => return Err(format!("job {id} ended with {other:?}")),
        }
    }
    let t2 = Instant::now();
    let res = client.result(&id).map_err(|e| format!("result: {e}"))?;
    phases.fetch_us.push(t2.elapsed().as_secs_f64() * 1e6);
    if res.status != 200 {
        return Err(format!("result status {}: {}", res.status, res.body));
    }
    phases.bytes.push(res.body.len() as f64);
    Ok(res.body)
}

impl Serve {
    fn start(size: Size, seed: u64) -> Result<Serve, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let store = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".bench_work")
            .join(format!("serve-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let running = Running::start(&store, &Telemetry::disabled())?;
        let mut hot = hot_set();
        if size == Size::Tiny {
            // One job of each kind.
            hot = vec![hot[0].clone(), hot[2].clone(), hot[8].clone()];
        }
        let client = running.client();
        let mut phases = Phases::default();
        let mut hot_docs = Vec::with_capacity(hot.len());
        for job in &hot {
            hot_docs.push(round_trip(&client, &job.body(), &mut phases)?);
        }
        Ok(Serve {
            size,
            store,
            servers: vec![running],
            hot,
            hot_docs,
            mix: Mix {
                rng: Rng::new(seed),
                used: HashSet::new(),
                block: Vec::new(),
            },
            checked: Default::default(),
            phases: Phases::default(),
            violation: None,
        })
    }

    /// A client of the server with `telemetry`'s setting, started on the
    /// shared store, outside any timed window, the first time that
    /// setting is asked for.
    fn client_for(&mut self, telemetry: &Telemetry) -> Result<Client, String> {
        let traced = telemetry.is_enabled();
        if !self.servers.iter().any(|s| s.traced == traced) {
            self.servers.push(Running::start(&self.store, telemetry)?);
        }
        let running = self.servers.iter().find(|s| s.traced == traced);
        Ok(running.expect("server started").client())
    }

    /// The closed loop: one job at a time until `budget` is spent.
    fn run(&mut self, budget: Budget, telemetry: &Telemetry) -> Window {
        let client = match self.client_for(telemetry) {
            Ok(c) => c,
            Err(e) => {
                self.violation = Some(e);
                return Window::default();
            }
        };
        let mut w = Window::default();
        let start = Instant::now();
        loop {
            let go = match budget {
                Budget::Time(d) => start.elapsed() < d,
                Budget::Jobs(n) => (w.attempted as usize) < n,
            };
            if !go {
                break;
            }
            let (job, hot_index) = self.mix.next_job(&self.hot);
            let t0 = Instant::now();
            let out = round_trip(&client, &job.body(), &mut self.phases);
            w.attempted += 1;
            match out {
                Ok(doc) => {
                    w.complete(start, t0, 1, hot_index.is_some());
                    match hot_index {
                        Some(k) => {
                            if doc != self.hot_docs[k] {
                                self.violation = Some(format!("hot job {k}: refetch differs"));
                            }
                        }
                        None => {
                            let kept = &mut self.checked[job.kind()];
                            if kept.len() < CHECKED_PER_KIND {
                                kept.push((job, doc));
                            }
                        }
                    }
                }
                Err(e) => {
                    w.failed += 1;
                    eprintln!("serve job failed: {e}");
                }
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w
    }

    fn health(&self) -> Result<Json, String> {
        let client = self.servers.first().ok_or("server stopped")?.client();
        client.health().map_err(|e| format!("healthz: {e}"))?.json()
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.servers.clear();
        let _ = std::fs::remove_dir_all(&self.store);
        if let Some(work) = self.store.parent() {
            // Succeeds only once no other store is left in it.
            let _ = std::fs::remove_dir(work);
        }
    }
}

impl Workload for Serve {
    const TAILS: [f64; 3] = [0.99, 0.75, 0.95];

    fn setup(size: Size, seed: u64) -> Result<Self, String> {
        Serve::start(size, seed)
    }

    /// A fixed number of mix jobs: the server keeps every job it ran, so
    /// its memory grows with the jobs served.
    fn memory_phase(&mut self) -> Result<(), String> {
        let w = self.run(Budget::Jobs(memory_jobs(self.size)), &Telemetry::disabled());
        if w.failed > 0 {
            return Err(format!(
                "memory phase: {} of {} jobs failed",
                w.failed, w.attempted
            ));
        }
        Ok(())
    }

    fn window(&mut self, budget: Duration, telemetry: &Telemetry) -> Window {
        self.run(Budget::Time(budget), telemetry)
    }

    fn check(&mut self) -> Result<f64, String> {
        if let Some(v) = self.violation.take() {
            return Err(v);
        }
        let client = self.servers.first().ok_or("server stopped")?.client();
        let mut err = 0.0f64;
        let mut scratch = Phases::default();
        for (k, job) in self.hot.iter().enumerate() {
            let again = round_trip(&client, &job.body(), &mut scratch)?;
            if again != self.hot_docs[k] {
                return Err(format!("hot job {k}: second fetch is not byte-identical"));
            }
            if again != job.direct_document()? {
                return Err(format!(
                    "hot job {k}: served bytes differ from the direct call"
                ));
            }
            if let Job::Rc { r } = job {
                err = err.max(rc_error(*r, &again)?);
            }
        }
        for (job, served) in self.checked.iter().flatten() {
            if *served != job.direct_document()? {
                return Err(format!("{job:?}: served bytes differ from the direct call"));
            }
        }
        println!("serve rc_step closed-form error: {err:.6e} (relative to the step)");
        if !err.is_finite() || err > MAX_REL_ERR {
            return Err(format!(
                "rc_step off its closed form by {err:.3e} (> {MAX_REL_ERR})"
            ));
        }
        Ok(err)
    }

    fn input_digest(&self) -> u64 {
        let mut probe = self.mix.clone();
        (0..16)
            .fold(Digest::default(), |d, _| {
                d.bytes(probe.next_job(&self.hot).0.body().as_bytes())
            })
            .0
    }

    fn sim_cases(&self) -> Result<Vec<SimCase>, String> {
        [
            Job::Rc { r: 1000.0 },
            Job::Gate {
                wake_ramp: 1e-9,
                i_active: 50e-3,
                soft: true,
            },
            Job::Deck { cl_ff: 2.0 },
        ]
        .iter()
        .map(Job::direct_case)
        .collect()
    }
}

/// The `serve.*` layer metrics: a fresh server runs the seeded mix for a
/// fixed number of jobs, so the counts repeat exactly.
pub fn layer_probe(size: Size, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let mut serve = Serve::start(size, seed)?;
    let jobs = match size {
        Size::Full => 60,
        Size::Tiny => 6,
    };
    let w = serve.run(Budget::Jobs(jobs), &Telemetry::disabled());
    if w.failed > 0 {
        return Err(format!(
            "serve probe: {} of {} jobs failed",
            w.failed, w.attempted
        ));
    }
    if let Some(v) = serve.violation.take() {
        return Err(v);
    }
    let h = serve.health()?;
    let stat = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let p = &serve.phases;
    out.push("serve.submit_us", median(&p.submit_us), "us");
    out.push("serve.follow_ms", median(&p.follow_ms), "ms");
    out.push("serve.result_fetch_us", median(&p.fetch_us), "us");
    out.push(
        "serve.result_bytes",
        p.bytes.iter().sum::<f64>() / p.bytes.len() as f64,
        "bytes",
    );
    out.push(
        "serve.cache_hit_frac",
        stat("cache_hits") / stat("jobs_submitted"),
        "ratio",
    );
    out.push("serve.coalesced", stat("coalesced"), "count");
    out.push("serve.rejected_429", stat("queue_rejected"), "count");
    Ok(())
}
