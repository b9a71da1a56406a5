//! ngspice-corpus cross-validation.
//!
//! Three layers, per the provenance notes in `sfet_verify::ngspice`:
//!
//! 1. every committed deck re-runs and matches its committed expected CSV
//!    under the corpus tolerance envelopes (regression gate, offline —
//!    ngspice is not invoked);
//! 2. every `Analytic` deck is additionally checked against its
//!    closed-form solution, independently of the CSV — the frontend
//!    features (params, expressions, controlled sources, `.ic`, `.dc`,
//!    subcircuit overrides) are validated against math, not against
//!    ourselves;
//! 3. backend identity: each transient deck produces bitwise-identical
//!    waveforms on the scalar and batched engines, and on the dense and
//!    sparse linear solvers.

use sfet_circuit::parse::{parse_netlist, Analysis};
use sfet_sim::{transient, transient_batch, BatchSpec, LinearSolver, SimOptions};
use sfet_verify::ngspice::{
    check_all, corpus, deck_path, lint_corpus, run_deck, run_deck_with, Provenance,
};
use sfet_waveform::Waveform;

#[test]
fn corpus_matches_committed_expectations() {
    let (pass, report) = check_all().expect("corpus runs and CSVs load");
    assert!(pass, "ngspice corpus out of envelope:\n{report}");
}

#[test]
fn corpus_directory_is_lint_clean() {
    let problems = lint_corpus().expect("corpus dir readable");
    assert!(problems.is_empty(), "corpus lint: {problems:?}");
}

/// Fetches one named signal out of a deck run.
fn signal(run: &[(String, Waveform)], name: &str) -> Waveform {
    run.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("signal {name} missing"))
        .1
        .clone()
}

/// Asserts a waveform tracks `f(t)` within `abs` everywhere at or after
/// `t_from`.
fn assert_tracks(wave: &Waveform, t_from: f64, abs: f64, f: impl Fn(f64) -> f64) {
    let mut checked = 0usize;
    for (t, v) in wave.iter() {
        if t < t_from {
            continue;
        }
        let want = f(t);
        assert!(
            (v - want).abs() < abs,
            "at t={t:.4e}: got {v:.6e}, analytic {want:.6e}"
        );
        checked += 1;
    }
    assert!(checked > 10, "too few samples checked ({checked})");
}

/// The PWL interpolant used by several decks' drive sources.
fn pwl(points: &[(f64, f64)], t: f64) -> f64 {
    if t <= points[0].0 {
        return points[0].1;
    }
    for w in points.windows(2) {
        let ((t0, v0), (t1, v1)) = (w[0], w[1]);
        if t <= t1 {
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
        }
    }
    points[points.len() - 1].1
}

#[test]
fn rc_lowpass_matches_closed_form() {
    // tau = 1k * 1f = 1 ps; .ic releases from ~0 at t=0.
    let run = run_deck("rc_lowpass").unwrap();
    let tau = 1e-12;
    assert_tracks(&signal(&run, "v(out)"), 0.0, 2e-3, |t| {
        1.0 - (-t / tau).exp()
    });
}

#[test]
fn rlc_series_matches_closed_form() {
    // Underdamped series RLC step (R=10, L=1n, C=1p), step centred at 1.5p.
    let run = run_deck("rlc_series").unwrap();
    let (r, l, c): (f64, f64, f64) = (10.0, 1e-9, 1e-12);
    let alpha = r / (2.0 * l);
    let wd = (1.0 / (l * c) - alpha * alpha).sqrt();
    let t0 = 1.5e-12;
    // The drive edge has a 1 ps rise (vs a 201 ps ring period), so the
    // ideal-step formula carries a small systematic error near the edge.
    assert_tracks(&signal(&run, "v(b)"), 5e-12, 3e-2, |t| {
        let tau = t - t0;
        1.0 - (-alpha * tau).exp() * ((wd * tau).cos() + alpha / wd * (wd * tau).sin())
    });
}

#[test]
fn vcvs_amp_matches_closed_form() {
    // Memoryless: v(mid) = vin/2, v(out) = {gain}=4 times v(mid).
    let run = run_deck("vcvs_amp").unwrap();
    let vin = [(0.0, 0.0), (100e-12, 1.0), (200e-12, 0.5)];
    assert_tracks(&signal(&run, "v(mid)"), 0.0, 1e-6, |t| pwl(&vin, t) / 2.0);
    assert_tracks(&signal(&run, "v(out)"), 0.0, 1e-6, |t| 2.0 * pwl(&vin, t));
}

#[test]
fn vccs_integrator_matches_closed_form() {
    // v(out) = (gm/C) * (t - 10.5p) after the input step settles; the
    // 1 meg bleed costs < 2e-4 relative over this window.
    let run = run_deck("vccs_integrator").unwrap();
    assert_tracks(&signal(&run, "v(out)"), 20e-12, 1e-3, |t| {
        1e9 * (t - 10.5e-12)
    });
}

#[test]
fn cccs_mirror_matches_closed_form() {
    // i(VSENSE) = vin/1k (positive: + terminal to - through the source);
    // F doubles it into the 1k load: v(out) = 2 vin.
    let run = run_deck("cccs_mirror").unwrap();
    let vin = [(0.0, 0.0), (100e-12, 1.0), (200e-12, 1.0)];
    assert_tracks(&signal(&run, "i(VSENSE)"), 0.0, 1e-9, |t| {
        pwl(&vin, t) / 1e3
    });
    assert_tracks(&signal(&run, "v(out)"), 0.0, 1e-6, |t| 2.0 * pwl(&vin, t));
}

#[test]
fn ccvs_sense_matches_closed_form() {
    // v(out) = r * i(VSENSE) = 500 * vin/1k = vin/2.
    let run = run_deck("ccvs_sense").unwrap();
    let vin = [(0.0, 0.0), (100e-12, 1.0), (200e-12, 1.0)];
    assert_tracks(&signal(&run, "i(VSENSE)"), 0.0, 1e-9, |t| {
        pwl(&vin, t) / 1e3
    });
    assert_tracks(&signal(&run, "v(out)"), 0.0, 1e-6, |t| pwl(&vin, t) / 2.0);
}

#[test]
fn param_divider_matches_closed_form() {
    // rtop override (2k) feeds the rbot={rtop} default: balanced divider.
    let run = run_deck("param_divider").unwrap();
    let vin = [(0.0, 0.0), (100e-12, 1.0)];
    assert_tracks(&signal(&run, "v(out)"), 0.0, 1e-6, |t| pwl(&vin, t) / 2.0);
}

#[test]
fn dc_transfer_matches_closed_form() {
    // Sweep axis is the swept V1 value: v(mid) = 0.75 vin, v(out) = 1.5 vin.
    let run = run_deck("dc_transfer").unwrap();
    let mid = signal(&run, "v(mid)");
    let out = signal(&run, "v(out)");
    assert_eq!(mid.len(), 21, ".dc 0..1 step 0.05 is 21 points");
    for (vin, v) in mid.iter() {
        assert!((v - 0.75 * vin).abs() < 1e-9, "v(mid) at vin={vin}");
    }
    for (vin, v) in out.iter() {
        assert!((v - 1.5 * vin).abs() < 1e-9, "v(out) at vin={vin}");
    }
}

/// Parses a deck and returns its circuit plus `.tran` options, or None for
/// `.dc` decks.
fn tran_setup(name: &str) -> Option<(sfet_circuit::Circuit, f64, SimOptions)> {
    let text = std::fs::read_to_string(deck_path(name)).unwrap();
    let parsed = parse_netlist(&text).unwrap();
    match parsed.analyses.first() {
        Some(&Analysis::Tran { dtmax, tstop }) => Some((
            parsed.circuit,
            tstop,
            SimOptions::default().with_dtmax(dtmax),
        )),
        _ => None,
    }
}

#[test]
fn scalar_and_batched_runs_are_bitwise_identical() {
    for deck in corpus() {
        let Some((circuit, tstop, opts)) = tran_setup(deck.name) else {
            continue;
        };
        let scalar = transient(&circuit, tstop, &opts).unwrap();
        let spec = BatchSpec {
            circuit: &circuit,
            tstop,
            opts: &opts,
        };
        // Two identical lanes, so a nonlinear (MOSFET/PTM) deck takes the
        // batched SoA path. A linear deck runs scalar per lane: it keeps
        // its LU factors per step size, which the SoA kernel does not.
        let batched = transient_batch(&[spec, spec]);
        for lane in &batched {
            let lane = lane.as_ref().unwrap();
            assert_eq!(lane.times(), scalar.times(), "{}: time axis", deck.name);
            for node in scalar.node_names() {
                assert_eq!(
                    scalar.node_samples(node).unwrap(),
                    lane.node_samples(node).unwrap(),
                    "{}: v({node}) diverged between scalar and batched",
                    deck.name
                );
            }
        }
    }
}

#[test]
fn dense_and_sparse_solvers_agree() {
    // Measured on this corpus: the linear (Analytic) decks are *bitwise*
    // identical across the two solvers — both perform the same
    // eliminations in the same IEEE-754 arithmetic for these matrices.
    // The nonlinear decks (MOSFET/PTM) are not: dense partial-pivoting
    // and sparse Gilbert–Peierls factorizations round differently in the
    // last ulp and Newton iteration amplifies that to ~5e-13, so those
    // are held to a 1e-9 absolute envelope instead. If a pivoting change
    // ever breaks the linear-deck exactness, demote it to the envelope —
    // deliberately, not silently.
    for deck in corpus() {
        let dense = run_deck_with(
            deck.name,
            &SimOptions::default().with_solver(LinearSolver::Dense),
        )
        .unwrap();
        let sparse = run_deck_with(
            deck.name,
            &SimOptions::default().with_solver(LinearSolver::Sparse),
        )
        .unwrap();
        for ((name, wd), (_, ws)) in dense.iter().zip(&sparse) {
            assert_eq!(
                wd.times(),
                ws.times(),
                "{}: {name} time axis diverged",
                deck.name
            );
            match deck.provenance {
                Provenance::Analytic => assert_eq!(
                    wd.values(),
                    ws.values(),
                    "{}: {name} diverged between dense and sparse",
                    deck.name
                ),
                Provenance::EnginePinned => {
                    for ((t, vd), (_, vs)) in wd.iter().zip(ws.iter()) {
                        assert!(
                            (vd - vs).abs() < 1e-9,
                            "{}: {name} at t={t:.4e}: dense {vd:.17e} vs sparse {vs:.17e}",
                            deck.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_new_frontend_feature_has_a_deck() {
    // The corpus must keep covering each frontend feature this harness
    // gates: scan the committed deck text for the cards themselves.
    type Pred = Box<dyn Fn(&str) -> bool>;
    let mut need: Vec<(&str, Pred)> = vec![
        (".param", Box::new(|t: &str| t.contains(".param"))),
        ("{expr}", Box::new(|t: &str| t.contains('{'))),
        (".subckt", Box::new(|t: &str| t.contains(".subckt"))),
        ("E card", Box::new(|t: &str| has_card(t, 'e'))),
        ("G card", Box::new(|t: &str| has_card(t, 'g'))),
        ("F card", Box::new(|t: &str| has_card(t, 'f'))),
        ("H card", Box::new(|t: &str| has_card(t, 'h'))),
        (".model", Box::new(|t: &str| t.contains(".model"))),
        (".ic", Box::new(|t: &str| t.contains(".ic"))),
        (".dc", Box::new(|t: &str| t.contains(".dc"))),
    ];
    let texts: Vec<String> = corpus()
        .iter()
        .map(|d| std::fs::read_to_string(deck_path(d.name)).unwrap())
        .collect();
    need.retain(|(_, pred)| !texts.iter().any(|t| pred(t)));
    let missing: Vec<&str> = need.iter().map(|(n, _)| *n).collect();
    assert!(missing.is_empty(), "no deck exercises: {missing:?}");
}

/// True when any non-comment line of the deck starts a card of `kind`.
fn has_card(text: &str, kind: char) -> bool {
    text.lines().any(|l| {
        let l = l.trim();
        !l.starts_with('*')
            && l.chars()
                .next()
                .is_some_and(|c| c.eq_ignore_ascii_case(&kind))
    })
}

#[test]
fn engine_pinned_decks_are_marked() {
    // Honesty check: the nonlinear decks must not masquerade as
    // cross-validated.
    for deck in corpus() {
        let analytic_tested = matches!(
            deck.name,
            "rc_lowpass"
                | "rlc_series"
                | "vcvs_amp"
                | "vccs_integrator"
                | "cccs_mirror"
                | "ccvs_sense"
                | "param_divider"
                | "dc_transfer"
        );
        match deck.provenance {
            Provenance::Analytic => assert!(
                analytic_tested,
                "{}: marked Analytic but has no closed-form test",
                deck.name
            ),
            Provenance::EnginePinned => assert!(
                !analytic_tested,
                "{}: has a closed-form test, promote it to Analytic",
                deck.name
            ),
        }
    }
}
