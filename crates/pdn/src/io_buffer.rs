//! I/O buffer simultaneous-switching-noise scenario (paper Fig. 11).
//!
//! A large output driver discharges/charges a 1 pF pad. Its supply and
//! ground run through bond-wire/package inductance, so the fast edge rings
//! both on-die rails (SSN). The Soft-FET variant slows the *driver input*
//! through a PTM, cutting the peak current and di/dt and with them the
//! bounce.

use crate::{PdnError, Result};
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_devices::mosfet::{gate_caps, MosfetModel};
use sfet_devices::ptm::PtmParams;
use sfet_sim::{transient, SimOptions};
use sfet_waveform::measure::{bounce, max_abs_didt, propagation_delay, DIDT_WINDOW_PER_EDGE};
use sfet_waveform::Waveform;

/// I/O buffer SSN scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct IoBufferScenario {
    /// Nominal supply \[V\].
    pub v_nom: f64,
    /// Supply-rail package inductance \[H\].
    pub l_vdd: f64,
    /// Ground-rail package inductance \[H\].
    pub l_vss: f64,
    /// Series resistance of each rail path \[Ω\].
    pub r_rail: f64,
    /// On-die decap between the internal rails \[F\].
    pub c_rail: f64,
    /// Driver PMOS width \[m\].
    pub wp: f64,
    /// Driver NMOS width \[m\].
    pub wn: f64,
    /// Driver channel length \[m\].
    pub l: f64,
    /// Pad load capacitance \[F\] (the paper's 1 pF).
    pub c_pad: f64,
    /// Input edge start \[s\].
    pub t_start: f64,
    /// Input transition time \[s\].
    pub input_rise: f64,
    /// Soft-FET input PTM; `None` for the baseline buffer.
    pub ptm: Option<PtmParams>,
    /// Simulation stop time \[s\].
    pub t_stop: f64,
}

impl Default for IoBufferScenario {
    fn default() -> Self {
        IoBufferScenario {
            v_nom: 1.0,
            l_vdd: 30e-12,
            l_vss: 30e-12,
            r_rail: 50e-3,
            c_rail: 5e-12,
            wp: 20e-6,
            wn: 10e-6,
            l: 40e-9,
            c_pad: 1e-12,
            t_start: 0.5e-9,
            input_rise: 150e-12,
            ptm: None,
            t_stop: 6e-9,
        }
    }
}

/// Measured outcome of one I/O transition.
#[derive(Debug, Clone)]
pub struct IoBufferOutcome {
    /// Worst V_CC-rail bounce magnitude \[V\].
    pub vdd_bounce: f64,
    /// Worst V_SS-rail bounce magnitude \[V\].
    pub vss_bounce: f64,
    /// Worst of the two bounces — the paper's SSN figure of merit \[V\].
    pub ssn: f64,
    /// Peak supply current \[A\].
    pub i_peak: f64,
    /// Maximum |di/dt| over a thirtieth of the input edge \[A/s\].
    pub di_dt: f64,
    /// Pad delay, 50 % input to 20 % output swing \[s\].
    pub delay: f64,
    /// Energy drawn from the supply over the whole run \[J\].
    pub energy: f64,
    /// Internal V_DD rail waveform.
    pub vddi: Waveform,
    /// Internal V_SS rail waveform.
    pub vssi: Waveform,
    /// Pad output waveform.
    pub v_pad: Waveform,
    /// Supply current waveform.
    pub i_vdd: Waveform,
}

impl IoBufferScenario {
    /// The Soft-FET variant: the same buffer with the given logic-scale PTM
    /// adapted to this driver per the paper's design rules —
    ///
    /// * resistances scaled to the driver's input capacitance (same
    ///   `R·C : ramp` proportion as the logic-cell experiments; a wider
    ///   PTM via has proportionally lower resistance in both phases), and
    /// * `T_PTM` chosen so the input-slew / T_PTM ratio sits at 3, the top
    ///   of the §IV-E recommended band (1.5–3).
    pub fn with_soft_fet(&self, logic_ptm: PtmParams) -> Self {
        let c_gate = gate_caps(&MosfetModel::pmos_40nm(), self.wp, self.l).total()
            + gate_caps(&MosfetModel::nmos_40nm(), self.wn, self.l).total();
        let reference_ratio = logic_ptm.r_ins * 0.5e-15 / 30e-12;
        // The R·C time constant is referenced to 2/3 of the edge: tuned (as
        // a designer would) so the first transition lands in the weakly-on
        // region of the driver, mirroring the Fig. 6 V_IMT optimum.
        let r_ins_target = reference_ratio * (self.input_rise * 2.0 / 3.0) / c_gate;
        let scale = r_ins_target / logic_ptm.r_ins;
        let tuned = logic_ptm
            .scaled_resistance(scale)
            .with_t_ptm(self.input_rise / 3.0);
        IoBufferScenario {
            ptm: Some(tuned),
            ..self.clone()
        }
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidScenario`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("v_nom", self.v_nom),
            ("l_vdd", self.l_vdd),
            ("l_vss", self.l_vss),
            ("r_rail", self.r_rail),
            ("c_rail", self.c_rail),
            ("c_pad", self.c_pad),
            ("input_rise", self.input_rise),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(PdnError::InvalidScenario(format!(
                    "{name} must be positive, got {v:e}"
                )));
            }
        }
        if self.t_stop <= self.t_start + self.input_rise {
            return Err(PdnError::InvalidScenario(
                "t_stop must extend beyond the input edge".into(),
            ));
        }
        Ok(())
    }

    /// Builds the scenario circuit.
    ///
    /// # Errors
    ///
    /// Propagates validation and circuit-construction failures.
    pub fn build(&self) -> Result<Circuit> {
        self.validate()?;
        let mut ckt = Circuit::new();
        let gnd = Circuit::ground();
        let vdd = ckt.node("vdd");
        let vddi = ckt.node("vddi");
        let vssi = ckt.node("vssi");
        let inp = ckt.node("in");
        let gate = ckt.node("g");
        let pad = ckt.node("pad");

        ckt.add_voltage_source("VDD", vdd, gnd, SourceWaveform::Dc(self.v_nom))?;
        // Package parasitics on both rails.
        let vdd_mid = ckt.node("vdd_mid");
        ckt.add_inductor("LVDD", vdd, vdd_mid, self.l_vdd)?;
        ckt.add_resistor("RVDD", vdd_mid, vddi, self.r_rail)?;
        let vss_mid = ckt.node("vss_mid");
        ckt.add_inductor("LVSS", gnd, vss_mid, self.l_vss)?;
        ckt.add_resistor("RVSS", vss_mid, vssi, self.r_rail)?;
        ckt.add_capacitor_ic("CRAIL", vddi, vssi, self.c_rail, self.v_nom)?;

        // Rising input: NMOS discharges the pad, bouncing V_SS.
        ckt.add_voltage_source(
            "VIN",
            inp,
            gnd,
            SourceWaveform::ramp(0.0, self.v_nom, self.t_start, self.input_rise),
        )?;
        match &self.ptm {
            Some(params) => {
                ckt.add_ptm("PIO", inp, gate, *params)?;
            }
            None => {
                ckt.add_resistor("RIO", inp, gate, 0.1)?;
            }
        }

        ckt.add_mosfet(
            "MP",
            pad,
            gate,
            vddi,
            vddi,
            MosfetModel::pmos_40nm(),
            self.wp,
            self.l,
        )?;
        ckt.add_mosfet(
            "MN",
            pad,
            gate,
            vssi,
            vssi,
            MosfetModel::nmos_40nm(),
            self.wn,
            self.l,
        )?;
        ckt.add_capacitor_ic("CPAD", pad, gnd, self.c_pad, self.v_nom)?;
        Ok(ckt)
    }

    /// Runs the scenario and measures the outcome.
    ///
    /// # Errors
    ///
    /// Propagates build, simulation, and measurement failures.
    pub fn run(&self) -> Result<IoBufferOutcome> {
        let ckt = self.build()?;
        let opts = SimOptions::for_duration(self.t_stop, 6000);
        let result = transient(&ckt, self.t_stop, &opts)?;

        let vddi = result.voltage("vddi")?;
        let vssi = result.voltage("vssi")?;
        let v_pad = result.voltage("pad")?;
        let v_in = result.voltage("in")?;
        let i_vdd = result.supply_current("VDD")?;

        let vdd_bounce = bounce(&vddi, self.v_nom);
        let vss_bounce = bounce(&vssi, 0.0);
        let (_, i_peak) = i_vdd.peak_abs();
        let di_dt = max_abs_didt(&i_vdd, DIDT_WINDOW_PER_EDGE * self.input_rise);
        let delay = propagation_delay(&v_in, &v_pad, self.v_nom)?;
        let energy = self.v_nom * i_vdd.integral().abs();

        Ok(IoBufferOutcome {
            vdd_bounce,
            vss_bounce,
            ssn: vdd_bounce.max(vss_bounce),
            i_peak: i_peak.abs(),
            di_dt,
            delay,
            energy,
            vddi,
            vssi,
            v_pad,
            i_vdd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builds() {
        let s = IoBufferScenario::default();
        s.build().unwrap().validate().unwrap();
    }

    #[test]
    fn invalid_rejected() {
        let s = IoBufferScenario {
            c_pad: 0.0,
            ..Default::default()
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn baseline_buffer_bounces_rails() {
        let out = IoBufferScenario::default().run().unwrap();
        // Pad discharges fully.
        assert!(out.v_pad.first_value() > 0.95);
        assert!(out.v_pad.last_value() < 0.05);
        // SSN in the tens-of-mV class (paper: ~22 mV).
        assert!(
            out.ssn > 3e-3 && out.ssn < 0.3,
            "SSN out of band: {:.1} mV",
            out.ssn * 1e3
        );
        assert!(out.i_peak > 1e-3);
    }

    #[test]
    fn soft_fet_reduces_ssn() {
        let base = IoBufferScenario::default();
        let soft = base.with_soft_fet(PtmParams::vo2_default());
        let out_b = base.run().unwrap();
        let out_s = soft.run().unwrap();
        assert!(
            out_s.ssn < out_b.ssn,
            "SSN: soft {:.1} mV vs base {:.1} mV",
            out_s.ssn * 1e3,
            out_b.ssn * 1e3
        );
        assert!(out_s.i_peak < out_b.i_peak);
        // The pad still switches.
        assert!(out_s.v_pad.last_value() < 0.05);
    }
}
