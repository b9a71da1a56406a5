//! Waveform measurements — the quantities the paper's figures report.

pub mod charge;
pub mod delay;
pub mod droop;
pub mod peak;
pub mod slew;
pub mod vtc;

pub use charge::{charge_split, ChargeSplit};
pub use delay::{crossing_time, propagation_delay, CrossDirection};
pub use droop::{bounce, droop, DroopReport};
pub use peak::{max_abs_didt, peak_abs_current, DIDT_WINDOW_PER_EDGE};
pub use slew::slew_rate;
pub use vtc::{noise_margins, NoiseMargins};
