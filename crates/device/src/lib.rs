//! Calibrated analytical device models (paper Sec. II-A and Fig. 1E).
//!
//! One well-calibrated device model "crosscuts" studies at the circuit and
//! architecture level: the same FeFET model drives the CAM-cell curves of
//! Fig. 3D, the state-overlap analysis of Fig. 3G, and the Eva-CAM array
//! FOMs of Fig. 5. This crate provides that layer:
//!
//! - [`MemoryDevice`] — the common figure-of-merit interface every
//!   technology implements;
//! - [`fefet::Fefet`] — multi-level ferroelectric FET (Si and BEOL
//!   flavors), including the quadratic CAM-cell conductance law;
//! - [`rram::Rram`] — valence-change RRAM with state-dependent
//!   programming variation, conductance relaxation, and the stochastic
//!   HRS programming exploited for in-memory hashing (Sec. IV);
//! - [`pcm::Pcm`], [`mram::Mram`], [`flash::Flash`], [`sram::Sram`] —
//!   the remaining technologies of the paper's design space;
//! - [`mlc::MultiLevelCell`] — the shared multi-level programming/readout
//!   machinery with Gaussian state distributions and overlap analysis.
//!
//! # Examples
//!
//! ```
//! use xlda_device::fefet::Fefet;
//! use xlda_device::MemoryDevice;
//!
//! let dev = Fefet::beol();
//! assert_eq!(dev.terminals(), 3);
//! assert!(dev.on_off_ratio() > 1e3);
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod fefet;
pub mod flash;
pub mod mlc;
pub mod mram;
pub mod pcm;
pub mod rram;
pub mod sram;

/// Technology family of a memory device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Ferroelectric field-effect transistor.
    Fefet,
    /// Resistive RAM (valence-change metal oxide).
    Rram,
    /// Phase-change memory.
    Pcm,
    /// Spin-transfer-torque magnetic RAM.
    Mram,
    /// Floating-gate / charge-trap flash.
    Flash,
    /// Static RAM (volatile CMOS).
    Sram,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceKind::Fefet => "FeFET",
            DeviceKind::Rram => "RRAM",
            DeviceKind::Pcm => "PCM",
            DeviceKind::Mram => "MRAM",
            DeviceKind::Flash => "Flash",
            DeviceKind::Sram => "SRAM",
        };
        f.write_str(s)
    }
}

/// Figure-of-merit interface shared by all memory technologies.
///
/// Implementations return *typical* values; distributions and
/// non-idealities live on the concrete types (e.g.
/// [`rram::Rram::programming_sigma`]).
pub trait MemoryDevice {
    /// Technology family.
    fn kind(&self) -> DeviceKind;

    /// Number of device terminals (2 for resistive crosspoints, 3 for
    /// transistor-like devices). Eva-CAM treats these differently
    /// (paper Sec. VI).
    fn terminals(&self) -> u8;

    /// Whether stored state is lost on power-down.
    fn is_volatile(&self) -> bool {
        false
    }

    /// On-state (low-resistance / conducting) conductance (S).
    fn g_on(&self) -> f64;

    /// Off-state conductance (S).
    fn g_off(&self) -> f64;

    /// On/off conductance ratio.
    fn on_off_ratio(&self) -> f64 {
        self.g_on() / self.g_off()
    }

    /// Write (program) voltage magnitude (V).
    fn write_voltage(&self) -> f64;

    /// Write pulse duration (s).
    fn write_latency(&self) -> f64;

    /// Energy to program one cell once (J).
    fn write_energy(&self) -> f64;

    /// Read voltage (V).
    fn read_voltage(&self) -> f64;

    /// Write endurance in cycles.
    fn endurance(&self) -> f64;

    /// Retention time at operating temperature (s).
    fn retention(&self) -> f64;

    /// Storage-cell footprint in F² (technology-normalized area).
    fn cell_area_f2(&self) -> f64;

    /// Maximum practical bits per cell for this technology.
    fn max_bits_per_cell(&self) -> u8;

    /// Human-readable name of the concrete flavor.
    fn name(&self) -> &str;
}

/// Convenience: all default-flavor devices in the design space.
///
/// Used by the DSE layer to enumerate the technology axis of Fig. 1A.
pub fn all_default_devices() -> Vec<Box<dyn MemoryDevice + Send + Sync>> {
    vec![
        Box::new(fefet::Fefet::beol()),
        Box::new(fefet::Fefet::silicon()),
        Box::new(rram::Rram::taox()),
        Box::new(pcm::Pcm::gst()),
        Box::new(mram::Mram::stt()),
        Box::new(flash::Flash::nor()),
        Box::new(sram::Sram::cell_6t()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_roster_is_complete() {
        let devices = all_default_devices();
        assert_eq!(devices.len(), 7);
        let kinds: Vec<DeviceKind> = devices.iter().map(|d| d.kind()).collect();
        assert!(kinds.contains(&DeviceKind::Fefet));
        assert!(kinds.contains(&DeviceKind::Rram));
        assert!(kinds.contains(&DeviceKind::Sram));
    }

    #[test]
    fn nonvolatile_devices_hold_state() {
        for d in all_default_devices() {
            if d.kind() == DeviceKind::Sram {
                assert!(d.is_volatile());
            } else {
                assert!(!d.is_volatile(), "{} should be non-volatile", d.name());
            }
        }
    }

    #[test]
    fn all_devices_have_sane_foms() {
        for d in all_default_devices() {
            assert!(d.g_on() > d.g_off(), "{}", d.name());
            assert!(d.write_voltage() > 0.0);
            assert!(d.write_latency() > 0.0);
            assert!(d.endurance() >= 1e3);
            assert!(d.cell_area_f2() > 0.0);
            assert!(d.max_bits_per_cell() >= 1);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceKind::Fefet.to_string(), "FeFET");
        assert_eq!(DeviceKind::Rram.to_string(), "RRAM");
    }
}
