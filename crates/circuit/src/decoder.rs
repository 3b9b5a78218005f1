//! Row/address decoder model.
//!
//! A decoder selecting 1-of-N wordlines is modeled as a tree of NAND
//! pre-decoders followed by a final NOR/driver stage, in the NVSim style:
//! delay and energy grow logarithmically in N, area linearly.

use crate::error::{ceil_log2, CircuitError};
use crate::gate::{BufferChain, Gate, GateKind};
use crate::tech::TechNode;
use xlda_num::memo::f64_key;
use xlda_num::memo_cache;

/// Memoized figure-of-merit bundle of one decoder geometry. Sweeps
/// rebuild identical decoders thousands of times (same row count, load,
/// node), so the derived FOMs are cached process-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DecoderFoms {
    delay: f64,
    energy: f64,
    leakage: f64,
    area: f64,
}

memo_cache!(static DECODER_FOMS: (usize, u64, u64) => DecoderFoms, "circuit.decoder");

/// Analytical 1-of-N decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoder {
    outputs: usize,
    address_bits: usize,
    tech: TechNode,
    /// Capacitive load on each decoded output (F), e.g. a wordline.
    pub output_load: f64,
}

impl Decoder {
    /// Creates a decoder with `outputs` decoded lines, each driving
    /// `output_load` farads.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is zero or the load is negative or NaN;
    /// guarded call sites should use [`Decoder::try_new`].
    pub fn new(outputs: usize, output_load: f64, tech: &TechNode) -> Self {
        match Self::try_new(outputs, output_load, tech) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Decoder::new`].
    ///
    /// Address width is computed with integer ceil-log2 (exact at powers
    /// of two, no float `log2` domain edge at `outputs == 1`); a
    /// degenerate 1-of-1 "decoder" still carries one address bit — the
    /// enable wire driving its single output.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NoOutputs`] for zero outputs,
    /// [`CircuitError::InvalidLoad`] for a negative or NaN load.
    pub fn try_new(
        outputs: usize,
        output_load: f64,
        tech: &TechNode,
    ) -> Result<Self, CircuitError> {
        if outputs == 0 {
            return Err(CircuitError::NoOutputs);
        }
        if output_load < 0.0 || !output_load.is_finite() {
            return Err(CircuitError::InvalidLoad { value: output_load });
        }
        let address_bits = ceil_log2(outputs) as usize;
        Ok(Self {
            outputs,
            address_bits: address_bits.max(1),
            tech: tech.clone(),
            output_load,
        })
    }

    /// Number of decoded outputs.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Address width in bits.
    pub fn address_bits(&self) -> usize {
        self.address_bits
    }

    /// Number of 2-input NAND levels in the decode tree.
    fn levels(&self) -> usize {
        // Pairs of address bits decoded per level.
        self.address_bits.div_ceil(2).max(1)
    }

    /// Decode delay (s): NAND tree plus the output driver chain.
    pub fn delay(&self) -> f64 {
        self.foms().delay
    }

    /// Energy (J) per decode operation.
    ///
    /// One path through the tree switches, plus the selected driver.
    pub fn energy(&self) -> f64 {
        self.foms().energy
    }

    /// Leakage power (W) of the whole decoder.
    pub fn leakage_power(&self) -> f64 {
        self.foms().leakage
    }

    /// Area (m²): tree gates plus one driver chain per output.
    pub fn area(&self) -> f64 {
        self.foms().area
    }

    /// The memoized FOM bundle for this geometry.
    fn foms(&self) -> DecoderFoms {
        // Span on the miss path only: hits are ~100 ns lookups, and a
        // span on every lookup would dominate the measurement.
        DECODER_FOMS.get_or_insert_with(
            (
                self.outputs,
                f64_key(self.output_load),
                self.tech.memo_key(),
            ),
            || {
                let _span = xlda_obs::span!("circuit.decoder");
                self.compute_foms()
            },
        )
    }

    fn compute_foms(&self) -> DecoderFoms {
        let nand = Gate::new(GateKind::Nand(2), 2.0, &self.tech);
        let inter_cap = nand.input_cap() * 2.0;
        let driver = self.driver();
        // Roughly 2(N-1) gates in a full tree plus N drivers.
        let gates = 2.0 * (self.outputs as f64 - 1.0).max(1.0);
        DecoderFoms {
            delay: self.levels() as f64 * nand.delay(inter_cap) + driver.delay(),
            energy: self.levels() as f64 * nand.switching_energy(inter_cap) + driver.energy(),
            leakage: gates * nand.leakage_power(),
            area: gates * nand.area() + self.outputs as f64 * driver.area(),
        }
    }

    fn driver(&self) -> BufferChain {
        let c_in = self.tech.gate_cap(3.0 * self.tech.min_width_um) * 2.0;
        BufferChain::size_for(c_in, self.output_load.max(c_in), &self.tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechNode {
        TechNode::n40()
    }

    #[test]
    fn address_bits_ceil_log2() {
        let d = Decoder::new(100, 1e-15, &tech());
        assert_eq!(d.address_bits(), 7);
        assert_eq!(d.outputs(), 100);
    }

    #[test]
    fn delay_grows_logarithmically() {
        let t = tech();
        let d64 = Decoder::new(64, 10e-15, &t);
        let d4096 = Decoder::new(4096, 10e-15, &t);
        // 4096 outputs is 64x more rows but only 2x the address bits.
        assert!(d4096.delay() > d64.delay());
        assert!(d4096.delay() < 3.0 * d64.delay());
    }

    #[test]
    fn area_grows_roughly_linearly() {
        let t = tech();
        let d64 = Decoder::new(64, 10e-15, &t);
        let d256 = Decoder::new(256, 10e-15, &t);
        let ratio = d256.area() / d64.area();
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn heavier_wordline_costs_more_energy() {
        let t = tech();
        let light = Decoder::new(128, 5e-15, &t);
        let heavy = Decoder::new(128, 500e-15, &t);
        assert!(heavy.energy() > light.energy());
        assert!(heavy.delay() > light.delay());
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn zero_outputs_panics() {
        Decoder::new(0, 1e-15, &tech());
    }

    #[test]
    fn try_new_reports_domain_errors() {
        let t = tech();
        assert_eq!(Decoder::try_new(0, 1e-15, &t), Err(CircuitError::NoOutputs));
        assert!(matches!(
            Decoder::try_new(64, -1e-15, &t),
            Err(CircuitError::InvalidLoad { .. })
        ));
        assert!(matches!(
            Decoder::try_new(64, f64::NAN, &t),
            Err(CircuitError::InvalidLoad { .. })
        ));
    }

    #[test]
    fn single_output_decoder_is_degenerate_but_finite() {
        // outputs == 1 sits on the old float-log2 edge (log2(1) == 0);
        // the decoder must still model as a 1-bit enable with positive,
        // finite figures of merit.
        let d = Decoder::try_new(1, 1e-15, &tech()).unwrap();
        assert_eq!(d.outputs(), 1);
        assert_eq!(d.address_bits(), 1);
        for v in [d.delay(), d.energy(), d.leakage_power(), d.area()] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }

    #[test]
    fn address_bits_exact_at_powers_of_two() {
        let t = tech();
        // Float log2().ceil() can mis-round at exact powers of two
        // (e.g. when 2^k is not exactly representable in the rounding
        // path); the integer path must be exact.
        for k in [1usize, 4, 10, 16] {
            let d = Decoder::try_new(1 << k, 1e-15, &t).unwrap();
            assert_eq!(d.address_bits(), k);
            let d1 = Decoder::try_new((1 << k) + 1, 1e-15, &t).unwrap();
            assert_eq!(d1.address_bits(), k + 1);
        }
    }
}
