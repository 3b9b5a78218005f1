//! Row/address decoder model.
//!
//! A decoder selecting 1-of-N wordlines is modeled as a tree of NAND
//! pre-decoders followed by a final NOR/driver stage, in the NVSim style:
//! delay and energy grow logarithmically in N, area linearly.

use crate::error::{ceil_log2, CircuitError};
use crate::gate::{BufferChain, Gate, GateKind};
use crate::tech::TechNode;

/// Figure-of-merit bundle of one decoder geometry, computed once when
/// the decoder is built.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DecoderFoms {
    delay: f64,
    energy: f64,
    leakage: f64,
    area: f64,
}

/// Analytical 1-of-N decoder.
///
/// The figures of merit are computed at construction: a build is a few
/// gate evaluations and one driver sizing, cheaper than a memo lookup,
/// and the accessors then read fields.
#[derive(Debug, Clone)]
pub struct Decoder {
    outputs: usize,
    address_bits: usize,
    tech: TechNode,
    /// Capacitive load on each decoded output (F), e.g. a wordline.
    pub output_load: f64,
    /// The FOMs, and the load they were computed for: an `output_load`
    /// assigned after construction is computed afresh.
    foms: (f64, DecoderFoms),
}

/// Decoders are equal when their geometry, node and load are: the FOM
/// bundle is derived from those.
impl PartialEq for Decoder {
    fn eq(&self, other: &Self) -> bool {
        self.outputs == other.outputs
            && self.address_bits == other.address_bits
            && self.tech == other.tech
            && self.output_load == other.output_load
    }
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
        let address_bits = (ceil_log2(outputs) as usize).max(1);
        // Deliberately unspanned, like `Wire` and `RepeatedWire`: a span
        // would cost half of the ~100 ns build it measures.
        let foms = compute_foms(outputs, address_bits, output_load, tech);
        Ok(Self {
            outputs,
            address_bits,
            tech: tech.clone(),
            output_load,
            foms: (output_load, foms),
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

    fn foms(&self) -> DecoderFoms {
        let (load, foms) = self.foms;
        if load.to_bits() == self.output_load.to_bits() {
            foms
        } else {
            compute_foms(
                self.outputs,
                self.address_bits,
                self.output_load,
                &self.tech,
            )
        }
    }
}

/// The FOM bundle of a decoder with `outputs` lines of `address_bits`
/// address bits, each driving `output_load`.
fn compute_foms(
    outputs: usize,
    address_bits: usize,
    output_load: f64,
    tech: &TechNode,
) -> DecoderFoms {
    let nand = Gate::new(GateKind::Nand(2), 2.0, tech);
    let inter_cap = nand.input_cap() * 2.0;
    let c_in = tech.gate_cap(3.0 * tech.min_width_um) * 2.0;
    let driver = BufferChain::size_for(c_in, output_load.max(c_in), tech);
    // 2-input NAND levels in the decode tree: pairs of address bits
    // decoded per level.
    let levels = address_bits.div_ceil(2).max(1) as f64;
    // Roughly 2(N-1) gates in a full tree plus N drivers.
    let gates = 2.0 * (outputs as f64 - 1.0).max(1.0);
    DecoderFoms {
        delay: levels * nand.delay(inter_cap) + driver.delay(),
        energy: levels * nand.switching_energy(inter_cap) + driver.energy(),
        leakage: gates * nand.leakage_power(),
        area: gates * nand.area() + outputs as f64 * driver.area(),
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

    #[test]
    fn an_assigned_load_is_computed_afresh() {
        let t = tech();
        let mut d = Decoder::new(128, 5e-15, &t);
        d.output_load = 500e-15;
        let fresh = Decoder::new(128, 500e-15, &t);
        assert_eq!(d, fresh);
        assert_eq!(
            [d.delay(), d.energy(), d.leakage_power(), d.area()].map(f64::to_bits),
            [
                fresh.delay(),
                fresh.energy(),
                fresh.leakage_power(),
                fresh.area()
            ]
            .map(f64::to_bits)
        );
    }

    #[test]
    fn foms_match_pinned_bits() {
        // Bits of the lazily memoized decoder this eager one replaced,
        // for a handful of geometries across nodes, loads and the
        // 1-output and zero-load edges.
        let cases = [
            (
                1,
                1e-15,
                TechNode::n40(),
                [
                    0x3dbcffa12b3137f8,
                    0x3ce652cd22eaa718,
                    0x3e69c511dc3a41de,
                    0x3d5e66385c266144,
                ],
            ),
            (
                64,
                10e-15,
                TechNode::n40(),
                [
                    0x3dd71ed0a88625de,
                    0x3d1297bd1c478ba1,
                    0x3ec95dfd94c958d7,
                    0x3dc71d30c137b801,
                ],
            ),
            (
                100,
                1e-15,
                TechNode::n22(),
                [
                    0x3dc9ac8f3b95de72,
                    0x3ce9af046b4ea547,
                    0x3ed3bb659d9be348,
                    0x3dac7b3cdb86fb14,
                ],
            ),
            (
                1024,
                3.3e-14,
                TechNode::n65(),
                [
                    0x3debbc445c9eac31,
                    0x3d3494a6655e562f,
                    0x3f02684c6c829bba,
                    0x3e2a7e070f50a366,
                ],
            ),
            (
                4096,
                500e-15,
                TechNode::n130(),
                [
                    0x3e069a290051dc40,
                    0x3d75aae0942828e5,
                    0x3f15c529b96398bf,
                    0x3e8657c38d68c5e1,
                ],
            ),
            (
                513,
                0.0,
                TechNode::n32(),
                [
                    0x3dd279e3a545ab87,
                    0x3cf6944017b97fb2,
                    0x3efd60a8d7382c5f,
                    0x3de375b3a6cb0eb2,
                ],
            ),
        ];
        for (outputs, load, t, bits) in cases {
            let d = Decoder::new(outputs, load, &t);
            assert_eq!(
                [d.delay(), d.energy(), d.leakage_power(), d.area()].map(f64::to_bits),
                bits,
                "{outputs} outputs, {load:e} F, {} nm",
                t.feature_nm
            );
        }
    }
}
