//! Fig. 3F — segment-vote aggregation errors: accuracy vs HV length and
//! CAM subarray size.
//!
//! Paper shape: for a fixed HV length, accuracy improves as the subarray
//! (matchline) gets longer, reaching its maximum when a single subarray
//! holds the whole hypervector ("max"); short subarrays induce
//! aggregation errors that longer HVs can compensate.

use crate::hard_isolet;
use xlda_core::sweep::{par_map, SweepOptions};
use xlda_device::fefet::Fefet;
use xlda_hdc::cam::{Aggregation, CamAm, CamSearchConfig};
use xlda_hdc::encode::{Encoder, EncoderConfig};
use xlda_hdc::model::HdcModel;
use xlda_num::rng::Rng64;

/// One grid cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationPoint {
    /// Hypervector length.
    pub hv_dim: usize,
    /// Subarray size in cells (equals `hv_dim` for "max").
    pub subarray: usize,
    /// CAM classification accuracy.
    pub accuracy: f64,
}

/// Runs the HV-length × subarray-size grid.
pub fn run(quick: bool) -> Vec<AggregationPoint> {
    let data = hard_isolet(quick);
    let hv_dims: &[usize] = if quick { &[1024] } else { &[512, 1024, 2048] };
    let subarrays: &[usize] = if quick {
        &[8, 64, usize::MAX]
    } else {
        &[8, 16, 32, 64, 128, 256, usize::MAX]
    };
    let mut out = Vec::new();
    for &hv_dim in hv_dims {
        let encoder = Encoder::new(&EncoderConfig {
            dim_in: data.dim(),
            hv_dim,
            ..EncoderConfig::default()
        });
        let model = HdcModel::train(&encoder, &data, 3, 1);
        // Grid points are independent: fan the subarray axis out.
        out.extend(par_map(
            subarrays,
            |&sub| {
                let cols = sub.min(hv_dim);
                let config = CamSearchConfig {
                    bits_per_cell: 3,
                    subarray_cols: cols,
                    device: Fefet::silicon().with_sigma(0.0),
                    aggregation: Aggregation::SubarrayVote,
                    verify_tolerance: None,
                };
                let cam = CamAm::program(&model, &config, &mut Rng64::new(0x3f));
                AggregationPoint {
                    hv_dim,
                    subarray: cols,
                    accuracy: cam.accuracy(&encoder, &data),
                }
            },
            &SweepOptions::default(),
        ));
    }
    out
}

/// Prints the figure grid.
pub fn print(points: &[AggregationPoint]) {
    println!("Fig. 3F-ii — accuracy vs HV length and CAM subarray size (vote aggregation)");
    crate::rule(70);
    println!("{:>8} {:>10} {:>10}", "HV dim", "subarray", "accuracy");
    for p in points {
        let sub = if p.subarray == p.hv_dim {
            "max".to_string()
        } else {
            p.subarray.to_string()
        };
        println!("{:>8} {:>10} {:>9.1}%", p.hv_dim, sub, p.accuracy * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_subarrays_help() {
        let pts = run(true);
        let hv = pts[0].hv_dim;
        let acc = |sub: usize| {
            pts.iter()
                .find(|p| p.hv_dim == hv && p.subarray == sub.min(hv))
                .expect("grid point")
                .accuracy
        };
        let tiny = acc(8);
        let max = acc(usize::MAX);
        assert!(max >= tiny, "tiny {tiny} max {max}");
        assert!(max > 0.5, "max accuracy {max}");
    }
}
