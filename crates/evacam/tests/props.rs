//! Property-based tests for the CAM array model.

use proptest::prelude::*;
use xlda_circuit::tech::TechNode;
use xlda_evacam::{CamArray, CamCellDesign, CamConfig, DataKind, MatchKind};

fn arb_design() -> impl Strategy<Value = CamCellDesign> {
    prop::sample::select(CamCellDesign::all().to_vec())
}

fn arb_tech() -> impl Strategy<Value = TechNode> {
    prop::sample::select(vec![TechNode::n90(), TechNode::n40(), TechNode::n22()])
}

fn arb_config() -> impl Strategy<Value = CamConfig> {
    (
        arb_design(),
        arb_tech(),
        1usize..=4096,
        8usize..=512,
        prop::sample::select(vec![1usize, 2, 4]),
    )
        .prop_map(|(design, tech, words, bits, banks)| CamConfig {
            words,
            bits_per_word: bits,
            design,
            data: DataKind::Ternary,
            match_kind: MatchKind::Exact,
            row_banks: banks,
            tech,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_valid_exact_config_models_with_positive_foms(config in arb_config()) {
        let cam = CamArray::new(config).expect("exact-match ternary configs always model");
        let r = cam.report();
        prop_assert!(r.area_um2 > 0.0 && r.area_um2.is_finite());
        prop_assert!(r.search_latency_s > 0.0 && r.search_latency_s < 1e-3);
        prop_assert!(r.search_energy_j > 0.0 && r.search_energy_j.is_finite());
        prop_assert!(r.write_latency_s > 0.0);
        prop_assert!(r.write_energy_j > 0.0);
        prop_assert!(r.leakage_w > 0.0);
        prop_assert!(r.segments >= 1);
        prop_assert!(r.cols_per_segment * r.segments >= config_cells(&cam));
    }

    #[test]
    fn area_monotone_in_words(config in arb_config()) {
        prop_assume!(config.words <= 2048);
        let small = CamArray::new(config.clone()).expect("models").report();
        let mut big_cfg = config;
        big_cfg.words *= 2;
        let big = CamArray::new(big_cfg).expect("models").report();
        prop_assert!(big.area_um2 > small.area_um2);
        prop_assert!(big.search_energy_j > small.search_energy_j);
        prop_assert_eq!(big.capacity_bits, 2 * small.capacity_bits);
    }

    #[test]
    fn wider_words_never_reduce_cost(config in arb_config()) {
        prop_assume!(config.bits_per_word <= 256);
        let narrow = CamArray::new(config.clone()).expect("models").report();
        let mut wide_cfg = config;
        wide_cfg.bits_per_word *= 2;
        let wide = CamArray::new(wide_cfg).expect("models").report();
        prop_assert!(wide.area_um2 > narrow.area_um2);
        prop_assert!(wide.search_energy_j >= narrow.search_energy_j);
    }

    #[test]
    fn segments_cover_cells_exactly_once(config in arb_config()) {
        let cam = CamArray::new(config.clone()).expect("models");
        let cells = config.cells_per_word();
        prop_assert!(cam.segments() * cam.cols_per_segment() >= cells);
        // Not over-split: one fewer segment would not fit.
        if cam.segments() > 1 {
            prop_assert!((cam.segments() - 1) * cam.cols_per_segment() < cells);
        }
    }

    #[test]
    fn scaling_node_down_shrinks_area(design in arb_design(), words in 64usize..1024) {
        let mk = |tech: TechNode| {
            CamArray::new(CamConfig {
                words,
                bits_per_word: 64,
                design,
                data: DataKind::Ternary,
                match_kind: MatchKind::Exact,
                row_banks: 1,
                tech,
            })
            .expect("models")
            .report()
        };
        let old = mk(TechNode::n90());
        let new = mk(TechNode::n22());
        prop_assert!(new.area_um2 < old.area_um2);
    }
}

fn config_cells(cam: &CamArray) -> usize {
    cam.config().cells_per_word()
}

/// Any design, data kind, match kind, word count, width and banking, at
/// any of the seven nodes; configs the model rejects are kept, so the
/// strategy itself never filters.
fn arb_any_config() -> impl Strategy<Value = CamConfig> {
    (
        arb_design(),
        prop::sample::select(TechNode::all()),
        (0..4usize, 1u8..=4).prop_map(|(kind, bits)| match kind {
            0 => DataKind::Binary,
            1 => DataKind::Ternary,
            2 => DataKind::MultiBit(bits),
            _ => DataKind::Analog,
        }),
        (0..3usize, 0usize..=64).prop_map(|(kind, n)| match kind {
            0 => MatchKind::Exact,
            1 => MatchKind::Best { max_distance: n },
            _ => MatchKind::Threshold { k: n },
        }),
        1usize..=8192,
        1usize..=1024,
        1usize..=8,
    )
        .prop_map(
            |(design, tech, data, match_kind, words, bits, banks)| CamConfig {
                words,
                bits_per_word: bits,
                design,
                data,
                match_kind,
                row_banks: banks,
                tech,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `report` builds its searchline and write decoder once and shares
    /// them; every figure must still equal its own method bit for bit.
    #[test]
    fn report_equals_the_per_fom_methods_bit_for_bit(config in arb_any_config()) {
        let Ok(cam) = CamArray::new(config) else {
            return Ok(());
        };
        let r = cam.report();
        prop_assert_eq!(
            [
                r.area_um2,
                r.search_latency_s,
                r.search_energy_j,
                r.write_latency_s,
                r.write_energy_j,
                r.leakage_w,
            ]
            .map(f64::to_bits),
            [
                cam.area_um2(),
                cam.search_latency(),
                cam.search_energy(),
                cam.write_latency(),
                cam.write_energy(),
                cam.leakage_power(),
            ]
            .map(f64::to_bits)
        );
    }
}
