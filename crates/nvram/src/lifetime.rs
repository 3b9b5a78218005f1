//! Endurance-limited lifetime estimation (the NVMExplorer lane).
//!
//! The paper's tooling catalog credits NVMExplorer with estimating
//! "memory lifetime based on memory traffic" (Sec. VI), and its top-down
//! flow asks "are data traffic patterns write heavy, thereby prioritizing
//! device endurance?" (Sec. VII). This module answers quantitatively:
//! given an array, its device endurance, write traffic, and a
//! wear-leveling quality factor, how long until the first cells wear out?

use crate::{RamCell, RamConfig};

/// Write-traffic description of a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteTraffic {
    /// Sustained write bandwidth into the array (B/s).
    pub bytes_per_second: f64,
    /// Wear-leveling efficiency in `(0, 1]`: 1.0 spreads writes
    /// perfectly across all cells; small values concentrate them
    /// (hot-spotting).
    pub leveling: f64,
}

impl WriteTraffic {
    /// Validates the description.
    pub fn is_valid(&self) -> bool {
        self.bytes_per_second >= 0.0 && self.leveling > 0.0 && self.leveling <= 1.0
    }
}

/// Lifetime estimate for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeEstimate {
    /// Time until the most-written cell exhausts its endurance (s).
    pub seconds: f64,
    /// Convenience: the same in years.
    pub years: f64,
    /// Full-array rewrites per second implied by the traffic.
    pub rewrites_per_second: f64,
}

/// Seconds per Julian year.
const YEAR_S: f64 = 365.25 * 86400.0;

/// Estimates endurance-limited lifetime.
///
/// With perfect leveling every cell absorbs
/// `traffic / capacity_bytes` writes per second; imperfect leveling
/// concentrates traffic by `1 / leveling`. Lifetime is
/// `endurance / per-cell write rate`. Volatile SRAM reports effectively
/// unlimited lifetime (its 1e16 endurance).
///
/// # Panics
///
/// Panics on an invalid traffic description or zero-capacity config.
pub fn estimate(config: &RamConfig, traffic: &WriteTraffic) -> LifetimeEstimate {
    assert!(traffic.is_valid(), "invalid traffic description");
    assert!(config.capacity_bits > 0, "zero-capacity array");
    let capacity_bytes = config.capacity_bits as f64 / 8.0;
    let rewrites_per_second = traffic.bytes_per_second / capacity_bytes;
    let endurance = config.cell.device().endurance();
    if traffic.bytes_per_second == 0.0 {
        return LifetimeEstimate {
            seconds: f64::INFINITY,
            years: f64::INFINITY,
            rewrites_per_second: 0.0,
        };
    }
    let per_cell_rate = rewrites_per_second / traffic.leveling;
    let seconds = endurance / per_cell_rate;
    LifetimeEstimate {
        seconds,
        years: seconds / YEAR_S,
        rewrites_per_second,
    }
}

/// Whether the configuration survives `required_years` under the given
/// traffic — the cull predicate the Sec. VII flow applies to write-heavy
/// workloads.
pub fn survives(config: &RamConfig, traffic: &WriteTraffic, required_years: f64) -> bool {
    estimate(config, traffic).years >= required_years
}

/// Ranks candidate cells by lifetime under the given traffic,
/// longest-lived first.
pub fn rank_by_lifetime(
    cells: &[RamCell],
    capacity_bits: u64,
    traffic: &WriteTraffic,
) -> Vec<(RamCell, LifetimeEstimate)> {
    let mut rows: Vec<(RamCell, LifetimeEstimate)> = cells
        .iter()
        .map(|&cell| {
            let config = RamConfig {
                capacity_bits,
                cell,
                ..RamConfig::default()
            };
            (cell, estimate(&config, traffic))
        })
        .collect();
    rows.sort_by(|a, b| b.1.seconds.total_cmp(&a.1.seconds));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(mbps: f64, leveling: f64) -> WriteTraffic {
        WriteTraffic {
            bytes_per_second: mbps * 1e6,
            leveling,
        }
    }

    fn cfg(cell: RamCell) -> RamConfig {
        RamConfig {
            capacity_bits: 8 << 20, // 1 MiB
            cell,
            ..RamConfig::default()
        }
    }

    #[test]
    fn flash_wears_out_fast_under_write_heavy_traffic() {
        // 100 MB/s into 1 MiB of NOR flash (1e5 endurance): hours, not
        // years.
        let est = estimate(&cfg(RamCell::Nand3D { layers: 64 }), &traffic(100.0, 1.0));
        assert!(est.years < 0.01, "flash lifetime {} years", est.years);
        // The same traffic on MRAM (1e15 endurance) is a non-issue.
        let mram = estimate(&cfg(RamCell::Mram1T1R), &traffic(100.0, 1.0));
        assert!(mram.years > 100.0, "mram lifetime {} years", mram.years);
    }

    #[test]
    fn poor_leveling_shortens_lifetime_proportionally() {
        let good = estimate(&cfg(RamCell::Rram1T1R), &traffic(10.0, 1.0));
        let bad = estimate(&cfg(RamCell::Rram1T1R), &traffic(10.0, 0.1));
        assert!((good.seconds / bad.seconds - 10.0).abs() < 1e-6);
    }

    #[test]
    fn bigger_arrays_live_longer_at_fixed_traffic() {
        let small = estimate(&cfg(RamCell::Rram1T1R), &traffic(10.0, 1.0));
        let big_cfg = RamConfig {
            capacity_bits: 64 << 20,
            cell: RamCell::Rram1T1R,
            ..RamConfig::default()
        };
        let big = estimate(&big_cfg, &traffic(10.0, 1.0));
        assert!(big.seconds > 7.0 * small.seconds);
    }

    #[test]
    fn zero_traffic_is_immortal() {
        let est = estimate(&cfg(RamCell::Pcm1T1R), &traffic(0.0, 1.0));
        assert!(est.seconds.is_infinite());
        assert!(survives(&cfg(RamCell::Pcm1T1R), &traffic(0.0, 1.0), 1000.0));
    }

    #[test]
    fn ranking_puts_endurance_champions_first() {
        let rows = rank_by_lifetime(
            &[
                RamCell::Nand3D { layers: 64 },
                RamCell::Mram1T1R,
                RamCell::Rram1T1R,
            ],
            8 << 20,
            &traffic(50.0, 0.9),
        );
        assert_eq!(rows[0].0, RamCell::Mram1T1R);
        assert_eq!(rows[2].0, RamCell::Nand3D { layers: 64 });
    }

    #[test]
    fn survives_matches_estimate() {
        let c = cfg(RamCell::Rram1T1R);
        let t = traffic(5.0, 1.0);
        let est = estimate(&c, &t);
        assert!(survives(&c, &t, est.years * 0.9));
        assert!(!survives(&c, &t, est.years * 1.1));
    }

    #[test]
    #[should_panic(expected = "invalid traffic")]
    fn bad_leveling_panics() {
        estimate(
            &cfg(RamCell::Rram1T1R),
            &WriteTraffic {
                bytes_per_second: 1.0,
                leveling: 0.0,
            },
        );
    }
}
