//! Shared fixtures for the `thermsched` Criterion bench targets.
//!
//! Each target regenerates one table or figure of the DATE 2005 paper
//! (printing the reproduced rows/series to stdout before timing the
//! underlying computation), one ablation, or times the thermal building
//! blocks (`runtime`, `resolution_scaling`). The experiment logic lives in
//! [`thermsched::experiments`]; this crate only provides the common setup.
//! End-to-end service throughput, latency and per-layer timings are
//! measured by the workspace's one benchmark, `perfbench/`.

use thermsched_soc::{library, SystemUnderTest};
use thermsched_thermal::RcThermalSimulator;

/// The Alpha-21364-like system and a transient-fidelity simulator for it —
/// the fixture used by the Table 1 / Figure 5 benches.
///
/// # Panics
///
/// Panics if the library system cannot be built, which indicates a programming
/// error in the workspace rather than a user error.
pub fn alpha_fixture() -> (SystemUnderTest, RcThermalSimulator) {
    let sut = library::alpha21364_sut();
    let simulator = RcThermalSimulator::from_floorplan(sut.floorplan())
        .expect("library floorplan produces a valid thermal model");
    (sut, simulator)
}

/// The Figure 1 hypothetical 7-core system and its simulator.
///
/// # Panics
///
/// Panics if the library system cannot be built.
pub fn figure1_fixture() -> (SystemUnderTest, RcThermalSimulator) {
    let sut = library::figure1_sut();
    let simulator = RcThermalSimulator::from_floorplan(sut.floorplan())
        .expect("library floorplan produces a valid thermal model");
    (sut, simulator)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (sut, sim) = alpha_fixture();
        assert_eq!(sut.core_count(), 15);
        assert_eq!(thermsched_thermal::ThermalSimulator::block_count(&sim), 15);
        let (sut, _) = figure1_fixture();
        assert_eq!(sut.core_count(), 7);
    }
}
