//! The test-session thermal model (Section 2 of the paper).
//!
//! For a candidate test session the model assigns each *active* core an
//! equivalent thermal resistance `Rth` — the parallel combination of its
//! lateral paths to *passive* neighbours and to the die boundary — and from
//! it the core thermal characteristic `TC = P · Rth` and the session thermal
//! characteristic `STC = max(TC · P · W)` that drives the scheduler. The
//! three modifications the paper applies to the generic RC model are all
//! represented and individually controllable through
//! [`SessionModelOptions`]:
//!
//! 1. only steady-state resistances are used (no capacitances),
//! 2. resistances between two active cores are dropped,
//! 3. passive cores are treated as thermally grounded.

use thermsched_floorplan::Side;
use thermsched_soc::SystemUnderTest;
use thermsched_thermal::{PackageConfig, ThermalNetwork};

use crate::{CoreWeights, Result};

/// Scale factor applied to the raw session thermal characteristic
/// (`W²·K/W`) so that the library Alpha-21364-like system lands in the
/// 20–100 `STCL` range the paper sweeps. The paper leaves the STC unit
/// unspecified; only the sweep shape matters.
pub const DEFAULT_STC_SCALE: f64 = 0.01;

/// Options controlling how the session thermal model is evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionModelOptions {
    /// Keep the thermal resistances between two *active* cores instead of
    /// dropping them (paper modification 2 drops them). Keeping them makes
    /// the model more optimistic because it pretends concurrently-heated
    /// neighbours still act as heat sinks.
    pub keep_active_active_paths: bool,
    /// Also include each core's vertical resistance (die + interface to the
    /// heat spreader) as an escape path. The paper's model is lateral-only;
    /// including the vertical path is the A3 ablation in DESIGN.md.
    pub include_vertical_path: bool,
    /// Scale factor applied to the raw `max(TC·P·W)` value.
    pub stc_scale: f64,
}

impl Default for SessionModelOptions {
    fn default() -> Self {
        SessionModelOptions {
            keep_active_active_paths: false,
            include_vertical_path: false,
            stc_scale: DEFAULT_STC_SCALE,
        }
    }
}

impl SessionModelOptions {
    /// The paper's model: lateral paths only, active–active paths dropped.
    pub fn paper() -> Self {
        Self::default()
    }
}

/// The low-complexity test-session thermal model used to guide schedule
/// generation.
///
/// # Example
///
/// ```
/// use thermsched::{CoreWeights, SessionThermalModel};
/// use thermsched_soc::library;
///
/// # fn main() -> Result<(), thermsched::ScheduleError> {
/// let sut = library::alpha21364_sut();
/// let model = SessionThermalModel::new(&sut, &Default::default(), Default::default())?;
/// let weights = CoreWeights::ones(sut.core_count());
/// let stc_single = model.session_characteristic(&[0], &weights);
/// let stc_pair = model.session_characteristic(&[0, 1], &weights);
/// assert!(stc_pair >= stc_single);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SessionThermalModel {
    /// Lateral paths of each block as `(neighbour, 1 / R)` conductances
    /// (W/K), in ascending neighbour id; blocks with no finite lateral
    /// resistance between them are absent.
    neighbours: Vec<Vec<(usize, f64)>>,
    /// Total conductance from each block to the die boundary (W/K).
    edge_conductance: Vec<f64>,
    /// Vertical resistance of each block to the spreader (K/W).
    vertical: Vec<f64>,
    /// Test power of each core (W).
    power: Vec<f64>,
    options: SessionModelOptions,
}

impl SessionThermalModel {
    /// Builds the model from a system under test and package description.
    ///
    /// # Errors
    ///
    /// Propagates thermal-network construction errors (invalid package).
    pub fn new(
        sut: &SystemUnderTest,
        package: &PackageConfig,
        options: SessionModelOptions,
    ) -> Result<Self> {
        let network = ThermalNetwork::build(sut.floorplan(), package)?;
        Ok(Self::from_network(sut, &network, options))
    }

    /// Builds the model from an already-assembled thermal network (avoids
    /// recomputing the adjacency geometry when the caller also owns a
    /// simulator).
    pub fn from_network(
        sut: &SystemUnderTest,
        network: &ThermalNetwork,
        options: SessionModelOptions,
    ) -> Self {
        let n = sut.core_count();
        let neighbours = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .filter_map(|j| {
                        let r = network.lateral_resistance(i, j);
                        r.is_finite().then(|| (j, 1.0 / r))
                    })
                    .collect()
            })
            .collect();
        let mut edge_conductance = vec![0.0; n];
        for (i, g) in edge_conductance.iter_mut().enumerate() {
            for side in Side::ALL {
                let r = network.edge_resistance(i, side);
                if r.is_finite() && r > 0.0 {
                    *g += 1.0 / r;
                }
            }
        }
        let vertical = (0..n).map(|i| network.vertical_resistance(i)).collect();
        let power = (0..n).map(|i| sut.test_power(i)).collect();
        SessionThermalModel {
            neighbours,
            edge_conductance,
            vertical,
            power,
            options,
        }
    }

    /// Number of cores covered by the model.
    pub fn core_count(&self) -> usize {
        self.power.len()
    }

    /// The options the model was built with.
    pub fn options(&self) -> SessionModelOptions {
        self.options
    }

    /// Equivalent thermal resistance (K/W) of `core` with respect to the test
    /// session whose active cores are `active`.
    ///
    /// Returns `f64::INFINITY` if the core has no escape path under the
    /// configured options (every neighbour active, no boundary exposure and
    /// the vertical path disabled).
    ///
    /// # Panics
    ///
    /// Panics if `core` or any id in `active` is out of range.
    pub fn equivalent_resistance(&self, active: &[usize], core: usize) -> f64 {
        assert!(core < self.core_count(), "core id out of range");
        self.resistance_with(core, |j| active.contains(&j))
    }

    /// [`Self::equivalent_resistance`] with session membership answered by
    /// `is_active`. The conductances are summed in one fixed order — die
    /// boundary, lateral neighbours in ascending id, vertical path — so
    /// every representation of the same session gives the same bits.
    fn resistance_with(&self, core: usize, is_active: impl Fn(usize) -> bool) -> f64 {
        let mut conductance = self.edge_conductance[core];
        for &(j, g) in &self.neighbours[core] {
            // Modification 2: active neighbours exchange negligible heat.
            if self.options.keep_active_active_paths || !is_active(j) {
                conductance += g;
            }
        }
        if self.options.include_vertical_path {
            conductance += 1.0 / self.vertical[core];
        }
        if conductance > 0.0 {
            1.0 / conductance
        } else {
            f64::INFINITY
        }
    }

    /// Core thermal characteristic `TC_TS(core) = P(core) · Rth(core)` with
    /// respect to the session `active`.
    ///
    /// # Panics
    ///
    /// Panics if `core` or any id in `active` is out of range.
    pub fn thermal_characteristic(&self, active: &[usize], core: usize) -> f64 {
        self.power[core] * self.equivalent_resistance(active, core)
    }

    /// Session thermal characteristic
    /// `STC(TS) = max_{Ci ∈ TS} TC_TS(Ci) · P(Ci) · W(Ci)`, scaled by the
    /// configured `stc_scale`.
    ///
    /// Returns `0.0` for an empty session.
    ///
    /// # Panics
    ///
    /// Panics if any id in `active` is out of range or the weights cover a
    /// different number of cores.
    pub fn session_characteristic(&self, active: &[usize], weights: &CoreWeights) -> f64 {
        assert_eq!(
            weights.core_count(),
            self.core_count(),
            "weight vector does not match core count"
        );
        self.characteristic_with(active, weights, |j| active.contains(&j))
    }

    /// [`Self::session_characteristic`] with session membership answered
    /// by `is_active`: the per-core terms are folded in `active` order.
    fn characteristic_with(
        &self,
        active: &[usize],
        weights: &CoreWeights,
        is_active: impl Fn(usize) -> bool + Copy,
    ) -> f64 {
        active
            .iter()
            .map(|&c| {
                self.power[c]
                    * self.resistance_with(c, is_active)
                    * self.power[c]
                    * weights.weight(c)
            })
            .fold(0.0_f64, f64::max)
            * self.options.stc_scale
    }

    /// Convenience: the session characteristic of a single core tested alone
    /// with unit weight. Useful for diagnostics and for picking a sensible
    /// `STCL` range for a new system.
    pub fn singleton_characteristic(&self, core: usize) -> f64 {
        let weights = CoreWeights::ones(self.core_count());
        self.session_characteristic(&[core], &weights)
    }
}

/// A test session grown one candidate at a time under a fixed weight
/// vector: the greedy fill of Algorithm 1 (lines 9–15). Membership is a
/// per-core mask next to the ordered core list, so evaluating a candidate
/// costs a pass over the session's neighbour lists instead of a clone of
/// the session plus a scan of it per neighbour. Every STC it computes is
/// bit-identical to [`SessionThermalModel::session_characteristic`] of the
/// same core list.
pub(crate) struct SessionFill<'m> {
    model: &'m SessionThermalModel,
    weights: &'m CoreWeights,
    /// The session's cores in the order they were added.
    cores: Vec<usize>,
    /// Membership mask: `active[c]` exactly when `cores` holds `c`.
    active: Vec<bool>,
}

impl<'m> SessionFill<'m> {
    /// An empty session.
    ///
    /// # Panics
    ///
    /// Panics if the weights cover a different number of cores.
    pub(crate) fn new(model: &'m SessionThermalModel, weights: &'m CoreWeights) -> Self {
        assert_eq!(
            weights.core_count(),
            model.core_count(),
            "weight vector does not match core count"
        );
        SessionFill {
            model,
            weights,
            cores: Vec::new(),
            active: vec![false; model.core_count()],
        }
    }

    /// Appends `candidate` and returns the grown session's STC.
    fn push(&mut self, candidate: usize) -> f64 {
        self.cores.push(candidate);
        self.active[candidate] = true;
        let active = &self.active;
        self.model
            .characteristic_with(&self.cores, self.weights, |j| active[j])
    }

    /// Keeps `candidate` if the grown session's STC is at most `limit`,
    /// and returns whether it did.
    pub(crate) fn try_add(&mut self, candidate: usize, limit: f64) -> bool {
        let fits = self.push(candidate) <= limit;
        if !fits {
            self.cores.pop();
            self.active[candidate] = false;
        }
        fits
    }

    /// The session's cores, in the order they were added.
    pub(crate) fn into_cores(self) -> Vec<usize> {
        self.cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_soc::library;

    fn model() -> (SessionThermalModel, thermsched_soc::SystemUnderTest) {
        let sut = library::alpha21364_sut();
        let model = SessionThermalModel::new(
            &sut,
            &PackageConfig::default(),
            SessionModelOptions::paper(),
        )
        .unwrap();
        (model, sut)
    }

    #[test]
    fn equivalent_resistance_increases_when_neighbours_become_active() {
        let (model, sut) = model();
        let fp = sut.floorplan();
        let icache = fp.index_of("Icache").unwrap();
        let dcache = fp.index_of("Dcache").unwrap();
        let alone = model.equivalent_resistance(&[icache], icache);
        let with_neighbor = model.equivalent_resistance(&[icache, dcache], icache);
        assert!(alone.is_finite());
        assert!(
            with_neighbor > alone,
            "losing a passive neighbour must raise Rth: {alone} -> {with_neighbor}"
        );
    }

    #[test]
    fn non_adjacent_active_core_does_not_change_resistance() {
        let (model, sut) = model();
        let fp = sut.floorplan();
        let icache = fp.index_of("Icache").unwrap();
        let fpreg = fp.index_of("FPReg").unwrap();
        let alone = model.equivalent_resistance(&[icache], icache);
        let with_far = model.equivalent_resistance(&[icache, fpreg], icache);
        assert!((alone - with_far).abs() < 1e-12);
    }

    #[test]
    fn keep_active_active_option_restores_paths() {
        let sut = library::alpha21364_sut();
        let mut opts = SessionModelOptions::paper();
        opts.keep_active_active_paths = true;
        let keep = SessionThermalModel::new(&sut, &PackageConfig::default(), opts).unwrap();
        let drop = SessionThermalModel::new(
            &sut,
            &PackageConfig::default(),
            SessionModelOptions::paper(),
        )
        .unwrap();
        let fp = sut.floorplan();
        let icache = fp.index_of("Icache").unwrap();
        let dcache = fp.index_of("Dcache").unwrap();
        let active = [icache, dcache];
        assert!(
            keep.equivalent_resistance(&active, icache)
                < drop.equivalent_resistance(&active, icache)
        );
    }

    #[test]
    fn vertical_path_option_lowers_resistance() {
        let sut = library::alpha21364_sut();
        let mut opts = SessionModelOptions::paper();
        opts.include_vertical_path = true;
        let with_v = SessionThermalModel::new(&sut, &PackageConfig::default(), opts).unwrap();
        let without = SessionThermalModel::new(
            &sut,
            &PackageConfig::default(),
            SessionModelOptions::paper(),
        )
        .unwrap();
        for core in 0..sut.core_count() {
            assert!(
                with_v.equivalent_resistance(&[core], core)
                    < without.equivalent_resistance(&[core], core)
            );
        }
    }

    #[test]
    fn thermal_characteristic_scales_with_power_and_resistance() {
        let (model, sut) = model();
        for core in 0..sut.core_count() {
            let tc = model.thermal_characteristic(&[core], core);
            let expected = sut.test_power(core) * model.equivalent_resistance(&[core], core);
            assert!((tc - expected).abs() < 1e-9);
            assert!(tc > 0.0);
        }
    }

    #[test]
    fn session_characteristic_is_monotone_in_session_growth() {
        // Adding a core can only keep or raise the STC: existing cores lose
        // passive neighbours (Rth grows) and the max gains a candidate.
        let (model, sut) = model();
        let weights = CoreWeights::ones(sut.core_count());
        let mut active: Vec<usize> = Vec::new();
        let mut last = 0.0;
        for core in 0..8 {
            active.push(core);
            let stc = model.session_characteristic(&active, &weights);
            assert!(
                stc >= last - 1e-12,
                "STC must not decrease when adding cores: {last} -> {stc}"
            );
            last = stc;
        }
    }

    #[test]
    fn session_characteristic_respects_weights() {
        let (model, sut) = model();
        let ones = CoreWeights::ones(sut.core_count());
        let mut bumped = CoreWeights::ones(sut.core_count());
        // Find which core attains the max for session {0, 1} and bump it.
        let base = model.session_characteristic(&[0, 1], &ones);
        let tc0 = model.thermal_characteristic(&[0, 1], 0) * sut.test_power(0);
        let tc1 = model.thermal_characteristic(&[0, 1], 1) * sut.test_power(1);
        let argmax = if tc0 >= tc1 { 0 } else { 1 };
        bumped.multiply(argmax, 2.0);
        let boosted = model.session_characteristic(&[0, 1], &bumped);
        assert!((boosted - 2.0 * base).abs() / base < 1e-9);
    }

    #[test]
    fn empty_session_has_zero_characteristic() {
        let (model, sut) = model();
        let weights = CoreWeights::ones(sut.core_count());
        assert_eq!(model.session_characteristic(&[], &weights), 0.0);
    }

    #[test]
    fn singleton_characteristics_are_in_the_sweepable_range() {
        // The default scale must put the library system in the paper's
        // STCL in [20, 100] sweep range: the smallest singleton well below 100
        // and typical values around or below the tight end.
        let (model, sut) = model();
        let singles: Vec<f64> = (0..sut.core_count())
            .map(|c| model.singleton_characteristic(c))
            .collect();
        let min = singles.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = singles.iter().cloned().fold(0.0, f64::max);
        assert!(min > 0.5, "singleton STC too small: {min}");
        assert!(min < 30.0, "singleton STC too large for the sweep: {min}");
        assert!(max < 200.0, "largest singleton STC out of range: {max}");
    }

    #[test]
    fn figure1_small_cores_have_higher_density_driven_characteristics() {
        let sut = library::figure1_sut();
        let model = SessionThermalModel::new(
            &sut,
            &PackageConfig::default(),
            SessionModelOptions::paper(),
        )
        .unwrap();
        let fp = sut.floorplan();
        let c2 = fp.index_of("C2").unwrap();
        let c5 = fp.index_of("C5").unwrap();
        // Same power; the small core has the weaker heat-escape configuration
        // once its small-core neighbours are active too.
        let weights = CoreWeights::ones(sut.core_count());
        let small_session: Vec<usize> = ["C2", "C3", "C4"]
            .iter()
            .map(|n| fp.index_of(n).unwrap())
            .collect();
        let large_session: Vec<usize> = ["C5", "C6", "C7"]
            .iter()
            .map(|n| fp.index_of(n).unwrap())
            .collect();
        let stc_small = model.session_characteristic(&small_session, &weights);
        let stc_large = model.session_characteristic(&large_session, &weights);
        assert!(
            stc_small > stc_large,
            "the guidance metric must rank the hot session higher: {stc_small} vs {stc_large}"
        );
        let _ = (c2, c5);
    }

    #[test]
    #[should_panic(expected = "core id out of range")]
    fn out_of_range_core_panics() {
        let (model, _) = model();
        let _ = model.equivalent_resistance(&[0], 99);
    }

    /// One SplitMix64 step.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `Rth` of `core` as the dense lateral-matrix model computed it: the
    /// boundary conductance, then `1 / r` for every other block with a
    /// finite lateral resistance in ascending id, then the vertical path.
    fn dense_resistance(
        network: &ThermalNetwork,
        options: SessionModelOptions,
        n: usize,
        active: &[usize],
        core: usize,
    ) -> f64 {
        let mut conductance = 0.0;
        for side in Side::ALL {
            let r = network.edge_resistance(core, side);
            if r.is_finite() && r > 0.0 {
                conductance += 1.0 / r;
            }
        }
        for j in 0..n {
            let r = network.lateral_resistance(core, j);
            if j == core || !r.is_finite() {
                continue;
            }
            if active.contains(&j) && !options.keep_active_active_paths {
                continue;
            }
            conductance += 1.0 / r;
        }
        if options.include_vertical_path {
            conductance += 1.0 / network.vertical_resistance(core);
        }
        if conductance > 0.0 {
            1.0 / conductance
        } else {
            f64::INFINITY
        }
    }

    #[test]
    fn fill_characteristic_matches_session_characteristic_bit_for_bit() {
        use thermsched_soc::{GeneratorConfig, SocGenerator};

        let mut suts = vec![library::alpha21364_sut(), library::figure1_sut()];
        for (seed, (grid_columns, grid_rows)) in
            [(3, 3), (4, 3), (4, 4), (5, 4)].into_iter().enumerate()
        {
            let config = GeneratorConfig {
                grid_columns,
                grid_rows,
                ..GeneratorConfig::default()
            };
            suts.push(
                SocGenerator::new(seed as u64, config)
                    .unwrap()
                    .generate()
                    .unwrap(),
            );
        }
        let mut state = 2005;
        for sut in &suts {
            for (keep_active_active_paths, include_vertical_path) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let options = SessionModelOptions {
                    keep_active_active_paths,
                    include_vertical_path,
                    ..SessionModelOptions::paper()
                };
                let network =
                    ThermalNetwork::build(sut.floorplan(), &PackageConfig::default()).unwrap();
                let model = SessionThermalModel::from_network(sut, &network, options);
                let n = model.core_count();
                for _ in 0..64 {
                    // Random weights, a random active set in random order
                    // (grown past some rejected cores) and one candidate
                    // outside it.
                    let mut weights = CoreWeights::ones(n);
                    for core in 0..n {
                        if draw(&mut state).is_multiple_of(3) {
                            weights.multiply(core, 1.1);
                        }
                    }
                    let mut cores: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        cores.swap(i, (draw(&mut state) % (i as u64 + 1)) as usize);
                    }
                    let size = (draw(&mut state) % n as u64) as usize;
                    let candidate = cores[size];

                    let mut fill = SessionFill::new(&model, &weights);
                    let mut active = Vec::new();
                    for &core in &cores[..size] {
                        if draw(&mut state).is_multiple_of(4) {
                            assert!(!fill.try_add(core, -1.0));
                        } else {
                            assert!(fill.try_add(core, f64::INFINITY));
                            active.push(core);
                        }
                    }
                    let grown = fill.push(candidate);
                    active.push(candidate);
                    let expected = model.session_characteristic(&active, &weights);
                    assert_eq!(
                        grown.to_bits(),
                        expected.to_bits(),
                        "{options:?}: session {active:?}: {grown} vs {expected}"
                    );
                    // The neighbour lists keep the dense model's bits too.
                    let dense = active
                        .iter()
                        .map(|&c| {
                            let r = dense_resistance(&network, options, n, &active, c);
                            assert_eq!(
                                model.equivalent_resistance(&active, c).to_bits(),
                                r.to_bits()
                            );
                            sut.test_power(c) * r * sut.test_power(c) * weights.weight(c)
                        })
                        .fold(0.0_f64, f64::max)
                        * options.stc_scale;
                    assert_eq!(expected.to_bits(), dense.to_bits(), "{options:?}");
                }
            }
        }
    }

    #[test]
    fn fill_keeps_only_candidates_within_the_limit() {
        let (model, sut) = model();
        let weights = CoreWeights::ones(sut.core_count());
        let limit = 40.0;
        let mut fill = SessionFill::new(&model, &weights);
        let mut expected: Vec<usize> = Vec::new();
        for candidate in 0..sut.core_count() {
            let mut tentative = expected.clone();
            tentative.push(candidate);
            let fits = model.session_characteristic(&tentative, &weights) <= limit;
            if fits {
                expected = tentative;
            }
            assert_eq!(
                fill.try_add(candidate, limit),
                fits,
                "candidate {candidate}"
            );
        }
        assert!(!expected.is_empty() && expected.len() < sut.core_count());
        assert_eq!(fill.into_cores(), expected);
    }
}
