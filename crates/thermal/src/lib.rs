//! Block-level RC-equivalent compact thermal simulation for the `thermsched`
//! workspace.
//!
//! This crate plays the role that the HotSpot simulator plays in the DATE
//! 2005 paper "Rapid Generation of Thermal-Safe Test Schedules": given a
//! floorplan and a per-block power map, it predicts block temperatures, which
//! the test scheduler uses to *validate* candidate test sessions. The model
//! follows the thermal–electrical duality of the architecture-level RC model
//! (Skadron et al., ISCAS 2003):
//!
//! * every floorplan block is a node with a thermal capacitance,
//! * abutting blocks are coupled by lateral thermal resistances,
//! * blocks on the die boundary have a lateral path to the ambient,
//! * every block has a vertical path (die + interface material) to a lumped
//!   heat-spreader node, which connects through the heat sink and a
//!   convection resistance to the ambient.
//!
//! Both steady-state ([`SteadyStateSolver`]) and transient
//! ([`TransientSolver`]) solutions are available; [`RcThermalSimulator`]
//! wraps them behind the [`ThermalSimulator`] trait consumed by the
//! scheduler.
//!
//! # The transient solver paths
//!
//! The transient solver offers two [`TransientMethod`]s, selected through
//! [`TransientConfig`]:
//!
//! * [`TransientMethod::Auto`] (the default) picks the fastest path that is
//!   exact for each request. From-ambient constant-power sessions — the
//!   scheduler's exact usage pattern — go through the precomputed-operator
//!   fast path: the dense step operator `A = (C/Δt + G)⁻¹ · (C/Δt)` is
//!   built once and a whole `k`-step session advances through
//!   `(Aᵏ, S_k = I + A + … + Aᵏ⁻¹)` assembled by repeated squaring, with
//!   the powered operator cached per step count, so a session costs
//!   `O(n³ · log k)` (amortised: one solve plus one matrix–vector product)
//!   instead of `O(n² · k)` with zero per-step allocation. From ambient the
//!   path is *exact* for the per-block maxima too: the implicit-Euler
//!   iterates rise monotonically (non-negative `A` and power), so the
//!   interval maximum equals the final temperature. Anything else falls
//!   back to implicit-Euler stepping.
//! * [`TransientMethod::ImplicitEuler`] (the reference implementation,
//!   opt-in via [`TransientConfig::reference`]) steps the recurrence
//!   `(C/Δt + G) · ΔT_{k+1} = C/Δt · ΔT_k + P` one time step at a time. It
//!   is exact for *any* initial state and is the only path used by
//!   [`TransientSolver::simulate`] when resuming from arbitrary
//!   temperatures. Both paths agree to well within 1e-6 °C; a property
//!   suite in the workspace root enforces this.
//!
//! Every path of both backends returns a [`SessionThermalResult`] and
//! counts its steps by one rule: an interval of `d` seconds at time step
//! `Δt` takes `ceil(d / Δt)` steps, at least one. A non-positive or
//! non-finite `d`, or one needing more than `u32::MAX` steps, is
//! [`ThermalError::InvalidDuration`] — never a saturated count that the
//! fast path would square its way to or the grid would step for ever.
//!
//! # Example
//!
//! ```
//! use thermsched_floorplan::library;
//! use thermsched_thermal::{PowerMap, RcThermalSimulator, ThermalSimulator};
//!
//! # fn main() -> Result<(), thermsched_thermal::ThermalError> {
//! let floorplan = library::alpha21364();
//! let simulator = RcThermalSimulator::from_floorplan(&floorplan)?;
//! let mut power = PowerMap::zeros(floorplan.block_count());
//! power.set(floorplan.index_of("IntExec").unwrap(), 25.0)?;
//! let session = simulator.simulate_session(&power, 1.0)?;
//! println!("peak temperature: {:.1} C", session.max_temperature());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod error;
pub mod grid;
mod materials;
mod network;
mod package;
mod power;
mod simulator;
mod steady_state;
mod temperatures;
mod trace;
mod transient;
mod wire;

pub use backend::ThermalBackend;
pub use error::ThermalError;
pub use grid::{GridResolution, GridThermalSimulator};
pub use materials::Material;
pub use network::{lateral_resistance_from_geometry, NodeKind, ThermalNetwork};
pub use package::PackageConfig;
pub use power::PowerMap;
pub use simulator::{
    RcThermalSimulator, SessionThermalResult, SimulationFidelity, ThermalSimulator,
};
pub use steady_state::SteadyStateSolver;
pub use temperatures::Temperatures;
pub use trace::PowerTrace;
pub use transient::{TransientConfig, TransientMethod, TransientSolver};

/// Convenience result alias used throughout this crate.
pub type Result<T, E = ThermalError> = std::result::Result<T, E>;
