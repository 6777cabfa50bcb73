//! The benchmark's workloads: what corpus each generates from a seed, and
//! how the pipeline executes it.

use thermsched_service::{BackendKind, ScenarioSpec, TraceFamily};

/// Worker threads, or worker processes, that drain every batch.
pub const PARALLELISM: usize = 2;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Constant-power rc-compact jobs, in-process.
    OfflineRc8k,
    /// Traced, warm-started rc-compact jobs, in-process.
    OnlineRc,
    /// Grid-transient jobs at 4 × 4 cells per core, in-process.
    Grid4x,
    /// The `OfflineRc8k` corpus, sharded over worker processes.
    OfflineRcProcs2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineRc8k,
        Workload::OnlineRc,
        Workload::Grid4x,
        Workload::OfflineRcProcs2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineRc8k => "offline-rc-8k",
            Workload::OnlineRc => "online-rc",
            Workload::Grid4x => "grid-4x",
            Workload::OfflineRcProcs2 => "offline-rc-procs2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The corpus generator parameters; `seed` is the only input that
    /// varies between runs.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let base = ScenarioSpec {
            seed,
            ..ScenarioSpec::default()
        };
        match self {
            Workload::OfflineRc8k | Workload::OfflineRcProcs2 => ScenarioSpec {
                scenarios: 4000,
                ..base
            },
            Workload::OnlineRc => ScenarioSpec {
                scenarios: 1000,
                trace_families: vec![
                    TraceFamily::Ramp,
                    TraceFamily::Periodic,
                    TraceFamily::IdleGap,
                ],
                warm_start_range: Some((50.0, 70.0)),
                ..base
            },
            Workload::Grid4x => ScenarioSpec {
                scenarios: 50,
                grid_shapes: vec![(3, 3), (4, 3)],
                stc_limits: (5..25).map(|i| f64::from(i) * 5.0).collect(),
                ..base
            },
        }
    }

    pub fn backend(self) -> BackendKind {
        match self {
            Workload::Grid4x => BackendKind::GridTransient { cells_per_core: 4 },
            _ => BackendKind::RcCompact,
        }
    }

    /// Whether jobs cross the process boundary.
    pub fn multiprocess(self) -> bool {
        self == Workload::OfflineRcProcs2
    }
}
