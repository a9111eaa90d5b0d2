//! The four benchmark workloads: which `reap` commands they run, over
//! which captures, and what their outputs must satisfy.

use reap_trace::SpecWorkload;
use std::path::Path;

/// The `reap explore` grid of `explore_warm`: 3 ECC strengths × 7 read
/// currents = 21 base points, all behind one capture per workload.
pub const EXPLORE_GRID: &str = "ecc=sec,dec,tec read-current=0.7:1.0:0.05";

/// The one workload `long_window` captures: the high-gain tier's window
/// length matters most for it (docs/workloads.md).
pub const LONG_WORKLOAD: SpecWorkload = SpecWorkload::H264ref;

/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 2019;

/// Measured-access budgets. Warm-up is a tenth of each, as the CLI
/// sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Accesses per workload of the 21-workload sweeps and the explore.
    pub sweep: u64,
    /// Accesses of the `long_window` capture.
    pub long: u64,
}

/// The budgets the benchmark is defined at.
pub const FULL: Sizes = Sizes {
    sweep: 300_000,
    long: 2_000_000,
};

/// `--smoke` budgets: every path, in seconds.
pub const SMOKE: Sizes = Sizes {
    sweep: 20_000,
    long: 20_000,
};

/// What a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `reap sweep --ecc-sweep` into an empty store: every capture layer.
    SweepCold,
    /// The same sweep served from the warm store: no capture layer.
    SweepWarm,
    /// `reap explore` over [`EXPLORE_GRID`] from the warm store.
    ExploreWarm,
    /// One long `reap run` capture into an empty store.
    LongWindow,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// FNV-1a of its stdout at [`DEFAULT_SEED`] and [`FULL`] budgets.
    pub pinned_digest: u64,
}

/// The sweeps print the same table cold and warm, so they share a digest.
const SWEEP_DIGEST: u64 = 0xf8ee_912d_8723_0fcd;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sweep_cold",
        kind: Kind::SweepCold,
        pinned_digest: SWEEP_DIGEST,
    },
    Workload {
        name: "sweep_warm",
        kind: Kind::SweepWarm,
        pinned_digest: SWEEP_DIGEST,
    },
    Workload {
        name: "explore_warm",
        kind: Kind::ExploreWarm,
        pinned_digest: 0x67cf_3c2d_59df_0dce,
    },
    Workload {
        name: "long_window",
        kind: Kind::LongWindow,
        pinned_digest: 0xef5f_71b3_a35a_4331,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Arguments shared by one `reap` invocation.
#[derive(Debug, Clone, Copy)]
pub struct Invocation<'a> {
    /// Access budgets.
    pub sizes: Sizes,
    /// Trace seed.
    pub seed: u64,
    /// `-j` for the pooled commands.
    pub jobs: usize,
    /// The capture store directory.
    pub dir: &'a Path,
}

impl Workload {
    /// Whether each repetition starts from an empty capture store.
    pub fn is_cold(&self) -> bool {
        matches!(self.kind, Kind::SweepCold | Kind::LongWindow)
    }

    /// The SPEC profiles captured, in capture order.
    pub fn captures(&self) -> Vec<SpecWorkload> {
        match self.kind {
            Kind::LongWindow => vec![LONG_WORKLOAD],
            _ => SpecWorkload::ALL.to_vec(),
        }
    }

    /// Measured accesses per capture.
    pub fn accesses(&self, sizes: Sizes) -> u64 {
        match self.kind {
            Kind::LongWindow => sizes.long,
            _ => sizes.sweep,
        }
    }

    /// Warm-up plus measured accesses over every capture the output
    /// covers.
    pub fn window_accesses(&self, sizes: Sizes) -> u64 {
        let n = self.accesses(sizes);
        (n + n / 10) * self.captures().len() as u64
    }

    /// The cold command whose store the workload's warm runs read: the
    /// benchmark's set-up. Its stdout is also the reference the cold and
    /// warm sweeps must reproduce.
    pub fn setup_args(&self, at: Invocation<'_>) -> Vec<String> {
        match self.kind {
            Kind::LongWindow => run_args(at),
            _ => sweep_args(at, false),
        }
    }

    /// The measured command.
    pub fn rep_args(&self, at: Invocation<'_>) -> Vec<String> {
        match self.kind {
            Kind::SweepCold => sweep_args(at, false),
            Kind::SweepWarm => sweep_args(at, true),
            Kind::ExploreWarm => explore_args(at),
            Kind::LongWindow => run_args(at),
        }
    }

    /// For a cold workload, its warm partner: the same command served
    /// from the set-up store, whose stdout must equal the cold one's.
    pub fn partner_args(&self, at: Invocation<'_>) -> Option<Vec<String>> {
        match self.kind {
            Kind::SweepCold => Some(sweep_args(at, true)),
            Kind::LongWindow => {
                let mut args = run_args(at);
                args.extend(strings(&["--capture-policy", "read"]));
                Some(args)
            }
            Kind::SweepWarm | Kind::ExploreWarm => None,
        }
    }
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

fn sweep_args(at: Invocation<'_>, warm: bool) -> Vec<String> {
    let mut args = strings(&["sweep", "--ecc-sweep"]);
    args.extend(pooled(at, at.sizes.sweep));
    if warm {
        args.extend(strings(&["--capture-policy", "read"]));
    }
    args
}

fn explore_args(at: Invocation<'_>) -> Vec<String> {
    let mut args = strings(&["explore", "--grid", EXPLORE_GRID, "-w", "all"]);
    args.extend(pooled(at, at.sizes.sweep));
    args.extend(strings(&["--capture-policy", "read"]));
    args
}

fn run_args(at: Invocation<'_>) -> Vec<String> {
    let mut args = strings(&["run", "-w", LONG_WORKLOAD.name()]);
    args.extend([
        "-n".to_owned(),
        at.sizes.long.to_string(),
        "-s".to_owned(),
        at.seed.to_string(),
        "--capture-dir".to_owned(),
        at.dir.display().to_string(),
    ]);
    args
}

fn pooled(at: Invocation<'_>, accesses: u64) -> Vec<String> {
    vec![
        "-n".to_owned(),
        accesses.to_string(),
        "-s".to_owned(),
        at.seed.to_string(),
        "-j".to_owned(),
        at.jobs.to_string(),
        "--capture-dir".to_owned(),
        at.dir.display().to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn warm_commands_read_the_store_and_cold_ones_write_it() {
        let dir = Path::new("store");
        let at = Invocation {
            sizes: FULL,
            seed: 7,
            jobs: 2,
            dir,
        };
        for w in WORKLOADS {
            let rep = w.rep_args(at).join(" ");
            assert!(rep.contains("--capture-dir store"), "{rep}");
            assert_eq!(rep.contains("--capture-policy read"), !w.is_cold(), "{rep}");
            assert!(!w.setup_args(at).join(" ").contains("--capture-policy"));
            assert_eq!(w.partner_args(at).is_some(), w.is_cold());
        }
        let explore = by_name("explore_warm").unwrap().rep_args(at);
        assert!(explore.iter().any(|a| a == EXPLORE_GRID));
    }

    #[test]
    fn window_accesses_count_warm_up() {
        let sweep = by_name("sweep_warm").unwrap();
        assert_eq!(sweep.window_accesses(SMOKE), 21 * 22_000);
        let long = by_name("long_window").unwrap();
        assert_eq!(long.window_accesses(SMOKE), 22_000);
    }
}
