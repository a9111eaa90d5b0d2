//! Journals written by an earlier build keep resuming.
//!
//! `tests/fixtures/` holds two checkpoint journals written by the build
//! before the sweep and the explorer shared one task runner, each cut
//! down to part of its run, beside that build's full stdout for the
//! uninterrupted run:
//!
//! * `ecc-sweep.jsonl`: `reap sweep --ecc-sweep -n 4000 --seed 7 -j 1
//!   --checkpoint F`, cut to three workloads (`ecc-sweep.stdout`);
//! * `explore.jsonl`: `reap explore --grid "ecc=sec,dec
//!   read-current=0.8,1.0 scrub=0,2k" --workloads hmmer,mcf -n 4000
//!   --seed 11 -j 1 --checkpoint F`, cut to one combo
//!   (`explore.stdout`).
//!
//! Each test resumes its journal with this build. The journaled groups
//! must come back with exactly the journal's bits, the recomputed groups
//! must equal a clean run's bits, and the table must print as that build
//! printed it. A changed journal key, fingerprint or row codec fails the
//! resume as a foreign checkpoint, or recomputes the cut-down part.
//!
//! Scores are folds of per-cell counts in a canonical order, which moved
//! the last bits of some sums (by at most about 1e-12 relative) after
//! these journals were written: so a journaled group is compared with
//! the journal, not with a clean run of this build, and no printed digit
//! may move.

use reap::core::campaign::{run_sweep_campaign, CampaignConfig, CampaignOutcome, SweepMode};
use reap::core::checkpoint;
use reap::core::explore::{
    explore, explore_row_from_json, parse_grid, ExploreConfig, ExploreOutcome, ExploreRow,
};
use reap::core::SweepRow;
use reap::trace::SpecWorkload;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A private copy of fixture `name`: a resume appends to its journal.
fn scratch_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reap-earlier-journals-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::copy(fixture(name), &path).unwrap();
    path
}

/// The `reap sweep --ecc-sweep` table, as the CLI prints it.
fn sweep_table(outcome: &CampaignOutcome) -> String {
    let mut out = format!(
        "{:<12} {:>5} {:>12} {:>16} {:>10}\n",
        "workload", "ECC", "REAP gain", "E[fail] conv", "max N"
    );
    for o in &outcome.outcomes {
        for r in o.result.as_ref().expect("every workload succeeds") {
            let ecc = r.ecc.expect("ECC-sweep rows carry their strength");
            writeln!(
                out,
                "{:<12} {:>5} {:>11.1}x {:>16.3e} {:>10}",
                o.workload.name(),
                ecc.to_string(),
                r.mttf_gain,
                r.efail_conv,
                r.max_n,
            )
            .unwrap();
        }
    }
    out
}

/// The `reap explore` table, as the CLI prints it.
fn explore_table(outcome: &ExploreOutcome) -> String {
    let mut out = format!(
        "{:<6} {:>9} {:>5} {:>7} {:>13} {:>13} {:>9} {:>6}\n",
        "ways", "scrub", "ecc", "i_read", "mttf_s", "energy_j", "area_mm2", "front"
    );
    for (i, r) in outcome.rows.iter().enumerate() {
        let on_front = outcome.front.contains(&i);
        writeln!(
            out,
            "{:<6} {:>9} {:>5} {:>7.3} {:>13.6e} {:>13.6e} {:>9.4} {:>6}",
            r.ways,
            r.scrub,
            r.ecc,
            r.read_scale,
            r.mttf_s,
            r.energy_j,
            r.area_mm2,
            if on_front { "*" } else { "" },
        )
        .unwrap();
    }
    writeln!(
        out,
        "pareto front: {} of {} points ({} base, {} refined, {} over budget)",
        outcome.front.len(),
        outcome.rows.len(),
        outcome.base_points,
        outcome.refined_points,
        outcome.truncated,
    )
    .unwrap();
    out
}

fn sweep_bits(rows: &[SweepRow]) -> Vec<u64> {
    rows.iter()
        .flat_map(|r| {
            [
                r.mttf_gain.to_bits(),
                r.energy_overhead.to_bits(),
                r.l2_hit_rate.to_bits(),
                r.efail_conv.to_bits(),
                r.max_n,
            ]
        })
        .collect()
}

fn explore_bits(r: &ExploreRow) -> [u64; 8] {
    [
        r.ways as u64,
        r.scrub,
        r.ecc.t() as u64,
        r.read_scale.to_bits(),
        r.mttf_s.to_bits(),
        r.energy_j.to_bits(),
        r.area_mm2.to_bits(),
        u64::from(r.refined),
    ]
}

#[test]
fn an_earlier_builds_ecc_sweep_journal_resumes_bit_identically() {
    let clean = run_sweep_campaign(
        &CampaignConfig::new(4_000, 7, SweepMode::EccSweep, 2),
        |_| ControlFlow::Continue(()),
    )
    .unwrap();

    let journal = checkpoint::load(&fixture("ecc-sweep.jsonl")).unwrap();
    let path = scratch_copy("ecc-sweep.jsonl");
    let mut config = CampaignConfig::new(4_000, 7, SweepMode::EccSweep, 2);
    config.checkpoint = Some(path.clone());
    config.resume = true;
    let resumed = run_sweep_campaign(&config, |_| ControlFlow::Continue(())).unwrap();
    std::fs::remove_file(path).ok();

    assert_eq!(resumed.resumed, 3, "the three journaled workloads resume");
    assert_eq!(resumed.failed, 0);
    let mut served = Vec::new();
    for (got, want) in resumed.outcomes.iter().zip(&clean.outcomes) {
        assert_eq!(got.workload, want.workload);
        let rows = got.result.as_ref().expect("every workload succeeds");
        if got.from_checkpoint {
            let (_, journaled) = journal
                .completed
                .iter()
                .find(|(key, _)| key == got.workload.name())
                .expect("a resumed workload is in the journal");
            assert_eq!(sweep_bits(rows), sweep_bits(journaled), "{}", got.workload);
            served.push(got.workload.name());
        } else {
            let clean_rows = want.result.as_ref().expect("every workload succeeds");
            assert_eq!(sweep_bits(rows), sweep_bits(clean_rows), "{}", got.workload);
        }
    }
    let mut journaled: Vec<&str> = journal.completed.iter().map(|(k, _)| &k[..]).collect();
    served.sort_unstable();
    journaled.sort_unstable();
    assert_eq!(served, journaled);
    let stdout = std::fs::read_to_string(fixture("ecc-sweep.stdout")).unwrap();
    assert_eq!(sweep_table(&resumed), stdout);
}

#[test]
fn an_earlier_builds_explore_journal_resumes_bit_identically() {
    let config = || {
        let grid = parse_grid("ecc=sec,dec read-current=0.8,1.0 scrub=0,2k").unwrap();
        let mut config = ExploreConfig::new(grid, 4_000, 11, 2);
        config.workloads = vec![SpecWorkload::Hmmer, SpecWorkload::Mcf];
        config
    };
    let clean = explore(&config()).unwrap();

    let journal = checkpoint::load_with(&fixture("explore.jsonl"), explore_row_from_json).unwrap();
    assert_eq!(journal.completed.len(), 1, "the fixture holds one combo");
    let journaled: Vec<[u64; 8]> = journal.completed[0].1.iter().map(explore_bits).collect();
    let path = scratch_copy("explore.jsonl");
    let mut resuming = config();
    resuming.checkpoint = Some(path.clone());
    resuming.resume = true;
    let resumed = explore(&resuming).unwrap();
    std::fs::remove_file(path).ok();

    assert_eq!(resumed.resumed, 1, "the journaled combo resumes");
    assert_eq!(resumed.rows.len(), clean.rows.len());
    let mut served = 0;
    for (got, want) in resumed.rows.iter().zip(&clean.rows) {
        let bits = explore_bits(got);
        // The journaled combo's rows carry its (ways, scrub) and are not
        // refined; every other row was recomputed by this build.
        let from_journal = journaled
            .iter()
            .find(|j| j[..4] == bits[..4] && j[7] == bits[7]);
        match from_journal {
            Some(journaled) => {
                assert_eq!(&bits, journaled);
                served += 1;
            }
            None => assert_eq!(bits, explore_bits(want)),
        }
    }
    assert_eq!(served, journaled.len(), "every journaled row comes back");
    let stdout = std::fs::read_to_string(fixture("explore.stdout")).unwrap();
    assert_eq!(explore_table(&resumed), stdout);
}
