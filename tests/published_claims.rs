//! The headline numbers the docs publish are the committed results'.
//!
//! Every Fig. 3, Fig. 5 and Fig. 6 figure in EXPERIMENTS.md and in
//! README.md's "Key results" table is recomputed from the `# CSV` blocks
//! of `results/fig3.txt`, `results/fig5.txt` and `results/fig6.txt`, at
//! the precision the docs print it, and so is each result file's own
//! summary. Editing a result file or a doc cell on its own fails here.
//! No simulation runs.

use std::path::Path;

fn read(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(workload, value)` of `column` in every row of the file's `# CSV`
/// block, in file order.
fn csv_column(text: &str, column: &str) -> Vec<(String, f64)> {
    let (_, block) = text.split_once("# CSV\n").expect("a # CSV block");
    let mut lines = block.lines().filter(|l| !l.is_empty());
    let header: Vec<&str> = lines.next().expect("a CSV header").split(',').collect();
    assert_eq!(header[0], "workload");
    let at = header
        .iter()
        .position(|&h| h == column)
        .unwrap_or_else(|| panic!("no column {column} in {header:?}"));
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            let value = cells[at].parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            (cells[0].to_owned(), value)
        })
        .collect()
}

/// The text of the section headed `heading` (a `## ` line), up to the
/// next `## ` heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(&format!("\n{heading}"))
        .unwrap_or_else(|| panic!("no section {heading:?}"));
    let body = &doc[start + 1 + heading.len()..];
    body.find("\n## ").map_or(body, |end| &body[..end])
}

/// The last cell of the table row whose first cell is `label`.
fn measured(section: &str, label: &str) -> String {
    let row = section
        .lines()
        .find(|l| l.starts_with(&format!("| {label} |")))
        .unwrap_or_else(|| panic!("no row {label:?}"));
    let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
    cells.last().expect("a measured cell").to_string()
}

fn value_of(rows: &[(String, f64)], workload: &str) -> f64 {
    rows.iter()
        .find(|(w, _)| w == workload)
        .unwrap_or_else(|| panic!("no row for {workload}"))
        .1
}

fn mean(rows: &[(String, f64)]) -> f64 {
    rows.iter().map(|(_, v)| v).sum::<f64>() / rows.len() as f64
}

/// Rows sorted by value, largest first.
fn descending(rows: &[(String, f64)]) -> Vec<(String, f64)> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    sorted
}

/// Fig. 5: REAP's MTTF gain over the conventional cache, per workload.
struct Fig5 {
    average: f64,
    geometric: f64,
    best: Vec<(String, f64)>,
    worst: (String, f64),
}

impl Fig5 {
    fn load() -> (Self, String) {
        let text = read("results/fig5.txt");
        let gains = csv_column(&text, "reap_gain");
        assert_eq!(gains.len(), 21, "one row per workload");
        let geometric = (gains.iter().map(|(_, g)| g.ln()).sum::<f64>() / gains.len() as f64).exp();
        let mut sorted = descending(&gains);
        let worst = sorted.pop().expect("rows");
        sorted.truncate(3);
        let fig = Self {
            average: mean(&gains),
            geometric,
            best: sorted,
            worst,
        };
        (fig, text)
    }

    /// The three best cases as the docs list them, e.g.
    /// "964× h264ref, 631× namd, 521× dealII", each name formatted by
    /// `name`.
    fn best_cases(&self, name: impl Fn(&str) -> String) -> String {
        self.best
            .iter()
            .map(|(w, g)| format!("{g:.0}× {}", name(w)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Fig. 6: REAP's dynamic-energy overhead in percent, per workload.
struct Fig6 {
    rows: Vec<(String, f64)>,
    average: f64,
    best: (String, f64),
    worst: (String, f64),
}

impl Fig6 {
    fn load() -> (Self, String) {
        let text = read("results/fig6.txt");
        let rows = csv_column(&text, "reap_pct");
        assert_eq!(rows.len(), 21, "one row per workload");
        let mut sorted = descending(&rows);
        let worst = sorted[0].clone();
        let best = sorted.pop().expect("rows");
        let fig = Self {
            average: mean(&rows),
            best,
            worst,
            rows,
        };
        (fig, text)
    }

    /// The paper's best case, xalancbmk, as measured here.
    fn xalancbmk(&self) -> f64 {
        value_of(&self.rows, "xalancbmk")
    }
}

/// Fig. 3: one workload's concealed-read histogram at the committed
/// window.
struct Fig3 {
    workload: String,
    /// Share of events in the upper half of the N bins, percent.
    upper_events: f64,
    /// Share of failure probability in those bins, percent.
    upper_failure: f64,
    /// The last non-empty bin, `n_lo..n_hi`.
    last_bin: (u64, u64),
    /// The file's "max N observed" line.
    max_n: u64,
}

impl Fig3 {
    /// The four workloads in file order. The upper half is `fig3`'s: of
    /// the `log2(last n_lo) + 1` power-of-two bins up to the last
    /// non-empty one, those from index half their count on.
    fn load() -> (Vec<Self>, String) {
        let text = read("results/fig3.txt");
        let n_lo = csv_column(&text, "n_lo");
        let n_hi = csv_column(&text, "n_hi");
        let events = csv_column(&text, "events");
        let failure = csv_column(&text, "failure_contribution");
        let max_n: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix("max N observed: "))
            .map(|n| n.parse().unwrap_or_else(|e| panic!("{n}: {e}")))
            .collect();
        let mut workloads: Vec<String> = n_lo.iter().map(|(w, _)| w.clone()).collect();
        workloads.dedup();
        assert_eq!(workloads, ["perlbench", "calculix", "h264ref", "dealII"]);
        assert_eq!(max_n.len(), workloads.len(), "one max N line per workload");
        let figs = workloads
            .into_iter()
            .zip(max_n)
            .map(|(workload, max_n)| {
                let rows: Vec<usize> = (0..n_lo.len()).filter(|&i| n_lo[i].0 == workload).collect();
                let last = *rows.last().expect("rows");
                let bin = |i: usize| (n_lo[i].1 as u64).ilog2();
                let bins = bin(last) + 1;
                let split = bins / 2;
                let share = |column: &[(String, f64)]| {
                    let total: f64 = rows.iter().map(|&i| column[i].1).sum();
                    let upper: f64 = rows
                        .iter()
                        .filter(|&&i| bin(i) >= split)
                        .map(|&i| column[i].1)
                        .sum();
                    100.0 * upper / total
                };
                Self {
                    upper_events: share(&events),
                    upper_failure: share(&failure),
                    last_bin: (n_lo[last].1 as u64, n_hi[last].1 as u64),
                    max_n,
                    workload,
                }
            })
            .collect();
        (figs, text)
    }
}

/// `n` with a space between thousands, as the docs print counts.
fn spaced(n: u64) -> String {
    match n {
        0..=999 => n.to_string(),
        _ => format!("{} {:03}", spaced(n / 1000), n % 1000),
    }
}

#[test]
fn fig3_summary_lines_match_its_csv() {
    let (figs, text) = Fig3::load();
    for fig in &figs {
        let line = format!(
            "upper-half-N bins: {:.4}% of events, {:.1}% of failure probability",
            fig.upper_events, fig.upper_failure
        );
        assert!(text.contains(&line), "results/fig3.txt lacks {line:?}");
        let (lo, hi) = fig.last_bin;
        assert!(
            (lo..hi).contains(&fig.max_n),
            "{}: max N {} outside its last bin {lo}..{hi}",
            fig.workload,
            fig.max_n
        );
    }
}

#[test]
fn experiments_md_states_the_committed_fig3_numbers() {
    let (figs, _) = Fig3::load();
    let doc = read("EXPERIMENTS.md");
    let fig3 = section(&doc, "## Fig. 3")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    for fig in &figs {
        for claim in [
            format!(
                "{} {:.3} % / {:.1} %",
                fig.workload, fig.upper_events, fig.upper_failure
            ),
            format!("{} ({})", spaced(fig.max_n), fig.workload),
        ] {
            assert!(
                fig3.contains(&claim),
                "EXPERIMENTS.md Fig. 3 lacks {claim:?}"
            );
        }
    }
}

#[test]
fn fig5_summary_lines_match_its_csv() {
    let (fig, text) = Fig5::load();
    for line in [
        format!("average (arithmetic) {:>8.1}x", fig.average),
        format!("average (geometric)  {:>8.1}x", fig.geometric),
        format!("worst case           {:>8.1}x", fig.worst.1),
        format!("best case            {:>8.1}x", fig.best[0].1),
    ] {
        assert!(text.contains(&line), "results/fig5.txt lacks {line:?}");
    }
}

#[test]
fn fig6_summary_lines_match_its_csv() {
    let (fig, text) = Fig6::load();
    for line in [
        format!("average REAP overhead {:>+7.2}%", fig.average),
        format!("best case             {:>+7.2}%", fig.best.1),
        format!("worst case            {:>+7.2}%", fig.worst.1),
    ] {
        assert!(text.contains(&line), "results/fig6.txt lacks {line:?}");
    }
}

#[test]
fn experiments_md_states_the_committed_fig5_numbers() {
    let (fig, _) = Fig5::load();
    let doc = read("EXPERIMENTS.md");
    let fig5 = section(&doc, "## Fig. 5");
    assert_eq!(
        measured(fig5, "best cases"),
        fig.best_cases(|w| w.to_owned())
    );
    assert_eq!(
        measured(fig5, "worst case"),
        format!("{:.1}× ({})", fig.worst.1, fig.worst.0)
    );
    assert_eq!(
        measured(fig5, "average (arithmetic)"),
        format!("{:.1}× (geometric {:.1}×)", fig.average, fig.geometric)
    );
}

#[test]
fn experiments_md_states_the_committed_fig6_numbers() {
    let (fig, _) = Fig6::load();
    let doc = read("EXPERIMENTS.md");
    let fig6 = section(&doc, "## Fig. 6");
    assert_eq!(
        measured(fig6, "average overhead"),
        format!("+{:.2} %", fig.average)
    );
    assert_eq!(
        measured(fig6, "worst case"),
        format!("+{:.2} % ({})", fig.worst.1, fig.worst.0)
    );
    assert_eq!(
        measured(fig6, "best case"),
        format!(
            "+{:.2} % ({}; xalancbmk +{:.2} %)",
            fig.best.1,
            fig.best.0,
            fig.xalancbmk()
        )
    );
}

#[test]
fn readme_key_results_state_the_committed_numbers() {
    let (fig5, _) = Fig5::load();
    let (fig6, _) = Fig6::load();
    let doc = read("README.md");
    let key = section(&doc, "## Key results");
    let average = measured(key, "MTTF improvement, average");
    let want = format!(
        "{:.1}× arithmetic ({:.1}× geometric)",
        fig5.average, fig5.geometric
    );
    assert!(average.starts_with(&want), "{average:?} vs {want:?}");
    assert_eq!(
        measured(key, "MTTF improvement, worst (`mcf`)"),
        format!("{:.1}× (`{}`)", fig5.worst.1, fig5.worst.0)
    );
    assert_eq!(
        measured(key, "MTTF improvement, best (`namd`/`dealII`/`h264ref`)"),
        fig5.best_cases(|w| format!("`{w}`"))
    );
    assert_eq!(
        measured(key, "dynamic-energy overhead, average (10 M window)"),
        format!("+{:.2} %", fig6.average)
    );
    assert_eq!(
        measured(key, "energy worst / best (10 M window)"),
        format!(
            "+{:.2} % `{}` / +{:.2} % `{}` (`xalancbmk` +{:.2} %)",
            fig6.worst.1,
            fig6.worst.0,
            fig6.best.1,
            fig6.best.0,
            fig6.xalancbmk()
        )
    );
}
