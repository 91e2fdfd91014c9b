//! The experiment index stays complete: every experiment binary
//! (`crates/bench/src/bin/exp_*.rs`) and every results file it writes
//! (`results/exp_*.json`) is named in EXPERIMENTS.md and in a row of the
//! DESIGN.md §4 experiment table.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// `exp_*` stems of the files in `dir` with extension `ext`.
fn exp_stems(dir: &Path, ext: &str) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let stem = path.file_stem()?.to_str()?;
            (path.extension()? == ext && stem.starts_with("exp_")).then(|| stem.to_string())
        })
        .collect()
}

/// Whether `text` names `name` as a whole identifier, not as the prefix
/// or suffix of a longer one.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

/// The table rows of DESIGN.md §4, the experiment index.
fn design_index_rows(design: &str) -> String {
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("4. "))
        .expect("DESIGN.md has a section 4");
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn every_experiment_and_result_is_indexed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |file: &str| {
        fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("cannot read {file}: {e}"))
    };
    let experiments = read("EXPERIMENTS.md");
    let rows = design_index_rows(&read("DESIGN.md"));
    let binaries = exp_stems(&root.join("crates/bench/src/bin"), "rs");
    let results = exp_stems(&root.join("results"), "json");
    assert!(!binaries.is_empty(), "found the experiment binaries");
    assert!(!results.is_empty(), "found the committed results");
    let mut missing = Vec::new();
    for name in binaries.union(&results) {
        if !names(&experiments, name) {
            missing.push(format!("{name}: not in EXPERIMENTS.md"));
        }
        if !names(&rows, name) {
            missing.push(format!("{name}: no DESIGN.md §4 table row"));
        }
    }
    assert!(
        missing.is_empty(),
        "unindexed experiments:\n{}",
        missing.join("\n")
    );
}

#[test]
fn names_matches_whole_identifiers_only() {
    assert!(names("run `exp_recovery` now", "exp_recovery"));
    assert!(names("exp_recovery", "exp_recovery"));
    assert!(!names("exp_recovery_v2", "exp_recovery"));
    assert!(!names("my_exp_recovery", "exp_recovery"));
}
