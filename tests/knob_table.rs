//! The README knob table and the code agree: every `UCPC_*` row names a
//! knob that some `read_knob("UCPC_…")` call under `crates/*/src` reads,
//! and every knob read there has a row. A knob that no code reads, or one
//! that nobody documented, fails this test.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The backticked `UCPC_*` names heading the rows of the README's
/// `### Knobs` table.
fn documented() -> BTreeSet<String> {
    let readme = fs::read_to_string(root().join("README.md")).expect("README.md is readable");
    readme
        .lines()
        .skip_while(|l| l.trim() != "### Knobs")
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .filter(|name| name.starts_with("UCPC_"))
        .map(str::to_owned)
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string-literal first arguments of every `read_knob(` call in the
/// sources under `crates/*/src`, whitespace between `(` and `"` allowed.
fn read_in_code() -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let src = krate
            .expect("directory entry is readable")
            .path()
            .join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut knobs = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("source file is readable");
        for call in text.split("read_knob(").skip(1) {
            let Some(arg) = call.trim_start().strip_prefix('"') else {
                continue; // the definition, not a call
            };
            let name = arg.split('"').next().unwrap_or_default();
            if name.starts_with("UCPC_") {
                knobs.insert(name.to_owned());
            }
        }
    }
    knobs
}

#[test]
fn readme_knob_table_matches_the_knobs_the_code_reads() {
    let documented = documented();
    let read = read_in_code();
    assert!(!read.is_empty(), "the scan found no read_knob calls");
    let unread: Vec<_> = documented.difference(&read).collect();
    let undocumented: Vec<_> = read.difference(&documented).collect();
    assert!(
        unread.is_empty() && undocumented.is_empty(),
        "README rows no code reads: {unread:?}; knobs read but not in the README table: \
         {undocumented:?}"
    );
}
