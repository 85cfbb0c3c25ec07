//! Fixture workspaces for the stale-manifest check: a hot-path or inline
//! manifest entry naming a file that is not a workspace source is a
//! finding at its manifest line, and an entry naming a present file
//! that has the fn is none.

use simlint::rules::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// One crate with one `#[inline]`, allocation-free fn.
const LIB: &str = "#[inline]\npub fn present(x: u32) -> u32 {\n    x + 1\n}\n";

/// Write a one-crate workspace under the test target's scratch directory
/// with the given manifests, and return its root.
fn fixture(name: &str, hotpaths: &str, inline: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/demo/src");
    fs::create_dir_all(&src).expect("create fixture dirs");
    fs::write(root.join("crates/demo/Cargo.toml"), "[package]\nname = \"demo\"\n")
        .expect("write fixture manifest");
    fs::write(src.join("lib.rs"), LIB).expect("write fixture source");
    fs::write(root.join(simlint::HOTPATHS_FILE), hotpaths).expect("write hot-path manifest");
    fs::write(root.join(simlint::INLINE_FILE), inline).expect("write inline manifest");
    root
}

fn findings(root: &Path) -> Vec<Finding> {
    simlint::scan_workspace(root).expect("fixture scan succeeds").findings
}

#[test]
fn entries_naming_present_files_with_the_fn_are_clean() {
    let root = fixture(
        "stale-manifest-clean",
        "crates/demo/src/lib.rs::present\n",
        "crates/demo/src/lib.rs::present\n",
    );
    assert_eq!(findings(&root), Vec::new());
}

#[test]
fn a_hot_path_entry_naming_a_missing_file_is_one_finding() {
    let root = fixture(
        "stale-manifest-hot-path",
        "# hot paths\ncrates/demo/src/lib.rs::present\ncrates/demo/src/gone.rs::emit_into\n",
        "",
    );
    let found = findings(&root);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "hot-path-alloc");
    assert_eq!((found[0].path.as_str(), found[0].line), (simlint::HOTPATHS_FILE, 3));
    assert!(found[0].message.contains("crates/demo/src/gone.rs::emit_into"));
}

#[test]
fn an_inline_entry_naming_a_missing_file_is_one_finding() {
    let root = fixture(
        "stale-manifest-inline",
        "",
        "crates/demo/src/packet/gone.rs::parse\ncrates/demo/src/lib.rs::present\n",
    );
    let found = findings(&root);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "hot-path-inline");
    assert_eq!((found[0].path.as_str(), found[0].line), (simlint::INLINE_FILE, 1));
}
