//! Each fixture under `tests/fixtures/` trips exactly the rule it is named
//! after (and nothing else); the clean fixture trips none. Fixtures are fed
//! through `lint_source` with synthetic workspace-relative paths so the
//! scope-sensitive rules (worker-panic) see the path shape they key on.

use std::collections::HashSet;

use nm_lint::{lint_source, Allowlist, Finding};

fn run(relpath: &str, fixture: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture),
    )
    .expect("fixture readable");
    let mut used = HashSet::new();
    lint_source(relpath, &src, &Allowlist::default(), &mut used)
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn missing_safety_fixture_trips_only_that_rule() {
    let f = run("crates/common/src/fixture.rs", "missing_safety.rs");
    assert_eq!(rules(&f), ["missing-safety"], "{f:#?}");
    assert_eq!(f[0].line, 6);
}

#[test]
fn stray_relaxed_fixture_trips_only_that_rule() {
    let f = run("crates/common/src/fixture.rs", "stray_relaxed.rs");
    assert_eq!(rules(&f), ["stray-relaxed"], "{f:#?}");
    assert_eq!(f[0].line, 7, "the cfg(test) Relaxed must be exempt: {f:#?}");
}

#[test]
fn stray_relaxed_fixture_passes_with_allowlist_entry() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stray_relaxed.rs"),
    )
    .unwrap();
    let (allow, errors) = Allowlist::parse(
        "[[relaxed]]\nfile = \"crates/common/src/fixture.rs\"\nline = 7\nreason = \"monitoring peek, no ordering needed\"\n",
    );
    assert!(errors.is_empty(), "{errors:#?}");
    let mut used = HashSet::new();
    let f = lint_source("crates/common/src/fixture.rs", &src, &allow, &mut used);
    assert!(f.is_empty(), "{f:#?}");
    assert_eq!(used.len(), 1, "the entry must be marked used");
}

#[test]
fn hotpath_fixture_trips_only_that_rule() {
    let f = run("crates/core/src/rqrmi/fixture.rs", "hotpath_alloc.rs");
    assert_eq!(rules(&f), ["hotpath"], "{f:#?}");
    assert_eq!(f[0].line, 8);
}

#[test]
fn worker_unwrap_fixture_trips_only_in_worker_scope() {
    let f = run("crates/core/src/system/runtime/fixture.rs", "worker_unwrap.rs");
    assert_eq!(rules(&f), ["worker-panic"], "{f:#?}");
    assert_eq!(f[0].line, 8, "the cfg(test) unwrap must be exempt: {f:#?}");

    // The same code outside runtime/serve is not worker code.
    let f = run("crates/common/src/fixture.rs", "worker_unwrap.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn one_lookup_hook_fixture_trips_only_that_rule() {
    let f = run("tests/fixture.rs", "one_lookup_hook.rs");
    assert_eq!(rules(&f), ["one-lookup-hook"], "{f:#?}");
    assert_eq!(f[0].line, 7, "only the `Classifier` impl's `classify`: {f:#?}");
}

#[test]
fn clean_fixture_trips_nothing() {
    let f = run("crates/core/src/system/runtime/fixture.rs", "clean.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn allowlist_rejects_malformed_entries() {
    let (_, errors) = Allowlist::parse("[[relaxed]]\nfile = \"a.rs\"\n");
    assert_eq!(errors.len(), 1, "missing line/reason must error: {errors:#?}");

    let (_, errors) = Allowlist::parse("[[relaxed]]\nfile = \"a.rs\"\nline = 3\nreason = \"\"\n");
    assert_eq!(errors.len(), 1, "empty reason must error: {errors:#?}");

    let (list, errors) = Allowlist::parse(
        "# comment\n[[relaxed]]\nfile = \"a.rs\"\nline = 3\nreason = \"fine\"  # trailing\n",
    );
    assert!(errors.is_empty(), "{errors:#?}");
    assert_eq!(list.relaxed.len(), 1);
    assert_eq!(list.relaxed[0].reason, "fine");
}
