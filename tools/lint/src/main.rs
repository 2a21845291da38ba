//! `lots-lint` — the determinism source lint.
//!
//! The whole repo's value proposition is bit-reproducible virtual-time
//! runs. Three source-level constructs quietly break that guarantee,
//! and none of them is catchable by clippy:
//!
//! * **`HashMap` in protocol/report state** — iteration order is
//!   randomized per process; any `HashMap` whose iteration feeds a
//!   wire message, a fingerprint or a report makes two identical runs
//!   differ (rule `hashmap-state`, scoped to the protocol-path
//!   modules where such state lives).
//! * **Host time in simulation code** — `Instant::now` / `SystemTime`
//!   readings differ per run; they may only appear in explicitly
//!   annotated host-observability paths (rule `host-time`).
//! * **`thread::sleep` in simulation code** — wall-clock waits couple
//!   virtual progress to the OS scheduler (rule `thread-sleep`).
//!
//! The scanner is deliberately simple: line-based substring rules over
//! the workspace's non-shim, non-bench crate sources, with an
//! allow-annotation escape hatch:
//!
//! ```text
//! // det:allow(rule-name): reason why this use is sound
//! ```
//!
//! on the offending line or in the comment block directly above it.
//! The reason is
//! mandatory — a bare allow is itself a finding. Lines at or after a
//! file's first `#[cfg(test)]` are skipped (tests sit at the end of
//! files in this repo, and host timing in tests is fine), as are
//! comment-only lines.
//!
//! Run `lots-lint --list-rules` for the rule table; exit status is
//! non-zero iff findings exist, so CI wires it next to clippy. The
//! same scan also runs as an in-crate test, putting it under the
//! tier-1 `cargo test` gate.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint rule: a name, the substrings that trigger it, a
/// repo-relative path scope, and the invariant it protects.
struct Rule {
    name: &'static str,
    patterns: &'static [&'static str],
    scope: fn(&str) -> bool,
    rationale: &'static str,
}

/// Simulation-crate sources: everything under `crates/*/src` except
/// the vendored dependency shims (host-level plumbing by nature) and
/// the bench crate (host-nanosecond timing is its purpose).
fn sim_scope(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.starts_with("crates/shims/")
        && !path.starts_with("crates/bench/")
}

/// Protocol-path modules: state here can reach wire messages,
/// fingerprints or reports, so iteration order must be deterministic.
fn protocol_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/consistency/")
        || path.starts_with("crates/core/src/protocol/")
        || path == "crates/jiajia/src/services.rs"
        || path == "crates/net/src/message.rs"
}

const RULES: &[Rule] = &[
    Rule {
        name: "hashmap-state",
        patterns: &["HashMap"],
        scope: protocol_scope,
        rationale: "HashMap iteration order is per-process random; protocol/report \
                    state must use BTreeMap so wire messages and fingerprints are \
                    pure functions of virtual state",
    },
    Rule {
        name: "host-time",
        patterns: &["Instant::now", "SystemTime"],
        scope: sim_scope,
        rationale: "host clock readings differ per run; virtual state must only \
                    advance through SimClock (annotate pure host-observability \
                    uses with det:allow)",
    },
    Rule {
        name: "thread-sleep",
        patterns: &["thread::sleep"],
        scope: sim_scope,
        rationale: "wall-clock waits couple virtual progress to the OS scheduler; \
                    park through the virtual-time engine instead",
    },
];

/// One finding: file, 1-based line, rule, and the offending line.
struct Finding {
    path: String,
    line: usize,
    rule: &'static str,
    text: String,
}

/// Does one line carry a well-formed allow for `rule`? A malformed
/// allow (missing reason) never allows.
fn has_allow(rule: &str, line: &str) -> bool {
    let tag = format!("det:allow({rule})");
    line.find(&tag).is_some_and(|at| {
        let rest = &line[at + tag.len()..];
        rest.starts_with(':') && !rest[1..].trim().is_empty()
    })
}

/// Does line `i` (or the contiguous comment block directly above it)
/// carry a well-formed allow for `rule`?
fn allowed(rule: &str, lines: &[&str], i: usize) -> bool {
    if has_allow(rule, lines[i]) {
        return true;
    }
    let mut j = i;
    while j > 0 && comment_only(lines[j - 1]) {
        j -= 1;
        if has_allow(rule, lines[j]) {
            return true;
        }
    }
    false
}

/// Is this a comment-only line? (Mentions of a pattern in docs are
/// not uses; the allow-annotation check runs before this.)
fn comment_only(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Scan one file's text; `rel` is its repo-relative path.
fn scan_file(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    // Tests live at file ends in this repo; everything from the first
    // `#[cfg(test)]` down is host-side test harness, out of scope.
    let test_start = lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(lines.len());
    for rule in RULES {
        if !(rule.scope)(rel) {
            continue;
        }
        for (i, line) in lines.iter().take(test_start).enumerate() {
            if !rule.patterns.iter().any(|p| line.contains(p)) || comment_only(line) {
                continue;
            }
            if allowed(rule.name, &lines, i) {
                continue;
            }
            findings.push(Finding {
                path: rel.to_string(),
                line: i + 1,
                rule: rule.name,
                text: line.trim().to_string(),
            });
        }
    }
}

/// Collect every `.rs` file under `dir`, sorted for deterministic
/// output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Scan the workspace rooted at `root`; findings sorted by path/line.
fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        scan_file(&rel, &text, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

fn list_rules() {
    println!("{:<14} {:<36} scope", "rule", "forbids");
    for r in RULES {
        let scope = if r.name == "hashmap-state" {
            "protocol-path modules"
        } else {
            "crates/*/src minus shims, bench"
        };
        println!("{:<14} {:<36} {scope}", r.name, r.patterns.join(", "));
        println!("    {}", r.rationale);
    }
    println!("\nallow syntax: // det:allow(rule-name): reason   (same or preceding line; reason required)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-rules") {
        list_rules();
        return ExitCode::SUCCESS;
    }
    let root = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let findings = scan_workspace(&root);
    for f in &findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.text);
    }
    if findings.is_empty() {
        println!("lots-lint: clean ({} rules)", RULES.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "lots-lint: {} finding(s) — fix or annotate with det:allow(rule): reason",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole workspace must be lint-clean: this puts the
    /// determinism lint under the tier-1 `cargo test` gate, not just
    /// the CI step.
    #[test]
    fn workspace_is_lint_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = scan_workspace(&root);
        let rendered: Vec<String> = findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.text))
            .collect();
        assert!(
            rendered.is_empty(),
            "lint findings:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn finds_forbidden_constructs() {
        let src = "use std::collections::HashMap;\nlet t = Instant::now();\n";
        let mut f = Vec::new();
        scan_file("crates/core/src/consistency/locks.rs", src, &mut f);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, "hashmap-state");
        assert_eq!(f[1].rule, "host-time");
    }

    #[test]
    fn allow_annotation_with_reason_suppresses() {
        let src = "// det:allow(host-time): busy-time observability only\n\
                   let t = Instant::now();\n";
        let mut f = Vec::new();
        scan_file("crates/sim/src/sched/engine.rs", src, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = "let t = Instant::now(); // det:allow(host-time):\n";
        let mut f = Vec::new();
        scan_file("crates/sim/src/x.rs", src, &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wrong_rule_name_does_not_suppress() {
        let src = "// det:allow(thread-sleep): not the right rule\n\
                   let t = Instant::now();\n";
        let mut f = Vec::new();
        scan_file("crates/sim/src/x.rs", src, &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn cfg_test_tail_and_comments_are_skipped() {
        let src = "// Instant::now is mentioned in a comment\n\
                   fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let _ = Instant::now(); std::thread::sleep(d); }\n\
                   }\n";
        let mut f = Vec::new();
        scan_file("crates/sim/src/x.rs", src, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn scope_excludes_shims_and_bench() {
        let src = "let t = Instant::now();\n";
        for path in [
            "crates/shims/parking_lot/src/lib.rs",
            "crates/bench/src/main.rs",
        ] {
            let mut f = Vec::new();
            scan_file(path, src, &mut f);
            assert!(f.is_empty(), "{path} must be out of scope");
        }
    }

    #[test]
    fn hashmap_outside_protocol_paths_is_fine() {
        let src = "use std::collections::HashMap;\n";
        let mut f = Vec::new();
        scan_file("crates/core/src/node/mod.rs", src, &mut f);
        assert!(f.is_empty());
    }
}
