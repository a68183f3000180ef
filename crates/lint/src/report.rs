//! The finding reporter: a compiler-style text form.

use std::fmt::Write as _;

use crate::engine::Finding;

/// Renders findings like rustc diagnostics, one per line, followed by a
/// summary line:
///
/// ```text
/// crates/foo/src/lib.rs:12: error[lock-order]: lock acquisition order cycle: …
/// apex-lint: 1 error
/// ```
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}: error[{}]: {}",
            f.file, f.line, f.rule, f.message
        );
    }
    let n = findings.len();
    let _ = writeln!(out, "apex-lint: {n} error{}", if n == 1 { "" } else { "s" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "lock-order",
                message: "a \"quoted\" problem".into(),
            },
            Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 9,
                rule: "stale-allow",
                message: "stale".into(),
            },
        ]
    }

    #[test]
    fn text_form_is_one_line_per_finding_plus_summary() {
        let txt = render_text(&sample());
        assert!(txt.contains("crates/x/src/lib.rs:3: error[lock-order]: a \"quoted\" problem"));
        assert!(txt.contains("crates/x/src/lib.rs:9: error[stale-allow]: stale"));
        assert!(txt.ends_with("apex-lint: 2 errors\n"));
        assert_eq!(
            render_text(&sample()[..1]).lines().last(),
            Some("apex-lint: 1 error")
        );
    }

    #[test]
    fn empty_report() {
        assert_eq!(render_text(&[]), "apex-lint: 0 errors\n");
    }
}
