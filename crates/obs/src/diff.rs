//! Minimal unified line diff for deterministic text artifacts.
//!
//! A golden failure that reported only digest values would tell a
//! reviewer *that* something drifted but not *what*. This module renders
//! a classic unified diff (`-`/`+`/` ` prefixed lines with `@@` hunk
//! headers) between two strings using an O(n·m) LCS table — fine for
//! golden snapshots, which are a few hundred lines — with no external
//! dependency. Lines keep their terminators, so texts that differ only in
//! a final newline or a `\r` still produce a hunk: a last line without a
//! newline is marked `\ No newline at end of file`, as `diff -u` does,
//! and a carriage return renders as `\r`.

use std::fmt::Write as _;

/// Lines around a change to include in each hunk, matching `diff -u`.
const CONTEXT: usize = 3;

/// One line-level edit, produced by the LCS backtrack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edit {
    Keep,
    Delete,
    Insert,
}

/// Render a unified diff of `want` → `got`. Returns an empty string when
/// the inputs are equal.
#[must_use]
pub fn unified(want: &str, got: &str, want_label: &str, got_label: &str) -> String {
    if want == got {
        return String::new();
    }
    let a: Vec<&str> = want.split_inclusive('\n').collect();
    let b: Vec<&str> = got.split_inclusive('\n').collect();
    let script = edit_script(&a, &b);

    let mut out = String::new();
    let _ = writeln!(out, "--- {want_label}");
    let _ = writeln!(out, "+++ {got_label}");

    // Walk the script hunk by hunk: a hunk is a maximal run of edits plus
    // up to CONTEXT lines of kept context on each side.
    let mut i = 0usize; // index into script
    let mut ai = 0usize; // line cursor in `a`
    let mut bi = 0usize; // line cursor in `b`
    while i < script.len() {
        if script[i] == Edit::Keep {
            i += 1;
            ai += 1;
            bi += 1;
            continue;
        }
        // Found a change; open a hunk CONTEXT lines back.
        let lead = CONTEXT.min(ai).min(i);
        let (hunk_a, hunk_b) = (ai - lead, bi - lead);
        let mut lines: Vec<String> = (0..lead).map(|k| render(' ', a[ai - lead + k])).collect();
        let (mut na, mut nb) = (lead, lead);
        let mut kept_run = 0usize;
        let mut j = i;
        while j < script.len() {
            match script[j] {
                Edit::Keep => {
                    if kept_run == 2 * CONTEXT {
                        // Enough kept lines to close this hunk; the trim
                        // below keeps CONTEXT of them as trailing context
                        // and the rest seed the next hunk's leading
                        // context.
                        break;
                    }
                    kept_run += 1;
                    lines.push(render(' ', a[ai]));
                    na += 1;
                    nb += 1;
                    ai += 1;
                    bi += 1;
                }
                Edit::Delete => {
                    // Kept lines before another edit are interior context
                    // and stay in the hunk; only the run counter resets.
                    kept_run = 0;
                    lines.push(render('-', a[ai]));
                    na += 1;
                    ai += 1;
                }
                Edit::Insert => {
                    kept_run = 0;
                    lines.push(render('+', b[bi]));
                    nb += 1;
                    bi += 1;
                }
            }
            j += 1;
        }
        // Trim kept context beyond CONTEXT at the hunk tail.
        while kept_run > CONTEXT {
            lines.pop();
            na -= 1;
            nb -= 1;
            ai -= 1;
            bi -= 1;
            kept_run -= 1;
            j -= 1;
        }
        let _ = writeln!(
            out,
            "@@ -{},{na} +{},{nb} @@",
            hunk_a + usize::from(na > 0),
            hunk_b + usize::from(nb > 0)
        );
        for l in lines {
            out.push_str(&l);
        }
        i = j;
    }
    out
}

/// One diff line: `prefix`, the line with any `\r` made visible, and a
/// `diff -u` marker when the line has no terminating newline.
fn render(prefix: char, line: &str) -> String {
    match line.strip_suffix('\n') {
        Some(body) => format!("{prefix}{}\n", body.replace('\r', "\\r")),
        None => format!("{prefix}{}\n\\ No newline at end of file\n", line.replace('\r', "\\r")),
    }
}

/// Classic LCS dynamic program + backtrack. Quadratic, which is fine for
/// the few-hundred-line artifacts this crate diffs.
fn edit_script(a: &[&str], b: &[&str]) -> Vec<Edit> {
    let (n, m) = (a.len(), b.len());
    // lcs[i][j] = LCS length of a[i..], b[j..]
    let mut lcs = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] =
                if a[i] == b[j] { lcs[i + 1][j + 1] + 1 } else { lcs[i + 1][j].max(lcs[i][j + 1]) };
        }
    }
    let mut script = Vec::with_capacity(n + m);
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            script.push(Edit::Keep);
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            script.push(Edit::Delete);
            i += 1;
        } else {
            script.push(Edit::Insert);
            j += 1;
        }
    }
    script.extend(std::iter::repeat_n(Edit::Delete, n - i));
    script.extend(std::iter::repeat_n(Edit::Insert, m - j));
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_diff_to_nothing() {
        assert_eq!(unified("a\nb\n", "a\nb\n", "want", "got"), "");
    }

    #[test]
    fn single_changed_line_with_context() {
        let want = "one\ntwo\nthree\nfour\nfive\nsix\nseven\neight\nnine\n";
        let got = "one\ntwo\nthree\nfour\nFIVE\nsix\nseven\neight\nnine\n";
        let d = unified(want, got, "golden", "actual");
        assert!(d.starts_with("--- golden\n+++ actual\n"), "{d}");
        assert!(d.contains("-five\n+FIVE\n"), "{d}");
        assert!(d.contains(" four\n"), "context precedes the change: {d}");
        assert!(d.contains(" six\n"), "context follows the change: {d}");
        assert!(!d.contains(" one\n"), "lines beyond the leading context are omitted: {d}");
        assert!(!d.contains(" nine\n"), "lines beyond the trailing context are omitted: {d}");
    }

    #[test]
    fn pure_insertion_and_deletion() {
        let d = unified("a\nb\n", "a\nx\nb\n", "w", "g");
        assert!(d.contains("+x\n"), "{d}");
        let body_deletions = d.lines().filter(|l| l.starts_with('-') && !l.starts_with("---"));
        assert_eq!(body_deletions.count(), 0, "no deletions expected in hunk body: {d}");
        let d = unified("a\nx\nb\n", "a\nb\n", "w", "g");
        assert!(d.contains("-x\n"), "{d}");
    }

    #[test]
    fn distant_changes_split_into_hunks() {
        let want: String = (0..30).map(|i| format!("line{i}\n")).collect();
        let got = want.replace("line2\n", "LINE2\n").replace("line27\n", "LINE27\n");
        let d = unified(&want, &got, "w", "g");
        let hunks = d.lines().filter(|l| l.starts_with("@@")).count();
        assert_eq!(hunks, 2, "two separated changes, two hunks:\n{d}");
        assert!(d.contains("-line2\n+LINE2\n"), "{d}");
        assert!(d.contains("-line27\n+LINE27\n"), "{d}");
    }

    #[test]
    fn line_ending_only_differences_still_produce_a_hunk() {
        let d = unified("a\n", "a", "w", "g");
        assert_eq!(d, "--- w\n+++ g\n@@ -1,1 +1,1 @@\n-a\n+a\n\\ No newline at end of file\n");
        let d = unified("x\na\r\n", "x\na\n", "w", "g");
        assert!(d.contains(" x\n-a\\r\n+a\n"), "{d}");
    }

    #[test]
    fn diff_is_deterministic() {
        let want = "a\nb\nc\n";
        let got = "a\nB\nc\nd\n";
        assert_eq!(unified(want, got, "w", "g"), unified(want, got, "w", "g"));
    }
}
