//! Every reference the prose makes resolves, and the two long documents
//! stay within their caps.
//!
//! DESIGN.md, README.md, EXPERIMENTS.md and the verify skill name files
//! (`crates/sim/tests/peak_rss.rs`), lines (`path:12` or `path:12–30`)
//! and sections (`DESIGN.md "One codec"`). A file that moves, a file
//! that shrinks or a section that is renamed leaves such a reference
//! pointing nowhere, and nothing else notices. The rules:
//!
//! - **Paths.** A code span that is a repo path names a file or
//!   directory, either from the root or as the unique path suffix of one
//!   outside `target/`. Placeholders (`<id>`, `*`, `DIR/`) are skipped,
//!   and so are spans that are not repo paths (`N/k`, `/proc/…`).
//! - **Lines.** A `path:line[–line]` lies within its file.
//! - **Sections.** Every `X.md "Title"` (or `X.md's "Title"`) names a
//!   `#` heading, or a bold run-in `**Title.**`, of `X.md` that begins
//!   with the title. This rule also covers ROADMAP.md and the comments
//!   under `crates/*/src`. ROADMAP's bare paths are not checked: it
//!   names files that do not exist yet.

use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose paths, lines and sections are checked.
const SOURCES: &[&str] = &[
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Line caps: a document past its cap is narrating history again.
const CAPS: &[(&str, usize)] = &[("EXPERIMENTS.md", 650), ("DESIGN.md", 1000)];

/// Section references in code comments whose section has moved to a
/// history file: (source, document named, title, where the title now
/// is). Each must still occur in its source, so an entry goes when its
/// comment is repointed.
const MOVED: &[(&str, &str, &str, &str)] = &[];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// Every file and directory under the root, as `/`-separated relative
/// paths, outside `.git` and build output.
fn index(dir: &Path, rel: &str, files: &mut Vec<String>, dirs: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if matches!(name.as_str(), ".git" | "target" | ".bench_build") {
                continue;
            }
            index(&entry.path(), &path, files, dirs);
            dirs.push(path);
        } else {
            files.push(path);
        }
    }
}

struct Repo {
    files: Vec<String>,
    dirs: Vec<String>,
}

impl Repo {
    fn new() -> Repo {
        let (mut files, mut dirs) = (Vec::new(), Vec::new());
        index(&root(), "", &mut files, &mut dirs);
        Repo { files, dirs }
    }

    /// The one file or directory `p` names, or why it names none.
    fn resolve(&self, p: &str) -> Result<String, String> {
        let want_dir = p.ends_with('/');
        let p = p.trim_end_matches('/');
        let (pool, what) = if want_dir {
            (&self.dirs, "directory")
        } else {
            (&self.files, "file")
        };
        if pool.iter().any(|f| f == p) || (!want_dir && self.dirs.iter().any(|d| d == p)) {
            return Ok(p.to_string());
        }
        let suffix = format!("/{p}");
        let hits: Vec<&str> = pool
            .iter()
            .map(String::as_str)
            .filter(|f| f.ends_with(&suffix))
            .collect();
        match hits.as_slice() {
            [one] => Ok(one.to_string()),
            [] => Err(format!("names no {what}")),
            many => Err(format!(
                "is the suffix of {} {what}s ({}), not one",
                many.len(),
                many.join(", ")
            )),
        }
    }
}

/// `text` with fenced code blocks blanked, line count kept.
fn without_fences(text: &str) -> String {
    let mut fenced = false;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Pieces of text, each with the line it starts on.
type Pieces = Vec<(usize, String)>;

/// Code spans and the plain text between them. A span does not cross a
/// blank line.
fn spans(text: &str) -> (Pieces, Pieces) {
    let (mut code, mut plain) = (Vec::new(), Vec::new());
    let mut line = 1;
    for para in text.split("\n\n") {
        for (i, piece) in para.split('`').enumerate() {
            let at = line;
            if i % 2 == 1 {
                code.push((at, piece.to_string()));
            } else {
                plain.push((at, piece.to_string()));
            }
            line += piece.matches('\n').count();
        }
        line += 2;
    }
    (code, plain)
}

fn path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "._-/".contains(c)
}

/// Checks `path:N` or `path:N–M`; false if `token` is not one.
fn check_line_ref(repo: &Repo, token: &str, out: &mut Vec<String>) -> bool {
    let Some((path, lines)) = token.rsplit_once(':') else {
        return false;
    };
    let (a, b) = lines.split_once(['–', '-']).unwrap_or((lines, lines));
    let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) else {
        return false;
    };
    let has_ext = path
        .rsplit_once('.')
        .is_some_and(|(_, ext)| ext.starts_with(|c: char| c.is_ascii_alphabetic()));
    if !has_ext || path.starts_with('/') || !path.chars().all(path_char) {
        return false;
    }
    match repo.resolve(path) {
        Ok(file) => {
            let n = read(&file).lines().count();
            if a == 0 || a > b || b > n {
                out.push(format!("`{token}`: {file} has {n} lines"));
            }
        }
        Err(why) => out.push(format!("`{token}` {why}")),
    }
    true
}

/// Expands one `{a,b}` group.
fn expand(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) if open < close => token[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &token[..open], &token[close + 1..]))
            .collect(),
        _ => vec![token.to_string()],
    }
}

/// Checks a repo path: one that starts at a top-level entry or ends in
/// a file name. False if `token` is not one, or is a placeholder.
fn check_path(repo: &Repo, token: &str, out: &mut Vec<String>) -> bool {
    if token.starts_with(['/', '-', '~', '.'])
        || token.starts_with("DIR/")
        || token.starts_with("target/")
        || token.contains(['<', '>', '*', '…', '$'])
        || !token.contains('/')
    {
        return false;
    }
    let mut checked = false;
    for path in expand(token) {
        let first = path.split('/').next().unwrap_or("");
        let last = path.trim_end_matches('/').rsplit('/').next().unwrap_or("");
        if !path.chars().all(path_char) || !(root().join(first).exists() || last.contains('.')) {
            continue;
        }
        checked = true;
        if let Err(why) = repo.resolve(&path) {
            out.push(format!("`{path}` {why}"));
        }
    }
    checked
}

/// Checks one code span without whitespace; false if it is no reference.
fn check_span(repo: &Repo, span: &str, out: &mut Vec<String>) -> bool {
    // `file.rs::item` names an item in a file: the file is checked.
    let span = match span.split_once("::") {
        Some((path, _)) if path.ends_with(".rs") => path,
        Some(_) => return false,
        None => span,
    };
    check_line_ref(repo, span, out) || check_path(repo, span, out)
}

/// Every `X.md "Title"` in `text` (whitespace already collapsed).
fn section_refs(text: &str) -> Vec<(String, String)> {
    let mut refs = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(".md") {
        let before = &rest[..at];
        let start = before.rfind(|c: char| !path_char(c)).map_or(0, |i| {
            i + before[i..].chars().next().map_or(1, char::len_utf8)
        });
        let doc = format!("{}.md", &before[start..]);
        let after = &rest[at + 3..];
        let after = after
            .strip_prefix("'s")
            .or_else(|| after.strip_prefix("’s"))
            .unwrap_or(after);
        if let Some(quoted) = after.strip_prefix(" \"") {
            if let Some(end) = quoted.find('"') {
                if start < before.len() {
                    refs.push((doc, quoted[..end].to_string()));
                }
            }
        }
        rest = &rest[at + 3..];
    }
    refs
}

fn collapse(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The headings and bold runs of a Markdown document.
fn titles(doc: &str) -> Vec<String> {
    let text = without_fences(doc);
    let mut out: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim().to_string())
        .collect();
    let flat = collapse(&text);
    out.extend(flat.split("**").skip(1).step_by(2).map(str::to_string));
    out
}

fn names_section(titles: &[String], title: &str) -> bool {
    titles.iter().any(|t| {
        t.strip_prefix(title)
            .is_some_and(|rest| !rest.starts_with(|c: char| c.is_alphanumeric()))
    })
}

/// Comment text of a Rust file, consecutive comment lines joined.
fn comments(src: &str) -> String {
    let mut out = String::new();
    for line in src.lines() {
        match line.trim_start().strip_prefix("//") {
            Some(c) => {
                out.push(' ');
                out.push_str(c.trim_start_matches(['/', '!']));
            }
            None => out.push('\n'),
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn documents_stay_within_their_caps() {
    for &(doc, cap) in CAPS {
        let n = read(doc).lines().count();
        assert!(n <= cap, "{doc} has {n} lines; its cap is {cap}");
    }
}

#[test]
fn every_path_and_line_reference_resolves() {
    let repo = Repo::new();
    let mut bad = Vec::new();
    let mut checked = 0;
    for &doc in SOURCES {
        let (code, plain) = spans(&without_fences(&read(doc)));
        let mut found = Vec::new();
        for (line, span) in &code {
            if !span.contains(char::is_whitespace) && check_span(&repo, span, &mut found) {
                checked += 1;
            }
            bad.extend(found.drain(..).map(|why| format!("{doc}:{line}: {why}")));
        }
        for (line, text) in &plain {
            for word in text.split_whitespace() {
                let word = word.trim_matches(|c: char| "()[],;\"'".contains(c));
                let word = word.trim_end_matches(['.', ':']);
                if check_line_ref(&repo, word, &mut found) {
                    checked += 1;
                }
                bad.extend(found.drain(..).map(|why| format!("{doc}:{line}: {why}")));
            }
        }
    }
    assert!(
        checked >= 30,
        "only {checked} path references found: is the scan broken?"
    );
    assert!(bad.is_empty(), "unresolved references:\n{}", bad.join("\n"));
}

#[test]
fn every_section_reference_names_a_section() {
    let mut sources: Vec<(String, String)> = SOURCES
        .iter()
        .chain(&["ROADMAP.md"])
        .map(|&doc| (doc.to_string(), collapse(&without_fences(&read(doc)))))
        .collect();
    let mut code = Vec::new();
    for krate in fs::read_dir(root().join("crates")).unwrap().flatten() {
        let src = krate.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut code);
        }
    }
    for path in code {
        let rel = path
            .strip_prefix(root())
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let text = fs::read_to_string(&path).unwrap();
        sources.push((rel, collapse(&comments(&text))));
    }

    let mut bad = Vec::new();
    let mut checked = 0;
    let mut moved_seen = vec![false; MOVED.len()];
    for (source, text) in &sources {
        for (doc, title) in section_refs(text) {
            checked += 1;
            let Ok(body) = fs::read_to_string(root().join(&doc)) else {
                bad.push(format!("{source}: {doc} \"{title}\": no file {doc}"));
                continue;
            };
            if names_section(&titles(&body), &title) {
                continue;
            }
            let moved = MOVED
                .iter()
                .position(|m| m.0 == source && m.1 == doc && m.2 == title);
            if let Some(i) = moved {
                moved_seen[i] = true;
                if names_section(&titles(&read(MOVED[i].3)), &title) {
                    continue;
                }
            }
            bad.push(format!(
                "{source}: {doc} \"{title}\" names no section of {doc}"
            ));
        }
    }
    for (m, seen) in MOVED.iter().zip(moved_seen) {
        if !seen {
            bad.push(format!(
                "{}: the MOVED entry for {} \"{}\" matches no unresolved reference; drop it",
                m.0, m.1, m.2
            ));
        }
    }
    assert!(
        checked >= 10,
        "only {checked} section references found: is the scan broken?"
    );
    assert!(
        bad.is_empty(),
        "unresolved section references:\n{}",
        bad.join("\n")
    );
}
