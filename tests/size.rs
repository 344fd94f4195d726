//! Code size and public surface per crate, as a checked-in fact.
//!
//! Walks every `crates/<name>/src` tree (the perf ledger under
//! `crates/bench/src/bin/perf_ledger` is a package of its own and is left
//! out) and counts, per crate:
//!
//! * `lines` — non-test code lines: a line counts when, after comments are
//!   removed, it holds a non-blank character and lies outside every
//!   `#[cfg(test)]` item. An item is skipped by brace matching: from the
//!   attribute to the `}` that closes the item's first `{`, or to its `;`
//!   if no `{` comes first. Brackets inside comments, strings and char
//!   literals are ignored.
//! * `pub.<kind>` — items and fields declared `pub` (not `pub(crate)`,
//!   `pub(super)` or `pub(in …)`) outside test items, by kind: `fn`,
//!   `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`, `use`
//!   (one per statement) and `field`.
//! * `unsafe_files` — files holding the word `unsafe` anywhere, the rule
//!   of CI's "Unsafe lives in rabitq-math only" step.
//! * `format_tags` — `const` items outside test items whose name contains
//!   `SECTION` or `MAGIC`: the persisted format tags, one decoder each.
//! * `search_fns` — `pub fn search*` entry points.
//!
//! Every count but `lines` is compared with `tests/size.txt`, one
//! `crate metric count` line per non-zero count. A change that grows or
//! shrinks the surface fails here with a diff and the command that
//! re-bases the file. Line counts are printed (`--nocapture`), not
//! compared, so routine edits need no re-base.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const EXPECTED: &str = include_str!("size.txt");

/// The per-crate counts; `surface` maps `metric` to its count.
#[derive(Default)]
struct CrateSize {
    lines: usize,
    surface: BTreeMap<String, usize>,
}

impl CrateSize {
    fn add(&mut self, metric: &str, n: usize) {
        if n > 0 {
            *self.surface.entry(metric.to_string()).or_default() += n;
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `src` with comments blanked to spaces and the contents of string and
/// char literals replaced by `s`. Newlines are kept, so line numbers and
/// line count are unchanged.
fn strip(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |ch: char| if ch == '\n' { '\n' } else { ' ' };
    let fill = |ch: char| if ch == '\n' { '\n' } else { 's' };
    let mut i = 0;
    while i < c.len() {
        let prev_ident = i > 0 && is_ident(c[i - 1]);
        if c[i] == '/' && c.get(i + 1) == Some(&'/') {
            while i < c.len() && c[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c[i] == '/' && c.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(c[i]));
                    i += 1;
                }
            }
        } else if c[i] == 'r'
            && (!prev_ident || (i == 1 || !is_ident(c[i - 2])) && c[i - 1] == 'b')
            && matches!(c.get(i + 1), Some('"') | Some('#'))
        {
            // A raw string `r#"…"#`, or an identifier such as `r#type`.
            let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
            if c.get(i + 1 + hashes) != Some(&'"') {
                out.push(c[i]);
                i += 1;
                continue;
            }
            out.extend(&c[i..i + 2 + hashes]);
            i += 2 + hashes;
            while i < c.len() {
                if c[i] == '"'
                    && c[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes
                {
                    out.extend(&c[i..i + 1 + hashes]);
                    i += 1 + hashes;
                    break;
                }
                out.push(fill(c[i]));
                i += 1;
            }
        } else if c[i] == '"' {
            out.push('"');
            i += 1;
            while i < c.len() && c[i] != '"' {
                if c[i] == '\\' {
                    out.push('s');
                    i += 1;
                }
                if i < c.len() {
                    out.push(fill(c[i]));
                    i += 1;
                }
            }
            out.push('"');
            i += 1;
        } else if c[i] == '\'' && c.get(i + 1) == Some(&'\\') {
            out.push('\'');
            i += 1;
            while i < c.len() && c[i] != '\'' {
                if c[i] == '\\' {
                    out.push('s');
                    i += 1;
                }
                out.push('s');
                i += 1;
            }
            out.push('\'');
            i += 1;
        } else if c[i] == '\'' && c.get(i + 2) == Some(&'\'') {
            out.push_str("'s'");
            i += 3;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// Which lines of stripped source lie inside a `#[cfg(test)]` item.
fn test_lines(code: &str) -> Vec<bool> {
    let chars: Vec<char> = code.chars().collect();
    let mut line_of = Vec::with_capacity(chars.len());
    let mut line = 0;
    for &ch in &chars {
        line_of.push(line);
        if ch == '\n' {
            line += 1;
        }
    }
    let mut in_test = vec![false; line + 1];
    let attr: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut i = 0;
    while i + attr.len() <= chars.len() {
        if chars[i..i + attr.len()] != attr[..] {
            i += 1;
            continue;
        }
        let start = i;
        let (mut j, mut nest) = (i + attr.len(), 0usize);
        let mut end = chars.len() - 1;
        while j < chars.len() {
            match chars[j] {
                '(' | '[' => nest += 1,
                ')' | ']' => nest = nest.saturating_sub(1),
                ';' if nest == 0 => {
                    end = j;
                    break;
                }
                '{' if nest == 0 => {
                    let mut depth = 0usize;
                    while j < chars.len() {
                        match chars[j] {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end = j.min(chars.len() - 1);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for flag in &mut in_test[line_of[start]..=line_of[end]] {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// The identifier-like words of a line, in order.
fn words(line: &str) -> Vec<&str> {
    line.split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect()
}

fn measure_file(src: &str, size: &mut CrateSize) {
    let raw_words = words(src);
    size.add("unsafe_files", raw_words.contains(&"unsafe") as usize);
    let code = strip(src);
    let in_test = test_lines(&code);
    for (line, &test) in code.lines().zip(&in_test) {
        if test || line.trim().is_empty() {
            continue;
        }
        size.lines += 1;
        let trimmed = line.trim_start();
        let w = words(trimmed);
        if let Some(pos) = w.iter().position(|&x| x == "const") {
            if let Some(name) = w.get(pos + 1) {
                if *name != "fn" && (name.contains("SECTION") || name.contains("MAGIC")) {
                    size.add("format_tags", 1);
                }
            }
        }
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let mut w = words(rest).into_iter().peekable();
        while matches!(w.peek(), Some(&("unsafe" | "async" | "extern" | "s"))) {
            w.next();
        }
        let kind = match (w.next(), w.peek()) {
            (Some("const"), Some(&"fn")) => "fn",
            (Some("const"), Some(&"unsafe")) => "fn",
            (Some(k @ ("fn" | "struct" | "enum" | "trait" | "type")), _) => k,
            (Some(k @ ("const" | "static" | "mod" | "use" | "union")), _) => k,
            (Some(_), _)
                if rest
                    .split_once(':')
                    .is_some_and(|(h, _)| words(h).len() == 1) =>
            {
                "field"
            }
            _ => "other",
        };
        size.add(&format!("pub.{kind}"), 1);
        if kind == "fn" {
            let name = w.find(|&x| x != "fn" && x != "unsafe").unwrap_or("");
            size.add("search_fns", name.starts_with("search") as usize);
        }
    }
}

fn rust_files(dir: &Path, skip: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable source directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path == skip {
            continue;
        }
        if path.is_dir() {
            rust_files(&path, skip, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn measure() -> BTreeMap<String, CrateSize> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let skip = root.join("crates/bench/src/bin/perf_ledger");
    let mut crates = BTreeMap::new();
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    dirs.sort();
    for src in dirs {
        let name = src.parent().and_then(Path::file_name).expect("crate dir");
        let mut size = CrateSize::default();
        let mut files = Vec::new();
        rust_files(&src, &skip, &mut files);
        for file in files {
            measure_file(&fs::read_to_string(&file).expect("utf-8 source"), &mut size);
        }
        crates.insert(name.to_string_lossy().into_owned(), size);
    }
    crates
}

fn render(crates: &BTreeMap<String, CrateSize>) -> String {
    let mut out = String::new();
    for (name, size) in crates {
        for (metric, n) in &size.surface {
            out.push_str(&format!("{name} {metric} {n}\n"));
        }
    }
    out
}

#[test]
fn surface_matches_size_txt() {
    let crates = measure();
    println!("{:<8} {:>6} {:>5}", "crate", "lines", "pub");
    let (mut lines, mut public) = (0, 0);
    for (name, size) in &crates {
        let p: usize = size
            .surface
            .iter()
            .filter(|(m, _)| m.starts_with("pub."))
            .map(|(_, n)| n)
            .sum();
        println!("{name:<8} {:>6} {p:>5}", size.lines);
        lines += size.lines;
        public += p;
    }
    println!("{:<8} {lines:>6} {public:>5}", "total");

    let got = render(&crates);
    if got == EXPECTED {
        return;
    }
    let keyed = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let (want, have) = (keyed(EXPECTED), keyed(&got));
    let mut diff = String::new();
    for key in want
        .keys()
        .chain(have.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        match (want.get(key), have.get(key)) {
            (Some(a), Some(b)) if a == b => {}
            (a, b) => {
                if let Some(a) = a {
                    diff.push_str(&format!("-{key} {a}\n"));
                }
                if let Some(b) = b {
                    diff.push_str(&format!("+{key} {b}\n"));
                }
            }
        }
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("size.txt");
    fs::write(&fresh, &got).expect("write recomputed size.txt");
    panic!(
        "public surface differs from tests/size.txt:\n{diff}re-base with:\n  cp {} tests/size.txt",
        fresh.display()
    );
}
