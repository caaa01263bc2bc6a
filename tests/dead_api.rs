//! Dead public API guard: every `pub fn` defined in the workspace's
//! sources (`src/`, `crates/*/src` without the vendored crates, and
//! `perfbench/src`) must be named somewhere besides its definition.
//!
//! The check is a name count over identifier tokens. Comments are
//! skipped, so a doc mention does not keep a function alive; string
//! literals count, because serde attributes name functions in strings.
//! A name shared with a live item (a field, another type's method)
//! hides a dead function, so the guard errs towards passing.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Identifier tokens of Rust source, with comments removed and string,
/// raw-string and char literals kept as the identifiers they contain.
fn identifiers(src: &str) -> Vec<&str> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0;
            while i < b.len() {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == b'\'' {
            // A char literal ('x', '\n', '\u{..}') or a lifetime ('a).
            if b.get(i + 1) == Some(&b'\\') {
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            } else if b.get(i + 2) == Some(&b'\'') {
                i += 3;
            } else {
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let word = &src[start..i];
            // A raw string r"..." / r#"..."#: its body is scanned as text.
            if word == "r" || word == "br" {
                let hashes = b[i..].iter().take_while(|&&h| h == b'#').count();
                if b.get(i + hashes) == Some(&b'"') {
                    let close = format!("\"{}", "#".repeat(hashes));
                    let body = i + hashes + 1;
                    let end = src[body..].find(&close).map_or(b.len(), |e| body + e);
                    out.extend(words(&src[body..end]));
                    i = (end + close.len()).min(b.len());
                    continue;
                }
            }
            out.push(word);
        } else if c == b'"' {
            let start = i + 1;
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            out.extend(words(&src[start..i.min(b.len())]));
            i += 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Identifier-shaped words of a string literal's body.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
        .filter(|w| w.starts_with(|ch: char| ch.is_ascii_alphabetic() || ch == '_'))
}

/// Names of the `pub fn`s (`pub const fn` and `pub unsafe fn` included)
/// in a token stream.
fn pub_fns<'a>(tokens: &[&'a str]) -> Vec<&'a str> {
    let mut names = Vec::new();
    for (i, &t) in tokens.iter().enumerate() {
        if t != "pub" {
            continue;
        }
        let mut j = i + 1;
        while matches!(tokens.get(j), Some(&"const" | &"unsafe" | &"async")) {
            j += 1;
        }
        if tokens.get(j) == Some(&"fn") {
            if let Some(&name) = tokens.get(j + 1) {
                names.push(name);
            }
        }
    }
    names
}

/// Every `.rs` file under `dir`, skipping build output and vendored crates.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "vendor" && name != ".git" {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Is `path` (relative to the workspace root) a source the guard checks
/// for definitions: `src/`, `crates/<name>/src` or `perfbench/src`?
fn defines_api(rel: &Path) -> bool {
    let parts: Vec<_> = rel.components().map(|c| c.as_os_str()).collect();
    match parts.as_slice() {
        [first, ..] if *first == "src" => true,
        [first, _, src, ..] if *first == "crates" => *src == "src",
        [first, src, ..] if *first == "perfbench" => *src == "src",
        _ => false,
    }
}

#[test]
fn tokenizer_skips_comments_and_reads_literals() {
    let src = "// pub fn gone() {}\n/* a /* nested */ b */ pub fn kept() { \
               let c = '\"'; let s = \"with_default\"; let r = r#\"raw_name\"#; }";
    let tokens = identifiers(src);
    assert_eq!(pub_fns(&tokens), ["kept"]);
    assert!(!tokens.contains(&"gone") && !tokens.contains(&"nested"));
    assert!(tokens.contains(&"with_default") && tokens.contains(&"raw_name"));
}

#[test]
fn every_pub_fn_is_named_outside_its_definition() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "crates", "tests", "examples", "perfbench"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(!files.is_empty(), "no sources under {}", root.display());
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let text = fs::read_to_string(&f).expect("readable source");
            (
                f.strip_prefix(root).expect("under the root").to_path_buf(),
                text,
            )
        })
        .collect();

    let mut uses: HashMap<&str, usize> = HashMap::new();
    let mut defined: Vec<(&str, &Path)> = Vec::new();
    for (rel, text) in &sources {
        let tokens = identifiers(text);
        if defines_api(rel) {
            defined.extend(pub_fns(&tokens).into_iter().map(|n| (n, rel.as_path())));
        }
        for t in tokens {
            *uses.entry(t).or_default() += 1;
        }
    }
    assert!(defined.len() > 100, "found only {} pub fns", defined.len());

    let mut dead: Vec<String> = defined
        .iter()
        .filter(|(name, _)| uses[name] == 1)
        .map(|(name, file)| format!("{} ({})", name, file.display()))
        .collect();
    dead.sort();
    assert!(
        dead.is_empty(),
        "pub fns named nowhere but their definition: delete them or give them a caller:\n  {}",
        dead.join("\n  ")
    );
}
