//! Link check for the repo's markdown doc set: every relative path
//! referenced from `docs/*.md`, `ROADMAP.md`, and `CHANGES.md` must
//! resolve to a real file or directory, and every `*.md` file a Rust
//! source names must exist, so the docs can't silently rot as the tree
//! moves underneath them. External URLs and intra-page anchors are out
//! of scope (no network, no markdown rendering — this is a cheap
//! structural gate, not a prose checker).

use std::path::{Path, PathBuf};

/// Every `](target)` occurrence in `text` whose target is a relative
/// path (not `http(s)://`, `mailto:`, or a bare `#anchor`), with any
/// `#fragment` suffix stripped.
fn relative_link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("](") {
        rest = &rest[at + 2..];
        let Some(end) = rest.find(')') else { break };
        let target = &rest[..end];
        rest = &rest[end..];
        if target.is_empty()
            || target.starts_with('#')
            || target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with("mailto:")
        {
            continue;
        }
        let path = target.split('#').next().unwrap_or(target);
        if !path.is_empty() {
            out.push(path.to_string());
        }
    }
    out
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn check_file(doc: &Path, broken: &mut Vec<String>) {
    let text = std::fs::read_to_string(doc)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc.display()));
    let base = doc.parent().expect("doc files live in a directory");
    for target in relative_link_targets(&text) {
        if !base.join(&target).exists() {
            broken.push(format!("{} -> {target}", doc.display()));
        }
    }
}

#[test]
fn every_relative_doc_link_resolves() {
    let root = repo_root();
    let mut docs: Vec<PathBuf> = vec![root.join("ROADMAP.md"), root.join("CHANGES.md")];
    let docs_dir = root.join("docs");
    assert!(
        docs_dir.is_dir(),
        "docs/ directory is part of the repo contract"
    );
    let mut in_docs: Vec<PathBuf> = std::fs::read_dir(&docs_dir)
        .expect("readable docs/")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    in_docs.sort();
    assert!(
        in_docs.iter().any(|p| p.ends_with("ARCHITECTURE.md"))
            && in_docs.iter().any(|p| p.ends_with("PERFORMANCE.md")),
        "the consolidated doc set must stay present"
    );
    docs.extend(in_docs);

    let mut broken = Vec::new();
    for doc in &docs {
        check_file(doc, &mut broken);
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn link_extraction_understands_the_cases_it_gates() {
    let text = "see [a](ARCHITECTURE.md), [b](../src/lib.rs#L1), \
                [c](https://example.com/x.md), [d](#local-anchor), \
                and [e](../crates/microsim/src/road.rs).";
    let targets = relative_link_targets(text);
    assert_eq!(
        targets,
        [
            "ARCHITECTURE.md",
            "../src/lib.rs",
            "../crates/microsim/src/road.rs"
        ]
    );
}

/// Every `*.md` file name in `text` (a run of path characters ending in
/// `.md` at a word boundary), skipping URLs.
fn markdown_names(text: &str) -> Vec<&str> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./:-".contains(c);
    let mut out = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let end = at + 3;
        if text[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            continue;
        }
        let start = text[..at]
            .char_indices()
            .rev()
            .find(|&(_, c)| !is_path_char(c))
            .map_or(0, |(i, c)| i + c.len_utf8());
        let name = &text[start..end];
        if name.len() > 3 && !name.contains("://") {
            out.push(name);
        }
    }
    out
}

/// Every `*.rs` file under `dir`, skipping build output.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_markdown_file_named_in_rust_sources_exists() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    sources.sort();
    assert!(!sources.is_empty(), "the source tree is where it should be");
    let mut missing = Vec::new();
    for source in &sources {
        let text = std::fs::read_to_string(source)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", source.display()));
        for name in markdown_names(&text) {
            if !root.join(name).exists() && !root.join("docs").join(name).exists() {
                missing.push(format!("{} -> {name}", source.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "markdown files named in sources but absent from the repo root and docs/:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn markdown_name_extraction_skips_urls_and_longer_extensions() {
    let text = "see docs/PERFORMANCE.md, (ROADMAP.md) and `ARCHITECTURE.md`; \
                not https://example.com/x.md or notes.mdx";
    assert_eq!(
        markdown_names(text),
        ["docs/PERFORMANCE.md", "ROADMAP.md", "ARCHITECTURE.md"]
    );
}
