//! The promoted regression corpus.
//!
//! Every `.replay` file under `tests/corpus/` is a self-contained fuzz
//! artifact — a (shrunk) generated design plus its stimulus schedule —
//! promoted here by `fuzz --promote` after a finding was fixed, or
//! pinned by `fuzz --pin` to lock in coverage. This test replays each
//! one across the differential matrix (reference interpreter vs. blaze)
//! and fails on any divergence: once a fuzz finding lands here, it can
//! never regress silently.

use llhd_fuzz::{default_matrix, Artifact, CaseFailure};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "replay"))
        .collect();
    files.sort();
    files
}

/// The corpus is never empty: an empty directory would make this test
/// pass vacuously while the promotion path silently rots.
#[test]
fn corpus_is_populated() {
    assert!(
        !corpus_files().is_empty(),
        "no .replay artifacts under {}",
        corpus_dir().display()
    );
}

/// Every committed artifact parses, replays across the full matrix, and
/// comes back clean.
#[test]
fn corpus_replays_clean_across_the_matrix() {
    let matrix = default_matrix();
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let artifact = Artifact::parse(&text)
            .unwrap_or_else(|e| panic!("{}: malformed artifact: {e}", path.display()));
        match artifact.replay(&matrix) {
            Ok(record) => assert!(
                !record.events.is_empty(),
                "{}: replay produced an empty trace (artifact is inert)",
                path.display()
            ),
            Err(CaseFailure::Generator(msg)) => {
                panic!("{}: artifact no longer runs: {msg}", path.display())
            }
            Err(CaseFailure::Divergence(d)) => panic!(
                "{}: DIVERGENCE on {}: {} mismatch: {}",
                path.display(),
                d.spec.label(),
                d.channel,
                d.detail
            ),
        }
    }
}

/// Artifacts survive a text round-trip: what `--promote` writes, the
/// parser reads back identically (guards the on-disk format).
#[test]
fn corpus_artifacts_round_trip() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let artifact = Artifact::parse(&text).unwrap();
        let reparsed = Artifact::parse(&artifact.to_string()).unwrap();
        assert_eq!(artifact, reparsed, "{}: format drift", path.display());
    }
}
