//! The wall clock stays out of simulated output: no crate that computes
//! pixels or virtual nanoseconds reads it. The remaining readers only
//! feed reports (DESIGN.md §5e).

use std::fs;
use std::path::Path;

/// Wall-clock spellings. `SystemTime::` keeps its path separator so the
/// GL entry point `glGetSystemTimeNV` does not match.
const FORBIDDEN: [&str; 3] = ["std::time", "Instant::", "SystemTime::"];

fn scan(dir: &Path, files: &mut usize, hits: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path, files, hits);
        } else if path.extension().is_some_and(|e| e == "rs") {
            *files += 1;
            let text = fs::read_to_string(&path).unwrap();
            for (n, line) in text.lines().enumerate() {
                if FORBIDDEN.iter().any(|f| line.contains(f)) {
                    hits.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
                }
            }
        }
    }
}

#[test]
fn simulated_crates_read_no_wall_clock() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let (mut files, mut hits) = (0, Vec::new());
    for name in [
        "kernel", "linker", "diplomat", "egl", "gles", "gpu", "gralloc", "iosurface", "core",
        "workloads",
    ] {
        scan(&crates.join(name).join("src"), &mut files, &mut hits);
    }
    assert!(files > 10, "source walk found only {files} files");
    assert!(hits.is_empty(), "wall-clock reads in simulated crates:\n{}", hits.join("\n"));
}
