//! Figure determinism: every table/figure regenerator must reproduce its
//! committed baseline byte for byte.
//!
//! The baselines under `tests/baselines/` were captured before the raster
//! plane landed (the per-pixel-lock rasterizer), so these tests pin the
//! paper's Tables 1–3 and Figures 5–10 across the span fast paths:
//! any byte of drift in pixel hashes, frame counts, or virtual-time
//! figures fails the suite. Regenerate a baseline on purpose with
//! `cargo run --release --bin <name> > crates/bench/tests/baselines/<name>.txt`
//! and justify the change in the PR.
//!
//! The figure regenerators simulate thousands of frames and are too slow
//! without optimization, so debug builds check the tables only; `cargo
//! test --release` covers all nine.

use std::process::Command;

fn assert_matches_baseline(name: &str, exe: &str, baseline: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("regenerator output is UTF-8");
    if got != baseline {
        let line = got
            .lines()
            .zip(baseline.lines())
            .position(|(g, b)| g != b)
            .unwrap_or_else(|| got.lines().count().min(baseline.lines().count()));
        panic!(
            "{name} output diverged from its committed baseline at line {}:\n  \
             baseline: {:?}\n  got:      {:?}",
            line + 1,
            baseline.lines().nth(line).unwrap_or("<missing>"),
            got.lines().nth(line).unwrap_or("<missing>"),
        );
    }
}

macro_rules! figure_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            assert_matches_baseline(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                include_str!(concat!("baselines/", stringify!($name), ".txt")),
            );
        }
    };
}

figure_test!(table1);
figure_test!(table2);
figure_test!(table3);

#[cfg(not(debug_assertions))]
mod figures {
    use super::assert_matches_baseline;

    figure_test!(fig5);
    figure_test!(fig6);
    figure_test!(fig7);
    figure_test!(fig8);
    figure_test!(fig9);
    figure_test!(fig10);
}
