//! The paper bins' outputs are pinned. Every bin prints only simulated
//! costs, so its stdout is a fixed point of the engine: each test runs
//! one bin at `--quick` and compares its stdout, byte for byte, with
//! `golden/quick/<bin>.txt`. `ci.sh` holds the paper-scale set,
//! `golden/paper/`, the same way in release.
//!
//! A change that moves a simulated number regenerates both sets
//! (`./target/release/<bin> [--quick] > crates/bench/golden/<scale>/<bin>.txt`
//! for every bin) and says in its description which numbers moved and
//! why, as for the golden traces.

use std::path::Path;
use std::process::Command;

fn check(bin: &str, exe: &str) {
    let out = Command::new(exe)
        .arg("--quick")
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(out.status.success(), "{bin} exited with {}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/quick/{bin}.txt"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let got = String::from_utf8(out.stdout).expect("bin output is UTF-8");
    assert!(
        got == want,
        "{bin} --quick differs from {}\n--- got\n{got}--- want\n{want}",
        path.display()
    );
}

macro_rules! pinned {
    ($($bin:ident),* $(,)?) => {
        $(
            #[test]
            fn $bin() {
                check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
            }
        )*

        /// The bins pinned above are exactly the bins in `src/bin/`, and
        /// each golden set holds exactly their outputs.
        #[test]
        fn every_bin_is_pinned_at_both_scales() {
            let mut pinned = vec![$(stringify!($bin)),*];
            pinned.sort_unstable();
            let sets = [("src/bin", "rs"), ("golden/quick", "txt"), ("golden/paper", "txt")];
            for (dir, ext) in sets {
                let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
                let mut names: Vec<String> = std::fs::read_dir(&dir)
                    .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.extension().is_some_and(|x| x == ext))
                    .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
                    .collect();
                names.sort_unstable();
                assert_eq!(names, pinned, "{}", dir.display());
            }
        }
    };
}

pinned!(
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table2,
    table3,
    fig_deletes,
    summary46,
    ablation_insert_algo,
    ablation_buffering,
    ablation_shadowing,
    ablation_scaling,
);
