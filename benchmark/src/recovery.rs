//! Recovery probe. Each attempt runs in a child process (this binary,
//! re-invoked), so an abort inside `crash_and_reboot` or in the reopened
//! object is one failed attempt, not a dead benchmark.
//!
//! An attempt: build an object with the allocation log on, checkpoint,
//! commit a number of insert + delete pairs with no crash in between (so
//! the log grows, which the repository's crash tests never let it do),
//! `crash_and_reboot`, reopen, compare with the bytes held before.
//! Recovery is a layer number and not part of `versioned`; the README
//! records what the probe finds.

use std::process::{Command, Stdio};
use std::time::Instant;

use lobstore_core::{Db, DbConfig};

use crate::harness::{spec, APPEND_BYTES, SCHEMES};
use crate::rng::{fill, Rng};
use crate::stats::median;

/// Object size and insert + delete pairs of each attempt; run for every
/// scheme.
const ATTEMPTS: [(u64, usize); 3] = [(20_000, 100), (1 << 20, 5), (1 << 20, 40)];
const EDIT_BYTES: u64 = 1_000;
pub const CHILD_FLAG: &str = "--recovery-child";

pub struct Recovered {
    /// Attempts that read back the committed bytes, over all attempts.
    pub ok_share: f64,
    /// Median time of `crash_and_reboot` over the attempts that survived it.
    pub replay_ms: f64,
    /// One line per attempt, for the layers file and the README.
    pub lines: Vec<String>,
}

/// Run every attempt in a child process.
pub fn probe() -> Recovered {
    let exe = std::env::current_exe().ok();
    let mut ok = 0usize;
    let mut replay_ms = Vec::new();
    let mut lines = Vec::new();
    let mut attempts = 0usize;
    for (s, scheme) in SCHEMES.iter().enumerate() {
        for (size, pairs) in ATTEMPTS {
            attempts += 1;
            // The shell caps the child's address space, so a reopened
            // object with a garbage size cannot take the machine's memory.
            let output = exe.as_ref().and_then(|exe| {
                Command::new("sh")
                    .args(["-c", "ulimit -v 4194304; exec \"$0\" \"$@\""])
                    .arg(exe)
                    .args([
                        CHILD_FLAG,
                        &s.to_string(),
                        &size.to_string(),
                        &pairs.to_string(),
                    ])
                    .stdin(Stdio::null())
                    .stderr(Stdio::null())
                    .output()
                    .ok()
            });
            let verdict = match &output {
                Some(out) => {
                    let text = String::from_utf8_lossy(&out.stdout);
                    let mut words = text.split_whitespace();
                    match (
                        words.next(),
                        words.next().and_then(|w| w.parse::<f64>().ok()),
                    ) {
                        (Some("ok"), Some(ms)) if out.status.success() => {
                            ok += 1;
                            replay_ms.push(ms);
                            "ok".to_string()
                        }
                        (Some(word), Some(ms)) => {
                            replay_ms.push(ms);
                            word.to_string()
                        }
                        _ => format!("died ({})", out.status),
                    }
                }
                None => "could not start the child".to_string(),
            };
            lines.push(format!("{scheme} {size} B, {pairs} pairs: {verdict}"));
        }
    }
    Recovered {
        ok_share: ok as f64 / attempts as f64,
        replay_ms: median(&replay_ms),
        lines,
    }
}

/// The child: prints `ok <replay ms>`, or `size-differs` /
/// `bytes-differ` / `reopen-failed` with the replay time, and exits 0
/// only for `ok`.
pub fn child(args: &[String]) -> i32 {
    let parsed: Option<(usize, u64, usize)> = match args {
        [s, size, pairs] => (|| Some((s.parse().ok()?, size.parse().ok()?, pairs.parse().ok()?)))(),
        _ => None,
    };
    let Some((s, size, pairs)) = parsed.filter(|&(s, _, _)| s < SCHEMES.len()) else {
        eprintln!("usage: lobbench {CHILD_FLAG} <scheme 0-2> <bytes> <pairs>");
        return 2;
    };
    let mut db = Db::new(DbConfig {
        alloc_log: true,
        ..DbConfig::default()
    });
    let mut obj = spec(s).create(&mut db).expect("create");
    let mut chunk = vec![0u8; APPEND_BYTES.min(size as usize)];
    let mut built = 0u64;
    while built < size {
        let n = (size - built).min(chunk.len() as u64) as usize;
        fill(&mut chunk[..n], built);
        obj.append(&mut db, &chunk[..n]).expect("append");
        built += n as u64;
    }
    db.checkpoint();
    let mut rng = Rng::new(size, pairs as u64);
    let mut bytes = vec![0u8; EDIT_BYTES as usize];
    for i in 0..pairs {
        fill(&mut bytes, i as u64);
        obj.insert(&mut db, rng.range(0, size), &bytes)
            .expect("insert");
        obj.delete(&mut db, rng.range(0, size), EDIT_BYTES)
            .expect("delete");
    }
    let want = obj.snapshot(&db);
    let root = obj.root_page();
    drop(obj);

    let t = Instant::now();
    db.crash_and_reboot();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let Ok(obj) = spec(s).open(&mut db, root) else {
        println!("reopen-failed {ms}");
        return 1;
    };
    // Compare sizes first: a reopened object with a garbage size would
    // otherwise ask for a buffer of that size.
    if obj.size(&mut db) != want.len() as u64 {
        println!("size-differs {ms}");
        return 1;
    }
    let mut got = vec![0u8; want.len()];
    if obj.read(&mut db, 0, &mut got).is_err() || got != want {
        println!("bytes-differ {ms}");
        return 1;
    }
    println!("ok {ms}");
    0
}
