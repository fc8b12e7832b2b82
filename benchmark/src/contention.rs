//! Two-thread probe of `SharedDb`: one pinned scanner alone, then beside
//! one committing writer. On two vCPUs contention measures the scheduler
//! as much as the engine, so these stay layer numbers and move no
//! end-to-end metric.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lobstore_core::{SharedDb, SharedSnapshotReader};

use crate::harness::{spec, stream_pass};
use crate::layers::Layers;
use crate::ops::txn_batch;
use crate::rng::Rng;

const PHASE: Duration = Duration::from_millis(700);
const MB: f64 = (1 << 20) as f64;

/// Pin, stream the whole object, release, until `stop`; returns bytes
/// per second and this thread's count of contended read-tier entries.
fn scan_until(shared: &SharedDb, root: u32, stop: &AtomicBool) -> (f64, u64) {
    let t = Instant::now();
    let mut bytes = 0u64;
    loop {
        let pass = shared
            .snapshot_reader(root)
            .map_err(|e| std::io::Error::other(e.to_string()))
            .and_then(|mut r: SharedSnapshotReader| stream_pass(&mut r, |_| ()));
        bytes += pass.unwrap_or(0);
        // Relaxed: the flag publishes nothing but itself.
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    let waits = lobstore_obs::counter_value("core.shared.read_waits");
    (bytes as f64 / t.elapsed().as_secs_f64(), waits)
}

/// `s` is the scheme whose database `shared` holds, `root` and `size`
/// its object.
pub fn probe(s: usize, shared: &SharedDb, root: u32, size: u64, out: &mut Layers) {
    let stop = AtomicBool::new(false);
    let alone = std::thread::scope(|scope| {
        let scanner = scope.spawn(|| scan_until(shared, root, &stop));
        std::thread::sleep(PHASE);
        stop.store(true, Ordering::Relaxed);
        scanner.join().expect("scanner thread")
    });

    let stop = AtomicBool::new(false);
    let write_waits = lobstore_obs::counter_value("core.shared.write_waits");
    let mut txns = 0u64;
    let (contended, elapsed) = std::thread::scope(|scope| {
        let scanner = scope.spawn(|| scan_until(shared, root, &stop));
        let mut obj = shared.with(|db| spec(s).open(db, root)).expect("open");
        let mut rng = Rng::new(size, 0xC0);
        let t = Instant::now();
        while t.elapsed() < PHASE {
            let (batch, payload) = txn_batch(&mut rng, size, 1);
            let committed = shared.with(|db| {
                db.txn(|db| {
                    obj.insert(db, batch[0].ins_off, &payload)?;
                    obj.delete(db, batch[0].del_off, batch[0].len)
                })
            });
            txns += u64::from(committed.is_ok());
        }
        let elapsed = t.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (scanner.join().expect("scanner thread"), elapsed)
    });

    out.set("core.shared.scan_mb_per_s_alone", alone.0 / MB);
    out.set("core.shared.scan_mb_per_s_vs_writer", contended.0 / MB);
    out.set("core.shared.txn_per_s_vs_scanner", txns as f64 / elapsed);
    out.set("core.shared.read_waits", contended.1 as f64);
    out.set(
        "core.shared.write_waits",
        (lobstore_obs::counter_value("core.shared.write_waits") - write_waits) as f64,
    );
}
