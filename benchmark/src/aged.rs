//! The set-up `probe`, `edit` and `versioned` share: one 10 MB object per
//! scheme, built by 256 KB appends and then aged by 2 000 operations of
//! the `edit` mix, so that what is measured is a store that has been
//! updated for a while (fresh-store numbers for large-object stores
//! mislead; see the README).

use std::collections::BTreeMap;
use std::time::Instant;

use lobstore_core::{Db, DbConfig, LargeObject};

use crate::check::Digest;
use crate::harness::{spec, Stopwatch, Tally, APPEND_BYTES, OBJECT_BYTES, SCHEMES};
use crate::ops::{EditStream, MAX_OP_BYTES};
use crate::rng::fill;
use crate::trace::Untraced;

/// Operations of the `edit` mix that age an object in set-up.
pub const AGEING_OPS: usize = 2_000;
/// Every scheme is fed the identical stream, so after the same number of
/// operations the three objects must hold the same bytes.
const MARK_EVERY: u64 = 1_000;

/// Content digests at the op marks, shared by the three schemes.
#[derive(Default)]
pub struct Marks(BTreeMap<u64, u64>);

impl Marks {
    /// At a mark, require `obj` to pass `check_invariants` and to hold
    /// the bytes every other scheme held after `index` operations.
    pub fn check(
        &mut self,
        index: u64,
        s: usize,
        db: &Db,
        obj: &dyn LargeObject,
        content: &[u8],
        tally: &mut Tally,
    ) {
        if !index.is_multiple_of(MARK_EVERY) {
            return;
        }
        let digest = Digest::of(content);
        let expected = *self.0.entry(index).or_insert(digest);
        tally.check(
            digest == expected,
            &format!(
                "{} content differs from the other schemes at op {index}",
                SCHEMES[s]
            ),
        );
        tally.check(
            obj.check_invariants(db).is_ok(),
            &format!("{} check_invariants at op {index}", SCHEMES[s]),
        );
    }
}

/// One scheme's database with its aged object.
pub struct Aged {
    pub db: Db,
    pub obj: Box<dyn LargeObject>,
    /// The op stream, positioned after the ageing operations.
    pub stream: EditStream,
    /// Bytes appended and inserted so far.
    pub user_bytes: u64,
    pub create_mb_per_s: f64,
}

/// Build and age scheme `s`'s object in a fresh database. `watch` times
/// the engine's work; it is paused around verification.
pub fn build_and_age(
    s: usize,
    seed: u64,
    cfg: DbConfig,
    marks: &mut Marks,
    watch: &mut Stopwatch,
    tally: &mut Tally,
) -> Aged {
    watch.resume();
    let mut db = Db::new(cfg);
    let mut obj = spec(s).create(&mut db).expect("create");
    let mut chunk = vec![0u8; APPEND_BYTES];
    let build = Instant::now();
    let mut failed = 0;
    for i in 0..OBJECT_BYTES / APPEND_BYTES as u64 {
        fill(&mut chunk, seed.rotate_left(32) ^ i);
        failed += u64::from(obj.append(&mut db, &chunk).is_err());
    }
    failed += u64::from(obj.trim(&mut db).is_err());
    let create_mb_per_s = (OBJECT_BYTES >> 20) as f64 / build.elapsed().as_secs_f64();
    tally.ops(OBJECT_BYTES / APPEND_BYTES as u64 + 1, failed);

    let mut stream = EditStream::new(seed, OBJECT_BYTES);
    let mut user_bytes = OBJECT_BYTES;
    let mut scratch = vec![0u8; MAX_OP_BYTES];
    for _ in 0..AGEING_OPS as u64 / MARK_EVERY {
        let batch = stream.batch(MARK_EVERY as usize);
        let failed = batch.apply(&mut db, obj.as_mut(), &mut scratch, &mut Untraced);
        tally.ops(batch.ops.len() as u64, failed);
        user_bytes += batch.inserted_bytes();
        watch.pause();
        let content = obj.snapshot(&db);
        marks.check(stream.index(), s, &db, obj.as_ref(), &content, tally);
        watch.resume();
    }
    watch.pause();
    Aged {
        db,
        obj,
        stream,
        user_bytes,
        create_mb_per_s,
    }
}
