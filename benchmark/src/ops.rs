//! Operation streams. The engine sees only what these generate.

use lobstore_core::{Db, LargeObject};

use crate::rng::{fill, Rng};
use crate::trace::{Kind, Probe};

/// Mean size of an `edit` operation, varied ±50 % (§4.4 of the paper).
const EDIT_MEAN: u64 = 10_000;
/// Largest operation the streams generate; sizes a read buffer.
pub const MAX_OP_BYTES: usize = (EDIT_MEAN + EDIT_MEAN / 2) as usize;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Read { off: u64, len: u64 },
    Insert { off: u64, len: u64 },
    Delete { off: u64, len: u64 },
}

/// Operations in a block of the stream.
const BLOCK: usize = 50;
/// Of a block: 20 reads, 15 inserts and 15 deletes, so 30 updates.
const BLOCK_READS: usize = BLOCK * 2 / 5;
const BLOCK_INSERTS: usize = BLOCK * 3 / 10;
const BLOCK_UPDATES: usize = BLOCK - BLOCK_READS;

/// A random permutation of `0..n`.
fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// An offset in `[0, span]`, uniform inside stratum `k` of `n`.
fn stratified(rng: &mut Rng, k: usize, n: usize, span: u64) -> u64 {
    let unit = (k as f64 + rng.below(1 << 20) as f64 / (1u64 << 20) as f64) / n as f64;
    ((unit * (span + 1) as f64) as u64).min(span)
}

/// The paper's §4.4 mix: 40 % read, 30 % insert, 30 % delete, offsets
/// uniform over the object, each delete sized like the insert before it
/// so the object keeps its size.
///
/// The mix is dealt in blocks of 50: each block holds exactly 20 reads,
/// 15 inserts and 15 deletes in random order, and its 30 updates take
/// their offsets one from each thirtieth of the object, in random order.
/// Every operation is still uniform over the object, but every block
/// does nearly the same work. That matters for Starburst, where an
/// update costs in proportion to the bytes behind its offset: with
/// independent offsets the time of a 50-operation segment varies by
/// 10 % from the draw alone.
///
/// The stream tracks the object size itself, so operation `i` is a
/// function of the seed and `i` alone and every scheme can be fed the
/// identical stream.
#[derive(Clone, Debug)]
pub struct EditStream {
    rng: Rng,
    seed: u64,
    size: u64,
    pending_delete: Option<u64>,
    index: u64,
    /// The rest of the current block, last first.
    block: Vec<Dealt>,
}

/// One card of a block; an update carries its offset stratum.
#[derive(Copy, Clone, Debug)]
enum Dealt {
    Read,
    Insert(usize),
    Delete(usize),
}

impl EditStream {
    pub fn new(seed: u64, object_bytes: u64) -> EditStream {
        EditStream {
            rng: Rng::new(seed, 0xED17),
            seed,
            size: object_bytes,
            pending_delete: None,
            index: 0,
            block: Vec::new(),
        }
    }

    /// Operations generated so far.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Object size after the operations generated so far.
    pub fn size(&self) -> u64 {
        self.size
    }

    fn len(&mut self) -> u64 {
        self.rng.range(EDIT_MEAN / 2, EDIT_MEAN + EDIT_MEAN / 2)
    }

    fn deal_block(&mut self) {
        let mut strata = shuffled(&mut self.rng, BLOCK_UPDATES).into_iter();
        self.block = shuffled(&mut self.rng, BLOCK)
            .into_iter()
            .map(|card| match card {
                c if c < BLOCK_READS => Dealt::Read,
                c if c < BLOCK_READS + BLOCK_INSERTS => Dealt::Insert(strata.next().unwrap_or(0)),
                _ => Dealt::Delete(strata.next().unwrap_or(0)),
            })
            .collect();
    }

    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            self.deal_block();
        }
        self.index += 1;
        match self.block.pop().unwrap_or(Dealt::Read) {
            Dealt::Read => {
                let len = self.len().min(self.size);
                let off = self.rng.range(0, self.size - len);
                Op::Read { off, len }
            }
            Dealt::Insert(stratum) => {
                let len = self.len();
                let off = stratified(&mut self.rng, stratum, BLOCK_UPDATES, self.size);
                self.size += len;
                self.pending_delete = Some(len);
                Op::Insert { off, len }
            }
            Dealt::Delete(stratum) => {
                let len = self.pending_delete.take().unwrap_or_else(|| self.len());
                let len = len.min(self.size);
                let off = stratified(&mut self.rng, stratum, BLOCK_UPDATES, self.size - len);
                self.size -= len;
                Op::Delete { off, len }
            }
        }
    }

    /// Tag of the payload of the insert generated last; the payload is
    /// the same for every scheme.
    fn payload_tag(&self) -> u64 {
        self.seed.rotate_left(17) ^ self.index
    }

    /// Generate the next `n` operations with their insert payloads laid
    /// end to end, so the timed loop only slices.
    pub fn batch(&mut self, n: usize) -> Batch {
        let mut ops = Vec::with_capacity(n);
        let mut payload = Vec::new();
        for _ in 0..n {
            let op = self.next_op();
            if let Op::Insert { len, .. } = op {
                let at = payload.len();
                payload.resize(at + len as usize, 0);
                fill(&mut payload[at..], self.payload_tag());
            }
            ops.push(op);
        }
        Batch { ops, payload }
    }
}

/// A run of generated operations and the bytes its inserts carry.
pub struct Batch {
    pub ops: Vec<Op>,
    pub payload: Vec<u8>,
}

impl Batch {
    /// Bytes the batch hands to the engine.
    pub fn inserted_bytes(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Apply every operation to `obj` through `p`; returns how many
    /// calls returned `Err`.
    pub fn apply<P: Probe>(
        &self,
        db: &mut Db,
        obj: &mut dyn LargeObject,
        scratch: &mut [u8],
        p: &mut P,
    ) -> u64 {
        let mut failed = 0;
        let mut at = 0usize;
        for &op in &self.ops {
            let res = match op {
                Op::Read { off, len } => {
                    let out = &mut scratch[..len as usize];
                    p.op(Kind::Read, || obj.read(db, off, out))
                }
                Op::Insert { off, len } => {
                    let bytes = &self.payload[at..at + len as usize];
                    at += len as usize;
                    p.op(Kind::Insert, || obj.insert(db, off, bytes))
                }
                Op::Delete { off, len } => p.op(Kind::Delete, || obj.delete(db, off, len)),
            };
            failed += u64::from(res.is_err());
        }
        failed
    }
}

/// `n` uniform-offset reads of `lo..=hi` bytes inside an object of
/// `size` bytes, as `(offset, length)`.
pub fn uniform_reads(rng: &mut Rng, size: u64, n: usize, lo: u64, hi: u64) -> Vec<(u64, u32)> {
    (0..n)
        .map(|_| {
            let len = rng.range(lo, hi).min(size);
            (rng.range(0, size - len), len as u32)
        })
        .collect()
}

/// One `versioned` transaction: insert `len` bytes at `ins_off`, then
/// delete `len` bytes at `del_off`, so the object keeps its size.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TxnOp {
    pub ins_off: u64,
    pub del_off: u64,
    pub len: u64,
}

/// Generate `n` transactions against an object of `size` bytes, with the
/// insert payloads laid end to end. The `2n` offsets come one from each
/// `2n`-th of the object, in random order (see [`EditStream`]).
pub fn txn_batch(rng: &mut Rng, size: u64, n: usize) -> (Vec<TxnOp>, Vec<u8>) {
    let mut payload = Vec::new();
    let mut strata = shuffled(rng, 2 * n).into_iter();
    let mut offset = |rng: &mut Rng| stratified(rng, strata.next().unwrap_or(0), 2 * n, size);
    let txns = (0..n)
        .map(|_| {
            let len = rng.range(EDIT_MEAN / 2, EDIT_MEAN + EDIT_MEAN / 2);
            let at = payload.len();
            payload.resize(at + len as usize, 0);
            fill(&mut payload[at..], rng.next_u64());
            TxnOp {
                ins_off: offset(rng),
                del_off: offset(rng),
                len,
            }
        })
        .collect();
    (txns, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(seed: u64, n: usize) -> (Vec<Op>, Vec<u8>) {
        let b = EditStream::new(seed, 10 << 20).batch(n);
        (b.ops, b.payload)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(first_ops(5, 3000), first_ops(5, 3000));
        assert_ne!(first_ops(5, 3000).0, first_ops(6, 3000).0);
        assert_ne!(first_ops(5, 3000).1, first_ops(6, 3000).1);
    }

    #[test]
    fn batches_continue_the_stream() {
        let mut s = EditStream::new(9, 10 << 20);
        let mut ops = s.batch(500).ops;
        ops.extend(s.batch(50).ops);
        assert_eq!(ops, first_ops(9, 550).0);
        assert_eq!(s.index(), 550);
    }

    #[test]
    fn every_block_is_40_30_30_and_the_size_holds() {
        let mut s = EditStream::new(1, 10 << 20);
        let b = s.batch(20_000);
        for block in b.ops.chunks(BLOCK) {
            let count = |f: fn(&Op) -> bool| block.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, Op::Read { .. })), 20);
            assert_eq!(count(|o| matches!(o, Op::Insert { .. })), 15);
            assert_eq!(count(|o| matches!(o, Op::Delete { .. })), 15);
            // one update in each thirtieth of the object (350 KB): no two
            // neighbours further apart than two of them
            let mut offsets: Vec<u64> = block
                .iter()
                .filter_map(|o| match *o {
                    Op::Insert { off, .. } | Op::Delete { off, .. } => Some(off),
                    Op::Read { .. } => None,
                })
                .collect();
            offsets.sort_unstable();
            assert!(
                offsets.windows(2).all(|w| w[1] - w[0] < 800_000),
                "{offsets:?}"
            );
        }
        let drift = s.size().abs_diff(10 << 20);
        assert!(drift < 1 << 20, "size drifted by {drift}");
        for op in &b.ops {
            let len = match *op {
                Op::Read { len, .. } | Op::Insert { len, .. } | Op::Delete { len, .. } => len,
            };
            assert!((5_000..=15_000).contains(&len));
        }
    }

    #[test]
    fn reads_and_txns_stay_inside_the_object() {
        let mut rng = Rng::new(3, 1);
        for (off, len) in uniform_reads(&mut rng, 1 << 20, 5000, 50, 150) {
            assert!((50..=150).contains(&len));
            assert!(off + u64::from(len) <= 1 << 20);
        }
        let (txns, payload) = txn_batch(&mut rng, 1 << 20, 100);
        assert_eq!(
            payload.len() as u64,
            txns.iter().map(|t| t.len).sum::<u64>()
        );
        assert!(txns
            .iter()
            .all(|t| t.ins_off <= 1 << 20 && t.del_off <= 1 << 20));
    }
}
