//! The §4.4 mixed update workload: 40 % reads, 30 % inserts, 30 % deletes.

use lobstore_core::{Db, LargeObject, Result};
use lobstore_obs::json::Value;
use lobstore_simdisk::IoStats;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scanner::sample_op_size;
use crate::{fill_bytes, metrics};

/// Kind of one workload operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Read,
    Insert,
    Delete,
}

/// Parameters of a mixed run. Defaults are the paper's (§4.4): 10 000
/// operations, marks every 2 000, a 40/30/30 read/insert/delete mix, and
/// sizes varied ±50 % about the mean.
#[derive(Copy, Clone, Debug)]
pub struct MixedConfig {
    pub ops: usize,
    pub mark_every: usize,
    /// Mean operation size in bytes (100, 10 K, or 100 K in the paper).
    pub mean_op_bytes: u64,
    pub read_pct: u8,
    pub insert_pct: u8,
    pub seed: u64,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            ops: 10_000,
            mark_every: 2_000,
            mean_op_bytes: 10_000,
            read_pct: 40,
            insert_pct: 30,
            seed: 0x51_6D0D,
        }
    }
}

/// Averages over the operations *since the previous mark*, plus the
/// utilization at the mark — one point of the Figures 7–12 curves.
#[derive(Copy, Clone, Debug)]
pub struct Mark {
    pub ops_done: usize,
    /// Mean read I/O cost in ms over the window (None: no reads landed).
    pub read_ms: Option<f64>,
    pub insert_ms: Option<f64>,
    pub delete_ms: Option<f64>,
    /// Storage utilization (object bytes over allocated bytes) at the mark.
    pub utilization: f64,
}

/// Full outcome of a mixed run.
#[derive(Clone, Debug)]
pub struct MixedReport {
    pub marks: Vec<Mark>,
    pub total_io: IoStats,
    pub reads: usize,
    pub inserts: usize,
    pub deletes: usize,
}

impl MixedReport {
    /// Overall average cost of one kind across the whole run, in ms.
    pub fn avg_ms(&self, kind: OpKind, windows: &[Mark]) -> Option<f64> {
        let vals: Vec<f64> = windows
            .iter()
            .filter_map(|m| match kind {
                OpKind::Read => m.read_ms,
                OpKind::Insert => m.insert_ms,
                OpKind::Delete => m.delete_ms,
            })
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Driver state for one mixed run.
pub struct MixedWorkload {
    rng: StdRng,
    cfg: MixedConfig,
    /// Size of the most recent insert — the next delete reuses it so the
    /// object size stays stable (§4.4).
    pending_delete: Option<u64>,
}

impl MixedWorkload {
    pub fn new(cfg: MixedConfig) -> Self {
        assert!(cfg.ops > 0 && cfg.mark_every > 0);
        assert!(cfg.read_pct as u32 + cfg.insert_pct as u32 <= 100);
        MixedWorkload {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            pending_delete: None,
        }
    }

    /// Run the workload against `obj`, collecting a mark every
    /// `mark_every` operations.
    pub fn run(&mut self, db: &mut Db, obj: &mut dyn LargeObject) -> Result<MixedReport> {
        let run_start = db.io_stats();
        let mut marks = Vec::with_capacity(self.cfg.ops / self.cfg.mark_every);
        let mut counts = [0usize; 3];
        // Per-window accumulators: (count, time_us) per kind.
        let mut win = [(0usize, 0u64); 3];
        let mut buf = vec![0u8; (self.cfg.mean_op_bytes + self.cfg.mean_op_bytes / 2) as usize + 1];

        for op_no in 1..=self.cfg.ops {
            let kind = self.pick_kind();
            let before = db.io_stats();
            match kind {
                OpKind::Read => {
                    let size = obj.size(db);
                    let len = sample_op_size(&mut self.rng, self.cfg.mean_op_bytes).min(size);
                    if len > 0 {
                        let off = self.uniform_start(size, len);
                        obj.read(db, off, &mut buf[..len as usize])?;
                    }
                }
                OpKind::Insert => {
                    let size = obj.size(db);
                    let len = sample_op_size(&mut self.rng, self.cfg.mean_op_bytes);
                    let off = if size == 0 {
                        0
                    } else {
                        self.rng.gen_range(0..=size)
                    };
                    fill_bytes(&mut buf[..len as usize], (op_no as u64) << 8);
                    obj.insert(db, off, &buf[..len as usize])?;
                    self.pending_delete = Some(len);
                }
                OpKind::Delete => {
                    let size = obj.size(db);
                    let len = self
                        .pending_delete
                        .take()
                        .unwrap_or_else(|| sample_op_size(&mut self.rng, self.cfg.mean_op_bytes))
                        .min(size);
                    if len > 0 {
                        let off = self.uniform_start(size, len);
                        obj.delete(db, off, len)?;
                    }
                }
            }
            let cost = db.io_stats() - before;
            let k = kind as usize;
            counts[k] += 1;
            win[k].0 += 1;
            win[k].1 += cost.time_us;
            match kind {
                OpKind::Read => &metrics::OP_READ,
                OpKind::Insert => &metrics::OP_INSERT,
                OpKind::Delete => &metrics::OP_DELETE,
            }
            .add(1);

            if op_no % self.cfg.mark_every == 0 {
                let avg = |(n, us): (usize, u64)| (n > 0).then(|| us as f64 / 1_000.0 / n as f64);
                let mark = Mark {
                    ops_done: op_no,
                    read_ms: avg(win[OpKind::Read as usize]),
                    insert_ms: avg(win[OpKind::Insert as usize]),
                    delete_ms: avg(win[OpKind::Delete as usize]),
                    utilization: obj.utilization(db).ratio(),
                };
                let ms = |v: Option<f64>| v.map(Value::Num).unwrap_or(Value::Null);
                lobstore_obs::event(
                    metrics::MARK.name(),
                    &[
                        ("ops_done", Value::from(mark.ops_done as u64)),
                        ("read_ms", ms(mark.read_ms)),
                        ("insert_ms", ms(mark.insert_ms)),
                        ("delete_ms", ms(mark.delete_ms)),
                        ("utilization", Value::Num(mark.utilization)),
                    ],
                );
                marks.push(mark);
                win = [(0, 0); 3];
            }
        }
        Ok(MixedReport {
            marks,
            total_io: db.io_stats() - run_start,
            reads: counts[OpKind::Read as usize],
            inserts: counts[OpKind::Insert as usize],
            deletes: counts[OpKind::Delete as usize],
        })
    }

    fn pick_kind(&mut self) -> OpKind {
        let p: u8 = self.rng.gen_range(0..100);
        if p < self.cfg.read_pct {
            OpKind::Read
        } else if p < self.cfg.read_pct + self.cfg.insert_pct {
            OpKind::Insert
        } else {
            OpKind::Delete
        }
    }

    fn uniform_start(&mut self, size: u64, len: u64) -> u64 {
        let max_start = size - len;
        if max_start == 0 {
            0
        } else {
            self.rng.gen_range(0..=max_start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_object, ManagerSpec};

    fn small_cfg(mean: u64) -> MixedConfig {
        MixedConfig {
            ops: 300,
            mark_every: 100,
            mean_op_bytes: mean,
            ..MixedConfig::default()
        }
    }

    #[test]
    fn object_size_stays_roughly_stable() {
        let mut db = Db::paper_default();
        let (mut obj, _) = build_object(&mut db, &ManagerSpec::eos(4), 1 << 20, 16 * 1024).unwrap();
        let mut w = MixedWorkload::new(small_cfg(10_000));
        let rep = w.run(&mut db, obj.as_mut()).unwrap();
        let size = obj.size(&mut db);
        assert!(
            (800_000..1_300_000).contains(&size),
            "size drifted to {size}"
        );
        assert_eq!(rep.reads + rep.inserts + rep.deletes, 300);
        assert_eq!(rep.marks.len(), 3);
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn mix_ratios_are_respected() {
        let mut db = Db::paper_default();
        let (mut obj, _) = build_object(&mut db, &ManagerSpec::esm(4), 1 << 19, 16 * 1024).unwrap();
        let mut w = MixedWorkload::new(MixedConfig {
            ops: 2_000,
            mark_every: 500,
            mean_op_bytes: 1_000,
            ..MixedConfig::default()
        });
        let rep = w.run(&mut db, obj.as_mut()).unwrap();
        let frac = |n: usize| n as f64 / 2_000.0;
        assert!((0.35..0.45).contains(&frac(rep.reads)), "{}", rep.reads);
        assert!((0.25..0.35).contains(&frac(rep.inserts)), "{}", rep.inserts);
        assert!((0.25..0.35).contains(&frac(rep.deletes)), "{}", rep.deletes);
    }

    #[test]
    fn marks_report_costs_and_utilization() {
        let mut db = Db::paper_default();
        let (mut obj, _) = build_object(&mut db, &ManagerSpec::esm(1), 1 << 20, 64 * 1024).unwrap();
        let mut w = MixedWorkload::new(small_cfg(10_000));
        let rep = w.run(&mut db, obj.as_mut()).unwrap();
        for m in &rep.marks {
            assert!(m.utilization > 0.4 && m.utilization <= 1.0);
            if let Some(ms) = m.read_ms {
                assert!(ms >= 33.0, "a read costs at least one seek, got {ms}");
            }
            if let Some(ms) = m.insert_ms {
                assert!(ms > 0.0);
            }
        }
        obj.check_invariants(&db).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut db = Db::paper_default();
            let (mut obj, _) =
                build_object(&mut db, &ManagerSpec::eos(16), 1 << 19, 16 * 1024).unwrap();
            let mut w = MixedWorkload::new(small_cfg(1_000));
            let rep = w.run(&mut db, obj.as_mut()).unwrap();
            (rep.total_io, obj.size(&mut db))
        };
        assert_eq!(run().0, run().0);
        assert_eq!(run().1, run().1);
    }

    #[test]
    fn ops_and_marks_reach_the_obs_registry() {
        lobstore_obs::reset();
        let sink = lobstore_obs::MemorySink::new();
        lobstore_obs::install_sink(Box::new(sink.clone()));
        let mut db = Db::paper_default();
        let (mut obj, _) = build_object(&mut db, &ManagerSpec::eos(4), 1 << 19, 16 * 1024).unwrap();
        let mut w = MixedWorkload::new(small_cfg(1_000));
        let rep = w.run(&mut db, obj.as_mut()).unwrap();
        let _ = lobstore_obs::take_sink();
        assert_eq!(
            lobstore_obs::counter_value("workload.op.read"),
            rep.reads as u64
        );
        assert_eq!(
            lobstore_obs::counter_value("workload.op.insert"),
            rep.inserts as u64
        );
        assert_eq!(
            lobstore_obs::counter_value("workload.op.delete"),
            rep.deletes as u64
        );
        assert_eq!(lobstore_obs::counter_value("workload.mark"), 3);
        let mark_lines: Vec<_> = sink
            .lines()
            .into_iter()
            .filter_map(|l| lobstore_obs::json::parse(&l).ok())
            .filter(|v| {
                v.get("name").and_then(lobstore_obs::json::Value::as_str) == Some("workload.mark")
            })
            .collect();
        assert_eq!(mark_lines.len(), 3);
        assert_eq!(
            mark_lines[2]
                .get("ops_done")
                .and_then(lobstore_obs::json::Value::as_u64),
            Some(300)
        );
        assert!(
            mark_lines[2]
                .get("utilization")
                .and_then(lobstore_obs::json::Value::as_num)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn all_three_managers_survive_the_same_mix() {
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::eos(4),
            ManagerSpec::starburst(),
        ] {
            let mut db = Db::paper_default();
            let (mut obj, _) = build_object(&mut db, &spec, 1 << 19, 16 * 1024).unwrap();
            let mut w = MixedWorkload::new(MixedConfig {
                ops: 60,
                mark_every: 20,
                mean_op_bytes: 10_000,
                ..MixedConfig::default()
            });
            let rep = w.run(&mut db, obj.as_mut()).unwrap();
            assert_eq!(rep.marks.len(), 3, "{}", spec.label());
            obj.check_invariants(&db)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
        }
    }
}
