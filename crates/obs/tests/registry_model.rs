//! Handles and names are one registry: a seeded interleaving of handle
//! updates and name-keyed updates (static and computed names, all three
//! kinds, `reset()` in the middle) is checked against a `BTreeMap`
//! model. Runs deeper without debug assertions (`ci.sh` runs this crate
//! with `--release`).

use std::collections::BTreeMap;

use lobstore_obs::{
    counter_add, counter_value, gauge_set, gauge_value, histogram_record, merge_thread_registry,
    reset, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
};

lobstore_obs::metrics! {
    static C0: Counter = "model.a";
    static C1: Counter = "model.z.last";
    static C2: Counter = "model.shared";
    static G0: Gauge = "model.g";
    static G1: Gauge = "model.shared";
    static H0: Histogram = "model.h";
    static H1: Histogram = "model.shared";
}

static COUNTERS: [&Counter; 3] = [&C0, &C1, &C2];
static GAUGES: [&Gauge; 2] = [&G0, &G1];
static HISTOGRAMS: [&Histogram; 2] = [&H0, &H1];

/// Names only ever reached by name, built at run time like `health.rs`
/// builds its own. They sort between and around the static ones.
fn computed(i: u64) -> String {
    format!("model.dyn.{}", i % 3)
}

/// xorshift64*: the crate has no dependencies, dev ones included.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Mostly small, sometimes 0, sometimes close enough to `u64::MAX`
    /// that a second one saturates.
    fn amount(&mut self) -> u64 {
        match self.below(8) {
            0 => 0,
            1 => u64::MAX - self.below(4),
            _ => self.below(5_000),
        }
    }
}

#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Vec<u64>>,
}

impl Model {
    fn add(&mut self, name: &str, n: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(n);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, values)| HistogramSnapshot::from_values(n, values))
                .collect(),
        }
    }
}

/// One random update, applied to the registry and to the model. Static
/// names are reached through their handle or by name, at random.
fn step(rng: &mut Rng, model: &mut Model) {
    let by_handle = rng.below(2) == 0;
    let pick = rng.next();
    match rng.below(3) {
        0 => {
            let n = rng.amount();
            let name = if rng.below(3) == 0 {
                let name = computed(pick);
                counter_add(&name, n);
                name
            } else {
                let c = COUNTERS[(pick % 3) as usize];
                if by_handle {
                    c.add(n);
                } else {
                    counter_add(c.name(), n);
                }
                c.name().to_string()
            };
            model.add(&name, n);
        }
        1 => {
            let v = rng.below(1_000) as f64 / 8.0;
            let name = if rng.below(3) == 0 {
                let name = computed(pick);
                gauge_set(&name, v);
                name
            } else {
                let g = GAUGES[(pick % 2) as usize];
                if by_handle {
                    g.set(v);
                } else {
                    gauge_set(g.name(), v);
                }
                g.name().to_string()
            };
            model.gauges.insert(name, v);
        }
        _ => {
            let v = rng.amount();
            let name = if rng.below(3) == 0 {
                let name = computed(pick);
                histogram_record(&name, v);
                name
            } else {
                let h = HISTOGRAMS[(pick % 2) as usize];
                if by_handle {
                    h.record(v);
                } else {
                    histogram_record(h.name(), v);
                }
                h.name().to_string()
            };
            model.histograms.entry(name).or_default().push(v);
        }
    }
}

/// Snapshot and point reads agree with the model. Equality with a
/// snapshot built from `BTreeMap`s also proves the order: by name.
fn check(model: &Model, context: &str) {
    assert_eq!(snapshot(), model.snapshot(), "{context}");
    for c in COUNTERS {
        let want = model.counters.get(c.name()).copied().unwrap_or(0);
        assert_eq!(c.value(), want, "{context}: {}", c.name());
        assert_eq!(counter_value(c.name()), want, "{context}: {}", c.name());
    }
    for g in GAUGES {
        let want = model.gauges.get(g.name()).copied();
        assert_eq!(g.value(), want, "{context}: {}", g.name());
        assert_eq!(gauge_value(g.name()), want, "{context}: {}", g.name());
    }
    for i in 0..3 {
        let name = computed(i);
        let want = model.counters.get(&name).copied().unwrap_or(0);
        assert_eq!(counter_value(&name), want, "{context}: {name}");
    }
}

fn depth() -> (u64, usize) {
    if cfg!(debug_assertions) {
        (16, 400)
    } else {
        (256, 4_000)
    }
}

#[test]
fn interleaved_handle_and_name_updates_match_the_model() {
    let (seeds, steps) = depth();
    for seed in 1..=seeds {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut model = Model::default();
        reset();
        for i in 0..steps {
            if rng.below(97) == 0 {
                reset();
                model = Model::default();
                check(&model, &format!("seed {seed}, after reset at step {i}"));
            }
            step(&mut rng, &mut model);
            if rng.below(13) == 0 {
                check(&model, &format!("seed {seed}, step {i}"));
            }
        }
        check(&model, &format!("seed {seed}, end"));
    }
}

#[test]
fn presence_follows_touch_not_value() {
    reset();
    C0.add(0);
    counter_add("model.dyn.zero", 0);
    H0.record(0);
    let snap = snapshot();
    // Created by `add(0)`: present at 0. Never touched since the reset:
    // absent, though its slot has long been assigned.
    assert_eq!(
        snap.counters,
        vec![
            ("model.a".to_string(), 0),
            ("model.dyn.zero".to_string(), 0)
        ]
    );
    assert!(snap.gauges.is_empty());
    assert_eq!(snap.histograms.len(), 1);
    assert_eq!(snap.histograms[0].count, 1);
    C1.add(3);
    reset();
    assert_eq!(snapshot(), MetricsSnapshot::default());
    assert_eq!(C1.value(), 0);
    assert_eq!(G0.value(), None);
    // Reading a name nobody ever wrote creates nothing.
    assert_eq!(counter_value("model.never"), 0);
    assert_eq!(gauge_value("model.never"), None);
    assert_eq!(snapshot(), MetricsSnapshot::default());
}

#[test]
fn counters_saturate_in_debug_and_release_alike() {
    reset();
    C0.add(u64::MAX - 1);
    C0.add(5);
    assert_eq!(C0.value(), u64::MAX);
    counter_add("model.dyn.sat", u64::MAX);
    counter_add("model.dyn.sat", u64::MAX);
    assert_eq!(counter_value("model.dyn.sat"), u64::MAX);
}

#[test]
fn slots_assigned_on_one_thread_resolve_by_name_on_another() {
    static CROSS: Counter = Counter::new("model.cross.handle");
    reset();
    // This thread assigns both slots: one through a handle, one by name.
    CROSS.add(5);
    counter_add("model.cross.named", 7);
    std::thread::spawn(|| {
        // Cells are per-thread: nothing of the spawner's is visible...
        assert_eq!(snapshot(), MetricsSnapshot::default());
        // ...but its slots are: the name reaches the handle's cell and
        // the other way round, through this thread's own memo.
        counter_add("model.cross.handle", 2);
        assert_eq!(CROSS.value(), 2);
        CROSS.add(1);
        assert_eq!(counter_value("model.cross.handle"), 3);
        counter_add("model.cross.named", 1);
        assert_eq!(
            snapshot().counters,
            vec![
                ("model.cross.handle".to_string(), 3),
                ("model.cross.named".to_string(), 1)
            ]
        );
    })
    .join()
    .expect("worker");
    assert_eq!(CROSS.value(), 5);
    assert_eq!(counter_value("model.cross.named"), 7);
}

#[test]
fn merging_a_workers_snapshot_equals_doing_its_updates_here() {
    let (seeds, steps) = depth();
    for seed in 1..=seeds.min(32) {
        let mut model = Model::default();
        let mut rng = Rng(seed ^ 0xA5A5_5A5A);
        reset();
        for _ in 0..steps / 2 {
            step(&mut rng, &mut model);
        }
        // The worker continues the same sequence on cells of its own.
        let (worker_snap, worker_model) = std::thread::spawn(move || {
            let mut worker_model = Model::default();
            for _ in 0..steps / 2 {
                step(&mut rng, &mut worker_model);
            }
            (snapshot(), worker_model)
        })
        .join()
        .expect("worker");
        assert_eq!(worker_snap, worker_model.snapshot(), "seed {seed}: worker");
        merge_thread_registry(&worker_snap);
        // What the model says had every update happened on this thread:
        // counters and histograms add, a gauge keeps the later setting.
        for (name, n) in &worker_model.counters {
            model.add(name, *n);
        }
        model.gauges.extend(worker_model.gauges);
        for (name, values) in worker_model.histograms {
            model.histograms.entry(name).or_default().extend(values);
        }
        check(&model, &format!("seed {seed}: merged"));
    }
}

#[test]
fn declared_names_are_listed_in_order() {
    assert_eq!(
        NAMES,
        [
            "model.a",
            "model.z.last",
            "model.shared",
            "model.g",
            "model.shared",
            "model.h",
            "model.shared"
        ]
    );
}
