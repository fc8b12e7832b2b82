//! Shape assertions: the qualitative findings of §4 must hold at reduced
//! scale, so regressions in any layer surface as a failed claim rather
//! than a silently wrong figure.

use lobstore_bench::{fresh_db, run_update_sweep, Scale, ESM_LEAF_PAGES, PAPER_APPEND_KB};
use lobstore_workload::{build_object, sequential_scan, ManagerSpec, MixedReport, OpKind};

fn tiny() -> Scale {
    Scale {
        object_bytes: 1 << 20,
        ops: 800,
        mark_every: 200,
    }
}

fn last_util(rep: &MixedReport) -> f64 {
    rep.marks.last().unwrap().utilization
}

fn avg(rep: &MixedReport, kind: OpKind) -> f64 {
    rep.avg_ms(kind, &rep.marks).expect("ops of this kind ran")
}

/// Simulated seconds to build a 1 MB object of `spec` by `kb` KB appends:
/// one cell of Figure 5.
fn fig5_build_s(spec: ManagerSpec, kb: usize) -> f64 {
    let mut db = fresh_db();
    let (_, rep) = build_object(&mut db, &spec, tiny().object_bytes, kb * 1024).expect("build");
    rep.seconds()
}

/// Figure 5: the best ESM leaf size is the append size — 4, 16, 64 and
/// 256 KB appends build fastest on 1-, 4-, 16- and 64-page leaves.
#[test]
fn fig5_best_esm_leaf_is_the_append_size() {
    for (kb, best) in [(4, 1), (16, 4), (64, 16), (256, 64)] {
        let times: Vec<(u32, f64)> = ESM_LEAF_PAGES
            .iter()
            .map(|&p| (p, fig5_build_s(ManagerSpec::esm(p), kb)))
            .collect();
        let min = times.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
        let fastest: Vec<u32> = times.iter().filter(|t| t.1 == min).map(|t| t.0).collect();
        assert_eq!(fastest, [best], "{kb} KB appends: {times:?}");
    }
}

/// Figure 5 (§4.2): Starburst and EOS/4 grow their segments alike, so
/// their columns are equal at every append size.
#[test]
fn fig5_starburst_and_eos4_columns_are_equal() {
    for kb in PAPER_APPEND_KB {
        let sb = fig5_build_s(ManagerSpec::starburst(), kb);
        let eos = fig5_build_s(ManagerSpec::eos(4), kb);
        assert_eq!(sb, eos, "{kb} KB appends");
    }
}

/// Simulated seconds to scan a 1 MB object of `spec` in `kb` KB reads,
/// the object built by `kb` KB appends: one cell of Figure 6.
fn fig6_scan_s(spec: ManagerSpec, kb: usize) -> f64 {
    let mut db = fresh_db();
    let (obj, _) = build_object(&mut db, &spec, tiny().object_bytes, kb * 1024).expect("build");
    let rep = sequential_scan(&mut db, obj.as_ref(), kb * 1024).expect("scan");
    rep.seconds()
}

/// Figure 6: an ESM scan plateaus once its size is a multiple of the
/// leaf — whole leaves a read — and no scan size beats the plateau.
#[test]
fn fig6_esm_scans_plateau_at_leaf_multiples() {
    for pages in ESM_LEAF_PAGES {
        let leaf_kb = 4 * pages as usize;
        let times: Vec<(usize, f64)> = PAPER_APPEND_KB
            .iter()
            .map(|&kb| (kb, fig6_scan_s(ManagerSpec::esm(pages), kb)))
            .collect();
        let plateau: Vec<f64> = times
            .iter()
            .filter(|t| t.0 % leaf_kb == 0)
            .map(|t| t.1)
            .collect();
        assert!(!plateau.is_empty(), "ESM/{pages}");
        assert!(
            plateau.iter().all(|&s| s == plateau[0]),
            "ESM/{pages} at multiples of {leaf_kb} KB: {times:?}"
        );
        assert!(
            times.iter().all(|t| t.1 >= plateau[0]),
            "ESM/{pages} beats its plateau: {times:?}"
        );
    }
}

/// Figure 6: no column scans faster than the transfer rate allows
/// (1 KB/ms over the whole object).
#[test]
fn fig6_scans_stay_above_the_transfer_floor() {
    let floor = tiny().object_bytes as f64 / 1024.0 / 1000.0;
    let mut specs: Vec<ManagerSpec> = ESM_LEAF_PAGES.map(ManagerSpec::esm).to_vec();
    specs.extend([ManagerSpec::starburst(), ManagerSpec::eos(4)]);
    for spec in specs {
        for kb in PAPER_APPEND_KB {
            let s = fig6_scan_s(spec, kb);
            assert!(s >= floor, "{} at {kb} KB: {s} s < {floor} s", spec.label());
        }
    }
}

/// Figure 7.c: for 100 KB operations, small ESM leaves hold much better
/// utilization than large ones (≈96 % vs ≈75 % in the paper).
#[test]
fn fig7c_small_leaves_win_utilization_for_big_ops() {
    let sweep = run_update_sweep(
        &[ManagerSpec::esm(1), ManagerSpec::esm(64)],
        tiny(),
        100_000,
    );
    let (u1, u64_) = (last_util(&sweep[0].1), last_util(&sweep[1].1));
    assert!(u1 > 0.90, "ESM/1 utilization {u1:.3}");
    assert!(u64_ < 0.85, "ESM/64 utilization {u64_:.3}");
    assert!(u1 - u64_ > 0.10, "gap too small: {u1:.3} vs {u64_:.3}");
}

/// Figure 8: EOS utilization is ordered by threshold, with T=64 nearly
/// perfect, for every operation size.
#[test]
fn fig8_eos_utilization_ordered_by_threshold() {
    for mean in [10_000u64, 100_000] {
        let sweep = run_update_sweep(&[ManagerSpec::eos(1), ManagerSpec::eos(64)], tiny(), mean);
        let (u1, u64_) = (last_util(&sweep[0].1), last_util(&sweep[1].1));
        assert!(u64_ > u1, "mean {mean}: T=64 {u64_:.3} vs T=1 {u1:.3}");
        assert!(u64_ > 0.95, "mean {mean}: T=64 {u64_:.3}");
    }
}

/// Figure 9.c: 100 KB reads cost far more on 1-page leaves than 64-page
/// leaves (random page fetches vs sequential segment reads).
#[test]
fn fig9c_read_cost_falls_with_leaf_size() {
    let sweep = run_update_sweep(
        &[ManagerSpec::esm(1), ManagerSpec::esm(64)],
        tiny(),
        100_000,
    );
    let (r1, r64) = (
        avg(&sweep[0].1, OpKind::Read),
        avg(&sweep[1].1, OpKind::Read),
    );
    assert!(
        r1 > 2.5 * r64,
        "ESM/1 reads {r1:.0} ms should dwarf ESM/64 {r64:.0} ms"
    );
}

/// §4.4.2: for the same setting, EOS reads cost no more than ESM reads
/// (EOS keeps inserted bytes in one variable-size segment).
#[test]
fn eos_reads_beat_esm_for_small_segments() {
    let mean = 100_000u64;
    let esm = run_update_sweep(&[ManagerSpec::esm(1)], tiny(), mean);
    let eos = run_update_sweep(&[ManagerSpec::eos(1)], tiny(), mean);
    let (re, ro) = (avg(&esm[0].1, OpKind::Read), avg(&eos[0].1, OpKind::Read));
    assert!(ro < re, "EOS/1 {ro:.0} ms must beat ESM/1 {re:.0} ms");
}

/// Figure 11.c: the best ESM leaf size for 100 KB inserts is the one
/// closest to the insert size (16 pages), and 1-page leaves are poor.
#[test]
fn fig11c_insert_cost_minimized_near_insert_size() {
    let sweep = run_update_sweep(
        &[
            ManagerSpec::esm(1),
            ManagerSpec::esm(16),
            ManagerSpec::esm(64),
        ],
        tiny(),
        100_000,
    );
    let i1 = avg(&sweep[0].1, OpKind::Insert);
    let i16 = avg(&sweep[1].1, OpKind::Insert);
    let i64_ = avg(&sweep[2].1, OpKind::Insert);
    assert!(
        i16 < i64_,
        "16-page {i16:.0} ms must beat 64-page {i64_:.0} ms"
    );
    assert!(i16 < i1, "16-page {i16:.0} ms must beat 1-page {i1:.0} ms");
}

/// Figure 12: EOS insert cost is flat for T ∈ {1,4} and rises beyond.
#[test]
fn fig12_eos_insert_cost_rises_above_t4() {
    let sweep = run_update_sweep(
        &[
            ManagerSpec::eos(1),
            ManagerSpec::eos(4),
            ManagerSpec::eos(64),
        ],
        tiny(),
        10_000,
    );
    let i1 = avg(&sweep[0].1, OpKind::Insert);
    let i4 = avg(&sweep[1].1, OpKind::Insert);
    let i64_ = avg(&sweep[2].1, OpKind::Insert);
    assert!(
        (i1 - i4).abs() < 0.35 * i1.max(i4),
        "T=1 ({i1:.0}) and T=4 ({i4:.0}) should be close"
    );
    assert!(
        i64_ > 1.5 * i4,
        "T=64 ({i64_:.0}) must exceed T=4 ({i4:.0})"
    );
}

/// §4.4.3: delete trends mirror insert trends for EOS.
#[test]
fn deletes_mirror_inserts() {
    let sweep = run_update_sweep(&[ManagerSpec::eos(4), ManagerSpec::eos(64)], tiny(), 10_000);
    let d4 = avg(&sweep[0].1, OpKind::Delete);
    let d64 = avg(&sweep[1].1, OpKind::Delete);
    assert!(
        d64 > d4,
        "T=64 deletes ({d64:.0}) must cost more than T=4 ({d4:.0})"
    );
}
