//! Golden-output regression test for `--exact` mode: the fixed
//! full-budget run must keep producing byte-identical experiment TSVs
//! across refactors of the engine internals (event queue, run-length
//! plumbing, the directory service path). The `fig1`/`fig4` fixtures
//! under `tests/golden/` were captured from the pre-calendar-queue
//! BinaryHeap engine; the `e13`, `ablations` and `e15` fixtures from the
//! engine before the sharer bitset, the queued-GetM counter and
//! allocation-free arbitration. Any drift here means a refactor changed
//! simulation semantics.
//!
//! To re-bless after an *intentional* semantic change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p bounce-harness --test exact_golden
//! ```

use bounce_harness::experiments::{self, ExpCtx, Machine};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn check_golden(name: &str, tsv: &str) {
    let path = golden_dir().join(format!("{name}.tsv"));
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, tsv).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); bless it first", path.display()));
    assert!(
        tsv == want,
        "{name}: --exact output drifted from the golden fixture.\n\
         If the change is intentional, re-bless with BLESS_GOLDEN=1.\n\
         --- got ---\n{tsv}\n--- want ---\n{want}"
    );
}

#[test]
fn exact_fig1_e5_matches_golden() {
    let ctx = ExpCtx::quick().with_exact(true);
    let t = experiments::fig1(ctx, Machine::E5).expect("fig1 must run");
    check_golden("fig1-e5", &t.to_tsv());
}

#[test]
fn exact_fig4_e5_matches_golden() {
    let ctx = ExpCtx::quick().with_exact(true);
    let t = experiments::fig4(ctx, Machine::E5).expect("fig4 must run");
    check_golden("fig4-e5", &t.to_tsv());
}

#[test]
fn exact_e13_e5_matches_golden() {
    // ReadScan under MESI, MESIF and MOESI: sharer fan-out and
    // invalidation through the directory's sharer set.
    let ctx = ExpCtx::quick().with_exact(true);
    let t = experiments::protocol_ablation(ctx, Machine::E5).expect("e13 must run");
    check_golden("e13-e5", &t.to_tsv());
}

#[test]
fn exact_ablations_e5_matches_golden() {
    // The arbitration policies and the link-occupancy model, which
    // charges invalidation hops in ascending sharer order.
    let ctx = ExpCtx::quick().with_exact(true);
    let t = experiments::ablations(ctx, Machine::E5).expect("ablations must run");
    check_golden("ablations-e5", &t.to_tsv());
}

#[test]
fn exact_e15_e5_matches_golden() {
    // Fabric NACKs, retries and jitter.
    let ctx = ExpCtx::quick().with_exact(true);
    let t = experiments::degraded_fabric(ctx, Machine::E5).expect("e15 must run");
    check_golden("e15-e5", &t.to_tsv());
}
