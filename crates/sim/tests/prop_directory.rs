//! Property tests for the dense line-index map that replaced the
//! directory's per-access `HashMap` lookups: interning must agree with
//! the old HashMap-keyed semantics for every access pattern, including
//! lines first touched mid-run (the `OpIndexed` fallback path). The
//! bitset sharer set must behave like the `BTreeSet<usize>` it replaced.

use bounce_sim::cache::LineId;
use bounce_sim::config::HomePolicy;
use bounce_sim::directory::{Directory, SharerSet};
use bounce_topo::presets;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

fn policy_from(raw: u8) -> HomePolicy {
    match raw % 3 {
        0 => HomePolicy::Fixed(0),
        1 => HomePolicy::Fixed(3),
        _ => HomePolicy::Hash,
    }
}

/// One mutation of a sharer set.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    Remove(usize),
    Clear,
}

fn set_op() -> impl Strategy<Value = SetOp> {
    // Core ids 0..300 cross the 64- and 128-core word boundaries.
    (0u8..10, 0usize..300).prop_map(|(kind, core)| match kind {
        0 => SetOp::Clear,
        1..=3 => SetOp::Remove(core),
        _ => SetOp::Insert(core),
    })
}

proptest! {
    /// The bitset sharer set agrees with a `BTreeSet<usize>` model under
    /// random insert/remove/clear: return values, ascending iteration,
    /// `len`, `is_empty`, `contains` and the `Debug` text.
    #[test]
    fn sharer_set_matches_btreeset(ops in proptest::collection::vec(set_op(), 1..200)) {
        let mut set = SharerSet::default();
        let mut model = BTreeSet::new();
        for op in &ops {
            match *op {
                SetOp::Insert(c) => prop_assert_eq!(set.insert(c), model.insert(c)),
                SetOp::Remove(c) => prop_assert_eq!(set.remove(c), model.remove(&c)),
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
        }
        for c in 0..320 {
            prop_assert_eq!(set.contains(c), model.contains(&c), "core {}", c);
            prop_assert_eq!(set.word(c / 64) & (1 << (c % 64)) != 0, model.contains(&c));
        }
    }

    /// The interned map is a bijection between touched lines and
    /// `0..tracked_lines()`, assigned densely in first-touch order, and
    /// every dense accessor agrees with its legacy HashMap-semantics
    /// counterpart.
    #[test]
    fn intern_matches_hashmap_semantics(
        raw_lines in proptest::collection::vec(0u64..64, 1..200),
        policy_raw in 0u8..6,
        salt in 0u64..1000,
    ) {
        let topo = presets::tiny_test_machine();
        let mut dir = Directory::new(&topo, policy_from(policy_raw), salt);
        // The reference model: the old engine resolved every access
        // through a HashMap keyed by LineId.
        let mut model: HashMap<LineId, u32> = HashMap::new();

        for (step, &raw) in raw_lines.iter().enumerate() {
            let line = LineId(raw);
            let expected = match model.get(&line) {
                Some(&i) => i,
                None => {
                    // First touch: dense assignment in touch order.
                    let i = model.len() as u32;
                    model.insert(line, i);
                    i
                }
            };
            let idx = dir.intern(line);
            prop_assert_eq!(idx, expected, "step {}: intern order", step);
            // Stable on re-intern.
            prop_assert_eq!(dir.intern(line), expected);
            prop_assert_eq!(dir.lookup(line), Some(expected));
            // Roundtrip through the dense side.
            prop_assert_eq!(dir.line_at(idx), line);
            // The precomputed home equals the pure per-access function
            // the old code called on every miss.
            prop_assert_eq!(dir.home_of(idx), dir.home_tile(line));
        }
        prop_assert_eq!(dir.tracked_lines(), model.len());
        // Untouched lines stay unknown.
        prop_assert_eq!(dir.lookup(LineId(1 << 40)), None);
    }

    /// Legacy (LineId-keyed) and dense (index-keyed) accessors alias the
    /// same entry, even for lines interned *after* other entries have
    /// been mutated — the mid-run fallback path.
    #[test]
    fn legacy_and_dense_access_alias(
        early in proptest::collection::vec(0u64..16, 1..20),
        late in proptest::collection::vec(16u64..32, 1..20),
        owners in proptest::collection::vec(0usize..8, 1..40),
    ) {
        let topo = presets::tiny_test_machine();
        let mut dir = Directory::new(&topo, HomePolicy::Hash, 7);
        for &raw in &early {
            dir.intern(LineId(raw));
        }
        // Mutate some early entries through the legacy accessor...
        for (k, &core) in owners.iter().enumerate() {
            let line = LineId(early[k % early.len()]);
            dir.entry(line).owner = Some(core);
            dir.entry(line).sharers.insert(core);
        }
        // ...then intern fresh lines mid-run and mutate via dense.
        for (k, &raw) in late.iter().enumerate() {
            let line = LineId(raw);
            let idx = dir.intern(line);
            dir.entry_at(idx).owner = Some(k % 8);
            // Dense write is visible through the legacy read and
            // vice versa (same entry, not a copy).
            prop_assert_eq!(dir.get(line).unwrap().owner, Some(k % 8));
            dir.entry(line).owner = Some((k + 1) % 8);
            prop_assert_eq!(dir.get_at(idx).owner, Some((k + 1) % 8));
        }
        // Early mutations are still visible through both faces.
        for &raw in &early {
            let line = LineId(raw);
            let idx = dir.lookup(line).unwrap();
            let legacy_owner = dir.get(line).unwrap().owner;
            prop_assert_eq!(dir.get_at(idx).owner, legacy_owner);
            let legacy_sharers: Vec<usize> =
                dir.get(line).unwrap().sharers.iter().collect();
            let dense_sharers: Vec<usize> =
                dir.get_at(idx).sharers.iter().collect();
            prop_assert_eq!(dense_sharers, legacy_sharers);
        }
        // Eviction through the legacy API updates the dense view.
        let probe = LineId(early[0]);
        let idx = dir.lookup(probe).unwrap();
        if let Some(owner) = dir.get(probe).unwrap().owner {
            dir.evict_owner(probe, owner);
            prop_assert_eq!(dir.get_at(idx).owner, None);
        }
    }
}
