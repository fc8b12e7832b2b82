//! Property-based model checking of the slotted heap page: arbitrary
//! insert/delete/update sequences against a `HashMap` reference model.

use lobstore_record::page;
use lobstore_simdisk::PAGE_SIZE;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<u8>),
    Delete(u16),
    Update(u16, Vec<u8>),
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => prop::collection::vec(any::<u8>(), 0..900).prop_map(Op::Insert),
        2 => (0u16..24).prop_map(Op::Delete),
        2 => ((0u16..24), prop::collection::vec(any::<u8>(), 0..900))
            .prop_map(|(s, b)| Op::Update(s, b)),
        1 => Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn page_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut p = vec![0u8; PAGE_SIZE];
        page::init(&mut p);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        // High-water slot-directory size: tombstoned entries keep their
        // 4 directory bytes until an insert recycles them.
        let mut dir_slots: usize = 0;

        for op in ops {
            match op {
                Op::Insert(bytes) => {
                    if let Some(slot) = page::insert(&mut p, &bytes).unwrap() {
                        prop_assert!(!model.contains_key(&slot),
                            "live slot {slot} reused");
                        dir_slots = dir_slots.max(slot as usize + 1);
                        model.insert(slot, bytes);
                    } else {
                        // Rejection must only happen for lack of space:
                        // header + directory (tombstones included) + live
                        // cells + the new record would overflow the page.
                        let live: usize = model.values().map(Vec::len).sum();
                        let new_slot = usize::from(dir_slots == model.len());
                        prop_assert!(
                            16 + (dir_slots + new_slot) * 4 + live + bytes.len() > PAGE_SIZE,
                            "spurious rejection: {} live, {} dir slots, {} requested",
                            live, dir_slots, bytes.len());
                    }
                }
                Op::Delete(slot) => {
                    let was_live = model.remove(&slot).is_some();
                    prop_assert_eq!(page::delete(&mut p, slot).unwrap(), was_live);
                }
                Op::Update(slot, bytes) => {
                    let live = model.contains_key(&slot);
                    let ok = page::update(&mut p, slot, &bytes).unwrap();
                    if ok {
                        prop_assert!(live, "update succeeded on dead slot");
                        model.insert(slot, bytes);
                    } else if live {
                        // Failed grow: record must be unchanged.
                        prop_assert_eq!(page::get(&p, slot).unwrap().unwrap(), &model[&slot][..]);
                    }
                }
                Op::Compact => page::compact(&mut p).unwrap(),
            }
            // Full state check after every op.
            prop_assert_eq!(page::live_records(&p).unwrap(), model.len());
            for (slot, bytes) in &model {
                prop_assert_eq!(page::get(&p, *slot).unwrap().unwrap(), &bytes[..],
                    "slot {} corrupted", slot);
            }
        }
    }
}
