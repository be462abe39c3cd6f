//! Property-based tests: the nested CSR against a naive reference model.
//!
//! The model is a sorted `Vec<(owner, slot, sort, edge, nbr)>`; the CSR
//! must agree with it after any interleaving of builds, buffered inserts,
//! deletes and page merges — including the region-offset view that offset
//! lists depend on.

use proptest::prelude::*;

use aplus_core::nested_csr::{EntryInput, NestedCsr};
use aplus_core::sortkey::{encode_component, SortVal, MAX_SORT_KEYS};

const OWNERS: u32 = 150; // spans three 64-owner pages
const SLOTS: u32 = 3;

fn sv(key: i64, nbr: u32, edge: u64) -> SortVal {
    let mut user = [0u64; MAX_SORT_KEYS];
    user[0] = encode_component(Some(key));
    SortVal::new(user, nbr, edge)
}

#[derive(Debug, Clone)]
enum Op {
    Insert { owner: u32, slot: u32, key: i64 },
    Delete { victim_idx: usize },
    MergeAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..OWNERS, 0..SLOTS, 0i64..50).prop_map(|(owner, slot, key)| Op::Insert {
            owner,
            slot,
            key
        }),
        2 => (0usize..10_000).prop_map(|victim_idx| Op::Delete { victim_idx }),
        1 => Just(Op::MergeAll),
    ]
}

/// Reference model: fully sorted entry list.
#[derive(Debug, Default, Clone)]
struct Model {
    entries: Vec<(u32, u32, SortVal, u64, u32)>,
}

impl Model {
    fn insert(&mut self, owner: u32, slot: u32, sort: SortVal, edge: u64, nbr: u32) {
        self.entries.push((owner, slot, sort, edge, nbr));
        self.entries.sort_by_key(|e| (e.0, e.1, e.2));
    }

    fn delete(&mut self, owner: u32, edge: u64) -> bool {
        if let Some(i) = self
            .entries
            .iter()
            .position(|&(o, _, _, e, _)| o == owner && e == edge)
        {
            self.entries.remove(i);
            true
        } else {
            false
        }
    }

    fn list(&self, owner: u32, slot: Option<u32>) -> Vec<(u64, u32)> {
        self.entries
            .iter()
            .filter(|&&(o, s, ..)| o == owner && slot.is_none_or(|want| s == want))
            .map(|&(_, _, _, e, n)| (e, n))
            .collect()
    }
}

fn csr_list(csr: &NestedCsr, owner: u32, slot: Option<u32>) -> Vec<(u64, u32)> {
    let prefix: Vec<u32> = slot.into_iter().collect();
    csr.list(owner as usize, &prefix)
        .iter()
        .map(|(e, n)| (e.raw(), n.raw()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op streams: CSR lists equal the model's lists for every
    /// owner and slot, before and after merges.
    #[test]
    fn csr_matches_reference_model(
        seed_entries in proptest::collection::vec(
            (0..OWNERS, 0..SLOTS, 0i64..50), 0..120),
        ops in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        let mut model = Model::default();
        let mut next_edge = 0u64;
        let mut inputs = Vec::new();
        for &(owner, slot, key) in &seed_entries {
            let edge = next_edge;
            next_edge += 1;
            let nbr = (edge % 97) as u32;
            inputs.push(EntryInput { owner, slot, sort: sv(key, nbr, edge), edge, nbr });
            model.insert(owner, slot, sv(key, nbr, edge), edge, nbr);
        }
        let mut csr = NestedCsr::build(OWNERS as usize, vec![SLOTS], inputs);
        // key_of recomputes the build keys: edge id encodes them.
        let keys: std::collections::HashMap<u64, SortVal> = model
            .entries
            .iter()
            .map(|&(_, _, s, e, n)| (e, SortVal::new(s.user, n, e)))
            .collect();
        let mut all_keys = keys;

        for op in ops {
            match op {
                Op::Insert { owner, slot, key } => {
                    let edge = next_edge;
                    next_edge += 1;
                    let nbr = (edge % 97) as u32;
                    let sort = sv(key, nbr, edge);
                    let lookup = all_keys.clone();
                    csr.insert(owner as usize, slot, sort, edge, nbr, move |e, _| {
                        lookup[&e.raw()]
                    });
                    all_keys.insert(edge, sort);
                    model.insert(owner, slot, sort, edge, nbr);
                }
                Op::Delete { victim_idx } => {
                    if model.entries.is_empty() {
                        continue;
                    }
                    let (owner, _, _, edge, _) = model.entries[victim_idx % model.entries.len()];
                    prop_assert!(csr.delete(owner as usize, edge));
                    prop_assert!(model.delete(owner, edge));
                }
                Op::MergeAll => {
                    csr.merge_all();
                }
            }
        }

        prop_assert_eq!(csr.entry_count(), model.entries.len());
        for owner in 0..OWNERS {
            prop_assert_eq!(
                csr_list(&csr, owner, None),
                model.list(owner, None),
                "owner {} whole region", owner
            );
            for slot in 0..SLOTS {
                prop_assert_eq!(
                    csr_list(&csr, owner, Some(slot)),
                    model.list(owner, Some(slot)),
                    "owner {} slot {}", owner, slot
                );
            }
        }

        // After a full merge, region offsets must match merged content and
        // every region must be "clean".
        csr.merge_all();
        for owner in 0..OWNERS {
            let expect = model.list(owner, None);
            prop_assert_eq!(csr.region_len_merged(owner as usize), expect.len());
            for (off, &(e, n)) in expect.iter().enumerate() {
                let (edge, nbr) = csr.region_entry(owner as usize, off);
                prop_assert_eq!((edge.raw(), nbr.raw()), (e, n));
            }
            prop_assert!(csr.region(owner as usize).is_clean());
        }
    }

    /// Slot spans are consistent: the whole region is the concatenation of
    /// the per-slot lists, in slot order (the paper's L = LW ∪ LDD).
    #[test]
    fn region_is_concatenation_of_slots(
        entries in proptest::collection::vec((0..OWNERS, 0..SLOTS, 0i64..50), 0..150),
    ) {
        let inputs: Vec<EntryInput> = entries
            .iter()
            .enumerate()
            .map(|(i, &(owner, slot, key))| {
                let edge = i as u64;
                let nbr = (i % 53) as u32;
                EntryInput { owner, slot, sort: sv(key, nbr, edge), edge, nbr }
            })
            .collect();
        let csr = NestedCsr::build(OWNERS as usize, vec![SLOTS], inputs);
        for owner in 0..OWNERS {
            let whole = csr_list(&csr, owner, None);
            let mut concat = Vec::new();
            for slot in 0..SLOTS {
                concat.extend(csr_list(&csr, owner, Some(slot)));
            }
            prop_assert_eq!(whole, concat, "owner {}", owner);
        }
    }
}
