//! `TupleMerge: Clone` is what every copy-on-write apply in the layers above
//! pays, so it must copy a few flat arrays per table — never one heap object
//! per rule. Counted under a counting global allocator; this file holds one
//! test so no other thread allocates while it counts.

use nm_common::{Classifier, FieldsSpec, FiveTuple, Rule, RuleSet};
use nm_tuplemerge::TupleMerge;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter has no bearing on memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System.alloc`, to which `layout` goes as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`; `ptr` came from `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn clone_allocates_per_table_not_per_rule() {
    let rules: Vec<Rule> = (0..5_000u32)
        .map(|i| {
            let ft = match i % 3 {
                0 => {
                    FiveTuple::new().src_prefix_raw(i.wrapping_mul(0x9e37_79b9), 8 + (i % 25) as u8)
                }
                1 => {
                    FiveTuple::new().dst_prefix_raw(i.wrapping_mul(0x85eb_ca6b), 24).proto_exact(6)
                }
                _ => FiveTuple::new().dst_port_exact((i % 4_000) as u16).proto_exact(17),
            };
            ft.into_rule(i, i)
        })
        .collect();
    let tm = TupleMerge::build(&RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap());
    let tables = tm.num_tables();
    assert!(tables >= 3, "the set should spread over several tables, got {tables}");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let copy = tm.clone();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(copy.num_rules(), 5_000);
    // Per table: mask lengths, hash recipe, slots, runs, entries. Beyond
    // them: the table list, probe order, table filter (its rows and its
    // field list), rule arena, id map and schema.
    assert!(
        allocations <= 5 * tables + 34,
        "clone made {allocations} allocations for {tables} tables and 5000 rules"
    );
}
