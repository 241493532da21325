//! Property tests: the safe runtime's deletion decisions always match a
//! naive model that recomputes external references from scratch, under
//! arbitrary interleavings of allocation, pointer stores, stack traffic,
//! and deletion attempts.

use proptest::prelude::*;
use region_core::{RegionRuntime, TypeDescriptor};
use simheap::Addr;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    NewRegion,
    Alloc { region: usize },
    /// obj_a.field = obj_b (region write barrier).
    Link { from: usize, to: usize },
    /// obj_a.field = null.
    Unlink { from: usize },
    /// global[g] = obj (global write barrier).
    SetGlobal { g: usize, obj: usize },
    ClearGlobal { g: usize },
    PushFrame,
    PopFrame,
    /// top-frame local = obj.
    SetLocal { slot: usize, obj: usize },
    ClearLocal { slot: usize },
    TryDelete { region: usize },
}

const NGLOBALS: usize = 4;
const SLOTS: u32 = 3;

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            1 => Just(Op::NewRegion),
            4 => any::<usize>().prop_map(|region| Op::Alloc { region }),
            4 => (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Op::Link { from, to }),
            2 => any::<usize>().prop_map(|from| Op::Unlink { from }),
            2 => (0..NGLOBALS, any::<usize>()).prop_map(|(g, obj)| Op::SetGlobal { g, obj }),
            1 => (0..NGLOBALS).prop_map(|g| Op::ClearGlobal { g }),
            1 => Just(Op::PushFrame),
            1 => Just(Op::PopFrame),
            2 => (0..SLOTS as usize, any::<usize>()).prop_map(|(slot, obj)| Op::SetLocal { slot, obj }),
            1 => (0..SLOTS as usize).prop_map(|slot| Op::ClearLocal { slot }),
            2 => any::<usize>().prop_map(|region| Op::TryDelete { region }),
        ],
        1..120,
    )
}

/// The model: which region each object belongs to, every pointer-valued
/// location, and which regions are live.
#[derive(Default)]
struct Model {
    /// (object address, owning region index) in creation order.
    objects: Vec<(Addr, usize)>,
    /// object index → pointed-to object index (its `next` field).
    links: HashMap<usize, usize>,
    globals: [Option<usize>; NGLOBALS],
    /// frames of locals: each slot optionally holds an object index.
    frames: Vec<[Option<usize>; SLOTS as usize]>,
    live: Vec<bool>,
}

impl Model {
    /// True iff region `r` has an external reference: a pointer from a
    /// live object of another region, a global, or any stack slot.
    fn externally_referenced(&self, r: usize) -> bool {
        for (&from, &to) in &self.links {
            let (_, fr) = self.objects[from];
            let (_, tr) = self.objects[to];
            if self.live[fr] && tr == r && fr != r {
                return true;
            }
        }
        if self.globals.iter().flatten().any(|&o| self.objects[o].1 == r) {
            return true;
        }
        self.frames.iter().flatten().flatten().any(|&o| self.objects[o].1 == r)
    }

    fn live_object_indices(&self) -> Vec<usize> {
        (0..self.objects.len()).filter(|&i| self.live[self.objects[i].1]).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deletion_matches_reference_model(ops in ops()) {
        let mut rt = RegionRuntime::new_safe();
        let d = rt.register_type(TypeDescriptor::new("node", 8, vec![4]));
        let globals = rt.alloc_globals(4 * NGLOBALS as u32);
        let mut model = Model::default();
        let mut regions: Vec<region_core::RegionId> = Vec::new();
        rt.push_frame(SLOTS);
        model.frames.push([None; SLOTS as usize]);

        for op in ops {
            match op {
                Op::NewRegion => {
                    regions.push(rt.new_region());
                    model.live.push(true);
                }
                Op::Alloc { region } => {
                    if regions.is_empty() { continue; }
                    let ri = region % regions.len();
                    if !model.live[ri] { continue; }
                    let a = rt.ralloc(regions[ri], d);
                    model.objects.push((a, ri));
                }
                Op::Link { from, to } => {
                    let live = model.live_object_indices();
                    if live.is_empty() { continue; }
                    let fi = live[from % live.len()];
                    let ti = live[to % live.len()];
                    rt.store_ptr_region(model.objects[fi].0 + 4, model.objects[ti].0);
                    model.links.insert(fi, ti);
                }
                Op::Unlink { from } => {
                    let live = model.live_object_indices();
                    if live.is_empty() { continue; }
                    let fi = live[from % live.len()];
                    rt.store_ptr_region(model.objects[fi].0 + 4, Addr::NULL);
                    model.links.remove(&fi);
                }
                Op::SetGlobal { g, obj } => {
                    let live = model.live_object_indices();
                    if live.is_empty() { continue; }
                    let oi = live[obj % live.len()];
                    rt.store_ptr_global(globals + 4 * g as u32, model.objects[oi].0);
                    model.globals[g] = Some(oi);
                }
                Op::ClearGlobal { g } => {
                    rt.store_ptr_global(globals + 4 * g as u32, Addr::NULL);
                    model.globals[g] = None;
                }
                Op::PushFrame => {
                    rt.push_frame(SLOTS);
                    model.frames.push([None; SLOTS as usize]);
                }
                Op::PopFrame => {
                    if model.frames.len() > 1 {
                        rt.pop_frame();
                        model.frames.pop();
                    }
                }
                Op::SetLocal { slot, obj } => {
                    let live = model.live_object_indices();
                    if live.is_empty() { continue; }
                    let oi = live[obj % live.len()];
                    rt.set_local(slot as u32, model.objects[oi].0);
                    model.frames.last_mut().unwrap()[slot] = Some(oi);
                }
                Op::ClearLocal { slot } => {
                    rt.set_local(slot as u32, Addr::NULL);
                    model.frames.last_mut().unwrap()[slot] = None;
                }
                Op::TryDelete { region } => {
                    if regions.is_empty() { continue; }
                    let ri = region % regions.len();
                    if !model.live[ri] { continue; }
                    let expect = !model.externally_referenced(ri);
                    let got = rt.delete_region(regions[ri]);
                    prop_assert_eq!(
                        got, expect,
                        "delete_region disagrees with the model for region {}", ri
                    );
                    if got {
                        model.live[ri] = false;
                        // Dead objects' outgoing links vanish with them.
                        let dead: Vec<usize> = (0..model.objects.len())
                            .filter(|&i| model.objects[i].1 == ri)
                            .collect();
                        for i in dead {
                            model.links.remove(&i);
                        }
                    }
                }
            }
        }

        // Drain: clear every root and every inter-region link (a pair of
        // regions pointing at each other is *never* deletable under the
        // paper's scheme — cross-region cycles must be broken by hand),
        // then every live region must delete.
        for g in 0..NGLOBALS {
            rt.store_ptr_global(globals + 4 * g as u32, Addr::NULL);
        }
        while model.frames.len() > 1 {
            rt.pop_frame();
            model.frames.pop();
        }
        for s in 0..SLOTS {
            rt.set_local(s, Addr::NULL);
        }
        let linked: Vec<usize> = model.links.keys().copied().collect();
        for fi in linked {
            if model.live[model.objects[fi].1] {
                rt.store_ptr_region(model.objects[fi].0 + 4, Addr::NULL);
            }
            model.links.remove(&fi);
        }
        for (ri, &r) in regions.iter().enumerate() {
            if model.live[ri] {
                prop_assert!(rt.delete_region(r), "region {} must delete once unrooted", ri);
            }
        }
        prop_assert_eq!(rt.stats().live_regions, 0);
        prop_assert_eq!(rt.stats().live_bytes, 0);
        rt.pop_frame();
    }
}

/// (a) The host-side page-map mirror must agree with the authoritative
/// in-heap chunked map after any interleaving of region creation,
/// allocation (page acquisition), and deletion (page release/recycling),
/// and `region_of` must report the same owner that a fresh traced lookup
/// of the in-heap map would.
#[derive(Debug, Clone)]
enum MapOp {
    Create,
    /// Allocate `blocks` quarter-page string blocks in a region.
    Grow { region: usize, blocks: usize },
    Delete { region: usize },
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        prop_oneof![
            2 => Just(MapOp::Create),
            4 => (any::<usize>(), 1usize..12)
                .prop_map(|(region, blocks)| MapOp::Grow { region, blocks }),
            2 => any::<usize>().prop_map(|region| MapOp::Delete { region }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_map_mirror_matches_in_heap_map(ops in map_ops()) {
        let mut rt = RegionRuntime::new_safe();
        let mut regions: Vec<(region_core::RegionId, bool)> = Vec::new();
        let mut probes: Vec<(Addr, region_core::RegionId)> = Vec::new();

        for op in ops {
            match op {
                MapOp::Create => {
                    regions.push((rt.new_region(), true));
                }
                MapOp::Grow { region, blocks } => {
                    if regions.is_empty() { continue; }
                    let (r, live) = regions[region % regions.len()];
                    if !live { continue; }
                    for _ in 0..blocks {
                        let a = rt.rstralloc(r, simheap::PAGE_SIZE / 4);
                        probes.push((a, r));
                    }
                }
                MapOp::Delete { region } => {
                    if regions.is_empty() { continue; }
                    let i = region % regions.len();
                    let (r, live) = regions[i];
                    if !live { continue; }
                    prop_assert!(rt.delete_region(r));
                    regions[i].1 = false;
                    probes.retain(|&(_, owner)| owner != r);
                }
            }
            let rep = rt.sanitize();
            prop_assert!(rep.mirror_mismatches.is_empty());
            prop_assert!(rep.mirror_entries_checked > 0);
        }
        // Every live allocation's owner must still resolve through the
        // mirror-backed regionof.
        for (a, owner) in probes {
            prop_assert_eq!(rt.region_of(a), Some(owner));
        }
    }
}
