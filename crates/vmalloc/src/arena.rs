//! Global slot arena for placed VMs.
//!
//! The replay hot loop used to keep each server's VMs in a
//! `BTreeMap<u64, PlacedVm>` — a node allocation on every placement and
//! pointer-chasing on every reduction. [`VmArena`] replaces that with
//! one struct-of-arrays allocation shared by the whole cluster: four
//! parallel columns (`ids`, `cores`, `mem_gb`, `max_mem_util`) indexed
//! by a dense `u32` slot, plus a LIFO free list so slots are recycled
//! as VMs depart. Each [`crate::ServerState`] then holds only a sorted
//! occupancy list of slot numbers.
//!
//! # Slot lifecycle
//!
//! Slots are **simulator-owned residencies**, not trace identities: a
//! slot is allocated when a VM lands on a server and released when it
//! leaves (departure, displacement, eviction). The same VM occupies a
//! fresh slot after an evacuation re-placement. This deliberately does
//! *not* reuse the dense slots a [`crate::PreparedTrace`] assigns —
//! a simulator can replay a second trace without [`VmArena::reset`]
//! (leaving stale residents from the first), and binding arena slots
//! to the new trace's numbering would corrupt those residents.
//!
//! # Determinism
//!
//! Occupancy lists are sorted by **VM id** (not slot number), so every
//! float reduction over a server's VMs visits them in exactly the
//! ascending-id order the `BTreeMap` iteration used to produce — the
//! bit-identity contract the differential harness pins. Slot numbers
//! themselves are an internal detail: they depend on free-list history
//! and never feed a float or an output.

use crate::server::PlacedVm;

/// Struct-of-arrays storage for every VM currently placed anywhere in
/// one simulator's cluster. See the module docs for the slot lifecycle
/// and determinism contract.
#[derive(Debug, Default)]
pub struct VmArena {
    ids: Vec<u64>,
    cores: Vec<u32>,
    mem_gb: Vec<f64>,
    max_mem_util: Vec<f64>,
    /// Released slots, recycled LIFO so hot slots stay cache-warm.
    free: Vec<u32>,
    live: usize,
}

/// Written out so [`Clone::clone_from`] reuses every column.
impl Clone for VmArena {
    fn clone(&self) -> Self {
        let mut arena = Self::new();
        arena.clone_from(self);
        arena
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { ids, cores, mem_gb, max_mem_util, free, live } = source;
        self.ids.clone_from(ids);
        self.cores.clone_from(cores);
        self.mem_gb.clone_from(mem_gb);
        self.max_mem_util.clone_from(max_mem_util);
        self.free.clone_from(free);
        self.live = *live;
    }
}

impl VmArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently live (allocated, unreleased) slots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever grown (live + free). Capacity diagnostic only.
    pub fn capacity(&self) -> usize {
        self.ids.len()
    }

    /// Allocates a slot for `vm` under `id`, recycling a released slot
    /// when one exists and growing the columns otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` slots.
    pub fn alloc(&mut self, id: u64, vm: PlacedVm) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.ids[i] = id;
            self.cores[i] = vm.cores;
            self.mem_gb[i] = vm.mem_gb;
            self.max_mem_util[i] = vm.max_mem_util;
            return slot;
        }
        let slot = u32::try_from(self.ids.len()).expect("VM arena exceeded u32 slots");
        self.ids.push(id);
        self.cores.push(vm.cores);
        self.mem_gb.push(vm.mem_gb);
        self.max_mem_util.push(vm.max_mem_util);
        slot
    }

    /// Releases a slot back to the free list. The slot's columns keep
    /// their stale values until the slot is recycled; reading a
    /// released slot is a logic error the occupancy lists make
    /// unreachable.
    pub fn release(&mut self, slot: u32) {
        debug_assert!((slot as usize) < self.ids.len(), "release of an ungrown slot");
        self.live -= 1;
        self.free.push(slot);
    }

    /// The VM id stored in `slot`.
    #[inline]
    pub fn id(&self, slot: u32) -> u64 {
        self.ids[slot as usize]
    }

    /// Cores allocated to the VM in `slot`.
    #[inline]
    pub fn cores(&self, slot: u32) -> u32 {
        self.cores[slot as usize]
    }

    /// Memory allocated to the VM in `slot`, GB.
    #[inline]
    pub fn mem_gb(&self, slot: u32) -> f64 {
        self.mem_gb[slot as usize]
    }

    /// Maximum fraction of its memory the VM in `slot` will touch.
    #[inline]
    pub fn max_mem_util(&self, slot: u32) -> f64 {
        self.max_mem_util[slot as usize]
    }

    /// The full placement record in `slot`.
    #[inline]
    pub fn placed(&self, slot: u32) -> PlacedVm {
        let i = slot as usize;
        PlacedVm {
            cores: self.cores[i],
            mem_gb: self.mem_gb[i],
            max_mem_util: self.max_mem_util[i],
        }
    }

    /// Empties the arena, keeping every column's capacity so the next
    /// replay allocates nothing until it outgrows the last one.
    pub fn reset(&mut self) {
        self.ids.clear();
        self.cores.clear();
        self.mem_gb.clear();
        self.max_mem_util.clear();
        self.free.clear();
        self.live = 0;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn vm(cores: u32) -> PlacedVm {
        PlacedVm { cores, mem_gb: f64::from(cores) * 4.0, max_mem_util: 0.5 }
    }

    #[test]
    fn alloc_release_recycles_lifo() {
        let mut a = VmArena::new();
        let s0 = a.alloc(10, vm(2));
        let s1 = a.alloc(11, vm(4));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(a.live(), 2);
        a.release(s0);
        assert_eq!(a.live(), 1);
        // LIFO: the freshly released slot is handed out next.
        let s2 = a.alloc(12, vm(8));
        assert_eq!(s2, s0);
        assert_eq!(a.id(s2), 12);
        assert_eq!(a.cores(s2), 8);
        assert_eq!(a.capacity(), 2);
    }

    #[test]
    fn placed_roundtrips_columns() {
        let mut a = VmArena::new();
        let p = PlacedVm { cores: 6, mem_gb: 23.5, max_mem_util: 0.75 };
        let s = a.alloc(42, p);
        assert_eq!(a.placed(s), p);
        assert_eq!(a.id(s), 42);
        assert_eq!(a.mem_gb(s).to_bits(), 23.5f64.to_bits());
        assert_eq!(a.max_mem_util(s).to_bits(), 0.75f64.to_bits());
    }

    #[test]
    fn reset_keeps_nothing_live_but_reuses_storage() {
        let mut a = VmArena::new();
        for i in 0..100 {
            a.alloc(i, vm(1));
        }
        a.reset();
        assert_eq!(a.live(), 0);
        assert_eq!(a.capacity(), 0);
        let s = a.alloc(7, vm(3));
        assert_eq!(s, 0, "columns restart dense after reset");
        assert_eq!(a.id(s), 7);
    }
}
