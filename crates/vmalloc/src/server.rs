//! Per-server allocation state.

use crate::arena::VmArena;
use crate::cluster::ServerShape;

/// Tolerance on memory-feasibility comparisons, GB. Placement sizes are
/// products of trace memory and scaling factors, so requests that
/// logically equal the free capacity can differ from it in the last
/// bits; comparisons allow this much slack.
pub(crate) const MEM_EPSILON_GB: f64 = 1e-9;

/// The one memory-feasibility predicate: `free_gb` accommodates a
/// `mem_gb` request when it covers it to within [`MEM_EPSILON_GB`].
///
/// Both admission ([`ServerState::fits`]) and violation detection
/// ([`ServerState::degrade`]'s eviction loop, via a zero-size request)
/// must route through this function. They previously used two
/// independently written comparisons (`free >= mem - 1e-9` vs
/// `allocated > capacity + 1e-9`), which tolerated a band where a
/// server the admission side would call over-committed survived a
/// degrade un-evicted; one shared predicate makes that drift
/// impossible.
pub(crate) fn mem_fits(free_gb: f64, mem_gb: f64) -> bool {
    free_gb >= mem_gb - MEM_EPSILON_GB
}

/// A VM as placed on a server (possibly scaled relative to its trace
/// request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedVm {
    /// Cores actually allocated.
    pub cores: u32,
    /// Memory actually allocated, GB.
    pub mem_gb: f64,
    /// Maximum fraction of allocated memory the VM will touch.
    pub max_mem_util: f64,
}

/// Allocation state of one server.
///
/// The VMs themselves live in the cluster-wide [`VmArena`]; the server
/// holds only an occupancy list of arena slots, **sorted ascending by
/// VM id**. Every float reduction over a server's VMs (e.g.
/// [`Self::max_touched_mem_fraction`], the degrade eviction loop) walks
/// that list in order, so accumulation order — and therefore every low
/// bit the differential harness pins — is exactly what the former
/// `BTreeMap<u64, PlacedVm>` storage produced.
#[derive(Debug, PartialEq)]
pub struct ServerState {
    shape: ServerShape,
    cores_allocated: u32,
    mem_allocated_gb: f64,
    /// Arena slots of hosted VMs, sorted ascending by `arena.id(slot)`.
    vms: Vec<u32>,
    offline: bool,
}

/// Written out so [`Clone::clone_from`] reuses the occupancy list.
impl Clone for ServerState {
    fn clone(&self) -> Self {
        Self { vms: self.vms.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { shape, cores_allocated, mem_allocated_gb, vms, offline } = source;
        self.shape = *shape;
        self.cores_allocated = *cores_allocated;
        self.mem_allocated_gb = *mem_allocated_gb;
        self.vms.clone_from(vms);
        self.offline = *offline;
    }
}

impl ServerState {
    /// Creates an empty server of the given shape.
    pub fn new(shape: ServerShape) -> Self {
        Self { shape, cores_allocated: 0, mem_allocated_gb: 0.0, vms: Vec::new(), offline: false }
    }

    /// The server's shape.
    pub fn shape(&self) -> ServerShape {
        self.shape
    }

    /// Empties the server and re-shapes it, so repeated simulations
    /// reuse the server (and its occupancy list's capacity) instead of
    /// re-allocating.
    ///
    /// Does **not** release the occupants' arena slots: callers either
    /// reset the whole arena alongside ([`crate::AllocationSim::reset`])
    /// or only reset servers that are already empty (a fault revive).
    pub fn reset(&mut self, shape: ServerShape) {
        self.shape = shape;
        self.cores_allocated = 0;
        self.mem_allocated_gb = 0.0;
        self.vms.clear();
        self.offline = false;
    }

    /// Currently allocated cores.
    pub fn cores_allocated(&self) -> u32 {
        self.cores_allocated
    }

    /// Currently allocated memory, GB.
    pub fn mem_allocated_gb(&self) -> f64 {
        self.mem_allocated_gb
    }

    /// Number of VMs currently hosted.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Whether the server hosts no VMs.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Free cores.
    pub fn free_cores(&self) -> u32 {
        self.shape.cores - self.cores_allocated
    }

    /// Free memory, GB.
    pub fn free_mem_gb(&self) -> f64 {
        self.shape.mem_gb - self.mem_allocated_gb
    }

    /// Whether a request of `cores`/`mem_gb` fits. An offline server
    /// fits nothing.
    pub fn fits(&self, cores: u32, mem_gb: f64) -> bool {
        !self.offline && self.free_cores() >= cores && mem_fits(self.free_mem_gb(), mem_gb)
    }

    /// Whether the server has been taken offline by a full failure.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Position of `vm_id` in the occupancy list, or the insertion
    /// point keeping the list sorted ascending by id.
    fn search(&self, arena: &VmArena, vm_id: u64) -> Result<usize, usize> {
        self.vms.binary_search_by(|&slot| arena.id(slot).cmp(&vm_id))
    }

    /// Fully fails the server: it goes offline for good (fail-in-place,
    /// no mid-trace repair) and every hosted VM is displaced. Appends
    /// the displaced VM ids to `displaced` in ascending order and
    /// releases their arena slots.
    pub fn fail(&mut self, arena: &mut VmArena, displaced: &mut Vec<u64>) {
        self.offline = true;
        for &slot in &self.vms {
            displaced.push(arena.id(slot));
            arena.release(slot);
        }
        self.vms.clear();
        self.cores_allocated = 0;
        self.mem_allocated_gb = 0.0;
    }

    /// Shrinks the server's usable shape in place (an FIP-absorbed
    /// partial failure), evicting the newest VMs (highest id first)
    /// until the remaining allocation fits — "fits" judged by the same
    /// `mem_fits` predicate admission uses (as a zero-size request
    /// against the shrunken free capacity), so the eviction loop stops
    /// exactly where [`Self::fits`] would start admitting again.
    /// Appends the evicted ids to `evicted`, newest first.
    pub fn degrade(
        &mut self,
        arena: &mut VmArena,
        cores_lost: u32,
        mem_lost_gb: f64,
        evicted: &mut Vec<u64>,
    ) {
        self.shape.cores = self.shape.cores.saturating_sub(cores_lost);
        self.shape.mem_gb = (self.shape.mem_gb - mem_lost_gb.max(0.0)).max(0.0);
        while self.cores_allocated > self.shape.cores || !mem_fits(self.free_mem_gb(), 0.0) {
            let Some(slot) = self.vms.pop() else { break };
            self.cores_allocated -= arena.cores(slot);
            self.mem_allocated_gb = if self.vms.is_empty() {
                0.0
            } else {
                (self.mem_allocated_gb - arena.mem_gb(slot)).max(0.0)
            };
            evicted.push(arena.id(slot));
            arena.release(slot);
        }
    }

    /// Core packing density `allocated / allocatable`; 0.0 once a
    /// degrade has shrunk the shape to zero cores (an empty husk packs
    /// nothing — the former `x / 0` here fed NaN/inf into metrics).
    pub fn core_density(&self) -> f64 {
        if self.shape.cores == 0 {
            return 0.0;
        }
        f64::from(self.cores_allocated) / f64::from(self.shape.cores)
    }

    /// Memory packing density `allocated / allocatable`; 0.0 for a
    /// zero-capacity shape, as with [`Self::core_density`].
    pub fn mem_density(&self) -> f64 {
        if self.shape.mem_gb <= 0.0 {
            return 0.0;
        }
        self.mem_allocated_gb / self.shape.mem_gb
    }

    /// Maximum memory the hosted VMs will ever touch, as a fraction of
    /// the server's capacity (the Fig. 10 per-server statistic); 0.0
    /// for a zero-capacity shape.
    pub fn max_touched_mem_fraction(&self, arena: &VmArena) -> f64 {
        if self.shape.mem_gb <= 0.0 {
            return 0.0;
        }
        let touched: f64 =
            self.vms.iter().map(|&slot| arena.mem_gb(slot) * arena.max_mem_util(slot)).sum();
        touched / self.shape.mem_gb
    }

    /// Places a VM, allocating its arena slot.
    ///
    /// # Panics
    ///
    /// Panics if the VM does not fit or the id is already present —
    /// callers must check [`Self::fits`] first; violating this is a
    /// scheduler bug, not an input error.
    pub fn place(&mut self, arena: &mut VmArena, vm_id: u64, vm: PlacedVm) {
        assert!(self.fits(vm.cores, vm.mem_gb), "place() called without fits() check");
        let Err(pos) = self.search(arena, vm_id) else {
            // gsf-lint: allow(P1) -- documented contract panic: a duplicate id is a scheduler bug
            panic!("VM {vm_id} placed twice on one server");
        };
        let slot = arena.alloc(vm_id, vm);
        self.vms.insert(pos, slot);
        self.cores_allocated += vm.cores;
        self.mem_allocated_gb += vm.mem_gb;
    }

    /// Removes a VM, releasing its arena slot; returns the placement if
    /// it was present.
    ///
    /// When the last VM leaves, the memory counter is reset to exactly
    /// zero instead of trusting the running `+=`/`-=` sum: repeated
    /// place/remove cycles accumulate float error (the `.max(0.0)`
    /// clamp only hides the negative half of it), and a drifted counter
    /// would skew every `free_mem_gb()` comparison [`Self::fits`] and
    /// the placement index share for the rest of the replay.
    pub fn remove(&mut self, arena: &mut VmArena, vm_id: u64) -> Option<PlacedVm> {
        let pos = self.search(arena, vm_id).ok()?;
        let slot = self.vms.remove(pos);
        let vm = arena.placed(slot);
        arena.release(slot);
        self.cores_allocated -= vm.cores;
        self.mem_allocated_gb =
            if self.vms.is_empty() { 0.0 } else { (self.mem_allocated_gb - vm.mem_gb).max(0.0) };
        Some(vm)
    }

    /// Whether this server's occupancy list is internally consistent
    /// with `arena`: sorted strictly ascending by VM id, with the
    /// `cores_allocated` aggregate exactly equal to a fresh fold over
    /// the slots and `mem_allocated_gb` within float-drift tolerance of
    /// one (the running `+=`/`-=` sum legitimately drifts sub-epsilon
    /// between exact-zero resets).
    pub fn storage_consistent(&self, arena: &VmArena) -> bool {
        let sorted = self.vms.windows(2).all(|w| arena.id(w[0]) < arena.id(w[1]));
        let cores: u32 = self.vms.iter().map(|&slot| arena.cores(slot)).sum();
        let mem: f64 = self.vms.iter().map(|&slot| arena.mem_gb(slot)).sum();
        sorted && cores == self.cores_allocated && (mem - self.mem_allocated_gb).abs() <= 1e-6
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn shape() -> ServerShape {
        ServerShape { cores: 80, mem_gb: 768.0 }
    }

    fn vm(cores: u32) -> PlacedVm {
        PlacedVm { cores, mem_gb: f64::from(cores) * 4.0, max_mem_util: 0.5 }
    }

    #[test]
    fn place_and_remove_roundtrip() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(shape());
        assert!(s.is_empty());
        s.place(&mut arena, 1, vm(8));
        s.place(&mut arena, 2, vm(16));
        assert_eq!(s.cores_allocated(), 24);
        assert_eq!(s.vm_count(), 2);
        assert!(!s.is_empty());
        assert!(s.storage_consistent(&arena));
        assert_eq!(s.remove(&mut arena, 1).unwrap().cores, 8);
        assert_eq!(s.cores_allocated(), 16);
        assert!(s.remove(&mut arena, 1).is_none());
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn occupancy_stays_sorted_by_id_not_slot() {
        // Ids placed out of order while slots recycle LIFO: the
        // occupancy list must order by id regardless.
        let mut arena = VmArena::new();
        let mut s = ServerState::new(shape());
        s.place(&mut arena, 30, vm(1));
        s.place(&mut arena, 10, vm(1));
        s.remove(&mut arena, 30).unwrap();
        s.place(&mut arena, 20, vm(1)); // recycles 30's slot
        s.place(&mut arena, 5, vm(1));
        assert!(s.storage_consistent(&arena));
        let mut displaced = Vec::new();
        s.fail(&mut arena, &mut displaced);
        assert_eq!(displaced, vec![5, 10, 20], "displacement walks ascending ids");
    }

    #[test]
    fn fits_respects_both_resources() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(ServerShape { cores: 16, mem_gb: 64.0 });
        assert!(s.fits(16, 64.0));
        assert!(!s.fits(17, 1.0));
        assert!(!s.fits(1, 65.0));
        s.place(&mut arena, 1, PlacedVm { cores: 8, mem_gb: 60.0, max_mem_util: 1.0 });
        assert!(s.fits(8, 4.0));
        assert!(!s.fits(8, 5.0));
    }

    #[test]
    #[should_panic(expected = "without fits()")]
    fn place_without_fit_panics() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(ServerShape { cores: 4, mem_gb: 16.0 });
        s.place(&mut arena, 1, vm(8));
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_placement_panics() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(shape());
        s.place(&mut arena, 1, vm(2));
        s.place(&mut arena, 1, vm(2));
    }

    #[test]
    fn fail_takes_server_offline_and_displaces_all() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(shape());
        s.place(&mut arena, 3, vm(8));
        s.place(&mut arena, 1, vm(4));
        let mut displaced = Vec::new();
        s.fail(&mut arena, &mut displaced);
        assert_eq!(displaced, vec![1, 3]);
        assert!(s.is_offline());
        assert!(s.is_empty());
        assert_eq!(s.cores_allocated(), 0);
        assert_eq!(arena.live(), 0, "failure releases the arena slots");
        assert!(!s.fits(1, 1.0), "offline server must not accept VMs");
        s.reset(shape());
        assert!(!s.is_offline(), "reset brings the server back");
        assert!(s.fits(1, 1.0));
    }

    #[test]
    fn degrade_evicts_newest_until_fit() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(ServerShape { cores: 16, mem_gb: 64.0 });
        s.place(&mut arena, 1, PlacedVm { cores: 6, mem_gb: 24.0, max_mem_util: 0.5 });
        s.place(&mut arena, 2, PlacedVm { cores: 6, mem_gb: 24.0, max_mem_util: 0.5 });
        // Lose half the cores: 12 allocated > 8 remaining, so the
        // newest VM (id 2) is evicted; id 1 (6 <= 8) stays.
        let mut evicted = Vec::new();
        s.degrade(&mut arena, 8, 0.0, &mut evicted);
        assert_eq!(evicted, vec![2]);
        assert_eq!(s.shape().cores, 8);
        assert_eq!(s.cores_allocated(), 6);
        assert_eq!(arena.live(), 1);
        assert!(!s.is_offline());
        assert!(s.fits(2, 8.0));
        assert!(!s.fits(3, 8.0));
    }

    #[test]
    fn degrade_clamps_at_zero_capacity() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(ServerShape { cores: 4, mem_gb: 16.0 });
        s.place(&mut arena, 1, PlacedVm { cores: 2, mem_gb: 8.0, max_mem_util: 0.5 });
        let mut evicted = Vec::new();
        s.degrade(&mut arena, 100, 1000.0, &mut evicted);
        assert_eq!(evicted, vec![1]);
        assert_eq!(s.shape().cores, 0);
        assert_eq!(s.shape().mem_gb, 0.0);
        assert!(s.is_empty());
        assert!(!s.fits(1, 0.0));
    }

    #[test]
    fn zero_capacity_shapes_report_zero_density_not_nan() {
        // A degrade that wipes the whole shape used to leave
        // `core_density()`/`mem_density()` dividing by zero, feeding
        // NaN (0/0) or inf into the metrics summaries. Zero-capacity
        // shapes now report density 0.0 across all three statistics.
        let mut arena = VmArena::new();
        let mut s = ServerState::new(ServerShape { cores: 4, mem_gb: 16.0 });
        s.place(&mut arena, 1, PlacedVm { cores: 2, mem_gb: 8.0, max_mem_util: 0.5 });
        let mut evicted = Vec::new();
        s.degrade(&mut arena, 100, 1000.0, &mut evicted);
        assert_eq!(s.shape().cores, 0);
        assert_eq!(s.shape().mem_gb, 0.0);
        assert_eq!(s.core_density(), 0.0);
        assert_eq!(s.mem_density(), 0.0);
        assert_eq!(s.max_touched_mem_fraction(&arena), 0.0);
        // A cores-only wipe leaves memory capacity: only the core
        // density needs the guard.
        let mut s = ServerState::new(ServerShape { cores: 4, mem_gb: 16.0 });
        s.place(&mut arena, 2, PlacedVm { cores: 2, mem_gb: 8.0, max_mem_util: 0.5 });
        s.degrade(&mut arena, 100, 0.0, &mut evicted);
        assert_eq!(s.core_density(), 0.0);
        assert!(s.core_density().is_finite());
        assert!(s.mem_density().is_finite());
    }

    #[test]
    fn mem_counter_does_not_drift_across_place_remove_cycles() {
        // Fractional memory sizes whose running sum is not exactly
        // representable: a long alternating place/remove sequence must
        // end with the counter at exactly zero once the server empties,
        // not at an accumulated ±ε the `.max(0.0)` clamp half-hides.
        let shape = ServerShape { cores: 64, mem_gb: 768.0 };
        let mut arena = VmArena::new();
        let mut s = ServerState::new(shape);
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..500u64 {
            // Up to four residents at a time, sizes like 0.1·k GB that
            // sum inexactly in binary floating point.
            let residents: Vec<u64> = (0..(next() % 4 + 1)).map(|k| round * 10 + k).collect();
            for &id in &residents {
                let mem = 0.1 * (next() % 400 + 1) as f64;
                s.place(&mut arena, id, PlacedVm { cores: 1, mem_gb: mem, max_mem_util: 0.5 });
            }
            for &id in &residents {
                s.remove(&mut arena, id).unwrap();
            }
            assert!(s.is_empty());
            // Exact equality, not an epsilon band: the regression this
            // pins is precisely the sub-epsilon drift.
            assert_eq!(s.mem_allocated_gb(), 0.0, "drift after round {round}");
            assert_eq!(s.free_mem_gb(), shape.mem_gb, "free-mem drift after round {round}");
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn admission_and_eviction_share_one_memory_epsilon() {
        // The drift this pins: `fits` and `degrade` previously wrote
        // their memory comparisons independently (`free >= mem - 1e-9`
        // vs `allocated > capacity + 1e-9`); both now route through
        // `mem_fits`, so the eviction threshold sits exactly at the
        // admission threshold. Probe both sides of the shared band.
        let shape = ServerShape { cores: 16, mem_gb: 32.0 };
        let mut arena = VmArena::new();

        // Admission tolerates a request half an epsilon over the free
        // capacity; the resulting over-commit is *feasible*, so a
        // zero-loss degrade must not evict.
        let mut s = ServerState::new(shape);
        assert!(s.fits(1, 32.0 + 0.5 * MEM_EPSILON_GB));
        s.place(
            &mut arena,
            1,
            PlacedVm { cores: 1, mem_gb: 32.0 + 0.5 * MEM_EPSILON_GB, max_mem_util: 0.5 },
        );
        let mut evicted = Vec::new();
        s.degrade(&mut arena, 0, 0.0, &mut evicted);
        assert!(evicted.is_empty(), "within-epsilon over-commit must survive");
        assert!(mem_fits(s.free_mem_gb(), 0.0));

        // An over-commit of 2 epsilon (reachable only through a shape
        // shrink, never through admission) violates the same predicate
        // and must be evicted.
        let mut s = ServerState::new(shape);
        s.place(&mut arena, 1, PlacedVm { cores: 1, mem_gb: 31.0, max_mem_util: 0.5 });
        let mut evicted = Vec::new();
        s.degrade(&mut arena, 0, 1.0 + 2.0 * MEM_EPSILON_GB, &mut evicted);
        assert_eq!(evicted, vec![1], "past-epsilon over-commit must evict");

        // Invariant across the boundary: after any degrade, whatever
        // survives satisfies the admission predicate for a zero-size
        // request — the two call sites agree on what "fits" means.
        for extra in [0.0, 0.5 * MEM_EPSILON_GB, 2.0 * MEM_EPSILON_GB, 0.3, 1.0] {
            let mut arena = VmArena::new();
            let mut s = ServerState::new(shape);
            s.place(&mut arena, 1, PlacedVm { cores: 2, mem_gb: 20.0, max_mem_util: 0.5 });
            s.place(&mut arena, 2, PlacedVm { cores: 2, mem_gb: 10.0, max_mem_util: 0.5 });
            let mut evicted = Vec::new();
            s.degrade(&mut arena, 0, 2.0 + extra, &mut evicted);
            assert!(
                s.is_empty() || s.fits(0, 0.0),
                "degrade(0, {extra}) left an allocation the admission predicate rejects"
            );
        }
    }

    #[test]
    fn densities() {
        let mut arena = VmArena::new();
        let mut s = ServerState::new(shape());
        s.place(&mut arena, 1, PlacedVm { cores: 40, mem_gb: 384.0, max_mem_util: 0.5 });
        assert!((s.core_density() - 0.5).abs() < 1e-12);
        assert!((s.mem_density() - 0.5).abs() < 1e-12);
        assert!((s.max_touched_mem_fraction(&arena) - 0.25).abs() < 1e-12);
    }
}
