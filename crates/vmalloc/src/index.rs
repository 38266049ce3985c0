//! Free-capacity placement index: sub-linear server selection.
//!
//! [`PlacementPolicy::choose_linear`] scans the whole pool on every
//! placement, so replay cost is O(events × servers) — the dominant term
//! in the sizing binary searches once pools reach fleet scale. The
//! [`PlacementIndex`] keeps two structures per pool, maintained
//! incrementally by [`crate::AllocationSim`] on every
//! `place`/`remove`/`fail`/`degrade`/`reset`:
//!
//! * a segment tree over server index keyed by free cores, split into
//!   two lanes (non-empty / empty servers, because the production
//!   heuristic's tie-break makes any feasible non-empty server beat
//!   every feasible empty one), and
//! * exact free-core **buckets** over the online non-empty servers:
//!   `buckets[fc]` lists the servers with exactly `fc` free cores, in
//!   arbitrary order.
//!
//! Selection:
//!
//! - FirstFit descends the tree to the leftmost leaf with
//!   `free_cores ≥ request` in O(log N) per candidate, skipping whole
//!   subtrees of full servers;
//! - BestFit scans the buckets upward from `fc = cores`. For a
//!   *feasible* server the memory term of the leftover key is at least
//!   `−1e-9/mem_gb` (admission requires `free_mem ≥ mem − 1e-9`), so
//!   every candidate at bucket level `fc` has
//!   `leftover ≥ (fc − cores)/C_max − tiny`: once that core-term bound
//!   alone exceeds the best candidate found so far, no higher level can
//!   win and the scan stops — typically after a level or two instead of
//!   enumerating every core-feasible server. Visited candidates are
//!   compared with the exact `(leftover, index)` lexicographic key,
//!   which is traversal-order independent, so the unsorted buckets
//!   still reproduce the linear scan's first-index tie-break.
//!   An all-pristine empty lane short-circuits to the leftmost
//!   core-feasible leaf (empty servers of one bitwise shape are
//!   indistinguishable, so the linear scan's strict-`<` keeps the
//!   first); degenerate pools (zero-capacity degraded shapes paired
//!   with zero-size requests, where a leftover can be non-finite) fall
//!   back to exhaustive in-order tree enumeration;
//! - WorstFit enumerates the core-feasible servers of each lane in
//!   index order, evaluating memory feasibility and the leftover key
//!   exactly as the linear scan does.
//!
//! Exact-equivalence contract (DESIGN.md §9): for every pool state and
//! request, [`PlacementIndex::choose`] returns the same server index as
//! [`PlacementPolicy::choose_linear`] — same `fits()` predicate
//! (including the `1e-9` memory epsilon), same float expression for the
//! leftover score, same strict-`<` first-index tie-break, same
//! non-empty-beats-empty lexicographic order. The simulator cross-checks
//! this on every selection in debug builds, and the differential
//! harness in `gsf-cluster` pins it end to end against a reference
//! replay that selects by the scan.

use crate::cluster::ServerShape;
use crate::policy::PlacementPolicy;
use crate::server::{ServerState, MEM_EPSILON_GB};

/// Which leaf lane a tree walk consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Online servers currently hosting at least one VM.
    NonEmpty,
    /// Online servers hosting nothing.
    Empty,
    /// Union of both lanes (FirstFit ignores emptiness).
    Either,
}

/// Encodes one server's lane values: `free_cores + 1` in the lane it
/// belongs to, 0 elsewhere. The +1 sentinel keeps "absent" (0) distinct
/// from "present with zero free cores", so a walk for `cores + 1` never
/// visits servers outside the lane — even for a zero-core request.
fn lane_values(s: &ServerState) -> (u64, u64) {
    if s.is_offline() {
        (0, 0)
    } else {
        let v = u64::from(s.free_cores()) + 1;
        if s.is_empty() {
            (0, v)
        } else {
            (v, 0)
        }
    }
}

/// Per-leaf bookkeeping bit: this server is online, empty, and shaped
/// unlike the pool's uniform build shape (so the empty lane is not
/// all-pristine and its leftmost shortcut is off).
const FLAG_DEVIANT_EMPTY: u8 = 1;
/// Per-leaf bookkeeping bit: this server has a zero-capacity dimension
/// (its leftover key can be non-finite for zero-size requests).
const FLAG_ZERO_CAP: u8 = 2;

/// Sentinel for "not in any bucket" (offline or empty servers).
const NO_BUCKET: u32 = u32::MAX;

/// Bitwise shape equality: `PartialEq` on `f64` would conflate the
/// pathological `-0.0`/`+0.0` pair, whose shapes divide differently.
fn same_shape(a: ServerShape, b: ServerShape) -> bool {
    a.cores == b.cores && a.mem_gb.to_bits() == b.mem_gb.to_bits()
}

/// Incrementally maintained free-capacity index over one server pool.
///
/// Two max-segment-trees share one node layout: leaf `size + i` holds
/// server `i`'s lane value, internal node `k` holds the max of its
/// children `2k` / `2k+1`. Padding leaves (`n..size`) stay 0 and are
/// never feasible. The free-core buckets ride along for BestFit.
#[derive(Debug)]
pub struct PlacementIndex {
    /// Number of indexed servers.
    n: usize,
    /// Leaf span: smallest power of two ≥ max(n, 1).
    size: usize,
    /// Non-empty-lane tree, length `2 * size`.
    nonempty: Vec<u64>,
    /// Empty-lane tree, length `2 * size`.
    empty: Vec<u64>,
    /// `buckets[fc]` = online non-empty servers with exactly `fc` free
    /// cores, unordered; levels span `0..=max_shape_cores` at build.
    buckets: Vec<Vec<u32>>,
    /// The bucket level each server occupies, or [`NO_BUCKET`].
    bucket_of: Vec<u32>,
    /// The server's position within that bucket.
    bucket_pos: Vec<u32>,
    /// The bitwise shape every server had at the last full (re)build,
    /// if they agreed on one; gates the empty-lane leftmost shortcut.
    uniform_shape: Option<ServerShape>,
    /// Per-leaf `FLAG_*` bits mirrored into the counters below.
    flags: Vec<u8>,
    /// Servers currently counted under [`FLAG_DEVIANT_EMPTY`].
    deviant_empty: usize,
    /// Servers currently counted under [`FLAG_ZERO_CAP`].
    zero_cap: usize,
    /// Upper bound on `shape.cores` over every shape the pool has held
    /// since the last full (re)build. Only ever ratchets up between
    /// rebuilds — a stale-high bound merely weakens the BestFit bucket
    /// stop rule, never correctness.
    max_shape_cores: u32,
    /// Upper bound on `1/shape.mem_gb` over every positive-memory
    /// shape, maintained like [`Self::max_shape_cores`].
    inv_mem_bound: f64,
}

/// Written out so [`Clone::clone_from`] reuses the trees, the buckets
/// and the per-server columns.
impl Clone for PlacementIndex {
    fn clone(&self) -> Self {
        let mut index = Self::new(&[]);
        index.clone_from(self);
        index
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            n,
            size,
            nonempty,
            empty,
            buckets,
            bucket_of,
            bucket_pos,
            uniform_shape,
            flags,
            deviant_empty,
            zero_cap,
            max_shape_cores,
            inv_mem_bound,
        } = source;
        self.n = *n;
        self.size = *size;
        self.nonempty.clone_from(nonempty);
        self.empty.clone_from(empty);
        self.buckets.clone_from(buckets);
        self.bucket_of.clone_from(bucket_of);
        self.bucket_pos.clone_from(bucket_pos);
        self.uniform_shape = *uniform_shape;
        self.flags.clone_from(flags);
        self.deviant_empty = *deviant_empty;
        self.zero_cap = *zero_cap;
        self.max_shape_cores = *max_shape_cores;
        self.inv_mem_bound = *inv_mem_bound;
    }
}

impl PlacementIndex {
    /// Builds the index for the current state of `servers`.
    pub fn new(servers: &[ServerState]) -> Self {
        let n = servers.len();
        let size = n.next_power_of_two().max(1);
        let mut index = Self {
            n,
            size,
            nonempty: vec![0; 2 * size],
            empty: vec![0; 2 * size],
            buckets: Vec::new(),
            bucket_of: vec![NO_BUCKET; n],
            bucket_pos: vec![0; n],
            uniform_shape: None,
            flags: vec![0; n],
            deviant_empty: 0,
            zero_cap: 0,
            max_shape_cores: 0,
            inv_mem_bound: 0.0,
        };
        index.fill(servers);
        index
    }

    /// Rebuilds in place for `servers` (after a pool-wide `reset`),
    /// reusing the allocations when the pool size is unchanged.
    pub fn rebuild(&mut self, servers: &[ServerState]) {
        if servers.len() != self.n {
            *self = Self::new(servers);
            return;
        }
        self.fill(servers);
    }

    fn fill(&mut self, servers: &[ServerState]) {
        self.uniform_shape = servers
            .first()
            .map(|s| s.shape())
            .filter(|&first| servers.iter().all(|s| same_shape(s.shape(), first)));
        self.deviant_empty = 0;
        self.zero_cap = 0;
        self.max_shape_cores = 0;
        self.inv_mem_bound = 0.0;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for (i, s) in servers.iter().enumerate() {
            let (ne, e) = lane_values(s);
            self.nonempty[self.size + i] = ne;
            self.empty[self.size + i] = e;
            let flags = self.leaf_flags(s);
            self.flags[i] = flags;
            self.deviant_empty += usize::from(flags & FLAG_DEVIANT_EMPTY != 0);
            self.zero_cap += usize::from(flags & FLAG_ZERO_CAP != 0);
            self.ratchet_bounds(s.shape());
        }
        // Bucket levels span every free-core count a server can reach.
        let levels = self.max_shape_cores as usize + 1;
        if self.buckets.len() < levels {
            self.buckets.resize_with(levels, Vec::new);
        }
        for (i, s) in servers.iter().enumerate() {
            self.bucket_of[i] = NO_BUCKET;
            if !s.is_offline() && !s.is_empty() {
                self.bucket_insert(i, s.free_cores());
            }
        }
        for leaf in self.n..self.size {
            self.nonempty[self.size + leaf] = 0;
            self.empty[self.size + leaf] = 0;
        }
        for node in (1..self.size).rev() {
            self.nonempty[node] = self.nonempty[2 * node].max(self.nonempty[2 * node + 1]);
            self.empty[node] = self.empty[2 * node].max(self.empty[2 * node + 1]);
        }
    }

    fn leaf_flags(&self, s: &ServerState) -> u8 {
        let deviant = match self.uniform_shape {
            Some(uniform) => !s.is_offline() && s.is_empty() && !same_shape(s.shape(), uniform),
            None => false,
        };
        let zero_cap = s.shape().cores == 0 || s.shape().mem_gb <= 0.0;
        u8::from(deviant) | (u8::from(zero_cap) << 1)
    }

    fn ratchet_bounds(&mut self, shape: ServerShape) {
        self.max_shape_cores = self.max_shape_cores.max(shape.cores);
        if shape.mem_gb > 0.0 {
            self.inv_mem_bound = self.inv_mem_bound.max(1.0 / shape.mem_gb);
        }
    }

    fn bucket_insert(&mut self, i: usize, level: u32) {
        let level_ix = level as usize;
        if level_ix >= self.buckets.len() {
            self.buckets.resize_with(level_ix + 1, Vec::new);
        }
        self.bucket_of[i] = level;
        self.bucket_pos[i] = u32::try_from(self.buckets[level_ix].len()).unwrap_or(u32::MAX);
        self.buckets[level_ix].push(u32::try_from(i).unwrap_or(u32::MAX));
    }

    fn bucket_remove(&mut self, i: usize) {
        let level = self.bucket_of[i] as usize;
        let pos = self.bucket_pos[i] as usize;
        self.buckets[level].swap_remove(pos);
        if let Some(&moved) = self.buckets[level].get(pos) {
            self.bucket_pos[moved as usize] = self.bucket_pos[i];
        }
        self.bucket_of[i] = NO_BUCKET;
    }

    /// Re-reads server `i`'s state into its leaf and repairs the path to
    /// the root — called after every mutation of that server.
    pub fn refresh(&mut self, i: usize, server: &ServerState) {
        debug_assert!(i < self.n, "refresh({i}) beyond indexed pool of {}", self.n);
        let flags = self.leaf_flags(server);
        let old = self.flags[i];
        if flags != old {
            self.deviant_empty += usize::from(flags & FLAG_DEVIANT_EMPTY != 0);
            self.deviant_empty -= usize::from(old & FLAG_DEVIANT_EMPTY != 0);
            self.zero_cap += usize::from(flags & FLAG_ZERO_CAP != 0);
            self.zero_cap -= usize::from(old & FLAG_ZERO_CAP != 0);
            self.flags[i] = flags;
        }
        self.ratchet_bounds(server.shape());
        let level =
            if server.is_offline() || server.is_empty() { NO_BUCKET } else { server.free_cores() };
        if level != self.bucket_of[i] {
            if self.bucket_of[i] != NO_BUCKET {
                self.bucket_remove(i);
            }
            if level != NO_BUCKET {
                self.bucket_insert(i, level);
            }
        }
        let (ne, e) = lane_values(server);
        let mut node = self.size + i;
        self.nonempty[node] = ne;
        self.empty[node] = e;
        node /= 2;
        while node >= 1 {
            self.nonempty[node] = self.nonempty[2 * node].max(self.nonempty[2 * node + 1]);
            self.empty[node] = self.empty[2 * node].max(self.empty[2 * node + 1]);
            node /= 2;
        }
    }

    fn node_val(&self, lane: Lane, node: usize) -> u64 {
        match lane {
            Lane::NonEmpty => self.nonempty[node],
            Lane::Empty => self.empty[node],
            Lane::Either => self.nonempty[node].max(self.empty[node]),
        }
    }

    /// Visits, in ascending server order, every leaf whose `lane` value
    /// is ≥ `want`; `f` returns `false` to stop early. Returns whether
    /// the walk ran to completion.
    fn walk(&self, lane: Lane, want: u64, f: &mut impl FnMut(usize) -> bool) -> bool {
        if self.n == 0 {
            return true;
        }
        self.walk_node(1, lane, want, f)
    }

    fn walk_node(
        &self,
        node: usize,
        lane: Lane,
        want: u64,
        f: &mut impl FnMut(usize) -> bool,
    ) -> bool {
        if self.node_val(lane, node) < want {
            return true;
        }
        if node >= self.size {
            return f(node - self.size);
        }
        self.walk_node(2 * node, lane, want, f) && self.walk_node(2 * node + 1, lane, want, f)
    }

    /// Chooses a server for a `cores`/`mem_gb` request exactly as
    /// [`PlacementPolicy::choose_linear`] would, touching only
    /// core-feasible servers.
    ///
    /// `servers` must be the pool this index is maintained against.
    pub fn choose(
        &self,
        policy: PlacementPolicy,
        servers: &[ServerState],
        cores: u32,
        mem_gb: f64,
    ) -> Option<usize> {
        debug_assert_eq!(servers.len(), self.n, "index maintained for a different pool");
        let want = u64::from(cores) + 1;
        match policy {
            PlacementPolicy::FirstFit => {
                let mut found = None;
                self.walk(Lane::Either, want, &mut |i| {
                    if servers[i].fits(cores, mem_gb) {
                        found = Some(i);
                        false
                    } else {
                        true
                    }
                });
                found
            }
            PlacementPolicy::BestFit => {
                // A feasible leftover key is non-finite only when a
                // zero-capacity dimension meets a request small enough
                // to fit on it (`0/0` or `-mem/0`). Non-finite keys
                // break the bucket stop rule and make the linear fold
                // order-dependent (NaN never compares `<`), so those
                // requests take the exhaustive in-order path.
                let degenerate = self.zero_cap > 0 && (cores == 0 || mem_gb <= MEM_EPSILON_GB);
                let nonempty = if degenerate {
                    self.best_in_lane(Lane::NonEmpty, policy, servers, cores, mem_gb, want)
                } else {
                    self.bestfit_buckets(servers, cores, mem_gb)
                };
                // The linear scan's key is (is_empty, leftover)
                // lexicographic: any feasible non-empty server beats
                // every feasible empty one, so the empty lane is
                // consulted only when the non-empty lane has no fit.
                nonempty.or_else(|| {
                    if degenerate || self.uniform_shape.is_none() || self.deviant_empty > 0 {
                        self.best_in_lane(Lane::Empty, policy, servers, cores, mem_gb, want)
                    } else {
                        // Every online empty server is bitwise
                        // identical (uniform shape; `remove()` resets
                        // the memory counter to exact zero when a
                        // server empties), so all leftover keys tie and
                        // the linear scan's strict-`<` keeps the first
                        // feasible index. One probe decides for all.
                        let mut found = None;
                        self.walk(Lane::Empty, want, &mut |i| {
                            if servers[i].fits(cores, mem_gb) {
                                found = Some(i);
                            }
                            false
                        });
                        found
                    }
                })
            }
            PlacementPolicy::WorstFit => {
                // WorstFit maximizes the leftover key, which the bucket
                // stop rule's lower bound says nothing about; it keeps
                // the in-order enumeration (the production policy the
                // replay hot path cares about is BestFit).
                self.best_in_lane(Lane::NonEmpty, policy, servers, cores, mem_gb, want).or_else(
                    || self.best_in_lane(Lane::Empty, policy, servers, cores, mem_gb, want),
                )
            }
        }
    }

    /// Bucketed BestFit over the online non-empty servers: returns the
    /// feasible server minimizing the exact `(leftover, index)`
    /// lexicographic key — identical to the lane-restricted linear
    /// scan.
    ///
    /// Scans bucket levels upward from `fc = cores`. Soundness of the
    /// stop rule: a feasible server at level `fc` has
    /// `free_mem ≥ mem − 1e-9`, so its leftover key is at least
    /// `(fc − cores)/shape.cores − 1e-9/shape.mem_gb` in real
    /// arithmetic, and `shape.cores ≤ max_shape_cores` makes
    /// `(fc − cores)/max_shape_cores` a further lower bound on the core
    /// term. `mem_slack` covers both the memory epsilon (scaled by the
    /// ratcheted `1/mem_gb` bound) and float rounding with ~6 orders of
    /// magnitude to spare, so a level pruned by the stop rule cannot
    /// hold a candidate that ties or beats the incumbent.
    fn bestfit_buckets(&self, servers: &[ServerState], cores: u32, mem_gb: f64) -> Option<usize> {
        let mem_slack = 1e-9 * (1.0 + self.inv_mem_bound);
        let c_max = f64::from(self.max_shape_cores.max(1));
        let mut best: Option<(usize, f64)> = None;
        let mut level = cores;
        while (level as usize) < self.buckets.len() {
            if let Some((_, best_leftover)) = best {
                if f64::from(level - cores) / c_max - mem_slack > best_leftover {
                    break;
                }
            }
            for &raw in &self.buckets[level as usize] {
                let i = raw as usize;
                let s = &servers[i];
                if s.fits(cores, mem_gb) {
                    let leftover = PlacementPolicy::BestFit.leftover_key(s, cores, mem_gb);
                    let replace = match best {
                        None => true,
                        // Exact float `==` deliberately: "tie" must
                        // mean what the linear fold's strict-`<` means
                        // (−0.0 ties +0.0), and ties go to the lower
                        // index. The resulting lexicographic minimum is
                        // independent of visit order, which is what
                        // licenses the unsorted buckets.
                        Some((best_i, best_leftover)) => {
                            leftover < best_leftover || (leftover == best_leftover && i < best_i)
                        }
                    };
                    if replace {
                        best = Some((i, leftover));
                    }
                }
            }
            level += 1;
        }
        best.map(|(i, _)| i)
    }

    fn best_in_lane(
        &self,
        lane: Lane,
        policy: PlacementPolicy,
        servers: &[ServerState],
        cores: u32,
        mem_gb: f64,
        want: u64,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        self.walk(lane, want, &mut |i| {
            let s = &servers[i];
            if s.fits(cores, mem_gb) {
                let leftover = policy.leftover_key(s, cores, mem_gb);
                let better = match best {
                    None => true,
                    Some((_, best_leftover)) => leftover < best_leftover,
                };
                if better {
                    best = Some((i, leftover));
                }
            }
            true
        });
        best.map(|(i, _)| i)
    }

    /// Full-rescan consistency check: every leaf matches the lane
    /// values of its server, padding leaves are 0, every internal node
    /// is the max of its children, the buckets mirror the online
    /// non-empty servers exactly, the flag bits and their counters
    /// agree with the pool, and the ratcheted bounds still cover every
    /// current shape. The simulator `debug_assert`s this on every
    /// selection, so a mutation path that forgets to [`Self::refresh`]
    /// fails loudly in tests rather than silently diverging.
    pub fn validate(&self, servers: &[ServerState]) -> bool {
        if servers.len() != self.n {
            return false;
        }
        let mut deviant_empty = 0;
        let mut zero_cap = 0;
        let mut bucketed = 0usize;
        for (i, s) in servers.iter().enumerate() {
            if (self.nonempty[self.size + i], self.empty[self.size + i]) != lane_values(s) {
                return false;
            }
            let flags = self.leaf_flags(s);
            if self.flags[i] != flags {
                return false;
            }
            deviant_empty += usize::from(flags & FLAG_DEVIANT_EMPTY != 0);
            zero_cap += usize::from(flags & FLAG_ZERO_CAP != 0);
            let shape = s.shape();
            if shape.cores > self.max_shape_cores {
                return false;
            }
            if shape.mem_gb > 0.0 && self.inv_mem_bound < 1.0 / shape.mem_gb {
                return false;
            }
            if s.is_offline() || s.is_empty() {
                if self.bucket_of[i] != NO_BUCKET {
                    return false;
                }
            } else {
                bucketed += 1;
                let (level, pos) = (self.bucket_of[i] as usize, self.bucket_pos[i] as usize);
                if level != s.free_cores() as usize
                    || self.buckets.get(level).and_then(|b| b.get(pos)).copied()
                        != u32::try_from(i).ok()
                {
                    return false;
                }
            }
        }
        if deviant_empty != self.deviant_empty || zero_cap != self.zero_cap {
            return false;
        }
        if self.buckets.iter().map(Vec::len).sum::<usize>() != bucketed {
            return false;
        }
        for leaf in self.n..self.size {
            if self.nonempty[self.size + leaf] != 0 || self.empty[self.size + leaf] != 0 {
                return false;
            }
        }
        for node in 1..self.size {
            if self.nonempty[node] != self.nonempty[2 * node].max(self.nonempty[2 * node + 1])
                || self.empty[node] != self.empty[2 * node].max(self.empty[2 * node + 1])
            {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::arena::VmArena;
    use crate::cluster::ServerShape;
    use crate::server::PlacedVm;

    fn servers_with_loads(arena: &mut VmArena, loads: &[u32]) -> Vec<ServerState> {
        loads
            .iter()
            .map(|&used| {
                let mut s = ServerState::new(ServerShape { cores: 16, mem_gb: 128.0 });
                if used > 0 {
                    s.place(
                        arena,
                        1000 + u64::from(used),
                        PlacedVm { cores: used, mem_gb: f64::from(used) * 8.0, max_mem_util: 0.5 },
                    );
                }
                s
            })
            .collect()
    }

    const POLICIES: [PlacementPolicy; 3] =
        [PlacementPolicy::BestFit, PlacementPolicy::FirstFit, PlacementPolicy::WorstFit];

    #[test]
    fn matches_linear_on_mixed_loads() {
        let mut arena = VmArena::new();
        let servers = servers_with_loads(&mut arena, &[0, 8, 14, 16, 2, 0, 15]);
        let index = PlacementIndex::new(&servers);
        assert!(index.validate(&servers));
        for policy in POLICIES {
            for cores in 0..=17u32 {
                for mem in [0.0, 8.0, 64.0, 120.0, 129.0] {
                    assert_eq!(
                        index.choose(policy, &servers, cores, mem),
                        policy.choose_linear(&servers, cores, mem),
                        "{policy} cores={cores} mem={mem}"
                    );
                }
            }
        }
    }

    #[test]
    fn refresh_tracks_place_remove_fail_degrade() {
        let mut arena = VmArena::new();
        let mut servers = servers_with_loads(&mut arena, &[0, 4, 8, 12]);
        let mut index = PlacementIndex::new(&servers);

        servers[0].place(&mut arena, 1, PlacedVm { cores: 6, mem_gb: 24.0, max_mem_util: 0.5 });
        index.refresh(0, &servers[0]);
        assert!(index.validate(&servers));

        servers[1].remove(&mut arena, 1004).unwrap();
        index.refresh(1, &servers[1]);
        assert!(index.validate(&servers));

        let mut displaced = Vec::new();
        servers[2].fail(&mut arena, &mut displaced);
        index.refresh(2, &servers[2]);
        assert!(index.validate(&servers));

        servers[3].degrade(&mut arena, 10, 0.0, &mut displaced);
        index.refresh(3, &servers[3]);
        assert!(index.validate(&servers));

        for policy in POLICIES {
            for cores in 1..=16u32 {
                assert_eq!(
                    index.choose(policy, &servers, cores, 4.0),
                    policy.choose_linear(&servers, cores, 4.0),
                    "{policy} cores={cores}"
                );
            }
        }
    }

    #[test]
    fn matches_linear_with_degraded_and_zero_capacity_shapes() {
        // Mixed shapes after degrades — including a zero-capacity
        // husk — exercise the ratcheted stop-rule bounds, the
        // deviant-empty fallback, and the degenerate-request guard.
        let mut arena = VmArena::new();
        let mut servers = servers_with_loads(&mut arena, &[0, 8, 0, 3, 0, 12]);
        let mut index = PlacementIndex::new(&servers);
        let mut displaced = Vec::new();
        // A loaded server degraded in place, an empty server degraded
        // (deviant-empty), and one degraded to nothing.
        servers[1].degrade(&mut arena, 6, 48.0, &mut displaced);
        index.refresh(1, &servers[1]);
        servers[2].degrade(&mut arena, 9, 100.0, &mut displaced);
        index.refresh(2, &servers[2]);
        servers[4].degrade(&mut arena, 1_000, 1e9, &mut displaced);
        index.refresh(4, &servers[4]);
        assert!(index.validate(&servers));
        for policy in POLICIES {
            for cores in 0..=17u32 {
                for mem in [0.0, 1e-10, 4.0, 28.0, 64.0, 129.0] {
                    assert_eq!(
                        index.choose(policy, &servers, cores, mem),
                        policy.choose_linear(&servers, cores, mem),
                        "{policy} cores={cores} mem={mem}"
                    );
                }
            }
        }
    }

    #[test]
    fn best_fit_resolves_a_pristine_empty_lane_from_one_probe() {
        // All-empty pristine pool: the shortcut must pick the leftmost
        // feasible server (bitwise ties, first index wins) and decide
        // infeasibility from a single probe.
        let servers: Vec<ServerState> =
            (0..9).map(|_| ServerState::new(ServerShape { cores: 16, mem_gb: 128.0 })).collect();
        let index = PlacementIndex::new(&servers);
        assert_eq!(index.choose(PlacementPolicy::BestFit, &servers, 8, 32.0), Some(0));
        // Core-infeasible and mem-infeasible requests both say no.
        assert_eq!(index.choose(PlacementPolicy::BestFit, &servers, 17, 32.0), None);
        assert_eq!(index.choose(PlacementPolicy::BestFit, &servers, 8, 129.0), None);
    }

    #[test]
    fn offline_servers_are_never_chosen() {
        let mut arena = VmArena::new();
        let mut servers = servers_with_loads(&mut arena, &[0, 0]);
        servers[0].fail(&mut arena, &mut Vec::new());
        let index = PlacementIndex::new(&servers);
        for policy in POLICIES {
            assert_eq!(index.choose(policy, &servers, 1, 1.0), Some(1), "{policy}");
        }
    }

    #[test]
    fn empty_pool_chooses_nothing() {
        let servers: Vec<ServerState> = Vec::new();
        let index = PlacementIndex::new(&servers);
        for policy in POLICIES {
            assert_eq!(index.choose(policy, &servers, 1, 1.0), None, "{policy}");
        }
        assert!(index.validate(&servers));
    }

    #[test]
    fn rebuild_resizes_with_the_pool() {
        let mut arena = VmArena::new();
        let servers = servers_with_loads(&mut arena, &[4, 0, 9]);
        let mut index = PlacementIndex::new(&servers);
        let grown = servers_with_loads(&mut arena, &[0, 0, 2, 15, 16]);
        index.rebuild(&grown);
        assert!(index.validate(&grown));
        let shrunk = servers_with_loads(&mut arena, &[16]);
        index.rebuild(&shrunk);
        assert!(index.validate(&shrunk));
        assert_eq!(index.choose(PlacementPolicy::FirstFit, &shrunk, 1, 1.0), None);
    }

    #[test]
    fn validate_detects_a_stale_leaf() {
        let mut arena = VmArena::new();
        let mut servers = servers_with_loads(&mut arena, &[0, 8]);
        let index = PlacementIndex::new(&servers);
        // Mutate a server without refreshing: the validator must notice.
        servers[1].remove(&mut arena, 1008).unwrap();
        assert!(!index.validate(&servers));
    }
}
