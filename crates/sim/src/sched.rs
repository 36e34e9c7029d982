//! Event-driven scheduling structures for the out-of-order core.
//!
//! The original pipeline walked the entire ROB once per stage per cycle
//! — completion, store-data capture, branch resolution, and issue were
//! each O(ROB) even on cycles where nothing could possibly happen. The
//! [`Scheduler`] replaces those scans with explicit event sets over the
//! µops' ROB slots, all maintained incrementally by the pipeline:
//!
//! * a **completion event wheel**: a µop entering execution schedules
//!   exactly one completion event, so the completion stage touches only
//!   µops finishing *this* cycle;
//! * **per-physical-register dependent lists**: a dispatched µop whose
//!   operands are not ready registers on one unready source; when that
//!   register is written back the list is drained and the µop either
//!   becomes issue-ready or re-registers on its next unready source
//!   (consumers are woken by producers instead of the issue stage
//!   re-polling every waiting µop's sources);
//! * an **issue-ready set**: the Waiting µops whose operand-readiness
//!   predicate holds — the only µops the issue stage examines;
//! * a **waiting set** (all Waiting µops in age order) — needed because
//!   the issue window counts *every* waiting µop toward `iq_size`,
//!   ready or not, so the cutoff entry must be derivable exactly;
//! * a **store-data waiter set**: stores (and calls) that have computed
//!   their address but not yet captured their data operand;
//! * a **wakeup-pending set**: completed µops whose result broadcast the
//!   defense is still denying (`may_wakeup`) — re-checked each cycle
//!   until granted, exactly like the old per-ROB scan;
//! * a **resolve-pending set**: executed, unresolved, mispredicted
//!   branches — the exact candidate set of `resolve_branches`;
//! * an **unresolved-branch set** (every in-flight branch that has not
//!   resolved): its minimum is the speculative frontier's
//!   `oldest_unresolved_branch`, making the frontier O(1) to snapshot.
//!
//! # Flat, ROB-slot-indexed representation
//!
//! The ROB itself is a ring of `cap = rob_size.next_power_of_two()`
//! `DynInst` slots owned by the core, and the [`Scheduler`] owns the
//! ring's positions: two monotonic counters, `head_pos` (incremented
//! when the head commits) and `tail_pos` (incremented at dispatch,
//! decremented per squashed µop). The live window `[head_pos,
//! tail_pos)` maps to slots via `pos & (cap - 1)`; the window never
//! exceeds `rob_size <= cap` entries, so the mapping is collision-free
//! *even across squashes* (naive `seq % rob_size` indexing is not:
//! squashes leave gaps in the live sequence numbers, so the in-ROB seq
//! spread is unbounded). A slot is the one handle the pipeline uses for
//! an in-flight µop: [`Scheduler::on_dispatch`] hands out the tail slot
//! that rename writes in place, every set, walk, dependent list and
//! completion event yields slots, and the core reads `rob[slot]`
//! directly — there is no sequence-number lookup anywhere.
//!
//! Every status set holds µops of that window, so each is a
//! fixed-capacity **bitset over ring slots** instead of an ordered
//! tree. Age order ≡ seq order ≡ position order (sequence numbers are
//! assigned at dispatch and never reused), so age-ordered iteration of
//! a bitset is a trailing-zeros walk **anchored at the head slot**: the
//! cyclic window `[head_slot, head_slot + len)` splits into at most two
//! linear word ranges, walked in order — exactly the iteration order of
//! an ordered set keyed by sequence number.
//!
//! The completion wheel becomes a **calendar queue**: a power-of-two
//! ring of per-cycle buckets sized past the maximum in-tree completion
//! latency (a DRAM-missing load, the worst-case divider, the
//! multiplier), plus a small sorted overflow list as a safety net for
//! events beyond the horizon. Bucket `Vec`s are pooled (cleared, never
//! dropped), so the steady state allocates nothing. Each event carries
//! its slot and a **per-slot generation stamp** (bumped at dispatch), so
//! a stale event from a squashed µop is recognised in O(1) — generation
//! mismatch, or slot outside the live window — without touching the ROB.
//! Stale events are deliberately *left in the wheel* on squash: the
//! cached minimum deadline ([`Scheduler::next_completion_cycle`], an
//! O(1) field) feeds idle-cycle fast-forward, and removing stale events
//! would change jump targets — and with them the blocked-cycle span
//! structure of the trace that the `golden_scheduler` and
//! `golden_backends` fixtures pin.
//!
//! The minimum is **indexed**, not rescanned: one occupancy bit per
//! bucket (set by the first push into an empty bucket, cleared when the
//! bucket drains) lets a drain find the next deadline with a
//! trailing-zeros search over the bit words — at most four for the
//! 256-bucket ring of the largest in-tree config — starting at
//! `cycle + 1`. Every bucketed deadline left after a drain at `cycle`
//! lies in `(cycle, cycle + ring)`, so the first occupied bucket in
//! ring order from `cycle + 1` holds the minimum, and `reset` clears
//! only the buckets whose bits are set. A debug-profile assert
//! checks the cached minimum against a full recompute on every query.
//!
//! Per-physical-register dependent lists live in one **arena of
//! intrusive doubly-linked nodes indexed by ROB slot** (a µop parks on
//! at most one register at a time). Squash unlinks a parked node in
//! O(1) — lazy filtering would corrupt lists when a squashed µop's slot
//! is reused and re-parked — and `Core::reset` invalidates every list
//! head in O(1) by bumping an epoch.
//!
//! The scheduler also powers **idle-cycle fast-forward**: when a tick
//! makes no progress (see [`Scheduler::progress`]), the pipeline asks
//! for the next cycle at which anything can change
//! ([`Scheduler::next_completion_cycle`], merged with front-end stall
//! deadlines by the core) and jumps there, bulk-attributing the skipped
//! blocked/no-commit cycles so `Stats` and the trace/audit
//! reconciliation stay byte-exact. See `DESIGN.md` for the invariant
//! argument.

use std::collections::VecDeque;
use std::rc::Rc;

/// Identifies one of the eight status sets (see module docs). The
/// numeric value indexes the scheduler's set array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SetId {
    /// Every µop currently in `UopStatus::Waiting`, in age order.
    Waiting = 0,
    /// Waiting µops whose operand-readiness predicate holds.
    IssueReady = 1,
    /// Completed µops with results whose wakeup the defense has not yet
    /// granted.
    WakeupPending = 2,
    /// Stores/calls with a computed address still awaiting data capture.
    StoreWaiters = 3,
    /// Executed, unresolved, mispredicted branches (resolve candidates).
    ResolvePending = 4,
    /// Every in-flight branch that has not resolved (frontier input).
    UnresolvedBranches = 5,
    /// Every in-flight load (including `ret`), in age order: the memory
    /// disambiguation scans walk these instead of the whole ROB.
    InflightLoads = 6,
    /// Every in-flight store (including `call`), in age order.
    InflightStores = 7,
}

const N_SETS: usize = 8;

const NO_NODE: u32 = u32::MAX;

/// One fixed-capacity bitset over ROB ring slots.
#[derive(Debug)]
struct FlatSet {
    words: Vec<u64>,
    len: usize,
}

impl FlatSet {
    fn with_capacity(cap: usize) -> FlatSet {
        FlatSet {
            words: vec![0; cap.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn insert(&mut self, slot: usize) {
        let (w, b) = (slot >> 6, 1u64 << (slot & 63));
        if self.words[w] & b == 0 {
            self.words[w] |= b;
            self.len += 1;
        }
    }

    #[inline]
    fn remove(&mut self, slot: usize) {
        let (w, b) = (slot >> 6, 1u64 << (slot & 63));
        if self.words[w] & b != 0 {
            self.words[w] &= !b;
            self.len -= 1;
        }
    }

    #[cfg(debug_assertions)]
    fn contains(&self, slot: usize) -> bool {
        self.words[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The word range `[lo, hi)` of `self.words` masked to the slot
    /// range `[lo_slot, hi_slot)`; yields set slots ascending. `f`
    /// returns `false` to stop; the return value reports whether the
    /// walk ran to completion.
    #[inline]
    fn walk_asc(&self, lo: usize, hi: usize, f: &mut impl FnMut(usize) -> bool) -> bool {
        if lo >= hi {
            return true;
        }
        let (first_w, last_w) = (lo >> 6, (hi - 1) >> 6);
        for w in first_w..=last_w {
            let mut bits = self.words[w];
            if w == first_w {
                bits &= u64::MAX << (lo & 63);
            }
            if w == last_w && hi & 63 != 0 {
                bits &= (1u64 << (hi & 63)) - 1;
            }
            while bits != 0 {
                if !f((w << 6) | bits.trailing_zeros() as usize) {
                    return false;
                }
                bits &= bits - 1;
            }
        }
        true
    }

    /// As [`FlatSet::walk_asc`], descending.
    #[inline]
    fn walk_desc(&self, lo: usize, hi: usize, f: &mut impl FnMut(usize) -> bool) -> bool {
        if lo >= hi {
            return true;
        }
        let (first_w, last_w) = (lo >> 6, (hi - 1) >> 6);
        for w in (first_w..=last_w).rev() {
            let mut bits = self.words[w];
            if w == first_w {
                bits &= u64::MAX << (lo & 63);
            }
            if w == last_w && hi & 63 != 0 {
                bits &= (1u64 << (hi & 63)) - 1;
            }
            while bits != 0 {
                let b = 63 - bits.leading_zeros() as usize;
                if !f((w << 6) | b) {
                    return false;
                }
                bits &= !(1u64 << b);
            }
        }
        true
    }

    /// The `k`-th (0-based) set slot in `[lo, hi)`, or the residual
    /// count if fewer: word-popcount skipping, so a deep cutoff query
    /// touches O(words), not O(entries).
    fn select(&self, lo: usize, hi: usize, mut k: usize) -> Result<usize, usize> {
        if lo >= hi {
            return Err(k);
        }
        let (first_w, last_w) = (lo >> 6, (hi - 1) >> 6);
        for w in first_w..=last_w {
            let mut bits = self.words[w];
            if w == first_w {
                bits &= u64::MAX << (lo & 63);
            }
            if w == last_w && hi & 63 != 0 {
                bits &= (1u64 << (hi & 63)) - 1;
            }
            let c = bits.count_ones() as usize;
            if k < c {
                for _ in 0..k {
                    bits &= bits - 1;
                }
                return Ok((w << 6) | bits.trailing_zeros() as usize);
            }
            k -= c;
        }
        Err(k)
    }
}

/// One completion event: the slot and the dispatch generation it was
/// scheduled for (the O(1) staleness check).
#[derive(Clone, Copy, Debug)]
struct WheelEvent {
    slot: u32,
    gen: u32,
}

/// Event-driven scheduling state owned by the core (see module docs):
/// the ROB ring's positions, the eight status sets as slot bitsets, the
/// calendar-queue completion wheel and the dependent-list arena, plus
/// the progress flag, the scratch buffer and the occupancy high-water
/// marks.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// Ring capacity: `rob_size.next_power_of_two()`.
    cap: usize,
    /// Monotonic ROB positions; the window `[head_pos, tail_pos)` maps
    /// to slots via `pos & (cap - 1)`.
    head_pos: u64,
    tail_pos: u64,
    /// Per-slot dispatch generation, bumped when a slot is (re)claimed:
    /// distinguishes a squashed µop's leftovers from the slot's current
    /// occupant.
    slot_gen: Vec<u32>,
    /// The eight status sets as slot bitsets.
    sets: [FlatSet; N_SETS],

    // ---- dependent-list arena ---------------------------------------
    /// Intrusive doubly-linked node per slot (`NO_NODE` = nil). A µop is
    /// parked on at most one physical register at a time (`dep_phys`).
    dep_next: Vec<u32>,
    dep_prev: Vec<u32>,
    dep_phys: Vec<u32>,
    /// Per-physical-register list head/tail, valid only when the
    /// register's epoch matches `dep_epoch_cur` (the O(1) reset).
    dep_head: Vec<u32>,
    dep_tail: Vec<u32>,
    dep_epoch: Vec<u64>,
    dep_epoch_cur: u64,

    // ---- calendar queue ---------------------------------------------
    /// Power-of-two bucket ring over completion cycles; `stamp[b]` is
    /// the deadline of bucket `b`'s current contents (meaningful only
    /// while non-empty). Bucket storage is pooled: drained buckets are
    /// cleared in place, never deallocated.
    wmask: u64,
    buckets: Vec<Vec<WheelEvent>>,
    stamp: Vec<u64>,
    /// One bit per bucket, set iff the bucket is non-empty: the next
    /// deadline is a trailing-zeros search over these words.
    occupied: Vec<u64>,
    /// Events beyond the ring horizon (or colliding with an occupied
    /// bucket of a different deadline): kept sorted by deadline,
    /// descending, so the nearest pops from the back. A safety net —
    /// empty whenever every scheduled latency fits the ring, which the
    /// ring sizing guarantees for all in-tree latencies.
    overflow: Vec<(u64, WheelEvent)>,
    /// Cached minimum deadline across the buckets (`u64::MAX` when none)
    /// and the bucketed-event count. The overall wheel minimum is
    /// `min(bucket_min, overflow.last())` — O(1) for the idle-cycle
    /// fast-forward query; a drain re-derives it from `occupied`.
    bucket_min: u64,
    bucket_events: u64,

    // ---- statistics and per-tick state ------------------------------
    /// High-water mark of the waiting set (issue-queue occupancy).
    iq_hwm: u64,
    /// Outstanding completion events (live + stale), and their maximum.
    wheel_live: u64,
    wheel_hwm: u64,
    /// Whether the current tick changed any simulator state (beyond
    /// blocked-cycle accounting). Cleared at tick start; an un-set flag
    /// at tick end certifies the cycle is repeatable and fast-forward is
    /// sound.
    progress: bool,
    /// Slot buffer recycled by the pipeline's per-stage iteration (sets
    /// cannot be mutated while iterated).
    pub scratch: Vec<usize>,
}

impl Scheduler {
    /// Creates a scheduler for a core with `n_phys` physical registers
    /// and a `rob_size`-entry ROB. `max_latency` bounds the completion
    /// latency any µop can schedule (sizes the calendar ring).
    pub fn new(n_phys: usize, rob_size: usize, max_latency: u32) -> Scheduler {
        let cap = rob_size.next_power_of_two();
        // Every in-tree completion schedules at most `max_latency + 1`
        // cycles ahead; the ring must strictly exceed that so two
        // outstanding deadlines never alias a bucket.
        let wsize = (max_latency as u64 + 2).next_power_of_two().max(16) as usize;
        Scheduler {
            cap,
            head_pos: 0,
            tail_pos: 0,
            slot_gen: vec![0; cap],
            sets: std::array::from_fn(|_| FlatSet::with_capacity(cap)),
            dep_next: vec![NO_NODE; cap],
            dep_prev: vec![NO_NODE; cap],
            dep_phys: vec![NO_NODE; cap],
            dep_head: vec![NO_NODE; n_phys],
            dep_tail: vec![NO_NODE; n_phys],
            dep_epoch: vec![0; n_phys],
            dep_epoch_cur: 1,
            wmask: wsize as u64 - 1,
            buckets: (0..wsize).map(|_| Vec::new()).collect(),
            stamp: vec![0; wsize],
            occupied: vec![0; wsize.div_ceil(64)],
            overflow: Vec::new(),
            bucket_min: u64::MAX,
            bucket_events: 0,
            iq_hwm: 0,
            wheel_live: 0,
            wheel_hwm: 0,
            progress: false,
            scratch: Vec::new(),
        }
    }

    /// Empties every event structure in place, keeping all backing
    /// allocations (the `Core::reset` arena path).
    pub fn reset(&mut self) {
        self.head_pos = 0;
        self.tail_pos = 0;
        // Slot generations are deliberately *not* reset: monotonic per
        // slot across runs, so nothing ever aliases a previous run.
        for set in &mut self.sets {
            set.clear();
        }
        self.dep_epoch_cur += 1; // O(1) dependent-list invalidation
        for w in 0..self.occupied.len() {
            let mut bits = std::mem::take(&mut self.occupied[w]);
            while bits != 0 {
                self.buckets[w * 64 + bits.trailing_zeros() as usize].clear();
                bits &= bits - 1;
            }
        }
        self.overflow.clear();
        self.bucket_min = u64::MAX;
        self.bucket_events = 0;
        self.iq_hwm = 0;
        self.wheel_live = 0;
        self.wheel_hwm = 0;
        self.progress = false;
        self.scratch.clear();
    }

    // ---- ring geometry ----------------------------------------------

    /// Slots in the ROB ring (`rob_size.next_power_of_two()`); the core
    /// sizes its `DynInst` array to match.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    #[inline]
    fn mask(&self) -> usize {
        self.cap - 1
    }

    /// Number of µops in the ROB.
    #[inline]
    pub fn window_len(&self) -> usize {
        (self.tail_pos - self.head_pos) as usize
    }

    /// Slot of the ROB head (meaningful only while the window is
    /// non-empty).
    #[inline]
    pub fn head_slot(&self) -> usize {
        self.head_pos as usize & self.mask()
    }

    /// Slot of the youngest µop, if any.
    #[inline]
    pub fn tail_slot(&self) -> Option<usize> {
        (self.tail_pos > self.head_pos).then(|| (self.tail_pos - 1) as usize & self.mask())
    }

    /// Slot of the µop `off` positions behind the head.
    #[inline]
    pub fn slot_at(&self, off: usize) -> usize {
        debug_assert!(off < self.window_len(), "offset outside the window");
        (self.head_slot() + off) & self.mask()
    }

    /// Age offset of a live slot from the head (0 = the head).
    #[inline]
    fn offset_of(&self, slot: usize) -> usize {
        let off = slot.wrapping_sub(self.head_slot()) & self.mask();
        debug_assert!(off < self.window_len(), "slot outside the window");
        off
    }

    /// The cyclic offset range `[start_off, end_off)` from the head as
    /// up to two linear slot ranges, in age order.
    #[inline]
    fn pieces(&self, start_off: usize, end_off: usize) -> ((usize, usize), (usize, usize)) {
        debug_assert!(start_off <= end_off && end_off <= self.window_len());
        let n = end_off - start_off;
        let s = (self.head_slot() + start_off) & self.mask();
        if s + n <= self.cap {
            ((s, s + n), (0, 0))
        } else {
            ((s, self.cap), (0, s + n - self.cap))
        }
    }

    // ---- ROB lifecycle ----------------------------------------------

    /// Claims the tail slot for a freshly renamed µop and returns it;
    /// the caller writes the µop there. Must be called before any set
    /// insert for that µop.
    #[inline]
    pub fn on_dispatch(&mut self) -> usize {
        debug_assert!(
            self.window_len() < self.cap,
            "ROB window exceeds scheduler ring capacity"
        );
        let slot = self.tail_pos as usize & self.mask();
        self.tail_pos += 1;
        self.slot_gen[slot] = self.slot_gen[slot].wrapping_add(1);
        self.dep_phys[slot] = NO_NODE;
        #[cfg(debug_assertions)]
        for set in &self.sets {
            debug_assert!(!set.contains(slot), "fresh slot still in a status set");
        }
        slot
    }

    /// Retires the head slot. All set entries for the head must have
    /// been removed beforehand; its `DynInst` stays readable until a
    /// later dispatch reclaims the slot.
    #[inline]
    pub fn on_commit_head(&mut self) {
        debug_assert!(self.window_len() > 0, "commit from an empty window");
        #[cfg(debug_assertions)]
        {
            let slot = self.head_slot();
            for set in &self.sets {
                debug_assert!(!set.contains(slot), "committed head still in a status set");
            }
            debug_assert_eq!(self.dep_phys[slot], NO_NODE, "committed head still parked");
        }
        self.head_pos += 1;
    }

    /// Releases the tail slot (one squashed µop, youngest first). Clears
    /// its membership in every status set and unlinks it from any
    /// dependent list; its completion events (if any) stay in the wheel
    /// as stale entries (see module docs).
    #[inline]
    pub fn on_squash_pop(&mut self) {
        debug_assert!(self.window_len() > 0, "squash from an empty window");
        self.tail_pos -= 1;
        let slot = self.tail_pos as usize & self.mask();
        for set in &mut self.sets {
            set.remove(slot);
        }
        self.unlink_dep(slot);
        // Completion events stay in the wheel as stale entries (module
        // docs): the cached minimum keeps counting them, because the
        // fast-forward jump targets depend on it.
    }

    // ---- status sets ------------------------------------------------

    /// Inserts the µop at `slot` into `set`. Idempotent.
    #[inline]
    pub fn insert(&mut self, set: SetId, slot: usize) {
        debug_assert!(self.offset_of(slot) < self.window_len());
        let s = &mut self.sets[set as usize];
        s.insert(slot);
        if set == SetId::Waiting && s.len as u64 > self.iq_hwm {
            self.iq_hwm = s.len as u64;
        }
    }

    /// Removes the µop at `slot` from `set`. Idempotent.
    #[inline]
    pub fn remove(&mut self, set: SetId, slot: usize) {
        debug_assert!(self.offset_of(slot) < self.window_len());
        self.sets[set as usize].remove(slot);
    }

    /// Number of entries in `set`.
    #[inline]
    pub fn len(&self, set: SetId) -> usize {
        self.sets[set as usize].len
    }

    /// Whether `set` is empty.
    #[inline]
    pub fn is_empty(&self, set: SetId) -> bool {
        self.len(set) == 0
    }

    /// The slot of the oldest entry of `set`, if any.
    #[inline]
    pub fn first(&self, set: SetId) -> Option<usize> {
        let ((a0, a1), (b0, b1)) = self.pieces(0, self.window_len());
        let s = &self.sets[set as usize];
        let mut found = None;
        let mut f = |slot: usize| {
            found = Some(slot);
            false
        };
        if s.walk_asc(a0, a1, &mut f) {
            s.walk_asc(b0, b1, &mut f);
        }
        found
    }

    /// The slot of the `n`-th oldest entry of `set` (0-based), if any.
    pub fn nth(&self, set: SetId, n: usize) -> Option<usize> {
        let ((a0, a1), (b0, b1)) = self.pieces(0, self.window_len());
        let s = &self.sets[set as usize];
        match s.select(a0, a1, n) {
            Ok(slot) => Some(slot),
            Err(rest) => s.select(b0, b1, rest).ok(),
        }
    }

    /// Appends the slot of every entry of `set` to `out`, oldest first.
    #[inline]
    pub fn collect(&self, set: SetId, out: &mut Vec<usize>) {
        self.collect_first(set, self.window_len(), out);
    }

    /// Appends the slot of every entry of `set` older than the live slot
    /// `bound` (exclusive) to `out`, oldest first.
    #[inline]
    pub fn collect_below(&self, set: SetId, bound: usize, out: &mut Vec<usize>) {
        self.collect_first(set, self.offset_of(bound), out);
    }

    /// [`Scheduler::collect`] restricted to the `end_off` oldest ROB
    /// positions.
    #[inline]
    fn collect_first(&self, set: SetId, end_off: usize, out: &mut Vec<usize>) {
        let ((a0, a1), (b0, b1)) = self.pieces(0, end_off);
        let s = &self.sets[set as usize];
        let mut f = |slot: usize| {
            out.push(slot);
            true
        };
        s.walk_asc(a0, a1, &mut f);
        s.walk_asc(b0, b1, &mut f);
    }

    /// Visits the slot of every in-flight store older than the load at
    /// `slot`, **youngest first** (the store-queue search order of
    /// `execute_load`). `f` returns `false` to stop the walk.
    #[inline]
    pub fn for_each_store_older(&self, slot: usize, mut f: impl FnMut(usize) -> bool) {
        let ((a0, a1), (b0, b1)) = self.pieces(0, self.offset_of(slot));
        let s = &self.sets[SetId::InflightStores as usize];
        if s.walk_desc(b0, b1, &mut f) {
            s.walk_desc(a0, a1, &mut f);
        }
    }

    /// Visits the slot of every in-flight load younger than the store at
    /// `slot`, **oldest first** (the violation-scan order of
    /// `execute_store`). `f` returns `false` to stop the walk.
    #[inline]
    pub fn for_each_load_younger(&self, slot: usize, mut f: impl FnMut(usize) -> bool) {
        let ((a0, a1), (b0, b1)) = self.pieces(self.offset_of(slot) + 1, self.window_len());
        let s = &self.sets[SetId::InflightLoads as usize];
        if s.walk_asc(a0, a1, &mut f) {
            s.walk_asc(b0, b1, &mut f);
        }
    }

    // ---- calendar queue ---------------------------------------------

    /// Schedules the µop at `slot` to complete at `done`.
    #[inline]
    pub fn schedule_completion(&mut self, done: u64, slot: usize) {
        debug_assert!(self.offset_of(slot) < self.window_len());
        self.wheel_live += 1;
        if self.wheel_live > self.wheel_hwm {
            self.wheel_hwm = self.wheel_live;
        }
        let ev = WheelEvent {
            slot: slot as u32,
            gen: self.slot_gen[slot],
        };
        let b = (done & self.wmask) as usize;
        if self.buckets[b].is_empty() {
            self.stamp[b] = done;
            self.occupied[b / 64] |= 1 << (b % 64);
            self.buckets[b].push(ev);
        } else if self.stamp[b] == done {
            self.buckets[b].push(ev);
        } else {
            // Beyond the ring horizon: sorted overflow (descending, so
            // the nearest deadline pops from the back).
            let pos = self.overflow.partition_point(|(d, _)| *d > done);
            self.overflow.insert(pos, (done, ev));
            return;
        }
        self.bucket_events += 1;
        if done < self.bucket_min {
            self.bucket_min = done;
        }
    }

    /// Whether a drained event still denotes a live µop: its slot must
    /// hold the same dispatch generation and lie inside the window.
    /// (Generation alone misses squashed-not-reused slots; the window
    /// test alone misses reused slots — together they are exact.)
    #[inline]
    fn event_live(&self, ev: WheelEvent) -> bool {
        let slot = ev.slot as usize;
        self.slot_gen[slot] == ev.gen
            && (slot.wrapping_sub(self.head_slot()) & self.mask()) < self.window_len()
    }

    /// Removes every completion event due at or before `cycle` and fills
    /// `out` with the slots of the due live µops in age order. Stale
    /// (squashed) events are dropped here in O(1) via generation stamps.
    #[inline]
    pub fn pop_completions(&mut self, cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        debug_assert_eq!(self.bucket_min, self.recomputed_bucket_min(), "stale cache");
        let mut drained = 0u64;
        if self.bucket_min <= cycle {
            // Deadlines at or before `cycle`: every such bucket has its
            // stamp in `[bucket_min, cycle]` (the pipeline drains every
            // tick and on every fast-forward landing, so this range is
            // at most one jump long).
            for c in self.bucket_min..=cycle {
                let b = (c & self.wmask) as usize;
                if self.buckets[b].is_empty() || self.stamp[b] != c {
                    continue;
                }
                let mut bucket = std::mem::take(&mut self.buckets[b]);
                drained += bucket.len() as u64;
                self.bucket_events -= bucket.len() as u64;
                for &ev in &bucket {
                    if self.event_live(ev) {
                        out.push(ev.slot as usize);
                    }
                }
                bucket.clear();
                self.buckets[b] = bucket; // pooled
                self.occupied[b / 64] &= !(1 << (b % 64));
                if self.bucket_events == 0 {
                    break;
                }
            }
            self.bucket_min = if self.bucket_events == 0 {
                u64::MAX
            } else {
                // All remaining bucketed deadlines lie in
                // (cycle, cycle + ring), because every push happened at
                // a cycle ≤ `cycle` with latency < ring size: the first
                // occupied bucket from `cycle + 1` holds the minimum.
                let next = self.first_occupied_from(cycle + 1);
                debug_assert!(next.is_some(), "bucketed events but no occupancy bit");
                next.map_or(u64::MAX, |b| self.stamp[b])
            };
        }
        while let Some(&(done, ev)) = self.overflow.last() {
            if done > cycle {
                break;
            }
            self.overflow.pop();
            drained += 1;
            if self.event_live(ev) {
                out.push(ev.slot as usize);
            }
        }
        // Multiple deadlines can drain at once only after a squash or a
        // fast-forward jump; keep age order (offset from the head slot)
        // so processing matches the ROB order.
        if out.len() > 1 {
            let (head, mask) = (self.head_slot(), self.mask());
            out.sort_unstable_by_key(|&slot| slot.wrapping_sub(head) & mask);
        }
        debug_assert!(drained <= self.wheel_live);
        self.wheel_live -= drained;
    }

    /// The cycle of the earliest outstanding completion event (live or
    /// stale), if any. O(1): a cached field maintained on push and
    /// re-derived from the occupancy bits on drain (squash leaves it
    /// untouched because stale events stay in the wheel).
    #[inline]
    pub fn next_completion_cycle(&self) -> Option<u64> {
        debug_assert_eq!(self.bucket_min, self.recomputed_bucket_min(), "stale cache");
        let min = match self.overflow.last() {
            Some(&(done, _)) => self.bucket_min.min(done),
            None => self.bucket_min,
        };
        (min != u64::MAX).then_some(min)
    }

    /// The first occupied bucket in ring order from the bucket of cycle
    /// `from`, found by a trailing-zeros search over the occupancy words
    /// (the start word is visited twice: from `from`'s bit up, then in
    /// full once the search wraps), or `None` if every bucket is empty.
    #[inline]
    fn first_occupied_from(&self, from: u64) -> Option<usize> {
        let start = (from & self.wmask) as usize;
        let words = self.occupied.len();
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0u64 << (start % 64));
        for _ in 0..words {
            if bits != 0 {
                break;
            }
            w = (w + 1) % words;
            bits = self.occupied[w];
        }
        (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
    }

    /// Debug-only ground truth for the cached bucket minimum.
    fn recomputed_bucket_min(&self) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| self.stamp[i])
            .min()
            .unwrap_or(u64::MAX)
    }

    // ---- dependent-list arena ---------------------------------------

    /// The list head for `phys`, honouring the epoch (a stale head from
    /// before the last reset reads as empty).
    #[inline]
    fn dep_head_of(&self, phys: usize) -> u32 {
        if self.dep_epoch[phys] == self.dep_epoch_cur {
            self.dep_head[phys]
        } else {
            NO_NODE
        }
    }

    /// Parks the µop at `slot` until physical register `phys` is written
    /// back. A µop is parked on at most one register at a time.
    #[inline]
    pub fn register_dep(&mut self, phys: usize, slot: usize) {
        debug_assert!(self.offset_of(slot) < self.window_len());
        debug_assert_eq!(self.dep_phys[slot], NO_NODE, "µop parked twice");
        self.dep_phys[slot] = phys as u32;
        self.dep_next[slot] = NO_NODE;
        let head = self.dep_head_of(phys);
        if head == NO_NODE {
            self.dep_epoch[phys] = self.dep_epoch_cur;
            self.dep_head[phys] = slot as u32;
            self.dep_tail[phys] = slot as u32;
            self.dep_prev[slot] = NO_NODE;
        } else {
            let tail = self.dep_tail[phys] as usize;
            self.dep_next[tail] = slot as u32;
            self.dep_prev[slot] = tail as u32;
            self.dep_tail[phys] = slot as u32;
        }
    }

    /// Drains the dependent list of `phys` into `out` (slots, in
    /// registration order; the caller re-registers entries that are
    /// still not ready). Only live µops are ever yielded: squash unlinks
    /// eagerly.
    #[inline]
    pub fn drain_deps(&mut self, phys: usize, out: &mut Vec<usize>) {
        let mut node = self.dep_head_of(phys);
        if node == NO_NODE {
            return;
        }
        while node != NO_NODE {
            let slot = node as usize;
            debug_assert_eq!(self.dep_phys[slot], phys as u32);
            out.push(slot);
            self.dep_phys[slot] = NO_NODE;
            node = self.dep_next[slot];
        }
        self.dep_head[phys] = NO_NODE;
        self.dep_tail[phys] = NO_NODE;
    }

    /// Unlinks `slot` from its dependent list, if parked. O(1); eager
    /// unlinking is required (not an optimisation): the slot is about to
    /// be reused, and a stale link from a lazily-filtered list would be
    /// rewritten by the new occupant's park, truncating the old list.
    fn unlink_dep(&mut self, slot: usize) {
        let phys = self.dep_phys[slot];
        if phys == NO_NODE {
            return;
        }
        let phys = phys as usize;
        let (prev, next) = (self.dep_prev[slot], self.dep_next[slot]);
        if prev == NO_NODE {
            self.dep_head[phys] = next;
        } else {
            self.dep_next[prev as usize] = next;
        }
        if next == NO_NODE {
            self.dep_tail[phys] = prev;
        } else {
            self.dep_prev[next as usize] = prev;
        }
        self.dep_phys[slot] = NO_NODE;
    }

    // ---- occupancy statistics ---------------------------------------

    /// High-water mark of the waiting set (issue-queue occupancy).
    pub fn iq_hwm(&self) -> u64 {
        self.iq_hwm
    }

    /// High-water mark of outstanding completion-wheel events (live and
    /// stale alike — both occupy wheel storage).
    pub fn wheel_hwm(&self) -> u64 {
        self.wheel_hwm
    }

    // ---- progress flag ----------------------------------------------

    /// Clears the progress flag at tick start.
    #[inline]
    pub fn clear_progress(&mut self) {
        self.progress = false;
    }

    /// Marks that this tick changed simulator state.
    #[inline]
    pub fn mark_progress(&mut self) {
        self.progress = true;
    }

    /// Whether this tick changed simulator state.
    #[inline]
    pub fn progress(&self) -> bool {
        self.progress
    }
}

// ---------------------------------------------------------------------
// Fetch-group hand-off
// ---------------------------------------------------------------------

/// One fetched µop, as produced by the fetch stage: the static index
/// plus the dynamic prediction state rename needs. Per-entry front-end
/// timing lives on the owning [`FetchGroup`] — all µops fetched in one
/// cycle become rename-ready together.
pub(crate) struct FetchEntry {
    /// Static instruction index.
    pub idx: u32,
    /// Predicted next instruction index (`None` = predicted stop).
    pub pred_next: Option<u32>,
    /// For conditional branches: predicted direction.
    pub pred_taken: bool,
    /// TAGE global-history snapshot from before this µop's fetch.
    pub hist_snapshot: u64,
    /// Interned RSB snapshot from before this µop's fetch.
    pub rsb_snapshot: Rc<[u64]>,
}

/// A fetch group: the µops fetched in one cycle, handed to rename as a
/// unit. A group ends at a predicted-taken control transfer, at the
/// fetch width, or at a front-end stall (L1I miss / queue cap).
pub(crate) struct FetchGroup {
    /// Cycle at which the whole group reaches rename (fetch cycle +
    /// front-end depth). Strictly increasing across queued groups, so
    /// one group-level check replaces the old per-entry check exactly.
    pub ready_cycle: u64,
    /// Index of the next unconsumed entry (rename may drain a group
    /// across several cycles under structural stalls).
    cursor: usize,
    entries: Vec<FetchEntry>,
}

impl FetchGroup {
    /// Entries rename has not consumed yet.
    pub fn remaining(&self) -> &[FetchEntry] {
        &self.entries[self.cursor..]
    }
}

/// The front-end queue in group form: fetch pushes one [`FetchGroup`]
/// per cycle; rename consumes entries from the front group in order.
/// Group entry buffers are pooled so the steady state allocates nothing
/// (the PR 5 arena discipline).
#[derive(Default)]
pub(crate) struct FetchQueue {
    groups: VecDeque<FetchGroup>,
    /// Spent entry buffers, kept for reuse.
    pool: Vec<Vec<FetchEntry>>,
    /// Total unconsumed entries across all groups (the old
    /// `fetch_queue.len()` — the fetch stage's cap is on µops, not
    /// groups).
    pending: usize,
}

impl FetchQueue {
    /// Takes an empty entry buffer for fetch to fill (pooled).
    pub fn begin_group(&mut self) -> Vec<FetchEntry> {
        self.pool.pop().unwrap_or_default()
    }

    /// Queues a filled group with its rename-ready cycle. An empty
    /// buffer (fetch stalled before producing anything) is returned to
    /// the pool without queuing a group.
    pub fn push_group(&mut self, entries: Vec<FetchEntry>, ready_cycle: u64) {
        if entries.is_empty() {
            self.pool.push(entries);
            return;
        }
        debug_assert!(
            self.groups
                .back()
                .is_none_or(|g| g.ready_cycle < ready_cycle),
            "group ready cycles must be strictly increasing"
        );
        self.pending += entries.len();
        self.groups.push_back(FetchGroup {
            ready_cycle,
            cursor: 0,
            entries,
        });
    }

    /// The front group's next unconsumed entry, with the group's
    /// ready cycle.
    pub fn head(&self) -> Option<(&FetchEntry, u64)> {
        self.groups
            .front()
            .map(|g| (&g.entries[g.cursor], g.ready_cycle))
    }

    /// The front group's ready cycle (fast-forward wake point).
    pub fn head_ready_cycle(&self) -> Option<u64> {
        self.groups.front().map(|g| g.ready_cycle)
    }

    /// The front group itself (diagnostics).
    pub fn front_group(&self) -> Option<&FetchGroup> {
        self.groups.front()
    }

    /// Consumes the entry returned by [`FetchQueue::head`]; exhausted
    /// groups are retired and their buffers pooled.
    pub fn advance_head(&mut self) {
        let g = self.groups.front_mut().expect("advance past empty queue");
        g.cursor += 1;
        self.pending -= 1;
        if g.cursor == g.entries.len() {
            let mut g = self.groups.pop_front().expect("front exists");
            g.entries.clear();
            self.pool.push(g.entries);
        }
    }

    /// Total unconsumed µops across all groups.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Discards every queued group (fetch redirect), pooling their
    /// buffers.
    pub fn clear(&mut self) {
        while let Some(mut g) = self.groups.pop_front() {
            g.entries.clear();
            self.pool.push(g.entries);
        }
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::Seq;
    use std::collections::BTreeSet;

    const ALL_SETS: [SetId; N_SETS] = [
        SetId::Waiting,
        SetId::IssueReady,
        SetId::WakeupPending,
        SetId::StoreWaiters,
        SetId::ResolvePending,
        SetId::UnresolvedBranches,
        SetId::InflightLoads,
        SetId::InflightStores,
    ];

    /// A small scheduler (8-slot ring, 32-bucket wheel) plus the
    /// sequence number dispatched into each slot, standing in for the
    /// core's `DynInst` ring: wrap-around is a handful of dispatches
    /// away, and results read back as sequence numbers.
    struct Ring {
        s: Scheduler,
        seq: [Seq; 8],
    }

    impl Ring {
        fn new() -> Ring {
            Ring {
                s: Scheduler::new(8, 8, 30),
                seq: [0; 8],
            }
        }

        /// Dispatches `seq` at the tail; returns its slot.
        fn dispatch(&mut self, seq: Seq) -> usize {
            let slot = self.s.on_dispatch();
            self.seq[slot] = seq;
            slot
        }

        fn seqs(&self, slots: &[usize]) -> Vec<Seq> {
            slots.iter().map(|&slot| self.seq[slot]).collect()
        }

        fn contents(&self, set: SetId) -> Vec<Seq> {
            let mut out = Vec::new();
            self.s.collect(set, &mut out);
            self.seqs(&out)
        }

        fn pop_completions(&mut self, cycle: u64) -> Vec<Seq> {
            let mut out = Vec::new();
            self.s.pop_completions(cycle, &mut out);
            self.seqs(&out)
        }
    }

    #[test]
    fn wheel_pops_due_events_in_age_order() {
        let mut r = Ring::new();
        let slot: Vec<usize> = [1, 2, 3, 7].map(|seq| r.dispatch(seq)).into();
        r.s.schedule_completion(10, slot[2]);
        r.s.schedule_completion(5, slot[3]);
        r.s.schedule_completion(5, slot[1]);
        r.s.schedule_completion(12, slot[0]);
        assert!(r.pop_completions(4).is_empty());
        assert_eq!(r.s.next_completion_cycle(), Some(5));
        assert_eq!(r.pop_completions(10), vec![2, 3, 7]);
        assert_eq!(r.s.next_completion_cycle(), Some(12));
        assert_eq!(r.pop_completions(100), vec![1]);
        assert_eq!(r.s.next_completion_cycle(), None);
        // Across the ring wrap, age order is the offset from the head
        // slot, not the slot number.
        for _ in 0..4 {
            r.s.on_commit_head();
        }
        let slot: Vec<usize> = [20, 21, 22, 23, 24, 25].map(|seq| r.dispatch(seq)).into();
        assert_eq!(slot, vec![4, 5, 6, 7, 0, 1]);
        for &s in slot.iter().rev() {
            r.s.schedule_completion(200, s);
        }
        assert_eq!(r.pop_completions(200), vec![20, 21, 22, 23, 24, 25]);
    }

    #[test]
    fn squash_discards_only_younger_entries() {
        let mut r = Ring::new();
        for seq in [1u64, 5, 9] {
            let slot = r.dispatch(seq);
            for set in ALL_SETS {
                r.s.insert(set, slot);
            }
        }
        // The pipeline squash releases younger µops, tail first.
        assert_eq!(r.s.tail_slot().map(|slot| r.seq[slot]), Some(9));
        r.s.on_squash_pop();
        for set in ALL_SETS {
            assert_eq!(r.contents(set), vec![1, 5]);
        }
        assert_eq!(r.s.tail_slot().map(|slot| r.seq[slot]), Some(5));
    }

    #[test]
    fn squash_and_age_order_across_ring_wraparound() {
        let mut r = Ring::new();
        // Fill most of the 8-slot ring...
        for seq in 10..16 {
            let slot = r.dispatch(seq);
            r.s.insert(SetId::Waiting, slot);
        }
        // ...commit 5 heads so later dispatches wrap slots 0..=2.
        for _ in 10..15 {
            r.s.remove(SetId::Waiting, r.s.head_slot());
            r.s.on_commit_head();
        }
        let mut slot_of = std::collections::HashMap::new();
        for seq in 20..26 {
            let slot = r.dispatch(seq);
            slot_of.insert(seq, slot);
            r.s.insert(SetId::Waiting, slot);
            r.s.insert(SetId::InflightLoads, slot);
        }
        // Age order across the wrap: the head is µop 15.
        assert_eq!(r.seq[r.s.head_slot()], 15);
        assert_eq!(r.s.slot_at(2), slot_of[&21]);
        assert_eq!(r.contents(SetId::Waiting), vec![15, 20, 21, 22, 23, 24, 25]);
        assert_eq!(r.s.nth(SetId::Waiting, 3).map(|slot| r.seq[slot]), Some(22));
        assert_eq!(r.s.first(SetId::InflightLoads), Some(slot_of[&20]));
        let mut below = Vec::new();
        r.s.collect_below(SetId::Waiting, slot_of[&23], &mut below);
        assert_eq!(r.seqs(&below), vec![15, 20, 21, 22]);
        // Squash the youngest three (all on wrapped slots).
        for _ in 0..3 {
            r.s.on_squash_pop();
        }
        assert_eq!(r.contents(SetId::Waiting), vec![15, 20, 21, 22]);
        assert_eq!(r.contents(SetId::InflightLoads), vec![20, 21, 22]);
        // Refill the squashed slots: no leakage from the dead µops.
        for seq in 30..33 {
            let slot = r.dispatch(seq);
            r.s.insert(SetId::Waiting, slot);
        }
        assert_eq!(r.contents(SetId::Waiting), vec![15, 20, 21, 22, 30, 31, 32]);
        assert_eq!(r.s.window_len(), 7);
    }

    #[test]
    fn generation_stamps_skip_stale_wheel_events() {
        let mut r = Ring::new();
        r.dispatch(1);
        let s2 = r.dispatch(2);
        r.s.schedule_completion(50, s2);
        r.s.on_squash_pop();
        // The stale event stays in the wheel and keeps feeding the
        // cached minimum (fast-forward jump targets count it)...
        assert_eq!(r.s.next_completion_cycle(), Some(50));
        // ...and the reused slot's new occupant shares its bucket.
        let s3 = r.dispatch(3);
        assert_eq!(s3, s2, "the squashed slot is reclaimed");
        r.s.schedule_completion(50, s3);
        assert_eq!(
            r.pop_completions(50),
            vec![3],
            "stale event for squashed seq 2 must be skipped"
        );
        assert_eq!(r.s.next_completion_cycle(), None);
        // Stale event whose slot was *not* reused: window check.
        let s4 = r.dispatch(4);
        r.s.schedule_completion(60, s4);
        r.s.on_squash_pop();
        assert!(r.pop_completions(60).is_empty());
    }

    #[test]
    fn wheel_overflow_beyond_horizon() {
        // max_latency 30 → 32-bucket ring: deadlines 32 cycles apart
        // collide and the younger goes to the sorted overflow list.
        let mut r = Ring::new();
        let s1 = r.dispatch(1);
        let s2 = r.dispatch(2);
        r.s.schedule_completion(5, s1);
        r.s.schedule_completion(5 + 32, s2);
        assert_eq!(r.s.next_completion_cycle(), Some(5));
        assert_eq!(r.pop_completions(5), vec![1]);
        assert_eq!(r.s.next_completion_cycle(), Some(37));
        assert_eq!(r.pop_completions(37), vec![2]);
        assert_eq!(r.s.next_completion_cycle(), None);
    }

    /// Drives random `schedule_completion` / `pop_completions` traffic
    /// through a wheel of `ring` buckets and checks every drain and
    /// every `next_completion_cycle` against a brute-force event list.
    /// Time follows the pipeline's contract — it only moves forward,
    /// each step either ticks, fast-forwards to the next deadline, or
    /// (with the wheel empty) jumps far ahead, so runs lap the ring
    /// many times — and a `reset()` lands midway through each case.
    fn check_wheel_minimum(name: &'static str, max_latency: u32, ring: usize) {
        protean_testkit::Checker::new(name).cases(64).run_with_rng(
            |_| (),
            |_, rng| {
                let mut s = Scheduler::new(8, 16, max_latency);
                assert_eq!(s.wmask as usize + 1, ring);
                let fill = |s: &mut Scheduler| -> Vec<usize> {
                    (0..16).map(|_| s.on_dispatch()).collect()
                };
                let mut slots = fill(&mut s);
                // Outstanding (deadline, slot) events.
                let mut model: Vec<(u64, usize)> = Vec::new();
                let mut now = rng.gen_range(0..1000u64);
                let sparse = rng.gen_bool(0.5);
                let steps = 600usize;
                let reset_at = rng.gen_range(steps / 4..3 * steps / 4);
                let mut out = Vec::new();
                for step in 0..steps {
                    if step == reset_at {
                        s.reset();
                        model.clear();
                        slots = fill(&mut s);
                        now = rng.gen_range(0..1000u64);
                    }
                    let events = if sparse {
                        usize::from(rng.gen_range(0..8u32) == 0)
                    } else {
                        rng.gen_range(0..4usize)
                    };
                    for _ in 0..events {
                        let done = now + rng.gen_range(1..=u64::from(max_latency) + 1);
                        let slot = slots[rng.gen_range(0..slots.len())];
                        s.schedule_completion(done, slot);
                        model.push((done, slot));
                    }
                    let min = model.iter().map(|&(d, _)| d).min();
                    assert_eq!(s.next_completion_cycle(), min, "step {step} @ {now}");
                    now = match (min, rng.gen_range(0..3u32)) {
                        (Some(min), 0) => min,
                        (None, 0) => now + rng.gen_range(1..(8 * ring) as u64),
                        _ => now + 1,
                    };
                    s.pop_completions(now, &mut out);
                    let mut due: Vec<usize> = model
                        .iter()
                        .filter(|&&(d, _)| d <= now)
                        .map(|&(_, slot)| slot)
                        .collect();
                    model.retain(|&(d, _)| d > now);
                    // Head slot 0 and no commits: age order is slot order.
                    due.sort_unstable();
                    assert_eq!(out, due, "drain at {now}");
                }
            },
        );
    }

    #[test]
    fn indexed_wheel_minimum_matches_brute_force_16_buckets() {
        check_wheel_minimum(
            "indexed_wheel_minimum_matches_brute_force_16_buckets",
            10,
            16,
        );
    }

    #[test]
    fn indexed_wheel_minimum_matches_brute_force_256_buckets() {
        check_wheel_minimum(
            "indexed_wheel_minimum_matches_brute_force_256_buckets",
            200,
            256,
        );
    }

    #[test]
    fn dep_lists_roundtrip_in_registration_order() {
        let mut r = Ring::new();
        let s4 = r.dispatch(4);
        let s8 = r.dispatch(8);
        r.s.register_dep(1, s4);
        r.s.register_dep(1, s8);
        let mut out = Vec::new();
        r.s.drain_deps(1, &mut out);
        assert_eq!(r.seqs(&out), vec![4, 8]);
        out.clear();
        r.s.drain_deps(1, &mut out);
        r.s.drain_deps(0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn flat_dep_lists_unlink_on_squash_and_reset_by_epoch() {
        let mut r = Ring::new();
        for seq in 1..=3 {
            let slot = r.dispatch(seq);
            r.s.register_dep(5, slot);
        }
        // Squash the middle registrant's younger sibling and the middle
        // one itself: both unlink in O(1), the head survives.
        r.s.on_squash_pop();
        r.s.on_squash_pop();
        let mut out = Vec::new();
        r.s.drain_deps(5, &mut out);
        assert_eq!(r.seqs(&out), vec![1]);
        // Epoch reset: parked µops from before reset() read as empty.
        let s9 = r.dispatch(9);
        r.s.register_dep(5, s9);
        r.s.reset();
        out.clear();
        r.s.drain_deps(5, &mut out);
        assert!(out.is_empty());
        assert_eq!(r.s.window_len(), 0);
        // The arena is fully usable after the O(1) reset.
        let s11 = r.dispatch(11);
        r.s.register_dep(5, s11);
        out.clear();
        r.s.drain_deps(5, &mut out);
        assert_eq!(r.seqs(&out), vec![11]);
    }

    #[test]
    fn disambiguation_walks_match_across_backends() {
        // The bitset walks against a plain ordered-set reference, on a
        // window that wraps the 8-slot ring.
        let mut r = Ring::new();
        for seq in 1..=4 {
            r.dispatch(seq);
            r.s.on_commit_head();
        }
        let (mut loads, mut stores) = (BTreeSet::new(), BTreeSet::new());
        let mut slots = Vec::new();
        for seq in 11..=17 {
            let slot = r.dispatch(seq);
            slots.push((seq, slot));
            let (set, reference) = if seq % 2 == 1 {
                (SetId::InflightStores, &mut stores)
            } else {
                (SetId::InflightLoads, &mut loads)
            };
            r.s.insert(set, slot);
            reference.insert(seq);
        }
        for &(seq, slot) in &slots {
            let mut got = Vec::new();
            r.s.for_each_store_older(slot, |q| {
                got.push(r.seq[q]);
                true
            });
            let want: Vec<Seq> = stores.range(..seq).rev().copied().collect();
            assert_eq!(got, want, "stores older than {seq}, youngest first");
            let mut got = Vec::new();
            r.s.for_each_load_younger(slot, |q| {
                got.push(r.seq[q]);
                true
            });
            let want: Vec<Seq> = loads.range(seq + 1..).copied().collect();
            assert_eq!(got, want, "loads younger than {seq}, oldest first");
        }
        // An early stop ends the walk.
        let mut got = Vec::new();
        r.s.for_each_load_younger(slots[0].1, |q| {
            got.push(r.seq[q]);
            r.seq[q] != 14
        });
        assert_eq!(got, vec![12, 14]);
    }

    #[test]
    fn occupancy_high_water_marks() {
        let mut r = Ring::new();
        let slot: Vec<usize> = [1, 2, 3].map(|seq| r.dispatch(seq)).into();
        for &s in &slot {
            r.s.insert(SetId::Waiting, s);
        }
        r.s.remove(SetId::Waiting, slot[2]);
        r.s.insert(SetId::Waiting, slot[2]);
        assert_eq!(r.s.iq_hwm(), 3);
        r.s.schedule_completion(4, slot[0]);
        r.s.schedule_completion(4, slot[1]);
        r.pop_completions(4);
        r.s.schedule_completion(9, slot[2]);
        assert_eq!(r.s.wheel_hwm(), 2);
        r.s.reset();
        assert_eq!((r.s.iq_hwm(), r.s.wheel_hwm()), (0, 0));
    }

    #[test]
    fn progress_flag_lifecycle() {
        let mut s = Scheduler::new(8, 8, 30);
        assert!(!s.progress());
        s.mark_progress();
        assert!(s.progress());
        s.clear_progress();
        assert!(!s.progress());
    }

    fn entry(idx: u32) -> FetchEntry {
        FetchEntry {
            idx,
            pred_next: Some(idx + 1),
            pred_taken: false,
            hist_snapshot: 0,
            rsb_snapshot: Rc::from(&[][..]),
        }
    }

    #[test]
    fn fetch_queue_groups_drain_in_order() {
        let mut q = FetchQueue::default();
        assert!(q.head().is_none());
        let mut g = q.begin_group();
        g.push(entry(0));
        g.push(entry(1));
        q.push_group(g, 10);
        let mut g = q.begin_group();
        g.push(entry(2));
        q.push_group(g, 11);
        assert_eq!(q.pending(), 3);
        assert_eq!(q.head_ready_cycle(), Some(10));

        let (e, rc) = q.head().expect("head");
        assert_eq!((e.idx, rc), (0, 10));
        q.advance_head();
        // The front group is handed over as a slice; the cursor tracks
        // what rename has consumed.
        let rem: Vec<u32> = q.groups[0].remaining().iter().map(|e| e.idx).collect();
        assert_eq!(rem, vec![1]);
        let (e, rc) = q.head().expect("head");
        assert_eq!((e.idx, rc), (1, 10));
        q.advance_head();
        // First group exhausted: head moves to the second group.
        let (e, rc) = q.head().expect("head");
        assert_eq!((e.idx, rc), (2, 11));
        assert_eq!(q.pending(), 1);
        q.advance_head();
        assert!(q.head().is_none());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn fetch_queue_empty_group_and_clear_recycle() {
        let mut q = FetchQueue::default();
        let g = q.begin_group();
        q.push_group(g, 5); // empty: no group queued
        assert!(q.head().is_none());
        let mut g = q.begin_group();
        g.push(entry(7));
        q.push_group(g, 6);
        assert_eq!(q.pending(), 1);
        q.clear();
        assert_eq!(q.pending(), 0);
        assert!(q.head().is_none());
        // Pooled buffers come back empty.
        assert!(q.begin_group().is_empty());
    }
}
