//! The indexed event queue behind [`Sim`](crate::Sim).
//!
//! Layout (DESIGN.md §12): a **slab arena** of event cells with a free
//! list (O(1) slot reuse, no per-event map), an **index-mapped four-ary
//! min-heap** ordered by timestamp alone, and a **batched
//! same-timestamp drain**: when the head of the heap is reached, every
//! event sharing its timestamp is popped into a reusable batch buffer
//! in one pass, sorted once by tie-break key, and dispatched by cursor.
//!
//! The hot structures are structure-of-arrays and deliberately small:
//!
//! * `heap_at: Vec<SimTime>` — 8-byte ranks; a four-child sibling group
//!   is 32 bytes, so a sift level reads one or two cache lines instead
//!   of the three a heap of inline `(time, key, payload…)` entries
//!   costs. The heap is a four-root forest (children of `i` live at
//!   `4i + 4 ..= 4i + 7`, the parent of `j` is `j/4 - 1`), which keeps
//!   sibling groups contiguous without padding arithmetic.
//! * `heap_slot: Vec<u32>` — parallel to `heap_at`; maps heap positions
//!   back to arena slots.
//! * `slot_pos: Vec<u32>` — dense per-slot heap positions (or the
//!   [`IN_BATCH`]/[`FREE`] sentinels), giving O(log n) cancel and
//!   reschedule by index instead of tombstones. Kept out of the payload
//!   cells so sift position-updates write a compact array.
//! * `slot_key: Vec<u64>` — dense per-slot tie-break keys, read when a
//!   same-timestamp batch is sorted.
//!
//! Sifts are hole-based: the moving entry is held in locals and written
//! once at its final position.
//!
//! Determinism contract: pop order is *exactly* the total order
//! `(time, ord_key)` the old `BinaryHeap` implementation produced. The
//! caller must keep tie-break keys unique among pending events (the
//! kernel derives them bijectively from the global insertion counter),
//! which makes the per-batch key sort a total order. Before each batch
//! entry is handed out the heap head is consulted, so an event scheduled
//! *during* the batch at the same timestamp (e.g. under
//! [`TieBreak::Lifo`](crate::TieBreak), where it outranks the whole
//! batch) is folded in and the remaining batch re-sorted. The
//! reference-model proptest in [`crate::kernel`] replays random
//! schedule/cancel/reschedule sequences through the old heap and this
//! queue and asserts identical pop sequences.

use crate::time::SimTime;

/// Handle for a scheduled event, usable to cancel or reschedule it
/// before it fires.
///
/// Internally packs the event's slab slot index with the slot's
/// generation counter, so a handle held across the event's execution
/// (or cancellation) goes stale instead of aliasing whatever event
/// reuses the slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> EventId {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A batch member: the slot plus the tie-break key it was batched
/// under. The key doubles as an incarnation check — a slot rescheduled
/// out of the batch and folded back in later carries a fresh key, so
/// its stale entry no longer matches `slot_key` and is skipped.
#[derive(Clone, Copy)]
struct BatchEntry {
    slot: u32,
    key: u64,
}

/// `slot_pos` sentinel: the slot is in the batch buffer, not the heap.
const IN_BATCH: u32 = u32::MAX;
/// `slot_pos` sentinel: the slot is on the free list.
const FREE: u32 = u32::MAX - 1;

struct Cell<T> {
    generation: u32,
    /// `None` once the event executed or was cancelled. A cancelled slot
    /// that already moved to the batch keeps its arena slot (payload
    /// dropped eagerly) until the batch cursor passes it, so the batch
    /// never dangles into a reused slot.
    payload: Option<T>,
}

/// Index-mapped four-ary heap over a slab arena, with batched
/// same-timestamp draining. Not a general priority queue: the caller
/// (the kernel) guarantees inserts never predate the current batch
/// timestamp and keeps keys unique, which is what makes the batch sound.
pub(crate) struct EventQueue<T> {
    cells: Vec<Cell<T>>,
    /// Parallel to `cells`: index into the heap arrays, or [`IN_BATCH`] /
    /// [`FREE`].
    slot_pos: Vec<u32>,
    /// Parallel to `cells`: the event's current tie-break key.
    slot_key: Vec<u64>,
    free: Vec<u32>,
    heap_at: Vec<SimTime>,
    heap_slot: Vec<u32>,
    batch: Vec<BatchEntry>,
    batch_cursor: usize,
    batch_time: SimTime,
    /// Live (scheduled, not yet executed or cancelled) events.
    pending: usize,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> EventQueue<T> {
        EventQueue {
            cells: Vec::new(),
            slot_pos: Vec::new(),
            slot_key: Vec::new(),
            free: Vec::new(),
            heap_at: Vec::new(),
            heap_slot: Vec::new(),
            batch: Vec::new(),
            batch_cursor: 0,
            batch_time: SimTime::ZERO,
            pending: 0,
        }
    }

    /// Number of live events (exact: cancelled events leave immediately).
    pub(crate) fn len(&self) -> usize {
        self.pending
    }

    /// Schedules a payload at `(at, key)` and returns its handle. `key`
    /// must be unique among pending events.
    pub(crate) fn insert(&mut self, at: SimTime, key: u64, payload: T) -> EventId {
        let slot = match self.free.pop() {
            Some(s) => {
                let cell = &mut self.cells[s as usize];
                cell.payload = Some(payload);
                s
            }
            None => {
                let s = self.cells.len() as u32;
                self.cells.push(Cell { generation: 0, payload: Some(payload) });
                self.slot_pos.push(FREE);
                self.slot_key.push(0);
                s
            }
        };
        self.slot_key[slot as usize] = key;
        let generation = self.cells[slot as usize].generation;
        self.pending += 1;
        self.heap_push(at, slot);
        EventId::new(slot, generation)
    }

    /// Whether `id` refers to a live event.
    pub(crate) fn contains(&self, id: EventId) -> bool {
        self.live_slot(id).is_some()
    }

    /// The live slot index behind `id`, if the handle is not stale.
    fn live_slot(&self, id: EventId) -> Option<usize> {
        let slot = id.slot() as usize;
        let cell = self.cells.get(slot)?;
        (cell.generation == id.generation() && cell.payload.is_some()).then_some(slot)
    }

    /// Cancels a live event, removing it from the queue immediately.
    /// Returns `false` for stale handles (already executed, cancelled,
    /// or rescheduled-and-executed).
    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.live_slot(id) else { return false };
        self.pending -= 1;
        self.cells[slot].payload = None;
        let pos = self.slot_pos[slot];
        if pos == IN_BATCH {
            // The batch buffer still points at the slot; it is freed when
            // the cursor passes it (see `skip_consumed_batch_entries`).
        } else {
            self.heap_remove(pos as usize);
            self.free_slot(slot);
        }
        true
    }

    /// Moves a live event to a new `(at, key)` rank, keeping its handle
    /// valid. Returns a mutable borrow of its payload so the caller can
    /// restamp bookkeeping (the kernel updates the trace sequence
    /// number), or `None` for stale handles.
    pub(crate) fn reschedule(&mut self, id: EventId, at: SimTime, key: u64) -> Option<&mut T> {
        let slot = self.live_slot(id)?;
        let pos = self.slot_pos[slot];
        self.slot_key[slot] = key;
        if pos == IN_BATCH {
            // Leaving the batch: the stale batch entry is skipped when the
            // cursor reaches it (its key no longer matches `slot_key`).
            self.heap_push(at, slot as u32);
        } else {
            self.heap_remove(pos as usize);
            self.heap_push(at, slot as u32);
        }
        self.cells[slot].payload.as_mut()
    }

    /// The timestamp of the next live event, if any. `&mut` because
    /// cancelled batch leftovers are retired lazily here and in
    /// [`pop`](EventQueue::pop).
    pub(crate) fn peek(&mut self) -> Option<SimTime> {
        self.skip_consumed_batch_entries();
        if self.batch_cursor < self.batch.len() {
            return Some(self.batch_time);
        }
        self.root_at()
    }

    /// Removes and returns the next event in `(time, key)` order,
    /// refilling the batch from the heap (all events at the minimum
    /// timestamp, in one pass) when the previous batch is exhausted.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        self.skip_consumed_batch_entries();
        if self.batch_cursor >= self.batch.len() {
            // Fresh drain. A singleton timestamp — the common case in
            // sparse schedules — skips the batch buffer entirely.
            let (at, slot) = self.heap_pop_root()?;
            self.batch_time = at;
            if self.root_at() != Some(at) {
                let slot = slot as usize;
                return self.take_slot(slot).map(|p| (at, p));
            }
            self.mark_batched(slot);
            self.drain_ties_into_batch();
        } else if self.root_at() == Some(self.batch_time) {
            // Merge check: events scheduled *during* the batch at its
            // timestamp (LIFO does this on every same-time schedule) are
            // folded in and the remaining batch re-sorted by key.
            self.drain_ties_into_batch();
        }
        self.skip_consumed_batch_entries();
        let cursor = self.batch_cursor;
        let next = self.batch[cursor];
        self.batch_cursor += 1;
        self.take_slot(next.slot as usize).map(|p| (self.batch_time, p))
    }

    /// Pops every heap event at `batch_time` into the batch buffer, then
    /// sorts the undispatched batch suffix by tie-break key. Keys are
    /// unique, so the sort is a total (deterministic) order.
    fn drain_ties_into_batch(&mut self) {
        while self.root_at() == Some(self.batch_time) {
            let Some((_, slot)) = self.heap_pop_root() else { break };
            self.mark_batched(slot);
        }
        let cursor = self.batch_cursor;
        if let Some(tail) = self.batch.get_mut(cursor..) {
            tail.sort_unstable_by_key(|e| e.key);
        }
    }

    /// Advances the batch cursor past entries that no longer belong to
    /// the batch: cancelled slots (freed here) and rescheduled slots
    /// (already back in the heap under a fresh key; not freed).
    fn skip_consumed_batch_entries(&mut self) {
        while self.batch_cursor < self.batch.len() {
            let entry = self.batch[self.batch_cursor];
            let slot = entry.slot as usize;
            if self.slot_pos[slot] != IN_BATCH || self.slot_key[slot] != entry.key {
                self.batch_cursor += 1; // rescheduled away; slot lives on
            } else if self.cells[slot].payload.is_none() {
                self.batch_cursor += 1; // cancelled while batched
                self.free_slot(slot);
            } else {
                break;
            }
        }
        if self.batch_cursor >= self.batch.len() && !self.batch.is_empty() {
            self.batch.clear();
            self.batch_cursor = 0;
        }
    }

    fn mark_batched(&mut self, slot: u32) {
        let key = self.slot_key[slot as usize];
        self.slot_pos[slot as usize] = IN_BATCH;
        self.batch.push(BatchEntry { slot, key });
    }

    /// Takes the payload out of a slot and frees it.
    fn take_slot(&mut self, slot: usize) -> Option<T> {
        let payload = self.cells[slot].payload.take();
        debug_assert!(payload.is_some(), "consumed a dead slot");
        self.pending -= 1;
        self.free_slot(slot);
        payload
    }

    /// Returns a slot to the free list, bumping its generation so
    /// outstanding handles go stale.
    fn free_slot(&mut self, slot: usize) {
        let cell = &mut self.cells[slot];
        cell.generation = cell.generation.wrapping_add(1);
        debug_assert!(cell.payload.is_none());
        self.slot_pos[slot] = FREE;
        self.free.push(slot as u32);
    }

    // ---- four-ary index-mapped heap (four-root forest) ----
    //
    // Children of `i` live at `4i + 4 ..= 4i + 7`; the parent of `j ≥ 4`
    // is `j/4 - 1`; positions 0..4 are independent roots (the minimum is
    // found by scanning them — one hot cache line). The +4 offset keeps
    // every sibling group contiguous from position 0, and four 8-byte
    // ranks span at most two cache lines per sift level. Sifts hold the
    // moving entry in locals ("hole" style), so each level costs one
    // rank move, one slot move, and one dense position write.

    /// Position of the minimum root, breaking rank ties by position
    /// (deterministic; intra-timestamp order is the batch sort's job).
    fn root_pos(&self) -> Option<usize> {
        let len = self.heap_at.len();
        if len == 0 {
            return None;
        }
        let end = len.min(4);
        let roots = self.heap_at.get(..end)?;
        if let [a, b, c, d] = *roots {
            // Same branchless tournament as the sift's child scan.
            let (lo_at, lo) = if b < a { (b, 1) } else { (a, 0) };
            let (hi_at, hi) = if d < c { (d, 3) } else { (c, 2) };
            return Some(if hi_at < lo_at { hi } else { lo });
        }
        let mut best = 0;
        let mut i = 1;
        while i < end {
            if self.heap_at[i] < self.heap_at[best] {
                best = i;
            }
            i += 1;
        }
        Some(best)
    }

    /// The minimum timestamp currently in the heap (batch excluded).
    fn root_at(&self) -> Option<SimTime> {
        self.root_pos().map(|p| self.heap_at[p])
    }

    fn heap_push(&mut self, at: SimTime, slot: u32) {
        let pos = self.heap_at.len();
        self.heap_at.push(at);
        self.heap_slot.push(slot);
        self.sift_up(pos);
    }

    fn heap_pop_root(&mut self) -> Option<(SimTime, u32)> {
        let pos = self.root_pos()?;
        self.heap_remove(pos)
    }

    /// Removes the heap entry at `pos` (an arbitrary position), restoring
    /// the heap property around the hole. Returns the removed entry.
    fn heap_remove(&mut self, pos: usize) -> Option<(SimTime, u32)> {
        let last = self.heap_at.len().checked_sub(1)?;
        self.heap_at.swap(pos, last);
        self.heap_slot.swap(pos, last);
        let at = self.heap_at.pop()?;
        let slot = self.heap_slot.pop()?;
        if pos < self.heap_at.len() {
            // The replacement came from the bottom; it may violate either
            // direction, but only one sift is ever needed. Root pops
            // (`pos < 4`, the hot path) go straight to the down-sift.
            let parent_violated = pos >= 4 && {
                let parent = pos / 4 - 1;
                self.heap_at[parent] > self.heap_at[pos]
            };
            if parent_violated {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        Some((at, slot))
    }

    fn sift_up(&mut self, mut pos: usize) {
        let at = self.heap_at[pos];
        let slot = self.heap_slot[pos];
        while pos >= 4 {
            let parent = pos / 4 - 1;
            if self.heap_at[parent] <= at {
                break;
            }
            self.heap_at[pos] = self.heap_at[parent];
            let moved = self.heap_slot[parent];
            self.heap_slot[pos] = moved;
            self.slot_pos[moved as usize] = pos as u32;
            pos = parent;
        }
        self.heap_at[pos] = at;
        self.heap_slot[pos] = slot;
        self.slot_pos[slot as usize] = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let at = self.heap_at[pos];
        let slot = self.heap_slot[pos];
        let len = self.heap_at.len();
        loop {
            let first_child = 4 * pos + 4;
            if first_child >= len {
                break;
            }
            let fan_end = (first_child + 4).min(len);
            let Some(fan) = self.heap_at.get(first_child..fan_end) else {
                break;
            };
            let mut best = first_child;
            let mut best_at = *fan.first().unwrap_or(&at);
            if let [a, b, c, d] = *fan {
                // Pairwise tournament: three independent strict-< compares
                // (earlier index wins ties, same as the scan below) that
                // lower to conditional moves — random ranks make a
                // sequential scan's branches unpredictable.
                let second = first_child + 1;
                let third = first_child + 2;
                let fourth = first_child + 3;
                let (lo_at, lo) = if b < a { (b, second) } else { (a, first_child) };
                let (hi_at, hi) = if d < c { (d, fourth) } else { (c, third) };
                if hi_at < lo_at {
                    best = hi;
                    best_at = hi_at;
                } else {
                    best = lo;
                    best_at = lo_at;
                }
            } else {
                for (off, &child_at) in fan.iter().enumerate().skip(1) {
                    if child_at < best_at {
                        best = first_child + off;
                        best_at = child_at;
                    }
                }
            }
            if at <= best_at {
                break;
            }
            self.heap_at[pos] = best_at;
            let moved = self.heap_slot[best];
            self.heap_slot[pos] = moved;
            self.slot_pos[moved as usize] = pos as u32;
            pos = best;
        }
        self.heap_at[pos] = at;
        self.heap_slot[pos] = slot;
        self.slot_pos[slot as usize] = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(item) = q.pop() {
            out.push(item);
        }
        out
    }

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q = EventQueue::new();
        for (i, (t, k)) in [(5u64, 0u64), (1, 2), (1, 1), (3, 0), (1, 3)].iter().enumerate() {
            q.insert(SimTime::from_secs(*t), *k, i as u32);
        }
        assert_eq!(q.len(), 5);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(order, vec![2, 1, 4, 3, 0]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_removes_eagerly_and_len_is_exact() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_secs(1), 0, 0u32);
        let b = q.insert(SimTime::from_secs(2), 1, 1);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(a), "double cancel is a stale handle");
        assert_eq!(q.peek(), Some(SimTime::from_secs(2)));
        assert!(q.contains(b));
        assert!(!q.contains(a));
    }

    #[test]
    fn slot_reuse_goes_through_generations() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_secs(1), 0, 0u32);
        assert!(q.cancel(a));
        let b = q.insert(SimTime::from_secs(1), 1, 1);
        // `b` reuses a's slot; a's handle must stay stale.
        assert!(!q.cancel(a));
        assert!(q.contains(b));
        assert_eq!(drain(&mut q), vec![(SimTime::from_secs(1), 1)]);
    }

    #[test]
    fn cancel_inside_batch_is_honored() {
        let mut q = EventQueue::new();
        let _a = q.insert(SimTime::from_secs(1), 0, 0u32);
        let b = q.insert(SimTime::from_secs(1), 1, 1);
        let _c = q.insert(SimTime::from_secs(1), 2, 2);
        // Popping the first batches the others; cancelling b afterwards
        // (as the first event's action would) must still suppress it.
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 0)));
        assert!(q.cancel(b));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn reschedule_out_of_batch_and_from_heap() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_secs(1), 0, 0u32);
        let b = q.insert(SimTime::from_secs(1), 1, 1);
        let c = q.insert(SimTime::from_secs(9), 2, 2);
        // Heap reschedule: move c forward.
        assert!(q.reschedule(c, SimTime::from_secs(2), 3).is_some());
        // Batch reschedule: pop hands out a and batches b, then push b to
        // t=3.
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 0)));
        assert!(q.reschedule(b, SimTime::from_secs(3), 4).is_some());
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 1)));
        assert_eq!(q.pop(), None);
        let stale = q.reschedule(a, SimTime::from_secs(5), 5);
        assert!(stale.is_none(), "executed event cannot be rescheduled");
    }

    #[test]
    fn reschedule_within_the_batch_timestamp_is_not_double_dispatched() {
        let mut q = EventQueue::new();
        let _a = q.insert(SimTime::from_secs(1), 0, 0u32);
        let b = q.insert(SimTime::from_secs(1), 1, 1);
        let _c = q.insert(SimTime::from_secs(1), 2, 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 0)));
        // b leaves the batch and re-enters the heap at the same
        // timestamp with a later key: it must fire exactly once, after c.
        assert!(q.reschedule(b, SimTime::from_secs(1), 3).is_some());
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interloper_scheduled_mid_batch_fires_in_key_order() {
        let mut q = EventQueue::new();
        q.insert(SimTime::from_secs(1), 10, 0u32);
        q.insert(SimTime::from_secs(1), 20, 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 0)));
        // A same-timestamp event with a smaller key than the remaining
        // batch entry (the LIFO pattern) must fire before it.
        q.insert(SimTime::from_secs(1), 15, 2);
        q.insert(SimTime::from_secs(1), 25, 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 3)));
        assert_eq!(q.pop(), None);
    }
}
