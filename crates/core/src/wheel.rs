//! A hashed timer wheel over protocol [`Tick`]s.
//!
//! The relay's flow table used to discover expired work by scanning every
//! flow on every 50 ms poll — O(flows) per tick, with a scratch
//! allocation to boot. The wheel inverts that: deadlines are registered
//! once when the work is created (a gather starts, a flow is admitted),
//! and [`poll_expired`](TimerWheel::poll_expired) touches only the
//! buckets the clock has swept past since the previous poll. A poll that
//! finds nothing due does no allocation and never looks at a live flow.
//!
//! Design notes:
//!
//! * **Hashed, not hierarchical**: a deadline lands in bucket
//!   `(deadline / granularity) % buckets`. Entries whose deadline lies
//!   beyond the wheel's horizon simply stay in their bucket across
//!   rotations and are re-examined once per rotation — a deliberate
//!   trade: `O(1)` insert, no cascade step, and the occasional re-check
//!   costs one comparison.
//! * **Exact firing at the boundary**: the bucket the current time falls
//!   into is swept *partially* (entries due now fire, the rest stay) and
//!   re-swept on the next poll, so a deadline fires on the first poll
//!   with `now >= deadline` — never early, never a bucket late.
//! * **Lazy cancellation**: there are no timer handles. Callers
//!   re-validate when an entry fires (is the gather still unflushed? is
//!   the flow actually idle?) and either act or re-arm. Stale entries
//!   cost one match arm each.
//! * **Bucket recycling**: a bucket the sweep leaves empty gives its
//!   storage to a short spare list, and [`schedule`](TimerWheel::schedule)
//!   starts an empty bucket from there. Deadlines cluster a fixed
//!   distance ahead of the clock, so only a handful of buckets hold
//!   entries at any time; without recycling every one of the buckets
//!   would keep the capacity of its busiest moment and the wheel's
//!   footprint would grow with elapsed time until a full rotation, then
//!   sit at `buckets ×` the busiest bucket. With it the footprint follows
//!   the live entries, and a steady load still allocates nothing: the
//!   bucket being emptied is the one the next to fill is waiting for.

use crate::time::Tick;

/// Emptied buckets kept for reuse; storage beyond that is freed. Enough
/// for a driver that polls every few bucket widths (each poll empties,
/// and each interval starts, that many buckets) without holding more
/// than a few buckets' worth of idle memory.
const SPARE_BUCKETS: usize = 8;

/// A hashed timer wheel mapping deadlines to caller-defined keys.
#[derive(Clone, Debug)]
pub struct TimerWheel<K> {
    /// Bucket width in milliseconds.
    granularity_ms: u64,
    /// The buckets; each holds `(deadline, key)` pairs in arbitrary order.
    buckets: Vec<Vec<(Tick, K)>>,
    /// Storage of buckets the sweep emptied (all empty, all with
    /// capacity), at most [`SPARE_BUCKETS`] of them.
    spare: Vec<Vec<(Tick, K)>>,
    /// The next bucket-time (in `granularity_ms` units) to sweep; only
    /// ever advances.
    cursor: u64,
    /// Live entries across all buckets.
    len: usize,
}

impl<K> TimerWheel<K> {
    /// A wheel with the given bucket width and count (horizon =
    /// `granularity_ms × buckets`).
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(granularity_ms: u64, buckets: usize) -> Self {
        assert!(granularity_ms > 0, "zero granularity");
        assert!(buckets > 0, "zero buckets");
        TimerWheel {
            granularity_ms,
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            spare: Vec::with_capacity(SPARE_BUCKETS),
            cursor: 0,
            len: 0,
        }
    }

    /// Number of pending entries (including stale ones not yet fired).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register `key` to fire once `now >= deadline`.
    ///
    /// Deadlines already in the past are delivered on the next poll.
    pub fn schedule(&mut self, deadline: Tick, key: K) {
        // A deadline whose natural bucket the cursor has already swept
        // would wait a full rotation; clamp it to the cursor's bucket so
        // the next poll delivers it.
        let bucket_time = (deadline.0 / self.granularity_ms).max(self.cursor);
        let idx = (bucket_time % self.buckets.len() as u64) as usize;
        let bucket = &mut self.buckets[idx];
        if bucket.capacity() == 0 {
            if let Some(storage) = self.spare.pop() {
                *bucket = storage;
            }
        }
        bucket.push((deadline, key));
        self.len += 1;
    }

    /// The earliest pending deadline, exactly (not rounded to a bucket),
    /// or `None` when the wheel is empty. Drivers sleep until it.
    ///
    /// Scans buckets in sweep order from the cursor. Every entry in the
    /// bucket `q` places past the cursor is due no earlier than that
    /// bucket's start: a deadline the cursor had already passed at
    /// scheduling sits in the cursor's own bucket, and an entry beyond
    /// the horizon only later still. So the scan stops at the first
    /// bucket whose start exceeds the minimum found so far, and costs
    /// `O(buckets up to the earliest entry + entries in them)`.
    pub fn next_deadline(&self) -> Option<Tick> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        let mut best: Option<u64> = None;
        for q in 0..n {
            let next_start = (self.cursor + q + 1).saturating_mul(self.granularity_ms);
            let bucket = &self.buckets[((self.cursor + q) % n) as usize];
            for &(deadline, _) in bucket {
                best = Some(best.map_or(deadline.0, |b| b.min(deadline.0)));
            }
            if best.is_some_and(|b| b < next_start) {
                break;
            }
        }
        best.map(Tick)
    }

    /// Move every entry of bucket `idx` due by `now` into `out`; if that
    /// empties the bucket, recycle its storage.
    fn sweep_bucket(&mut self, idx: usize, now: Tick, out: &mut Vec<(Tick, K)>) {
        let bucket = &mut self.buckets[idx];
        let mut i = 0;
        while i < bucket.len() {
            if bucket[i].0 .0 <= now.0 {
                out.push(bucket.swap_remove(i));
                self.len -= 1;
            } else {
                i += 1;
            }
        }
        if bucket.is_empty() && bucket.capacity() != 0 {
            let storage = std::mem::take(bucket);
            if self.spare.len() < SPARE_BUCKETS {
                self.spare.push(storage);
            }
        }
    }

    /// Pop every entry with `deadline <= now` into `out` (appending, in
    /// bucket-sweep order), advancing the cursor. Reuses `out`'s capacity
    /// — an idle poll allocates nothing.
    ///
    /// Cost is `O(buckets swept + entries fired)`, and a catch-up after
    /// any gap is capped at one sweep of every bucket: a gap of ≥ one
    /// rotation visits each bucket exactly once rather than once per
    /// elapsed bucket-time (a suspended daemon or a simulator jumping
    /// virtual time hours ahead must not spin).
    pub fn poll_expired(&mut self, now: Tick, out: &mut Vec<(Tick, K)>) {
        // Re-arm monotonicity: the cursor never moves backwards, so a
        // deadline re-armed by a fired entry lands at or ahead of the
        // sweep (never in a bucket the sweep silently skipped).
        let swept_from = self.cursor;
        let now_bucket = now.0 / self.granularity_ms;
        let n = self.buckets.len() as u64;
        if now_bucket > self.cursor && now_bucket - self.cursor >= n {
            // Long gap: one full rotation covers every entry once.
            for idx in 0..self.buckets.len() {
                self.sweep_bucket(idx, now, out);
            }
            self.cursor = now_bucket;
            debug_assert!(self.cursor >= swept_from, "wheel cursor moved backwards");
            return;
        }
        while self.cursor <= now_bucket {
            let idx = (self.cursor % n) as usize;
            self.sweep_bucket(idx, now, out);
            if self.cursor == now_bucket {
                // The current bucket is only partially elapsed: entries
                // due later this bucket stay, and the cursor stays so the
                // next poll re-sweeps it.
                break;
            }
            self.cursor += 1;
        }
        debug_assert!(self.cursor >= swept_from, "wheel cursor moved backwards");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries' worth of storage the wheel holds, buckets and spares.
    fn capacity<K>(w: &TimerWheel<K>) -> usize {
        w.buckets.iter().chain(&w.spare).map(Vec::capacity).sum()
    }

    fn drain(w: &mut TimerWheel<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.poll_expired(Tick(now), &mut out);
        let mut keys: Vec<u32> = out.into_iter().map(|(_, k)| k).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn fires_exactly_at_deadline() {
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(1_234), 1);
        assert!(drain(&mut w, 1_233).is_empty(), "must not fire early");
        assert_eq!(drain(&mut w, 1_234), vec![1], "must fire at the boundary");
        assert!(w.is_empty());
    }

    #[test]
    fn deadline_on_bucket_boundary() {
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(100), 7); // exactly the start of a bucket
        assert!(drain(&mut w, 99).is_empty());
        assert_eq!(drain(&mut w, 100), vec![7]);
    }

    #[test]
    fn past_deadline_fires_on_next_poll() {
        let mut w = TimerWheel::new(50, 64);
        let mut out = Vec::new();
        w.poll_expired(Tick(10_000), &mut out); // advance cursor
        w.schedule(Tick(3), 9); // long past; natural bucket already swept
        assert_eq!(drain(&mut w, 10_000), vec![9]);
    }

    #[test]
    fn beyond_horizon_survives_rotation() {
        // Horizon = 50 ms × 8 buckets = 400 ms; a 1-second deadline wraps
        // twice and still fires exactly once, at the right time.
        let mut w = TimerWheel::new(50, 8);
        w.schedule(Tick(1_000), 3);
        for now in (0..1_000).step_by(40) {
            assert!(drain(&mut w, now).is_empty(), "fired early at {now}");
        }
        assert_eq!(drain(&mut w, 1_000), vec![3]);
    }

    #[test]
    fn skipped_polls_deliver_everything() {
        let mut w = TimerWheel::new(50, 16);
        for k in 0..100u32 {
            w.schedule(Tick(k as u64 * 37), k);
        }
        assert_eq!(w.len(), 100);
        // One giant jump collects all of them.
        let fired = drain(&mut w, 100 * 37);
        assert_eq!(fired, (0..100).collect::<Vec<_>>());
        assert!(w.is_empty());
    }

    #[test]
    fn partial_bucket_is_reswept() {
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(120), 1);
        w.schedule(Tick(140), 2);
        assert_eq!(drain(&mut w, 125), vec![1]); // same bucket, only #1 due
        assert_eq!(drain(&mut w, 140), vec![2]); // re-swept, #2 fires
    }

    #[test]
    fn giant_time_jump_is_one_rotation_not_a_spin() {
        // A day-long gap must complete instantly (one bucket sweep) and
        // still fire everything due while keeping future entries.
        let mut w = TimerWheel::new(50, 64);
        w.schedule(Tick(500), 1);
        let day = 24 * 3600 * 1000;
        w.schedule(Tick(day + 10_000), 2);
        assert_eq!(drain(&mut w, day), vec![1]);
        assert_eq!(w.len(), 1);
        // The wheel keeps working after the jump: exact firing resumes.
        assert!(drain(&mut w, day + 9_999).is_empty());
        assert_eq!(drain(&mut w, day + 10_000), vec![2]);
    }

    #[test]
    fn idle_poll_allocates_nothing() {
        let mut w: TimerWheel<u32> = TimerWheel::new(50, 64);
        w.schedule(Tick(1_000_000), 5);
        let mut out: Vec<(Tick, u32)> = Vec::new();
        w.poll_expired(Tick(500), &mut out);
        assert!(out.is_empty());
        assert_eq!(out.capacity(), 0, "idle poll must not allocate");
    }

    #[test]
    fn footprint_follows_live_entries_not_elapsed_time() {
        // The relay's shape: every 50 ms poll, a batch of deadlines one
        // second ahead. ~20 buckets hold entries at any moment; before
        // recycling all 256 kept their busiest capacity after the first
        // rotation (16× the live entries here).
        let per_tick = 100u32;
        let mut w: TimerWheel<u32> = TimerWheel::new(50, 256);
        let mut out = Vec::new();
        let mut settled = None;
        for tick in 0..3 * 256 + 40u64 {
            let now = tick * 50;
            out.clear();
            w.poll_expired(Tick(now), &mut out);
            for k in 0..per_tick {
                w.schedule(Tick(now + 1_000), k);
            }
            if tick < 40 {
                continue; // first deadlines not yet due: still filling
            }
            assert_eq!(out.len(), per_tick as usize, "tick {tick}");
            assert!(
                capacity(&w) <= 3 * w.len(),
                "tick {tick}: {} entries of storage for {} live",
                capacity(&w),
                w.len()
            );
            // Steady state allocates nothing: the bucket just emptied is
            // the storage the bucket now starting to fill picks up, so
            // the total never moves again.
            assert_eq!(
                *settled.get_or_insert(capacity(&w)),
                capacity(&w),
                "tick {tick}"
            );
        }
    }

    /// `next_deadline` against a brute-force minimum over the live
    /// entries, through random schedules and polls: deadlines in the
    /// partly swept cursor bucket, in the past, more than one rotation
    /// out, and an empty wheel.
    #[test]
    fn next_deadline_matches_brute_force_min() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Horizon 400 ms, so multi-rotation deadlines are common.
            let mut w: TimerWheel<u32> = TimerWheel::new(50, 8);
            let mut live: Vec<u64> = Vec::new();
            let mut now = 0u64;
            let mut out = Vec::new();
            for step in 0..400u32 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let deadline = match rng.gen_range(0..4) {
                            // Same bucket as `now`, possibly already due.
                            0 => (now / 50) * 50 + rng.gen_range(0..50u64),
                            // Past.
                            1 => now.saturating_sub(rng.gen_range(0..200u64)),
                            // Within the horizon.
                            2 => now + rng.gen_range(0..400u64),
                            // Several rotations out.
                            _ => now + rng.gen_range(400..3_000u64),
                        };
                        w.schedule(Tick(deadline), step);
                        live.push(deadline);
                    }
                    5..=8 => {
                        now += rng.gen_range(0..120u64);
                        out.clear();
                        w.poll_expired(Tick(now), &mut out);
                        assert!(out.iter().all(|(t, _)| t.0 <= now));
                        live.retain(|&t| t > now);
                    }
                    _ => {
                        // Drain everything: the empty wheel.
                        now += 3_000;
                        out.clear();
                        w.poll_expired(Tick(now), &mut out);
                        live.clear();
                    }
                }
                assert_eq!(w.len(), live.len(), "seed {seed} step {step}");
                assert_eq!(
                    w.next_deadline(),
                    live.iter().min().copied().map(Tick),
                    "seed {seed} step {step} now {now}"
                );
            }
        }
    }

    #[test]
    fn spare_list_is_bounded() {
        // A burst spread over many buckets, then one sweep past all of
        // them: only a few emptied buckets are kept, the rest are freed.
        let mut w: TimerWheel<u32> = TimerWheel::new(50, 64);
        for b in 0..40u64 {
            for k in 0..10 {
                w.schedule(Tick(b * 50), k);
            }
        }
        assert_eq!(drain(&mut w, 40 * 50).len(), 400);
        assert_eq!(w.spare.len(), SPARE_BUCKETS);
        assert!(w.buckets.iter().all(|b| b.capacity() == 0));
    }
}
