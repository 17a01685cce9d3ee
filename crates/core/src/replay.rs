//! Constant-space at-most-once delivery guards, shared by the relay's
//! receiver flows and the session layer's endpoints.

/// Compact at-most-once delivery guard: a watermark plus a 1024-seq
/// bitmap window above it, IPsec-anti-replay style. Seqs below the
/// watermark count as delivered, so replays of any age are rejected in
/// O(1) and constant space — per-seq gather state can be reaped without
/// reopening duplicate delivery.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReplayGuard {
    base: u32,
    bits: [u64; ReplayGuard::WORDS],
}

impl ReplayGuard {
    pub(crate) const WORDS: usize = 16;
    pub(crate) const WINDOW: u32 = (Self::WORDS * 64) as u32;

    /// Whether `seq` was (or must be assumed) already delivered.
    pub(crate) fn contains(&self, seq: u32) -> bool {
        if seq < self.base {
            return true;
        }
        let off = seq - self.base;
        if off >= Self::WINDOW {
            return false;
        }
        (self.bits[(off / 64) as usize] >> (off % 64)) & 1 == 1
    }

    /// Record `seq` as delivered, sliding the window forward as needed.
    pub(crate) fn insert(&mut self, seq: u32) {
        if seq < self.base {
            return;
        }
        let mut off = seq - self.base;
        if off >= Self::WINDOW {
            self.slide(off - Self::WINDOW + 1);
            off = Self::WINDOW - 1;
        }
        self.bits[(off / 64) as usize] |= 1 << (off % 64);
    }

    /// Forget that `seq` was delivered, so its retransmission passes
    /// again. Seqs the window has slid past stay delivered.
    pub(crate) fn remove(&mut self, seq: u32) {
        if let Some(off) = seq.checked_sub(self.base).filter(|&off| off < Self::WINDOW) {
            self.bits[(off / 64) as usize] &= !(1 << (off % 64));
        }
    }

    fn slide(&mut self, shift: u32) {
        self.base = self.base.saturating_add(shift);
        if shift >= Self::WINDOW {
            self.bits = [0; Self::WORDS];
            return;
        }
        let word_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        for i in 0..Self::WORDS {
            let lo = self.bits.get(i + word_shift).copied().unwrap_or(0);
            let hi = self.bits.get(i + word_shift + 1).copied().unwrap_or(0);
            self.bits[i] = if bit_shift == 0 {
                lo
            } else {
                (lo >> bit_shift) | (hi << (64 - bit_shift))
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_guard_window_semantics() {
        let mut g = ReplayGuard::default();
        assert!(!g.contains(0));
        g.insert(0);
        assert!(g.contains(0));
        assert!(!g.contains(1));
        // Reorder within the window.
        g.insert(10);
        g.insert(5);
        assert!(g.contains(5) && g.contains(10) && !g.contains(6));
        // A refused delivery is forgotten; its neighbours are not.
        g.remove(5);
        assert!(!g.contains(5) && g.contains(0) && g.contains(10));
        g.insert(5);
        // Slide far forward: old seqs fall below the watermark and count
        // as delivered; in-window tracking keeps working.
        g.insert(5_000);
        assert!(g.contains(0) && g.contains(6), "below watermark = delivered");
        g.remove(6);
        assert!(g.contains(6), "the window slid past it: stays delivered");
        assert!(g.contains(5_000));
        assert!(!g.contains(4_999) || 4_999 < 5_000 - ReplayGuard::WINDOW + 1);
        assert!(!g.contains(5_001));
        // Word-aligned and unaligned slides.
        g.insert(5_064);
        g.insert(5_100);
        assert!(g.contains(5_064) && g.contains(5_100) && !g.contains(5_099));
    }
}
