//! The rolling hash that drives context-triggered chunk boundaries.
//!
//! SSDeep decides where one chunk ends and the next begins by maintaining a
//! rolling hash over the last [`ROLLING_WINDOW`] bytes of input. Whenever the
//! rolling hash value `h` satisfies `h % blocksize == blocksize - 1` a chunk
//! boundary is emitted. Because the hash depends only on a small window of
//! recent content, inserting or deleting bytes early in a file does not shift
//! every later boundary — which is exactly the property that makes the final
//! signatures of two similar files comparable.
//!
//! [`RollingHash`] keeps its own copy of the window, so it can be fed one
//! byte at a time. The generator in [`crate::generate`] has the whole input
//! in hand, so it does not keep the ring buffer: it reads the byte leaving
//! the window straight from the input (`data[i - 7]`, or 0 for the first
//! seven bytes) and hands it to the same arithmetic, `RollingHash::step`.

/// Number of bytes the rolling hash looks back over.
pub const ROLLING_WINDOW: usize = 7;

/// Rolling hash state (an Adler-32 style sum/shift/window combination, as in
/// the original spamsum/SSDeep implementation).
#[derive(Debug, Clone)]
pub struct RollingHash {
    window: [u8; ROLLING_WINDOW],
    h1: u32,
    h2: u32,
    h3: u32,
    /// Window slot of the oldest byte, the one the next update replaces.
    pos: usize,
}

impl Default for RollingHash {
    fn default() -> Self {
        Self::new()
    }
}

impl RollingHash {
    /// Create a fresh rolling hash with an empty window.
    pub fn new() -> Self {
        Self {
            window: [0; ROLLING_WINDOW],
            h1: 0,
            h2: 0,
            h3: 0,
            pos: 0,
        }
    }

    /// Feed one byte and return the updated hash value.
    #[inline]
    pub fn update(&mut self, byte: u8) -> u32 {
        let dropped = self.window[self.pos];
        self.window[self.pos] = byte;
        self.pos = if self.pos + 1 == ROLLING_WINDOW {
            0
        } else {
            self.pos + 1
        };
        self.step(byte, dropped)
    }

    /// Feed `byte` while `dropped`, the byte fed [`ROLLING_WINDOW`] updates
    /// earlier (0 before that many), leaves the window, and return the
    /// updated hash value. The window copy is neither read nor written: a
    /// caller that holds the input reads `dropped` from it instead.
    #[inline]
    pub(crate) fn step(&mut self, byte: u8, dropped: u8) -> u32 {
        let b = u32::from(byte);

        self.h2 = self.h2.wrapping_sub(self.h1);
        self.h2 = self.h2.wrapping_add(ROLLING_WINDOW as u32 * b);

        self.h1 = self.h1.wrapping_add(b);
        self.h1 = self.h1.wrapping_sub(u32::from(dropped));

        // h3 is a shift/xor over the window; it reacts quickly to the most
        // recent bytes and slowly forgets older ones.
        self.h3 = (self.h3 << 5) ^ b;

        self.value()
    }

    /// The current hash value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }
}

/// Hash an entire slice, returning the final rolling value (used in tests).
pub fn roll_over(data: &[u8]) -> u32 {
    let mut rh = RollingHash::new();
    let mut v = 0;
    for &b in data {
        v = rh.update(b);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_state_is_zero() {
        let rh = RollingHash::new();
        assert_eq!(rh.value(), 0);
        assert_eq!(rh.pos, 0);
    }

    #[test]
    fn deterministic() {
        let data = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(roll_over(data), roll_over(data));
    }

    #[test]
    fn depends_only_on_recent_window() {
        // Two inputs with identical last ROLLING_WINDOW bytes but different
        // long prefixes: h1 and h2 depend on the window contents only, and h3
        // effectively forgets bytes older than ~6 shifts (32-bit shifts of 5).
        // The full value may differ because h3 mixes older bytes, so we check
        // the window-derived components (h1) instead.
        let mut a = RollingHash::new();
        let mut b = RollingHash::new();
        for &x in b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAsuffix7" {
            a.update(x);
        }
        for &x in b"BBBBBBBBBBBBBBBBsuffix7" {
            b.update(x);
        }
        assert_eq!(a.h1, b.h1, "h1 must depend only on the last 7 bytes");
    }

    #[test]
    fn update_changes_value() {
        let mut rh = RollingHash::new();
        let v1 = rh.update(1);
        let v2 = rh.update(2);
        assert_ne!(v1, v2);
        assert_eq!(rh.pos, 2);
    }

    #[test]
    fn step_with_the_dropped_byte_matches_update() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 256) as u8).collect();
        let mut windowed = RollingHash::new();
        let mut stepped = RollingHash::new();
        for (i, &byte) in data.iter().enumerate() {
            let dropped = i.checked_sub(ROLLING_WINDOW).map_or(0, |j| data[j]);
            assert_eq!(
                stepped.step(byte, dropped),
                windowed.update(byte),
                "byte {i}"
            );
        }
    }

    #[test]
    fn window_wraps_correctly() {
        let mut rh = RollingHash::new();
        for i in 0..(ROLLING_WINDOW * 3) {
            rh.update((i % 251) as u8);
        }
        // Three full windows bring the oldest-byte slot back to the start.
        assert_eq!(rh.pos, 0);
        // h1 equals the sum of the last ROLLING_WINDOW bytes.
        let expected: u32 = ((ROLLING_WINDOW * 2)..(ROLLING_WINDOW * 3))
            .map(|i| (i % 251) as u32)
            .sum();
        assert_eq!(rh.h1, expected);
    }
}
