//! The CTPH chunker as it was before the one-walk rewrite, kept verbatim as
//! the oracle `ssdeep::fuzzy_hash_bytes` must match byte for byte: one pass
//! per block size with two `u64 %` trigger tests per byte, halving from the
//! initial estimate while the primary signature is short. The rolling hash
//! (with its `% 7` window index) and the block-size estimate are copied
//! too, so the oracle shares no chunking code with the crate under test.
//!
//! Included by `proptest_ssdeep.rs` and, by path, by the feature-extraction
//! oracle test in `crates/fhc/tests/extract_oracle.rs`.

#![allow(dead_code)]

use ssdeep::base64;
use ssdeep::blocksize::{MIN_BLOCKSIZE, NUM_BLOCKHASHES};
use ssdeep::fnv::PartialHash;
use ssdeep::{FuzzyHash, SPAM_SUM_LENGTH};

const ROLLING_WINDOW: usize = 7;

struct RollingHash {
    window: [u8; ROLLING_WINDOW],
    h1: u32,
    h2: u32,
    h3: u32,
    n: usize,
}

impl RollingHash {
    fn new() -> Self {
        Self {
            window: [0; ROLLING_WINDOW],
            h1: 0,
            h2: 0,
            h3: 0,
            n: 0,
        }
    }

    fn update(&mut self, byte: u8) -> u32 {
        let b = u32::from(byte);
        let dropped = u32::from(self.window[self.n % ROLLING_WINDOW]);

        self.h2 = self.h2.wrapping_sub(self.h1);
        self.h2 = self.h2.wrapping_add(ROLLING_WINDOW as u32 * b);

        self.h1 = self.h1.wrapping_add(b);
        self.h1 = self.h1.wrapping_sub(dropped);

        self.window[self.n % ROLLING_WINDOW] = byte;
        self.n += 1;

        self.h3 = (self.h3 << 5) ^ b;

        self.value()
    }

    fn value(&self) -> u32 {
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }
}

fn initial_blocksize(len: usize) -> u64 {
    let len = len as u64;
    let mut bs = MIN_BLOCKSIZE;
    let mut iterations = 0;
    while bs * (SPAM_SUM_LENGTH as u64) < len && iterations < NUM_BLOCKHASHES {
        bs *= 2;
        iterations += 1;
    }
    bs
}

fn chunk_signatures(data: &[u8], block_size: u64) -> (String, String) {
    let mut roll = RollingHash::new();
    let mut h1 = PartialHash::new();
    let mut h2 = PartialHash::new();
    let mut sig1 = String::with_capacity(SPAM_SUM_LENGTH);
    let mut sig2 = String::with_capacity(SPAM_SUM_LENGTH / 2);
    let double = block_size * 2;

    for &byte in data {
        let r = u64::from(roll.update(byte));
        h1.update(byte);
        h2.update(byte);

        if r % block_size == block_size - 1 && sig1.len() < SPAM_SUM_LENGTH - 1 {
            sig1.push(base64::encode(h1.b64_index()));
            h1 = PartialHash::new();
        }
        if r % double == double - 1 && sig2.len() < SPAM_SUM_LENGTH / 2 - 1 {
            sig2.push(base64::encode(h2.b64_index()));
            h2 = PartialHash::new();
        }
    }

    if roll.value() != 0 || data.is_empty() {
        sig1.push(base64::encode(h1.b64_index()));
        sig2.push(base64::encode(h2.b64_index()));
    }
    (sig1, sig2)
}

/// The pre-rewrite `fuzzy_hash_bytes`, plus the number of chunking passes
/// it made over the input.
pub fn fuzzy_hash_bytes_with_passes(data: &[u8]) -> (FuzzyHash, u32) {
    let mut block_size = initial_blocksize(data.len());
    let mut passes = 0;
    loop {
        let (sig1, sig2) = chunk_signatures(data, block_size);
        passes += 1;
        if sig1.len() < SPAM_SUM_LENGTH / 2 && block_size > MIN_BLOCKSIZE {
            block_size /= 2;
            continue;
        }
        let hash = FuzzyHash::from_parts(block_size, sig1, sig2)
            .unwrap_or_else(|e| panic!("oracle built an invalid hash: {e}"));
        return (hash, passes);
    }
}

/// The pre-rewrite `fuzzy_hash_bytes`.
pub fn fuzzy_hash_bytes(data: &[u8]) -> FuzzyHash {
    fuzzy_hash_bytes_with_passes(data).0
}
