//! The seeded generator and the digest fold shared by the bench crate:
//! the region service's books, the chaos soak, the golden traces and
//! snapshot diffs.

/// FNV-1a offset basis: the starting value of every digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into a digest, FNV-1a style. The multiplier is not the
/// standard 64-bit FNV prime (`0x100_0000_01b3`); every digest and golden
/// trace hash on record was folded with it, so it stays.
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x1000_0000_01b3)
}

/// xorshift64* with a splitmix64-scrambled seed. The field is the raw
/// state, so a snapshot can save the stream and resume it.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn seeded(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// The next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
