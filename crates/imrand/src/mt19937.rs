//! The MT19937 Mersenne Twister (Matsumoto & Nishimura, 1998).
//!
//! The paper's reference implementation drew all randomness from MT19937, so
//! this crate provides a faithful re-implementation: the state size (624
//! words), initialisation-by-seed recurrence and tempering transform match the
//! original `mt19937ar.c`, which means the generator is verifiable against the
//! published test vectors (see the unit tests at the bottom of this file).
//!
//! The generator works in blocks. A refill twists the whole 624-word state
//! in three segments whose neighbours are known without a modulo, then
//! tempers every new word into a second 624-word output block; drawing a
//! word is a load from that block and an index bump. This is the same
//! recurrence `mt19937ar.c` evaluates word by word, so the stream is the
//! reference stream bit for bit (`tests/mt19937_golden.rs` pins whole
//! streams and every block phase).

use crate::traits::Rng32;

const N: usize = 624;
const M: usize = 397;
const MATRIX_A: u32 = 0x9908_B0DF;
const UPPER_MASK: u32 = 0x8000_0000;
const LOWER_MASK: u32 = 0x7FFF_FFFF;

/// The 32-bit Mersenne Twister generator with period `2^19937 - 1`.
///
/// The state is two 624-word blocks, the twisted state and its tempered
/// outputs (~2.5 KiB each, ~5 KiB in all). One generator per run or per
/// stream is cheap; prefer [`crate::Pcg32`] when many generators are held at
/// once (e.g. one per snapshot worker).
#[derive(Clone)]
pub struct Mt19937 {
    /// The twisted state of the current block.
    state: Box<[u32; N]>,
    /// `state` tempered: the block's outputs, handed out in order.
    output: Box<[u32; N]>,
    /// The next word of `output` to hand out; `N` when the block is spent.
    index: usize,
}

impl std::fmt::Debug for Mt19937 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mt19937")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

impl Mt19937 {
    /// Create a generator from a 32-bit seed using the reference `init_genrand`
    /// recurrence.
    #[must_use]
    pub fn new(seed: u32) -> Self {
        let mut state = Box::new([0u32; N]);
        state[0] = seed;
        for i in 1..N {
            // state[i] = 1812433253 * (state[i-1] ^ (state[i-1] >> 30)) + i
            state[i] = 1_812_433_253u32
                .wrapping_mul(state[i - 1] ^ (state[i - 1] >> 30))
                .wrapping_add(i as u32);
        }
        Self {
            state,
            output: Box::new([0u32; N]),
            index: N,
        }
    }

    /// Create a generator from a 64-bit seed.
    ///
    /// The 64-bit seed is split into a two-word key and fed through the
    /// reference `init_by_array` procedure, so distinct 64-bit seeds yield
    /// well-separated states even when they share their low 32 bits.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let key = [(seed & 0xFFFF_FFFF) as u32, (seed >> 32) as u32];
        Self::from_key(&key)
    }

    /// Create a generator from an arbitrary-length key (reference
    /// `init_by_array`).
    #[must_use]
    pub fn from_key(key: &[u32]) -> Self {
        let mut mt = Self::new(19_650_218);
        let mut i = 1usize;
        let mut j = 0usize;
        let mut k = N.max(key.len());
        while k > 0 {
            let prev = mt.state[i - 1];
            mt.state[i] = (mt.state[i] ^ (prev ^ (prev >> 30)).wrapping_mul(1_664_525))
                .wrapping_add(key[j])
                .wrapping_add(j as u32);
            i += 1;
            j += 1;
            if i >= N {
                mt.state[0] = mt.state[N - 1];
                i = 1;
            }
            if j >= key.len() {
                j = 0;
            }
            k -= 1;
        }
        k = N - 1;
        while k > 0 {
            let prev = mt.state[i - 1];
            mt.state[i] = (mt.state[i] ^ (prev ^ (prev >> 30)).wrapping_mul(1_566_083_941))
                .wrapping_sub(i as u32);
            i += 1;
            if i >= N {
                mt.state[0] = mt.state[N - 1];
                i = 1;
            }
            k -= 1;
        }
        mt.state[0] = 0x8000_0000;
        mt.index = N;
        mt
    }

    /// Twist the next block of state and temper it into `output`.
    ///
    /// The reference loop reads `state[(i + 1) % N]` and `state[(i + M) % N]`;
    /// split at the two points where those indices wrap, each segment reads
    /// fixed neighbours, and in the same order, so the words are the
    /// reference's.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        #[inline(always)]
        fn twist(word: u32, next: u32, far: u32) -> u32 {
            let x = (word & UPPER_MASK) | (next & LOWER_MASK);
            far ^ (x >> 1) ^ ((x & 1).wrapping_neg() & MATRIX_A)
        }
        let s = &mut *self.state;
        for i in 0..N - M {
            s[i] = twist(s[i], s[i + 1], s[i + M]);
        }
        for i in N - M..N - 1 {
            s[i] = twist(s[i], s[i + 1], s[i + M - N]);
        }
        s[N - 1] = twist(s[N - 1], s[0], s[M - 1]);
        for (out, &word) in self.output.iter_mut().zip(s.iter()) {
            let mut y = word;
            y ^= y >> 11;
            y ^= (y << 7) & 0x9D2C_5680;
            y ^= (y << 15) & 0xEFC6_0000;
            y ^= y >> 18;
            *out = y;
        }
        self.index = 0;
    }
}

impl Rng32 for Mt19937 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let mut i = self.index;
        if i >= N {
            self.refill();
            i = 0;
        }
        self.index = i + 1;
        self.output[i]
    }

    /// Two words of the block under one bounds check; across the block
    /// boundary, two [`Rng32::next_u32`] calls (the same words, high first).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i >= N - 1 {
            let hi = u64::from(self.next_u32());
            return (hi << 32) | u64::from(self.next_u32());
        }
        self.index = i + 2;
        (u64::from(self.output[i]) << 32) | u64::from(self.output[i + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs of `mt19937ar.c` initialised with
    /// `init_genrand(5489)` (the C++11 `std::mt19937` default seed).
    #[test]
    fn matches_reference_vector_seed_5489() {
        let mut mt = Mt19937::new(5489);
        let expected_first = [
            3_499_211_612u32,
            581_869_302,
            3_890_346_734,
            3_586_334_585,
            545_404_204,
            4_161_255_391,
            3_922_919_429,
            949_333_985,
            2_715_962_298,
            1_323_567_403,
        ];
        for (i, &e) in expected_first.iter().enumerate() {
            assert_eq!(mt.next_u32(), e, "mismatch at output {i}");
        }
    }

    /// The C++11 standard pins the 10000th output of `std::mt19937` seeded
    /// with 5489 to 4123659995; this exercises the twist across many blocks.
    #[test]
    fn matches_cpp11_10000th_output() {
        let mut mt = Mt19937::new(5489);
        let mut last = 0u32;
        for _ in 0..10_000 {
            last = mt.next_u32();
        }
        assert_eq!(last, 4_123_659_995);
    }

    /// Reference outputs of `init_by_array({0x123, 0x234, 0x345, 0x456})`
    /// from the mt19937ar.out test vector.
    #[test]
    fn matches_reference_vector_init_by_array() {
        let mut mt = Mt19937::from_key(&[0x123, 0x234, 0x345, 0x456]);
        let expected_first = [1_067_595_299u32, 955_945_823, 477_289_528];
        for (i, &e) in expected_first.iter().enumerate() {
            assert_eq!(mt.next_u32(), e, "mismatch at output {i}");
        }
    }

    #[test]
    fn seed_from_u64_uses_both_halves() {
        let mut a = Mt19937::seed_from_u64(0x0000_0001_0000_0000);
        let mut b = Mt19937::seed_from_u64(0x0000_0002_0000_0000);
        // Seeds share their low 32 bits; streams must still differ.
        let identical = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(identical < 8);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = Mt19937::seed_from_u64(99);
        for _ in 0..700 {
            a.next_u32(); // crosses a twist boundary
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn mean_of_uniform_draws_is_half() {
        let mut mt = Mt19937::seed_from_u64(2020);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| mt.next_f64()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "mean {mean} too far from 0.5");
    }
}
