//! Golden MT19937 streams.
//!
//! The reference-vector tests in `src/mt19937.rs` pin the first outputs and
//! the 10 000th; these pin whole streams and every way of reading them. The
//! constants are FNV-1a digests of what the generator produced before it
//! was rewritten as a block generator, so any change in how a word is
//! twisted, tempered or handed out across the 624-word block boundary shows
//! as a differing digest.

use imrand::{Mt19937, Rng32};

/// Words per MT19937 block.
const N: usize = 624;

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Digest of the first 2^20 outputs of `mt`.
fn digest_words(mut mt: Mt19937) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..1 << 20 {
        h.u32(mt.next_u32());
    }
    h.0
}

#[test]
fn first_million_words_of_seed_5489() {
    assert_eq!(digest_words(Mt19937::new(5489)), 1_652_379_781_029_850_201);
}

#[test]
fn first_million_words_of_seed_from_u64() {
    assert_eq!(
        digest_words(Mt19937::seed_from_u64(7)),
        12_955_268_307_832_531_342
    );
}

#[test]
fn first_million_words_of_init_by_array() {
    assert_eq!(
        digest_words(Mt19937::from_key(&[0x123, 0x234, 0x345, 0x456])),
        715_209_957_883_908_484
    );
}

/// Digest of a mixed call sequence after `offset` leading words.
///
/// One cycle draws 9 words (`gen_index(34)` rejects with probability
/// 18 / 2^32, so in practice it takes one): 9 and 624 share the factor 3,
/// so over 208 cycles each call starts at every word of its residue class
/// mod 3, and offsets 0–2 cover all three classes. Every call, `next_u64`
/// included, therefore straddles word 623 and the refill behind it.
fn digest_mixed(offset: usize) -> u64 {
    let mut mt = Mt19937::seed_from_u64(2020);
    for _ in 0..offset {
        mt.next_u32();
    }
    let mut h = Fnv::new();
    for _ in 0..208 {
        h.u32(mt.next_u32());
        h.u64(mt.next_u64());
        h.u64(mt.next_f64().to_bits());
        h.bytes(&[u8::from(mt.bernoulli(0.1))]);
        h.u64(mt.gen_index(34) as u64);
        h.u32(mt.next_u32());
    }
    h.0
}

#[test]
fn mixed_call_sequence_at_every_phase_offset() {
    let got: Vec<u64> = (0..4).map(digest_mixed).collect();
    assert_eq!(
        got,
        vec![
            1_295_773_586_048_807_543,
            9_544_205_661_536_104_650,
            11_125_401_748_531_932_814,
            16_640_585_534_416_828_491,
        ],
        "observed: {got:?}"
    );
}

/// `next_u64` is the two next words, high first, wherever in the block it
/// starts: at a fresh generator, inside the block, and at word 623, where
/// its second word comes from the next block.
#[test]
fn next_u64_is_two_words_at_every_block_phase() {
    for phase in 0..2 * N + 2 {
        let mut a = Mt19937::seed_from_u64(31);
        let mut b = Mt19937::seed_from_u64(31);
        for _ in 0..phase {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let hi = u64::from(b.next_u32());
        let lo = u64::from(b.next_u32());
        assert_eq!(a.next_u64(), (hi << 32) | lo, "phase {phase}");
        assert_eq!(a.next_u32(), b.next_u32(), "after phase {phase}");
    }
}

#[test]
fn clone_at_the_last_word_of_a_block_continues_identically() {
    let mut a = Mt19937::new(5489);
    for _ in 0..N - 1 {
        a.next_u32();
    }
    let mut b = a.clone();
    for i in 0..3 * N {
        assert_eq!(a.next_u32(), b.next_u32(), "word {i} after the clone");
    }
    assert_eq!(a.next_u64(), b.next_u64());
}
