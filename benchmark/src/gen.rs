//! Seeded input generation. `--seed` is the only source of randomness:
//! every op stream is a pure function of (seed, workload, stream index),
//! laid out before the clock starts so the measured loop only walks an
//! array, and summarised by a digest so two runs can prove they fed the
//! program the same inputs.

/// SplitMix64: small, fast, and good enough to pick files and op kinds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`. The stream tag is
    /// mixed in (not added) so neighbouring seeds do not share a
    /// shifted copy of each other's sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        Rng(r.next_u64() ^ seed.rotate_left(32))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is far
    /// below anything a throughput number can see).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One generated operation: a read (`Fetch` / cache read) or a write of
/// `file`. Packed so a million-op stream is 8 MB, not 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u64);

impl Op {
    const WRITE: u64 = 1 << 63;

    pub fn read(file: u64) -> Op {
        Op(file)
    }

    pub fn file(self) -> u64 {
        self.0 & !Op::WRITE
    }

    pub fn is_write(self) -> bool {
        self.0 & Op::WRITE != 0
    }
}

/// The shape of a workload's op stream.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Files are drawn uniformly from `0..files`.
    pub files: u64,
    /// One op in `write_one_in` is a write; the rest read.
    pub write_one_in: u64,
}

/// `len` ops of `mix` for `(seed, stream)`.
pub fn op_stream(seed: u64, stream: u64, mix: Mix, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, stream);
    (0..len)
        .map(|_| {
            let file = rng.below(mix.files);
            let write = rng.below(mix.write_one_in) == 0;
            Op(file | if write { Op::WRITE } else { 0 })
        })
        .collect()
}

/// One read of each file, in order: the fetches a set-up warms with.
pub fn every_file(files: u64) -> Vec<Op> {
    (0..files).map(Op::read).collect()
}

/// FNV-1a over 64-bit words: the digest printed per workload.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn ops(&mut self, ops: &[Op]) {
        for op in ops {
            self.word(op.0);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The 64-byte payload a `cache_mix` write carries: the writer's tag in
/// the first word, then filler derived from it, so a reader can tell
/// which write it is looking at and that no byte was mangled on the way.
pub fn payload64(tag: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut r = Rng::new(tag, 64);
    out[..8].copy_from_slice(&tag.to_le_bytes());
    for chunk in out[8..].chunks_mut(8) {
        chunk.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    out
}

/// Whether `data` is a well-formed [`payload64`].
pub fn payload64_ok(data: &[u8]) -> bool {
    data.len() == 64 && {
        let tag = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
        data == payload64(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        files: 256,
        write_one_in: 64,
    };

    fn digest_of(seed: u64) -> String {
        let mut d = Digest::default();
        d.ops(&op_stream(seed, 0, MIX, 4096));
        d.ops(&op_stream(seed, 1, MIX, 4096));
        d.hex()
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        assert_eq!(digest_of(1), digest_of(1));
        assert_ne!(digest_of(1), digest_of(2));
        assert_ne!(digest_of(0), digest_of(1));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        assert_ne!(op_stream(7, 0, MIX, 64), op_stream(7, 1, MIX, 64));
    }

    #[test]
    fn mix_is_respected() {
        let ops = op_stream(3, 0, MIX, 1 << 16);
        assert!(ops.iter().all(|o| o.file() < 256));
        let writes = ops.iter().filter(|o| o.is_write()).count();
        // 1/64 of 65536 is 1024; allow a generous binomial margin.
        assert!((800..1250).contains(&writes), "{writes} writes");
        let mut seen = [false; 256];
        for o in &ops {
            seen[o.file() as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(9, 9);
        for n in [1u64, 2, 3, 1000, 1 << 40] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn payload_roundtrips_and_detects_damage() {
        let p = payload64(0xDEAD_BEEF);
        assert!(payload64_ok(&p));
        let mut bad = p;
        bad[40] ^= 1;
        assert!(!payload64_ok(&bad));
        assert!(!payload64_ok(&p[..63]));
    }
}
