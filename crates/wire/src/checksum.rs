//! Checksums: the RFC 1071 Internet checksum and CRC-32.
//!
//! The performance story of Figure 7 in the paper hinges on exactly this
//! distinction: the Nectar-specific protocols rely on the CAB's
//! *hardware* CRC ("Cyclic Redundancy Checksums for incoming and
//! outgoing data are computed by hardware"), while TCP must compute its
//! checksum in *software* on the 16.5 MHz SPARC — "the performance
//! difference between TCP/IP and RMP is mostly due to the cost of doing
//! TCP checksums in software". Both algorithms are implemented here for
//! real; the simulator charges CPU time for the software one only.

/// Incremental one's-complement sum, RFC 1071 style.
///
/// Feed it the pseudo-header and payload in any chunking; odd-length
/// chunks are handled by tracking byte parity so results are identical
/// to a single-pass sum.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChecksumAccum {
    sum: u64,
    /// True when an odd number of bytes have been consumed so far, i.e.
    /// the next byte is a low-order byte.
    odd: bool,
}

impl ChecksumAccum {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a chunk of bytes.
    ///
    /// The bulk runs eight bytes per iteration: 64-bit words are summed
    /// with end-around carry, which preserves the one's-complement value
    /// because 2^64 - 1 is a multiple of 0xffff (RFC 1071 §2(C)); the
    /// 16-bit columns of the wide sum are then folded into the
    /// accumulator. Results are bit-identical to the byte-pair loop for
    /// any chunking.
    pub fn write(&mut self, data: &[u8]) {
        let mut i = 0;
        if self.odd && !data.is_empty() {
            self.sum += data[0] as u64;
            self.odd = false;
            i = 1;
        }
        let mut wide: u64 = 0;
        while i + 8 <= data.len() {
            let w = u64::from_be_bytes(data[i..i + 8].try_into().unwrap());
            let (s, carry) = wide.overflowing_add(w);
            wide = s + carry as u64;
            i += 8;
        }
        self.sum +=
            (wide >> 48) + ((wide >> 32) & 0xffff) + ((wide >> 16) & 0xffff) + (wide & 0xffff);
        while i + 1 < data.len() {
            self.sum += u16::from_be_bytes([data[i], data[i + 1]]) as u64;
            i += 2;
        }
        if i < data.len() {
            self.sum += (data[i] as u64) << 8;
            self.odd = true;
        }
        // A u64 accumulator absorbs 2^48 half-words before it could
        // overflow, far beyond any packet; fold between chunks anyway to
        // keep the invariant local.
        if self.sum > 0x3fff_ffff {
            self.fold();
        }
    }

    /// Add a big-endian u16 directly (pseudo-header fields). Must be
    /// called on an even byte boundary.
    pub fn write_u16(&mut self, v: u16) {
        debug_assert!(!self.odd, "write_u16 on odd boundary");
        self.sum += v as u64;
    }

    /// Add a big-endian u32 directly (pseudo-header addresses).
    pub fn write_u32(&mut self, v: u32) {
        self.write_u16((v >> 16) as u16);
        self.write_u16(v as u16);
    }

    fn fold(&mut self) {
        while self.sum >> 16 != 0 {
            self.sum = (self.sum & 0xffff) + (self.sum >> 16);
        }
    }

    /// Finish: fold and complement. An all-zero result is returned as
    /// 0xffff per UDP convention (0 means "no checksum").
    pub fn finish(mut self) -> u16 {
        self.fold();
        let c = !(self.sum as u16);
        if c == 0 {
            0xffff
        } else {
            c
        }
    }

    /// Finish without the zero-avoidance substitution (IP/TCP/ICMP use
    /// the plain complement).
    pub fn finish_raw(mut self) -> u16 {
        self.fold();
        !(self.sum as u16)
    }
}

/// One-shot Internet checksum of a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut acc = ChecksumAccum::new();
    acc.write(data);
    acc.finish_raw()
}

/// Verify a buffer that *includes* its checksum field: the sum over the
/// whole buffer must be 0xffff (i.e. folds to zero after complement).
pub fn internet_checksum_valid(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

const CRC32_POLY: u32 = 0xedb8_8320; // IEEE 802.3, reflected

/// Eight lookup tables for slice-by-8: `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][i]` advances the CRC of byte `i`
/// through `k` further zero bytes, so eight table hits fold a whole
/// 64-bit word into the register at once.
fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Advance the raw (uncomplemented) CRC register over `data` using the
/// slice-by-8 tables.
fn crc32_update_table(mut c: u32, data: &[u8]) -> u32 {
    // The tables are 8 KiB; rebuild-on-call would be wasteful in the
    // frame hot path, so memoize them.
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(crc32_tables);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c ^= u32::from_le_bytes(chunk[..4].try_into().unwrap());
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        c = t[7][(c & 0xff) as usize]
            ^ t[6][((c >> 8) & 0xff) as usize]
            ^ t[5][((c >> 16) & 0xff) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// PCLMULQDQ-folded CRC-32 for x86-64 (the Intel carry-less-multiply
/// technique: fold 64-byte blocks through four 128-bit accumulators,
/// then Barrett-reduce). Bit-identical to the table path; used for the
/// bulk of large frames when the CPU supports it.
#[cfg(target_arch = "x86_64")]
mod clmul {
    // Folding constants for the reflected IEEE 802.3 polynomial, from
    // Intel's "Fast CRC Computation for Generic Polynomials Using
    // PCLMULQDQ Instruction" (the same values appear in zlib and
    // chromium's crc32_simd): x^t mod P for the fold distances below.
    const K1: i64 = 0x1_5444_2bd4; // x^(4·128+64)
    const K2: i64 = 0x1_c6e4_1596; // x^(4·128)
    const K3: i64 = 0x1_7519_97d0; // x^(128+64)
    const K4: i64 = 0x0_ccaa_009e; // x^128
    const K5: i64 = 0x1_63cd_6124; // x^64
    const PX: i64 = 0x1_db71_0641; // P(x), reflected
    const MU: i64 = 0x1_f701_1641; // Barrett µ

    pub(super) fn supported() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Fold `data` (length a multiple of 16, at least 64) into the raw
    /// CRC register `crc`.
    ///
    /// # Safety
    /// Caller must ensure [`supported`] returned `true`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::*;
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));

        // SAFETY: loadu allows unaligned reads; every 16-byte offset
        // consumed below is within `data` by the length contract.
        let mut chunks = data.chunks_exact(16);
        let load = |c: &mut std::slice::ChunksExact<u8>| {
            _mm_loadu_si128(c.next().unwrap().as_ptr() as *const __m128i)
        };
        let k1k2 = _mm_set_epi64x(K2, K1);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let fold = |x: __m128i, k: __m128i, next: __m128i| {
            _mm_xor_si128(
                _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
                next,
            )
        };

        let mut x0 = _mm_xor_si128(load(&mut chunks), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(&mut chunks);
        let mut x2 = load(&mut chunks);
        let mut x3 = load(&mut chunks);
        while chunks.len() >= 4 {
            x0 = fold(x0, k1k2, load(&mut chunks));
            x1 = fold(x1, k1k2, load(&mut chunks));
            x2 = fold(x2, k1k2, load(&mut chunks));
            x3 = fold(x3, k1k2, load(&mut chunks));
        }
        let mut x = fold(x0, k3k4, x1);
        x = fold(x, k3k4, x2);
        x = fold(x, k3k4, x3);
        while chunks.len() >= 1 {
            x = fold(x, k3k4, load(&mut chunks));
        }

        // 128 → 64: fold the low qword across, keep the high qword.
        let lo32 = _mm_set_epi32(0, -1, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 via K5 on the low dword.
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, lo32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32.
        let pu = _mm_set_epi64x(MU, PX);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), pu, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, lo32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32
    }
}

/// CRC-32 (IEEE 802.3) over a byte slice — the frame check the CAB
/// hardware computed on the fly for incoming and outgoing fiber data.
///
/// Every frame is CRC'd twice (transmit and receive), so this is the
/// simulator's single hottest byte loop: large inputs take the
/// carry-less-multiply fold when the CPU has PCLMULQDQ, everything else
/// goes through slice-by-8 tables. Both paths produce identical bits.
pub fn crc32(data: &[u8]) -> u32 {
    let mut reg = 0xffff_ffffu32;
    let mut rest = data;
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static HAVE_CLMUL: OnceLock<bool> = OnceLock::new();
        if rest.len() >= 64 && *HAVE_CLMUL.get_or_init(clmul::supported) {
            let cut = rest.len() & !15;
            // SAFETY: the feature check above gates the target_feature fn.
            reg = unsafe { clmul::update(reg, &rest[..cut]) };
            rest = &rest[cut..];
        }
    }
    reg = crc32_update_table(reg, rest);
    !reg
}

/// Streaming CRC-32 accumulator: feed segments in wire order, then
/// [`finish`](Crc32Accum::finish). Byte-identical to [`crc32`] over the
/// concatenation — what split frames (shared-payload multicast
/// replicas) use to cover head and tail without materializing a
/// contiguous copy.
#[derive(Clone, Copy, Debug)]
pub struct Crc32Accum {
    reg: u32,
}

impl Default for Crc32Accum {
    fn default() -> Self {
        Crc32Accum::new()
    }
}

impl Crc32Accum {
    pub fn new() -> Crc32Accum {
        Crc32Accum { reg: 0xffff_ffff }
    }

    pub fn write(&mut self, data: &[u8]) {
        self.reg = crc32_update_table(self.reg, data);
    }

    pub fn finish(self) -> u32 {
        !self.reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic worked example: 00 01 f2 03 f4 f5 f6 f7 sums to
        // ddf2 before complement.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut acc = ChecksumAccum::new();
        acc.write(&data);
        acc.fold();
        assert_eq!(acc.sum, 0xddf2);
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn chunking_is_irrelevant() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1001).collect();
        let whole = internet_checksum(&data);
        for split in [1usize, 2, 3, 7, 500, 999] {
            let mut acc = ChecksumAccum::new();
            acc.write(&data[..split]);
            acc.write(&data[split..]);
            assert_eq!(acc.finish_raw(), whole, "split at {split}");
        }
        // three-way odd splits
        let mut acc = ChecksumAccum::new();
        acc.write(&data[..3]);
        acc.write(&data[3..8]);
        acc.write(&data[8..]);
        assert_eq!(acc.finish_raw(), whole);
    }

    #[test]
    fn verify_roundtrip() {
        let mut packet = vec![0u8; 20];
        for (i, b) in packet.iter_mut().enumerate() {
            *b = i as u8 * 7;
        }
        // zero checksum field at offset 10, compute, insert, verify
        packet[10] = 0;
        packet[11] = 0;
        let c = internet_checksum(&packet);
        packet[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(internet_checksum_valid(&packet));
        packet[3] ^= 0x40;
        assert!(!internet_checksum_valid(&packet));
    }

    #[test]
    fn empty_checksum() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn u16_u32_writers_match_bytes() {
        let mut a = ChecksumAccum::new();
        a.write_u32(0x0a00_0001);
        a.write_u16(0x0006);
        let mut b = ChecksumAccum::new();
        b.write(&[0x0a, 0x00, 0x00, 0x01, 0x00, 0x06]);
        assert_eq!(a.finish_raw(), b.finish_raw());
    }

    #[test]
    fn accumulator_no_overflow_on_large_input() {
        // 16 MiB of 0xff would overflow a naive u32 accumulator.
        let data = vec![0xffu8; 1 << 24];
        let mut acc = ChecksumAccum::new();
        acc.write(&data);
        // all-ones data: each word is 0xffff; folded sum stays 0xffff;
        // complement is 0.
        assert_eq!(acc.finish_raw(), 0);
    }

    #[test]
    fn crc32_paths_agree() {
        // Exercise the carry-less-multiply path (taken for inputs of
        // 64+ bytes) against the pure table path across lengths that
        // cover every tail case, including non-multiple-of-16 ends.
        let data: Vec<u8> =
            (0..4099u32).map(|i| (i.wrapping_mul(2654435761) >> 21) as u8).collect();
        for len in [0, 1, 7, 15, 16, 63, 64, 65, 79, 80, 127, 128, 129, 1000, 4096, 4099] {
            let d = &data[..len];
            assert_eq!(crc32(d), !crc32_update_table(0xffff_ffff, d), "len {len}");
        }
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn crc32_streaming_matches_one_shot() {
        let data: Vec<u8> = (0..517u32).map(|i| (i.wrapping_mul(97) >> 3) as u8).collect();
        for split in [0, 1, 16, 100, 516, 517] {
            let mut acc = Crc32Accum::new();
            acc.write(&data[..split]);
            acc.write(&data[split..]);
            assert_eq!(acc.finish(), crc32(&data), "split {split}");
        }
        let mut many = Crc32Accum::new();
        for chunk in data.chunks(13) {
            many.write(chunk);
        }
        assert_eq!(many.finish(), crc32(&data));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), good, "undetected flip at {byte}.{bit}");
            }
        }
    }
}
