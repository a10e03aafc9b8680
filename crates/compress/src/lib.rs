//! `mics-compress` — deterministic block-wise quantization for compressed
//! collectives (the ZeRO++ direction layered on MiCS's topology).
//!
//! MiCS minimizes communication *scale*; this crate minimizes communication
//! *volume*. It provides the quantization kernels the quantized collectives
//! in `mics-dataplane` execute and the cost models in
//! `mics-collectives::compress` price:
//!
//! * **fp32 → int8 / int4** affine quantization with a per-block scale and
//!   zero-point (qwZ-style block quantization): each block of
//!   [`QuantScheme::block`] elements stores `zero = min` and
//!   `scale = (max − min) / (2^bits − 1)`, so the worst-case round-trip
//!   error is half a quantization step of *that block* — outliers in one
//!   block cannot destroy the resolution of another;
//! * **fp32 → f16 passthrough** (round-to-nearest-even, via `mics-tensor`'s
//!   deterministic converters), the lossless-for-f16-representable-data mode
//!   mixed-precision training already tolerates;
//! * **round-trip error accounting**: every [`Quantized`] buffer can report
//!   a sound upper bound on `max |x − dequantize(quantize(x))|`, which the
//!   property tests hold the kernels to.
//!
//! Everything is deterministic: no RNG, no data-dependent iteration order,
//! so quantized collectives keep the bit-reproducibility contract of the
//! data plane.
//!
//! # Wire format
//!
//! The data plane moves `f32` buffers, so a [`Quantized`] value is encoded
//! into a self-contained word stream ([`Quantized::to_words`] /
//! [`Quantized::from_words`]): the per-block scales, then the per-block
//! zero-points, each verbatim, then the code stream packed at its real
//! width — four int8 codes, eight int4 codes or two f16 halves per word,
//! little-endian, the unused bits of the last word zero. A word is only a
//! carrier for 32 bits: it may hold any bit pattern, NaNs included, and both
//! transports copy words without arithmetic, so the round trip is
//! bit-exact. The stream is [`QuantScheme::encoded_words`] words, which is
//! [`QuantScheme::wire_bytes`] — what the α–β cost models charge — rounded
//! up to whole words: at most 3 bytes more per buffer.
//!
//! # Non-finite inputs
//!
//! Mixed-precision training relies on overflow detection: a block containing
//! a non-finite value quantizes to a poisoned block whose dequantized
//! elements are all NaN, so an inf/NaN gradient still trips the existing
//! loss-scale machinery instead of being silently clamped into range.

#![warn(missing_docs)]

use mics_tensor::dtype::{f16_bits_to_f32, f32_to_f16_bits};

/// Default quantization block size (elements per scale/zero-point pair).
/// 128 elements keep the metadata overhead at `8 / (128·bits/8)` — 6.25%
/// for int8 — while bounding how far one outlier's damage spreads.
pub const DEFAULT_BLOCK: usize = 128;

/// A quantization scheme for collective payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// fp32 → IEEE binary16 passthrough (no block metadata). Lossless for
    /// values already representable in f16 — in particular for the
    /// mixed-precision parameter casts `mics-minidl` sends.
    F16,
    /// 8-bit affine block quantization.
    Int8 {
        /// Elements per scale/zero-point block.
        block: usize,
    },
    /// 4-bit affine block quantization (two codes per byte on the wire).
    Int4 {
        /// Elements per scale/zero-point block.
        block: usize,
    },
}

impl QuantScheme {
    /// int8 with the default block size.
    pub fn int8() -> Self {
        QuantScheme::Int8 { block: DEFAULT_BLOCK }
    }

    /// int4 with the default block size.
    pub fn int4() -> Self {
        QuantScheme::Int4 { block: DEFAULT_BLOCK }
    }

    /// Bits per transported element code.
    pub fn code_bits(self) -> u32 {
        match self {
            QuantScheme::F16 => 16,
            QuantScheme::Int8 { .. } => 8,
            QuantScheme::Int4 { .. } => 4,
        }
    }

    /// Elements per metadata block (`None` for the block-free f16 mode).
    pub fn block(self) -> Option<usize> {
        match self {
            QuantScheme::F16 => None,
            QuantScheme::Int8 { block } | QuantScheme::Int4 { block } => Some(block),
        }
    }

    /// Number of metadata blocks for a buffer of `len` elements.
    pub fn blocks(self, len: usize) -> usize {
        match self.block() {
            Some(b) => {
                assert!(b > 0, "block size must be positive");
                len.div_ceil(b)
            }
            None => 0,
        }
    }

    /// Bytes of packed code stream for `len` elements.
    pub fn code_bytes(self, len: usize) -> usize {
        (len * self.code_bits() as usize).div_ceil(8)
    }

    /// The *real* wire size of `len` quantized elements: packed codes plus
    /// 8 metadata bytes (scale + zero-point) per block. This is what the
    /// cost models charge the NIC for.
    pub fn wire_bytes(self, len: usize) -> u64 {
        self.code_bytes(len) as u64 + 8 * self.blocks(len) as u64
    }

    /// Compression ratio versus fp32 for a buffer of `len` elements.
    pub fn ratio(self, len: usize) -> f64 {
        if len == 0 {
            return 1.0;
        }
        (4 * len) as f64 / self.wire_bytes(len) as f64
    }

    /// Number of f32 words [`Quantized::to_words`] produces for `len`
    /// elements: two metadata words per block plus the packed code stream
    /// rounded up to whole words. A pure function of `(scheme, len)`, which
    /// is what makes the encoding usable inside SPMD collectives: every rank
    /// knows every peer's encoded size without a handshake.
    pub fn encoded_words(self, len: usize) -> usize {
        2 * self.blocks(len) + self.code_bytes(len).div_ceil(4)
    }

    /// The α–β cost-model view of this scheme.
    pub fn cost_model(self) -> mics_collectives::compress::CompressionModel {
        use mics_collectives::compress::CompressionModel;
        match self {
            QuantScheme::F16 => CompressionModel::f16(),
            QuantScheme::Int8 { block } => CompressionModel::int8(block),
            QuantScheme::Int4 { block } => CompressionModel::int4(block),
        }
    }

    /// Short human-readable label (`"f16"`, `"int8/128"`, …).
    pub fn label(self) -> String {
        match self {
            QuantScheme::F16 => "f16".to_string(),
            QuantScheme::Int8 { block } => format!("int8/{block}"),
            QuantScheme::Int4 { block } => format!("int4/{block}"),
        }
    }
}

/// Where compressed collectives are allowed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionScope {
    /// Compress only the collectives *inside* a partition group (parameter
    /// gathers, hop-1 reduce-scatters). The cross-replication-group hop-2
    /// all-reduce stays fp32 — it runs once per accumulation window, so its
    /// volume is already amortized and keeping it exact limits error growth.
    IntraGroupOnly,
    /// Compress every gradient/parameter collective, including the hop-2
    /// boundary all-reduce.
    Everywhere,
}

/// Compression knobs carried by the executors (`mics-core`) and the
/// fidelity trainer (`mics-minidl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Quantization scheme for compressed payloads.
    pub scheme: QuantScheme,
    /// Quantize parameter all-gathers (qwZ-style weight compression).
    pub weights: bool,
    /// Quantize gradient reduce-scatters / all-reduces (qgZ-style).
    pub grads: bool,
    /// Which collectives participate.
    pub scope: CompressionScope,
}

impl CompressionConfig {
    /// Compress parameter gathers only.
    pub fn weights_only(scheme: QuantScheme) -> Self {
        CompressionConfig {
            scheme,
            weights: true,
            grads: false,
            scope: CompressionScope::Everywhere,
        }
    }

    /// Compress gradient reductions only.
    pub fn grads_only(scheme: QuantScheme) -> Self {
        CompressionConfig {
            scheme,
            weights: false,
            grads: true,
            scope: CompressionScope::Everywhere,
        }
    }

    /// Compress both directions.
    pub fn both(scheme: QuantScheme) -> Self {
        CompressionConfig {
            scheme,
            weights: true,
            grads: true,
            scope: CompressionScope::Everywhere,
        }
    }

    /// Short label for reports, e.g. `"int8/128·wg"`.
    pub fn label(&self) -> String {
        let mut dir = String::new();
        if self.weights {
            dir.push('w');
        }
        if self.grads {
            dir.push('g');
        }
        let scope = match self.scope {
            CompressionScope::IntraGroupOnly => "·intra",
            CompressionScope::Everywhere => "",
        };
        format!("{}·{dir}{scope}", self.scheme.label())
    }
}

/// A quantized buffer: per-block metadata plus the packed code stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    scheme: QuantScheme,
    len: usize,
    /// Per-block quantization step (empty for f16).
    scales: Vec<f32>,
    /// Per-block zero-point = block minimum (empty for f16).
    zeros: Vec<f32>,
    /// Packed codes: 1 byte/element for int8, 2 elements/byte for int4
    /// (element `2i` in the low nibble), 2 bytes/element (little-endian
    /// binary16) for f16. Bits past the last code are zero.
    codes: Vec<u8>,
}

/// Why a word stream is not a [`Quantized`] encoding. A peer's words reach
/// [`Quantized::from_words`] unchecked, so a malformed stream is an error,
/// not a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream is not [`QuantScheme::encoded_words`] words long.
    WrongLength {
        /// Words the `(scheme, len)` pair encodes to.
        expected: usize,
        /// Words received.
        got: usize,
    },
    /// Bits past the last code of the final packed word are not zero.
    NonzeroPadding,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::WrongLength { expected, got } => {
                write!(f, "encoded stream has {got} words, expected {expected}")
            }
            DecodeError::NonzeroPadding => write!(f, "nonzero padding after the last code"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Integer code levels for a bit width: `2^bits − 1`.
fn levels(bits: u32) -> u32 {
    (1u32 << bits) - 1
}

fn int_bits(scheme: QuantScheme) -> Option<u32> {
    match scheme {
        QuantScheme::F16 => None,
        QuantScheme::Int8 { .. } => Some(8),
        QuantScheme::Int4 { .. } => Some(4),
    }
}

/// `Some((min, max))` of a block, or `None` if it holds a non-finite value,
/// in one pass over independent lanes so the loop vectorizes.
///
/// The result is bit-identical to folding `f32::min`/`f32::max` from ±∞ in
/// index order. That fold keeps the earlier of two equal values, so for
/// finite data the lanes can only disagree with it on the sign of a zero
/// extremum — which the fold resolves to the block's first zero.
fn block_range(span: &[f32]) -> Option<(f32, f32)> {
    const LANES: usize = 8;
    const EXP: u32 = 0x7f80_0000;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    // Bit 31 is set once a lane saw an all-ones exponent (±inf or NaN):
    // adding one exponent step carries out of the exponent only then.
    let mut special = [0u32; LANES];
    let mut step = |j: usize, x: f32| {
        lo[j] = lo[j].min(x);
        hi[j] = hi[j].max(x);
        special[j] |= (x.to_bits() & EXP) + 0x0080_0000;
    };
    let mut chunks = span.chunks_exact(LANES);
    for c in chunks.by_ref() {
        let c: &[f32; LANES] = c.try_into().expect("chunks of LANES");
        for (j, &x) in c.iter().enumerate() {
            step(j, x);
        }
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        step(j, x);
    }
    if special.iter().any(|&s| s >> 31 != 0) {
        return None;
    }
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for j in 0..LANES {
        min = min.min(lo[j]);
        max = max.max(hi[j]);
    }
    let first_zero = || span.iter().copied().find(|&x| x == 0.0);
    if min == 0.0 {
        min = first_zero().expect("a zero minimum is some element");
    }
    if max == 0.0 {
        max = first_zero().expect("a zero maximum is some element");
    }
    Some((min, max))
}

/// Quantize `data` under `scheme`. Deterministic; blocks containing a
/// non-finite value are poisoned (see the crate docs).
pub fn quantize(data: &[f32], scheme: QuantScheme) -> Quantized {
    let len = data.len();
    match int_bits(scheme) {
        None => {
            let mut codes = Vec::with_capacity(2 * len);
            for &x in data {
                codes.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
            }
            Quantized { scheme, len, scales: Vec::new(), zeros: Vec::new(), codes }
        }
        Some(bits) => {
            let block = scheme.block().expect("integer schemes have a block size");
            assert!(block > 0, "block size must be positive");
            let nb = scheme.blocks(len);
            let mut scales = Vec::with_capacity(nb);
            let mut zeros = Vec::with_capacity(nb);
            let mut codes = vec![0u8; scheme.code_bytes(len)];
            let lv = levels(bits);
            for (b, span) in data.chunks(block).enumerate() {
                let Some((min, max)) = block_range(span) else {
                    // Poisoned block: dequantizes to all-NaN.
                    scales.push(f32::NAN);
                    zeros.push(f32::NAN);
                    continue; // codes stay 0
                };
                // f64 range arithmetic: max − min can overflow f32 even
                // when both endpoints are finite.
                let scale = ((max as f64 - min as f64) / lv as f64) as f32;
                // A constant (or numerically constant) block is stored
                // exactly as its zero-point with scale 0.
                if !scale.is_normal() {
                    scales.push(0.0);
                    zeros.push(min);
                    continue;
                }
                scales.push(scale);
                zeros.push(min);
                // f64 intermediates keep the rounding error comfortably
                // inside the half-step bound. Rounding is half away from
                // zero without a libm call: `0 ≤ t < 2^31` (as `x ≥ min`),
                // so adding 2^52 rounds `t` to the nearest even integer and
                // leaves it in the low mantissa bits, and a tie that went
                // down (`t − r = 0.5`, exact) takes one more step up.
                const ROUND: f64 = (1u64 << 52) as f64;
                let (zero, inv) = (min as f64, 1.0 / scale as f64);
                let code = |x: f32| {
                    let t = (x as f64 - zero) * inv;
                    let y = t + ROUND;
                    let tie_down = t - (y - ROUND) == 0.5;
                    (y.to_bits() as u32 + u32::from(tie_down)).min(lv) as u8
                };
                let base = b * block;
                if bits == 8 {
                    for (c, &x) in codes[base..base + span.len()].iter_mut().zip(span) {
                        *c = code(x);
                    }
                } else {
                    for (i, &x) in (base..).zip(span) {
                        codes[i / 2] |= code(x) << (i % 2 * 4);
                    }
                }
            }
            Quantized { scheme, len, scales, zeros, codes }
        }
    }
}

/// Write element `start + i` of the buffer `q` represents to `out[i]` via
/// `put`, one block at a time: the block's metadata is loaded once and the
/// inner loop is a straight pass over its codes.
///
/// # Panics
/// Panics if `start + out.len()` exceeds `q.len()`.
fn decode_range(q: &Quantized, start: usize, out: &mut [f32], put: impl Fn(&mut f32, f32)) {
    let end = start + out.len();
    assert!(end <= q.len, "range {start}..{end} outside a buffer of {}", q.len);
    let Some(bits) = int_bits(q.scheme) else {
        for (o, h) in out.iter_mut().zip(q.codes[2 * start..2 * end].chunks_exact(2)) {
            put(o, f16_bits_to_f32(u16::from_le_bytes([h[0], h[1]])));
        }
        return;
    };
    let block = q.scheme.block().expect("integer schemes have a block size");
    let (mut i, mut rest) = (start, out);
    while !rest.is_empty() {
        let b = i / block;
        let n = rest.len().min((b + 1) * block - i);
        let (head, tail) = rest.split_at_mut(n);
        let (zero, scale) = (q.zeros[b] as f64, q.scales[b] as f64);
        let value = |code: u8| (zero + code as f64 * scale) as f32;
        if bits == 8 {
            for (o, &c) in head.iter_mut().zip(&q.codes[i..i + n]) {
                put(o, value(c));
            }
        } else {
            for (o, j) in head.iter_mut().zip(i..) {
                put(o, value((q.codes[j / 2] >> (j % 2 * 4)) & 0xf));
            }
        }
        (i, rest) = (i + n, tail);
    }
}

/// Reconstruct the fp32 buffer a [`Quantized`] value represents.
pub fn dequantize(q: &Quantized) -> Vec<f32> {
    let mut out = vec![0.0f32; q.len];
    decode_range(q, 0, &mut out, |o, x| *o = x);
    out
}

/// Add elements `start..start + out.len()` of the buffer `q` represents
/// into `out` (`out[i] += x[start + i]`), decoding only the blocks that
/// cover the range — the receive side of a reduce-scatter, which needs one
/// shard of each peer's buffer. Bit-identical to adding the same slice of
/// [`dequantize`]`(q)`.
///
/// # Panics
/// Panics if `start + out.len()` exceeds `q.len()`.
pub fn dequantize_range_add(q: &Quantized, start: usize, out: &mut [f32]) {
    decode_range(q, start, out, |o, x| *o += x);
}

/// `dequantize(quantize(data))` in one call — what a value looks like after
/// one trip over a quantized wire.
pub fn round_trip(data: &[f32], scheme: QuantScheme) -> Vec<f32> {
    dequantize(&quantize(data, scheme))
}

impl Quantized {
    /// The scheme this buffer was quantized under.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Number of represented elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer represents zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Real (packed) wire size of this buffer in bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.scheme.wire_bytes(self.len)
    }

    /// A sound upper bound on `max_i |x_i − dequantize(self)_i|` for the
    /// finite inputs this buffer was quantized from: half a quantization
    /// step of the worst block (plus float-rounding slack), or the f16
    /// representation error for the passthrough mode. Poisoned (non-finite)
    /// blocks report an infinite bound.
    pub fn error_bound(&self) -> f32 {
        match int_bits(self.scheme) {
            None => {
                // Relative error ≤ 2⁻¹¹ per normal value, plus half the
                // smallest subnormal step for values in the denormal range.
                let max_abs = dequantize(self).iter().fold(0.0f32, |m, x| m.max(x.abs()));
                if max_abs.is_nan() {
                    return f32::INFINITY;
                }
                max_abs * (1.0 / 2048.0) + f32::from_bits(1).max(2.0f32.powi(-25))
            }
            Some(_) => self
                .scales
                .iter()
                .zip(self.zeros.iter())
                .map(|(&s, &z)| {
                    if !s.is_finite() || !z.is_finite() {
                        f32::INFINITY
                    } else {
                        // Half a step, plus slack for the final f32 rounding
                        // of zero + code·scale and a sub-half-ulp of step
                        // from the f64 intermediates.
                        0.5 * s * (1.0 + 1e-3)
                            + (z.abs() + levels(self.scheme.code_bits()) as f32 * s) * f32::EPSILON
                            + 1e-30
                    }
                })
                .fold(0.0f32, f32::max),
        }
    }

    /// Encode into a self-contained `f32` word stream of exactly
    /// [`QuantScheme::encoded_words`]`(len)` words: the per-block scales and
    /// zero-points verbatim, then the code stream packed four bytes per word
    /// (little-endian), the last word zero-padded. Collectives copy words
    /// without arithmetic, so the round trip through [`Self::from_words`] is
    /// bit-exact.
    pub fn to_words(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.scheme.encoded_words(self.len));
        out.extend_from_slice(&self.scales);
        out.extend_from_slice(&self.zeros);
        let mut packed = self.codes.chunks_exact(4);
        out.extend(
            packed.by_ref().map(|c| {
                f32::from_bits(u32::from_le_bytes(c.try_into().expect("chunks of 4 bytes")))
            }),
        );
        if !packed.remainder().is_empty() {
            let mut last = [0u8; 4];
            last[..packed.remainder().len()].copy_from_slice(packed.remainder());
            out.push(f32::from_bits(u32::from_le_bytes(last)));
        }
        debug_assert_eq!(out.len(), self.scheme.encoded_words(self.len));
        out
    }

    /// Decode a word stream produced by [`Self::to_words`] for a buffer of
    /// `len` elements under `scheme`.
    ///
    /// # Errors
    /// [`DecodeError::WrongLength`] if `words` has the wrong length for
    /// `(scheme, len)`; [`DecodeError::NonzeroPadding`] if any bit after the
    /// last code is set — no encoder produces one, so the stream is corrupt.
    pub fn from_words(
        words: &[f32],
        len: usize,
        scheme: QuantScheme,
    ) -> Result<Quantized, DecodeError> {
        let expected = scheme.encoded_words(len);
        if words.len() != expected {
            return Err(DecodeError::WrongLength { expected, got: words.len() });
        }
        let nb = scheme.blocks(len);
        let (scales, rest) = words.split_at(nb);
        let (zeros, packed) = rest.split_at(nb);
        let mut codes = vec![0u8; 4 * packed.len()];
        for (c, w) in codes.chunks_exact_mut(4).zip(packed) {
            c.copy_from_slice(&w.to_bits().to_le_bytes());
        }
        let code_bytes = scheme.code_bytes(len);
        // Whole padding bytes, then the unused high bits of the last code
        // byte (an odd-length int4 stream).
        let tail_bits = len * scheme.code_bits() as usize % 8;
        if codes[code_bytes..].iter().any(|&b| b != 0)
            || (tail_bits != 0 && codes[code_bytes - 1] >> tail_bits != 0)
        {
            return Err(DecodeError::NonzeroPadding);
        }
        codes.truncate(code_bytes);
        Ok(Quantized { scheme, len, scales: scales.to_vec(), zeros: zeros.to_vec(), codes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference codec: the plain per-element formulas (a libm
    /// `round`, an `i / block` per element) that the blocked, vectorized
    /// kernels must match bit for bit.
    mod oracle {
        use super::super::*;

        fn pack_code(codes: &mut [u8], bits: u32, i: usize, code: u32) {
            match bits {
                8 => codes[i] = code as u8,
                4 => {
                    let shift = (i % 2) * 4;
                    codes[i / 2] |= ((code & 0xf) as u8) << shift;
                }
                _ => unreachable!("unsupported bit width"),
            }
        }

        fn unpack_code(codes: &[u8], bits: u32, i: usize) -> u32 {
            match bits {
                8 => codes[i] as u32,
                4 => ((codes[i / 2] >> ((i % 2) * 4)) & 0xf) as u32,
                _ => unreachable!("unsupported bit width"),
            }
        }

        pub fn quantize(data: &[f32], scheme: QuantScheme) -> Quantized {
            let len = data.len();
            match int_bits(scheme) {
                None => {
                    let mut codes = Vec::with_capacity(2 * len);
                    for &x in data {
                        codes.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
                    }
                    Quantized { scheme, len, scales: Vec::new(), zeros: Vec::new(), codes }
                }
                Some(bits) => {
                    let block = scheme.block().unwrap();
                    let nb = scheme.blocks(len);
                    let mut scales = Vec::with_capacity(nb);
                    let mut zeros = Vec::with_capacity(nb);
                    let mut codes = vec![0u8; scheme.code_bytes(len)];
                    let lv = levels(bits);
                    for b in 0..nb {
                        let span = &data[b * block..len.min((b + 1) * block)];
                        if !span.iter().all(|x| x.is_finite()) {
                            scales.push(f32::NAN);
                            zeros.push(f32::NAN);
                            continue;
                        }
                        let mut min = f32::INFINITY;
                        let mut max = f32::NEG_INFINITY;
                        for &x in span {
                            min = min.min(x);
                            max = max.max(x);
                        }
                        let scale = ((max as f64 - min as f64) / lv as f64) as f32;
                        if !scale.is_normal() {
                            scales.push(0.0);
                            zeros.push(min);
                            continue;
                        }
                        scales.push(scale);
                        zeros.push(min);
                        let inv = 1.0 / scale as f64;
                        for (j, &x) in span.iter().enumerate() {
                            let t = ((x as f64 - min as f64) * inv).round();
                            let code = t.clamp(0.0, lv as f64) as u32;
                            pack_code(&mut codes, bits, b * block + j, code);
                        }
                    }
                    Quantized { scheme, len, scales, zeros, codes }
                }
            }
        }

        pub fn dequantize(q: &Quantized) -> Vec<f32> {
            match int_bits(q.scheme) {
                None => (0..q.len)
                    .map(|i| {
                        f16_bits_to_f32(u16::from_le_bytes([q.codes[2 * i], q.codes[2 * i + 1]]))
                    })
                    .collect(),
                Some(bits) => {
                    let block = q.scheme.block().unwrap();
                    (0..q.len)
                        .map(|i| {
                            let b = i / block;
                            let code = unpack_code(&q.codes, bits, i);
                            (q.zeros[b] as f64 + code as f64 * q.scales[b] as f64) as f32
                        })
                        .collect()
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit patterns of computed values, every NaN mapped to one: Rust
    /// leaves the payload of an arithmetic NaN unspecified.
    fn value_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// Field-by-field bit equality (`PartialEq` on `Quantized` treats the
    /// NaN metadata of poisoned blocks as unequal).
    fn assert_bit_equal(got: &Quantized, want: &Quantized, ctx: &str) {
        assert_eq!((got.scheme, got.len), (want.scheme, want.len), "{ctx}");
        assert_eq!(got.codes, want.codes, "{ctx}: codes");
        assert_eq!(bits(&got.scales), bits(&want.scales), "{ctx}: scales");
        assert_eq!(bits(&got.zeros), bits(&want.zeros), "{ctx}: zeros");
    }

    /// An adversarial element drawn from `r`. Mode 0 mixes signs and every
    /// magnitude class with rare non-finite values; modes 1 and 2 are
    /// non-negative / non-positive with zeros of both signs (the blocks
    /// whose zero extremum has a sign to get right); mode 3 is nothing but
    /// ±0 (constant blocks).
    fn adversarial(r: u64, mode: u64) -> f32 {
        let mag = match (r >> 8) % 8 {
            0 => 0.0,
            1 => f32::from_bits(1 + (r >> 16) as u32 % 0x007f_ffff), // subnormal
            2 => f32::MIN_POSITIVE,
            3 => f32::MAX,
            4 => f32::from_bits(1),
            _ => ((r >> 16) % 100_000) as f32 * 1e-3,
        };
        let neg = r & 1 == 1;
        match mode {
            0 => match (r >> 1) % 64 {
                0 => f32::NAN,
                1 => f32::from_bits(0x7f80_0001), // signalling NaN
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                _ if neg => -mag,
                _ => mag,
            },
            1 if mag == 0.0 && neg => -0.0,
            1 => mag,
            2 if mag == 0.0 && !neg => 0.0,
            2 => -mag,
            _ if neg => -0.0,
            _ => 0.0,
        }
    }

    const SCHEMES: [QuantScheme; 3] =
        [QuantScheme::F16, QuantScheme::Int8 { block: 128 }, QuantScheme::Int4 { block: 128 }];

    /// Deterministic pseudo-random test payload with a given seed.
    fn payload(seed: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| ((seed * 131 + i * 29) as f32 * 0.137).sin() * 3.0).collect()
    }

    #[test]
    fn round_trip_stays_inside_reported_bound() {
        for scheme in SCHEMES {
            for len in [0usize, 1, 7, 128, 129, 1000] {
                let data = payload(len + 1, len);
                let q = quantize(&data, scheme);
                let bound = q.error_bound();
                for (i, (&x, &y)) in data.iter().zip(dequantize(&q).iter()).enumerate() {
                    let err = (x - y).abs();
                    assert!(err <= bound, "{scheme:?} len={len} i={i}: |{x}-{y}|={err} > {bound}");
                }
            }
        }
    }

    #[test]
    fn int8_bound_is_half_step_of_worst_block() {
        let data = payload(3, 512);
        let q = quantize(&data, QuantScheme::int8());
        // The reported bound is essentially scale/2 — tight, not a give-up
        // constant. Find the worst per-block range.
        let worst_range = data
            .chunks(128)
            .map(|c| {
                let min = c.iter().cloned().fold(f32::INFINITY, f32::min);
                let max = c.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                max - min
            })
            .fold(0.0f32, f32::max);
        let half_step = worst_range / 255.0 / 2.0;
        assert!(q.error_bound() >= half_step);
        assert!(q.error_bound() < half_step * 1.1, "bound must stay near scale/2");
    }

    #[test]
    fn f16_passthrough_is_bit_exact_for_f16_values() {
        // Values that are exactly representable in binary16 survive
        // untouched — the property minidl's quantize=true mode relies on.
        let data: Vec<f32> =
            (0..300).map(|i| f16_bits_to_f32(f32_to_f16_bits((i as f32 - 150.0) * 0.25))).collect();
        assert_eq!(round_trip(&data, QuantScheme::F16), data);
    }

    #[test]
    fn constant_blocks_are_exact() {
        let data = vec![1.2345f32; 300];
        for scheme in [QuantScheme::int8(), QuantScheme::int4()] {
            assert_eq!(round_trip(&data, scheme), data);
        }
    }

    #[test]
    fn rounding_ties_go_away_from_zero() {
        // Scale 1 and zero 0 make every code's `t` the value itself, so the
        // half-integers are exact ties: they round up, like `f64::round`.
        let int8 = [0.0, 255.0, 0.5, 1.5, 2.5, 254.5];
        let int4 = [0.0, 15.0, 0.5, 1.5, 14.5];
        for (data, scheme, codes) in [
            (&int8[..], QuantScheme::Int8 { block: 8 }, vec![0, 255, 1, 2, 3, 255]),
            (&int4[..], QuantScheme::Int4 { block: 8 }, vec![0xf0, 0x21, 0x0f]),
        ] {
            let q = quantize(data, scheme);
            assert_eq!(q.codes, codes, "{scheme:?}");
            assert_bit_equal(&q, &oracle::quantize(data, scheme), &format!("{scheme:?}"));
        }
    }

    #[test]
    fn int4_packs_two_codes_per_byte() {
        let data = payload(9, 256);
        let q = quantize(&data, QuantScheme::int4());
        assert_eq!(q.codes.len(), 128);
        // And wire accounting charges 4 bits/elem + 8 B per 128-elem block.
        assert_eq!(q.wire_bytes(), 128 + 2 * 8);
    }

    #[test]
    fn wire_bytes_accounting() {
        let s = QuantScheme::int8();
        assert_eq!(s.wire_bytes(0), 0);
        assert_eq!(s.wire_bytes(1), 1 + 8);
        assert_eq!(s.wire_bytes(128), 128 + 8);
        assert_eq!(s.wire_bytes(129), 129 + 16);
        assert_eq!(QuantScheme::F16.wire_bytes(10), 20);
        // Default int8 ratio ≈ 3.76× ("~4×" in the acceptance criteria).
        let r = QuantScheme::int8().ratio(1 << 20);
        assert!((3.7..4.0).contains(&r), "{r}");
        let r4 = QuantScheme::int4().ratio(1 << 20);
        assert!((7.0..8.0).contains(&r4), "{r4}");
    }

    #[test]
    fn non_finite_blocks_poison_their_output() {
        let mut data = payload(4, 256);
        data[5] = f32::NAN;
        data[200] = f32::INFINITY;
        let q = quantize(&data, QuantScheme::int8());
        let out = dequantize(&q);
        // Both 128-element blocks contain a casualty → everything NaN.
        assert!(out.iter().all(|x| x.is_nan()));
        assert!(q.error_bound().is_infinite());
        // f16 passthrough also propagates non-finiteness per element.
        let f = round_trip(&data, QuantScheme::F16);
        assert!(f[5].is_nan() && f[200].is_infinite());
        assert!(f[0].is_finite());
    }

    #[test]
    fn word_encoding_round_trips_bit_exactly() {
        for scheme in SCHEMES {
            for len in [0usize, 1, 63, 128, 257] {
                let q = quantize(&payload(len + 17, len), scheme);
                let words = q.to_words();
                assert_eq!(words.len(), scheme.encoded_words(len));
                let back = Quantized::from_words(&words, len, scheme).expect("own encoding");
                assert_eq!(back, q, "{scheme:?} len={len}");
            }
        }
    }

    #[test]
    fn word_encoding_round_trips_poisoned_blocks() {
        let mut data = payload(8, 130);
        data[129] = f32::NEG_INFINITY;
        let q = quantize(&data, QuantScheme::int8());
        let back = Quantized::from_words(&q.to_words(), 130, QuantScheme::int8()).unwrap();
        let out = dequantize(&back);
        assert!(out[..128].iter().all(|x| x.is_finite()));
        assert!(out[128..].iter().all(|x| x.is_nan()));
    }

    #[test]
    fn from_words_rejects_wrong_length() {
        assert_eq!(
            Quantized::from_words(&[0.0; 3], 128, QuantScheme::int8()),
            Err(DecodeError::WrongLength { expected: 34, got: 3 })
        );
        let words = quantize(&payload(1, 10), QuantScheme::F16).to_words();
        assert!(Quantized::from_words(&words[1..], 10, QuantScheme::F16).is_err());
    }

    #[test]
    fn from_words_rejects_nonzero_padding() {
        // (scheme, len) pairs whose code stream ends inside its last word:
        // padding bytes (int8 × 5, f16 × 3) and an odd int4 stream's spare
        // high nibble (int4 × 7).
        for (scheme, len) in
            [(QuantScheme::int8(), 5usize), (QuantScheme::F16, 3), (QuantScheme::int4(), 7)]
        {
            let words = quantize(&payload(2, len), scheme).to_words();
            assert!(Quantized::from_words(&words, len, scheme).is_ok());
            let last = words.len() - 1;
            let used_bits = len * scheme.code_bits() as usize % 32;
            let mut bad = words.clone();
            bad[last] = f32::from_bits(words[last].to_bits() | 1 << used_bits);
            assert_eq!(
                Quantized::from_words(&bad, len, scheme),
                Err(DecodeError::NonzeroPadding),
                "{scheme:?} × {len}"
            );
        }
    }

    #[test]
    fn codes_are_packed_at_their_real_width() {
        // One metadata pair per block, then 4 int8 / 8 int4 codes or 2 f16
        // halves per word; the byte count differs from the cost model's
        // wire_bytes only by the last word's padding.
        assert_eq!(QuantScheme::int8().encoded_words(128), 2 + 32);
        assert_eq!(QuantScheme::int4().encoded_words(128), 2 + 16);
        assert_eq!(QuantScheme::F16.encoded_words(5), 3);
        for scheme in SCHEMES {
            for len in [0usize, 1, 5, 127, 128, 129, 1000] {
                let pad = 4 * scheme.encoded_words(len) as u64 - scheme.wire_bytes(len);
                assert!(pad < 4, "{scheme:?} × {len}: {pad} padding bytes");
            }
        }
        // Scale 1, zero 0: the codes are the values, first code lowest.
        let q = quantize(&[0.0, 255.0, 1.0, 2.0, 3.0], QuantScheme::Int8 { block: 8 });
        let words = q.to_words();
        assert_eq!(words.len(), 4);
        assert_eq!(words[2].to_bits(), u32::from_le_bytes([0, 255, 1, 2]));
        assert_eq!(words[3].to_bits(), 3);
    }

    #[test]
    fn labels() {
        assert_eq!(QuantScheme::F16.label(), "f16");
        assert_eq!(QuantScheme::int8().label(), "int8/128");
        assert_eq!(CompressionConfig::both(QuantScheme::int8()).label(), "int8/128·wg");
        let mut c = CompressionConfig::grads_only(QuantScheme::int4());
        c.scope = CompressionScope::IntraGroupOnly;
        assert_eq!(c.label(), "int4/128·g·intra");
    }

    #[test]
    fn cost_model_agrees_with_kernel_accounting() {
        // The α–β model's compressed_bytes must equal the kernels' real
        // wire_bytes whenever the element count is whole.
        for scheme in SCHEMES {
            let cm = scheme.cost_model();
            for len in [128usize, 1000, 1 << 16] {
                assert_eq!(
                    cm.compressed_bytes(4 * len as u64),
                    scheme.wire_bytes(len),
                    "{scheme:?} len={len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip error ≤ the reported per-block half-step bound, for
        /// adversarial shapes: empty buffers, len < block, len % block ≠ 0,
        /// block = 1.
        #[test]
        fn prop_round_trip_error_bounded(
            seed in 0usize..1000,
            len in 0usize..600,
            block in 1usize..200,
            bits4 in 0usize..2,
        ) {
            let scheme = if bits4 == 1 {
                QuantScheme::Int4 { block }
            } else {
                QuantScheme::Int8 { block }
            };
            let data = payload(seed, len);
            let q = quantize(&data, scheme);
            let bound = q.error_bound();
            let out = dequantize(&q);
            prop_assert_eq!(out.len(), len);
            for (&x, &y) in data.iter().zip(out.iter()) {
                prop_assert!((x - y).abs() <= bound,
                    "scheme {:?}: |{} - {}| > {}", scheme, x, y, bound);
            }
        }

        /// The word encoding is a bijection for every shape.
        #[test]
        fn prop_words_round_trip(
            seed in 0usize..1000,
            len in 0usize..400,
            block in 1usize..130,
        ) {
            for scheme in [QuantScheme::F16, QuantScheme::Int8 { block }, QuantScheme::Int4 { block }] {
                let q = quantize(&payload(seed, len), scheme);
                let back = Quantized::from_words(&q.to_words(), len, scheme).unwrap();
                prop_assert_eq!(back, q);
            }
        }

        /// The blocked kernels are bit-identical to the per-element oracle
        /// — codes, scales, zeros, dequantized values and range sums — for
        /// every scheme and block size, on signed zeros, subnormals,
        /// constant blocks and blocks holding NaN or ±inf; and the packed
        /// words round-trip every such buffer bit-exactly.
        #[test]
        fn prop_codec_matches_oracle(
            raw in prop::collection::vec(0u64..u64::MAX, 0usize..300),
            mode in 0u64..4,
            block in 1usize..200,
            constant in 0usize..2,
            range in 0usize..10_000,
        ) {
            let mut data: Vec<f32> = raw.iter().map(|&r| adversarial(r, mode)).collect();
            if constant == 1 {
                for i in 0..data.len() {
                    data[i] = data[i - i % block];
                }
            }
            for scheme in [QuantScheme::F16, QuantScheme::Int8 { block }, QuantScheme::Int4 { block }] {
                let ctx = format!("{scheme:?} mode {mode}");
                let q = quantize(&data, scheme);
                let want = oracle::quantize(&data, scheme);
                assert_bit_equal(&q, &want, &ctx);
                let deq = oracle::dequantize(&want);
                prop_assert_eq!(value_bits(&dequantize(&q)), value_bits(&deq), "{}", ctx);

                let start = range % (data.len() + 1);
                let n = (range / 7) % (data.len() - start + 1);
                let mut out: Vec<f32> = data[..n].to_vec();
                dequantize_range_add(&q, start, &mut out);
                let sum: Vec<f32> = data[..n].iter().zip(&deq[start..]).map(|(a, b)| a + b).collect();
                prop_assert_eq!(value_bits(&out), value_bits(&sum), "{} range {}+{}", ctx, start, n);

                let back = Quantized::from_words(&q.to_words(), data.len(), scheme)
                    .expect("own encoding decodes");
                assert_bit_equal(&back, &q, &ctx);
            }
        }

        /// Quantization is idempotent: re-quantizing a dequantized buffer
        /// reproduces it exactly (the per-hop requantization in qgZ-style
        /// reduction does not drift on already-quantized data).
        #[test]
        fn prop_requantization_is_stable(
            seed in 0usize..1000,
            len in 1usize..300,
        ) {
            let scheme = QuantScheme::int8();
            let once = round_trip(&payload(seed, len), scheme);
            let twice = round_trip(&once, scheme);
            for (&a, &b) in once.iter().zip(twice.iter()) {
                // Stable to the rounding slack of one extra trip.
                prop_assert!((a - b).abs() <= 2.0 * quantize(&once, scheme).error_bound());
            }
        }
    }
}
