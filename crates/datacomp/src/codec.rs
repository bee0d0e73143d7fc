//! Compression codecs — the "associated decompression code" a compressed
//! version of a data component carries.
//!
//! Scenario 2's wireless optimiser "decides to send a compressed version of
//! the data thus using more resources on both the sensor and the Laptop
//! while saving communication time". That trade-off is real here: both
//! codecs are implemented from scratch, cost CPU proportional to input size,
//! and are benchmarked against link bandwidth in the scenario benches.
//!
//! * [`RleCodec`] — byte run-length encoding: cheap, effective on sensor
//!   streams full of repeated readings;
//! * [`LzCodec`] — an LZ77-style sliding-window coder: costlier, stronger on
//!   structured text like XML.

use std::fmt;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended mid-token.
    Truncated,
    /// A back-reference pointed before the start of output.
    BadReference {
        /// Offset of the bad token.
        at: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated compressed stream"),
            CodecError::BadReference { at } => write!(f, "bad back-reference at {at}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A compression codec.
pub trait Codec {
    /// The codec's wire name (stored in version metadata).
    fn name(&self) -> &'static str;

    /// Compress.
    fn encode(&self, data: &[u8]) -> Vec<u8>;

    /// Decompress.
    ///
    /// # Errors
    /// [`CodecError`] on malformed input.
    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError>;

    /// Relative CPU cost per input byte (1.0 = RLE). Used by the scenarios
    /// to charge device CPU for choosing compression.
    fn cpu_cost_per_byte(&self) -> f64;
}

/// Byte run-length encoding: `(count, byte)` pairs, count ≥ 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct RleCodec;

impl Codec for RleCodec {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 8);
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == b && run < 255 {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        out
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        if !data.len().is_multiple_of(2) {
            return Err(CodecError::Truncated);
        }
        let mut out = Vec::with_capacity(data.len());
        for pair in data.chunks_exact(2) {
            let (count, b) = (pair[0], pair[1]);
            if count == 0 {
                return Err(CodecError::BadReference { at: out.len() });
            }
            out.extend(std::iter::repeat_n(b, count as usize));
        }
        Ok(out)
    }

    fn cpu_cost_per_byte(&self) -> f64 {
        1.0
    }
}

/// An LZ77-style coder with a 4 KiB window.
///
/// Token format: `0x00 len <len literal bytes>` or `0x01 off_hi off_lo len`
/// (a back-reference of `len` bytes at distance `off`). Greedy longest-match
/// search; min match 4, max match 255, max literal run 255.
#[derive(Debug, Clone, Copy, Default)]
pub struct LzCodec;

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;

impl LzCodec {
    fn find_match(data: &[u8], pos: usize) -> Option<(usize, usize)> {
        let window_start = pos.saturating_sub(WINDOW);
        let max_len = (data.len() - pos).min(MAX_MATCH);
        if max_len < MIN_MATCH {
            return None;
        }
        let mut best: Option<(usize, usize)> = None;
        let needle = &data[pos..pos + MIN_MATCH];
        let mut cand = window_start;
        while cand < pos {
            if &data[cand..cand + MIN_MATCH] == needle {
                let mut len = MIN_MATCH;
                while len < max_len && data[cand + len] == data[pos + len] {
                    len += 1;
                }
                if best.is_none_or(|(_, bl)| len > bl) {
                    best = Some((pos - cand, len));
                    if len == max_len {
                        break;
                    }
                }
            }
            cand += 1;
        }
        best
    }
}

impl Codec for LzCodec {
    fn name(&self) -> &'static str {
        "lz"
    }

    fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        let mut lits: Vec<u8> = Vec::new();
        let flush = |lits: &mut Vec<u8>, out: &mut Vec<u8>| {
            for chunk in lits.chunks(255) {
                out.push(0x00);
                out.push(chunk.len() as u8);
                out.extend_from_slice(chunk);
            }
            lits.clear();
        };
        let mut i = 0;
        while i < data.len() {
            if let Some((off, len)) = Self::find_match(data, i) {
                flush(&mut lits, &mut out);
                out.push(0x01);
                out.push((off >> 8) as u8);
                out.push((off & 0xff) as u8);
                out.push(len as u8);
                i += len;
            } else {
                lits.push(data[i]);
                i += 1;
            }
        }
        flush(&mut lits, &mut out);
        out
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(data.len() * 2);
        let mut i = 0;
        while i < data.len() {
            match data[i] {
                0x00 => {
                    let len = *data.get(i + 1).ok_or(CodecError::Truncated)? as usize;
                    let end = i + 2 + len;
                    if end > data.len() {
                        return Err(CodecError::Truncated);
                    }
                    out.extend_from_slice(&data[i + 2..end]);
                    i = end;
                }
                0x01 => {
                    if i + 3 >= data.len() {
                        return Err(CodecError::Truncated);
                    }
                    let off = ((data[i + 1] as usize) << 8) | data[i + 2] as usize;
                    let len = data[i + 3] as usize;
                    if off == 0 || off > out.len() {
                        return Err(CodecError::BadReference { at: i });
                    }
                    let start = out.len() - off;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                    i += 4;
                }
                _ => return Err(CodecError::BadReference { at: i }),
            }
        }
        Ok(out)
    }

    fn cpu_cost_per_byte(&self) -> f64 {
        6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor_like() -> Vec<u8> {
        // Repetitive XML, the shape both codecs will really see.
        let mut s = String::new();
        for t in 0..200 {
            s.push_str(&format!(r#"<reading sensor="temp" t="{t}">21.{}</reading>"#, t % 10));
        }
        s.into_bytes()
    }

    #[test]
    fn rle_roundtrip() {
        let data = b"aaaabbbcccccccccccccd".to_vec();
        let c = RleCodec;
        assert_eq!(c.decode(&c.encode(&data)).unwrap(), data);
    }

    #[test]
    fn rle_compresses_runs() {
        let data = vec![7u8; 1000];
        let enc = RleCodec.encode(&data);
        assert!(enc.len() <= 8, "1000-byte run should encode in ≤4 pairs, got {}", enc.len());
    }

    #[test]
    fn lz_roundtrip_structured_text() {
        let data = sensor_like();
        let c = LzCodec;
        let enc = c.encode(&data);
        assert_eq!(c.decode(&enc).unwrap(), data);
        assert!(
            enc.len() < data.len() / 2,
            "LZ should halve repetitive XML: {} -> {}",
            data.len(),
            enc.len()
        );
    }

    #[test]
    fn lz_beats_rle_on_xml_and_costs_more_cpu() {
        let data = sensor_like();
        let lz = LzCodec.encode(&data);
        let rle = RleCodec.encode(&data);
        assert!(lz.len() < rle.len());
        assert!(LzCodec.cpu_cost_per_byte() > RleCodec.cpu_cost_per_byte());
    }

    #[test]
    fn empty_input_roundtrips() {
        for c in [&RleCodec as &dyn Codec, &LzCodec] {
            assert_eq!(c.encode(&[]), Vec::<u8>::new());
            assert_eq!(c.decode(&[]).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn rle_rejects_truncated_and_zero_count() {
        assert_eq!(RleCodec.decode(&[3]), Err(CodecError::Truncated));
        assert!(matches!(RleCodec.decode(&[0, 65]), Err(CodecError::BadReference { .. })));
    }

    #[test]
    fn lz_rejects_malformed() {
        assert_eq!(LzCodec.decode(&[0x00, 5, 1, 2]), Err(CodecError::Truncated));
        assert!(matches!(LzCodec.decode(&[0x01, 0, 9, 4]), Err(CodecError::BadReference { .. })));
        assert!(matches!(LzCodec.decode(&[0x02]), Err(CodecError::BadReference { .. })));
        assert_eq!(LzCodec.decode(&[0x01, 0, 0]), Err(CodecError::Truncated));
    }

    #[test]
    fn lz_overlapping_reference_expands() {
        // "abcabcabc..." uses an overlapping back-reference (off 3, len >3).
        let data = b"abcabcabcabcabcabcabc".to_vec();
        let c = LzCodec;
        assert_eq!(c.decode(&c.encode(&data)).unwrap(), data);
    }
}
