//! Property tests: codecs must round-trip arbitrary bytes, and the XML
//! writer/parser must agree on arbitrary well-formed documents.

use adm_rng::{run_cases, Pcg32};
use datacomp::codec::{Codec, LzCodec, RleCodec};
use datacomp::xml::{parse_events, write_events, XmlEvent};

fn xml_name(rng: &mut Pcg32) -> String {
    let mut s = String::new();
    s.push((b'a' + rng.below(26) as u8) as char);
    for _ in 0..rng.index(7) {
        let c = match rng.below(38) {
            x if x < 26 => (b'a' + x as u8) as char,
            x if x < 36 => (b'0' + (x - 26) as u8) as char,
            36 => '_',
            _ => '-',
        };
        s.push(c);
    }
    s
}

fn printable(rng: &mut Pcg32, lo: usize, hi: usize) -> String {
    let n = rng.index(hi - lo + 1) + lo;
    (0..n).map(|_| (b' ' + rng.below(95) as u8) as char).collect()
}

fn attrs(rng: &mut Pcg32) -> Vec<(String, String)> {
    (0..rng.index(3)).map(|_| (xml_name(rng), printable(rng, 0, 12))).collect()
}

/// Generate a balanced event stream by recursive element construction.
fn element(rng: &mut Pcg32, depth: u32) -> Vec<XmlEvent> {
    let name = xml_name(rng);
    let attrs = attrs(rng);
    let mut ev = vec![XmlEvent::Start { name: name.clone(), attrs }];
    if depth == 0 {
        let text = printable(rng, 1, 20);
        if !text.trim().is_empty() {
            ev.push(XmlEvent::Text(text));
        }
    } else {
        for _ in 0..rng.index(3) {
            ev.extend(element(rng, depth - 1));
        }
    }
    ev.push(XmlEvent::End { name });
    ev
}

fn bytes(rng: &mut Pcg32, max_len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; rng.index(max_len)];
    rng.fill_bytes(&mut buf);
    buf
}

#[test]
fn rle_roundtrips_arbitrary_bytes() {
    run_cases(0xdc1, 256, |rng| {
        let data = bytes(rng, 2000);
        let c = RleCodec;
        assert_eq!(c.decode(&c.encode(&data)).unwrap(), data);
    });
}

#[test]
fn lz_roundtrips_arbitrary_bytes() {
    run_cases(0xdc2, 256, |rng| {
        let data = bytes(rng, 2000);
        let c = LzCodec;
        assert_eq!(c.decode(&c.encode(&data)).unwrap(), data);
    });
}

/// Low-entropy inputs (the realistic sensor case) must not grow by more
/// than the token framing overhead under LZ.
#[test]
fn lz_compresses_repetitive_input() {
    run_cases(0xdc3, 256, |rng| {
        let byte = rng.below(256) as u8;
        let len = rng.index(2048 - 64) + 64;
        let data = vec![byte; len];
        let enc = LzCodec.encode(&data);
        assert!(enc.len() < data.len() / 4);
    });
}

#[test]
fn xml_write_parse_fixpoint() {
    run_cases(0xdc4, 512, |rng| {
        let ev = element(rng, 2);
        let s = write_events(&ev);
        let parsed = parse_events(&s);
        assert_eq!(parsed.as_ref().ok(), Some(&ev), "doc: {s}");
    });
}
