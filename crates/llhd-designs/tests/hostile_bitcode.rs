//! Hostile bitcode against `decode_module` over the ten paper designs:
//! every strict prefix and every single-byte corruption of a real
//! module's bitcode must come back as `Ok` or `Err` — never as a panic,
//! and never as an allocation sized by a number the input merely claims.
//! Bitcode is the on-disk format, so its bytes come from outside the
//! program and a panic here is a crash on a damaged file.

use llhd::assembly::write_module;
use llhd::bitcode::{decode_module, encode_module, write_varint};
use llhd_designs::all_designs;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Default, Debug)]
struct Tally {
    blobs: usize,
    rejected: usize,
    decoded: usize,
    panics: usize,
}

impl Tally {
    /// Decode one blob; `true` if it was rejected with an `Err`.
    fn feed(&mut self, bytes: &[u8]) -> bool {
        self.blobs += 1;
        match catch_unwind(AssertUnwindSafe(|| decode_module(bytes))) {
            Err(_) => self.panics += 1,
            Ok(Err(_)) => {
                self.rejected += 1;
                return true;
            }
            Ok(Ok(_)) => self.decoded += 1,
        }
        false
    }
}

#[test]
fn corrupt_bitcode_never_panics_the_decoder() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut tally = Tally::default();
    // Blobs that must be rejected (prefixes, crafted) but were not.
    let mut accepted = 0;
    for design in all_designs() {
        let blob = encode_module(&design.build().unwrap());
        for len in 0..blob.len() {
            accepted += !tally.feed(&blob[..len]) as usize;
        }
        let mut bytes = blob.clone();
        for i in 0..blob.len() {
            for mask in [0x01, 0x80, 0xff] {
                bytes[i] ^= mask;
                tally.feed(&bytes);
                bytes[i] = blob[i];
            }
        }
    }
    // A struct type claiming 2^62 fields (`capacity overflow`) and one
    // claiming 2^40 (an 8 TiB request: `handle_alloc_error`, an abort).
    for shift in [62, 40] {
        let mut bytes = b"LLHD\x01\x00\x01\x08".to_vec();
        write_varint(&mut bytes, 1 << shift);
        accepted += !tally.feed(&bytes) as usize;
    }
    std::panic::set_hook(hook);
    println!("hostile bitcode: {:?}", tally);
    assert_eq!(tally.panics, 0, "decode_module panicked");
    assert_eq!(accepted, 0, "a strict prefix or an absurd field count decoded");
    assert!(tally.blobs >= 51_660 && tally.decoded > 0, "{:?}", tally);
}

#[test]
fn every_design_round_trips_through_bitcode() {
    for design in all_designs() {
        let module = design.build().unwrap();
        let decoded = decode_module(&encode_module(&module)).unwrap();
        assert_eq!(write_module(&module), write_module(&decoded), "{}", design.name);
    }
}
