//! Fuzz target: the lineage snapshot codec (`BFLG`) on arbitrary bytes.
//!
//! A restoring tenant rebuilds its lineage graph and alert trail from the
//! `BFLG` snapshot inside its state metadata. Every input must fail
//! closed — a [`LineageCodecError`](browserflow::lineage::LineageCodecError) — and
//! never panic. A snapshot that does decode must re-encode to exactly the
//! bytes it came from, so a drain after a restore writes back what it
//! read.
//!
//! The first input byte selects the surface, the rest is the payload:
//!
//! - `0`: [`decode_snapshot`] on the raw payload, trailing CRC-32
//!   included, so most mutations stop at the checksum.
//! - `1`: the payload is a snapshot *without* its trailing CRC-32; the
//!   target appends the payload's CRC before decoding, so mutations get
//!   past the checksum and reach the parser.

use browserflow::lineage::{decode_snapshot, encode_snapshot};
use browserflow_store::codec::crc32;
use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    let Some((&mode, payload)) = data.split_first() else {
        return;
    };
    let mut snapshot = payload.to_vec();
    if mode % 2 == 1 {
        snapshot.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    if let Ok((graph, alerts)) = decode_snapshot(&snapshot) {
        assert!(
            encode_snapshot(&graph, &alerts) == snapshot,
            "a decoded snapshot must re-encode to its own bytes"
        );
    }
});
