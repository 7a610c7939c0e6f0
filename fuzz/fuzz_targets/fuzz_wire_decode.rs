//! Fuzz target: the `bfd` wire decode surface on arbitrary bytes.
//!
//! The daemon decodes every request, and a client every reply, from
//! bytes its peer controls, so a hostile frame must fail *closed* — a
//! `serde_json::Error` or a [`FrameError`] — and never panic, whatever
//! the bytes.
//!
//! The first input byte selects the surface, the rest is the payload:
//!
//! - `0`: the payload is one [`Request`] body, decoded the way the
//!   server's connection loop decodes it.
//! - `1`: the payload is one [`Reply`] body, decoded the way
//!   [`read_reply`](browserflow_daemon::protocol::read_reply) decodes it.
//! - `2`: the payload is a raw connection byte stream: frames are read
//!   and decoded as requests until a clean EOF or a framing error
//!   (hostile length prefix, truncation), carrying on past a malformed
//!   body exactly as the server does.
//!
//! A body that decodes must also re-encode to a body that decodes to the
//! same value.

use std::fmt::Debug;

use browserflow_daemon::protocol::{read_request, FrameError};
use browserflow_daemon::{Reply, Request};
use libfuzzer_sys::fuzz_target;
use serde::de::DeserializeOwned;
use serde::Serialize;

fn decode_roundtrips<T: Serialize + DeserializeOwned + PartialEq + Debug>(body: &[u8]) {
    let Ok(value) = serde_json::from_slice::<T>(body) else {
        return;
    };
    // Re-encoding may refuse a float the decoder widened to infinity;
    // anything it does write must read back unchanged.
    if let Ok(again) = serde_json::to_vec(&value) {
        let reread = serde_json::from_slice::<T>(&again).expect("re-encoded body decodes");
        assert_eq!(reread, value);
    }
}

fuzz_target!(|data: &[u8]| {
    let Some((&mode, payload)) = data.split_first() else {
        return;
    };
    match mode % 3 {
        0 => decode_roundtrips::<Request>(payload),
        1 => decode_roundtrips::<Reply>(payload),
        _ => {
            let mut stream = payload;
            // A malformed body leaves the framing in sync, so reading
            // carries on; EOF or a framing error ends the connection.
            while let Ok(Some(_)) | Err(FrameError::Malformed(_)) = read_request(&mut stream) {}
        }
    }
});
