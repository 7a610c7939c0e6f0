//! Fuzz target: the restore path's metadata decode on arbitrary bytes.
//!
//! A restarting daemon decodes each tenant's sealed `state.bfmeta` (and
//! an imported envelope its metadata chunk) with the vendored JSON
//! parser. The seal authenticates the bytes, not their sense: a metadata
//! file written by a buggy or older build must still fail *closed* — a
//! [`StateError`](browserflow::StateError) — and never panic.
//!
//! The first input byte selects the surface, the rest is the payload:
//!
//! - `0`: the payload is sealed under the fixture key as the metadata
//!   file of a pristine drained tenant, and
//!   [`BrowserFlow::load_from_dir`] restores it.
//! - `1`: the payload is the metadata chunk of an otherwise real
//!   [`BrowserFlow::export_sealed`] envelope, and
//!   [`BrowserFlow::import_sealed`] restores it.
//! - `2`: the payload overwrites the metadata file unsealed, so the
//!   sealed-container framing sees the hostile bytes.
//!
//! A restore that succeeds must leave a flow that can still decide a
//! check.

use std::fs;
use std::sync::OnceLock;

use browserflow::{BrowserFlow, CheckRequest};
use browserflow_fuzz::{sample_paragraph, DrainedState, STATE_KEY};
use browserflow_store::StoreKey;
use libfuzzer_sys::fuzz_target;

fn drained() -> &'static DrainedState {
    static FIXTURE: OnceLock<DrainedState> = OnceLock::new();
    FIXTURE.get_or_init(|| DrainedState::create("state-metadata"))
}

fn exercise(flow: &BrowserFlow) {
    let probe = sample_paragraph(2);
    let _ = flow.check_one(&CheckRequest::paragraph(
        "gdocs",
        "probe",
        0,
        probe.as_str(),
    ));
}

fuzz_target!(|data: &[u8]| {
    let Some((&mode, payload)) = data.split_first() else {
        return;
    };
    let fx = drained();
    let key = StoreKey::from_bytes(STATE_KEY);
    match mode % 3 {
        0 => {
            fs::write(&fx.metadata, key.seal_auto(payload).to_bytes()).expect("metadata overwrite");
            if let Ok((flow, _)) = BrowserFlow::load_from_dir(key, &fx.dir) {
                exercise(&flow);
            }
        }
        1 => {
            let mut envelope = Vec::with_capacity(4 + payload.len() + fx.store_chunks.len());
            envelope.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            envelope.extend_from_slice(payload);
            envelope.extend_from_slice(&fx.store_chunks);
            if let Ok(flow) = BrowserFlow::import_sealed(key.clone(), &key.seal_auto(&envelope)) {
                exercise(&flow);
            }
        }
        _ => {
            fs::write(&fx.metadata, payload).expect("metadata overwrite");
            let _ = BrowserFlow::load_from_dir(key, &fx.dir);
        }
    }
});
