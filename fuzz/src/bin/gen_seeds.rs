//! Regenerates the checked-in seed corpora under `fuzz/corpus/` from real
//! persisted payloads, so the fuzzers start from well-formed inputs (the
//! interesting failures live a few mutations away from valid bytes, not
//! in random noise).
//!
//! The wire, state-metadata and lineage seeds come from a real session:
//! an in-process `bfd` serves one tenant's create → observe → check →
//! stats → drain, and every frame body, the drained metadata and the
//! drained tenant's lineage snapshot become seeds. The few run-dependent values (reply latencies, the state
//! path, the seal's nonce) are pinned, so a rerun rewrites every seed
//! byte-identically.
//!
//! Run from anywhere: `cargo run -p browserflow-fuzz --bin gen_seeds`.

use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use browserflow::{BrowserFlow, STATE_METADATA_FILE};
use browserflow_daemon::protocol::write_frame;
use browserflow_daemon::{Daemon, DaemonClient, DaemonConfig, ParagraphSlot, Reply, Request};
use browserflow_fuzz::{
    first_shard, sample_flow, sample_paragraph, sample_store, SnapshotFixture, STATE_KEY,
};
use browserflow_store::codec;
use browserflow_store::persist::MANIFEST_FILE;
use browserflow_store::{SealedBytes, StoreFormat, StoreKey};

fn corpus_dir(target: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(target);
    fs::create_dir_all(&dir).expect("corpus dir");
    dir
}

fn write_seed(dir: &Path, name: &str, bytes: &[u8]) {
    fs::write(dir.join(name), bytes).expect("seed written");
    println!("  {name}: {} bytes", bytes.len());
}

/// A codec seed is the target's input format: one mode byte + payload.
fn mode_seed(mode: u8, payload: &[u8]) -> Vec<u8> {
    let mut seed = Vec::with_capacity(payload.len() + 1);
    seed.push(mode);
    seed.extend_from_slice(payload);
    seed
}

/// Every request and reply body one tenant's life exchanged with an
/// in-process `bfd`, the metadata JSON its tiered drain sealed, and the
/// `BFLG` lineage snapshot the drained state restores to.
struct Session {
    requests: Vec<(&'static str, Vec<u8>)>,
    replies: Vec<(&'static str, Vec<u8>)>,
    metadata_json: Vec<u8>,
    lineage: Vec<u8>,
}

/// Pins the run-dependent fields of a reply: the measured latency, and
/// the state directory under this run's temp root.
fn pin(reply: Reply, root: &Path) -> Reply {
    match reply {
        Reply::Decisions { decisions, .. } => Reply::Decisions {
            decisions,
            latency_us: 0,
        },
        Reply::Drained { mut reports } => {
            for report in &mut reports {
                if let Ok(relative) = Path::new(&report.persisted_to).strip_prefix(root) {
                    report.persisted_to = relative.display().to_string();
                }
            }
            Reply::Drained { reports }
        }
        other => other,
    }
}

fn slots(indices: std::ops::Range<usize>) -> Vec<ParagraphSlot> {
    indices
        .map(|index| ParagraphSlot {
            index,
            text: sample_paragraph(index),
        })
        .collect()
}

fn record_session() -> Session {
    let root = std::env::temp_dir().join(format!("bf-seeds-bfd-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("session dir");
    let socket = root.join("bfd.sock");
    let mut config = DaemonConfig::new(&socket);
    config.state_root = Some(root.join("state"));
    config.tiered_state = true;
    config.store_key = StoreKey::from_bytes(STATE_KEY);
    let key = config.store_key.clone();
    let daemon = Daemon::bind(config).expect("bfd binds");
    let server = thread::spawn(move || daemon.run().expect("bfd runs"));
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut client = loop {
        match DaemonClient::connect(&socket) {
            Ok(client) => break client,
            Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("bfd never came up: {e}"),
        }
    };
    let tenant = || "fuzz".to_string();
    let exchanges = [
        ("ping", Request::Ping),
        (
            "tenant-create",
            Request::TenantCreate {
                tenant: tenant(),
                mode: "block".into(),
                policy_json: serde_json::to_string(sample_flow().policy()).expect("policy"),
                max_in_flight: 0,
                queue_capacity: 0,
            },
        ),
        (
            "observe-batch",
            Request::ObserveBatch {
                tenant: tenant(),
                service: "itool".into(),
                document: "notes".into(),
                paragraphs: slots(0..4),
            },
        ),
        (
            "observe",
            Request::Observe {
                tenant: tenant(),
                service: "itool".into(),
                document: "notes".into(),
                index: 4,
                text: sample_paragraph(4),
            },
        ),
        (
            "check",
            Request::Check {
                tenant: tenant(),
                service: "gdocs".into(),
                document: "leak".into(),
                paragraphs: slots(1..3),
            },
        ),
        (
            "keystroke",
            Request::Keystroke {
                tenant: tenant(),
                service: "gdocs".into(),
                document: "leak".into(),
                index: 0,
                text: sample_paragraph(3),
            },
        ),
        ("stats", Request::Stats { tenant: tenant() }),
        ("lineage", Request::Lineage { tenant: tenant() }),
        ("alerts", Request::Alerts { tenant: tenant() }),
        ("tenant-list", Request::TenantList),
        ("drain", Request::Drain),
    ];
    let mut requests = Vec::new();
    let mut replies = Vec::new();
    for (name, request) in exchanges {
        let reply = client.request(&request).expect("bfd replies");
        requests.push((name, serde_json::to_vec(&request).expect("request encodes")));
        let reply = pin(reply, &root);
        replies.push((name, serde_json::to_vec(&reply).expect("reply encodes")));
    }
    server.join().expect("bfd drains and exits");
    let state = root.join("state").join("fuzz");
    let sealed_metadata = fs::read(state.join(STATE_METADATA_FILE)).expect("drained");
    let metadata_json = key
        .unseal(&SealedBytes::from_bytes(&sealed_metadata).expect("sealed metadata"))
        .expect("metadata unseals");
    let (flow, _) = BrowserFlow::load_from_dir(key, &state).expect("drained state restores");
    let lineage = flow.lineage_snapshot();
    let _ = fs::remove_dir_all(&root);
    Session {
        requests,
        replies,
        metadata_json,
        lineage,
    }
}

fn main() {
    let store = sample_store();

    println!("fuzz_store_codec seeds (real persisted payloads):");
    let dir = corpus_dir("fuzz_store_codec");
    let blob = codec::encode(&store).expect("encode");
    write_seed(&dir, "v2-blob", &mode_seed(0, &blob));
    // Mode 1 parses the sealed container framing; the plain blob is the
    // right *shape* of near-miss (magic + sections) without needing a key.
    write_seed(
        &dir,
        "sealed-near-miss",
        &mode_seed(1, &blob[..blob.len().min(512)]),
    );

    let v2 = SnapshotFixture::create("seeds-v2", StoreFormat::V2);
    let v2_shard = fs::read(first_shard(&v2.dir)).expect("v2 shard");
    let v2_manifest = fs::read(v2.dir.join(MANIFEST_FILE)).expect("v2 manifest");
    write_seed(&dir, "v2-shard", &mode_seed(2, &v2_shard));
    write_seed(&dir, "v2-manifest", &mode_seed(4, &v2_manifest));

    let v3 = SnapshotFixture::create("seeds-v3", StoreFormat::V3);
    let v3_shard = fs::read(first_shard(&v3.dir)).expect("v3 shard");
    write_seed(&dir, "v3-shard", &mode_seed(3, &v3_shard));

    let _ = fs::remove_dir_all(&v2.dir);
    let _ = fs::remove_dir_all(&v3.dir);

    let session = record_session();

    println!("fuzz_wire_decode seeds (real frames of one bfd session):");
    let dir = corpus_dir("fuzz_wire_decode");
    for (name, body) in &session.requests {
        write_seed(&dir, &format!("request-{name}"), &mode_seed(0, body));
    }
    for (name, body) in &session.replies {
        write_seed(&dir, &format!("reply-{name}"), &mode_seed(1, body));
    }
    let mut stream = Vec::new();
    for (_, body) in &session.requests {
        write_frame(&mut stream, body).expect("frame");
    }
    write_seed(&dir, "stream-session", &mode_seed(2, &stream));
    // The same stream cut mid-way through its last frame.
    let (_, last) = session.requests.last().expect("session sent requests");
    let cut = stream.len() - last.len() / 2 - 1;
    write_seed(&dir, "stream-truncated", &mode_seed(2, &stream[..cut]));

    println!("fuzz_state_metadata seeds (the metadata of a real bfd drain):");
    let dir = corpus_dir("fuzz_state_metadata");
    write_seed(
        &dir,
        "drained-metadata",
        &mode_seed(0, &session.metadata_json),
    );
    write_seed(
        &dir,
        "envelope-metadata",
        &mode_seed(1, &session.metadata_json),
    );
    // The drained metadata sealed again under a fixed nonce: the file
    // `load_from_dir` reads, minus the drain's random nonce.
    let sealed = StoreKey::from_bytes(STATE_KEY).seal_with_nonce(1, &session.metadata_json);
    write_seed(&dir, "sealed-file", &mode_seed(2, &sealed.to_bytes()));

    println!("fuzz_lineage_snapshot seeds (the lineage of a real bfd drain):");
    let dir = corpus_dir("fuzz_lineage_snapshot");
    assert!(
        !session.lineage.is_empty(),
        "the session's check records lineage"
    );
    write_seed(&dir, "drained-lineage", &mode_seed(0, &session.lineage));
    // Mode 1 appends the CRC itself: the same snapshot minus its trailer.
    let (unchecked, _crc) = session.lineage.split_at(session.lineage.len() - 4);
    write_seed(&dir, "drained-lineage-recrc", &mode_seed(1, unchecked));

    println!("fuzz_incremental_edits seeds (hand-laid edit scripts):");
    let dir = corpus_dir("fuzz_incremental_edits");
    // Header: n=6 (byte 4), w=30 (byte 29), two initial sentences.
    let mut script = vec![4u8, 29, 2];
    // A burst of inserts, deletes and replacements at varied positions.
    for (kind, a, b, c, d) in [
        (0u8, 3u8, 17u8, 5u8, 2u8), // insert "zürich"-area words mid-text
        (2, 9, 200, 30, 7),         // replace a range with "İstanbul"
        (1, 1, 40, 12, 0),          // delete a span
        (0, 0, 0, 15, 1),           // insert "日本語" at the front
        (1, 250, 250, 63, 0),       // delete near the end
        (2, 5, 5, 3, 10),           // replace with " spaced out "
    ] {
        script.extend_from_slice(&[kind, a, b, c, d]);
    }
    write_seed(&dir, "mixed-script", &script);
    // Degenerate config corner: n=2, w=1 over an initially empty text.
    let mut tiny = vec![0u8, 0, 0];
    for (kind, a, b, c, d) in [(0u8, 0u8, 0u8, 0u8, 2u8), (0, 0, 3, 8, 0), (1, 0, 1, 0, 0)] {
        tiny.extend_from_slice(&[kind, a, b, c, d]);
    }
    write_seed(&dir, "tiny-config", &tiny);
}
