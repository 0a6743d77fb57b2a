//! Golden record/replay fixture: a committed `.edcrr` op log (generated
//! once by `edc-bench record-golden`) must replay bit-exactly against a
//! freshly built store, forever. Any divergence means the engine's
//! observable behaviour changed — which is either a bug, or an
//! intentional change that must regenerate the fixture with
//! `cargo run -p edc-bench -- record-golden tests/fixtures/golden_sharded.edcrr`.

use edc::prelude::*;

fn fixture_bytes(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn golden_sharded_log_replays_bit_exactly() {
    let bytes = fixture_bytes("golden_sharded.edcrr");
    let report = Replayer::replay(&bytes).expect("golden log parses");
    assert!(!report.torn_tail, "golden log has a torn tail");
    assert!(
        report.is_exact(),
        "golden log diverged at {} of {} op(s); first: {}",
        report.divergences.len(),
        report.ops,
        report.divergences.first().map(|d| d.to_string()).unwrap_or_default()
    );
    assert!(report.ops > 30, "golden log unexpectedly short ({} ops)", report.ops);
}

#[test]
fn golden_log_spec_is_the_documented_shape() {
    // The fixture exercises the sharded + parity + dedup path; if
    // a regeneration silently changed the shape, fail loudly here rather
    // than quietly testing less.
    let bytes = fixture_bytes("golden_sharded.edcrr");
    let log = edc::core::parse_edcrr(&bytes).expect("golden log parses");
    assert_eq!(log.spec.shards, 2);
    assert!(log.spec.parity);
    assert!(log.spec.dedup, "fixture must exercise the dedup front-end");
    assert!(log.spec.fast_ladder, "fixture records on the fast rung so passes have work");
    assert!(!log.torn_tail);
}

#[test]
fn reshaped_store_refuses_single_device_golden_log() {
    // An array-backed campaign (RAIS over five members) presents a
    // different store geometry than the single-device spec this golden
    // was recorded against. Declaring that shape to the replayer must
    // produce a typed refusal before any op is dispatched — never a
    // silent wall of digest divergences.
    let bytes = fixture_bytes("golden_sharded.edcrr");
    let recorded = edc::core::parse_edcrr(&bytes).expect("golden log parses").spec;
    let array_shaped = StoreSpec {
        capacity_bytes: 5 * recorded.capacity_bytes,
        shards: 5,
        ..recorded
    };
    match Replayer::replay_as(&array_shaped, &bytes) {
        Err(ReplayRefusal::SpecMismatch { field, .. }) => {
            assert_eq!(field, "capacity_bytes");
        }
        Ok(report) => panic!(
            "reshaped store replayed {} op(s) with {} divergence(s) instead of refusing",
            report.ops,
            report.divergences.len()
        ),
        Err(other) => panic!("expected a spec mismatch, got {other}"),
    }
    // The declared-shape path still accepts the true shape.
    let report = Replayer::replay_as(&recorded, &bytes).expect("true shape accepted");
    assert!(report.is_exact());
}

#[test]
fn corrupting_any_golden_byte_is_detected() {
    // Flip one byte in a handful of positions spread across the log:
    // parse must flag a torn/corrupt record (or the replay must diverge)
    // — silence is the only failure.
    let clean = fixture_bytes("golden_sharded.edcrr");
    for frac in [3, 5, 7, 11] {
        let mut bytes = clean.clone();
        let at = bytes.len() / frac;
        bytes[at] ^= 0x01;
        // Header corruption is a hard parse error (also fine); anything
        // that parses must report a divergence or a torn tail.
        if let Ok(report) = Replayer::replay(&bytes) {
            assert!(
                !report.is_exact(),
                "byte flip at {at} went unnoticed ({} ops replayed)",
                report.ops
            );
        }
    }
}
