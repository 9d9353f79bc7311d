//! Property tests for the daemon wire (v4): the deadline-bearing
//! `Submit` and the full job-lifecycle reply set must round-trip
//! bit-exactly; every truncation of a valid frame must be rejected as
//! truncated or corrupt — never misread; and a version field that is
//! not exactly `DAEMON_WIRE_VERSION` must be refused with the typed
//! mismatch carrying both sides, so a v3 peer gets a diagnosis instead
//! of garbage; and arbitrary payloads behind a valid envelope must
//! decode or fail typed.

use bintuner::daemon::wire::{
    decode_daemon_frame, encode_daemon_frame, DaemonFrame, JobState, RejectCode, DAEMON_MAGIC,
    DAEMON_WIRE_VERSION,
};
use evald::EvaldError;
use proptest::collection::vec;
use proptest::prelude::*;

fn tenant_strategy() -> impl Strategy<Value = String> {
    // Arbitrary bytes folded onto a tenant-name-like alphabet (the
    // wire requires valid UTF-8 tenant names).
    vec(any::<u8>(), 0..16).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| char::from(b'a' + b % 26))
            .collect()
    })
}

fn submit_strategy() -> impl Strategy<Value = DaemonFrame> {
    (
        tenant_strategy(),
        vec(any::<u8>(), 0..48),
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(tenant, module, (seed, max_evaluations, dedup, deadline_ms))| DaemonFrame::Submit {
                tenant,
                module,
                seed,
                max_evaluations,
                dedup,
                // Any u64 is encodable — the 7-day cap is admission
                // policy, not a wire constraint.
                deadline_ms,
            },
        )
}

fn job_state_strategy() -> impl Strategy<Value = JobState> {
    prop_oneof![
        Just(JobState::Unknown),
        Just(JobState::Queued),
        Just(JobState::Running),
        Just(JobState::Done),
        Just(JobState::Failed),
        Just(JobState::Cancelled),
        Just(JobState::DeadlineExceeded),
    ]
}

fn reject_code_strategy() -> impl Strategy<Value = RejectCode> {
    prop_oneof![
        Just(RejectCode::QueueFull),
        Just(RejectCode::BadModule),
        Just(RejectCode::ShuttingDown),
        Just(RejectCode::BadDeadline),
    ]
}

/// The frames the deadline feature touches, mixed with their lifecycle
/// neighbours so tag dispatch is exercised across the sweep.
fn frame_strategy() -> impl Strategy<Value = DaemonFrame> {
    prop_oneof![
        submit_strategy(),
        any::<u64>().prop_map(|job| DaemonFrame::Accepted { job }),
        (reject_code_strategy(), tenant_strategy())
            .prop_map(|(code, detail)| DaemonFrame::Rejected { code, detail }),
        any::<u64>().prop_map(|job| DaemonFrame::Status { job }),
        (
            any::<u64>(),
            job_state_strategy(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(job, state, queue_depth, running)| {
                DaemonFrame::StatusReply {
                    job,
                    state,
                    queue_depth,
                    running,
                }
            }),
        any::<u64>().prop_map(|job| DaemonFrame::Cancel { job }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(job, cancelled)| DaemonFrame::CancelReply { job, cancelled }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn deadline_bearing_frames_round_trip_bit_exactly(frame in frame_strategy()) {
        let bytes = encode_daemon_frame(&frame);
        let (decoded, used) = decode_daemon_frame(&bytes).expect("valid frame decodes");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn every_truncation_of_a_submit_is_rejected(frame in submit_strategy()) {
        let bytes = encode_daemon_frame(&frame);
        for cut in 0..bytes.len() {
            // A prefix is never a valid frame, and the decoder must say
            // so with a type — never panic, never misread.
            prop_assert!(
                decode_daemon_frame(&bytes[..cut]).is_err(),
                "cut at {} of {} decoded",
                cut,
                bytes.len()
            );
        }
    }

    #[test]
    fn any_foreign_version_is_refused_with_the_typed_mismatch(
        frame in frame_strategy(),
        version in any::<u32>(),
    ) {
        // Dodge the one accepted value; everything else must be refused.
        let version = if version == DAEMON_WIRE_VERSION { version ^ 1 } else { version };
        let mut bytes = encode_daemon_frame(&frame);
        // The version field sits after the length prefix and the magic:
        // bytes[8..12]. It is checked before the checksum, so patching
        // it alone is a faithful stale-peer simulation.
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match decode_daemon_frame(&bytes) {
            Err(EvaldError::VersionMismatch { got, want }) => {
                prop_assert_eq!(got, version);
                prop_assert_eq!(want, DAEMON_WIRE_VERSION);
            }
            other => prop_assert!(false, "expected VersionMismatch, got {other:?}"),
        }
    }
}

/// Payload bytes biased towards zero, so lengths read from them are
/// often small enough for whole frames to decode.
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(
        (any::<u8>(), any::<bool>()).prop_map(|(b, zero)| if zero { 0 } else { b }),
        0..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50000))]

    #[test]
    fn arbitrary_sealed_payloads_decode_or_fail_typed(tag in 0u8..16,
                                                      payload in payload_strategy()) {
        // Every tag the daemon wire knows (0..=8, 11..=14), the two it
        // retired (9, 10) and a foreign one (15), each over arbitrary
        // bytes behind a valid envelope: decode the whole buffer into a
        // frame that survives re-encoding, or fail Corrupt.
        let mut body = DAEMON_MAGIC.to_vec();
        body.extend_from_slice(&DAEMON_WIRE_VERSION.to_le_bytes());
        body.push(tag);
        body.extend_from_slice(&payload);
        let bytes = evald::wire::seal_frame(&body);
        match decode_daemon_frame(&bytes) {
            Ok((frame, used)) => {
                prop_assert_eq!(used, bytes.len());
                let (again, _) =
                    decode_daemon_frame(&encode_daemon_frame(&frame)).expect("re-encoded frame");
                prop_assert_eq!(again, frame);
            }
            Err(EvaldError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "tag {}: {:?}", tag, other),
        }
    }
}
