//! Property tests for the wire format: arbitrary genome batches, eval
//! results and the stage artifacts they carry must round-trip
//! bit-exactly, and any
//! truncation of a valid frame must be rejected as truncated — never
//! misread as a different frame. These mirror the fitness store's
//! corruption-tolerance guarantees at the transport boundary. Arbitrary
//! payloads behind a valid envelope must decode or fail typed.

use evald::wire::{
    decode_frame, encode_frame, seal_frame, Frame, WireAstArtifact, WireEval, WireLowerArtifact,
    WireSpan, WIRE_MAGIC,
};
use evald::EvaldError;
use evald::WIRE_VERSION;
use proptest::collection::vec;
use proptest::prelude::*;

fn genome_strategy() -> impl Strategy<Value = Vec<bool>> {
    vec(any::<bool>(), 0..140)
}

fn eval_strategy() -> impl Strategy<Value = WireEval> {
    (any::<u64>(), any::<bool>(), any::<u64>()).prop_map(|(f, failed, w)| WireEval {
        fitness_bits: f,
        failed,
        wall_seconds_bits: w,
    })
}

fn span_strategy() -> impl Strategy<Value = WireSpan> {
    (
        (any::<u64>(), any::<u64>()),
        vec(any::<u8>(), 0..24),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(|((id, parent), name, (start_us, dur_us))| WireSpan {
            id,
            parent,
            // Arbitrary bytes folded onto a stage-name-like alphabet
            // (the wire requires valid UTF-8 span names).
            name: name
                .into_iter()
                .map(|b| char::from(b'a' + b % 26))
                .collect(),
            start_us,
            dur_us,
        })
}

fn ast_artifact_strategy() -> impl Strategy<Value = WireAstArtifact> {
    (
        (any::<u64>(), any::<u8>()),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), vec(any::<u8>(), 0..64)),
    )
        .prop_map(|((m, c), (hi, lo), (cost, blob))| WireAstArtifact {
            body_hash: m,
            compiler: c,
            ast_digest: (u128::from(hi) << 64) | u128::from(lo),
            cost_bits: cost,
            blob,
        })
}

fn lower_artifact_strategy() -> impl Strategy<Value = WireLowerArtifact> {
    (
        (any::<u64>(), any::<u8>(), any::<u8>()),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), vec(any::<u8>(), 0..64)),
    )
        .prop_map(
            |((m, c, a), (ahi, alo), (lhi, llo), (cost, blob))| WireLowerArtifact {
                body_hash: m,
                compiler: c,
                arch: a,
                ast_digest: (u128::from(ahi) << 64) | u128::from(alo),
                lower_digest: (u128::from(lhi) << 64) | u128::from(llo),
                cost_bits: cost,
                blob,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn work_frames_round_trip(shard in any::<u64>(),
                              span in any::<u64>(),
                              job in any::<u64>(),
                              genomes in vec(genome_strategy(), 0..24)) {
        let frame = Frame::Work { shard, span, job, genomes };
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).expect("valid frame decodes");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn result_frames_round_trip_bit_exactly(shard in any::<u64>(),
                                            evals in vec(eval_strategy(), 0..24),
                                            spans in vec(span_strategy(), 0..12)) {
        // Fitness crosses the wire as raw bits: NaNs, infinities and
        // negative zero must all survive — the differential guarantee
        // needs *bit* equality, not f64 equality.
        let frame = Frame::Result {
            shard,
            evals,
            spans,
            ast_artifacts: vec![],
            lower_artifacts: vec![],
        };
        let bytes = encode_frame(&frame);
        let (decoded, _) = decode_frame(&bytes).expect("valid frame decodes");
        // Evaluations hold their floats as raw bits, so whole-frame
        // equality is exactly the bit-exactness guarantee.
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn result_frames_with_spans_reject_every_truncation(spans in vec(span_strategy(), 1..8),
                                                        evals in vec(eval_strategy(), 0..4)) {
        // The span block sits at the tail of a Result frame — a cut at
        // *any* byte (fixed fields, name bytes, mid-span) must surface
        // as Truncated, never decode to a shorter span list.
        let frame = Frame::Result {
            shard: 3,
            evals,
            spans,
            ast_artifacts: vec![],
            lower_artifacts: vec![],
        };
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            prop_assert!(matches!(
                decode_frame(&bytes[..cut]),
                Err(EvaldError::Truncated { .. })
            ), "cut at {} not rejected", cut);
        }
    }

    #[test]
    fn result_frames_carry_artifacts_round_trip(evals in vec(eval_strategy(), 0..4),
                                                spans in vec(span_strategy(), 0..3),
                                                ast_artifacts in vec(ast_artifact_strategy(), 0..6),
                                                lower_artifacts in vec(lower_artifact_strategy(), 0..6)) {
        // The artifact lists sit behind the span block at the tail of a
        // Result frame: they round-trip bit-exactly, and a cut at any
        // byte surfaces as Truncated, never as a shorter artifact list.
        let frame = Frame::Result {
            shard: 9,
            evals,
            spans,
            ast_artifacts,
            lower_artifacts,
        };
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).expect("valid frame decodes");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
        for cut in 0..bytes.len() {
            prop_assert!(matches!(
                decode_frame(&bytes[..cut]),
                Err(EvaldError::Truncated { .. })
            ), "cut at {} not rejected", cut);
        }
    }

    #[test]
    fn truncated_frames_are_rejected(genomes in vec(genome_strategy(), 1..8),
                                     job in any::<u64>(),
                                     cut_fraction in 0usize..100) {
        let bytes = encode_frame(&Frame::Work { shard: 7, span: 0, job, genomes });
        let cut = cut_fraction * bytes.len() / 100; // strictly < len
        match decode_frame(&bytes[..cut]) {
            Err(EvaldError::Truncated { needed, got }) => {
                prop_assert!(needed > got);
            }
            other => prop_assert!(false, "cut at {}: {:?}", cut, other),
        }
    }

    #[test]
    fn version_mismatch_is_always_rejected(genomes in vec(genome_strategy(), 0..6),
                                           version in any::<u32>()) {
        // Any version other than ours — older (a v2 peer) or newer —
        // must be rejected up front, before payload interpretation.
        let version = if version == WIRE_VERSION { version ^ 1 } else { version };
        let mut bytes = encode_frame(&Frame::Work { shard: 1, span: 0, job: 1, genomes });
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&bytes),
            Err(EvaldError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn job_frames_round_trip(job in any::<u64>(), payload in vec(any::<u8>(), 0..4096)) {
        let frame = Frame::Job { job, payload };
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).expect("valid frame decodes");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn job_numbers_reject_every_truncation_and_any_flipped_byte(job in any::<u64>(),
                                                                payload in vec(any::<u8>(), 0..64),
                                                                genomes in vec(genome_strategy(), 0..4),
                                                                bit in 0u32..64) {
        // The v10 job number sits right behind the tag of a Job frame and
        // behind the shard and span ids of a Work frame. A cut anywhere
        // is Truncated; a flipped bit in it fails the checksum — a
        // corrupted number must never route a shard to another job.
        for (frame, at) in [
            (Frame::Job { job, payload }, 13),
            (Frame::Work { shard: 2, span: 3, job, genomes }, 13 + 16),
        ] {
            let bytes = encode_frame(&frame);
            for cut in 0..bytes.len() {
                prop_assert!(matches!(
                    decode_frame(&bytes[..cut]),
                    Err(EvaldError::Truncated { .. })
                ), "cut at {} not rejected", cut);
            }
            prop_assert_eq!(&bytes[at..at + 8], &job.to_le_bytes()[..]);
            let mut flipped = bytes.clone();
            flipped[at + (bit / 8) as usize] ^= 1 << (bit % 8);
            prop_assert!(matches!(
                decode_frame(&flipped),
                Err(EvaldError::Corrupt("checksum mismatch"))
            ));
        }
    }

    #[test]
    fn liveness_frames_round_trip(nonce in any::<u64>(), pong in any::<bool>()) {
        // The v6 heartbeat probes: nonce survives bit-exactly and the
        // Ping/Pong distinction is never confused.
        let frame = if pong { Frame::Pong { nonce } } else { Frame::Ping { nonce } };
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).expect("valid frame decodes");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn liveness_frames_reject_every_truncation(nonce in any::<u64>(), pong in any::<bool>()) {
        // A heartbeat cut at *any* byte — length prefix, magic, version,
        // tag, nonce, checksum — must read as Truncated, never as a
        // nonce-zero probe or some other frame.
        let frame = if pong { Frame::Pong { nonce } } else { Frame::Ping { nonce } };
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            prop_assert!(matches!(
                decode_frame(&bytes[..cut]),
                Err(EvaldError::Truncated { .. })
            ), "cut at {} not rejected", cut);
        }
    }

    #[test]
    fn liveness_frames_reject_every_foreign_version(nonce in any::<u64>(),
                                                    version in any::<u32>()) {
        // A v5 peer (no heartbeat plane) must never half-understand a
        // Ping: any foreign version is rejected before the tag is read.
        let version = if version == WIRE_VERSION { version ^ 1 } else { version };
        let mut bytes = encode_frame(&Frame::Ping { nonce });
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&bytes),
            Err(EvaldError::VersionMismatch { .. })
        ));
    }
}

/// Payload bytes biased towards zero, so counts and lengths read from
/// them are often small enough for whole frames to decode.
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(
        (any::<u8>(), any::<bool>()).prop_map(|(b, zero)| if zero { 0 } else { b }),
        0..96,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50000))]

    #[test]
    fn arbitrary_sealed_payloads_decode_or_fail_typed(tag in 0u8..10,
                                                      payload in payload_strategy()) {
        // Tags 0..=8 span every frame the wire knows, plus the retired
        // merge tags 3 and 4; those and 9 are foreign. The
        // envelope is valid, so the payload alone decides: a frame that
        // decodes takes the whole buffer and survives re-encoding; any
        // other outcome is Corrupt — never a panic, never a misread
        // envelope error.
        let mut body = WIRE_MAGIC.to_vec();
        body.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        body.push(tag);
        body.extend_from_slice(&payload);
        let bytes = seal_frame(&body);
        match decode_frame(&bytes) {
            Ok((frame, used)) => {
                prop_assert_eq!(used, bytes.len());
                let (again, _) = decode_frame(&encode_frame(&frame)).expect("re-encoded frame");
                prop_assert_eq!(again, frame);
            }
            Err(EvaldError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "tag {}: {:?}", tag, other),
        }
    }
}
