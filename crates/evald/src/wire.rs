//! The wire format: versioned, length-prefixed, checksummed frames.
//!
//! Every message between server and clients is one *frame*:
//!
//! ```text
//! [len: u32]                        length of everything after this field
//! [magic: "EVLD"][version: u32]     format identification, checked per frame
//! [tag: u8][payload ...]            the frame body, canonical little-endian
//! [checksum: u32]                   FNV-1a over magic..payload
//! ```
//!
//! [`seal_frame`] writes and [`open_frame`] checks that envelope for any
//! magic and version, so protocols layered over the same transports
//! (the BinTuner daemon's job frames) share it.
//!
//! The encodings follow the same canonical-bytes discipline as
//! `minicc::hash` and the fitness store's on-disk records: explicit
//! little-endian integers, length-prefixed sequences, packed bitmaps for
//! genomes, and `f64::to_bits` for floats (fitness values must cross the
//! wire *bit-exactly* — the embedder's differential guarantee rests on
//! it). Decoding reads through [`binrep::Cursor`] and never panics: a
//! frame that is truncated, carries a foreign version, fails its
//! checksum, or has a malformed payload is rejected with a typed
//! [`EvaldError`].

use crate::EvaldError;
use binrep::{CodecError, Cursor};
use bytes::BufMut;
use minicc::fnv1a32 as checksum;

/// Frame magic: `EVLD`.
pub const WIRE_MAGIC: [u8; 4] = *b"EVLD";

/// Wire-format version. Bump whenever any frame layout or encoding
/// changes; both ends reject mismatched frames instead of misreading
/// them. (v2: the per-shard stats block, `ShardStats`, grew the three
/// per-stage pipeline-reuse counters. v3: the [`Frame::Job`] frame,
/// carrying the embedder's opaque job description to pre-forked worker
/// processes. v4: the end-of-batch merge frame grew the two
/// stage-artifact record lists, so farm workers' freshly computed
/// artifacts reach the server's persistent artifact store instead of
/// being recomputed on every warm start. v5: trace-span propagation —
/// [`Frame::Work`] carries the server's dispatch-span id, `ShardStats`
/// echoes it, and [`Frame::Result`] carries the worker's recorded
/// [`WireSpan`]s, so a farm worker's per-stage compile timings stitch
/// into the dispatching server's trace. v6: the
/// [`Frame::Ping`]/[`Frame::Pong`] liveness probes — the server's
/// heartbeat plane, so a hung worker is *detected* rather than holding
/// its shard copies forever. v7: each [`Frame::Result`] carries the
/// stage artifacts its shard produced, and the end-of-batch
/// `EndBatch`/`Merge` round trip (tags 3 and 4) is gone: every result
/// crosses the wire once. v8: [`Frame::Result`] drops its `client` id
/// and its `ShardStats` block — the server keys clients by connection
/// and times each dispatch itself — and carries only results. v9:
/// [`Frame::Hello`] drops its `client` id too, which the server never
/// read. v10: [`Frame::Job`] carries a farm-local job number, and
/// [`Frame::Work`] names the job it belongs to, so one farm serves job
/// after job and a worker can tell which engine a shard is for.)
pub const WIRE_VERSION: u32 = 10;

/// Hard cap on one frame's declared length (a corrupted length prefix
/// must not trigger a multi-gigabyte allocation).
pub const MAX_FRAME_LEN: usize = 64 << 20;

const TAG_HELLO: u8 = 0;
const TAG_WORK: u8 = 1;
const TAG_RESULT: u8 = 2;
// Tags 3 and 4 (the end-of-batch merge round trip before v7) stay unused.
const TAG_SHUTDOWN: u8 = 5;
const TAG_JOB: u8 = 6;
const TAG_PING: u8 = 7;
const TAG_PONG: u8 = 8;

/// One genome's evaluation as reported by a client.
///
/// Fitness travels as raw bits so the server reassembles *exactly* the
/// f64 the client computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEval {
    /// `f64::to_bits` of the fitness.
    pub fitness_bits: u64,
    /// Whether the genome failed to compile (scored the penalty).
    pub failed: bool,
    /// Measured client-side wall-clock seconds, as bits (telemetry).
    pub wall_seconds_bits: u64,
}

impl WireEval {
    /// The fitness as an `f64`.
    pub fn fitness(&self) -> f64 {
        f64::from_bits(self.fitness_bits)
    }

    /// The measured wall-clock seconds as an `f64`.
    pub fn wall_seconds(&self) -> f64 {
        f64::from_bits(self.wall_seconds_bits)
    }
}

/// One client-produced stage-1 artifact (optimized AST) shipped back on
/// the [`Frame::Result`] of the shard that produced it (v7), so the
/// server's persistent [`ArtifactStore`] learns it without recompiling.
///
/// The key fields mirror the embedder's `AstArtifactKey` — module body
/// hash, compiler tag, effect digest of the optimization prefix —
/// without this crate depending on the store itself. The cost travels
/// as raw `f64::to_bits` like every other float on the wire.
///
/// [`ArtifactStore`]: ../../bintuner/store/struct.ArtifactStore.html
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAstArtifact {
    /// Stable content hash of the module body.
    pub body_hash: u64,
    /// Stable one-byte compiler-profile tag.
    pub compiler: u8,
    /// Stable 128-bit digest of the stage-1 effect prefix.
    pub ast_digest: u128,
    /// `f64::to_bits` of the stage cost the artifact saves.
    pub cost_bits: u64,
    /// The canonically encoded artifact.
    pub blob: Vec<u8>,
}

/// One client-produced stage-2 artifact (lowered binary) shipped back on
/// its shard's [`Frame::Result`] (v7); see [`WireAstArtifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLowerArtifact {
    /// Stable content hash of the module body.
    pub body_hash: u64,
    /// Stable one-byte compiler-profile tag.
    pub compiler: u8,
    /// Stable one-byte architecture tag.
    pub arch: u8,
    /// Stable 128-bit digest of the stage-1 effect prefix.
    pub ast_digest: u128,
    /// Stable 128-bit digest of the full effect config.
    pub lower_digest: u128,
    /// `f64::to_bits` of the stage cost the artifact saves.
    pub cost_bits: u64,
    /// The canonically encoded artifact.
    pub blob: Vec<u8>,
}

/// One trace span recorded by a client while evaluating a shard,
/// shipped back on [`Frame::Result`] (v5).
///
/// The span ids are opaque `u64`s minted by the recording tracer;
/// workers offset their id space by client so stitched traces never
/// collide, and a worker's root spans carry the server's dispatch-span
/// id (delivered on [`Frame::Work`]) in `parent`. Offsets and
/// durations are microseconds on the *worker's* monotonic clock — the
/// consumer orders spans by parentage, not by cross-host clock
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span id, unique across the farm (workers offset their id space).
    pub id: u64,
    /// Parent span id; `0` means root.
    pub parent: u64,
    /// Stage or operation name (`ast`, `lower`, `mir`, …).
    pub name: String,
    /// Start offset on the recording process's monotonic clock, µs.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// The protocol's frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server, once per connection: the chromosome width (the
    /// server rejects clients built against a different profile width,
    /// and keys clients by connection). The wire version itself is in
    /// every frame header.
    Hello {
        /// Chromosome width the client evaluates.
        n_flags: u16,
    },
    /// Server → client: evaluate one shard of genomes.
    Work {
        /// Globally unique shard id (never reused across batches).
        shard: u64,
        /// The server's dispatch-span id for this shard (v5); `0` when
        /// tracing is off — which doubles as the client's signal not to
        /// record spans of its own.
        span: u64,
        /// The job this shard belongs to (v10): the number of the last
        /// [`Frame::Job`] the client received, or `0` on a server that
        /// never set a job.
        job: u64,
        /// The genomes, in shard order.
        genomes: Vec<Vec<bool>>,
    },
    /// Client → server: one shard's evaluations, in shard order, plus
    /// the trace spans and stage artifacts the shard produced —
    /// everything a shard sends back, in one frame. The server knows
    /// the sender by its connection and times the dispatch itself.
    Result {
        /// The shard this answers.
        shard: u64,
        /// One evaluation per genome, in shard order.
        evals: Vec<WireEval>,
        /// Trace spans the client recorded while evaluating the shard
        /// (v5); empty when tracing is off.
        spans: Vec<WireSpan>,
        /// Stage-1 artifacts the shard freshly computed (v7).
        ast_artifacts: Vec<WireAstArtifact>,
        /// Stage-2 artifacts the shard freshly computed (v7).
        lower_artifacts: Vec<WireLowerArtifact>,
    },
    /// Server → client: exit cleanly.
    Shutdown,
    /// Server → client, right before the client's first
    /// [`Frame::Work`] of a job: the embedder's job description — opaque
    /// bytes this crate never interprets (the BinTuner embedder ships
    /// the canonically encoded module to tune), from which the worker
    /// builds its evaluation engine. A farm that outlives one job sends
    /// each client the next job's description the same way.
    Job {
        /// Farm-local job number (v10), assigned by the server and never
        /// reused within one farm. Numbers, not content hashes: a hash
        /// collision between two tenants' jobs must never route one
        /// tenant's genomes to the other tenant's engine.
        job: u64,
        /// The embedder-defined job description.
        payload: Vec<u8>,
    },
    /// Server → client: liveness probe (v6). A healthy client answers
    /// with [`Frame::Pong`] echoing the nonce; a client that misses N
    /// consecutive probes is evicted like a dead client.
    Ping {
        /// Probe nonce, echoed verbatim in the answering Pong.
        nonce: u64,
    },
    /// Client → server: answer to [`Frame::Ping`] (v6).
    Pong {
        /// The nonce from the probe being answered.
        nonce: u64,
    },
}

/// Append one genome to `out` in the canonical wire encoding: a `u16`
/// length prefix, then the bools packed LSB-first into bytes.
///
/// Public so embedder-defined protocols layered over the same transports
/// (the BinTuner daemon's job frames) share one genome encoding.
pub fn put_genome(out: &mut Vec<u8>, genome: &[bool]) {
    debug_assert!(genome.len() <= usize::from(u16::MAX));
    out.put_u16_le(genome.len() as u16);
    let mut byte = 0u8;
    for (i, &on) in genome.iter().enumerate() {
        if on {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.put_u8(byte);
            byte = 0;
        }
    }
    if !genome.len().is_multiple_of(8) {
        out.put_u8(byte);
    }
}

/// Append one [`WireSpan`] in the canonical encoding: fixed fields,
/// then the name as a `u16`-length-prefixed UTF-8 string.
fn put_span(out: &mut Vec<u8>, span: &WireSpan) {
    out.put_u64_le(span.id);
    out.put_u64_le(span.parent);
    debug_assert!(span.name.len() <= usize::from(u16::MAX));
    out.put_u16_le(span.name.len() as u16);
    out.put_slice(span.name.as_bytes());
    out.put_u64_le(span.start_us);
    out.put_u64_le(span.dur_us);
}

/// Encode one frame, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::with_capacity(64);
    body.put_slice(&WIRE_MAGIC);
    body.put_u32_le(WIRE_VERSION);
    match frame {
        Frame::Hello { n_flags } => {
            body.put_u8(TAG_HELLO);
            body.put_u16_le(*n_flags);
        }
        Frame::Work {
            shard,
            span,
            job,
            genomes,
        } => {
            body.put_u8(TAG_WORK);
            body.put_u64_le(*shard);
            body.put_u64_le(*span);
            body.put_u64_le(*job);
            body.put_u32_le(genomes.len() as u32);
            for g in genomes {
                put_genome(&mut body, g);
            }
        }
        Frame::Result {
            shard,
            evals,
            spans,
            ast_artifacts,
            lower_artifacts,
        } => {
            body.put_u8(TAG_RESULT);
            body.put_u64_le(*shard);
            body.put_u32_le(evals.len() as u32);
            for e in evals {
                body.put_u64_le(e.fitness_bits);
                body.put_u8(e.failed as u8);
                body.put_u64_le(e.wall_seconds_bits);
            }
            body.put_u32_le(spans.len() as u32);
            for s in spans {
                put_span(&mut body, s);
            }
            body.put_u32_le(ast_artifacts.len() as u32);
            for a in ast_artifacts {
                body.put_u64_le(a.body_hash);
                body.put_u8(a.compiler);
                body.put_u64_le((a.ast_digest >> 64) as u64);
                body.put_u64_le(a.ast_digest as u64);
                body.put_u64_le(a.cost_bits);
                body.put_u32_le(a.blob.len() as u32);
                body.put_slice(&a.blob);
            }
            body.put_u32_le(lower_artifacts.len() as u32);
            for a in lower_artifacts {
                body.put_u64_le(a.body_hash);
                body.put_u8(a.compiler);
                body.put_u8(a.arch);
                body.put_u64_le((a.ast_digest >> 64) as u64);
                body.put_u64_le(a.ast_digest as u64);
                body.put_u64_le((a.lower_digest >> 64) as u64);
                body.put_u64_le(a.lower_digest as u64);
                body.put_u64_le(a.cost_bits);
                body.put_u32_le(a.blob.len() as u32);
                body.put_slice(&a.blob);
            }
        }
        Frame::Shutdown => body.put_u8(TAG_SHUTDOWN),
        Frame::Job { job, payload } => {
            body.put_u8(TAG_JOB);
            body.put_u64_le(*job);
            body.put_u32_le(payload.len() as u32);
            body.put_slice(payload);
        }
        Frame::Ping { nonce } => {
            body.put_u8(TAG_PING);
            body.put_u64_le(*nonce);
        }
        Frame::Pong { nonce } => {
            body.put_u8(TAG_PONG);
            body.put_u64_le(*nonce);
        }
    }
    seal_frame(&body)
}

/// Seal a frame body (`magic..payload`) into the envelope: the length
/// prefix in front, the FNV-1a checksum behind.
pub fn seal_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len() + 4);
    out.put_u32_le((body.len() + 4) as u32);
    out.put_slice(body);
    out.put_u32_le(checksum(body));
    out
}

/// Consume one genome in the [`put_genome`] encoding.
///
/// Public beside [`put_genome`] so embedder-defined protocols layered
/// over the same transports share one genome decoding.
pub fn read_genome(r: &mut Cursor<'_>) -> Result<Vec<bool>, CodecError> {
    let mut c = *r;
    let n = usize::from(c.u16()?);
    let bytes = c.take(n.div_ceil(8))?;
    *r = c;
    Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Consume one [`WireSpan`] in the [`put_span`] encoding. A name that
/// is not valid UTF-8 rejects the payload as corrupt.
fn read_span(r: &mut Cursor<'_>) -> Result<WireSpan, EvaldError> {
    let id = r.u64()?;
    let parent = r.u64()?;
    let n = usize::from(r.u16()?);
    let name = std::str::from_utf8(r.take(n)?)
        .map_err(|_| EvaldError::Corrupt("span name is not UTF-8"))?
        .to_string();
    Ok(WireSpan {
        id,
        parent,
        name,
        start_us: r.u64()?,
        dur_us: r.u64()?,
    })
}

/// Open the envelope of the frame at the head of `buf`: check its
/// length, `magic`, `version` and checksum, and return the frame tag, a
/// [`Cursor`] over the payload, and the number of bytes the frame takes.
///
/// # Errors
///
/// [`EvaldError::Truncated`] when `buf` holds less than one whole frame;
/// [`EvaldError::BadMagic`] / [`EvaldError::VersionMismatch`] /
/// [`EvaldError::Corrupt`] when the frame cannot be trusted.
pub fn open_frame(
    buf: &[u8],
    magic: [u8; 4],
    version: u32,
) -> Result<(u8, Cursor<'_>, usize), EvaldError> {
    let mut r = Cursor::new(buf);
    let len = r.u32().map_err(|_| EvaldError::Truncated {
        needed: 4,
        got: buf.len(),
    })? as usize;
    if len > MAX_FRAME_LEN {
        return Err(EvaldError::Corrupt("frame length exceeds the cap"));
    }
    // Smallest body: magic + version + tag + checksum.
    if len < 4 + 4 + 1 + 4 {
        return Err(EvaldError::Corrupt("frame shorter than its fixed header"));
    }
    let total = 4 + len;
    let body = r.take(len).map_err(|_| EvaldError::Truncated {
        needed: total,
        got: buf.len(),
    })?;
    let mut r = Cursor::new(body);
    if r.take(4)? != magic {
        return Err(EvaldError::BadMagic);
    }
    let got = r.u32()?;
    if got != version {
        return Err(EvaldError::VersionMismatch { got, want: version });
    }
    let tag = r.u8()?;
    let payload = r.take(len - 13)?;
    if checksum(&body[..len - 4]) != r.u32()? {
        return Err(EvaldError::Corrupt("checksum mismatch"));
    }
    Ok((tag, Cursor::new(payload), total))
}

/// Decode one frame from the head of `buf`, returning it together with
/// the number of bytes consumed (so stream transports can decode from an
/// accumulation buffer).
///
/// # Errors
///
/// As [`open_frame`], plus [`EvaldError::Corrupt`] for a payload that
/// does not parse as its tag's frame.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), EvaldError> {
    let (tag, mut r, total) = open_frame(buf, WIRE_MAGIC, WIRE_VERSION)?;
    let frame = match tag {
        TAG_HELLO => Frame::Hello { n_flags: r.u16()? },
        TAG_WORK => Frame::Work {
            shard: r.u64()?,
            span: r.u64()?,
            job: r.u64()?,
            genomes: r.seq(read_genome)?,
        },
        TAG_RESULT => {
            let shard = r.u64()?;
            let evals = r.seq(|r| {
                Ok(WireEval {
                    fitness_bits: r.u64()?,
                    failed: r.u8()? != 0,
                    wall_seconds_bits: r.u64()?,
                })
            })?;
            let mut spans = Vec::new();
            for _ in 0..r.count()? {
                spans.push(read_span(&mut r)?);
            }
            Frame::Result {
                shard,
                evals,
                spans,
                ast_artifacts: r.seq(|r| {
                    Ok(WireAstArtifact {
                        body_hash: r.u64()?,
                        compiler: r.u8()?,
                        ast_digest: r.u128()?,
                        cost_bits: r.u64()?,
                        blob: r.bytes()?.to_vec(),
                    })
                })?,
                lower_artifacts: r.seq(|r| {
                    Ok(WireLowerArtifact {
                        body_hash: r.u64()?,
                        compiler: r.u8()?,
                        arch: r.u8()?,
                        ast_digest: r.u128()?,
                        lower_digest: r.u128()?,
                        cost_bits: r.u64()?,
                        blob: r.bytes()?.to_vec(),
                    })
                })?,
            }
        }
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_JOB => Frame::Job {
            job: r.u64()?,
            payload: r.bytes()?.to_vec(),
        },
        TAG_PING => Frame::Ping { nonce: r.u64()? },
        TAG_PONG => Frame::Pong { nonce: r.u64()? },
        _ => return Err(EvaldError::Corrupt("unknown frame tag")),
    };
    r.finish()?;
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { n_flags: 137 },
            Frame::Work {
                shard: 42,
                span: 9001,
                job: 3,
                genomes: vec![
                    vec![true, false, true],
                    vec![],
                    (0..137).map(|i| i % 3 == 0).collect(),
                ],
            },
            Frame::Result {
                shard: 42,
                evals: vec![
                    WireEval {
                        fitness_bits: 0.731f64.to_bits(),
                        failed: false,
                        wall_seconds_bits: 0.001f64.to_bits(),
                    },
                    WireEval {
                        fitness_bits: (-1.0f64).to_bits(),
                        failed: true,
                        wall_seconds_bits: 0u64,
                    },
                ],
                spans: vec![
                    WireSpan {
                        id: (4u64 << 48) + 1,
                        parent: 9001,
                        name: "ast".to_string(),
                        start_us: 12,
                        dur_us: 340,
                    },
                    WireSpan {
                        id: (4u64 << 48) + 2,
                        parent: (4u64 << 48) + 1,
                        name: String::new(),
                        start_us: 0,
                        dur_us: u64::MAX,
                    },
                ],
                ast_artifacts: vec![WireAstArtifact {
                    body_hash: 0xDEAD_BEEF,
                    compiler: 0,
                    ast_digest: u128::MAX - 7,
                    cost_bits: 0.25f64.to_bits(),
                    blob: vec![0x5A; 17],
                }],
                lower_artifacts: vec![WireLowerArtifact {
                    body_hash: 0xDEAD_BEEF,
                    compiler: 0,
                    arch: 1,
                    ast_digest: u128::MAX - 7,
                    lower_digest: 0x0123_4567_89AB_CDEF,
                    cost_bits: 0.125f64.to_bits(),
                    blob: vec![],
                }],
            },
            // Tracing off and nothing fresh: no spans, no artifacts —
            // explicit zero counts, not elided.
            Frame::Result {
                shard: 43,
                evals: vec![],
                spans: vec![],
                ast_artifacts: vec![],
                lower_artifacts: vec![],
            },
            Frame::Shutdown,
            Frame::Job {
                job: u64::MAX,
                payload: vec![0xAB; 33],
            },
            Frame::Ping { nonce: 0xFEED },
            Frame::Pong { nonce: u64::MAX },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("decodes");
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        // Round trips cannot see an encoder and a decoder that change
        // together; the exact bytes of one small frame can.
        let golden = [
            0x15, 0x00, 0x00, 0x00, // length of the rest
            0x45, 0x56, 0x4c, 0x44, // "EVLD"
            0x0a, 0x00, 0x00, 0x00, // WIRE_VERSION
            0x07, // TAG_PING
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // nonce
            0xe2, 0x03, 0x7d, 0x3e, // FNV-1a over magic..payload
        ];
        let frame = Frame::Ping { nonce: 7 };
        assert_eq!(encode_frame(&frame), golden);
        assert_eq!(decode_frame(&golden).unwrap(), (frame, golden.len()));
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let frames = sample_frames();
        let mut stream: Vec<u8> = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut off = 0;
        for expected in &frames {
            let (got, used) = decode_frame(&stream[off..]).expect("frame in stream");
            assert_eq!(&got, expected);
            off += used;
        }
        assert_eq!(off, stream.len());
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected_not_misread() {
        let bytes = encode_frame(&sample_frames()[1]);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(EvaldError::Truncated { needed, got }) => {
                    assert!(needed > got, "needed {needed} got {got}");
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = encode_frame(&Frame::Shutdown);
        // The version field sits right after the length prefix + magic.
        bytes[8] = WIRE_VERSION as u8 + 1;
        match decode_frame(&bytes) {
            Err(EvaldError::VersionMismatch { got, want }) => {
                assert_eq!(got, WIRE_VERSION + 1);
                assert_eq!(want, WIRE_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let good = encode_frame(&sample_frames()[2]);
        // Flip a payload byte: checksum must catch it.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            decode_frame(&flipped),
            Err(EvaldError::Corrupt(_) | EvaldError::BadMagic | EvaldError::VersionMismatch { .. })
        ));
        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[4] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(EvaldError::BadMagic)
        ));
        // Oversized declared length.
        let mut huge = good;
        huge[..4].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(decode_frame(&huge), Err(EvaldError::Corrupt(_))));
    }

    #[test]
    fn job_payload_is_opaque_bytes() {
        for payload in [vec![], vec![0u8], (0..=255u8).collect::<Vec<u8>>()] {
            let frame = Frame::Job {
                job: 7,
                payload: payload.clone(),
            };
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len());
        }
        // A declared payload length past the frame end is corrupt, not a
        // panic — even with a valid checksum over the lying bytes.
        let mut bytes = encode_frame(&Frame::Job {
            job: 1,
            payload: vec![7; 4],
        });
        // Payload length field sits after len(4)+magic(4)+version(4)+tag(1)
        // and the job number(8).
        bytes[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
        let ck_at = bytes.len() - 4;
        let ck = checksum(&bytes[4..ck_at]);
        bytes[ck_at..].copy_from_slice(&ck.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(EvaldError::Corrupt(_))));
    }

    #[test]
    fn span_names_must_be_utf8() {
        let frame = Frame::Result {
            shard: 5,
            evals: vec![],
            spans: vec![WireSpan {
                id: 1,
                parent: 0,
                name: "mir".to_string(),
                start_us: 7,
                dur_us: 8,
            }],
            ast_artifacts: vec![],
            lower_artifacts: vec![],
        };
        let mut bytes = encode_frame(&frame);
        // The span name's bytes are the only "mir" in the frame; smash
        // them with invalid UTF-8 and re-seal the checksum: the decoder
        // must reject the payload, not panic or mojibake.
        let pos = bytes
            .windows(3)
            .position(|w| w == b"mir")
            .expect("name bytes present");
        bytes[pos] = 0xFF;
        bytes[pos + 1] = 0xFE;
        let ck_at = bytes.len() - 4;
        let ck = checksum(&bytes[4..ck_at]);
        bytes[ck_at..].copy_from_slice(&ck.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(EvaldError::Corrupt(_))));
    }

    #[test]
    fn result_spans_round_trip_with_extreme_values() {
        let frame = Frame::Result {
            shard: u64::MAX,
            evals: vec![WireEval {
                fitness_bits: f64::NAN.to_bits(),
                failed: true,
                wall_seconds_bits: f64::NEG_INFINITY.to_bits(),
            }],
            spans: vec![WireSpan {
                id: u64::MAX,
                parent: u64::MAX - 1,
                name: "a".repeat(300),
                start_us: u64::MAX,
                dur_us: 0,
            }],
            ast_artifacts: vec![],
            lower_artifacts: vec![],
        };
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(used, bytes.len());
        // Truncation inside the span block is detected at every cut.
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_frame(&bytes[..cut]),
                Err(EvaldError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn genome_bitmap_edges() {
        for width in [0usize, 1, 7, 8, 9, 16, 137] {
            let genome: Vec<bool> = (0..width).map(|i| i % 2 == 0).collect();
            let frame = Frame::Work {
                shard: 1,
                span: 0,
                job: 0,
                genomes: vec![genome.clone()],
            };
            let (decoded, _) = decode_frame(&encode_frame(&frame)).unwrap();
            match decoded {
                Frame::Work { genomes, .. } => assert_eq!(genomes[0], genome),
                _ => unreachable!(),
            }
        }
    }
}
