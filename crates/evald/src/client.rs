//! The worker-client loop.
//!
//! A client is a [`ShardWorker`] (supplied by the embedder — in the
//! BinTuner reproduction, a full fitness engine with its own compiler,
//! `-O0` baseline and local caches) driven by [`run_client`]: announce
//! the chromosome width ([`crate::wire::Frame::Hello`]), then serve
//! `Work` frames until the server says `Shutdown`. Each shard's `Result`
//! frame carries its evaluations, its trace spans and the stage
//! artifacts it freshly produced — the client never writes any store
//! itself; the server is the single writer.

use crate::transport::Duplex;
use crate::wire::{
    decode_frame, encode_frame, Frame, WireAstArtifact, WireEval, WireLowerArtifact, WireSpan,
};
use crate::{EvaldError, FaultKind};

/// The embedder's evaluation engine, as seen by the client loop.
pub trait ShardWorker {
    /// Evaluate one shard of genomes, returning one [`WireEval`] per
    /// genome in shard order. Must be a pure function of the genomes
    /// (caching aside): the server's straggler re-dispatch relies on
    /// duplicate evaluations being bit-identical.
    ///
    /// `span` is the server's dispatch-span id for this shard, `0` when
    /// tracing is off; tracing workers parent their stage spans under
    /// it. Telemetry must never affect the evaluations themselves.
    fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> Vec<WireEval>;

    /// Drain the trace spans recorded since the last drain (shipped on
    /// the same [`Frame::Result`] as the evaluations). Workers without
    /// a tracer return nothing.
    fn drain_spans(&mut self) -> Vec<WireSpan> {
        Vec::new()
    }

    /// Drain the stage artifacts produced since the last drain (shipped
    /// on the shard's [`Frame::Result`], for the server-side artifact
    /// store). Workers without an artifact cache return nothing.
    fn drain_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        (Vec::new(), Vec::new())
    }
}

/// Per-client launch options.
#[derive(Debug, Clone, Copy)]
pub struct ClientOptions {
    /// Chromosome width this worker evaluates (handshake-checked).
    pub n_flags: u16,
    /// Chaos hook: trigger `fault_kind` after completing this many
    /// shards (see [`crate::FaultPlan`]). `None` in production.
    pub fail_after_shards: Option<usize>,
    /// What the chaos hook does when it triggers (ignored while
    /// `fail_after_shards` is `None`).
    pub fault_kind: FaultKind,
}

/// Drive `worker` over `duplex` until the server shuts the client down
/// (clean exit) or the connection drops.
///
/// # Errors
///
/// Transport and decode errors propagate; a server that simply goes away
/// surfaces as [`EvaldError::Disconnected`], which launchers usually
/// treat as a normal end of service.
pub fn run_client(
    worker: &mut dyn ShardWorker,
    mut duplex: Duplex,
    opts: &ClientOptions,
) -> Result<(), EvaldError> {
    duplex.tx.send_frame(&encode_frame(&Frame::Hello {
        n_flags: opts.n_flags,
    }))?;
    serve(worker, &mut duplex, opts)
}

/// The post-handshake serve loop: answer `Work` frames until the server
/// says `Shutdown`. Split out of [`run_client`] for workers that send
/// their own [`Frame::Hello`] and consume the [`Frame::Job`]
/// description (to build their engine) before entering the loop.
///
/// # Errors
///
/// Same contract as [`run_client`].
pub fn serve(
    worker: &mut dyn ShardWorker,
    duplex: &mut Duplex,
    opts: &ClientOptions,
) -> Result<(), EvaldError> {
    let mut shards_done = 0usize;
    let mut slow_ms: Option<u64> = None;
    let mut drop_next = false;
    loop {
        let bytes = duplex.rx.recv_frame()?;
        let (frame, _) = decode_frame(&bytes)?;
        match frame {
            Frame::Work {
                shard,
                span,
                genomes,
            } => {
                let evals = worker.evaluate(&genomes, span);
                let spans = worker.drain_spans();
                if drop_next {
                    // Chaos: the evaluation happened but its Result is
                    // lost. The server's dispatch deadline recovers it.
                    drop_next = false;
                } else {
                    if let Some(ms) = slow_ms {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    let (ast_artifacts, lower_artifacts) = worker.drain_artifacts();
                    duplex.tx.send_frame(&encode_frame(&Frame::Result {
                        shard,
                        evals,
                        spans,
                        ast_artifacts,
                        lower_artifacts,
                    }))?;
                }
                shards_done += 1;
                if opts.fail_after_shards == Some(shards_done) {
                    match opts.fault_kind {
                        // Simulated crash: drop the connection without a
                        // word (the server recovers via re-dispatch).
                        FaultKind::Crash => return Ok(()),
                        // Simulated wedge: stop answering — no results,
                        // no Pongs — until severed or shut down. Only the
                        // server's liveness plane can recover the shards.
                        FaultKind::Hang => return drain_silently(duplex),
                        FaultKind::SlowFrame(ms) => slow_ms = Some(ms),
                        FaultKind::DropFrame => drop_next = true,
                    }
                }
            }
            Frame::Ping { nonce } => {
                duplex
                    .tx
                    .send_frame(&encode_frame(&Frame::Pong { nonce }))?;
            }
            Frame::Shutdown => return Ok(()),
            // Server-bound frames are never addressed to a client, and
            // a worker that needs the job description consumed it
            // before this loop: ignore rather than die.
            Frame::Job { .. } | Frame::Hello { .. } | Frame::Result { .. } | Frame::Pong { .. } => {
            }
        }
    }
}

/// A deliberately hung client's terminal state: keep the connection open
/// but answer nothing, draining inbound frames so a Shutdown broadcast
/// or a server-side severance still ends the thread cleanly (the chaos
/// suite must never leak a wedged thread past teardown).
fn drain_silently(duplex: &mut Duplex) -> Result<(), EvaldError> {
    loop {
        let Ok(bytes) = duplex.rx.recv_frame() else {
            return Ok(()); // severed by the server's eviction
        };
        if matches!(decode_frame(&bytes), Ok((Frame::Shutdown, _))) {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_duplex;

    struct Constant;

    impl ShardWorker for Constant {
        fn evaluate(&mut self, genomes: &[Vec<bool>], _span: u64) -> Vec<WireEval> {
            genomes
                .iter()
                .map(|_| WireEval {
                    fitness_bits: 1.0f64.to_bits(),
                    failed: false,
                    wall_seconds_bits: 0,
                })
                .collect()
        }
    }

    #[test]
    fn client_answers_work_and_exits_on_shutdown() {
        let (mut server, client) = channel_duplex();
        let handle = std::thread::spawn(move || {
            let mut w = Constant;
            run_client(
                &mut w,
                client,
                &ClientOptions {
                    n_flags: 3,
                    fail_after_shards: None,
                    fault_kind: FaultKind::Crash,
                },
            )
        });
        // Hello arrives first.
        let (hello, _) = decode_frame(&server.rx.recv_frame().unwrap()).unwrap();
        assert_eq!(hello, Frame::Hello { n_flags: 3 });
        server
            .tx
            .send_frame(&encode_frame(&Frame::Work {
                shard: 11,
                span: 0,
                genomes: vec![vec![true, false, true]],
            }))
            .unwrap();
        let (result, _) = decode_frame(&server.rx.recv_frame().unwrap()).unwrap();
        match result {
            Frame::Result {
                shard,
                evals,
                ast_artifacts,
                lower_artifacts,
                ..
            } => {
                assert_eq!(shard, 11);
                assert_eq!(evals.len(), 1);
                // A worker without an artifact cache ships none.
                assert!(ast_artifacts.is_empty() && lower_artifacts.is_empty());
            }
            other => panic!("expected Result, got {other:?}"),
        }
        server
            .tx
            .send_frame(&encode_frame(&Frame::Shutdown))
            .unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn fault_plan_drops_the_connection_after_n_shards() {
        let (mut server, client) = channel_duplex();
        let handle = std::thread::spawn(move || {
            let mut w = Constant;
            run_client(
                &mut w,
                client,
                &ClientOptions {
                    n_flags: 1,
                    fail_after_shards: Some(1),
                    fault_kind: FaultKind::Crash,
                },
            )
        });
        let _hello = server.rx.recv_frame().unwrap();
        server
            .tx
            .send_frame(&encode_frame(&Frame::Work {
                shard: 0,
                span: 0,
                genomes: vec![vec![true]],
            }))
            .unwrap();
        let _result = server.rx.recv_frame().unwrap();
        // The client is gone now: the next receive reports a disconnect.
        assert!(matches!(
            server.rx.recv_frame(),
            Err(EvaldError::Disconnected)
        ));
        handle.join().unwrap().unwrap();
    }
}
