//! The worker-client loop.
//!
//! A client is a [`ShardWorker`] (supplied by the embedder — in the
//! BinTuner reproduction, a full fitness engine with its own compiler,
//! `-O0` baseline and local caches) driven by a [`Client`]: the embedder
//! announces the chromosome width ([`crate::wire::Frame::Hello`]), then
//! [`Client::serve`] answers `Work` frames until the server hands over
//! the next job's description (returned, so the embedder can build the
//! next worker from it) or says `Shutdown`. Each shard's `Result` frame
//! carries its evaluations, its trace spans and the stage artifacts it
//! freshly produced — the client never writes any store itself; the
//! server is the single writer.

use crate::transport::Duplex;
use crate::wire::{
    decode_frame, encode_frame, Frame, WireAstArtifact, WireEval, WireLowerArtifact, WireSpan,
};
use crate::{EvaldError, FaultKind};

/// The embedder's evaluation engine, as seen by the client loop.
pub trait ShardWorker {
    /// Evaluate one shard of genomes, returning one [`WireEval`] per
    /// genome in shard order. Must be a pure function of the genomes
    /// (caching aside): a shard re-dispatched after its client was lost
    /// must come back bit-identical from whichever client takes it.
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
    /// shards over the client's life (see [`crate::FaultPlan`]). `None`
    /// in production.
    pub fail_after_shards: Option<usize>,
    /// What the chaos hook does when it triggers (ignored while
    /// `fail_after_shards` is `None`).
    pub fault_kind: FaultKind,
}

/// One client's side of the protocol across every job it serves: the
/// job it is serving, and the chaos hook's state, which counts shards
/// over the client's life rather than per job.
#[derive(Debug)]
pub struct Client {
    opts: ClientOptions,
    /// Number of the last [`Frame::Job`] received, `0` before any.
    job: u64,
    shards_done: usize,
    /// Chaos: delay every Result this long (a triggered `SlowFrame`).
    slow_ms: Option<u64>,
    /// Chaos: lose the next Result (a triggered `DropFrame`).
    drop_next: bool,
}

impl Client {
    /// A client that has served nothing yet.
    pub fn new(opts: ClientOptions) -> Client {
        Client {
            opts,
            job: 0,
            shards_done: 0,
            slow_ms: None,
            drop_next: false,
        }
    }

    /// Serve the current job with `worker`: answer `Work` frames and
    /// heartbeat probes until the server sends the next [`Frame::Job`],
    /// whose payload is returned for the caller to build its next worker
    /// from, or ends the client — a `Shutdown`, or a chaos fault that
    /// crashes or wedges it — which returns `None`.
    ///
    /// `worker` is `None` while the client has no job to evaluate with
    /// (before its first `Job` frame).
    ///
    /// # Errors
    ///
    /// [`EvaldError::Protocol`] for a `Work` frame the client cannot
    /// serve: one with no worker to evaluate it, or one naming a job
    /// other than the one being served. Transport and decode errors
    /// propagate; a server that simply goes away surfaces as
    /// [`EvaldError::Disconnected`], which launchers usually treat as a
    /// normal end of service.
    pub fn serve(
        &mut self,
        duplex: &mut Duplex,
        mut worker: Option<&mut dyn ShardWorker>,
    ) -> Result<Option<Vec<u8>>, EvaldError> {
        loop {
            let bytes = duplex.rx.recv_frame()?;
            let (frame, _) = decode_frame(&bytes)?;
            match frame {
                Frame::Work {
                    shard,
                    span,
                    job,
                    genomes,
                } => {
                    // Exiting on a Work frame we cannot serve severs the
                    // connection; the server re-queues the shard on a
                    // healthy client.
                    let Some(worker) = worker.as_deref_mut() else {
                        return Err(EvaldError::Protocol("Work frame before Job"));
                    };
                    if job != self.job {
                        return Err(EvaldError::Protocol("Work frame for another job"));
                    }
                    let evals = worker.evaluate(&genomes, span);
                    let spans = worker.drain_spans();
                    if self.drop_next {
                        // Chaos: the evaluation happened but its Result is
                        // lost. The server's dispatch deadline recovers it.
                        self.drop_next = false;
                    } else {
                        if let Some(ms) = self.slow_ms {
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
                    self.shards_done += 1;
                    if self.opts.fail_after_shards == Some(self.shards_done) {
                        match self.opts.fault_kind {
                            // Simulated crash: drop the connection without a
                            // word (the server recovers via re-dispatch).
                            FaultKind::Crash => return Ok(None),
                            // Simulated wedge: stop answering — no results,
                            // no Pongs — until severed or shut down. Only the
                            // server's liveness plane can recover the shards.
                            FaultKind::Hang => return drain_silently(duplex).map(|()| None),
                            FaultKind::SlowFrame(ms) => self.slow_ms = Some(ms),
                            FaultKind::DropFrame => self.drop_next = true,
                        }
                    }
                }
                Frame::Job { job, payload } => {
                    self.job = job;
                    return Ok(Some(payload));
                }
                // A client waiting for its job is alive, not hung: it
                // answers heartbeats in every state.
                Frame::Ping { nonce } => {
                    duplex
                        .tx
                        .send_frame(&encode_frame(&Frame::Pong { nonce }))?;
                }
                Frame::Shutdown => return Ok(None),
                // Server-bound frames are never addressed to a client:
                // ignore rather than die.
                Frame::Hello { .. } | Frame::Result { .. } | Frame::Pong { .. } => {}
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
pub(crate) mod tests {
    use super::*;
    use crate::transport::channel_duplex;

    /// Greet the server, then serve every job with `worker` until the
    /// server ends the client.
    pub(crate) fn run_client(
        worker: &mut dyn ShardWorker,
        mut duplex: Duplex,
        opts: &ClientOptions,
    ) -> Result<(), EvaldError> {
        duplex.tx.send_frame(&encode_frame(&Frame::Hello {
            n_flags: opts.n_flags,
        }))?;
        let mut client = Client::new(*opts);
        while client.serve(&mut duplex, Some(&mut *worker))?.is_some() {}
        Ok(())
    }

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

    fn send(server: &mut Duplex, frame: &Frame) {
        server.tx.send_frame(&encode_frame(frame)).unwrap();
    }

    fn work(shard: u64, job: u64) -> Frame {
        Frame::Work {
            shard,
            span: 0,
            job,
            genomes: vec![vec![true]],
        }
    }

    const OPTS: ClientOptions = ClientOptions {
        n_flags: 1,
        fail_after_shards: None,
        fault_kind: FaultKind::Crash,
    };

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
                job: 0,
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
                job: 0,
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

    #[test]
    fn serve_hands_back_each_new_job_and_the_fault_counts_across_jobs() {
        let (mut server, mut duplex) = channel_duplex();
        let handle = std::thread::spawn(move || {
            let mut client = Client::new(ClientOptions {
                fail_after_shards: Some(2),
                ..OPTS
            });
            let mut jobs = Vec::new();
            // No worker before the first job; each job's payload comes
            // back to the caller, which serves on with the same client.
            // Serving job 2's shard at all shows the client took its
            // number from the Job frame.
            let mut next = client.serve(&mut duplex, None)?;
            while let Some(payload) = next {
                jobs.push(payload);
                next = client.serve(&mut duplex, Some(&mut Constant))?;
            }
            Ok::<_, EvaldError>(jobs)
        });
        send(&mut server, &Frame::Ping { nonce: 5 });
        let (pong, _) = decode_frame(&server.rx.recv_frame().unwrap()).unwrap();
        assert_eq!(pong, Frame::Pong { nonce: 5 }, "a jobless client is alive");
        for job in [1, 2] {
            send(
                &mut server,
                &Frame::Job {
                    job,
                    payload: vec![job as u8],
                },
            );
            send(&mut server, &work(job, job));
            let _result = server.rx.recv_frame().unwrap();
        }
        // One shard in each job makes two over the client's life: the
        // crash fault fires, without a Shutdown.
        assert_eq!(handle.join().unwrap().unwrap(), [[1], [2]]);
    }

    #[test]
    fn work_for_another_job_or_before_any_job_is_a_protocol_error() {
        for (job_frame, work_job) in [(None, 0), (Some(4), 3)] {
            let (mut server, mut duplex) = channel_duplex();
            let handle = std::thread::spawn(move || {
                let mut client = Client::new(OPTS);
                let mut next = client.serve(&mut duplex, None)?;
                while next.is_some() {
                    next = client.serve(&mut duplex, Some(&mut Constant))?;
                }
                Ok(())
            });
            if let Some(job) = job_frame {
                send(
                    &mut server,
                    &Frame::Job {
                        job,
                        payload: vec![],
                    },
                );
            }
            send(&mut server, &work(0, work_job));
            // A client that wrongly served the shard ends here instead
            // of hanging the test.
            let _ = server.tx.send_frame(&encode_frame(&Frame::Shutdown));
            assert!(matches!(
                handle.join().unwrap(),
                Err(EvaldError::Protocol(_))
            ));
        }
    }
}
