//! Per-connection frame pump: decode → admit → reply in order.
//!
//! Each accepted connection gets one *reader* (the session thread
//! itself) and one *writer* thread, glued by a FIFO reply queue. The
//! reader decodes frames and — for admitted requests — enqueues a
//! pending slot holding the channel the dispatcher will answer on;
//! instant replies (overload rejections, protocol errors, `STATS` /
//! `HEALTH` / `DUMP`) enqueue pre-encoded frames. The writer pops the
//! FIFO and blocks on each pending slot in turn, so **responses always
//! leave the socket in the order the requests arrived**, no matter how
//! the dispatcher interleaves batches.
//!
//! This is also where a request's observability record begins and
//! ends: the reader mints the server-side `RequestId` at frame decode
//! and stamps `recv`/`admit`; the writer stamps `reply_start`/`done`
//! around the reply write and hands the finished record to
//! [`Shared::complete`] (latency histogram → slow log → flight
//! recorder). The stamps in between — window, queue, dispatch — are
//! added by the batcher and the dispatcher as the record rides the
//! queue with its request.
//!
//! Fault containment: a client disconnecting mid-flight just ends both
//! loops — its pending result channels drop, the dispatcher's sends to
//! them fail silently, and nothing it queued stalls the window or
//! leaks budget (queue bytes are released when the batch is taken,
//! which happens regardless of who is still listening). A malformed
//! frame gets a typed [`ErrCode::Malformed`](crate::proto::ErrCode)
//! error and the connection stays open; only a frame the stream cannot
//! recover from (oversized length prefix, mid-frame EOF) closes it.

use crate::batcher::{RequestReply, SubmitError};
use crate::proto::{
    decode_message, encode_error, encode_response, encode_stats_text, mint_request_id, read_frame,
    write_frame, ErrCode, ErrorFrame, Message, Response,
};
use crate::server::{
    verb_name, Shared, SERVE_MALFORMED_TOTAL, SERVE_REJECTED_TOTAL, SERVE_REQUESTS_TOTAL,
};
use anyseq_obs::RequestRecord;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One slot in the per-connection reply FIFO.
enum Reply {
    /// An already-encoded frame payload (errors, stats, health, dump).
    Ready(Vec<u8>),
    /// A request awaiting its batch: the writer blocks on `rx`.
    Pending { id: u64, rx: Receiver<RequestReply> },
}

/// Runs one connection to completion (reader loop; owns a writer
/// thread). Returns when the client disconnects or the stream breaks.
pub(crate) fn run_session(stream: UnixStream, shared: Arc<Shared>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = channel::<Reply>();
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || writer_loop(write_half, reply_rx, &shared))
    };
    reader_loop(stream, &shared, &reply_tx);
    // Closing the FIFO lets the writer drain queued replies and exit;
    // every admitted request is eventually answered by the dispatcher
    // (even during shutdown, which flushes rather than drops), so the
    // join cannot hang.
    drop(reply_tx);
    let _ = writer.join();
}

fn reader_loop(stream: UnixStream, shared: &Arc<Shared>, reply_tx: &Sender<Reply>) {
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut reader, shared.max_frame) {
            Ok(Some(p)) => p,
            // Clean EOF, unrecoverable framing, or a broken socket all
            // end the session; in-frame problems are handled below.
            Ok(None) | Err(_) => return,
        };
        let recv_ns = shared.clock.now_ns();
        let reply = match decode_message(&payload) {
            Ok(Message::Request(req)) => {
                shared.metrics.inc(SERVE_REQUESTS_TOTAL, String::new(), 1);
                // The record is born at frame decode: identity, sizes,
                // and the first two stamps. Everything later is filled
                // in by the batcher, the dispatcher, and the writer.
                let rec = shared.reqobs.as_ref().map(|_| {
                    Box::new(RequestRecord {
                        id: mint_request_id(),
                        client_id: req.id,
                        verb: verb_name(req.mode),
                        kind: req.spec.kind.name(),
                        scheme: req.spec.fingerprint(),
                        pairs: req.pairs.len() as u64,
                        cells: req
                            .pairs
                            .iter()
                            .map(|(q, s)| q.len() as u64 * s.len() as u64)
                            .sum(),
                        recv_ns,
                        admit_ns: shared.clock.now_ns(),
                        ..RequestRecord::default()
                    })
                });
                let (tx, rx) = channel();
                match shared
                    .batcher
                    .submit(req.spec, req.mode, req.pairs, tx, rec)
                {
                    Ok(()) => Reply::Pending { id: req.id, rx },
                    Err(err @ SubmitError::Overloaded { .. }) => {
                        shared.metrics.inc(SERVE_REJECTED_TOTAL, String::new(), 1);
                        Reply::Ready(encode_error(&ErrorFrame {
                            id: req.id,
                            code: ErrCode::Overloaded,
                            message: err.to_string(),
                        }))
                    }
                    Err(err @ SubmitError::Closed) => Reply::Ready(encode_error(&ErrorFrame {
                        id: req.id,
                        code: ErrCode::Internal,
                        message: err.to_string(),
                    })),
                }
            }
            Ok(Message::Stats) => Reply::Ready(encode_stats_text(&shared.render_stats())),
            Ok(Message::Health) => Reply::Ready(encode_stats_text(&shared.render_health())),
            Ok(Message::Dump) => Reply::Ready(encode_stats_text(&shared.render_flight())),
            Ok(_) => {
                // Response / Error / StatsText are server→client verbs;
                // a client sending one is protocol misuse, not a
                // connection-fatal condition.
                shared.metrics.inc(SERVE_MALFORMED_TOTAL, String::new(), 1);
                Reply::Ready(encode_error(&ErrorFrame {
                    id: 0,
                    code: ErrCode::Malformed,
                    message: "server-side verb sent by client".into(),
                }))
            }
            Err(err) => {
                shared.metrics.inc(SERVE_MALFORMED_TOTAL, String::new(), 1);
                Reply::Ready(encode_error(&ErrorFrame {
                    id: 0,
                    code: ErrCode::Malformed,
                    message: err.to_string(),
                }))
            }
        };
        if reply_tx.send(reply).is_err() {
            // Writer gone (socket broke): stop reading too.
            return;
        }
    }
}

fn writer_loop(mut stream: UnixStream, rx: Receiver<Reply>, shared: &Arc<Shared>) {
    for reply in rx {
        let (payload, rec) = match reply {
            Reply::Ready(p) => (p, None),
            Reply::Pending { id, rx } => match rx.recv() {
                Ok((results, mut rec)) => {
                    if let Some(rec) = &mut rec {
                        rec.reply_start_ns = shared.clock.now_ns();
                    }
                    let frame = match results {
                        Ok(results) => encode_response(&Response { id, results }),
                        Err(message) => encode_error(&ErrorFrame {
                            id,
                            code: ErrCode::Unsupported,
                            message,
                        }),
                    };
                    (frame, rec)
                }
                // The dispatcher only drops a result channel if it
                // died before answering — surface that instead of
                // silently truncating the response stream.
                Err(_) => (
                    encode_error(&ErrorFrame {
                        id,
                        code: ErrCode::Internal,
                        message: "dispatcher exited before answering".into(),
                    }),
                    None,
                ),
            },
        };
        if write_frame(&mut stream, &payload).is_err() {
            // Client went away mid-stream: dropping the remaining
            // replies (and their pending receivers) detaches this
            // connection from the dispatcher — its sends fail silently
            // and other clients' results are untouched.
            return;
        }
        if let Some(mut rec) = rec {
            rec.done_ns = shared.clock.now_ns();
            shared.complete(rec);
        }
    }
}
