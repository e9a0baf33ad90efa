//! Per-connection frame pump: decode → admit → reply in order.
//!
//! Each accepted connection gets one *reader* (the session thread
//! itself) and one *writer* thread, glued by a FIFO reply queue. The
//! reader decodes frames and — for admitted requests — enqueues a
//! pending slot holding the request's batcher ticket (its window and
//! reply channel); instant replies (overload rejections, protocol
//! errors, `STATS` / `HEALTH` / `DUMP`) enqueue pre-encoded frames. The
//! writer pops the FIFO and blocks on each pending slot in turn, so
//! **responses always leave the socket in the order the requests
//! arrived**, no matter which threads run which windows, in what order.
//!
//! The two threads are also where windows run (the `server` module
//! docs give the two rules): the reader runs a window its admission
//! made flushable before it queues the pending slot, and the writer
//! runs a pending slot's window, after waiting for its trigger, if
//! nobody has taken it yet.
//!
//! The reader is also what tells the batcher whether anyone is still
//! sending: it parks on `fill_buf` *ahead of* `read_frame`, takes one
//! of the batcher's inbound tokens at a frame's first byte, and lets
//! go once that frame is handled and the read buffer is empty (a
//! request hands the token over inside `submit`; bytes already
//! buffered are a pipelined frame, so the token is kept across it).
//! Open windows wait only while some session holds a token.
//!
//! This is also where a request's observability record begins and
//! ends: the reader mints the server-side `RequestId` at frame decode
//! and stamps `recv`/`admit`; the writer stamps `reply_start`/`done`
//! around the reply write and hands the finished record to
//! [`Shared::complete`] (latency histogram → slow log → flight
//! recorder). The stamps in between — window, queue, dispatch — are
//! added by the batcher and the window's runner as the record rides
//! the queue with its request.
//!
//! Fault containment: a client disconnecting mid-flight ends the
//! reader, and the writer stops writing but still works through its
//! FIFO, running every window nobody else has taken — so nothing the
//! client queued stalls a window or leaks budget (queue bytes are
//! released when a window is taken; an inbound token is released on
//! every way out of the reader loop). A request for a scheme the
//! kernels would assert on is refused here, by id, as `Unsupported` —
//! it never reaches a window. A malformed
//! frame gets a typed [`ErrCode::Malformed`](crate::proto::ErrCode)
//! error and the connection stays open; only a frame the stream cannot
//! recover from (oversized length prefix, mid-frame EOF) closes it.

use crate::batcher::{SubmitError, Ticket};
use crate::proto::{
    decode_message, encode_error, encode_response, encode_stats_text, mint_request_id, read_frame,
    write_frame, ErrCode, ErrorFrame, Message, Request, Response,
};
use crate::server::{
    run_window, verb_name, Shared, SERVE_MALFORMED_TOTAL, SERVE_REJECTED_TOTAL,
    SERVE_REQUESTS_TOTAL,
};
use anyseq_obs::RequestRecord;
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One slot in the per-connection reply FIFO.
enum Reply {
    /// An already-encoded frame payload (errors, stats, health, dump).
    Ready(Vec<u8>),
    /// A request awaiting its window: the writer runs the window if
    /// nobody has taken it, then blocks on the ticket's channel.
    Pending { id: u64, ticket: Ticket },
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
    // it runs any window still open that it waits on (deadlines bound
    // the wait, and shutdown readies every window), so the join only
    // waits as long as the last write does.
    drop(reply_tx);
    let _ = writer.join();
}

fn reader_loop(stream: UnixStream, shared: &Arc<Shared>, reply_tx: &Sender<Reply>) {
    let mut reader = BufReader::new(stream);
    // Whether this session holds one of the batcher's inbound tokens:
    // taken at the first byte of a frame, released once that frame is
    // handled and nothing further sits in the read buffer.
    let mut inbound = false;
    loop {
        if !inbound {
            // Park here, not inside `read_frame`: a session with
            // nothing on the wire is not mid-send, and no window waits
            // for it.
            match reader.fill_buf() {
                Ok([]) => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
            shared.batcher.begin_inbound();
            inbound = true;
        }
        let payload = match read_frame(&mut reader, shared.max_frame) {
            Ok(Some(p)) => p,
            // Clean EOF, unrecoverable framing, or a broken socket all
            // end the session; in-frame problems are handled below.
            Ok(None) | Err(_) => break,
        };
        // Bytes already buffered behind this frame are a pipelined
        // frame that has started arriving: stay inbound so it lands in
        // the same window.
        let sender_done = reader.buffer().is_empty();
        inbound = !sender_done;
        let recv_ns = shared.clock.now_ns();
        let message = decode_message(&payload);
        // Only a request can add to a window (`admit` hands its token
        // over with it); any other frame lets go before its reply is
        // rendered, so a `HEALTH` probe does not count its own asker.
        if sender_done && !matches!(message, Ok(Message::Request(_))) {
            shared.batcher.end_inbound();
        }
        let reply = match message {
            Ok(Message::Request(req)) => admit(shared, req, recv_ns, sender_done),
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
            // Writer gone (it only leaves early by panicking): stop
            // reading too.
            break;
        }
    }
    if inbound {
        shared.batcher.end_inbound();
    }
}

/// Submits a decoded request to the batcher, or refuses it. With
/// `sender_done` the session's inbound token is released here: handed
/// over with the admission, or dropped with the refusal.
fn admit(shared: &Arc<Shared>, req: Request, recv_ns: u64, sender_done: bool) -> Reply {
    shared.metrics.inc(SERVE_REQUESTS_TOTAL, String::new(), 1);
    // Checked per request, before coalescing: a spec the engine would
    // refuse (a positive gap score, scores that could wrap `i32` on
    // these pairs) is answered by its own id and never refuses its
    // window-mates.
    let extent = req.pairs.iter().map(|(q, s)| q.len() + s.len()).max();
    if let Err(message) = req.spec.check(extent.unwrap_or(0)) {
        if sender_done {
            shared.batcher.end_inbound();
        }
        return Reply::Ready(encode_error(&ErrorFrame {
            id: req.id,
            code: ErrCode::Unsupported,
            message,
        }));
    }
    // The record is born at frame decode: identity, sizes, and the
    // first two stamps. Everything later is filled in by the batcher,
    // the window's runner, and the writer.
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
    match shared
        .batcher
        .submit(req.spec, req.mode, req.pairs, rec, sender_done)
    {
        Ok(ticket) => {
            // The reader rule: a window this admission made flushable
            // runs here, before the pending slot is queued.
            if let Some(batch) = shared.batcher.take(ticket.window, false) {
                run_window(shared, batch);
            }
            Reply::Pending { id: req.id, ticket }
        }
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

fn writer_loop(mut stream: UnixStream, rx: Receiver<Reply>, shared: &Arc<Shared>) {
    // Set once the client has gone away: later replies are still
    // worked through (their windows may hold nobody else's requests,
    // and must give back their queue bytes) but no longer written.
    let mut broken = false;
    for reply in rx {
        let (payload, rec) = match reply {
            Reply::Ready(p) => (p, None),
            Reply::Pending { id, ticket } => {
                // The writer rule: a window still open runs here, once
                // its trigger fires.
                if let Some(batch) = shared.batcher.take(ticket.window, true) {
                    run_window(shared, batch);
                }
                match ticket.rx.recv() {
                    Ok((results, mut rec)) => {
                        if let Some(rec) = &mut rec {
                            rec.reply_start_ns = shared.clock.now_ns();
                        }
                        let frame = match results {
                            Ok(results) => encode_response(&Response { id, results }),
                            Err((code, message)) => encode_error(&ErrorFrame { id, code, message }),
                        };
                        (frame, rec)
                    }
                    // A runner only drops a result channel unanswered
                    // if it died outside the engine run — surface that
                    // instead of silently truncating the response
                    // stream.
                    Err(_) => (
                        encode_error(&ErrorFrame {
                            id,
                            code: ErrCode::Internal,
                            message: "the window ended before answering".into(),
                        }),
                        None,
                    ),
                }
            }
        };
        if broken || write_frame(&mut stream, &payload).is_err() {
            broken = true;
            continue;
        }
        if let Some(mut rec) = rec {
            rec.done_ns = shared.clock.now_ns();
            shared.complete(rec);
        }
    }
}
