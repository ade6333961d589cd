//! The transport layer: sockets, line framing, and connection lifecycle.
//!
//! Everything below the wire protocol lives here — accepting
//! connections (with a hard cap and a structured one-line refusal),
//! reading newline-delimited request lines, and writing response lines
//! through a per-connection [`SharedWriter`] so pipelined responses
//! never interleave bytes. Nothing in this module interprets a command:
//! a parsed [`Request`](crate::protocol::Request) is handed straight to
//! [`routing::dispatch`](crate::routing::dispatch), and malformed lines
//! are answered here with a contextual `bad_request` because no other
//! layer will ever see them.
//!
//! The split matters for reuse: `rap-cluster`'s coordinator speaks to
//! workers through [`Client`](crate::client::Client) and
//! [`protocol`](crate::protocol) alone — it links none of this server
//! transport — while the server side composes
//! transport → routing → handler.

use crate::metrics::Metrics;
use crate::protocol::{ErrorKind, Request, Response};
use crate::routing;
use crate::server::Shared;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One writer per connection, shared by its reader thread and every
/// worker holding one of its jobs. Locking per line keeps responses to
/// pipelined requests from interleaving bytes.
pub(crate) type SharedWriter = Arc<Mutex<TcpStream>>;

/// Write one response line to a shared connection writer.
///
/// # Errors
/// Propagates socket write errors (the client vanished); the caller
/// decides how to account for the lost bytes.
pub(crate) fn send_line(out: &SharedWriter, line: &str) -> std::io::Result<()> {
    let mut guard = out
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard
        .write_all(line.as_bytes())
        .and_then(|()| guard.flush())
}

/// Accept connections until shutdown, spawning one reader thread per
/// connection and refusing (with a structured `shed` line) past the cap.
pub(crate) fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.is_stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Response lines are small; never let Nagle sit on one.
                let _ = stream.set_nodelay(true);
                if shared.connections.load(Ordering::SeqCst) >= shared.config.max_connections {
                    Metrics::bump(&shared.metrics.connections_refused);
                    refuse_connection(shared, stream);
                    continue;
                }
                Metrics::bump(&shared.metrics.connections);
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                // Connection threads are deliberately not joined: they sit
                // in blocking reads owned by clients. They exit on client
                // EOF and only account for already-counted work.
                let _ = std::thread::Builder::new()
                    .name("rap-serve-conn".to_string())
                    .spawn(move || {
                        connection_loop(&shared, stream);
                        shared.connections.fetch_sub(1, Ordering::SeqCst);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn refuse_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let out: SharedWriter = Arc::new(Mutex::new(stream));
    shared.write_response(
        &out,
        &Response::error(
            None,
            shared.breaker_state(),
            ErrorKind::Shed,
            format!(
                "connection limit ({}) reached; retry later",
                shared.config.max_connections
            ),
        ),
    );
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out: SharedWriter = Arc::new(Mutex::new(write_half));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        Metrics::bump(&shared.metrics.received);
        match Request::parse(&line) {
            Err(message) => {
                Metrics::bump(&shared.metrics.bad_requests);
                let id = Request::rejected_id(&line);
                shared.write_response(
                    &out,
                    &Response::error(id, shared.breaker_state(), ErrorKind::BadRequest, message),
                );
            }
            Ok(request) => routing::dispatch(shared, request, &out),
        }
    }
}
