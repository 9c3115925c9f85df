//! The TCP server: a small blocking pool (one thread per connection plus
//! an acceptor) speaking the [`crate::protocol`] frame protocol over a
//! shared [`FilterStore`].
//!
//! Single probes and batches both route through the [`Batcher`], so
//! concurrent load coalesces into one store batch per leader. `RELOAD`
//! swaps manifests atomically under the store's writer lock: in-flight
//! queries finish on the snapshot they already hold, and not one of them
//! fails or blocks during the swap. Positive answers are spot-checked
//! against the snapshot's retained keys to feed the observed-FP estimator
//! in [`Telemetry`].

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grafite_store::{FilterStore, Snapshot, Update};

use crate::batch::Batcher;
use crate::protocol::{self, verb, Frame, ProtocolError};
use crate::telemetry::Telemetry;

/// How long a connection read blocks before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A running server: its bound address and the handles to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    store: Arc<FilterStore>,
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served store.
    pub fn store(&self) -> &Arc<FilterStore> {
        &self.store
    }

    /// The server's telemetry (live; scraped over `STATS` as JSON).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Whether a `SHUTDOWN` frame (or [`ServerHandle::shutdown`]) has
    /// stopped the accept loop.
    pub fn is_stopped(&self) -> bool {
        // ordering: Relaxed-flag; no data is published alongside the stop
        // flag, so relaxed reads are enough for a poll.
        self.stop.load(Ordering::Relaxed)
    }

    /// Stops accepting, lets in-flight connections drain, and joins the
    /// acceptor.
    pub fn shutdown(mut self) {
        // ordering: Relaxed-flag; no data rides on the stop flag,
        // connection threads poll it between frames.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Blocks until the server stops (a client sends `SHUTDOWN`).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Everything the connection handlers share.
struct Shared {
    store: Arc<FilterStore>,
    batcher: Batcher,
    telemetry: Arc<Telemetry>,
    stop: Arc<AtomicBool>,
    /// The manifest path served at startup; an empty-payload `RELOAD`
    /// re-reads it.
    manifest_path: Option<PathBuf>,
}

/// Starts serving `store` on `addr` (use port 0 for an ephemeral port).
/// `manifest_path` is the file an empty `RELOAD` request re-reads.
pub fn serve(
    store: Arc<FilterStore>,
    addr: impl ToSocketAddrs,
    manifest_path: Option<PathBuf>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let telemetry = Arc::new(Telemetry::new(store.snapshot().num_shards()));
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        batcher: Batcher::new(Arc::clone(&store), Arc::clone(&telemetry)),
        store: Arc::clone(&store),
        telemetry: Arc::clone(&telemetry),
        stop: Arc::clone(&stop),
        manifest_path,
    });
    let acceptor = std::thread::spawn(move || accept_loop(listener, shared));
    Ok(ServerHandle {
        addr: local,
        stop,
        acceptor: Some(acceptor),
        store,
        telemetry,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    // ordering: Relaxed-flag; stop poll, no data is published through it.
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || {
                    handle_connection(stream, shared)
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Serves one connection until it closes, errors fatally, or the server
/// stops. Malformed frames get an error response and the connection stays
/// up — one bad client request must never take the stream (or the server)
/// down.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        // ordering: Relaxed-flag; stop poll, no data is published through it.
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // Poll for the first byte of the next frame: an idle timeout here
        // has consumed nothing, so looping is safe. Once a byte arrives,
        // the rest of the frame is read strictly — a timeout *mid-frame*
        // means a stalled or hostile peer and closes the connection, never
        // a silent resync.
        let mut first = [0u8; 1];
        match reader.read(&mut first) {
            Ok(0) => return, // clean close
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // idle poll tick
            }
            Err(_) => return,
        }
        let frame = match protocol::read_frame_continuing(first[0], &mut reader) {
            Ok(frame) => frame,
            Err(ProtocolError::Io(_)) => return, // peer went away / stalled
            Err(e) => {
                // A hostile length prefix means the rest of the stream is
                // unframed: answer with the typed error, then drop.
                shared.telemetry.record_bad_frame();
                let _ = respond_err(&mut writer, &e);
                return;
            }
        };
        let started = Instant::now();
        match dispatch(&frame, &shared) {
            Ok(Reply::Payload(payload)) => {
                shared
                    .telemetry
                    .record_request(frame.verb, elapsed_us(started));
                if protocol::write_frame(&mut writer, protocol::ok_verb(frame.verb), &payload)
                    .is_err()
                {
                    return;
                }
            }
            Ok(Reply::Stop) => {
                shared
                    .telemetry
                    .record_request(frame.verb, elapsed_us(started));
                // ordering: Relaxed-flag; connection threads and the
                // acceptor poll the stop flag, no data rides on it.
                shared.stop.store(true, Ordering::Relaxed);
                let _ = protocol::write_frame(&mut writer, protocol::ok_verb(frame.verb), &[]);
                return;
            }
            Err(msg) => {
                shared.telemetry.record_error(frame.verb);
                if respond_err_msg(&mut writer, &msg).is_err() {
                    return;
                }
            }
        }
    }
}

fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A handler's successful outcome.
enum Reply {
    Payload(Vec<u8>),
    Stop,
}

fn respond_err(w: &mut TcpStream, e: &ProtocolError) -> Result<(), ProtocolError> {
    respond_err_msg(w, &e.to_string())
}

fn respond_err_msg(w: &mut TcpStream, msg: &str) -> Result<(), ProtocolError> {
    protocol::write_frame(w, verb::ERR, msg.as_bytes())
}

/// Routes one request frame to its handler. Returns `Err(message)` for
/// anything that should come back as an `ERR` frame.
fn dispatch(frame: &Frame, shared: &Shared) -> Result<Reply, String> {
    match frame.verb {
        verb::QUERY => {
            let (a, b) = protocol::decode_query(&frame.payload).map_err(|e| e.to_string())?;
            let hit = answer_probes(shared, &[(a, b)])
                .first()
                .copied()
                .unwrap_or(false);
            Ok(Reply::Payload(vec![u8::from(hit)]))
        }
        verb::BATCH_QUERY => {
            let queries = protocol::decode_batch(&frame.payload).map_err(|e| e.to_string())?;
            let answers = answer_probes(shared, &queries);
            Ok(Reply::Payload(
                answers.iter().map(|&h| u8::from(h)).collect(),
            ))
        }
        verb::APPLY => {
            let pairs = protocol::decode_apply(&frame.payload).map_err(|e| e.to_string())?;
            let updates: Vec<Update> = pairs
                .iter()
                .map(|&(insert, key)| {
                    if insert {
                        Update::Insert(key)
                    } else {
                        Update::Delete(key)
                    }
                })
                .collect();
            let started = Instant::now();
            let report = shared.store.apply(&updates).map_err(|e| e.to_string())?;
            shared.telemetry.record_rebuild(elapsed_us(started));
            Ok(Reply::Payload(
                protocol::encode_apply_report(
                    report.version,
                    report.inserted as u64,
                    report.deleted as u64,
                )
                .to_vec(),
            ))
        }
        verb::STATS => Ok(Reply::Payload(
            crate::telemetry::render_json(&shared.telemetry, &shared.store).into_bytes(),
        )),
        verb::RELOAD => {
            let path = if frame.payload.is_empty() {
                shared
                    .manifest_path
                    .clone()
                    .ok_or("reload: no manifest path configured and none given")?
            } else {
                let s = std::str::from_utf8(&frame.payload)
                    .map_err(|_| "reload: path is not UTF-8".to_string())?;
                PathBuf::from(s)
            };
            let version = shared
                .store
                .reload_mapped(Path::new(&path))
                .map_err(|e| e.to_string())?;
            Ok(Reply::Payload(version.to_le_bytes().to_vec()))
        }
        verb::SHUTDOWN => Ok(Reply::Stop),
        other => Err(ProtocolError::UnknownVerb(other).to_string()),
    }
}

/// Answers probes through the batcher and feeds the telemetry: per-shard
/// probe counts, negative answers, and retained-key refutation of positive
/// answers (the observed-FP estimator). Refutation is exact — the snapshot
/// retains every key — so `refuted == answered true but no key in range`.
fn answer_probes(shared: &Shared, queries: &[(u64, u64)]) -> Vec<bool> {
    let snap = shared.store.snapshot();
    for &(a, _b) in queries {
        shared
            .telemetry
            .record_shard_probe(snap.routing().shard_of(a));
    }
    let answers = shared.batcher.submit(queries);
    let mut negatives = 0u64;
    for (&(a, b), &hit) in queries.iter().zip(&answers) {
        if hit {
            shared.telemetry.record_positive(!truth(&snap, a, b));
        } else {
            negatives += 1;
        }
    }
    shared.telemetry.record_negatives(negatives);
    answers
}

/// Ground truth from the snapshot's retained keys: does any shard hold a
/// key in `[a, b]`?
fn truth(snap: &Snapshot, a: u64, b: u64) -> bool {
    snap.shards().iter().any(|shard| {
        let keys = shard.keys();
        let at = keys.partition_point(|&k| k < a);
        keys.get(at).is_some_and(|&k| k <= b)
    })
}
