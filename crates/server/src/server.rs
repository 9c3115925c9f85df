//! The TCP server: a small blocking pool (one thread per connection plus
//! an acceptor) speaking the [`crate::protocol`] frame protocol over a
//! shared [`FilterStore`].
//!
//! Each connection thread answers its own probes: a `QUERY` or
//! `BATCH_QUERY` loads one snapshot, which answers every probe of the
//! request, routes them for the per-shard traffic counts, and refutes the
//! sampled positive. No request waits on another connection's. `RELOAD`
//! swaps manifests atomically under the store's writer lock: in-flight
//! queries finish on the snapshot they already hold, and not one of them
//! fails or blocks during the swap. One positive answer in
//! [`REFUTE_EVERY`] is checked against the keys of the shards the query
//! routes to, to feed the sampled observed-FP estimator in [`Telemetry`].
//!
//! On the wire, a request costs one read and one write syscall on each
//! end. [`protocol::write_frame`] sends a frame as one buffer, and both
//! ends set `TCP_NODELAY`, so a response never waits on Nagle's algorithm
//! and the peer's delayed ACK. Both ends read through a buffer, which
//! takes a whole frame (and any frames pipelined behind it) in one
//! `read`. The acceptor blocks in `accept`; a stop wakes it with a
//! loopback connection to the bound port, so connect latency is one
//! accept, not a poll interval. Transient accept errors (an aborted
//! handshake, fd or buffer exhaustion) back off briefly, are counted as
//! `accept_errors`, and never stop the acceptor.

use std::io::{self, BufRead, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grafite_core::FilterError;
use grafite_store::{FilterStore, Routing, Snapshot, Update};

use crate::protocol::{self, verb, Frame, ProtocolError};
use crate::telemetry::{Telemetry, REFUTE_EVERY};

/// How long a connection read blocks before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How long the acceptor backs off after a transient accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a stop waits for its wake-up connection to reach the acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

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
        stop_and_wake(&self.stop, self.addr);
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
    telemetry: Arc<Telemetry>,
    stop: Arc<AtomicBool>,
    /// The bound address, which a `SHUTDOWN` connects to to wake the
    /// acceptor.
    addr: SocketAddr,
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
    let local = listener.local_addr()?;
    let telemetry = Arc::new(Telemetry::new(store.snapshot().num_shards()));
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        store: Arc::clone(&store),
        telemetry: Arc::clone(&telemetry),
        stop: Arc::clone(&stop),
        addr: local,
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
    loop {
        let accepted = listener.accept();
        // ordering: Relaxed-flag; stop poll, no data is published through
        // it. A stop stores the flag before it makes the wake-up
        // connection this `accept` returned.
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || {
                    handle_connection(stream, shared)
                }));
            }
            Err(e) if is_transient_accept_error(&e) => {
                shared.telemetry.record_accept_error();
                std::thread::sleep(ACCEPT_BACKOFF);
            }
            Err(_) => break,
        }
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Whether an `accept` error passes: the peer gave up mid-handshake, a
/// signal interrupted the call, or the process or system ran out of file
/// descriptors, socket buffers or memory — all of which clear as
/// connections close. Any other error means the listener itself is
/// broken.
fn is_transient_accept_error(e: &io::Error) -> bool {
    /// `EMFILE`, `ENFILE`, `ENOBUFS` and `ENOMEM`: the errno values are
    /// shared across unix platforms except `ENOBUFS`.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const TRANSIENT_ERRNOS: [i32; 4] = [24, 23, 105, 12];
    #[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
    const TRANSIENT_ERRNOS: [i32; 4] = [24, 23, 55, 12];
    #[cfg(not(unix))]
    const TRANSIENT_ERRNOS: [i32; 0] = [];
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
    ) || e
        .raw_os_error()
        .is_some_and(|errno| TRANSIENT_ERRNOS.contains(&errno))
}

/// Sets the stop flag, then wakes the acceptor out of its blocking
/// `accept` with a loopback connection to the bound port.
fn stop_and_wake(stop: &AtomicBool, addr: SocketAddr) {
    // ordering: Relaxed-flag; no data rides on the stop flag. The store
    // precedes the wake-up connect below, and connection threads poll it
    // between frames.
    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect_timeout(&wake_addr(addr), WAKE_TIMEOUT);
}

/// The address a wake-up connection dials: the bound address, with a
/// wildcard IP replaced by the loopback address of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Serves one connection until it closes, errors fatally, or the server
/// stops. Malformed frames get an error response and the connection stays
/// up — one bad client request must never take the stream (or the server)
/// down.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::with_capacity(protocol::READ_BUFFER, r),
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        // ordering: Relaxed-flag; stop poll, no data is published through it.
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // Wait for the next frame to start. Frames the peer pipelined are
        // already buffered and return at once; otherwise an idle timeout
        // here has consumed nothing, so looping is safe. Once a byte is
        // buffered, the rest of the frame is read strictly — a timeout
        // *mid-frame* means a stalled or hostile peer and closes the
        // connection, never a silent resync.
        match reader.fill_buf() {
            Ok([]) => return, // clean close
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue; // idle poll tick
            }
            Err(_) => return,
        }
        let frame = match protocol::read_frame(&mut reader) {
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
                stop_and_wake(&shared.stop, shared.addr);
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

/// Answers probes on the calling connection thread and feeds the
/// telemetry: the request as one store batch, per-shard probe counts,
/// negative answers, and the observed-FP estimator. One snapshot answers,
/// routes and refutes the whole request, so a concurrent `APPLY` or
/// `RELOAD` can never make a sampled positive look refuted. Every
/// [`REFUTE_EVERY`]-th positive answer, counted across all connections, is
/// refuted against the keys of the shards it routes to, so the refutation
/// reads stay a fixed small share of the traffic; the estimator scales the
/// sample up. A positive whose refutation read fails goes unsampled.
fn answer_probes(shared: &Shared, queries: &[(u64, u64)]) -> Vec<bool> {
    let snap = shared.store.snapshot();
    let telemetry = &shared.telemetry;
    let mut answers = Vec::with_capacity(queries.len());
    snap.query_ranges(queries, &mut answers);
    telemetry.record_batch(queries.len() as u64);
    // One atomic add per touched shard per request, not one per probe.
    let mut shard_probes = vec![0u64; snap.num_shards()];
    for &(a, b) in queries {
        if let Some(counts) = shard_probes.get_mut(routed_shards(snap.routing(), a, b)) {
            counts.iter_mut().for_each(|count| *count += 1);
        }
    }
    telemetry.record_shard_probes(&shard_probes);
    let hits = answers.iter().filter(|&&hit| hit).count() as u64;
    telemetry.record_negatives((answers.len() as u64).saturating_sub(hits));
    // This request's positives are numbered `first..first + hits`; number
    // `p` is sampled iff `p % REFUTE_EVERY == 0`.
    let first = telemetry.record_positives(hits);
    let skip = (REFUTE_EVERY - first % REFUTE_EVERY) % REFUTE_EVERY;
    let positives = queries
        .iter()
        .zip(&answers)
        .filter_map(|(&range, &hit)| hit.then_some(range));
    for (a, b) in positives.skip(skip as usize).step_by(REFUTE_EVERY as usize) {
        if let Ok(holds) = truth(&snap, a, b) {
            telemetry.record_sample(!holds);
        }
    }
    answers
}

/// The shards [`Snapshot::may_contain_range`] routes `[a, b]` to: under
/// range routing every shard from `a`'s to `b`'s, under hash routing the
/// key's shard for a point and every shard for a wider range.
fn routed_shards(routing: &Routing, a: u64, b: u64) -> Range<usize> {
    match routing {
        Routing::Range { .. } => routing.shard_of(a)..routing.shard_of(b) + 1,
        Routing::Hash { .. } if a == b => {
            let shard = routing.shard_of(a);
            shard..shard + 1
        }
        Routing::Hash { .. } => 0..routing.num_shards(),
    }
}

/// Ground truth from the shard keys: does `[a, b]` hold a key? Only the
/// shards [`Snapshot::may_contain_range`] routes the range to can hold
/// one, so only they are searched.
fn truth(snap: &Snapshot, a: u64, b: u64) -> Result<bool, FilterError> {
    let shards = snap.shards();
    for shard in shards
        .get(routed_shards(snap.routing(), a, b))
        .unwrap_or(shards)
    {
        if shard.holds_key(a, b)? {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafite_core::registry::{FilterSpec, Registry};
    use grafite_store::{FamilySpec, Partitioning, StoreConfig};

    #[test]
    fn accept_errors_are_classified() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
        ] {
            assert!(is_transient_accept_error(&kind.into()), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::InvalidInput,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::AddrInUse,
        ] {
            assert!(!is_transient_accept_error(&kind.into()), "{kind:?}");
        }
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    #[test]
    fn resource_exhaustion_errnos_are_transient() {
        // EMFILE, ENFILE, ENOBUFS, ENOMEM pass; EBADF, EINVAL, ENOTSOCK
        // mean the listener is broken.
        for errno in [24, 23, 105, 12] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(is_transient_accept_error(&e), "errno {errno}");
        }
        for errno in [9, 22, 88] {
            let e = io::Error::from_raw_os_error(errno);
            assert!(!is_transient_accept_error(&e), "errno {errno}");
        }
    }

    #[test]
    fn wake_addr_dials_loopback_for_wildcards() {
        let v4: SocketAddr = "0.0.0.0:4000".parse().unwrap();
        let v6: SocketAddr = "[::]:4000".parse().unwrap();
        let bound: SocketAddr = "192.0.2.7:4000".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:4000".parse().unwrap());
        assert_eq!(wake_addr(v6), "[::1]:4000".parse().unwrap());
        assert_eq!(wake_addr(bound), bound);
    }

    /// Routed refutation against a resident binary search over every
    /// shard's verified keys, for both partitionings, on a built store and
    /// on a mapped one (fences in memory, key blocks read from the file),
    /// before and after an `apply` that rebuilds one shard. Besides random
    /// ranges, the probes sit on every shard's fence edges: key indices 0,
    /// 255, 256, 257 and the last key, ranges straddling two fence blocks,
    /// and ranges before a shard's first key or after its last.
    #[test]
    fn routed_truth_matches_every_shard_truth() {
        use grafite_store::manifest::FENCE_EVERY;

        let keys: Vec<u64> = (0..4000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let random: Vec<(u64, u64)> = keys
            .iter()
            .step_by(7)
            .flat_map(|&k| [(k, k), (k.saturating_sub(3), k), (k + 1, k + 1)])
            .chain((0..3000u64).map(|i| {
                let a = i.wrapping_mul(0xD134_2543_DE82_EF95) >> 20;
                (a, a.saturating_add(i % 200))
            }))
            .chain([(0, u64::MAX), (u64::MAX, u64::MAX)])
            .collect();
        let shard_keys = |snap: &Snapshot| -> Vec<Vec<u64>> {
            snap.shards()
                .iter()
                .map(|s| s.read_keys().unwrap().into_owned())
                .collect()
        };
        let fence_edges = |shard_keys: &[Vec<u64>]| -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            for keys in shard_keys {
                let (Some(&first), Some(&last)) = (keys.first(), keys.last()) else {
                    continue;
                };
                assert!(
                    keys.len() > 2 * FENCE_EVERY,
                    "shards too small for fence edges"
                );
                for i in [0, 255, 256, 257, 511, 512, keys.len() - 1] {
                    let k = keys[i];
                    out.extend([
                        (k, k),
                        (k.saturating_sub(1), k.saturating_sub(1)),
                        (k.saturating_add(1), k.saturating_add(1)),
                    ]);
                }
                out.extend([
                    (keys[250], keys[260]),
                    (keys[250] + 1, keys[260] - 1),
                    (keys[255] + 1, keys[256] - 1),
                    (keys[255] + 1, keys[256]),
                    (keys[256] + 1, keys[257] - 1),
                    (keys[100] + 1, keys[400] - 1),
                    (keys[255], keys[511]),
                    (0, first.saturating_sub(1)),
                    (last.saturating_add(1), u64::MAX),
                ]);
            }
            out
        };
        let resident = |shard_keys: &[Vec<u64>], a: u64, b: u64| {
            shard_keys.iter().any(|keys| {
                let at = keys.partition_point(|&k| k < a);
                keys.get(at).is_some_and(|&k| k <= b)
            })
        };
        let registry = Registry::new();
        for (p, partitioning) in [
            Partitioning::Range { shards: 6 },
            Partitioning::Hash { shards: 6 },
        ]
        .into_iter()
        .enumerate()
        {
            let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
                .bits_per_key(12.0)
                .max_range(64)
                .partitioning(partitioning);
            let built = FilterStore::build(&registry, config, &keys).unwrap();
            let path = std::env::temp_dir()
                .join(format!("grafite-server-truth-{p}-{}", std::process::id()));
            std::fs::write(&path, built.to_bytes()).unwrap();
            let mapped = FilterStore::open_mapped(&registry, &path).unwrap();
            for store in [&built, &mapped] {
                let before = store.snapshot();
                let mut union: Vec<u64> = shard_keys(&before).concat();
                union.sort_unstable();
                assert_eq!(union, sorted, "{partitioning:?}: shard keys lost");
                // Deletes and inserts that all route to shard 1.
                let target = &shard_keys(&before)[1];
                let updates: Vec<Update> = target
                    .iter()
                    .step_by(3)
                    .take(100)
                    .map(|&k| Update::Delete(k))
                    .chain(
                        target
                            .iter()
                            .map(|&k| k + 1)
                            .filter(|&k| before.routing().shard_of(k) == 1)
                            .take(50)
                            .map(Update::Insert),
                    )
                    .collect();
                let report = store.apply(&updates).unwrap();
                assert_eq!(report.dirty_shards, 1);
                let after = store.snapshot();
                for snap in [&before, &after] {
                    let truth_keys = shard_keys(snap);
                    let probes: Vec<(u64, u64)> = random
                        .iter()
                        .copied()
                        .chain(fence_edges(&truth_keys))
                        .collect();
                    let mut positives = 0;
                    for &(a, b) in &probes {
                        let want = resident(&truth_keys, a, b);
                        assert_eq!(
                            truth(snap, a, b).unwrap(),
                            want,
                            "{partitioning:?} [{a}, {b}]"
                        );
                        positives += usize::from(want);
                    }
                    assert!(positives > 0 && positives < probes.len(), "vacuous probes");
                }
            }
            assert!(
                mapped.snapshot().shards()[0].resident_key_bytes()
                    < mapped.snapshot().shards()[0].num_keys() * 8,
                "{partitioning:?}: the mapped store's clean shards must stay on disk"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}
