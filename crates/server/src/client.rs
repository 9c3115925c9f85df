//! A minimal blocking client for the [`crate::protocol`] frame protocol:
//! one TCP stream, one in-flight request at a time. Each request is one
//! write (`TCP_NODELAY` is set, so it leaves at once) and each response is
//! read through a buffer, so a round trip costs one read syscall.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{self, verb, ProtocolError};

/// The summary an `APPLY` request returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplySummary {
    /// The store version the batch produced (unchanged if nothing was
    /// dirty).
    pub version: u64,
    /// Keys newly present.
    pub inserted: u64,
    /// Keys newly absent.
    pub deleted: u64,
}

/// A connected client.
pub struct Client {
    /// The connection; requests are written to the stream underneath,
    /// responses are read through the buffer.
    stream: BufReader<TcpStream>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::with_capacity(protocol::READ_BUFFER, stream),
        })
    }

    /// One request/response round trip; checks the response verb.
    fn call(&mut self, request: u8, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        protocol::write_frame(self.stream.get_mut(), request, payload)?;
        let frame = protocol::read_frame(&mut self.stream)?;
        if frame.verb == verb::ERR {
            return Err(ProtocolError::Remote(
                String::from_utf8_lossy(&frame.payload).into_owned(),
            ));
        }
        if frame.verb != protocol::ok_verb(request) {
            return Err(ProtocolError::UnknownVerb(frame.verb));
        }
        Ok(frame.payload)
    }

    /// Whether the closed range `[a, b]` may contain a key.
    pub fn query(&mut self, a: u64, b: u64) -> Result<bool, ProtocolError> {
        let payload = self.call(verb::QUERY, &protocol::encode_query(a, b))?;
        let answers = protocol::decode_bools(&payload, 1)?;
        answers
            .first()
            .copied()
            .ok_or(ProtocolError::BadPayload("empty query answer"))
    }

    /// Answers a batch of closed ranges, one `bool` per query in order.
    pub fn query_batch(&mut self, queries: &[(u64, u64)]) -> Result<Vec<bool>, ProtocolError> {
        let payload = self.call(verb::BATCH_QUERY, &protocol::encode_batch(queries)?)?;
        protocol::decode_bools(&payload, queries.len())
    }

    /// Applies `(insert?, key)` updates atomically on the server.
    pub fn apply(&mut self, updates: &[(bool, u64)]) -> Result<ApplySummary, ProtocolError> {
        let payload = self.call(verb::APPLY, &protocol::encode_apply(updates)?)?;
        let (version, inserted, deleted) = protocol::decode_apply_report(&payload)?;
        Ok(ApplySummary {
            version,
            inserted,
            deleted,
        })
    }

    /// The server's telemetry snapshot as a JSON string.
    pub fn stats_json(&mut self) -> Result<String, ProtocolError> {
        let payload = self.call(verb::STATS, &[])?;
        String::from_utf8(payload).map_err(|_| ProtocolError::BadPayload("stats not UTF-8"))
    }

    /// Hot-reloads the server's manifest: `Some(path)` names a manifest
    /// file on the *server's* filesystem, `None` re-reads the one it was
    /// started with. Returns the new store version.
    pub fn reload(&mut self, path: Option<&str>) -> Result<u64, ProtocolError> {
        let payload = self.call(verb::RELOAD, path.unwrap_or("").as_bytes())?;
        protocol::decode_version(&payload)
    }

    /// Asks the server to stop accepting and shut down.
    pub fn shutdown(&mut self) -> Result<(), ProtocolError> {
        self.call(verb::SHUTDOWN, &[]).map(|_| ())
    }
}
