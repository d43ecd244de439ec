//! A minimal blocking client for the serve wire protocol.
//!
//! One connection, one request in flight (the protocol is closed-loop per
//! connection); used by the bench serve suite, perfbench and the
//! integration tests.

use arachnet_obs::{parse_json, JsonValue};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A connected client.
pub struct ServeClient {
    stream: TcpStream,
    /// Bytes read past the last returned line (a fragmented read may land
    /// the tail of one reply together with the head of the next).
    buf: Vec<u8>,
    timeout: Duration,
}

/// How long one `read` call may block before the overall reply deadline
/// is re-checked.
const CLIENT_READ_SLICE: Duration = Duration::from_millis(50);

impl ServeClient {
    /// Connect to a server, with `timeout` applied to connect, writes, and
    /// the *whole* of each reply read (across however many socket reads a
    /// fragmented reply takes).
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(CLIENT_READ_SLICE.min(timeout)))?;
        stream.set_write_timeout(Some(timeout))?;
        // Requests are single small lines; without this, Nagle + delayed
        // ACK turns every loopback round-trip into ~40 ms.
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            buf: Vec::new(),
            timeout,
        })
    }

    /// Send one raw line (newline appended) and read one reply line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.read_line()
    }

    /// Send one raw line without waiting for the reply.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        // One write per request: two small writes would let Nagle hold the
        // trailing newline until the peer's (delayed) ACK.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)?;
        self.stream.flush()
    }

    /// Read one reply line (without its newline), looping over however
    /// many socket reads it takes — a slow or fragmented peer that
    /// delivers one byte at a time still yields one complete line, never
    /// a torn prefix. EOF mid-line and an exhausted deadline are errors
    /// ([`ErrorKind::UnexpectedEof`] / [`ErrorKind::TimedOut`]).
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let deadline = Instant::now() + self.timeout;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                // Keep anything past the newline buffered for the next
                // reply (fragmented reads do not respect line boundaries).
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(String::from_utf8_lossy(&line).trim_end().to_string());
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "timed out waiting for a complete reply line",
                ));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        if self.buf.is_empty() {
                            "server closed the connection"
                        } else {
                            "server closed the connection mid-reply (torn line)"
                        },
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Send and parse: the reply as a [`JsonValue`], or the io/parse error
    /// as a string.
    pub fn query(&mut self, line: &str) -> Result<JsonValue, String> {
        let reply = self.roundtrip(line).map_err(|e| e.to_string())?;
        parse_json(&reply).map_err(|e| format!("unparseable reply `{reply}`: {e}"))
    }

    /// The underlying stream (tests use this to shut the socket down
    /// mid-line).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// Convenience: `true` if a parsed reply line is `{"ok":true,...}`.
pub fn is_ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// Convenience: the `error` code of a parsed rejection line, if any.
pub fn error_code(v: &JsonValue) -> Option<&str> {
    v.get("error").and_then(JsonValue::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Satellite regression: a peer that dribbles the reply one byte at a
    /// time (and splits lines across reads) must still yield complete
    /// lines, never torn prefixes — the old `BufReader::read_line` path
    /// happened to work only because loopback rarely fragments.
    #[test]
    fn read_line_survives_byte_at_a_time_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Two replies in one dribble, ending mid-third-line EOF.
            let payload = b"{\"ok\":true,\"n\":1}\n{\"ok\":true,\"n\":2}\n{\"torn";
            for b in payload {
                s.write_all(&[*b]).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let mut c = ServeClient::connect(addr, Duration::from_secs(5)).unwrap();
        assert_eq!(c.read_line().unwrap(), "{\"ok\":true,\"n\":1}");
        assert_eq!(c.read_line().unwrap(), "{\"ok\":true,\"n\":2}");
        // The torn tail is an UnexpectedEof error, not a parsed prefix.
        let err = c.read_line().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("torn"), "{err}");
        server.join().unwrap();
    }
}
