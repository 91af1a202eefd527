//! Minimal HTTP/1.1 over `std::net`: exactly what the service needs —
//! request-line + headers + `Content-Length` bodies, keep-alive
//! connections, fixed-length responses. No chunked encoding, no TLS, no
//! multipart; clients are the in-repo loadgen, CI smoke checks and
//! `curl`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Caps to keep a hostile or confused client from ballooning memory.
const MAX_HEADER_BYTES: usize = 16 * 1024;
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Largest response body sent in the same `write_all` as its head; it
/// also bounds the per-connection write buffer.
pub const COALESCE_MAX: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    pub body: String,
    /// Client asked to close after this response.
    pub close: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF between requests (client hung up keep-alive).
    Eof,
    /// Malformed request; the message is safe to echo in a 400.
    Bad(String),
    /// Socket-level failure.
    Io(std::io::Error),
}

/// Reads one request from a keep-alive connection.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<HttpRequest, ReadError> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Err(ReadError::Eof),
        Ok(_) => {}
        Err(e) => return Err(ReadError::Io(e)),
    }
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(ReadError::Bad(format!("malformed request line `{line}`"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("unsupported version `{version}`")));
    }

    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    let mut header_bytes = 0usize;
    loop {
        let mut h = String::new();
        match reader.read_line(&mut h) {
            Ok(0) => return Err(ReadError::Bad("truncated headers".to_string())),
            Ok(n) => header_bytes += n,
            Err(e) => return Err(ReadError::Io(e)),
        }
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ReadError::Bad("headers too large".to_string()));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(ReadError::Bad(format!("malformed header `{h}`")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Bad(format!("bad content-length `{value}`")))?;
            if content_length > MAX_BODY_BYTES {
                return Err(ReadError::Bad("body too large".to_string()));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(ReadError::Io)?;
    let body = String::from_utf8(body)
        .map_err(|_| ReadError::Bad("body is not valid UTF-8".to_string()))?;
    Ok(HttpRequest {
        method,
        path,
        body,
        close,
    })
}

/// A response under construction.
pub struct HttpResponse {
    status: u16,
    reason: &'static str,
    headers: Vec<(&'static str, String)>,
    /// Shared with the result cache, so a hit clones no body bytes
    /// until [`write`](Self::write) sends them.
    body: Arc<Vec<u8>>,
}

impl HttpResponse {
    pub fn new(status: u16, reason: &'static str) -> Self {
        HttpResponse {
            status,
            reason,
            headers: Vec::new(),
            body: Arc::default(),
        }
    }

    pub fn json(status: u16, reason: &'static str, body: impl Into<Arc<Vec<u8>>>) -> Self {
        let mut r = HttpResponse::new(status, reason);
        r.headers
            .push(("Content-Type", "application/json".to_string()));
        r.body = body.into();
        r
    }

    /// A JSON error payload: `{"error": "..."}` with the message escaped.
    pub fn error(status: u16, reason: &'static str, message: &str) -> Self {
        let body = format!("{{\"error\":\"{}\"}}", mstacks_core::jsonfmt::esc(message));
        HttpResponse::json(status, reason, body.into_bytes())
    }

    pub fn header(mut self, name: &'static str, value: impl std::fmt::Display) -> Self {
        self.headers.push((name, value.to_string()));
        self
    }

    /// Serializes and writes the response (always with Content-Length).
    /// The head is rendered into `buf`, which a connection reuses for all
    /// its responses; a body of at most [`COALESCE_MAX`] bytes is appended
    /// to it so head and body leave in one `write_all`, and a larger body
    /// follows in a second `write_all` straight from the shared bytes, so
    /// `buf` never grows past a small head plus `COALESCE_MAX`.
    pub fn write(
        &self,
        out: &mut impl Write,
        buf: &mut Vec<u8>,
        close: bool,
    ) -> std::io::Result<()> {
        buf.clear();
        write!(buf, "HTTP/1.1 {} {}\r\n", self.status, self.reason)?;
        for (name, value) in &self.headers {
            write!(buf, "{name}: {value}\r\n")?;
        }
        write!(buf, "Content-Length: {}\r\n", self.body.len())?;
        buf.extend_from_slice(if close {
            b"Connection: close\r\n\r\n"
        } else {
            b"Connection: keep-alive\r\n\r\n"
        });
        if self.body.len() <= COALESCE_MAX {
            buf.extend_from_slice(&self.body);
            out.write_all(buf)?;
        } else {
            out.write_all(buf)?;
            out.write_all(&self.body)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &str) -> Result<HttpRequest, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw.as_bytes()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        read_request(&mut BufReader::new(server_side))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(
            "POST /v1/simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 18\r\n\r\n{\"workload\":\"mcf\"}",
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/simulate");
        assert_eq!(req.body, "{\"workload\":\"mcf\"}");
        assert!(!req.close);
    }

    #[test]
    fn honors_connection_close() {
        let req = roundtrip("GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.close);
        assert!(req.body.is_empty());
    }

    /// Records the length of every `write` call it receives.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.push(b.to_vec());
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_and_body() {
        let body = Arc::new(b"{\"x\":1}".to_vec());
        let r = HttpResponse::json(200, "OK", body).header("X-Cache", "hit");
        let mut buf = Vec::new();
        for close in [false, true] {
            let mut w = Writes::default();
            r.write(&mut w, &mut buf, close).unwrap();
            assert_eq!(w.0.len(), 1, "one write per response");
            let connection = if close { "close" } else { "keep-alive" };
            let want = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Cache: hit\r\n\
                 Content-Length: 7\r\nConnection: {connection}\r\n\r\n{{\"x\":1}}"
            );
            assert_eq!(String::from_utf8(w.0.remove(0)).unwrap(), want);
        }
    }

    #[test]
    fn a_large_body_follows_its_head_and_leaves_the_buffer_small() {
        let mut buf = Vec::new();
        for len in [COALESCE_MAX, COALESCE_MAX + 1, 1 << 20] {
            let r = HttpResponse::json(200, "OK", vec![b'x'; len]);
            let mut w = Writes::default();
            r.write(&mut w, &mut buf, false).unwrap();
            let writes = if len <= COALESCE_MAX { 1 } else { 2 };
            assert_eq!(w.0.len(), writes, "{len}");
            assert!(buf.capacity() < 2 * COALESCE_MAX, "{}", buf.capacity());
            let sent = w.0.concat();
            let head = format!("Content-Length: {len}\r\nConnection: keep-alive\r\n\r\n");
            let at = sent.windows(head.len()).position(|x| x == head.as_bytes());
            assert_eq!(at.map(|a| sent.len() - a - head.len()), Some(len));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            roundtrip("NONSENSE\r\n\r\n"),
            Err(ReadError::Bad(_))
        ));
        assert!(matches!(
            roundtrip("GET / SPDY/9\r\n\r\n"),
            Err(ReadError::Bad(_))
        ));
        assert!(matches!(
            roundtrip("GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(ReadError::Bad(_))
        ));
    }
}
