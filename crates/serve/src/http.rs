//! Hand-rolled HTTP/1.1 plumbing — request parsing and response writing
//! over a plain [`TcpStream`].
//!
//! Deliberately tiny: one request per connection (`Connection: close`),
//! `GET`/`POST` only, no chunked transfer, no percent-decoding (every query
//! value the service accepts is numeric). The parser is the part of the
//! server that touches untrusted bytes, so every input is bounded: request
//! head at [`MAX_HEAD_BYTES`], body at [`MAX_BODY_BYTES`], and JSON bodies
//! inherit `mixen_core::obs::MAX_JSON_DEPTH` downstream.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use mixen_core::Json;

/// Upper bound on the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body (`Content-Length` beyond this is a 413).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A failed request read, tagged with how the server should answer.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request — answer 400.
    Bad(String),
    /// Request exceeds a size bound — answer 413.
    TooLarge(String),
    /// Socket failure mid-request — nothing to answer, drop the connection.
    Io(std::io::Error),
}

/// A parsed request: method, path, query parameters, and body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    query: Vec<(String, String)>,
    pub body: String,
}

impl Request {
    /// Reads and parses one request from the stream, enforcing the size
    /// bounds. The caller is expected to have armed read timeouts so a
    /// stalled client cannot pin a worker.
    pub fn read_from(stream: &mut TcpStream) -> Result<Request, HttpError> {
        let mut reader = BufReader::new(stream);
        let request_line = read_head_line(&mut reader, 0)?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::Bad("empty request line".into()))?
            .to_string();
        let target = parts
            .next()
            .ok_or_else(|| HttpError::Bad("request line missing target".into()))?
            .to_string();
        let version = parts.next().unwrap_or("HTTP/1.0");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Bad(format!("unsupported version '{version}'")));
        }

        let mut head_bytes = request_line.len();
        let mut content_length = 0usize;
        loop {
            let line = read_head_line(&mut reader, head_bytes)?;
            head_bytes += line.len() + 2;
            if line.is_empty() {
                break;
            }
            if let Some((key, value)) = line.split_once(':') {
                if key.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        HttpError::Bad(format!("invalid Content-Length '{}'", value.trim()))
                    })?;
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            // Consume the declared body (bounded) before answering: closing
            // with unread data in the receive buffer would RST the
            // connection and discard the 413 response on the way out.
            let drain = content_length.min(4 * 1024 * 1024) as u64;
            let _ = std::io::copy(&mut reader.by_ref().take(drain), &mut std::io::sink());
            return Err(HttpError::TooLarge(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(HttpError::Io)?;
        let body = String::from_utf8(body)
            .map_err(|_| HttpError::Bad("body is not valid UTF-8".into()))?;

        let (path, qs) = target.split_once('?').unwrap_or((target.as_str(), ""));
        let query = qs
            .split('&')
            .filter(|pair| !pair.is_empty())
            .map(|pair| {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                (k.to_string(), v.to_string())
            })
            .collect();
        Ok(Request {
            method,
            path: path.to_string(),
            query,
            body,
        })
    }

    /// The raw value of a query parameter.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A typed query parameter; a present-but-unparsable value is an error
    /// message suitable for a 400 body.
    pub fn query_parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.query(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("query parameter '{key}' has invalid value '{v}'")),
        }
    }
}

/// Reads one CRLF- (or LF-) terminated header line, bounded so a hostile
/// peer cannot grow the head without limit.
fn read_head_line(
    reader: &mut BufReader<&mut TcpStream>,
    already: usize,
) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    let budget = MAX_HEAD_BYTES.saturating_sub(already) + 2;
    let mut limited = reader.take(budget as u64);
    let n = limited.read_until(b'\n', &mut buf).map_err(HttpError::Io)?;
    if n == 0 {
        return Err(HttpError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-request",
        )));
    }
    if !buf.ends_with(b"\n") {
        return Err(HttpError::TooLarge(format!(
            "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        )));
    }
    while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::Bad("header line is not valid UTF-8".into()))
}

/// The reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes. One response per
/// connection: `Connection: close` is always sent. Status line, headers and
/// body are rendered into one buffer and sent with one `write_all`, so an
/// unbuffered socket sees one `write` per response, not one per format piece.
pub fn respond_json(mut stream: impl Write, status: u16, body: &Json) -> std::io::Result<()> {
    let text = body.render();
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{text}",
        reason(status),
        text.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The uniform error body: `{"status": N, "error": "..."}`.
pub fn error_json(status: u16, message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::from_u64(u64::from(status))),
        ("error".into(), Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts everything and counts the `write` calls it was handed.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_with_unchanged_bytes() {
        let mut out = CountingWriter::default();
        respond_json(&mut out, 404, &error_json(404, "no such node")).unwrap();
        assert_eq!(out.writes, 1);
        let body = r#"{"status":404,"error":"no such node"}"#;
        let want = format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(String::from_utf8(out.bytes).unwrap(), want);
    }
}
