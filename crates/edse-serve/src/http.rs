//! A deliberately minimal HTTP/1.1 layer over `std::net` — just enough
//! protocol for the service's JSON API: request-line + header parsing,
//! `Content-Length` bodies, fixed-length responses, and chunked
//! transfer-encoding for the event stream. No TLS, no keep-alive
//! (`Connection: close` on every response), no dependencies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body the server will buffer (a [`JobSpec`] is a few
/// hundred bytes; this bound exists so a stray client cannot balloon
/// memory).
///
/// [`JobSpec`]: edse_core::JobSpec
const MAX_BODY: usize = 1 << 20;

/// Longest request line or header line the server will buffer.
const MAX_HEAD_LINE: u64 = 8 * 1024;

/// Most header lines one request may carry.
const MAX_HEADERS: usize = 100;

/// One parsed request: method, path (query strings are not used by this
/// API and are kept attached), and body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `"GET"`.
    pub method: String,
    /// Request path, e.g. `"/jobs/3/events"`.
    pub path: String,
    /// Raw request body (empty when there was none).
    pub body: Vec<u8>,
}

/// Why a request was refused before routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// Unreadable or unparseable request line, header or body.
    Malformed,
    /// A request line or header line longer than 8 KiB, or more than 100
    /// header lines.
    HeadTooLarge,
    /// A `Content-Length` over the 1 MiB body limit.
    BodyTooLarge,
}

impl RequestError {
    /// The status the server answers with.
    pub fn status(self) -> u16 {
        match self {
            RequestError::Malformed => 400,
            RequestError::HeadTooLarge => 431,
            RequestError::BodyTooLarge => 413,
        }
    }

    /// A short description for the error body.
    pub fn message(self) -> &'static str {
        match self {
            RequestError::Malformed => "malformed request",
            RequestError::HeadTooLarge => "request head too large",
            RequestError::BodyTooLarge => "request body too large",
        }
    }
}

/// Reads and parses one request from the stream. The request line and
/// each header line are read through an 8 KiB cap, at most 100 header
/// lines are read, and a body only up to 1 MiB, so no request makes the
/// server buffer more.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let line = read_head_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(RequestError::Malformed)?.to_uppercase();
    let path = parts.next().ok_or(RequestError::Malformed)?.to_string();
    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let header = read_head_line(&mut reader)?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::HeadTooLarge);
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| RequestError::Malformed)?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|_| RequestError::Malformed)?;
    }
    Ok(Request { method, path, body })
}

/// Reads one head line, newline included (a line cut short by the end of
/// the stream comes back as is). A line that reaches [`MAX_HEAD_LINE`]
/// bytes without a newline is refused.
fn read_head_line(reader: &mut impl BufRead) -> Result<String, RequestError> {
    let mut line = Vec::new();
    reader
        .take(MAX_HEAD_LINE)
        .read_until(b'\n', &mut line)
        .map_err(|_| RequestError::Malformed)?;
    if line.len() as u64 == MAX_HEAD_LINE && line.last() != Some(&b'\n') {
        return Err(RequestError::HeadTooLarge);
    }
    String::from_utf8(line).map_err(|_| RequestError::Malformed)
}

/// Writes a complete fixed-length response and flushes.
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Shorthand for a JSON response.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) {
    respond(stream, status, "application/json", body);
}

/// Starts a chunked response (for the JSONL event stream). Follow with
/// [`write_chunk`] per line and [`end_chunks`] to terminate.
pub fn start_chunked(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one chunk. An error means the client hung up; the caller stops
/// streaming.
pub fn write_chunk(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn end_chunks(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}
