//! A small HTTP/1.1 client that reports every failure.
//!
//! It keeps one connection alive across requests, frames bodies by
//! `Content-Length` or chunked coding, and timestamps each
//! newline-terminated line of a chunked body as it arrives (the
//! `/v1/stream` frames). It never retries: a request that meets a
//! dropped connection, a reset or a truncated response returns the
//! error, and only the *next* request opens a new connection. A client
//! may cap the requests it sends on one connection
//! ([`Client::with_max_requests`]), closing it itself after that many
//! answers, as a server's announced per-connection limit would.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest body or chunk the client accepts, bytes.
const MAX_BODY: usize = 64 << 20;

/// How long a read may block before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One completed request/response exchange.
#[derive(Debug)]
pub struct Exchange {
    /// Response status code.
    pub status: u16,
    /// The body (de-chunked).
    pub body: Vec<u8>,
    /// When the request was fully written.
    pub sent: Instant,
    /// When the first response byte was available.
    pub first_byte: Instant,
    /// When the last body byte was read.
    pub done: Instant,
    /// For chunked bodies: each complete line's arrival time and the
    /// body offset just past its newline.
    lines: Vec<(Instant, usize)>,
}

impl Exchange {
    /// `true` for a 2xx status.
    #[must_use]
    pub fn success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body's lines paired with their arrival times.
    pub fn timed_lines(&self) -> impl Iterator<Item = (Instant, &[u8])> {
        let mut start = 0;
        self.lines.iter().map(move |&(at, end)| {
            let line = &self.body[start..end - 1];
            start = end;
            (at, line)
        })
    }
}

/// A keep-alive client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Responses read on the current connection.
    answered: u64,
    /// Answers after which the client closes the connection itself.
    max_requests: u64,
    request: Vec<u8>,
    /// Connections opened so far.
    pub connections: u64,
    /// Total time spent in `connect`.
    pub connect_time: Duration,
}

impl Client {
    /// A client that connects lazily, on its first request.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            answered: 0,
            max_requests: u64::MAX,
            request: Vec::new(),
            connections: 0,
            connect_time: Duration::ZERO,
        }
    }

    /// Closes each connection after `limit` answers, so the next
    /// request opens a new one.
    #[must_use]
    pub fn with_max_requests(self, limit: u64) -> Client {
        Client {
            max_requests: limit.max(1),
            ..self
        }
    }

    /// Sends one request and reads the whole response.
    ///
    /// # Errors
    ///
    /// Any connect, write or read failure, an early EOF, or a malformed
    /// response. The connection is dropped on every error.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Exchange> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Exchange> {
        if self.conn.is_none() {
            let started = Instant::now();
            let stream = TcpStream::connect(self.addr)?;
            self.connect_time += started.elapsed();
            self.connections += 1;
            self.answered = 0;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.conn = Some(BufReader::new(stream));
        }
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nhost: marchbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut().write_all(&self.request)?;
        let sent = Instant::now();
        if conn.fill_buf()?.is_empty() {
            return Err(eof("the server closed the connection before answering"));
        }
        let first_byte = Instant::now();
        let head = read_head(conn)?;
        let mut body = Vec::new();
        let mut lines = Vec::new();
        if head.chunked {
            read_chunked(conn, &mut body, &mut lines)?;
        } else if let Some(length) = head.content_length {
            body.resize(length, 0);
            conn.read_exact(&mut body)?;
        } else {
            conn.read_to_end(&mut body)?;
        }
        let done = Instant::now();
        self.answered += 1;
        if head.close
            || (!head.chunked && head.content_length.is_none())
            || self.answered == self.max_requests
        {
            self.conn = None;
        }
        Ok(Exchange {
            status: head.status,
            body,
            sent,
            first_byte,
            done,
            lines,
        })
    }
}

fn eof(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what)
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

struct Head {
    status: u16,
    content_length: Option<usize>,
    chunked: bool,
    close: bool,
}

fn read_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(eof("connection closed mid-response"));
    }
    Ok(())
}

fn read_head(reader: &mut impl BufRead) -> io::Result<Head> {
    let mut line = String::new();
    read_line(reader, &mut line)?;
    let status = line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut head = Head {
        status,
        content_length: None,
        chunked: false,
        close: line.starts_with("HTTP/1.0"),
    };
    loop {
        read_line(reader, &mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(invalid(format!("bad header {header:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                let length: usize = value
                    .parse()
                    .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
                if length > MAX_BODY {
                    return Err(invalid(format!("body of {length} bytes is too large")));
                }
                head.content_length = Some(length);
            }
            "transfer-encoding" => head.chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => head.close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
}

/// Decodes a chunked body into `body`, recording each completed line's
/// arrival time and end offset in `lines` as chunks come in.
///
/// # Errors
///
/// Malformed chunk framing, an oversized chunk, or an early EOF.
pub fn read_chunked(
    reader: &mut impl BufRead,
    body: &mut Vec<u8>,
    lines: &mut Vec<(Instant, usize)>,
) -> io::Result<()> {
    let mut line = String::new();
    loop {
        read_line(reader, &mut line)?;
        let digits = line.trim_end().split(';').next().unwrap_or("");
        let size = usize::from_str_radix(digits.trim(), 16)
            .map_err(|_| invalid(format!("bad chunk size {line:?}")))?;
        if size == 0 {
            // Trailer section, ended by an empty line.
            loop {
                read_line(reader, &mut line)?;
                if line.trim_end().is_empty() {
                    return Ok(());
                }
            }
        }
        if body.len() + size > MAX_BODY {
            return Err(invalid(format!("chunked body over {MAX_BODY} bytes")));
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let arrived = Instant::now();
        for (offset, &byte) in body[start..].iter().enumerate() {
            if byte == b'\n' {
                lines.push((arrived, start + offset + 1));
            }
        }
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(invalid("chunk not followed by CRLF".to_owned()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    fn decode(wire: &[u8]) -> io::Result<(Vec<u8>, Vec<usize>)> {
        let mut body = Vec::new();
        let mut lines = Vec::new();
        read_chunked(&mut Cursor::new(wire), &mut body, &mut lines)?;
        Ok((body, lines.into_iter().map(|(_, end)| end).collect()))
    }

    #[test]
    fn chunked_frames_split_across_chunks() {
        let wire = b"4\r\n{\"a\"\r\n6;ext=1\r\n:1}\n{\"\r\n5\r\nb\":2}\r\n1\r\n\n\r\n0\r\n\r\n";
        let (body, ends) = decode(wire).unwrap();
        assert_eq!(body, b"{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(ends, [8, 16]);
    }

    #[test]
    fn chunked_trailers_and_uppercase_sizes() {
        let (body, ends) = decode(b"A\r\n0123456789\r\n0\r\nx-trailer: 1\r\n\r\n").unwrap();
        assert_eq!(body, b"0123456789");
        assert!(ends.is_empty());
    }

    #[test]
    fn chunked_errors_are_reported() {
        assert!(decode(b"4\r\nab").is_err(), "truncated chunk");
        assert!(decode(b"zz\r\n").is_err(), "bad size");
        assert!(decode(b"2\r\nabXX0\r\n\r\n").is_err(), "missing CRLF");
        assert!(decode(b"2\r\nab\r\n").is_err(), "no terminal chunk");
    }

    /// Serves `script` on one listener: each item answers one request
    /// on the current connection; `None` closes the connection (without
    /// answering) and accepts the next one.
    fn serve(script: Vec<Option<&'static str>>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for step in script {
                let Some(response) = step else {
                    drop(reader);
                    drop(stream);
                    let (next, _) = listener.accept().unwrap();
                    stream = next;
                    reader = BufReader::new(stream.try_clone().unwrap());
                    continue;
                };
                let mut line = String::new();
                let mut length = 0;
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if let Some(v) = line.strip_prefix("content-length: ") {
                        length = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                stream.write_all(response.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    const OK_KEEP: &str =
        "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\nok";
    const OK_CLOSE: &str = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok";

    #[test]
    fn keep_alive_reuses_and_close_is_honoured() {
        let (addr, server) = serve(vec![Some(OK_KEEP), Some(OK_CLOSE), None, Some(OK_KEEP)]);
        let mut client = Client::new(addr);
        for _ in 0..3 {
            let reply = client.send("POST", "/x", b"{}").unwrap();
            assert_eq!((reply.status, reply.body.as_slice()), (200, &b"ok"[..]));
        }
        assert_eq!(client.connections, 2, "reconnects only after `close`");
        server.join().unwrap();
    }

    #[test]
    fn unannounced_drop_fails_the_request_then_reconnects() {
        // The server answers two requests keep-alive, then drops the
        // connection without saying so.
        let (addr, server) = serve(vec![Some(OK_KEEP), Some(OK_KEEP), None, Some(OK_KEEP)]);
        let mut client = Client::new(addr);
        assert!(client.send("GET", "/a", b"").is_ok());
        assert!(client.send("GET", "/b", b"").is_ok());
        assert!(client.send("GET", "/c", b"").is_err(), "never retried away");
        assert!(client.send("GET", "/d", b"").is_ok());
        assert_eq!(client.connections, 2);
        server.join().unwrap();
    }

    #[test]
    fn request_cap_closes_before_the_server_drops() {
        // The same server, met by a client that closes each connection
        // after two answers: the drop is never reached.
        let (addr, server) = serve(vec![Some(OK_KEEP), Some(OK_KEEP), None, Some(OK_KEEP)]);
        let mut client = Client::new(addr).with_max_requests(2);
        assert!(client.send("GET", "/a", b"").is_ok());
        assert!(client.send("GET", "/b", b"").is_ok());
        assert!(
            client.send("GET", "/c", b"").is_ok(),
            "sent on a new connection"
        );
        assert_eq!(client.connections, 2);
        server.join().unwrap();
    }

    #[test]
    fn streamed_lines_are_timestamped() {
        let chunked = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n\
                       3\r\nab\n\r\n3\r\ncd\n\r\n0\r\n\r\n";
        let (addr, server) = serve(vec![Some(chunked)]);
        let mut client = Client::new(addr);
        let reply = client.send("POST", "/s", b"[]").unwrap();
        let lines: Vec<&[u8]> = reply.timed_lines().map(|(_, l)| l).collect();
        assert_eq!(lines, [&b"ab"[..], &b"cd"[..]]);
        assert!(reply.sent <= reply.first_byte && reply.first_byte <= reply.done);
        server.join().unwrap();
    }
}
