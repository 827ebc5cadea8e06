//! The benchmark's HTTP client: one real `TcpStream` per request, as the
//! service answers every request with `Connection: close`.

use crate::trace::Tracer;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Connections this process opened as a client; a serve workload checks
/// it against the requests it issued, so a request cannot be answered
/// without crossing TCP.
pub static CONNECTS: AtomicU64 = AtomicU64::new(0);

const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// `GET target` against `addr`, with spans around connect, send and the
/// wait for the whole response.
pub fn get(addr: SocketAddr, target: &str, tr: &mut Tracer) -> io::Result<Reply> {
    let (stream, _) = tr.span("http.connect", |_| {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        io::Result::Ok(stream)
    });
    let mut stream = stream?;
    CONNECTS.fetch_add(1, Ordering::Relaxed);
    let (sent, _) = tr.span("http.send", |_| {
        let request =
            format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nX-Ariadne-Tenant: benchmark\r\n\r\n");
        stream.write_all(request.as_bytes())
    });
    sent?;
    let mut raw = Vec::with_capacity(8 << 10);
    let (read, _) = tr.span("http.recv", |_| stream.read_to_end(&mut raw));
    tr.span("http.close", |_| drop(stream));
    read?;
    let (reply, _) = tr.span("http.parse", |_| parse_reply(raw));
    reply.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))
}

fn parse_reply(raw: Vec<u8>) -> Option<Reply> {
    let head_len = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&raw[..head_len]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let declared: Option<usize> = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    });
    // A body cut short by a dropped connection must not pass for a reply.
    if declared.is_some_and(|n| n != raw.len() - head_len) {
        return None;
    }
    let mut body = raw;
    body.drain(..head_len);
    Some(Reply {
        status,
        body: String::from_utf8(body).ok()?,
    })
}

/// Percent-encodes everything outside the unreserved set.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_and_truncation_is_caught() {
        let ok = parse_reply(
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n".to_vec(),
        )
        .unwrap();
        assert_eq!((ok.status, ok.body.as_str()), (200, "ok\n"));
        assert!(
            parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 30\r\n\r\nok\n".to_vec()).is_none()
        );
        assert!(parse_reply(b"garbage".to_vec()).is_none());
        assert_eq!(
            parse_reply(b"HTTP/1.1 429 Too Many\r\n\r\n".to_vec())
                .unwrap()
                .status,
            429
        );
    }

    #[test]
    fn encoding_round_trips_through_the_servers_decoder() {
        let pql = "back_trace(x, i) :- superstep(x, i), i = $sigma.\n";
        let enc = url_encode(pql);
        assert!(enc
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"-_.~%".contains(&b)));
        assert_eq!(ariadne_obs::percent_decode(&enc), pql);
    }
}
