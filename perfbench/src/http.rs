//! A minimal HTTP/1.1 keep-alive client for the service workload, and
//! the `/v1/stats` delta arithmetic.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Head plus body bytes as received.
    pub wire_bytes: usize,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One keep-alive connection, reopened whenever the server closes it
/// (the service recycles a connection after a fixed request count).
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    /// Sends one request and reads its response. A request that finds
    /// its kept-alive connection already closed by the server is retried
    /// once on a fresh connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, headers, body) {
            Err(_) if reused => {
                self.stream = None;
                self.try_request(method, path, headers, body)
            }
            result => result,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        let result = reader
            .get_mut()
            .write_all(&request)
            .and_then(|()| read_response(reader));
        match result {
            Ok(response) => {
                if response
                    .header("connection")
                    .is_some_and(|value| value.eq_ignore_ascii_case("close"))
                {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(error) => {
                self.stream = None;
                Err(error)
            }
        }
    }
}

/// Reads one response (status line, headers, `Content-Length` body).
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    let mut wire_bytes = 0;
    let mut read_line = |line: &mut String| -> io::Result<()> {
        line.clear();
        let n = reader.read_line(line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        wire_bytes += n;
        Ok(())
    };
    read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    loop {
        read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }
    let length = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map_or(Ok(0), |(_, value)| value.parse::<usize>())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
        wire_bytes: wire_bytes + length,
    })
}

/// The numeric fields of a `/v1/stats` body (`"key": number` lines).
pub fn parse_stats(body: &str) -> BTreeMap<String, f64> {
    body.lines()
        .filter_map(|line| {
            let (key, value) = line.trim().trim_end_matches(',').split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            let value = value.trim().parse::<f64>().ok()?;
            Some((key.to_owned(), value))
        })
        .collect()
}

/// `after − before` for every counter present in both snapshots.
pub fn stats_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .filter_map(|(key, value)| Some((key.clone(), value - before.get(key)?)))
        .collect()
}

/// `part / (part + rest…)` over a delta, 0 when nothing happened.
pub fn share(delta: &BTreeMap<String, f64>, part: &str, all: &[&str]) -> f64 {
    let total: f64 = all
        .iter()
        .map(|key| delta.get(*key).copied().unwrap_or(0.0))
        .sum();
    if total > 0.0 {
        delta.get(part).copied().unwrap_or(0.0) / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "{\n  \"status\": \"ok\",\n  \"uptime_ms\": 12.500,\n  \
        \"cache_hits\": 10,\n  \"cache_misses\": 4,\n  \"cache_joined\": 0,\n  \
        \"rendered_hits\": 3\n}";
    const AFTER: &str = "{\n  \"status\": \"ok\",\n  \"uptime_ms\": 20012.125,\n  \
        \"cache_hits\": 70,\n  \"cache_misses\": 24,\n  \"cache_joined\": 1,\n  \
        \"rendered_hits\": 3,\n  \"new_counter\": 5\n}";

    #[test]
    fn stats_bodies_parse_to_numbers() {
        let stats = parse_stats(BEFORE);
        assert_eq!(stats.get("cache_hits"), Some(&10.0));
        assert_eq!(stats.get("uptime_ms"), Some(&12.5));
        // Strings are not counters.
        assert!(!stats.contains_key("status"));
    }

    #[test]
    fn deltas_cover_counters_present_in_both() {
        let delta = stats_delta(&parse_stats(BEFORE), &parse_stats(AFTER));
        assert_eq!(delta["cache_hits"], 60.0);
        assert_eq!(delta["cache_misses"], 20.0);
        assert_eq!(delta["rendered_hits"], 0.0);
        assert!(!delta.contains_key("new_counter"));
        let hit_share = share(
            &delta,
            "cache_hits",
            &["cache_hits", "cache_misses", "cache_joined"],
        );
        assert!((hit_share - 60.0 / 81.0).abs() < 1e-12);
        assert_eq!(share(&delta, "rendered_hits", &["rendered_hits"]), 0.0);
    }

    #[test]
    fn responses_parse_with_and_without_bodies() {
        let wire = b"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\nContent-Length: 0\r\n\r\n\
            HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello";
        let mut reader = std::io::Cursor::new(&wire[..]);
        let first = read_response(&mut reader).expect("304 parses");
        assert_eq!((first.status, first.body.len()), (304, 0));
        assert_eq!(first.header("etag"), Some("\"x\""));
        let second = read_response(&mut reader).expect("200 parses");
        assert_eq!(second.text(), "hello");
        assert_eq!(second.header("Connection"), Some("close"));
        assert_eq!(second.wire_bytes, wire.len() - first.wire_bytes);
        assert!(read_response(&mut reader).is_err());
    }
}
