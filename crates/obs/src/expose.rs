//! Prometheus text exposition: rendering, a plain-TCP scrape listener,
//! a push path for short-lived processes, and a parser for the text
//! format (used by `geoproof stats` and the e2e tests).
//!
//! The listener speaks just enough HTTP/1.0 for a scraper:
//!
//! * `GET /metrics` → `200` with the global registry rendered in the
//!   text exposition format (version 0.0.4);
//! * `POST /ingest` → applies newline-separated deltas to the global
//!   registry — `counter <name> <delta>`, `gauge <name> <value>`,
//!   `observe <name> <value>` — and answers `ok <applied>`. This is
//!   the pushgateway idiom for one-shot jobs: the `audit` CLI lives
//!   for a single verdict, so it reports that verdict into the
//!   long-lived server's registry instead of hosting its own scrape
//!   target. Ingest input is untrusted: malformed lines, invalid
//!   names, and type conflicts are skipped (never panicking the
//!   listener), pushes may only create new series while the registry
//!   is under [`INGEST_MAX_SERIES`] total, and bodies over
//!   [`MAX_INGEST_BODY`] bytes are rejected whole with `413` rather
//!   than truncated;
//! * anything else → `404`.
//!
//! Histograms render cumulatively with inclusive-upper-edge `le`
//! labels over the non-empty log-linear buckets, a `+Inf` bucket, and
//! `_sum`/`_count` series — standard enough for Prometheus, Grafana
//! agent, or `curl` to consume.

use crate::registry::{global, Registry, Snapshot};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest `POST /ingest` body accepted; bigger pushes get a `413`
/// instead of a silently truncated apply.
pub const MAX_INGEST_BODY: usize = 1 << 20;

/// Once the global registry holds this many series, ingest lines may
/// only touch names that already exist — an unauthenticated remote
/// peer must not be able to grow the process's memory without bound,
/// one permanent registry entry per invented name.
pub const INGEST_MAX_SERIES: u64 = 4096;

/// Renders a registry snapshot in the Prometheus text format. Families
/// get one `# TYPE` line; label variants of a family group under it.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    let mut typed = |out: &mut String, family: &str, kind: &str| {
        if family != last_family {
            out.push_str("# TYPE ");
            out.push_str(family);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_family = family.to_owned();
        }
    };
    for (name, value) in &snapshot.counters {
        typed(&mut out, family_of(name), "counter");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (name, value) in &snapshot.gauges {
        typed(&mut out, family_of(name), "gauge");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (name, h) in &snapshot.histograms {
        let family = family_of(name);
        typed(&mut out, family, "histogram");
        let labels = labels_of(name);
        let with_le = |le: &str| -> String {
            if labels.is_empty() {
                format!("{family}_bucket{{le=\"{le}\"}}")
            } else {
                format!("{family}_bucket{{{labels},le=\"{le}\"}}")
            }
        };
        let mut cumulative = 0u64;
        for &(upper, n) in &h.buckets {
            cumulative += n;
            out.push_str(&with_le(&upper.to_string()));
            out.push(' ');
            out.push_str(&cumulative.to_string());
            out.push('\n');
        }
        out.push_str(&with_le("+Inf"));
        out.push(' ');
        out.push_str(&h.count.to_string());
        out.push('\n');
        let suffixed = |suffix: &str| -> String {
            if labels.is_empty() {
                format!("{family}_{suffix}")
            } else {
                format!("{family}_{suffix}{{{labels}}}")
            }
        };
        out.push_str(&format!("{} {}\n", suffixed("sum"), h.sum));
        out.push_str(&format!("{} {}\n", suffixed("count"), h.count));
    }
    out
}

fn family_of(name: &str) -> &str {
    &name[..name.find('{').unwrap_or(name.len())]
}

fn labels_of(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[i + 1..name.len() - 1],
        None => "",
    }
}

/// A scrape listener on a plain TCP socket, serving the **global**
/// registry. Accepts on a background thread; each request is answered
/// inline (scrapes are rare and small — no connection pool needed).
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving. Also flips [`crate::set_enabled`] on: a process
    /// that exposes metrics wants them recorded.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: &str) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        crate::set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Inline: a scrape is one small request/response.
                        let _ = handle_request(stream);
                    }
                    // Nothing pending, or a failure such as EMFILE (which
                    // Linux reports even with an empty backlog while the
                    // process is out of fds): back off and retry. Leaving
                    // the loop would strand a dead listener.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        Ok(ScrapeServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the listener thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_request(stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    // Headers: only Content-Length matters (for the ingest body).
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0);
        }
    }
    let mut stream = stream;
    match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => {
            let body = global().snapshot().render_prometheus();
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        ("POST", "/ingest") => {
            if content_length > MAX_INGEST_BODY {
                // Drain (bounded; the read timeout caps a trickling
                // client) so the peer can read the rejection instead
                // of dying on a connection reset mid-write.
                let drain = content_length.min(8 * MAX_INGEST_BODY) as u64;
                let _ = std::io::copy(&mut (&mut reader).take(drain), &mut std::io::sink());
                return respond(
                    &mut stream,
                    "413 Payload Too Large",
                    "text/plain; charset=utf-8",
                    &format!("ingest body of {content_length} bytes exceeds {MAX_INGEST_BODY}\n"),
                );
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let applied = apply_ingest(&String::from_utf8_lossy(&body));
            respond(
                &mut stream,
                "200 OK",
                "text/plain; charset=utf-8",
                &format!("ok {applied}\n"),
            )
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "only GET /metrics and POST /ingest live here\n",
        ),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Applies a pushed ingest body to the global registry; returns the
/// number of lines applied. The body is untrusted remote input, and a
/// telemetry push must never take the server down: unknown verbs,
/// malformed lines, invalid metric names, and type conflicts are all
/// skipped via the fallible `try_*` registry API (no panics), and new
/// series stop being created once the registry reaches
/// [`INGEST_MAX_SERIES`].
fn apply_ingest(body: &str) -> usize {
    apply_ingest_to(global(), body)
}

fn apply_ingest_to(registry: &Registry, body: &str) -> usize {
    let mut applied = 0usize;
    for line in body.lines() {
        let mut parts = line.split_whitespace();
        let (Some(verb), Some(name), Some(value)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if registry.serial() >= INGEST_MAX_SERIES && !registry.contains(name) {
            continue;
        }
        let ok = match verb {
            "counter" => match (value.parse::<u64>(), registry.try_counter(name)) {
                (Ok(v), Ok(c)) => {
                    c.add(v);
                    true
                }
                _ => false,
            },
            "gauge" => match (value.parse::<i64>(), registry.try_gauge(name)) {
                (Ok(v), Ok(g)) => {
                    g.set(v);
                    true
                }
                _ => false,
            },
            "observe" => match (value.parse::<u64>(), registry.try_histogram(name)) {
                (Ok(v), Ok(h)) => {
                    h.record(v);
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if ok {
            applied += 1;
        }
    }
    applied
}

/// Fetches `GET /metrics` from a scrape listener and returns the body.
///
/// # Errors
///
/// Propagates socket errors; non-200 responses become
/// [`std::io::ErrorKind::InvalidData`].
pub fn scrape(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let (_status, body) = http_roundtrip(addr, "GET /metrics HTTP/1.0\r\n\r\n", true)?;
    Ok(body)
}

/// Pushes an ingest body (see [`crate::expose`] module docs for the
/// line grammar) to a scrape listener.
///
/// # Errors
///
/// As [`scrape`].
pub fn push(addr: impl ToSocketAddrs, body: &str) -> std::io::Result<()> {
    let request = format!(
        "POST /ingest HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    http_roundtrip(addr, &request, true).map(|_| ())
}

/// Issues a bare `GET <path>` against a scrape listener, returning the
/// status line and body without insisting on a 200 — lets tests and
/// probes inspect error handling.
///
/// # Errors
///
/// Propagates socket errors.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(String, String)> {
    http_roundtrip(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"), false)
}

fn http_roundtrip(
    addr: impl ToSocketAddrs,
    request: &str,
    require_ok: bool,
) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP header"))?;
    let status = head.lines().next().unwrap_or("").to_owned();
    if require_ok && !status.contains("200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("scrape endpoint answered: {status}"),
        ));
    }
    Ok((status, body.to_owned()))
}

// --- text-format parsing ----------------------------------------------------

/// A parsed text exposition: enough structure for `geoproof stats` and
/// tests to assert on counters and estimate histogram quantiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TextMetrics {
    /// `(full series name with labels, value)` for counters and gauges,
    /// sorted by name.
    pub samples: Vec<(String, f64)>,
    /// Parsed histograms keyed by `family{labels}`.
    pub histograms: Vec<(String, TextHistogram)>,
}

/// One histogram reconstructed from `_bucket`/`_sum`/`_count` series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TextHistogram {
    /// `(upper edge, cumulative count)`, ascending, excluding `+Inf`.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations (the `+Inf` bucket / `_count`).
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl TextHistogram {
    /// Quantile estimate from cumulative buckets (upper-edge rule, as
    /// [`crate::HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil()).max(1.0) as u64;
        for &(upper, cumulative) in &self.buckets {
            if cumulative >= target {
                return upper;
            }
        }
        self.buckets.last().map_or(0.0, |&(upper, _)| upper)
    }
}

impl TextMetrics {
    /// Parses a text exposition body. Unknown lines are ignored.
    pub fn parse(text: &str) -> TextMetrics {
        let mut samples = Vec::new();
        let mut histograms: Vec<(String, TextHistogram)> = Vec::new();
        fn hist_entry(
            histograms: &mut Vec<(String, TextHistogram)>,
            key: String,
        ) -> &mut TextHistogram {
            if let Some(i) = histograms.iter().position(|(k, _)| *k == key) {
                &mut histograms[i].1
            } else {
                histograms.push((key, TextHistogram::default()));
                &mut histograms.last_mut().expect("just pushed").1
            }
        }
        fn find_hist<'a>(
            histograms: &'a mut [(String, TextHistogram)],
            key: &str,
        ) -> Option<&'a mut TextHistogram> {
            histograms
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, h)| h)
        }
        let series_values: Vec<(&str, f64)> = text
            .lines()
            .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                Some((series, value.parse::<f64>().ok()?))
            })
            .collect();
        // Pass 1: `_bucket` series decide which families are
        // histograms — nothing else creates one.
        for &(series, value) in &series_values {
            if let Some((key, le)) = split_bucket(series) {
                let h = hist_entry(&mut histograms, key);
                if le == "+Inf" {
                    h.count = value as u64;
                } else if let Ok(le) = le.parse::<f64>() {
                    h.buckets.push((le, value as u64));
                }
            }
        }
        // Pass 2: `_sum`/`_count` fold into histograms seen above;
        // anything else — including a counter or gauge that merely
        // ends in `_count` — stays a plain sample.
        for &(series, value) in &series_values {
            if split_bucket(series).is_some() {
                continue;
            }
            if let Some(h) = strip_histogram_suffix(series, "_sum")
                .and_then(|key| find_hist(&mut histograms, &key))
            {
                h.sum = value;
            } else if let Some(h) = strip_histogram_suffix(series, "_count")
                .and_then(|key| find_hist(&mut histograms, &key))
            {
                h.count = value as u64;
            } else {
                samples.push((series.to_owned(), value));
            }
        }
        samples.sort_by(|a, b| a.0.cmp(&b.0));
        for (_, h) in &mut histograms {
            h.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        TextMetrics {
            samples,
            histograms,
        }
    }

    /// The value of the series named exactly `name` (labels included).
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The reconstructed histogram keyed `family{labels}` (or bare
    /// family).
    pub fn histogram(&self, key: &str) -> Option<&TextHistogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, h)| h)
    }

    /// Sums every series in `family` across label variants.
    pub fn family_total(&self, family: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(n, _)| {
                n == family || (n.starts_with(family) && n[family.len()..].starts_with('{'))
            })
            .map(|&(_, v)| v)
            .sum()
    }
}

/// Splits `family_bucket{…,le="X"}` into the histogram key
/// (`family` or `family{other labels}`) and the `le` edge.
fn split_bucket(series: &str) -> Option<(String, String)> {
    let brace = series.find('{')?;
    let family = series[..brace].strip_suffix("_bucket")?;
    let labels = &series[brace + 1..series.len().checked_sub(1)?];
    let mut le = None;
    let mut rest = Vec::new();
    for pair in split_label_pairs(labels) {
        match pair.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
            Some(v) => le = Some(v.to_owned()),
            None => rest.push(pair),
        }
    }
    let key = if rest.is_empty() {
        family.to_owned()
    } else {
        format!("{family}{{{}}}", rest.join(","))
    };
    Some((key, le?))
}

/// Splits `family_sum` / `family_sum{labels}` into the histogram key —
/// only when the family was seen as a histogram is the result used.
fn strip_histogram_suffix(series: &str, suffix: &str) -> Option<String> {
    match series.find('{') {
        Some(brace) => {
            let family = series[..brace].strip_suffix(suffix)?;
            Some(format!("{family}{}", &series[brace..]))
        }
        None => series.strip_suffix(suffix).map(str::to_owned),
    }
}

/// Splits rendered label pairs on commas outside quotes.
fn split_label_pairs(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth_quote = false;
    let mut start = 0usize;
    for (i, c) in labels.char_indices() {
        match c {
            '"' => depth_quote = !depth_quote,
            ',' if !depth_quote => {
                out.push(&labels[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < labels.len() {
        out.push(&labels[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_series_split() {
        let (key, le) = split_bucket("lat_us_bucket{le=\"17\"}").unwrap();
        assert_eq!(key, "lat_us");
        assert_eq!(le, "17");
        let (key, le) = split_bucket("lat_us_bucket{file=\"a,b\",le=\"+Inf\"}").unwrap();
        assert_eq!(key, "lat_us{file=\"a,b\"}");
        assert_eq!(le, "+Inf");
        assert!(split_bucket("plain_counter_total").is_none());
    }

    #[test]
    fn sum_count_suffixes_without_buckets_stay_samples() {
        let text = "# TYPE foo_count counter\nfoo_count 3\nfoo_sum 1.5\n";
        let parsed = TextMetrics::parse(text);
        assert_eq!(parsed.value("foo_count"), Some(3.0));
        assert_eq!(parsed.value("foo_sum"), Some(1.5));
        assert!(
            parsed.histograms.is_empty(),
            "no bucket series, no histogram"
        );
    }

    #[test]
    fn hostile_ingest_lines_are_skipped_not_fatal() {
        crate::set_enabled(true);
        let r = Registry::new();
        let body = "counter ok_total 2\n\
                    counter bad-name! 1\n\
                    counter ok{unclosed 1\n\
                    gauge ok_total 5\n\
                    bogus ok_total 1\n\
                    counter ok_total nope\n";
        assert_eq!(apply_ingest_to(&r, body), 1);
        assert_eq!(r.snapshot().counter("ok_total"), Some(2));
        assert_eq!(r.serial(), 1, "rejected lines register nothing");
    }

    #[test]
    fn ingest_stops_creating_series_at_the_cap() {
        crate::set_enabled(true);
        let r = Registry::new();
        for i in 0..INGEST_MAX_SERIES {
            let _ = r.counter(&format!("flood_{i}_total"));
        }
        // New names are refused once the registry is at the cap…
        assert_eq!(apply_ingest_to(&r, "counter invented_total 1"), 0);
        assert!(!r.contains("invented_total"));
        // …but existing series still take updates.
        assert_eq!(apply_ingest_to(&r, "counter flood_7_total 3"), 1);
        assert_eq!(r.snapshot().counter("flood_7_total"), Some(3));
    }

    #[test]
    fn parse_roundtrips_a_rendered_snapshot() {
        let r = crate::Registry::new();
        crate::set_enabled(true);
        r.counter("a_total").add(3);
        r.counter("v_total{outcome=\"accept\"}").add(2);
        r.gauge("depth").set(-4);
        let h = r.histogram("lat_us");
        for v in [1u64, 1, 17, 900] {
            h.record(v);
        }
        let text = r.snapshot().render_prometheus();
        let parsed = TextMetrics::parse(&text);
        assert_eq!(parsed.value("a_total"), Some(3.0));
        assert_eq!(parsed.value("v_total{outcome=\"accept\"}"), Some(2.0));
        assert_eq!(parsed.value("depth"), Some(-4.0));
        let h = parsed.histogram("lat_us").expect("histogram parsed");
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 919.0);
        assert_eq!(h.quantile(0.5) as u64, 1);
        assert!(h.quantile(0.99) >= 900.0);
    }
}
