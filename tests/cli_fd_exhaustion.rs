//! `geoproof serve` under file-descriptor exhaustion: connections that
//! queue in the listen backlog while the process is out of fds must be
//! accepted once fds free up, without waiting for an unrelated new
//! connect (the listener is edge-triggered, so freed fds raise no event
//! on it by themselves).

use geoproof::obs::expose::scrape;
use geoproof::wire::codec::{read_frame, write_frame, WireMessage};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_geoproof");
const FID: &str = "fd-exhaustion";

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-cli-fd-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

/// The server child, killed on drop.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

#[test]
fn serve_drains_its_backlog_after_fd_exhaustion_without_a_new_connect() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let dir = tmpdir();
    let input = dir.join("input.bin");
    std::fs::write(&input, vec![7u8; 4000]).expect("write input");
    let store = dir.join("store");
    let encoded = Command::new(BIN)
        .args(["encode", input.to_str().unwrap(), store.to_str().unwrap()])
        .args(["--fid", FID, "--master", "fd-master"])
        .output()
        .expect("spawn encode");
    assert!(encoded.status.success(), "encode failed: {encoded:?}");

    // 48 descriptors: a handful for stdio, epoll, waker and the two
    // listeners, roughly 40 for connections.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 48 && exec "$0" serve "$1" --metrics-addr 127.0.0.1:0"#)
        .arg(BIN)
        .arg(&store)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let server = Serve(child);
    let mut lines = BufReader::new(stdout).lines();
    let mut banner = || {
        let line = lines.next().expect("banner line").expect("read banner");
        line.split(" on ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner: {line}"))
            .to_owned()
    };
    let metrics_addr = banner();
    let addr = banner();

    // 80 connects: the kernel completes every handshake into the listen
    // backlog, the server runs out of fds about halfway through.
    let mut conns: Vec<TcpStream> = (0..80)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    // Free the server's fds, then make no new connect: only the server's
    // own retry can reach the 40 or so still queued.
    let remaining = conns.split_off(40);
    drop(conns);

    let challenge = WireMessage::Challenge {
        file_id: FID.to_owned(),
        index: 0,
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut unanswered = Vec::new();
    for (i, conn) in remaining.iter().enumerate() {
        let mut conn = conn;
        write_frame(&mut conn, &challenge).expect("send challenge");
        let left = deadline.saturating_duration_since(Instant::now());
        conn.set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .unwrap();
        match read_frame(&mut conn) {
            Ok(WireMessage::Response { segment: Some(_) }) => {}
            _ => unanswered.push(i + 40),
        }
    }
    assert!(
        unanswered.is_empty(),
        "{} of {} queued connections got no Response within 2 s (connects #{unanswered:?})",
        unanswered.len(),
        remaining.len()
    );

    // The exhaustion was counted, and the scrape listener (which also
    // saw EMFILE from its own accept loop) survived it. The scrape needs
    // an fd of its own, so close the clients first.
    drop(remaining);
    let mut body = String::new();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        if let Ok(b) = scrape(&metrics_addr) {
            body = b;
            break;
        }
    }
    let fd_limit = body
        .lines()
        .find_map(|l| l.strip_prefix("reactor_accept_errors_total{reason=\"fd_limit\"} "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        fd_limit > 0,
        "fd exhaustion was not counted; scrape:\n{body}"
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
