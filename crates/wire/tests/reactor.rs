//! Event-loop properties of the prover server that its protocol unit
//! tests (`src/tcp.rs`, `src/mux.rs`) do not reach: shutdown with many
//! idle sockets, and the write-backlog cutoff for a peer that never
//! reads.

use bytes::Bytes;
use geoproof_wire::codec::{write_frame, WireMessage};
use geoproof_wire::tcp::SegmentStore;
use geoproof_wire::{MuxProverServer, TcpChallenger};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn store_with(files: &[(&str, usize)]) -> SegmentStore {
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    for &(fid, n) in files {
        store.lock().insert(
            fid.to_owned(),
            (0..n).map(|i| Bytes::from(vec![i as u8; 83])).collect(),
        );
    }
    store
}

/// The whole suite is a no-op on targets without the epoll backend.
fn unsupported(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::Unsupported
}

#[test]
fn reactor_shutdown_returns_promptly_with_idle_connections() {
    let mut server = match MuxProverServer::spawn_reactor(store_with(&[("f", 4)]), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let addr = server.addr();
    let idle: Vec<_> = (0..32)
        .map(|_| TcpChallenger::connect(addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "reactor shutdown must not wait on idle connections"
    );
    drop(idle);
}

#[test]
fn reactor_cuts_off_a_client_that_never_reads_its_responses() {
    // A peer that pipelines challenges while never reading replies
    // grows the server-side write queue; past MAX_WRITE_BACKLOG (1 MiB)
    // the reactor drops the connection instead of buffering without
    // bound: one sink must not stall or bloat the shared loop.
    let store: SegmentStore = Arc::new(Mutex::new(HashMap::new()));
    store.lock().insert(
        "big".to_owned(),
        (0..4)
            .map(|_| Bytes::from(vec![0xabu8; 16 * 1024]))
            .collect(),
    );
    let server = match MuxProverServer::spawn_reactor(store.clone(), Duration::ZERO) {
        Ok(s) => s,
        Err(e) if unsupported(&e) => return,
        Err(e) => panic!("{e}"),
    };
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    // ~16 KiB per response; a few hundred unread responses blow the cap
    // even with generous kernel socket buffering.
    let challenge = WireMessage::Challenge {
        file_id: "big".to_owned(),
        index: 0,
    };
    let mut cut_off = false;
    for _ in 0..2000 {
        if write_frame(&mut raw, &challenge).is_err() {
            cut_off = true; // reset by the server mid-write
            break;
        }
    }
    if !cut_off {
        // Writes may all have landed in kernel buffers; the drop then
        // shows up as EOF/reset on read. Count what arrives: a server
        // that buffered everything would deliver all ~32 MiB of
        // responses, a capped one far less.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = [0u8; 65536];
        let mut received = 0usize;
        use std::io::Read;
        loop {
            match raw.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => received += n,
            }
        }
        cut_off = received < 24 * 1024 * 1024;
    }
    assert!(cut_off, "server never cut off the non-reading client");
    // The loop itself survived: a well-behaved client is still served.
    let mut c = TcpChallenger::connect(server.addr()).unwrap();
    let (seg, _) = c.challenge("big", 1).unwrap();
    assert_eq!(seg.unwrap().len(), 16 * 1024);
    c.bye().unwrap();
}
