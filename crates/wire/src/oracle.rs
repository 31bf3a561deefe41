//! Thread-per-connection driver of the prover protocol — a test oracle,
//! not a product server.

use crate::codec::write_frame;
use crate::mux::{FrameOutcome, MuxService};
use crate::tcp::{IdleFrameReader, Polled, SegmentStore};
use geoproof_storage::dynamic::DynamicRegistry;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Serves the same `MuxService` as [`crate::MuxProverServer`], but with
/// one OS thread per connection, blocking reads and a `thread::sleep`
/// for the service delay.
///
/// It exists only as the oracle for `tests/reactor_differential.rs`
/// (byte-identical replies, identical seeded audit verdicts) and for
/// the `audit_service` bench's reactor ≥ threaded gate. Nothing else
/// should use it.
#[doc(hidden)]
pub struct ThreadedOracle {
    addr: SocketAddr,
    service: Arc<MuxService>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ThreadedOracle {
    /// Binds an ephemeral localhost port and serves `store`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn spawn(store: SegmentStore, service_delay: Duration) -> std::io::Result<ThreadedOracle> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(MuxService::new(store));
        let (accept_service, accept_stop) = (service.clone(), stop.clone());
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            // Blocking accept; `shutdown` unblocks it with a self-connect.
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_id = accept_service.open();
                let (service, stop) = (accept_service.clone(), accept_stop.clone());
                conns.push(std::thread::spawn(move || {
                    let _ = serve(stream, conn_id, &service, service_delay, &stop);
                    service.close(conn_id);
                }));
            }
            for conn in conns {
                let _ = conn.join();
            }
        });
        Ok(ThreadedOracle {
            addr,
            service,
            stop,
            accept: Some(accept),
        })
    }

    /// The oracle's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dynamic-file registry the oracle serves.
    pub fn dynamic(&self) -> DynamicRegistry {
        self.service.dynamic()
    }

    /// Stops accepting and joins every connection thread (each notices
    /// the stop flag within one read timeout).
    pub fn shutdown(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
    }
}

impl Drop for ThreadedOracle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(
    stream: TcpStream,
    conn_id: u64,
    service: &MuxService,
    service_delay: Duration,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = stream;
    let mut frames = IdleFrameReader::new();
    while !stop.load(Ordering::Relaxed) {
        let msg = match frames.poll(&mut reader, stop, &mut false) {
            Ok(Polled::Frame(m)) => m,
            Ok(Polled::Idle) => continue,
            Ok(Polled::Closed) | Err(_) => return Ok(()),
        };
        if !service_delay.is_zero() && MuxService::delayed(&msg) {
            std::thread::sleep(service_delay);
        }
        match service.handle(conn_id, msg) {
            FrameOutcome::Reply(reply) => write_frame(&mut writer, &reply)?,
            FrameOutcome::Silent => {}
            FrameOutcome::Close => return Ok(()),
        }
    }
    Ok(())
}
