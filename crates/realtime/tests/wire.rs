//! End-to-end smoke of the NDJSON wire protocol over a real TCP socket.
//!
//! Skips (cleanly, with a message) when the sandbox forbids binding
//! loopback sockets — the protocol logic itself is covered by the
//! in-process service tests either way.

use realtime::{RealtimeService, ServiceConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn can_bind_loopback() -> bool {
    TcpListener::bind("127.0.0.1:0").is_ok()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to service");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn call(&mut self, request: &str) -> Value {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        serde_json::parse_value(&line).expect("parse response")
    }

    fn call_ok(&mut self, request: &str) -> Value {
        let resp = self.call(request);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "request {request} failed: {resp:?}"
        );
        resp
    }
}

#[test]
fn ndjson_protocol_end_to_end() {
    if !can_bind_loopback() {
        eprintln!("skipping: cannot bind 127.0.0.1 in this environment");
        return;
    }
    let handle = RealtimeService::spawn(ServiceConfig {
        tick_interval: Duration::from_millis(2),
        dilation: 2000.0,
        ..ServiceConfig::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let (addr_tx, addr_rx) = mpsc::channel();
    let server_handle = handle.clone();
    let server_stop = stop.clone();
    let server = std::thread::spawn(move || {
        realtime::wire::serve(server_handle, "127.0.0.1:0", server_stop, |addr| {
            addr_tx.send(addr).unwrap();
        })
    });
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server bound");

    let mut c = Client::connect(addr);
    // create 4 tenants across the system mix and submit jobs
    for (i, system) in ["HadoopV1", "YARN", "SMapReduce", "SMapReduce-hetero"]
        .iter()
        .enumerate()
    {
        let resp = c.call_ok(&format!(
            r#"{{"cmd":"create_tenant","name":"t{i}","workers":8,"seed":{},"system":"{system}"}}"#,
            20 + i
        ));
        let tenant = resp
            .get("reply")
            .and_then(|r| r.get("TenantCreated"))
            .and_then(|r| r.get("tenant"))
            .and_then(Value::as_u64)
            .expect("tenant id in reply");
        assert_eq!(tenant, i as u64);
        c.call_ok(&format!(
            r#"{{"cmd":"submit_job","tenant":{i},"bench":"grep","input_mb":512,"num_reduces":2}}"#
        ));
    }
    // errors come back as ok:false without dropping the connection
    let bad =
        c.call(r#"{"cmd":"submit_job","tenant":99,"bench":"grep","input_mb":1,"num_reduces":1}"#);
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    // hostile job sizes are refused before anything is laid out
    for hostile in [
        r#"{"cmd":"submit_job","tenant":0,"bench":"grep","input_mb":1e300,"num_reduces":2}"#,
        r#"{"cmd":"submit_job","tenant":0,"bench":"grep","input_mb":512,"num_reduces":1000000000000}"#,
    ] {
        let bad = c.call(hostile);
        assert_eq!(
            bad.get("ok").and_then(Value::as_bool),
            Some(false),
            "{hostile}"
        );
    }
    let bad = c.call(r#"{"cmd":"definitely-not-a-command"}"#);
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    let bad = c.call(r#"{"cmd":"create_tenant","name":"huge","workers":1000000000000}"#);
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    let why = bad.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(why.contains("1..=1024 workers"), "{why}");

    // frames advance: poll tenant 0 until its sim clock moves and its
    // frame checksum verifies
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let resp = c.call_ok(r#"{"cmd":"observe","tenant":0}"#);
        let frame = resp.get("frame").expect("frame payload");
        let at_ms = frame
            .get("obs")
            .and_then(|o| o.get("at_ms"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if at_ms > 0 {
            assert!(frame.get("epoch").and_then(Value::as_u64).unwrap_or(0) > 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tenant 0 never advanced"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = c.call_ok(r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("tenants"))
            .and_then(Value::as_u64),
        Some(4)
    );

    // shutdown over the wire stops both the tick thread and the listener;
    // the in-process handle still collects the summary afterwards
    c.call_ok(r#"{"cmd":"shutdown"}"#);
    server.join().unwrap().expect("server exits cleanly");
    let summary = handle.shutdown().expect("summary after wire shutdown");
    assert_eq!(summary.tenants.len(), 4);
    let script = summary.script.expect("recording was on");
    assert!(script.replay().verified, "wire-driven run must replay");
}
