//! Wire protocol: line-delimited JSON over TCP, std-only.
//!
//! Each client connection is one thread reading newline-terminated JSON
//! requests and writing one JSON response line per request. Requests name
//! an operation in `"cmd"` and carry its arguments inline:
//!
//! ```json
//! {"cmd":"create_tenant","name":"t0","workers":8,"seed":1,"system":"SMapReduce"}
//! {"cmd":"submit_job","tenant":0,"bench":"grep","input_mb":2048,"num_reduces":4}
//! {"cmd":"inject_fault","tenant":0,"node":3,"after_ms":60000,"downtime_ms":30000}
//! {"cmd":"pause","tenant":0}            {"cmd":"resume","tenant":0}
//! {"cmd":"snapshot","tenant":0,"dir":"results/capsules"}
//! {"cmd":"observe","tenant":0}          {"cmd":"stats"}
//! {"cmd":"tenants"}                     {"cmd":"shutdown"}
//! ```
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"error":"..."}`.
//! `create_tenant` refuses a `"workers"` count outside
//! 1..=[`MAX_TENANT_WORKERS`](crate::service::MAX_TENANT_WORKERS) (1024,
//! the largest cluster any target or benchmark runs) with an error reply.
//! Mutating commands go through the ingress queue (the caller blocks
//! until the tick boundary applies them); `observe`/`stats`/`tenants`
//! read the egress pool directly and never touch the tick thread.

use crate::ingress::{Command, Reply, TenantId};
use crate::service::ServiceHandle;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Serve `handle` on `addr` (e.g. `"127.0.0.1:7700"`) until a client
/// sends `shutdown` or `stop` is raised. Returns the bound address (port
/// 0 resolves to a real port) via the callback before blocking.
pub fn serve(
    handle: ServiceHandle,
    addr: &str,
    stop: Arc<AtomicBool>,
    mut on_bound: impl FnMut(std::net::SocketAddr),
) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    on_bound(bound);
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let handle = handle.clone();
                let stop = stop.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name("realtime-conn".into())
                        .spawn(move || serve_connection(stream, handle, stop))
                        .map_err(|e| e.to_string())?,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

fn serve_connection(stream: TcpStream, handle: ServiceHandle, stop: Arc<AtomicBool>) {
    let Ok(peer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // connection closed
            Ok(_) => {}
            Err(_) => break,
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = match serde_json::parse_value(&line) {
            Ok(req) => dispatch(&req, &handle, &stop),
            Err(e) => err(format!("bad request: {e}")),
        };
        let mut out = serde_json::to_string(&response)
            .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"encode: {e}\"}}"));
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
    }
}

fn dispatch(req: &Value, handle: &ServiceHandle, stop: &Arc<AtomicBool>) -> Value {
    let cmd = match req.get("cmd").and_then(Value::as_str) {
        Some(c) => c,
        None => return err("missing \"cmd\""),
    };
    match cmd {
        "create_tenant" => {
            let name = str_field(req, "name").unwrap_or("tenant");
            // a count too wide for usize saturates, so the service refuses it
            let workers =
                u64_field(req, "workers").map_or(8, |w| usize::try_from(w).unwrap_or(usize::MAX));
            let seed = u64_field(req, "seed").unwrap_or(1);
            let system = str_field(req, "system").unwrap_or("SMapReduce");
            reply_json(handle.send(Command::CreateTenant {
                name: name.to_string(),
                workers,
                seed,
                system: system.to_string(),
            }))
        }
        "submit_job" => {
            let Some(tenant) = tenant_field(req) else {
                return missing("tenant");
            };
            let bench = str_field(req, "bench").unwrap_or("grep");
            let input_mb = f64_field(req, "input_mb").unwrap_or(1024.0);
            let num_reduces = u64_field(req, "num_reduces").unwrap_or(4) as usize;
            reply_json(handle.send(Command::SubmitJob {
                tenant,
                bench: bench.to_string(),
                input_mb,
                num_reduces,
            }))
        }
        "inject_fault" => {
            let Some(tenant) = tenant_field(req) else {
                return missing("tenant");
            };
            let Some(node) = u64_field(req, "node") else {
                return missing("node");
            };
            let Some(after_ms) = u64_field(req, "after_ms") else {
                return missing("after_ms");
            };
            reply_json(handle.send(Command::InjectFault {
                tenant,
                node: node as usize,
                after_ms,
                downtime_ms: u64_field(req, "downtime_ms"),
            }))
        }
        "pause" => match tenant_field(req) {
            Some(tenant) => reply_json(handle.send(Command::Pause { tenant })),
            None => missing("tenant"),
        },
        "resume" => match tenant_field(req) {
            Some(tenant) => reply_json(handle.send(Command::Resume { tenant })),
            None => missing("tenant"),
        },
        "snapshot" => {
            let Some(tenant) = tenant_field(req) else {
                return missing("tenant");
            };
            let Some(dir) = str_field(req, "dir") else {
                return missing("dir");
            };
            reply_json(handle.send(Command::Snapshot {
                tenant,
                dir: dir.to_string(),
            }))
        }
        "observe" => {
            let Some(tenant) = tenant_field(req) else {
                return missing("tenant");
            };
            match handle.frame(tenant) {
                Some(frame) => match serde_json::to_value(&*frame) {
                    Ok(v) => ok_with("frame", v),
                    Err(e) => err(e.to_string()),
                },
                None => err(format!("no tenant {tenant}")),
            }
        }
        "stats" => match serde_json::to_value(handle.stats()) {
            Ok(v) => ok_with("stats", v),
            Err(e) => err(e.to_string()),
        },
        "tenants" => ok_with("tenants", Value::U64(handle.stats().tenants as u64)),
        "shutdown" => {
            stop.store(true, Ordering::Release);
            reply_json(handle.send(Command::Shutdown))
        }
        other => err(format!("unknown cmd {other:?}")),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn ok_with(key: &str, v: Value) -> Value {
    obj(vec![("ok", Value::Bool(true)), (key, v)])
}

fn err(msg: impl Into<String>) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::String(msg.into())),
    ])
}

fn reply_json(result: Result<Reply, String>) -> Value {
    match result {
        Ok(reply) => match serde_json::to_value(&reply) {
            Ok(v) => ok_with("reply", v),
            Err(e) => err(e.to_string()),
        },
        Err(e) => err(e),
    }
}

fn missing(field: &str) -> Value {
    err(format!("missing {field:?}"))
}

fn str_field<'a>(req: &'a Value, key: &str) -> Option<&'a str> {
    req.get(key).and_then(Value::as_str)
}

fn u64_field(req: &Value, key: &str) -> Option<u64> {
    req.get(key).and_then(Value::as_u64)
}

fn f64_field(req: &Value, key: &str) -> Option<f64> {
    req.get(key).and_then(Value::as_f64)
}

fn tenant_field(req: &Value) -> Option<TenantId> {
    u64_field(req, "tenant").map(|t| t as TenantId)
}
