//! `reproduce capsule-bench` — size and speed of the binary capsule
//! format against JSON, measured on the ext-faults representative stream
//! (the heaviest capsule producer: crashes, blacklists, and re-replication
//! state on top of the usual task maps). Written to `BENCH_capsule.json`.
//!
//! Every binary capsule is decoded back and byte-compared against its
//! JSON round-trip, so the size ratio is only reported alongside proof
//! the compact encoding is lossless.

use crate::dashboard;
use crate::runner;
use crate::scale::Scale;
use checkpoint::{CapsuleFormat, SimSnapshot};
use serde::{Deserialize, Serialize};
use simgrid::time::SimDuration;
use std::time::Instant;

/// The benchmark's measurements (the `BENCH_capsule.json` payload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapsuleBench {
    /// Target whose representative run produced the stream.
    pub target: String,
    /// Capsules in the measured stream.
    pub capsules: usize,
    /// Total stream size encoded as JSON (v2 envelope).
    pub json_bytes: u64,
    /// Total stream size encoded as binary (v2 envelope).
    pub binary_bytes: u64,
    /// `json_bytes / binary_bytes` — the acceptance gate asserts ≥ 5.
    pub size_ratio: f64,
    /// Wall milliseconds to encode the whole stream, per format.
    pub json_encode_ms: f64,
    pub binary_encode_ms: f64,
    /// Wall milliseconds to decode the whole stream back, per format.
    pub json_decode_ms: f64,
    pub binary_decode_ms: f64,
    /// JSON time / binary time (> 1 means binary is faster).
    pub encode_speedup: f64,
    pub decode_speedup: f64,
    /// Every binary capsule decoded back to a state whose JSON encoding
    /// is byte-identical to the original's (must be true).
    pub round_trip_exact: bool,
}

/// Encode repetitions per capsule, so quick streams still spend
/// measurable wall time in each codec.
const REPS: u32 = 5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn run_target(target: &str, scale: Scale) -> CapsuleBench {
    let (mut cfg, jobs, system, _) =
        dashboard::representative(target, scale).expect("representative run");
    cfg.record_events = false;
    let every = SimDuration::from_secs(30);
    let states = runner::boot(&cfg, jobs, &system, cfg.seed)
        .and_then(|state| runner::record_once(state, &system, Some(every)))
        .expect("representative run completes")
        .capsules;
    let snaps: Vec<SimSnapshot> = states.into_iter().map(SimSnapshot::new).collect();

    let encode_all = |format: CapsuleFormat| -> (Vec<Vec<u8>>, f64) {
        timed(|| {
            let mut encoded = Vec::new();
            for _ in 0..REPS {
                encoded = snaps
                    .iter()
                    .map(|snap| checkpoint::to_bytes(snap, format))
                    .collect();
            }
            encoded
        })
    };
    let decode_all = |encoded: &[Vec<u8>]| -> (Vec<SimSnapshot>, f64) {
        timed(|| {
            let mut decoded = Vec::new();
            for _ in 0..REPS {
                decoded = encoded
                    .iter()
                    .map(|bytes| {
                        checkpoint::from_bytes(std::path::Path::new("bench"), bytes)
                            .expect("own encoding decodes")
                    })
                    .collect();
            }
            decoded
        })
    };

    let (json, json_encode_ms) = encode_all(CapsuleFormat::Json);
    let (binary, binary_encode_ms) = encode_all(CapsuleFormat::Binary);
    let (_, json_decode_ms) = decode_all(&json);
    let (from_binary, binary_decode_ms) = decode_all(&binary);

    // lossless check: a binary round-trip re-encoded as JSON must equal
    // the state's direct JSON encoding byte for byte
    let round_trip_exact = from_binary
        .iter()
        .zip(json.iter())
        .all(|(snap, json_bytes)| checkpoint::to_bytes(snap, CapsuleFormat::Json) == *json_bytes);

    let json_bytes: u64 = json.iter().map(|b| b.len() as u64).sum();
    let binary_bytes: u64 = binary.iter().map(|b| b.len() as u64).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    CapsuleBench {
        target: target.to_string(),
        capsules: snaps.len(),
        json_bytes,
        binary_bytes,
        size_ratio: ratio(json_bytes as f64, binary_bytes as f64),
        json_encode_ms,
        binary_encode_ms,
        json_decode_ms,
        binary_decode_ms,
        encode_speedup: ratio(json_encode_ms, binary_encode_ms),
        decode_speedup: ratio(json_decode_ms, binary_decode_ms),
        round_trip_exact,
    }
}

/// Run the benchmark on the ext-faults representative stream.
pub fn run(scale: Scale) -> CapsuleBench {
    run_target("ext-faults", scale)
}

/// Plain-text rendering.
pub fn render(b: &CapsuleBench) -> String {
    format!(
        "capsule codec on the {} stream ({} capsules):\n\
         size: JSON {} B, binary {} B — {:.1}x smaller\n\
         encode: JSON {:.2}ms, binary {:.2}ms ({:.1}x); \
         decode: JSON {:.2}ms, binary {:.2}ms ({:.1}x)\n\
         binary round-trip lossless: {}\n",
        b.target,
        b.capsules,
        b.json_bytes,
        b.binary_bytes,
        b.size_ratio,
        b.json_encode_ms,
        b.binary_encode_ms,
        b.encode_speedup,
        b.json_decode_ms,
        b.binary_decode_ms,
        b.decode_speedup,
        b.round_trip_exact,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_faults_stream_hits_the_size_gate() {
        let b = run(Scale::Quick);
        assert!(b.capsules >= 2, "{} capsules", b.capsules);
        assert!(b.round_trip_exact, "binary round-trip lost information");
        assert!(
            b.size_ratio >= 5.0,
            "binary capsules only {:.2}x smaller than JSON ({} vs {} bytes)",
            b.size_ratio,
            b.binary_bytes,
            b.json_bytes
        );
        // wall times are informational (never gated — CI machines vary)
        assert!(b.json_encode_ms > 0.0 && b.binary_encode_ms > 0.0);
    }

    #[test]
    fn render_reports_the_headline_numbers() {
        let b = CapsuleBench {
            target: "ext-faults".into(),
            capsules: 14,
            json_bytes: 1_936_242,
            binary_bytes: 276_486,
            size_ratio: 7.0,
            json_encode_ms: 40.0,
            binary_encode_ms: 20.0,
            json_decode_ms: 60.0,
            binary_decode_ms: 30.0,
            encode_speedup: 2.0,
            decode_speedup: 2.0,
            round_trip_exact: true,
        };
        let s = render(&b);
        assert!(s.contains("7.0x smaller"));
        assert!(s.contains("14 capsules"));
        assert!(s.contains("lossless: true"));
    }
}
