//! # checkpoint — deterministic capsules for the simulation engine
//!
//! The engine is bit-deterministic: the same configuration and seed
//! replay to byte-identical reports. This crate makes that determinism
//! *inspectable* by freezing a run into a versioned **state capsule**
//! ([`SimSnapshot`] wrapping [`mapreduce::EngineState`]) at any sampling
//! instant, and builds two tools on top of it:
//!
//! * a **resume-equivalence proof** ([`equivalence`]): run to T, capture,
//!   restore, run to the end — and check the resumed run's per-step hash
//!   trace and auditor fingerprint match the uninterrupted run's;
//! * a **divergence bisector** ([`bisect`]): given two capsule streams of
//!   what should be the same run, binary-search to the first divergent
//!   checkpoint and diff it field by field — or, cheaper, scan two hash
//!   traces and parse only the one divergent capsule pair.
//!
//! Capsules come in two encodings behind the same versioned envelope:
//! **JSON** (`capsule-<millis>.json`, the format-v1 wire form, still
//! written on request and always readable) and **binary**
//! (`capsule-<millis>.bin`, the [`codec`] module's pooled + LZ-compressed
//! encoding — several times smaller and faster, the default for new
//! sweeps). [`load`] sniffs the encoding from the first byte (`{` opens a
//! JSON capsule, `S` opens the binary `SMRB` magic), so a *capsule
//! stream* — a directory of capsule files written by [`write_stream_as`]
//! and enumerated by [`list_capsules`] — may freely mix both.
//!
//! All writes are crash-safe: bytes land in a temp file in the target
//! directory and are atomically renamed into place, so a killed run
//! leaves either the complete capsule or no capsule — never a truncated
//! file that later bisects as a spurious divergence.

use mapreduce::{EngineState, HashPoint};
use serde::{Deserialize, Serialize};
use simgrid::time::SimTime;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod bisect;
pub mod codec;
pub mod equivalence;

pub use bisect::{bisect_dirs, bisect_hash_traces, Divergence, FieldDiff, TraceDivergence};
pub use equivalence::{
    compare_traces, prove_resume_equivalence, prove_resume_equivalence_full, EquivalenceProof,
    HashMismatch,
};

/// Capsule envelope version written by this build. v1 capsules were
/// always JSON text; v2 capsules additionally carry the engine's rolling
/// per-step `state_hash` and may be encoded in either JSON or the binary
/// [`codec`] form. [`load`] reads every version in
/// [`MIN_FORMAT_VERSION`]..=[`FORMAT_VERSION`] and refuses anything newer
/// instead of misinterpreting it.
pub const FORMAT_VERSION: u32 = 2;
/// Oldest capsule version this build still reads (committed v1 fixtures
/// must keep loading and resuming for as long as this stays at 1).
pub const MIN_FORMAT_VERSION: u32 = 1;

/// File name of the per-step hash trace recorded alongside a capsule
/// stream: one `<step> <at_ms> <hash>` line per engine step.
pub const HASH_TRACE_FILE: &str = "hash-trace.txt";

/// The two on-disk capsule encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapsuleFormat {
    /// Compact JSON text — the v1 wire form; human-greppable.
    Json,
    /// Pooled, LZ-compressed binary (`SMRB` envelope, see [`codec`]).
    Binary,
}

impl CapsuleFormat {
    /// Parse a `--capsule-format` operand.
    pub fn parse(s: &str) -> Option<CapsuleFormat> {
        match s {
            "json" => Some(CapsuleFormat::Json),
            "bin" | "binary" => Some(CapsuleFormat::Binary),
            _ => None,
        }
    }

    pub fn extension(self) -> &'static str {
        match self {
            CapsuleFormat::Json => "json",
            CapsuleFormat::Binary => "bin",
        }
    }

    /// Infer the format a path's extension asks for.
    pub fn of_path(path: &Path) -> Option<CapsuleFormat> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Some(CapsuleFormat::Json),
            Some("bin") => Some(CapsuleFormat::Binary),
            _ => None,
        }
    }
}

impl fmt::Display for CapsuleFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.extension())
    }
}

/// A complete simulation state frozen at one simulated instant, plus the
/// envelope needed to trust it later: the format version and the capture
/// instant (duplicated out of the state so streams can be enumerated
/// without parsing the full state).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSnapshot {
    pub format_version: u32,
    pub at: SimTime,
    pub state: EngineState,
}

impl SimSnapshot {
    pub fn new(state: EngineState) -> SimSnapshot {
        SimSnapshot {
            format_version: FORMAT_VERSION,
            at: state.at(),
            state,
        }
    }

    /// Check the envelope is coherent (version supported, instant matches
    /// the state). Called by [`load`]; callers constructing snapshots by
    /// hand can use it too.
    pub fn validate(&self, origin: &Path) -> Result<(), CapsuleError> {
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&self.format_version) {
            return Err(CapsuleError::VersionMismatch {
                path: origin.to_path_buf(),
                found: self.format_version,
            });
        }
        if self.at != self.state.at() {
            return Err(CapsuleError::Malformed(
                origin.to_path_buf(),
                format!(
                    "envelope instant {} ms disagrees with state instant {} ms",
                    self.at.as_millis(),
                    self.state.at().as_millis()
                ),
            ));
        }
        Ok(())
    }
}

/// Everything that can go wrong reading or writing capsules.
#[derive(Debug)]
pub enum CapsuleError {
    Io(PathBuf, std::io::Error),
    Malformed(PathBuf, String),
    VersionMismatch {
        path: PathBuf,
        found: u32,
    },
    EmptyStream(PathBuf),
    /// Two states in one stream share a capture instant: they would land
    /// on the same file name, silently shortening the stream on disk.
    DuplicateInstant {
        dir: PathBuf,
        at: SimTime,
    },
}

impl fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapsuleError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            CapsuleError::Malformed(p, why) => {
                write!(f, "{}: malformed capsule: {why}", p.display())
            }
            CapsuleError::VersionMismatch { path, found } => write!(
                f,
                "{}: capsule format v{found}, this build reads \
                 v{MIN_FORMAT_VERSION}..=v{FORMAT_VERSION}",
                path.display()
            ),
            CapsuleError::EmptyStream(p) => {
                write!(f, "{}: no capsule-*.{{json,bin}} files", p.display())
            }
            CapsuleError::DuplicateInstant { dir, at } => write!(
                f,
                "{}: two capsules captured at the same instant ({} ms)",
                dir.display(),
                at.as_millis()
            ),
        }
    }
}

impl std::error::Error for CapsuleError {}

/// Serialize one capsule into its wire bytes.
pub fn to_bytes(snap: &SimSnapshot, format: CapsuleFormat) -> Vec<u8> {
    match format {
        CapsuleFormat::Json => serde_json::to_string(snap)
            .expect("capsule serialises")
            .into_bytes(),
        CapsuleFormat::Binary => {
            codec::to_binary(&serde_json::to_value(snap).expect("capsule serialises"))
        }
    }
}

/// Parse capsule wire bytes, sniffing the encoding from the first byte:
/// a JSON capsule opens with `{`, a binary capsule with the `SMRB` magic.
/// `origin` is only used in error messages.
pub fn from_bytes(origin: &Path, bytes: &[u8]) -> Result<SimSnapshot, CapsuleError> {
    let malformed = |why: String| CapsuleError::Malformed(origin.to_path_buf(), why);
    let snap: SimSnapshot = if bytes.first() == Some(&codec::MAGIC[0]) {
        let value = codec::from_binary(bytes).map_err(malformed)?;
        Deserialize::deserialize(&value).map_err(|e| malformed(e.to_string()))?
    } else {
        let text = std::str::from_utf8(bytes).map_err(|e| malformed(e.to_string()))?;
        serde_json::from_str(text).map_err(|e| malformed(e.to_string()))?
    };
    snap.validate(origin)?;
    Ok(snap)
}

/// Write one capsule, in the encoding the path's extension names
/// (`.bin` → binary, anything else → JSON). Crash-safe: bytes go to a
/// temp file in the same directory, atomically renamed into place.
pub fn save(path: &Path, snap: &SimSnapshot) -> Result<(), CapsuleError> {
    let format = CapsuleFormat::of_path(path).unwrap_or(CapsuleFormat::Json);
    write_atomic(path, &to_bytes(snap, format))
}

/// Read and validate one capsule (either encoding, sniffed).
pub fn load(path: &Path) -> Result<SimSnapshot, CapsuleError> {
    let bytes = std::fs::read(path).map_err(|e| CapsuleError::Io(path.to_path_buf(), e))?;
    from_bytes(path, &bytes)
}

/// Atomically replace `path` with `bytes`: write a uniquely-named temp
/// file in the same directory, then rename. A crash mid-write leaves only
/// the temp file (dot-prefixed, never enumerated as a capsule).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CapsuleError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let io_err = |e: std::io::Error| CapsuleError::Io(path.to_path_buf(), e);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io_err(std::io::Error::other("path has no file name")))?;
    let tmp = dir.join(format!(
        ".{file_name}.tmp-{}-{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes).map_err(|e| CapsuleError::Io(tmp.clone(), e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(e)
    })
}

/// Stream file name for a capture instant: zero-padded so lexicographic
/// order is chronological order. The v2 name scheme pads to 15 digits —
/// enough for every representable instant below ~31,688 simulated years
/// (the v1 scheme's 12 digits broke the invariant past 10^12 ms).
pub fn capsule_file_name(at: SimTime, format: CapsuleFormat) -> String {
    format!("capsule-{:015}.{}", at.as_millis(), format.extension())
}

/// [`write_stream_as`] in the JSON encoding.
pub fn write_stream(dir: &Path, states: &[EngineState]) -> Result<Vec<PathBuf>, CapsuleError> {
    write_stream_as(dir, states, CapsuleFormat::Json)
}

/// Write a run's captured states into `dir` as a capsule stream. Creates
/// the directory; returns the written paths in chronological order.
/// States sharing a capture instant are a [`CapsuleError::DuplicateInstant`]
/// — they would collapse onto one file name and desynchronize the
/// on-disk stream length from the run report.
pub fn write_stream_as(
    dir: &Path,
    states: &[EngineState],
    format: CapsuleFormat,
) -> Result<Vec<PathBuf>, CapsuleError> {
    std::fs::create_dir_all(dir).map_err(|e| CapsuleError::Io(dir.to_path_buf(), e))?;
    let mut instants: Vec<SimTime> = states.iter().map(|s| s.at()).collect();
    instants.sort();
    if let Some(dup) = instants.windows(2).find(|w| w[0] == w[1]) {
        return Err(CapsuleError::DuplicateInstant {
            dir: dir.to_path_buf(),
            at: dup[0],
        });
    }
    let mut paths = Vec::with_capacity(states.len());
    for state in states {
        let path = dir.join(capsule_file_name(state.at(), format));
        save(&path, &SimSnapshot::new(state.clone()))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Enumerate a capsule stream (both encodings, any digit width), sorted
/// by capture instant. Non-capsule files in the directory are ignored.
pub fn list_capsules(dir: &Path) -> Result<Vec<(SimTime, PathBuf)>, CapsuleError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CapsuleError::Io(dir.to_path_buf(), e))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CapsuleError::Io(dir.to_path_buf(), e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(ms) = name
            .strip_prefix("capsule-")
            .and_then(|rest| {
                rest.strip_suffix(".json")
                    .or_else(|| rest.strip_suffix(".bin"))
            })
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((SimTime::from_millis(ms), entry.path()));
    }
    out.sort();
    Ok(out)
}

/// Write a run's per-step hash trace next to its capsule stream
/// (`dir/hash-trace.txt`, atomically). One line per step:
/// `<step> <at_ms> <hash>`.
pub fn write_hash_trace(dir: &Path, trace: &[HashPoint]) -> Result<PathBuf, CapsuleError> {
    std::fs::create_dir_all(dir).map_err(|e| CapsuleError::Io(dir.to_path_buf(), e))?;
    let mut text = String::with_capacity(trace.len() * 44);
    for p in trace {
        text.push_str(&format!("{} {} {:#018x}\n", p.step, p.at_ms, p.hash));
    }
    let path = dir.join(HASH_TRACE_FILE);
    write_atomic(&path, text.as_bytes())?;
    Ok(path)
}

/// Read a hash trace written by [`write_hash_trace`].
pub fn read_hash_trace(path: &Path) -> Result<Vec<HashPoint>, CapsuleError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CapsuleError::Io(path.to_path_buf(), e))?;
    let malformed = |line_no: usize, line: &str| {
        CapsuleError::Malformed(
            path.to_path_buf(),
            format!("hash-trace line {}: {line:?}", line_no + 1),
        )
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let (Some(step), Some(at_ms), Some(hash), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(malformed(i, line));
        };
        let hash = hash.strip_prefix("0x").unwrap_or(hash);
        let point = HashPoint {
            step: step.parse().map_err(|_| malformed(i, line))?,
            at_ms: at_ms.parse().map_err(|_| malformed(i, line))?,
            hash: u64::from_str_radix(hash, 16).map_err(|_| malformed(i, line))?,
        };
        out.push(point);
    }
    Ok(out)
}

/// Fold a whole hash trace down to one u64 — the digest `reproduce
/// fingerprint --hash-trace` prints, identical for a straight run and an
/// equivalent resumed run's reconstructed trace.
pub fn trace_digest(trace: &[HashPoint]) -> u64 {
    let mut h = mapreduce::initial_state_hash(trace.len() as u64);
    for p in trace {
        h = mapreduce::fold_hash(h, p.step);
        h = mapreduce::fold_hash(h, p.at_ms);
        h = mapreduce::fold_hash(h, p.hash);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::policy::StaticSlotPolicy;
    use mapreduce::{Engine, EngineConfig, JobProfile, JobSpec};
    use simgrid::time::SimDuration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smr-capsule-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_stream() -> (mapreduce::RunReport, Vec<EngineState>) {
        let cfg = EngineConfig::small_test(4, 5);
        let job = JobSpec::new(
            0,
            JobProfile::synthetic_map_heavy(),
            1024.0,
            8,
            SimTime::ZERO,
        );
        let mut state = Engine::new(cfg).prepare(vec![job]).expect("prepare");
        state.override_policy("HadoopV1").expect("bind");
        let rec = Engine::record(
            state,
            &mut StaticSlotPolicy,
            Some(SimDuration::from_secs(10)),
        )
        .expect("runs");
        (rec.report, rec.capsules)
    }

    #[test]
    fn file_names_sort_chronologically() {
        assert_eq!(
            capsule_file_name(SimTime::ZERO, CapsuleFormat::Json),
            "capsule-000000000000000.json"
        );
        assert_eq!(
            capsule_file_name(SimTime::ZERO, CapsuleFormat::Binary),
            "capsule-000000000000000.bin"
        );
        let a = capsule_file_name(SimTime::from_secs(9), CapsuleFormat::Json);
        let b = capsule_file_name(SimTime::from_secs(100), CapsuleFormat::Json);
        assert!(a < b, "{a} should sort before {b}");
        // the v1 12-digit pad broke lexicographic order past 10^12 ms;
        // 15 digits cover every instant below ~31,688 simulated years
        let big = capsule_file_name(SimTime::from_millis(10u64.pow(12)), CapsuleFormat::Json);
        assert!(b < big, "{b} should sort before {big}");
    }

    #[test]
    fn stream_round_trips_through_disk_in_both_formats() {
        let (_, states) = small_stream();
        assert!(states.len() >= 2, "expected several capsules");
        for format in [CapsuleFormat::Json, CapsuleFormat::Binary] {
            let dir = tmp_dir(&format!("roundtrip-{format}"));
            let paths = write_stream_as(&dir, &states, format).expect("write");
            assert_eq!(paths.len(), states.len());
            let listed = list_capsules(&dir).expect("list");
            assert_eq!(listed.len(), states.len());
            for ((at, path), state) in listed.iter().zip(&states) {
                assert_eq!(*at, state.at());
                let snap = load(path).expect("load");
                assert_eq!(snap.at, state.at());
                assert_eq!(
                    serde_json::to_string(&snap.state).unwrap(),
                    serde_json::to_string(state).unwrap(),
                    "capsule at {} ms changed through disk ({format})",
                    at.as_millis()
                );
            }
            // crash-safe writes leave no temp droppings behind
            let stray = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
                .count();
            assert_eq!(stray, 0, "temp files left in the stream directory");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn binary_capsules_are_much_smaller() {
        // a tiny 4-worker capsule has little redundancy for the LZ layer
        // to chew on, so the floor here is 3×; the ≥5× gate runs on the
        // representative ext-faults stream in the workspace's
        // tests/checkpoint.rs (`ext_faults_capsule_stream_is_pinned`)
        let (_, states) = small_stream();
        let last = states.last().expect("capsules");
        let snap = SimSnapshot::new(last.clone());
        let json = to_bytes(&snap, CapsuleFormat::Json).len();
        let bin = to_bytes(&snap, CapsuleFormat::Binary).len();
        assert!(
            bin * 3 <= json,
            "binary capsule not ≥3× smaller: {bin} vs {json} bytes"
        );
    }

    #[test]
    fn loaded_capsule_resumes_to_the_straight_result() {
        let (straight, states) = small_stream();
        for format in [CapsuleFormat::Json, CapsuleFormat::Binary] {
            let dir = tmp_dir(&format!("resume-{format}"));
            let paths = write_stream_as(&dir, &states, format).expect("write");
            let snap = load(&paths[paths.len() / 2]).expect("load");
            let resumed = Engine::record(snap.state, &mut StaticSlotPolicy, None)
                .expect("resume")
                .report;
            assert_eq!(
                serde_json::to_string(&straight).unwrap(),
                serde_json::to_string(&resumed).unwrap(),
                "resume from a {format} disk capsule diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn duplicate_capture_instants_are_an_error() {
        let (_, states) = small_stream();
        let dir = tmp_dir("dup");
        let mut dup = states.clone();
        dup.push(states[0].clone());
        match write_stream(&dir, &dup) {
            Err(CapsuleError::DuplicateInstant { at, .. }) => assert_eq!(at, states[0].at()),
            other => panic!("expected DuplicateInstant, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (_, states) = small_stream();
        let dir = tmp_dir("version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(capsule_file_name(states[0].at(), CapsuleFormat::Json));
        let mut snap = SimSnapshot::new(states[0].clone());
        snap.format_version = FORMAT_VERSION + 1;
        let json = serde_json::to_string(&snap).unwrap();
        std::fs::write(&path, json).unwrap();
        match load(&path) {
            Err(CapsuleError::VersionMismatch { found, .. }) => {
                assert_eq!(found, FORMAT_VERSION + 1)
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_files_are_ignored_by_listing_and_rejected_by_load() {
        let dir = tmp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "hi").unwrap();
        std::fs::write(dir.join("capsule-000000000000000.json"), "{not json").unwrap();
        // truncated binary: valid magic, nothing behind it
        std::fs::write(dir.join("capsule-000000000010000.bin"), b"SMRB").unwrap();
        let listed = list_capsules(&dir).expect("list");
        assert_eq!(listed.len(), 2, "only capsule-*.{{json,bin}} are capsules");
        for (_, path) in &listed {
            assert!(matches!(load(path), Err(CapsuleError::Malformed(..))));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hash_trace_round_trips_and_digests_stably() {
        let dir = tmp_dir("trace");
        let trace = vec![
            HashPoint {
                step: 1,
                at_ms: 100,
                hash: 0xdead_beef_0123_4567,
            },
            HashPoint {
                step: 2,
                at_ms: 250,
                hash: 0,
            },
        ];
        let path = write_hash_trace(&dir, &trace).expect("write");
        assert_eq!(path.file_name().unwrap(), HASH_TRACE_FILE);
        let back = read_hash_trace(&path).expect("read");
        assert_eq!(back, trace);
        assert_eq!(trace_digest(&back), trace_digest(&trace));
        assert_ne!(trace_digest(&trace), trace_digest(&trace[..1]));
        std::fs::write(&path, "1 100\n").unwrap();
        assert!(matches!(
            read_hash_trace(&path),
            Err(CapsuleError::Malformed(..))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
