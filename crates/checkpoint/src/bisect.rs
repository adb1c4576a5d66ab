//! Divergence bisection: find the first step at which two recordings of
//! what should be the same run disagree, and explain *which fields*
//! disagree.
//!
//! The intended workflow: a run that should be deterministic produced two
//! different results (different machine, different build, a suspected
//! nondeterminism bug). Record both with `--checkpoint-every` into two
//! directories, then bisect. Every recording carries its per-step hash
//! trace ([`HASH_TRACE_FILE`]), so [`bisect_hash_traces`] finds the first
//! divergent step with one u64 comparison per step and no capsule I/O,
//! then parses only the first capsule pair captured at or after that
//! step and diffs it field by field — naming the subsystem that forked
//! first.
//!
//! A pair may mix encodings (a JSON stream recorded by an older build
//! against a binary re-recording), so capsules are compared through
//! their decoded value trees, ignoring the envelope's `format_version`,
//! which is metadata about the writer, not the run.

use crate::{codec, list_capsules, read_hash_trace, CapsuleError, HASH_TRACE_FILE};
use simgrid::time::SimTime;
use std::path::{Path, PathBuf};

/// One leaf-level disagreement between the two capsules.
#[derive(Debug, Clone)]
pub struct FieldDiff {
    /// Dotted path into the capsule JSON, e.g. `state.rng.state[2]`.
    pub path: String,
    pub a: String,
    pub b: String,
}

/// The capsule pair a divergence was diffed from.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the pair in stream A (0-based).
    pub index: usize,
    /// The capture instant of the pair.
    pub at: SimTime,
    pub path_a: PathBuf,
    pub path_b: PathBuf,
    /// Leaf fields that disagree, in capsule order.
    pub diffs: Vec<FieldDiff>,
}

/// Parse one capsule file (either encoding, sniffed) into its JSON value
/// tree, dropping the top-level `format_version` so that a JSON stream
/// and a binary re-recording of the same run compare equal.
fn capsule_value(path: &Path) -> Result<serde_json::Value, CapsuleError> {
    let bytes = std::fs::read(path).map_err(|e| CapsuleError::Io(path.to_path_buf(), e))?;
    let malformed = |why: String| CapsuleError::Malformed(path.to_path_buf(), why);
    let mut value = if bytes.first() == Some(&codec::MAGIC[0]) {
        codec::from_binary(&bytes).map_err(malformed)?
    } else {
        let text = std::str::from_utf8(&bytes).map_err(|e| malformed(e.to_string()))?;
        serde_json::parse_value(text).map_err(|e| malformed(e.to_string()))?
    };
    if let serde_json::Value::Object(fields) = &mut value {
        fields.retain(|(k, _)| k != "format_version");
    }
    Ok(value)
}

/// The first step at which two runs' hash traces disagree — found without
/// reading any capsule except the one divergent pair.
#[derive(Debug, Clone)]
pub struct TraceDivergence {
    /// First step whose hashes or instants disagree (or the first step
    /// past the shorter trace, when one trace is a prefix of the other).
    pub step: u64,
    /// The instant after that step; when the two runs reached it at
    /// different instants (their step grids differ), the earlier one.
    pub at: SimTime,
    /// The rolling digests on each side; 0 for a side whose trace ended
    /// before `step`.
    pub hash_a: u64,
    pub hash_b: u64,
    /// Field-level diff of the first capsule pair captured at or after
    /// `at` — the only capsules parsed. `None` when the streams hold no
    /// paired capsule at or past that instant (the divergence happened
    /// after the last checkpoint).
    pub capsule_diff: Option<Divergence>,
}

/// Compare the hash traces recorded alongside two capsule streams
/// (`<dir>/hash-trace.txt`), and on divergence parse only the first
/// capsule pair at or after the divergent instant. One u64 comparison
/// per step, `O(1)` capsule reads.
///
/// A step reached at different instants is a divergence at that step —
/// a change to the event horizon forks the runs exactly this way. Only
/// traces that number the same line differently are malformed.
pub fn bisect_hash_traces(
    dir_a: &Path,
    dir_b: &Path,
) -> Result<Option<TraceDivergence>, CapsuleError> {
    let trace_a = read_hash_trace(&dir_a.join(HASH_TRACE_FILE))?;
    let trace_b = read_hash_trace(&dir_b.join(HASH_TRACE_FILE))?;
    let common = trace_a.len().min(trace_b.len());
    for i in 0..common {
        let (pa, pb) = (trace_a[i], trace_b[i]);
        if pa.step != pb.step {
            return Err(CapsuleError::Malformed(
                dir_b.join(HASH_TRACE_FILE),
                format!(
                    "traces number line {} differently: step {} vs step {}",
                    i + 1,
                    pa.step,
                    pb.step
                ),
            ));
        }
        if pa.at_ms != pb.at_ms || pa.hash != pb.hash {
            let at = SimTime::from_millis(pa.at_ms.min(pb.at_ms));
            return Ok(Some(TraceDivergence {
                step: pa.step,
                at,
                hash_a: pa.hash,
                hash_b: pb.hash,
                capsule_diff: diff_pair_at(dir_a, dir_b, at)?,
            }));
        }
    }
    if trace_a.len() != trace_b.len() {
        let extra = if trace_a.len() > trace_b.len() {
            trace_a[common]
        } else {
            trace_b[common]
        };
        return Ok(Some(TraceDivergence {
            step: extra.step,
            at: SimTime::from_millis(extra.at_ms),
            hash_a: if trace_a.len() > common {
                extra.hash
            } else {
                0
            },
            hash_b: if trace_b.len() > common {
                extra.hash
            } else {
                0
            },
            capsule_diff: diff_pair_at(dir_a, dir_b, SimTime::from_millis(extra.at_ms))?,
        }));
    }
    Ok(None)
}

/// Diff the first capsule pair captured at or after `at`: the earliest
/// checkpoint that can exhibit the divergence.
fn diff_pair_at(
    dir_a: &Path,
    dir_b: &Path,
    at: SimTime,
) -> Result<Option<Divergence>, CapsuleError> {
    let list_a = list_capsules(dir_a)?;
    let list_b = list_capsules(dir_b)?;
    for (index, (instant_a, path_a)) in list_a.iter().enumerate() {
        if *instant_a < at {
            continue;
        }
        let Some((_, path_b)) = list_b.iter().find(|(instant_b, _)| instant_b == instant_a) else {
            continue;
        };
        let va = capsule_value(path_a)?;
        let vb = capsule_value(path_b)?;
        let mut diffs = Vec::new();
        diff_value("", &va, &vb, &mut diffs);
        return Ok(Some(Divergence {
            index,
            at: *instant_a,
            path_a: path_a.clone(),
            path_b: path_b.clone(),
            diffs,
        }));
    }
    Ok(None)
}

/// Recursively collect leaf-level differences between two JSON values.
fn diff_value(path: &str, a: &serde_json::Value, b: &serde_json::Value, out: &mut Vec<FieldDiff>) {
    use serde_json::Value;
    match (a, b) {
        (Value::Object(fa), Value::Object(fb)) => {
            // capsule objects carry identical field orders (they come from
            // the same serializer); walk a's order, then b-only keys
            for (key, va) in fa {
                let sub = join(path, key);
                match fb.iter().find(|(k, _)| k == key) {
                    Some((_, vb)) => diff_value(&sub, va, vb, out),
                    None => out.push(FieldDiff {
                        path: sub,
                        a: render(va),
                        b: "(absent)".into(),
                    }),
                }
            }
            for (key, vb) in fb {
                if !fa.iter().any(|(k, _)| k == key) {
                    out.push(FieldDiff {
                        path: join(path, key),
                        a: "(absent)".into(),
                        b: render(vb),
                    });
                }
            }
        }
        (Value::Array(xa), Value::Array(xb)) => {
            for i in 0..xa.len().max(xb.len()) {
                let sub = format!("{path}[{i}]");
                match (xa.get(i), xb.get(i)) {
                    (Some(va), Some(vb)) => diff_value(&sub, va, vb, out),
                    (Some(va), None) => out.push(FieldDiff {
                        path: sub,
                        a: render(va),
                        b: "(absent)".into(),
                    }),
                    (None, Some(vb)) => out.push(FieldDiff {
                        path: sub,
                        a: "(absent)".into(),
                        b: render(vb),
                    }),
                    (None, None) => unreachable!(),
                }
            }
        }
        _ => {
            if a != b {
                out.push(FieldDiff {
                    path: path.to_string(),
                    a: render(a),
                    b: render(b),
                });
            }
        }
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Short, single-line rendering of a leaf value for diff output.
fn render(v: &serde_json::Value) -> String {
    let mut s = serde_json::to_string(v).unwrap_or_else(|_| "(unprintable)".into());
    if s.len() > 96 {
        s.truncate(93);
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::HashPoint;
    use serde_json::Value;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The name an older build gave a JSON capsule.
    fn json_name(secs: u64) -> String {
        format!("capsule-{:015}.json", secs * 1000)
    }

    fn tmp_dirs(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
        let base = std::env::temp_dir().join(format!("smr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (dir_a, dir_b) = (base.join("a"), base.join("b"));
        std::fs::create_dir_all(&dir_a).unwrap();
        std::fs::create_dir_all(&dir_b).unwrap();
        (base, dir_a, dir_b)
    }

    fn trace(points: &[(u64, u64)]) -> Vec<HashPoint> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(hash, at_ms))| HashPoint {
                step: i as u64 + 1,
                at_ms,
                hash,
            })
            .collect()
    }

    #[test]
    fn diff_names_the_paths_that_disagree() {
        let a = obj(vec![
            ("now", Value::U64(12000)),
            (
                "rng",
                obj(vec![(
                    "state",
                    Value::Array(vec![Value::U64(1), Value::U64(2)]),
                )]),
            ),
            ("steps", Value::U64(7)),
        ]);
        let b = obj(vec![
            ("now", Value::U64(12000)),
            (
                "rng",
                obj(vec![(
                    "state",
                    Value::Array(vec![Value::U64(1), Value::U64(9)]),
                )]),
            ),
            ("steps", Value::U64(8)),
        ]);
        let mut diffs = Vec::new();
        diff_value("", &a, &b, &mut diffs);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, vec!["rng.state[1]", "steps"]);
        assert_eq!(diffs[0].a, "2");
        assert_eq!(diffs[0].b, "9");
    }

    #[test]
    fn diff_reports_missing_fields_and_lengths() {
        let a = obj(vec![("xs", Value::Array(vec![Value::U64(1)]))]);
        let b = obj(vec![
            ("xs", Value::Array(vec![Value::U64(1), Value::U64(2)])),
            ("extra", Value::Bool(true)),
        ]);
        let mut diffs = Vec::new();
        diff_value("", &a, &b, &mut diffs);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, vec!["xs[1]", "extra"]);
        assert_eq!(diffs[0].a, "(absent)");
    }

    #[test]
    fn hash_trace_bisect_parses_only_the_divergent_pair() {
        let (base, dir_a, dir_b) = tmp_dirs("trace-bisect");
        let mk = |hashes: &[u64]| -> Vec<HashPoint> {
            let points: Vec<(u64, u64)> = hashes
                .iter()
                .zip(1..)
                .map(|(&h, i)| (h, i * 5_000))
                .collect();
            trace(&points)
        };
        crate::write_hash_trace(&dir_a, &mk(&[10, 20, 30, 40, 50])).unwrap();
        crate::write_hash_trace(&dir_b, &mk(&[10, 20, 31, 41, 51])).unwrap();
        // capsules only exist at 10 s and 20 s; step 3 diverges at 15 s,
        // so the pair at 20 s is the one that gets parsed. A deliberately
        // corrupt capsule at 10 s proves nothing earlier is read.
        std::fs::write(dir_a.join(json_name(10)), "{corrupt").unwrap();
        std::fs::write(dir_b.join(json_name(10)), "{corrupt").unwrap();
        // the 20 s pair mixes encodings and envelope versions: an older
        // build's v1 JSON capsule against a binary one, differing only in
        // `x` — the writer's format_version is not a divergence
        std::fs::write(dir_a.join(json_name(20)), "{\"format_version\":1,\"x\":1}").unwrap();
        let b_val = obj(vec![
            ("format_version", Value::U64(2)),
            ("x", Value::U64(2)),
        ]);
        std::fs::write(
            dir_b.join(crate::capsule_file_name(SimTime::from_secs(20))),
            codec::to_binary(&b_val),
        )
        .unwrap();
        let div = bisect_hash_traces(&dir_a, &dir_b)
            .expect("runs")
            .expect("traces diverge");
        assert_eq!(div.step, 3);
        assert_eq!(div.at, SimTime::from_millis(15_000));
        assert_eq!((div.hash_a, div.hash_b), (30, 31));
        let pair = div.capsule_diff.expect("capsule pair at 20 s");
        assert_eq!(pair.at, SimTime::from_secs(20));
        assert_eq!(pair.diffs.len(), 1, "{:?}", pair.diffs);
        assert_eq!(pair.diffs[0].path, "x");
        assert_eq!(
            (pair.diffs[0].a.as_str(), pair.diffs[0].b.as_str()),
            ("1", "2")
        );
        assert_eq!(pair.path_b.extension().unwrap(), "bin");
        // identical traces bisect to none without touching any capsule
        crate::write_hash_trace(&dir_b, &mk(&[10, 20, 30, 40, 50])).unwrap();
        assert!(bisect_hash_traces(&dir_a, &dir_b).expect("runs").is_none());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn a_step_reached_at_another_instant_is_a_divergence() {
        let (base, dir_a, dir_b) = tmp_dirs("trace-grid");
        crate::write_hash_trace(&dir_a, &trace(&[(10, 5000), (20, 10000), (30, 15000)])).unwrap();
        crate::write_hash_trace(&dir_b, &trace(&[(10, 5000), (20, 10000), (31, 15500)])).unwrap();
        // the pair is looked up from the earlier of the two instants, so
        // the 15 s capsules are the ones diffed
        for secs in [15, 20] {
            std::fs::write(dir_a.join(json_name(secs)), format!("{{\"x\":{secs}}}")).unwrap();
            std::fs::write(dir_b.join(json_name(secs)), "{\"x\":0}").unwrap();
        }
        let div = bisect_hash_traces(&dir_a, &dir_b)
            .expect("a grid difference is not a malformed trace")
            .expect("traces diverge");
        assert_eq!(div.step, 3);
        assert_eq!(div.at, SimTime::from_millis(15_000));
        assert_eq!((div.hash_a, div.hash_b), (30, 31));
        assert_eq!(
            div.capsule_diff.expect("pair at 15 s").at,
            SimTime::from_secs(15)
        );
        // the same instants under different step numbers stay malformed
        let renumbered: Vec<HashPoint> = trace(&[(10, 5000), (20, 10000)])
            .into_iter()
            .map(|p| HashPoint {
                step: p.step + 1,
                ..p
            })
            .collect();
        crate::write_hash_trace(&dir_b, &renumbered).unwrap();
        assert!(matches!(
            bisect_hash_traces(&dir_a, &dir_b),
            Err(CapsuleError::Malformed(..))
        ));
        let _ = std::fs::remove_dir_all(&base);
    }
}
