//! Output checks. Every op yields a digest; an op fails when it errors,
//! when its digest differs from the first repetition of the same op in
//! the run, or — on the default seed — when it differs from the digest
//! stored with the benchmark in `digests.txt`.

use mapreduce::{auditor, fold_hash, RunReport};
use realtime::ObservationFrame;
use std::collections::HashMap;

/// The seed whose digests are stored with the benchmark.
pub const DEFAULT_SEED: u64 = 1;

/// `<workload> <op key> <digest as 16 hex digits>` per line.
const EXPECTED: &str = include_str!("../digests.txt");

/// Failure messages kept for the report (the count is always exact).
const MAX_MESSAGES: usize = 8;

/// The digest of a batch run: the auditor's counter fingerprint folded
/// with the step count and the makespan.
pub fn report_digest(r: &RunReport) -> u64 {
    let h = fold_hash(auditor::fingerprint(r), r.steps);
    fold_hash(h, r.makespan().as_millis())
}

/// A frame read is sound when its checksum matches its content and the
/// tenant's run has not died.
pub fn frame_fault(frame: &ObservationFrame) -> Option<String> {
    if !frame.is_consistent() {
        return Some(format!(
            "torn frame: tenant {} epoch {}",
            frame.tenant, frame.epoch
        ));
    }
    frame
        .error
        .as_ref()
        .map(|e| format!("tenant {} error: {e}", frame.tenant))
}

/// Parse the stored digests of one workload.
pub fn expected_digests(text: &str, workload: &str) -> HashMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (w, key, hex) = (parts.next()?, parts.next()?, parts.next()?);
            let digest = u64::from_str_radix(hex, 16).ok()?;
            (w == workload).then(|| (key.to_string(), digest))
        })
        .collect()
}

/// Counts attempted and failed ops of one run.
pub struct Checker {
    expected: Option<HashMap<String, u64>>,
    first: HashMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    /// Checks against the stored digests only on the default seed.
    pub fn for_run(workload: &str, seed: u64) -> Checker {
        Checker::new((seed == DEFAULT_SEED).then(|| expected_digests(EXPECTED, workload)))
    }

    pub fn new(expected: Option<HashMap<String, u64>>) -> Checker {
        Checker {
            expected,
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
        }
    }

    /// Record one op; returns whether it passed.
    pub fn op(&mut self, key: &str, outcome: Result<u64, String>) -> bool {
        self.attempted += 1;
        let fault = match outcome {
            Err(e) => Some(format!("{key}: {e}")),
            Ok(digest) => self.digest_fault(key, digest),
        };
        match fault {
            Some(msg) => {
                self.fail(msg);
                false
            }
            None => true,
        }
    }

    fn digest_fault(&mut self, key: &str, digest: u64) -> Option<String> {
        let first = *self.first.entry(key.to_string()).or_insert(digest);
        if digest != first {
            return Some(format!(
                "{key}: digest {digest:016x} differs from first repetition {first:016x}"
            ));
        }
        let expected = self.expected.as_ref()?;
        match expected.get(key) {
            Some(&want) if want == digest => None,
            Some(&want) => Some(format!(
                "{key}: digest {digest:016x} differs from stored {want:016x}"
            )),
            None => Some(format!("{key}: no stored digest for the default seed")),
        }
    }

    /// Record a check that carries no digest (a replay that must verify,
    /// a split path that must reproduce the cold run) as one more op.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// First-repetition digests seen so far, sorted by op key.
    pub fn digests(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.first.iter().map(|(k, &d)| (k.as_str(), d)).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::EngineObservation;

    fn table(entries: &[(&str, u64)]) -> HashMap<String, u64> {
        entries.iter().map(|&(k, d)| (k.to_string(), d)).collect()
    }

    #[test]
    fn stored_digests_parse_per_workload() {
        let text = "a x 00000000000000ff\nb x 0000000000000001\na y 10\n";
        let a = expected_digests(text, "a");
        assert_eq!(a.len(), 2);
        assert_eq!(a["x"], 0xff);
        assert_eq!(a["y"], 0x10);
    }

    #[test]
    fn the_stored_table_covers_every_workload() {
        for w in crate::WORKLOADS {
            assert!(
                !expected_digests(EXPECTED, w).is_empty(),
                "no stored digests for {w}"
            );
        }
    }

    #[test]
    fn an_altered_expected_digest_raises_fail_frac() {
        let mut ok = Checker::new(Some(table(&[("op", 7)])));
        assert!(ok.op("op", Ok(7)));
        assert_eq!(ok.fail_frac(), 0.0);
        let mut altered = Checker::new(Some(table(&[("op", 8)])));
        assert!(!altered.op("op", Ok(7)));
        assert!(!altered.op("op", Ok(7)));
        assert_eq!(altered.fail_frac(), 1.0);
        // a key missing from the table fails too
        let mut missing = Checker::new(Some(table(&[])));
        assert!(!missing.op("op", Ok(7)));
    }

    #[test]
    fn a_repetition_must_reproduce_its_first() {
        let mut c = Checker::new(None);
        assert!(c.op("a", Ok(1)));
        assert!(c.op("b", Ok(2)));
        assert!(c.op("a", Ok(1)));
        assert!(!c.op("a", Ok(3)));
        assert!(!c.op("b", Err("engine error".into())));
        assert_eq!((c.attempted, c.failed), (5, 2));
        assert_eq!(c.fail_frac(), 0.4);
    }

    #[test]
    fn a_real_run_with_an_altered_digest_fails() {
        use harness::runner::{run_once, System};
        let cfg = mapreduce::EngineConfig::small_test(4, 3);
        let job = workloads::Puma::Grep.job(0, 512.0, 2, simgrid::time::SimTime::ZERO);
        let report = run_once(&cfg, vec![job], &System::SMapReduce, 3).expect("run");
        let digest = report_digest(&report);
        let mut good = Checker::new(Some(table(&[("grep", digest)])));
        assert!(good.op("grep", Ok(digest)));
        let mut bad = Checker::new(Some(table(&[("grep", digest ^ 1)])));
        assert!(!bad.op("grep", Ok(digest)));
        assert!(bad.fail_frac() > 0.0);
    }

    #[test]
    fn a_torn_frame_is_a_failure() {
        let mut frame = ObservationFrame {
            tenant: 3,
            name: "t".into(),
            system: "YARN".into(),
            epoch: 5,
            tick: 9,
            paused: false,
            error: None,
            recent_decisions: Vec::new(),
            obs: EngineObservation {
                at_ms: 4000,
                steps: 10,
                state_hash: 42,
                heartbeat_rounds: 2,
                slot_changes: 0,
                all_finished: false,
                jobs: Vec::new(),
                nodes: Vec::new(),
            },
            checksum: 0,
        };
        frame.checksum = frame.compute_checksum();
        assert_eq!(frame_fault(&frame), None);
        frame.obs.steps += 1; // content changed after the checksum: torn
        let fault = frame_fault(&frame).expect("torn frame detected");
        let mut c = Checker::new(None);
        assert!(!c.op("tenant", Err(fault)));
        assert_eq!(c.fail_frac(), 1.0);
        c.check(Err("replay diverged".into()));
        c.check(Ok(()));
        assert_eq!((c.attempted, c.failed), (3, 2));
        frame.checksum = frame.compute_checksum();
        frame.error = Some("node lost".into());
        frame.checksum = frame.compute_checksum();
        assert!(frame_fault(&frame).is_some(), "a tenant error fails too");
    }
}
