//! The single registry of `reproduce` targets.
//!
//! Every target the binary dispatches is declared here once, with a
//! one-line description taken from the experiment index (DESIGN §4).
//! `--help` and unknown-target errors print this generated list, and the
//! binary derives from it the targets `all` runs, the targets with a
//! representative run (`fingerprint`, `--checkpoint-every`) and the
//! targets that take operands. The figure dispatcher itself is a `match`
//! in the binary: a row without an arm fails as an unknown target when
//! run (CI runs every figure-style row), but no test finds an arm
//! without a row.

/// One dispatchable `reproduce` target.
pub struct Target {
    pub name: &'static str,
    pub desc: &'static str,
    pub kind: Kind,
}

/// How the binary treats a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `all`: every [`Kind::InAll`] target, in registry order.
    All,
    /// A figure-style target that `all` runs.
    InAll,
    /// A figure-style target that `all` leaves out.
    Alone,
    /// A subcommand; the string names its positional operands.
    Sub(&'static str),
}

const fn t(name: &'static str, kind: Kind, desc: &'static str) -> Target {
    Target { name, desc, kind }
}

use Kind::{Alone, InAll, Sub};

/// Every target, in help-display order.
#[rustfmt::skip]
pub const TARGETS: &[Target] = &[
    t("all", Kind::All, "fig1, fig3–fig9 and ext-hetero in turn (the default)"),
    t("fig1", InAll, "thrashing: map throughput vs map slots, Terasort/TermVector/Grep"),
    t("fig3", InAll, "map/reduce/total time, 13 PUMA jobs on HadoopV1, YARN, SMapReduce"),
    t("fig4", InAll, "progress % (0–200) over time, HistogramMovies"),
    t("fig5", InAll, "HistogramRatings map time vs initial map-slot config (1..8)"),
    t("fig6", InAll, "HistogramRatings throughput vs input size (50–250 GB)"),
    t("fig7", InAll, "map time with/without thrashing detection and slow start"),
    t("fig8", InAll, "4 concurrent Grep jobs, 5 s apart: mean and last-finish time"),
    t("fig9", InAll, "as fig8, for InvertedIndex"),
    t("headline", Alone, "§V-A headline claims, derived from the fig3 run"),
    t("ablations", Alone, "slot-manager knob sweeps on WordCount"),
    t("model-check", Alone, "§III-B1 time-model equations vs simulation"),
    t("ext-hetero", InAll, "extension (§VII): 8 strong + 8 weak workers"),
    t("ext-stragglers", Alone, "extension: stragglers, task failures and speculation"),
    t("ext-fair", Alone, "extension: FIFO vs Fair, 1×30 GB + 3×4 GB Grep"),
    t("ext-load", Alone, "extension: sustained Poisson mixed load, batch vs interactive"),
    t("ext-faults", Alone, "extension: transient node crashes and recovery"),
    t("serve", Sub("[ADDR]"), "realtime NDJSON service over TCP (default 127.0.0.1:7700)"),
    t("fingerprint", Sub("<target>"), "a target's auditor fingerprint and hash-trace digest"),
    t("resume", Sub("<CAPSULE.{json,bin}>"), "resume a capsule to completion"),
    t("bisect", Sub("<DIR_A> <DIR_B>"), "first divergent step of two streams' hash traces"),
];

fn kind_of(name: &str) -> Option<Kind> {
    TARGETS.iter().find(|t| t.name == name).map(|t| t.kind)
}

/// The targets `all` runs, in order.
pub fn all() -> impl Iterator<Item = &'static str> {
    TARGETS.iter().filter(|t| t.kind == InAll).map(|t| t.name)
}

/// Whether `name` has a representative run the checkpoint tooling can
/// record and fingerprint: every figure-style target, in `all` or not.
pub fn has_representative_run(name: &str) -> bool {
    matches!(kind_of(name), Some(InAll | Alone))
}

/// Whether `name` is a subcommand that takes positional operands.
pub fn takes_operands(name: &str) -> bool {
    matches!(kind_of(name), Some(Sub(_)))
}

/// The generated target list, for unknown-target errors and `--help`.
pub fn render_list() -> String {
    let head = |t: &Target| match t.kind {
        Sub(operands) => format!("{} {operands}", t.name),
        _ => t.name.to_string(),
    };
    let width = TARGETS.iter().map(|t| head(t).len()).max().unwrap_or(0);
    let mut out = String::from("targets:\n");
    for t in TARGETS {
        let head = head(t);
        out.push_str(&format!("  {head:width$}  {}\n", t.desc));
    }
    out
}

/// The error message for an unrecognised target: nearest-name hint (plain
/// prefix/containment match) plus the full generated list.
pub fn unknown(name: &str) -> String {
    let mut msg = format!("unknown target: {name}\n");
    let near: Vec<&str> = TARGETS
        .iter()
        .map(|t| t.name)
        .filter(|t| t.contains(name) || name.contains(t))
        .collect();
    if !near.is_empty() {
        msg.push_str(&format!("did you mean {}?\n", near.join(" or ")));
    }
    msg.push('\n');
    msg.push_str(&render_list());
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_mentions_every_target_once() {
        let list = render_list();
        for t in TARGETS {
            assert!(list.contains(t.name), "{} missing from list", t.name);
            assert!(!t.desc.is_empty());
        }
        let mut names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TARGETS.len(), "duplicate target names");
    }

    #[test]
    fn unknown_suggests_near_misses() {
        let msg = unknown("fig");
        assert!(msg.contains("unknown target: fig"));
        assert!(msg.contains("did you mean"));
        assert!(msg.contains("fig1"));
        let msg = unknown("zzz");
        assert!(!msg.contains("did you mean"));
        assert!(msg.contains("bisect"));
    }

    #[test]
    fn all_and_representative_runs_derive_from_the_registry() {
        let all = all().collect::<Vec<_>>().join(" ");
        assert_eq!(all, "fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ext-hetero");
        let runs = TARGETS
            .iter()
            .filter(|t| has_representative_run(t.name))
            .count();
        assert_eq!(runs, 16, "every figure-style target");
        assert!(!has_representative_run("all"));
        assert!(!has_representative_run("fig2"));
        for sub in ["serve", "fingerprint", "resume", "bisect"] {
            assert!(takes_operands(sub) && !has_representative_run(sub));
        }
        assert!(!takes_operands("fig1") && !takes_operands("all"));
    }
}
