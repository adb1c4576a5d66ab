//! The single registry of `reproduce` targets.
//!
//! Every target is declared here once, as a row of [`TARGETS`] with a
//! one-line description taken from the experiment index (DESIGN §4). A
//! figure row holds its run, whether `all` runs it and the
//! [`Representative`] run its `--dashboard`, `fingerprint` and
//! `--checkpoint-every` record; a subcommand row holds the
//! [`Subcommand`] the binary matches on exhaustively. A figure row
//! without a run, or a subcommand without a handler, therefore does not
//! compile. `--help` and unknown-target errors print the generated list.

use crate::dashboard::Representative::{
    self, HadoopV1Terasort, SmrHistogramRatings, SmrTwoCrashes,
};
use crate::output::GnuplotFigure;
use crate::scale::Scale;
use crate::{
    ablation, ext_fair, ext_faults, ext_hetero, ext_load, ext_stragglers, fig1, fig3, fig4, fig5,
    fig6, fig7, fig89, model_check, summary,
};
use serde::Serialize;

/// One dispatchable `reproduce` target.
pub struct Target {
    pub name: &'static str,
    pub desc: &'static str,
    pub kind: Kind,
}

/// How the binary treats a target.
pub enum Kind {
    /// `all`: every figure row marked for it, in registry order.
    All,
    /// A figure-style target.
    Figure(Figure),
    /// A subcommand; the string names its positional operands.
    Sub(Subcommand, &'static str),
}

/// A figure-style target.
pub struct Figure {
    /// Whether `all` runs it.
    pub in_all: bool,
    /// The one recorded run its dashboard, fingerprint and capsule stream
    /// show.
    pub representative: Representative,
    /// Regenerates the figure at the given scale.
    pub run: fn(Scale) -> Output,
}

/// What a figure's run produces, before the binary adds the perf and
/// counter blocks.
pub struct Output {
    /// The plain-text rendering.
    pub text: String,
    /// The figure's data.
    pub json: serde_json::Value,
    /// The gnuplot figure of a line figure (fig1, fig5, fig6).
    pub plot: Option<GnuplotFigure>,
}

/// A subcommand: each has one handler in the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subcommand {
    Serve,
    Fingerprint,
    Resume,
    Bisect,
}

impl Target {
    /// The figure this row declares, if it is a figure row.
    pub fn figure(&self) -> Option<&Figure> {
        match &self.kind {
            Kind::Figure(fig) => Some(fig),
            _ => None,
        }
    }
}

/// A figure's rendering and data, and the gnuplot figure of a line figure.
fn report<T: Serialize>(
    data: T,
    render: fn(&T) -> String,
    plot: Option<fn(&T) -> GnuplotFigure>,
) -> Output {
    Output {
        text: render(&data),
        json: serde_json::to_value(&data).expect("serialise"),
        plot: plot.map(|plot| plot(&data)),
    }
}

const fn t(name: &'static str, kind: Kind, desc: &'static str) -> Target {
    Target { name, desc, kind }
}

const fn fig(in_all: bool, representative: Representative, run: fn(Scale) -> Output) -> Kind {
    Kind::Figure(Figure {
        in_all,
        representative,
        run,
    })
}

/// `all` runs the row.
const IN_ALL: bool = true;
/// Only naming the row runs it.
const ALONE: bool = false;

use Kind::{All, Sub};
use Subcommand::{Bisect, Fingerprint, Resume, Serve};

/// Every target, in help-display order.
#[rustfmt::skip]
pub const TARGETS: &[Target] = &[
    t("all", All, "fig1, fig3–fig9 and ext-hetero in turn (the default)"),
    t("fig1", fig(IN_ALL, HadoopV1Terasort, |s| report(fig1::run(s), fig1::render, Some(fig1::to_gnuplot))),
      "thrashing: map throughput vs map slots, Terasort/TermVector/Grep"),
    t("fig3", fig(IN_ALL, SmrHistogramRatings, |s| report(fig3::run(s), |d| {
          format!("{}\n{}", fig3::render(d), summary::render(&summary::headline_claims(d)))
      }, None)),
      "map/reduce/total time, 13 PUMA jobs on HadoopV1, YARN, SMapReduce"),
    t("fig4", fig(IN_ALL, SmrHistogramRatings, |s| report(fig4::run(s), fig4::render, None)),
      "progress % (0–200) over time, HistogramMovies"),
    t("fig5", fig(IN_ALL, SmrHistogramRatings, |s| report(fig5::run(s), fig5::render, Some(fig5::to_gnuplot))),
      "HistogramRatings map time vs initial map-slot config (1..8)"),
    t("fig6", fig(IN_ALL, SmrHistogramRatings, |s| report(fig6::run(s), fig6::render, Some(fig6::to_gnuplot))),
      "HistogramRatings throughput vs input size (50–250 GB)"),
    t("fig7", fig(IN_ALL, SmrHistogramRatings, |s| report(fig7::run(s), fig7::render, None)),
      "map time with/without thrashing detection and slow start"),
    t("fig8", fig(IN_ALL, SmrHistogramRatings, |s| report(fig89::run_fig8(s), |d| fig89::render(d, 8), None)),
      "4 concurrent Grep jobs, 5 s apart: mean and last-finish time"),
    t("fig9", fig(IN_ALL, SmrHistogramRatings, |s| report(fig89::run_fig9(s), |d| fig89::render(d, 9), None)),
      "as fig8, for InvertedIndex"),
    t("headline", fig(ALONE, SmrHistogramRatings, |s| report(summary::headline_claims(&fig3::run(s)), |c| summary::render(c), None)),
      "§V-A headline claims, derived from the fig3 run"),
    t("ablations", fig(ALONE, SmrHistogramRatings, |s| report(ablation::run(s), ablation::render, None)),
      "slot-manager knob sweeps on WordCount"),
    t("model-check", fig(ALONE, SmrHistogramRatings, |s| report(model_check::run(s), model_check::render, None)),
      "§III-B1 time-model equations vs simulation"),
    t("ext-hetero", fig(IN_ALL, SmrHistogramRatings, |s| report(ext_hetero::run(s), ext_hetero::render, None)),
      "extension (§VII): 8 strong + 8 weak workers"),
    t("ext-stragglers", fig(ALONE, SmrHistogramRatings, |s| report(ext_stragglers::run(s), ext_stragglers::render, None)),
      "extension: stragglers, task failures and speculation"),
    t("ext-fair", fig(ALONE, SmrHistogramRatings, |s| report(ext_fair::run(s), ext_fair::render, None)),
      "extension: FIFO vs Fair, 1×30 GB + 3×4 GB Grep"),
    t("ext-load", fig(ALONE, SmrHistogramRatings, |s| report(ext_load::run(s), ext_load::render, None)),
      "extension: sustained Poisson mixed load, batch vs interactive"),
    t("ext-faults", fig(ALONE, SmrTwoCrashes, |s| report(ext_faults::run(s), ext_faults::render, None)),
      "extension: transient node crashes and recovery"),
    t("serve", Sub(Serve, "[ADDR]"), "realtime NDJSON service over TCP (default 127.0.0.1:7700)"),
    t("fingerprint", Sub(Fingerprint, "<target>"), "a target's auditor fingerprint and hash-trace digest"),
    t("resume", Sub(Resume, "<CAPSULE.{json,bin}>"), "resume a capsule to completion"),
    t("bisect", Sub(Bisect, "<DIR_A> <DIR_B>"), "first divergent step of two streams' hash traces"),
];

/// The row named `name`, or the unknown-target error.
pub fn find(name: &str) -> Result<&'static Target, String> {
    TARGETS
        .iter()
        .find(|t| t.name == name)
        .ok_or_else(|| unknown(name))
}

/// The figures `all` runs, in order.
pub fn all() -> impl Iterator<Item = (&'static str, &'static Figure)> {
    TARGETS.iter().filter_map(|t| match t.figure() {
        Some(fig) if fig.in_all => Some((t.name, fig)),
        _ => None,
    })
}

/// The generated target list, for unknown-target errors and `--help`.
pub fn render_list() -> String {
    let head = |t: &Target| match t.kind {
        Sub(_, operands) => format!("{} {operands}", t.name),
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
fn unknown(name: &str) -> String {
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
        let msg = find("fig").err().expect("fig is no target");
        assert!(msg.contains("unknown target: fig"));
        assert!(msg.contains("did you mean"));
        assert!(msg.contains("fig1"));
        let msg = find("zzz").err().expect("zzz is no target");
        assert!(!msg.contains("did you mean"));
        assert!(msg.contains("bisect"));
    }

    #[test]
    fn all_and_representative_runs_derive_from_the_registry() {
        let all = all().map(|(name, _)| name).collect::<Vec<_>>().join(" ");
        assert_eq!(all, "fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ext-hetero");
        for t in TARGETS {
            match (&t.kind, t.name) {
                (Kind::All, "all")
                | (Kind::Sub(Subcommand::Serve, _), "serve")
                | (Kind::Sub(Subcommand::Fingerprint, _), "fingerprint")
                | (Kind::Sub(Subcommand::Resume, _), "resume")
                | (Kind::Sub(Subcommand::Bisect, _), "bisect") => {}
                // fig1 and ext-faults record a run of their own, every other
                // figure the paper's default workload under SMapReduce
                (Kind::Figure(fig), name) => {
                    let expected = match name {
                        "fig1" => HadoopV1Terasort,
                        "ext-faults" => SmrTwoCrashes,
                        _ => SmrHistogramRatings,
                    };
                    assert_eq!(fig.representative, expected, "{name}");
                }
                (_, name) => panic!("{name} is declared with the wrong kind"),
            }
        }
        assert!(find("fig2").is_err());
    }
}
