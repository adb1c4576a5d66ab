//! Flight-recorder dashboards: converting a [`RunReport`] into the
//! renderer-agnostic [`DashboardSpec`] and producing the representative
//! recorded runs `reproduce` targets name.
//!
//! Figure sweeps run hundreds of engine instances with event recording
//! off, so the dashboard is built from one *representative* run — the
//! single configuration the figure is really about — re-run with
//! `record_events` on. Each figure row of [`crate::targets::TARGETS`]
//! names its [`Representative`]; there are three. The resulting HTML
//! (see [`telemetry::dashboard`]) shows the per-node Gantt of task
//! attempts, slot-occupancy and utilization timelines, the policy's
//! decision markers, the counter table and the auditor's verdict.

use crate::runner::{run_once, System};
use crate::scale::Scale;
use mapreduce::auditor::{audit, AuditSetup};
use mapreduce::events::Event;
use mapreduce::{EngineConfig, JobSpec, RunReport, Violation};
use simgrid::cluster::NodeId;
use simgrid::error::SimError;
use simgrid::metrics::TimeSeries;
use simgrid::time::{SimDuration, SimTime};
use simgrid::{FaultPlan, NodeFault};
use std::collections::HashMap;
use telemetry::dashboard::{
    render_dashboard, Chart, DashboardSpec, Lane, Marker, Series, SpanKind, SpanOutcome, TaskSpan,
};
use workloads::Puma;

/// The single recorded run a target's dashboard shows — also the run the
/// checkpoint tooling (`reproduce fingerprint`, `--checkpoint-every`)
/// captures and replays, so "the representative run of fig1" means the
/// same configuration everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representative {
    /// HadoopV1 on Terasort at the default slot configuration: Fig. 1 is
    /// HadoopV1's static thrashing curves, led by Terasort.
    HadoopV1Terasort,
    /// SMapReduce on HistogramRatings: the paper's default workload under
    /// the paper's system.
    SmrHistogramRatings,
    /// [`Representative::SmrHistogramRatings`] riding out two transient
    /// node crashes placed inside the fault-free run: the fault extension.
    SmrTwoCrashes,
}

/// Run `run` (events on), audit it, and render the dashboard HTML titled
/// for `target`.
pub fn render_for_target(
    target: &str,
    run: Representative,
    scale: Scale,
) -> Result<String, SimError> {
    let (cfg, jobs, system, subtitle) = representative(run, scale)?;
    let setup = AuditSetup::from_config(&cfg);
    let seed = cfg.seed;
    let report = run_once(&cfg, jobs, &system, seed)?;
    let violations = audit(&report, &setup);
    let spec = spec_from_run(
        &format!("{target} — cluster flight recorder"),
        &subtitle,
        &report,
        &violations,
    );
    Ok(render_dashboard(&spec))
}

/// The configuration, jobs, system and dashboard subtitle of `run`, with
/// event recording on.
pub fn representative(
    run: Representative,
    scale: Scale,
) -> Result<(EngineConfig, Vec<JobSpec>, System, String), SimError> {
    let mut cfg = EngineConfig::paper_default();
    cfg.record_events = true;
    let (bench, system) = match run {
        Representative::HadoopV1Terasort => (Puma::Terasort, System::HadoopV1),
        Representative::SmrHistogramRatings | Representative::SmrTwoCrashes => {
            (Puma::HistogramRatings, System::SMapReduce)
        }
    };
    let input = scale.input(bench.default_input_mb());
    let job = bench.job(0, input, 30, Default::default());
    let mut subtitle = format!(
        "{} · {} {:.0} GB",
        system.label(),
        bench.name(),
        input / 1024.0
    );
    match run {
        Representative::HadoopV1Terasort => {
            subtitle += &format!(" · {} workers", cfg.cluster.workers);
        }
        Representative::SmrHistogramRatings => {}
        Representative::SmrTwoCrashes => {
            cfg.rereplication_rate = 400.0;
            let baseline = {
                let mut quiet = cfg.clone();
                quiet.record_events = false;
                run_once(&quiet, vec![job.clone()], &system, quiet.seed)?
            };
            let m = baseline.makespan().as_secs_f64();
            // snap crash instants onto the 3 s heartbeat grid, as the
            // fault sweep does
            let snap = |t: f64| ((t * 1000.0) as u64 / 3000).max(1) * 3000;
            cfg.fault_plan = FaultPlan::new(vec![
                NodeFault::transient(
                    NodeId(1),
                    SimTime::from_millis(snap(m / 3.0)),
                    SimDuration::from_secs(120),
                ),
                NodeFault::transient(
                    NodeId(2),
                    SimTime::from_millis(snap(2.0 * m / 3.0)),
                    SimDuration::from_secs(120),
                ),
            ]);
            subtitle += " · 2 transient node crashes";
        }
    }
    subtitle += &format!(" · seed {}", cfg.seed);
    Ok((cfg, vec![job], system, subtitle))
}

/// Convert one audited run into the dashboard's generic spec.
pub fn spec_from_run(
    title: &str,
    subtitle: &str,
    report: &RunReport,
    violations: &[Violation],
) -> DashboardSpec {
    let t_end = report
        .jobs
        .iter()
        .map(|j| j.finished_at.as_secs_f64())
        .fold(0.0, f64::max);

    DashboardSpec {
        title: title.to_string(),
        subtitle: subtitle.to_string(),
        t_end,
        lanes: build_lanes(report, t_end),
        markers: build_markers(report),
        charts: build_charts(report),
        counters: report
            .counters
            .iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|(c, v)| (c.name().to_string(), fmt_counter(v)))
            .collect(),
        audited: true,
        violations: violations.iter().map(|v| v.to_string()).collect(),
    }
}

/// One Gantt lane per node, with task attempts reconstructed from the
/// event log and crash windows as outages.
fn build_lanes(report: &RunReport, t_end: f64) -> Vec<Lane> {
    let nodes = report.node_utilization.len();
    let mut lanes: Vec<Lane> = (0..nodes)
        .map(|n| Lane {
            label: format!("node {n}"),
            ..Lane::default()
        })
        .collect();
    if report.events.is_empty() {
        return lanes;
    }

    // Map attempts are keyed by (task, node): a task can retry on another
    // node, and a speculative sibling runs concurrently elsewhere.
    let mut open_maps: HashMap<(mapreduce::task::MapTaskId, usize), Vec<f64>> = HashMap::new();
    // One reduce attempt per partition at a time: (node, phase start,
    // still shuffling).
    let mut open_reduces: HashMap<mapreduce::task::ReduceTaskId, (usize, f64, bool)> =
        HashMap::new();
    let mut down_since: HashMap<usize, f64> = HashMap::new();

    let close_map = |lanes: &mut Vec<Lane>,
                     open: &mut HashMap<(mapreduce::task::MapTaskId, usize), Vec<f64>>,
                     at: SimTime,
                     id: mapreduce::task::MapTaskId,
                     node: NodeId,
                     outcome: SpanOutcome| {
        if let Some(starts) = open.get_mut(&(id, node.0)) {
            if let Some(start) = starts.pop() {
                lanes[node.0].spans.push(TaskSpan {
                    start,
                    end: at.as_secs_f64(),
                    kind: SpanKind::Map,
                    label: format!("j{} m{}", id.job.0, id.index),
                    outcome,
                });
            }
        }
    };

    for ev in report.events.events() {
        match *ev {
            Event::MapLaunched { at, id, node, .. } => {
                open_maps
                    .entry((id, node.0))
                    .or_default()
                    .push(at.as_secs_f64());
            }
            Event::MapCompleted { at, id, node, .. } => close_map(
                &mut lanes,
                &mut open_maps,
                at,
                id,
                node,
                SpanOutcome::Completed,
            ),
            Event::MapKilled { at, id, node } => close_map(
                &mut lanes,
                &mut open_maps,
                at,
                id,
                node,
                SpanOutcome::Killed,
            ),
            Event::MapFailed { at, id, node } => close_map(
                &mut lanes,
                &mut open_maps,
                at,
                id,
                node,
                SpanOutcome::Failed,
            ),
            Event::MapDiscarded { at, id, node } => close_map(
                &mut lanes,
                &mut open_maps,
                at,
                id,
                node,
                SpanOutcome::Discarded,
            ),
            Event::ReduceLaunched { at, id, node } => {
                open_reduces.insert(id, (node.0, at.as_secs_f64(), true));
            }
            Event::ShuffleCompleted { at, id, .. } => {
                if let Some((node, start, shuffling)) = open_reduces.get_mut(&id) {
                    lanes[*node].spans.push(TaskSpan {
                        start: *start,
                        end: at.as_secs_f64(),
                        kind: SpanKind::Shuffle,
                        label: format!("j{} r{}", id.job.0, id.partition),
                        outcome: SpanOutcome::Completed,
                    });
                    *start = at.as_secs_f64();
                    *shuffling = false;
                }
            }
            Event::ReduceCompleted { at, id, .. } => {
                if let Some((node, start, _)) = open_reduces.remove(&id) {
                    lanes[node].spans.push(TaskSpan {
                        start,
                        end: at.as_secs_f64(),
                        kind: SpanKind::Reduce,
                        label: format!("j{} r{}", id.job.0, id.partition),
                        outcome: SpanOutcome::Completed,
                    });
                }
            }
            Event::ReduceKilled { at, id, .. } => {
                if let Some((node, start, shuffling)) = open_reduces.remove(&id) {
                    lanes[node].spans.push(TaskSpan {
                        start,
                        end: at.as_secs_f64(),
                        kind: if shuffling {
                            SpanKind::Shuffle
                        } else {
                            SpanKind::Reduce
                        },
                        label: format!("j{} r{}", id.job.0, id.partition),
                        outcome: SpanOutcome::Killed,
                    });
                }
            }
            Event::NodeCrashed { at, node } => {
                down_since.insert(node.0, at.as_secs_f64());
            }
            Event::NodeRejoined { at, node } => {
                if let Some(since) = down_since.remove(&node.0) {
                    lanes[node.0].outages.push((since, at.as_secs_f64()));
                }
            }
            _ => {}
        }
    }
    // Anything still open when the log ends (shouldn't happen in a
    // completed run, but the dashboard should draw it, not drop it).
    for ((id, node), starts) in open_maps {
        for start in starts {
            lanes[node].spans.push(TaskSpan {
                start,
                end: t_end,
                kind: SpanKind::Map,
                label: format!("j{} m{}", id.job.0, id.index),
                outcome: SpanOutcome::Running,
            });
        }
    }
    for (id, (node, start, shuffling)) in open_reduces {
        lanes[node].spans.push(TaskSpan {
            start,
            end: t_end,
            kind: if shuffling {
                SpanKind::Shuffle
            } else {
                SpanKind::Reduce
            },
            label: format!("j{} r{}", id.job.0, id.partition),
            outcome: SpanOutcome::Running,
        });
    }
    for (node, since) in down_since {
        lanes[node].outages.push((since, t_end));
    }
    for lane in &mut lanes {
        lane.spans
            .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite span times"));
    }
    lanes
}

fn build_markers(report: &RunReport) -> Vec<Marker> {
    report
        .decisions
        .iter()
        .map(|d| Marker {
            t: d.at.as_secs_f64(),
            label: match d.f {
                Some(f) => format!(
                    "{} (f={:.2}, Rs={:.1}, Rm={:.1}) → {}m/{}r",
                    d.decision, f, d.rs, d.rm, d.map_target, d.reduce_target
                ),
                None => format!(
                    "{} (Rs={:.1}, Rm={:.1}) → {}m/{}r",
                    d.decision, d.rs, d.rm, d.map_target, d.reduce_target
                ),
            },
        })
        .collect()
}

fn build_charts(report: &RunReport) -> Vec<Chart> {
    let mut charts = Vec::new();
    if !report.map_slot_series.is_empty() || !report.reduce_slot_series.is_empty() {
        charts.push(Chart {
            title: "Cluster slot targets".into(),
            unit: "slots".into(),
            y_max: None,
            show_markers: true,
            series: vec![
                Series {
                    label: "map target".into(),
                    points: ts_points(&report.map_slot_series),
                },
                Series {
                    label: "reduce target".into(),
                    points: ts_points(&report.reduce_slot_series),
                },
            ],
        });
    }
    let per_node = |title: &str,
                    unit: &str,
                    y_max: Option<f64>,
                    show_markers: bool,
                    pick: &dyn Fn(&simgrid::usage::NodeUtilization) -> &TimeSeries|
     -> Option<Chart> {
        let series: Vec<Series> = report
            .node_utilization
            .iter()
            .filter(|u| !pick(u).is_empty())
            .map(|u| Series {
                label: format!("node {}", u.node),
                points: ts_points(pick(u)),
            })
            .collect();
        if series.is_empty() {
            return None;
        }
        Some(Chart {
            title: title.into(),
            unit: unit.into(),
            y_max,
            show_markers,
            series,
        })
    };
    charts.extend(
        [
            per_node("Map-slot occupancy", "slots", None, true, &|u| {
                &u.map_occupied
            }),
            per_node("Reduce-slot occupancy", "slots", None, true, &|u| {
                &u.reduce_occupied
            }),
            per_node("CPU utilization", "of capacity", Some(1.0), false, &|u| {
                &u.cpu
            }),
            per_node("Disk utilization", "of capacity", Some(1.0), false, &|u| {
                &u.disk
            }),
            per_node(
                "Network utilization",
                "of capacity",
                Some(1.0),
                false,
                &|u| &u.nic,
            ),
        ]
        .into_iter()
        .flatten(),
    );
    charts
}

fn ts_points(ts: &TimeSeries) -> Vec<(f64, f64)> {
    ts.points()
        .iter()
        .map(|&(t, v)| (t.as_secs_f64(), v))
        .collect()
}

fn fmt_counter(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::time::SimTime;

    fn recorded_run() -> (RunReport, AuditSetup) {
        let mut cfg = EngineConfig::small_test(4, 7);
        cfg.record_events = true;
        let setup = AuditSetup::from_config(&cfg);
        let job = Puma::Terasort.job(0, 1024.0, 8, SimTime::ZERO);
        let seed = cfg.seed;
        let report = run_once(&cfg, vec![job], &System::SMapReduce, seed).expect("runs clean");
        (report, setup)
    }

    #[test]
    fn spec_reconstructs_the_run() {
        let (report, setup) = recorded_run();
        let violations = audit(&report, &setup);
        let spec = spec_from_run("test run", "SMapReduce", &report, &violations);
        assert_eq!(spec.lanes.len(), 4);
        let spans: usize = spec.lanes.iter().map(|l| l.spans.len()).sum();
        // every launched attempt produced ≥1 span; reduces produce 2
        let launched = report.counters.get(mapreduce::Counter::TotalLaunchedMaps)
            + report
                .counters
                .get(mapreduce::Counter::TotalLaunchedReduces);
        assert!(
            spans as f64 >= launched,
            "{spans} spans for {launched} launches"
        );
        assert!(spec
            .charts
            .iter()
            .any(|c| c.title == "Cluster slot targets"));
        assert!(spec.charts.iter().any(|c| c.title == "CPU utilization"));
        assert!(!spec.markers.is_empty(), "SMapReduce decides at runtime");
        assert!(!spec.counters.is_empty());
        assert!(spec.audited && spec.violations.is_empty());
        // spans fit the run and are ordered per lane
        for lane in &spec.lanes {
            for w in lane.spans.windows(2) {
                assert!(w[0].start <= w[1].start);
            }
            for s in &lane.spans {
                assert!(s.start <= s.end && s.end <= spec.t_end + 1e-9);
                assert_eq!(s.outcome, SpanOutcome::Completed, "clean run: {:?}", s);
            }
        }
        let html = render_dashboard(&spec);
        assert!(html.contains("auditor: all invariants hold"));
    }

    #[test]
    fn fig1_dashboard_renders_clean() {
        let html = render_for_target("fig1", Representative::HadoopV1Terasort, Scale::Quick)
            .expect("fig1 dashboard");
        assert!(html.contains("<svg class=\"gantt\""));
        assert!(html.contains("HadoopV1"));
        assert!(html.contains("auditor: all invariants hold"));
    }

    #[test]
    fn ext_faults_dashboard_shows_crashes() {
        let html = render_for_target("ext-faults", Representative::SmrTwoCrashes, Scale::Quick)
            .expect("ext-faults dashboard");
        assert!(html.contains("class=\"outage\""), "crash windows drawn");
        assert!(html.contains("auditor: all invariants hold"));
        assert!(html.contains('\u{2715}'), "crash-killed attempts marked");
    }
}
