//! The physics of a step: **allocate** fixes every rate in force, the
//! **event horizon** finds how long they hold, and **integrate** advances
//! every task by exactly rate × dt. Also the periodic sample.

use super::{Derived, EngineState, Sim};
use crate::counters::Counter;
use crate::events::Event;
use crate::job::JobProfile;
use crate::task::ReducePhase;
use simgrid::cluster::NodeId;
use simgrid::network::{Flow, FlowId};
use simgrid::time::{EventHorizon, SimDuration};

#[derive(Debug, Clone, Copy)]
pub(crate) enum FlowPurpose {
    /// Remote input stream feeding the non-local map at this map row.
    MapRead(usize),
    /// Shuffle fetch of the reduce at this reduce row from a source node.
    Fetch(usize, NodeId),
}

/// One granted shuffle fetch: the reduce at reduce row `row` pulling from
/// source node `src` at `rate` MB/s. `contended` marks fetches granted
/// less than they demanded (fabric contention): their depletion frees
/// bandwidth other flows are queued for, so the adaptive horizon must cut
/// there even before the shuffle endgame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchPost {
    row: usize,
    src: NodeId,
    rate: f64,
    contended: bool,
}

/// The allocate phase's output: every piecewise-constant rate in force for
/// the coming step. The horizon phase reads these to find the next event;
/// the integrate phase advances every task by exactly `rate × dt`.
///
/// Rates are indexed by **row**: a task's position in its settled table
/// when the allocate phase ran. Nothing changes the tables between that
/// phase and the walks that read the rates (map completions are compacted
/// only after `advance_maps` has read its rows), so every consumer walks
/// its table and reads the rate at the same position — no lookup. The
/// vectors are recycled step over step: [`Sim::integrate`] consumes the
/// rates and hands their buffers back to the scratch.
pub(super) struct StepRates {
    /// Per-row node-contention scale (includes the management-stall
    /// factor): one entry per map row, then one per reduce row. A task on
    /// a down node scores 0.0.
    scales: Vec<f64>,
    /// Map rows when the scales were taken: the reduce at reduce row `r`
    /// has its scale at `map_rows + r`.
    map_rows: usize,
    /// Granted fabric bandwidth per map row (MB/s); 0.0 for a local map
    /// and for a remote one that got no flow.
    read_rates: Vec<f64>,
    /// Granted shuffle fetches, grouped by ascending reduce row, each
    /// group in ascending `src`.
    fetch_posts: Vec<FetchPost>,
    /// Offered CPU capacity rate (cores) while any job is active.
    cpu_offered_rate: f64,
    /// Granted CPU rate (cores) summed over running tasks.
    cpu_granted_rate: f64,
}

impl<'r> Sim<'r> {
    /// Allocate node contention scales and fabric bandwidth. `fixed_dt` is
    /// `Some(tick seconds)` in fixed mode, where flow demands are capped
    /// by what one tick can consume; the adaptive stepper passes `None`
    /// and expresses pure rates — exhaustion becomes an event-horizon cut
    /// instead of a per-step demand cap.
    pub(super) fn allocate_step(&mut self, fixed_dt: Option<f64>) -> StepRates {
        let sim_ms = self.st.now.as_millis();
        let (scales, cpu_offered_rate, cpu_granted_rate) =
            self.span("step", "allocate_nodes", sim_ms, |s| {
                s.allocate_nodes(fixed_dt.is_some())
            });
        let map_rows = self.st.running_maps.len();
        let mut flows = std::mem::take(&mut self.scratch.flows);
        let mut purposes = std::mem::take(&mut self.scratch.purposes);
        let mut sources = std::mem::take(&mut self.scratch.sources);
        let mut grants = std::mem::take(&mut self.scratch.rates);
        self.span("step", "network_allocate", sim_ms, |s| {
            flows.clear();
            purposes.clear();
            let (map_scales, reduce_scales) = scales.split_at(map_rows);
            s.build_flows_into(
                fixed_dt,
                map_scales,
                reduce_scales,
                &mut flows,
                &mut purposes,
                &mut sources,
            );
            let workers = s.st.trackers.len();
            s.derived
                .fabric
                .allocate_into(&flows, workers, &mut s.scratch.fabric, &mut grants);
        });

        // index flow grants by purpose: map reads by map row, fetches in
        // flow order, which groups them by ascending reduce row. A fetch
        // that got less than it asked for is *contended* — its depletion
        // frees fabric bandwidth others are waiting on, so it must be a
        // horizon event
        let mut read_rates = std::mem::take(&mut self.scratch.read_rates);
        let mut fetch_posts = std::mem::take(&mut self.scratch.fetch_posts);
        read_rates.clear();
        read_rates.resize(map_rows, 0.0);
        fetch_posts.clear();
        self.scratch.nic_in.fill(0.0);
        self.scratch.nic_out.fill(0.0);
        for ((flow, (fid, purpose)), &rate) in flows.iter().zip(&purposes).zip(&grants) {
            debug_assert_eq!(flow.id, *fid);
            self.scratch.nic_out[flow.src.0] += rate;
            self.scratch.nic_in[flow.dst.0] += rate;
            match *purpose {
                FlowPurpose::MapRead(row) => read_rates[row] = rate,
                FlowPurpose::Fetch(row, src) => fetch_posts.push(FetchPost {
                    row,
                    src,
                    rate,
                    contended: rate + 1e-9 < flow.demand,
                }),
            }
        }
        // a reduce's sources come backlog-first; its consumers apply them
        // in ascending `src`, and a group holds at most `shuffle_fetchers`
        for group in fetch_posts.chunk_by_mut(|a, b| a.row == b.row) {
            group.sort_unstable_by_key(|p| p.src);
        }
        self.scratch.flows = flows;
        self.scratch.purposes = purposes;
        self.scratch.sources = sources;
        self.scratch.rates = grants;
        StepRates {
            scales,
            map_rows,
            read_rates,
            fetch_posts,
            cpu_offered_rate,
            cpu_granted_rate,
        }
    }

    /// Per-row contention scales for every running task, including the
    /// management-overhead stall factor, plus the offered/granted CPU
    /// *rates* (integrated over the step length later): the carried
    /// [`NodeAlloc`](super::NodeAlloc) brought up to date, recomputing only the nodes an
    /// event marked since the last step. Debug builds then recompute
    /// every node and require the two to agree bit for bit, so a missing
    /// mark fails there.
    fn allocate_nodes(&mut self, fixed: bool) -> (Vec<f64>, f64, f64) {
        let any_active = self.st.jobs.iter().any(|j| j.is_active(self.st.now));
        let profiles = &self.derived.profiles;
        let nodes = &mut self.scratch.nodes;
        nodes.update(self.st, profiles, fixed, any_active);
        if cfg!(debug_assertions) {
            let seen = &mut self.scratch.nodes_check;
            seen.clear();
            seen.extend(nodes.bits());
            nodes.mark_all();
            nodes.update(self.st, profiles, fixed, any_active);
            assert!(
                nodes.bits().eq(seen.iter().copied()),
                "a node's allocation changed without a mark at {} ms",
                self.st.now.as_millis()
            );
        }
        let (granted, offered) = nodes.totals();
        (std::mem::take(&mut nodes.scales), offered, granted)
    }

    /// Construct this step's network flows: remote map reads and shuffle
    /// fetches (the latter capped by each reduce's merge throughput), at
    /// the per-row scales of the map and reduce tables. Appends into
    /// caller-owned (recycled) lists; both arrive empty.
    fn build_flows_into(
        &self,
        fixed_dt: Option<f64>,
        map_scales: &[f64],
        reduce_scales: &[f64],
        flows: &mut Vec<Flow>,
        purposes: &mut Vec<(FlowId, FlowPurpose)>,
        sources: &mut Vec<(NodeId, f64)>,
    ) {
        // each flow's id is its position
        let mut push = |src, dst, demand, purpose| {
            let id = FlowId(flows.len() as u64);
            flows.push(Flow {
                id,
                src,
                dst,
                demand,
            });
            purposes.push((id, purpose));
        };
        for (row, (id, t)) in self.st.running_maps.rows().iter().enumerate() {
            let Some(src) = t.remote_src else { continue };
            if t.input_remaining <= 1e-9 {
                continue;
            }
            if !self.st.node_up[src.0] || !self.st.node_up[t.node.0] {
                continue; // either endpoint dead: nothing flows
            }
            let profile = &self.derived.profiles[id.task.job.0];
            // input consumption rate implied by the granted work rate
            let work_rate = profile.map_rate * map_scales[row];
            let input_rate = if t.work_total > 0.0 {
                work_rate * t.input_mb / t.work_total
            } else {
                0.0
            };
            // fixed mode caps demand by what this tick can consume; the
            // adaptive stepper expresses the pure rate and relies on the
            // event horizon to cut the step at exhaustion
            let demand = match fixed_dt {
                Some(dt) => input_rate.min(t.input_remaining / dt),
                None => input_rate,
            };
            if demand <= 0.0 {
                continue;
            }
            push(src, t.node, demand, FlowPurpose::MapRead(row));
        }

        for (row, (rid, r)) in self.st.running_reduces.rows().iter().enumerate() {
            if r.phase != ReducePhase::Shuffle || !self.st.node_up[r.node.0] {
                continue;
            }
            let profile = &self.derived.profiles[rid.job.0];
            let job = &self.st.jobs[rid.job.0];
            let scale = reduce_scales[row];
            let mut budget = merge_rate(profile, job.shuffle.maps_all_done(), scale);
            // local copy consumes part of the budget without the fabric
            let local_rem = job.shuffle.remaining_from(r, r.node);
            if local_rem > 0.0 {
                let local_rate = match fixed_dt {
                    Some(dt) => (local_rem / dt).min(self.st.config.local_copy_rate),
                    None => self.st.config.local_copy_rate,
                };
                budget -= local_rate.min(budget);
            }
            job.shuffle.fetch_sources_into(
                r,
                &self.derived.source_sets[rid.job.0],
                profile.shuffle_fetchers as usize,
                sources,
            );
            sources.retain(|&(src, _)| src != r.node && self.st.node_up[src.0]);
            // adaptive mode splits the budget proportionally to each
            // source's remaining data, so every granted source depletes at
            // the *same* instant — one horizon event per drain instead of
            // one per source
            let remote_total: f64 = sources.iter().map(|s| s.1).sum();
            for &(src, rem) in sources.iter() {
                if budget <= 1e-9 {
                    continue;
                }
                let demand = match fixed_dt {
                    Some(dt) => {
                        let d = (rem / dt).min(budget);
                        budget -= d;
                        d
                    }
                    None => budget * rem / remote_total,
                };
                if demand <= 1e-9 {
                    continue;
                }
                push(src, r.node, demand, FlowPurpose::Fetch(row, src));
            }
        }
    }

    /// Earliest upcoming event at the rates fixed by [`Sim::allocate_step`]:
    /// the next heartbeat or sample boundary, a stall expiring, a job
    /// arriving, a map attempt finishing (or crossing its injected failure
    /// point), a shuffle source draining, or a sort/reduce phase ending.
    /// Advancing by exactly this duration loses no intermediate state
    /// because every integrator is piecewise-constant in between.
    pub(super) fn compute_horizon(&self, rates: &StepRates) -> SimDuration {
        let mut horizon =
            EventHorizon::new(self.st.now.until_next_multiple_of(self.st.config.heartbeat));
        // cascades of task events within one tick-width merge into a single
        // step: the integrators clamp the overshoot, so adaptive stepping
        // is never *less* precise about an event time than the fixed grid
        horizon.coalesce_events(self.st.config.tick.tick);
        horizon.propose(
            self.st
                .now
                .until_next_multiple_of(self.st.config.sample_period),
        );
        // crash/rejoin instants are exact events: the step lands on them
        if let Some(t) = self.st.config.fault_plan.next_transition_after(self.st.now) {
            horizon.propose(t.since(self.st.now));
        }

        for n in &self.scratch.stalled {
            let stall_ms = self.st.trackers[n.0].stall_ms;
            if stall_ms > 0 {
                horizon.propose(SimDuration::from_millis(stall_ms));
            }
        }
        for job in &self.st.jobs {
            if job.spec.submit_at > self.st.now {
                horizon.propose(job.spec.submit_at.since(self.st.now));
            }
        }

        let (map_scales, reduce_scales) = rates.scales.split_at(rates.map_rows);
        let maps = self.st.running_maps.rows();
        debug_assert_eq!(maps.len(), map_scales.len(), "scale rows out of step");
        for (row, (id, t)) in maps.iter().enumerate() {
            let profile = &self.derived.profiles[id.task.job.0];
            let work_rate = t.effective_work_rate(profile, map_scales[row], rates.read_rates[row]);
            if let Some(s) = t.time_to_completion(work_rate) {
                horizon.propose_secs(s);
            }
            if let Some(&fail_at) = self.st.failure_points.get(id) {
                if let Some(s) = t.time_to_progress(fail_at, work_rate) {
                    horizon.propose_secs(s);
                }
            }
        }

        let reduces = self.st.running_reduces.rows();
        debug_assert_eq!(reduces.len(), reduce_scales.len(), "scale rows out of step");
        let mut fetch_cursor = 0usize;
        for (row, (rid, r)) in reduces.iter().enumerate() {
            let profile = &self.derived.profiles[rid.job.0];
            let job = &self.st.jobs[rid.job.0];
            let scale = reduce_scales[row];
            match r.phase {
                ReducePhase::Shuffle => {
                    // pre-barrier, sources refill only at map completions —
                    // which are horizon events themselves — so draining one
                    // changes no rate anyone is waiting on unless the flow
                    // was fabric-contended. Post-barrier (endgame) every
                    // drain leads to the shuffle→sort transition and must
                    // cut the step.
                    let endgame = job.shuffle.maps_all_done();
                    let budget = merge_rate(profile, endgame, scale);
                    let local_rem = job.shuffle.remaining_from(r, r.node);
                    if endgame && local_rem > 0.0 {
                        horizon.propose_depletion(
                            local_rem,
                            self.st.config.local_copy_rate.min(budget),
                        );
                    }
                    // the posts are grouped by ascending reduce row and
                    // only shuffling reduces have any, so one forward
                    // cursor meets each group exactly when its row comes
                    while let Some(&p) =
                        rates.fetch_posts.get(fetch_cursor).filter(|p| p.row == row)
                    {
                        fetch_cursor += 1;
                        if endgame || p.contended {
                            horizon.propose_depletion(job.shuffle.remaining_from(r, p.src), p.rate);
                        }
                    }
                }
                ReducePhase::Sort | ReducePhase::Reduce => {
                    if let Some(s) = r.time_to_phase_completion(r.phase_rate(profile) * scale) {
                        horizon.propose_secs(s);
                    }
                }
                // completion is detected on the next integrate call
                ReducePhase::Done => horizon.propose(SimDuration::from_millis(1)),
            }
        }
        debug_assert_eq!(
            fetch_cursor,
            rates.fetch_posts.len(),
            "a fetch group went unread"
        );
        horizon.resolve()
    }

    /// Advance every piecewise-constant integrator by exactly `dt` at the
    /// rates [`Sim::allocate_step`] fixed.
    #[inline(never)]
    pub(super) fn integrate(&mut self, dt: f64, dt_ms: u64, rates: StepRates) {
        let sim_ms = self.st.now.as_millis();
        // fold this step's grants into the utilization sampler before any
        // task completes and releases its slot: the rates were computed
        // against step-start occupancy, so that is what the step sustains.
        // Down nodes integrate nothing — their timelines gap over the
        // outage.
        let nodes = &self.scratch.nodes;
        self.st.usage.accumulate_all(
            dt,
            &self.st.node_up,
            &nodes.node_cpu,
            &nodes.node_disk,
            &self.scratch.nic_in,
            &self.scratch.nic_out,
            &nodes.occ_map,
            &nodes.occ_reduce,
        );
        // map completions are compacted out before the reduces advance,
        // so the reduces read their scales at their own rows
        let (map_scales, reduce_scales) = rates.scales.split_at(rates.map_rows);
        self.span("step", "advance_maps", sim_ms, |s| {
            s.advance_maps(dt, map_scales, &rates.read_rates)
        });
        self.span("step", "advance_reduces", sim_ms, |s| {
            s.advance_reduces(dt, reduce_scales, &rates.fetch_posts)
        });

        self.st.cpu_offered_core_s += rates.cpu_offered_rate * dt;
        self.st.cpu_granted_core_s += rates.cpu_granted_rate * dt;

        // decay management stalls; a stall that decays changes its node's
        // stall factor
        let (trackers, nodes) = (&mut self.st.trackers, &mut self.scratch.nodes);
        self.scratch.stalled.retain(|&n| {
            let tr = &mut trackers[n.0];
            tr.stall_ms = tr.stall_ms.saturating_sub(dt_ms);
            nodes.mark(n);
            tr.stall_ms > 0
        });
        self.advance_rereplication(dt);
        // the next allocate phase reuses the rates' buffers
        self.scratch.nodes.scales = rates.scales;
        self.scratch.read_rates = rates.read_rates;
        self.scratch.fetch_posts = rates.fetch_posts;
    }

    /// Advance every map row at its scale and read rate, then retire the
    /// attempts that failed or finished and settle the table.
    fn advance_maps(&mut self, dt: f64, scales: &[f64], read_rates: &[f64]) {
        let mut done = std::mem::take(&mut self.scratch.maps_done);
        let mut failed = std::mem::take(&mut self.scratch.maps_failed);
        let profiles = &self.derived.profiles;
        let EngineState {
            running_maps,
            trackers,
            failure_points,
            network_mb,
            map_input_processed_mb,
            job_counters,
            ..
        } = &mut *self.st;
        let maps = running_maps.rows_mut();
        debug_assert_eq!(maps.len(), scales.len(), "scale rows out of step");
        for (row, (id, t)) in maps.iter_mut().enumerate() {
            let profile = &profiles[id.task.job.0];
            let mut work_step = profile.map_rate * scales[row] * dt;
            if t.remote_src.is_some() && t.input_remaining > 1e-9 {
                // input arrives over the network; cap work by delivery
                let delivered = read_rates[row] * dt;
                let arrived = delivered.min(t.input_remaining);
                *network_mb += arrived;
                job_counters[id.task.job.0].add(Counter::RemoteBytesRead, arrived);
                let work_cap = if t.input_mb > 0.0 {
                    delivered * t.work_total / t.input_mb
                } else {
                    work_step
                };
                work_step = work_step.min(work_cap);
            }
            let (consumed, _produced) = t.advance(work_step);
            trackers[t.node.0].meters.map_input.record(consumed);
            *map_input_processed_mb += consumed;
            job_counters[id.task.job.0].add(Counter::HdfsBytesRead, consumed);
            if let Some(&fail_at) = failure_points.get(id) {
                // reached_progress is the exact complement of the horizon's
                // time_to_progress, so a failure point landed on precisely
                // is never skipped (it used to be, one ulp under)
                if t.reached_progress(fail_at) {
                    failed.push(*id);
                    continue;
                }
            }
            if t.is_done() {
                done.push(*id);
            }
        }
        for &id in &failed {
            self.fail_map(id);
        }
        for &id in &done {
            self.complete_map(id);
        }
        self.settle_maps();
        failed.clear();
        done.clear();
        self.scratch.maps_failed = failed;
        self.scratch.maps_done = done;
    }

    /// Advance every reduce row at its scale and granted fetches, then
    /// retire the finished reduces and settle the table.
    fn advance_reduces(&mut self, dt: f64, scales: &[f64], fetch_posts: &[FetchPost]) {
        let mut done = std::mem::take(&mut self.scratch.reduces_done);
        let nodes = &mut self.scratch.nodes;
        let Derived {
            profiles,
            source_sets,
            ..
        } = &mut *self.derived;
        let EngineState {
            running_reduces,
            jobs,
            trackers,
            config: cfg,
            now,
            events,
            network_mb,
            job_counters,
            ..
        } = &mut *self.st;
        let reduces = running_reduces.rows_mut();
        debug_assert_eq!(reduces.len(), scales.len(), "scale rows out of step");
        let mut fetch_cursor = 0usize;
        for (row, (rid, r)) in reduces.iter_mut().enumerate() {
            let profile = &profiles[rid.job.0];
            let job = &jobs[rid.job.0];
            let scale = scales[row];
            let phase = r.phase;
            match r.phase {
                ReducePhase::Shuffle => {
                    let sets = &mut source_sets[rid.job.0];
                    // local copy first (no fabric), bounded by merge budget
                    let budget = merge_rate(profile, job.shuffle.maps_all_done(), scale) * dt;
                    let mut used = 0.0;
                    let local_rem = job.shuffle.remaining_from(r, r.node);
                    if local_rem > 0.0 {
                        let mb = local_rem.min(cfg.local_copy_rate * dt).min(budget);
                        if mb > 0.0 {
                            r.record_fetch(r.node, mb);
                            sets.fetched(&job.shuffle, r, r.node);
                            trackers[r.node.0].meters.shuffle.record(mb);
                            let c = &mut job_counters[rid.job.0];
                            c.add(Counter::ShuffleFetchedMb, mb);
                            c.add(Counter::SpilledRecords, mb);
                            used += mb;
                        }
                    }
                    // granted fabric fetches: this reduce's posts are the
                    // group at the cursor, in the ascending-source apply
                    // order the budget arithmetic depends on
                    while let Some(&p) = fetch_posts.get(fetch_cursor).filter(|p| p.row == row) {
                        fetch_cursor += 1;
                        debug_assert!(p.src != r.node, "no fetch flow targets its own node");
                        if p.rate <= 0.0 {
                            continue;
                        }
                        let rem = job.shuffle.remaining_from(r, p.src);
                        let mb = (p.rate * dt).min(rem).min((budget - used).max(0.0));
                        if mb > 0.0 {
                            r.record_fetch(p.src, mb);
                            sets.fetched(&job.shuffle, r, p.src);
                            trackers[r.node.0].meters.shuffle.record(mb);
                            *network_mb += mb;
                            let c = &mut job_counters[rid.job.0];
                            c.add(Counter::ShuffleFetchedMb, mb);
                            c.add(Counter::ShuffleRemoteMb, mb);
                            c.add(Counter::SpilledRecords, mb);
                            used += mb;
                        }
                    }
                    if job.shuffle.shuffle_complete(r, sets) {
                        let partition = job
                            .shuffle
                            .partition_mb()
                            .expect("barrier implies known partition");
                        r.finish_shuffle(partition, *now);
                        events.push(Event::ShuffleCompleted {
                            at: *now,
                            id: *rid,
                            partition_mb: partition,
                        });
                    }
                }
                ReducePhase::Sort | ReducePhase::Reduce => {
                    let work = r.phase_rate(profile) * scale * dt;
                    if r.advance_compute(work) {
                        done.push(*rid);
                    }
                }
                ReducePhase::Done => done.push(*rid),
            }
            // a phase sets the reduce's demand on its node
            if r.phase != phase {
                nodes.mark(r.node);
            }
        }
        debug_assert_eq!(fetch_cursor, fetch_posts.len(), "a fetch group went unread");
        for &rid in &done {
            self.complete_reduce(rid);
        }
        self.settle_reduces();
        done.clear();
        self.scratch.reduces_done = done;
    }

    pub(super) fn sample(&mut self) {
        let (mut map_slots, mut reduce_slots) = (0usize, 0usize);
        for t in self
            .st
            .trackers
            .iter()
            .filter(|t| self.st.node_up[t.node.0])
        {
            map_slots += t.map_slots.target();
            reduce_slots += t.reduce_slots.target();
        }
        let now = self.st.now;
        self.st.map_slot_series.push(now, map_slots as f64);
        self.st.reduce_slot_series.push(now, reduce_slots as f64);
        let sim_ms = now.as_millis();
        self.telem
            .counter_sample("map_slot_target", sim_ms, map_slots as f64);
        self.telem
            .counter_sample("reduce_slot_target", sim_ms, reduce_slots as f64);
        self.st.usage.sample(now);

        // per-job progress: map% + reduce% in [0, 200]
        let mut map_progress = std::mem::take(&mut self.scratch.map_progress);
        let mut reduce_progress = std::mem::take(&mut self.scratch.reduce_progress);
        map_progress.clear();
        map_progress.resize(self.st.jobs.len(), 0.0);
        reduce_progress.clear();
        reduce_progress.resize(self.st.jobs.len(), 0.0);
        // with speculation two attempts of one task may run; count the
        // task's best attempt, not the sum. `running_maps` is keyed by
        // (task, attempt), so a task's attempts are adjacent: fold each
        // run of them and add it in ascending task order (a fixed float
        // summation order, so the sums repeat bit for bit)
        let mut attempts = self.st.running_maps.rows().iter().peekable();
        while let Some((id, t)) = attempts.next() {
            let mut best = 0.0_f64.max(t.progress());
            while let Some((_, t)) = attempts.next_if(|(next, _)| next.task == id.task) {
                best = best.max(t.progress());
            }
            map_progress[id.task.job.0] += best;
        }
        for (id, t) in self.st.running_reduces.rows() {
            reduce_progress[id.job.0] += t.progress();
        }
        for (i, job) in self.st.jobs.iter_mut().enumerate() {
            if !job.is_submitted(now) {
                continue;
            }
            if job.is_finished() && job.progress.last().is_some_and(|(_, v)| v >= 200.0 - 1e-6) {
                // final 200% sample already recorded
                continue;
            }
            let mp = (job.completed_maps as f64 + map_progress[i]) / job.total_maps() as f64;
            let rp =
                (job.completed_reduces as f64 + reduce_progress[i]) / job.total_reduces() as f64;
            job.progress.push(now, (mp + rp) * 100.0);
        }
        self.scratch.map_progress = map_progress;
        self.scratch.reduce_progress = reduce_progress;
    }
}

/// A shuffling reduce's merge budget (MB/s) at contention `scale`, shared
/// across its sources. T_r2 > T_r1: it rises after the barrier (`endgame`).
#[inline]
fn merge_rate(profile: &JobProfile, endgame: bool, scale: f64) -> f64 {
    let boost = if endgame {
        profile.shuffle_barrier_boost
    } else {
        1.0
    };
    profile.shuffle_merge_rate * scale * boost
}
