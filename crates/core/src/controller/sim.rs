//! The controlled fleet simulator: the epoch-based generalization of
//! the fleet dispatch walk, plus the one service estimator and the
//! controlled report with its transient/recovery metrics.
//!
//! [`walk`] is the one dispatch walk, with three callers:
//! [`crate::fleet::FleetSimulator`] runs it (through
//! [`simulate_controlled`]) with no controller, so the uncontrolled path
//! and the [`StaticController`] path are the same code, bit-identical by
//! construction; [`ControlledFleetSimulator`] runs it with a
//! [`ControllerConfig`] plus a live [`FleetController`]; and the fleet
//! DSE's screening surrogate ([`crate::dse::FleetDseEngine`]) runs it on
//! each candidate and reads every admitted frame's predicted finish
//! instead of simulating the chips.
//!
//! All three read single-frame service estimates from one lazy
//! [`Estimator`] keyed by (distinct workload, configuration): the fleet
//! simulator and the controller build one per run over a fresh context,
//! and the fleet DSE one per fusion level over its search context. A
//! controller prices configurations that a repartition creates mid-run
//! through the same estimator ([`ControlView::estimate`]).

use crate::controller::{
    ChipStatus, ChipTelemetry, ControlAction, ControlView, ControllerConfig, FleetController,
    ReconfigurationEvent,
};
use crate::ctx::{EvalContext, ScheduleKey};
use crate::dse::worker_panic_error;
use crate::error::HeraldError;
use crate::fleet::{
    distinct_workloads, AdmissionPolicy, ChipLoad, DispatchPolicy, Dispatcher, DroppedFrame,
    FleetConfig, FleetReport, FrameAssignment, FrameView, WalkRow, WorkloadIndex,
};
use crate::sched::{HeraldScheduler, IncrementalScheduler, Scheduler, SchedulerConfig};
use crate::sim::engine::{
    reject_chained, validate_scenario, EventKind, MergedTrace, RoutedScenario,
};
use crate::sim::{HotPathProfile, ReportMode, ReschedulePolicy, StreamReport, StreamSimulator};
use crate::task::TaskGraph;
use herald_arch::{AcceleratorConfig, AcceleratorStyle, HardwareResources};
use herald_cost::Metric;
use herald_workloads::Scenario;
use serde::Serialize;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

#[cfg(doc)]
use crate::controller::StaticController;

/// The run knobs a fleet simulator ([`crate::fleet::FleetSimulator`],
/// [`ControlledFleetSimulator`]) holds: the admission policy the walk
/// applies and the per-chip simulation knobs it carries into phase 2.
/// The defaults are the simulators' defaults.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WalkParams {
    pub(crate) scheduler: SchedulerConfig,
    pub(crate) metric: Metric,
    pub(crate) reschedule: ReschedulePolicy,
    pub(crate) admission: AdmissionPolicy,
    pub(crate) report: ReportMode,
}

/// Single-frame service estimates keyed by (distinct workload,
/// configuration): the one estimate surface of the dispatch walk, the
/// online controller and the fleet-DSE surrogate. Configurations are
/// interned by equality on first sight, so identical chips share a row
/// and a configuration that only comes into existence mid-run (a
/// scaled-up menu chip, a repartition candidate) simply adds one. A
/// cell is scheduled on its first read through the caller's scheduler,
/// with the given context's cost model and counters; a repeated read is
/// served from the table. A fleet run passes a bare
/// [`HeraldScheduler`], since it reads each cell's schedule once; the
/// fleet DSE passes an [`IncrementalScheduler`] over its search context,
/// so another estimator over that context is served from the context's
/// schedule memo. Either way the whole structure stays
/// bit-deterministic.
pub(crate) struct Estimator {
    pub(crate) graphs: Vec<TaskGraph>,
    pub(crate) workloads: WorkloadIndex,
    ctx: EvalContext,
    scheduler: Box<dyn Scheduler>,
    configs: RefCell<Vec<AcceleratorConfig>>,
    /// `cells[row * graphs.len() + workload]`, NaN until first read.
    cells: RefCell<Vec<f64>>,
}

impl Estimator {
    pub(crate) fn new(
        scenario: &Scenario,
        scheduler: Box<dyn Scheduler>,
        ctx: EvalContext,
    ) -> Self {
        let (distinct, workloads) = distinct_workloads(scenario);
        let graphs = distinct.iter().map(|w| TaskGraph::new(w)).collect();
        Self {
            graphs,
            workloads,
            ctx,
            scheduler,
            configs: RefCell::default(),
            cells: RefCell::default(),
        }
    }

    /// Find-or-insert the estimate row for a configuration.
    pub(crate) fn config_row(&self, config: &AcceleratorConfig) -> usize {
        let mut configs = self.configs.borrow_mut();
        if let Some(i) = configs.iter().position(|c| c == config) {
            return i;
        }
        configs.push(config.clone());
        // Exact growth keeps the table at 8 B per cell, as accounted.
        let mut cells = self.cells.borrow_mut();
        let len = cells.len() + self.graphs.len();
        cells.reserve_exact(self.graphs.len());
        cells.resize(len, f64::NAN);
        configs.len() - 1
    }

    /// Estimated single-frame service time of distinct workload `widx`
    /// on configuration row `row`, scheduling it on first use.
    pub(crate) fn rate(&self, row: usize, widx: usize) -> Result<f64, HeraldError> {
        let at = row * self.graphs.len() + widx;
        let v = self.cells.borrow()[at];
        if !v.is_nan() {
            return Ok(v);
        }
        let v = self
            .scheduler
            .schedule_and_simulate_with(
                &self.graphs[widx],
                &self.configs.borrow()[row],
                self.ctx.cost_model(),
                self.ctx.stats(),
            )?
            .total_latency_s();
        self.cells.borrow_mut()[at] = v;
        Ok(v)
    }

    /// Configuration rows interned so far.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.configs.borrow().len()
    }

    /// Bytes retained by the workload index and the estimate cells, for
    /// the walk's [`crate::sim::MemProfile`] accounting.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.workloads.memory_bytes()
            + (self.cells.borrow().capacity() * std::mem::size_of::<f64>()) as u64
    }
}

/// One contiguous run of a slot under one configuration. A slot starts
/// with a single segment; every applied [`ControlAction::Repartition`]
/// closes the current segment and opens a new one, so phase 2 can
/// simulate each configuration's frames separately and invalidate the
/// old configuration's schedule memos exactly at the seam.
struct Segment {
    config: AcceleratorConfig,
    label: String,
    /// Arrivals routed to this segment as one flat `(time, stream)`
    /// list in dispatch order — which is global event-key order
    /// restricted to this segment, so phase 2 can replay it directly
    /// (see [`RoutedScenario`]) without per-stream vectors.
    arrivals: Vec<(f64, u32)>,
    /// Index into the event log of the repartition that opened this
    /// segment (`None` for a slot's first segment), whose
    /// `memos_invalidated` the collector sets after phase 2.
    repart_event: Option<usize>,
    /// Schedule memos of the previous configuration that phase 2
    /// invalidated at this segment's seam.
    memos_invalidated: usize,
}

/// One stable chip identity across the run.
struct Slot {
    active: bool,
    /// Estimate row of the current configuration (meaningful only when
    /// the walk reads an [`Estimator`]).
    est_row: usize,
    segments: Vec<Segment>,
}

impl Slot {
    fn config(&self) -> &AcceleratorConfig {
        &self
            .segments
            .last()
            .expect("a slot always has at least one segment")
            .config
    }

    fn label(&self) -> &str {
        &self
            .segments
            .last()
            .expect("a slot always has at least one segment")
            .label
    }
}

/// Telemetry accumulator for the current control window of one
/// routable slot.
#[derive(Clone)]
struct WindowAcc {
    service_s: f64,
    frames: usize,
    deadline_frames: usize,
    predicted_misses: usize,
    per_stream: Vec<usize>,
}

impl WindowAcc {
    fn new(num_streams: usize) -> Self {
        Self {
            service_s: 0.0,
            frames: 0,
            deadline_frames: 0,
            predicted_misses: 0,
            per_stream: vec![0; num_streams],
        }
    }
}

fn rebuilt_slot_pos(route: &[usize], n_slots: usize) -> Vec<Option<usize>> {
    let mut sp = vec![None; n_slots];
    for (pos, &slot) in route.iter().enumerate() {
        sp[slot] = Some(pos);
    }
    sp
}

/// The dispatch walk's state, and once [`walk`] returns, its result:
/// the slots with their routed segments, the audit lists and the
/// controller's record.
pub(crate) struct Walk {
    slots: Vec<Slot>,
    /// Routable slots, indexed by chip position.
    route: Vec<usize>,
    /// Each slot's chip position (`None` once retired).
    slot_pos: Vec<Option<usize>>,
    /// Predicted load per chip position.
    loads: Vec<ChipLoad>,
    /// Control-window telemetry per chip position.
    wins: Vec<WindowAcc>,
    /// Controller pin per stream.
    pins: Vec<Option<usize>>,
    streams: Vec<WalkRow>,
    events: Vec<ReconfigurationEvent>,
    epochs: usize,
    /// `(stream, seq, arrival, slot, segment)` per routed frame, kept
    /// only under the audit trail.
    assignments: Vec<(usize, usize, f64, usize, usize)>,
    dropped: Vec<DroppedFrame>,
    dropped_total: usize,
}

impl Walk {
    fn new(
        fleet: &FleetConfig,
        est: Option<&Estimator>,
        scenario: &Scenario,
        controlled: bool,
    ) -> Self {
        let n = fleet.len();
        let num_streams = scenario.streams().len();
        let slots = fleet
            .chips()
            .iter()
            .enumerate()
            .map(|(i, c)| Slot {
                active: true,
                est_row: est.map_or(0, |e| e.config_row(c)),
                segments: vec![Segment {
                    config: c.clone(),
                    label: format!("chip{i}:{}", c.name()),
                    arrivals: Vec::new(),
                    repart_event: None,
                    memos_invalidated: 0,
                }],
            })
            .collect();
        let route: Vec<usize> = (0..n).collect();
        // Per-stream window counters only exist for a telemetry-driven
        // controller; the uncontrolled walk never reads them, so it must
        // not pay O(chips x streams) memory for them.
        let win_streams = if controlled { num_streams } else { 0 };
        Self {
            slots,
            slot_pos: rebuilt_slot_pos(&route, n),
            route,
            loads: vec![ChipLoad::default(); n],
            wins: vec![WindowAcc::new(win_streams); n],
            pins: vec![None; num_streams],
            // One row per stream: the current version's distinct workload
            // and the deadline, so an arrival reads neither a stream spec
            // nor a nested estimate table.
            streams: match est {
                Some(e) => e.workloads.walk_rows(scenario),
                None => scenario
                    .streams()
                    .iter()
                    .map(|s| WalkRow::deadline_only(s.deadline_s()))
                    .collect(),
            },
            events: Vec::new(),
            epochs: 0,
            assignments: Vec::new(),
            dropped: Vec::new(),
            dropped_total: 0,
        }
    }

    /// Runs every controller decision round due at or before `until`
    /// (none without a controller).
    fn run_boundaries(
        &mut self,
        until: f64,
        control: &mut Option<(&ControllerConfig, &mut dyn FleetController)>,
        est: Option<&Estimator>,
        scenario: &Scenario,
    ) -> Result<(), HeraldError> {
        let (Some((cfg, controller)), Some(estimator)) = (control, est) else {
            return Ok(());
        };
        while (self.epochs + 1) as f64 * cfg.cadence_s <= until {
            let epoch = self.epochs + 1;
            let t_k = epoch as f64 * cfg.cadence_s;
            self.process_boundary(t_k, epoch, cfg, &mut **controller, estimator, scenario)?;
            self.epochs = epoch;
        }
        Ok(())
    }

    /// Runs one controller decision round at boundary `t_k`: summarizes
    /// every routable slot's window, polls the controller, and validates
    /// and applies (or rejects and records) each returned action in
    /// order.
    fn process_boundary(
        &mut self,
        t_k: f64,
        epoch: usize,
        cfg: &ControllerConfig,
        controller: &mut dyn FleetController,
        estimator: &Estimator,
        scenario: &Scenario,
    ) -> Result<(), HeraldError> {
        let num_streams = scenario.streams().len();
        let cadence = cfg.cadence_s;
        let telemetry: Vec<ChipTelemetry> = self
            .route
            .iter()
            .enumerate()
            .map(|(pos, &slot)| {
                let win = std::mem::replace(&mut self.wins[pos], WindowAcc::new(num_streams));
                ChipTelemetry {
                    slot,
                    chip: self.slots[slot].label().to_string(),
                    utilization: win.service_s / cadence,
                    backlog_s: self.loads[pos].backlog_s(t_k),
                    window_frames: win.frames,
                    window_deadline_frames: win.deadline_frames,
                    window_predicted_misses: win.predicted_misses,
                    stream_frames: win.per_stream,
                }
            })
            .collect();
        let statuses: Vec<ChipStatus> = self
            .slots
            .iter()
            .enumerate()
            .map(|(slot, s)| ChipStatus {
                slot,
                name: s.label().to_string(),
                active: s.active,
                area_mm2: s.config().area_mm2(),
                config: s.config().clone(),
            })
            .collect();
        let active_area: f64 = statuses
            .iter()
            .filter(|s| s.active)
            .map(|s| s.area_mm2)
            .sum();
        let view = ControlView {
            now_s: t_k,
            epoch,
            cadence_s: cadence,
            chips: statuses,
            menu: &cfg.menu,
            max_area_mm2: cfg.max_area_mm2,
            active_area_mm2: active_area,
            pins: &self.pins,
            costs: cfg.costs(),
            estimator,
            streams: &self.streams,
        };
        let actions = controller.decide(&telemetry, &view)?;
        drop(view);

        let mut active_area = active_area;
        for action in actions {
            let record = |applied: bool, detail: String, cost_s: f64| ReconfigurationEvent {
                epoch,
                at_s: t_k,
                action: action.clone(),
                applied,
                detail,
                cost_s,
                memos_invalidated: 0,
            };
            let event = match action {
                ControlAction::ScaleUp { menu_chip } => {
                    if menu_chip >= cfg.menu.len() {
                        record(
                            false,
                            format!(
                                "menu index {menu_chip} out of range (menu has {} chips)",
                                cfg.menu.len()
                            ),
                            0.0,
                        )
                    } else {
                        let chip = &cfg.menu[menu_chip];
                        let area = chip.area_mm2();
                        if active_area + area > cfg.max_area_mm2 {
                            record(
                                false,
                                format!(
                                    "over area budget: {:.2} + {:.2} > {:.2} mm2",
                                    active_area, area, cfg.max_area_mm2
                                ),
                                0.0,
                            )
                        } else {
                            let slot = self.slots.len();
                            let label = format!("chip{slot}:{}@e{epoch}", chip.name());
                            self.slots.push(Slot {
                                active: true,
                                est_row: estimator.config_row(chip),
                                segments: vec![Segment {
                                    config: chip.clone(),
                                    label: label.clone(),
                                    arrivals: Vec::new(),
                                    repart_event: None,
                                    memos_invalidated: 0,
                                }],
                            });
                            self.route.push(slot);
                            self.loads.push(ChipLoad {
                                free_at_s: t_k + cfg.scale_up_cost_s,
                                dispatched: 0,
                            });
                            self.wins.push(WindowAcc::new(num_streams));
                            self.slot_pos = rebuilt_slot_pos(&self.route, self.slots.len());
                            active_area += area;
                            record(
                                true,
                                format!("added {label} ({area:.2} mm2)"),
                                cfg.scale_up_cost_s,
                            )
                        }
                    }
                }
                ControlAction::ScaleDown { slot } => {
                    if slot >= self.slots.len() || !self.slots[slot].active {
                        record(false, format!("slot {slot} is not live"), 0.0)
                    } else if self.route.len() <= 1 {
                        record(false, "cannot retire the last live chip".to_string(), 0.0)
                    } else {
                        let pos = self.slot_pos[slot].expect("active slot is routable");
                        let backlog = self.loads[pos].backlog_s(t_k);
                        self.slots[slot].active = false;
                        self.route.remove(pos);
                        self.loads.remove(pos);
                        self.wins.remove(pos);
                        self.slot_pos = rebuilt_slot_pos(&self.route, self.slots.len());
                        for pin in &mut self.pins {
                            if *pin == Some(slot) {
                                *pin = None;
                            }
                        }
                        active_area -= self.slots[slot].config().area_mm2();
                        record(
                            true,
                            format!(
                                "retired slot {slot}; predicted backlog {backlog:.4} s drains in place"
                            ),
                            0.0,
                        )
                    }
                }
                ControlAction::MigrateStream { stream, to_slot } => {
                    if stream >= num_streams {
                        record(false, format!("stream {stream} out of range"), 0.0)
                    } else if to_slot >= self.slots.len() || !self.slots[to_slot].active {
                        record(
                            false,
                            format!("destination slot {to_slot} is not live"),
                            0.0,
                        )
                    } else if self.pins[stream] == Some(to_slot) {
                        record(
                            false,
                            format!("stream {stream} is already pinned to slot {to_slot}"),
                            0.0,
                        )
                    } else {
                        self.pins[stream] = Some(to_slot);
                        let pos = self.slot_pos[to_slot].expect("active slot is routable");
                        let load = &mut self.loads[pos];
                        load.free_at_s = load.free_at_s.max(t_k) + cfg.migrate_cost_s;
                        record(
                            true,
                            format!(
                                "pinned stream {stream} ({}) to slot {to_slot}",
                                scenario.streams()[stream].name()
                            ),
                            cfg.migrate_cost_s,
                        )
                    }
                }
                ControlAction::Repartition {
                    slot,
                    ref partition,
                } => {
                    if slot >= self.slots.len() || !self.slots[slot].active {
                        record(false, format!("slot {slot} is not live"), 0.0)
                    } else if !matches!(self.slots[slot].config().style(), AcceleratorStyle::Hda(_))
                    {
                        record(false, format!("slot {slot} is not an HDA chip"), 0.0)
                    } else {
                        let cur = self.slots[slot].config().clone();
                        let res = HardwareResources::new(
                            cur.total_pes(),
                            cur.total_bandwidth_gbps(),
                            cur.global_buffer_bytes(),
                        );
                        let built = if cur.name() == "Maelstrom" {
                            AcceleratorConfig::maelstrom(res, partition.clone())
                        } else if let AcceleratorStyle::Hda(styles) = cur.style() {
                            AcceleratorConfig::hda(styles, res, partition.clone())
                        } else {
                            unreachable!("checked above")
                        };
                        match built {
                            Err(e) => record(false, format!("rejected split: {e}"), 0.0),
                            Ok(candidate) if candidate == cur => {
                                record(false, "partition unchanged".to_string(), 0.0)
                            }
                            Ok(candidate) => {
                                let pos = self.slot_pos[slot].expect("active slot is routable");
                                let label = format!("chip{slot}:{}@e{epoch}", candidate.name());
                                self.slots[slot].est_row = estimator.config_row(&candidate);
                                self.slots[slot].segments.push(Segment {
                                    config: candidate,
                                    label: label.clone(),
                                    arrivals: Vec::new(),
                                    repart_event: Some(self.events.len()),
                                    memos_invalidated: 0,
                                });
                                let load = &mut self.loads[pos];
                                load.free_at_s = load.free_at_s.max(t_k) + cfg.repartition_cost_s;
                                record(
                                    true,
                                    format!("re-split slot {slot} as {label}"),
                                    cfg.repartition_cost_s,
                                )
                            }
                        }
                    }
                }
            };
            self.events.push(event);
        }
        Ok(())
    }
}

/// Phase 1, the dispatch walk, over validated inputs (see the module
/// docs for its three callers). Every arrival of `scenario`, in global
/// event order, is routed to a chip position by a controller pin or by
/// `dispatcher`, and is dropped or admitted under `admission`. Each
/// arrival reads its workload's estimate on every routable chip from
/// `est`, which schedules a cell on its first read; with no estimator
/// no policy reads estimates, every estimate is zero and chip loads
/// never advance. `control`, when given, runs its decision rounds at
/// epoch boundaries in time order with the events and needs an
/// estimator. `on_admit` sees each admitted frame with its chip
/// position and its predicted finish.
pub(crate) fn walk(
    fleet: &FleetConfig,
    admission: AdmissionPolicy,
    dispatcher: &mut dyn Dispatcher,
    scenario: &Scenario,
    est: Option<&Estimator>,
    mut control: Option<(&ControllerConfig, &mut dyn FleetController)>,
    mut on_admit: impl FnMut(&FrameView<'_>, usize, f64),
) -> Result<Walk, HeraldError> {
    let controlled = control.is_some();
    let mut w = Walk::new(fleet, est, scenario, controlled);
    let zeros = vec![0.0f64; fleet.len()];
    let mut est_buf: Vec<f64> = Vec::new();
    for event in MergedTrace::new(scenario) {
        w.run_boundaries(event.t, &mut control, est, scenario)?;
        let seq = match event.kind {
            EventKind::Swap { .. } => {
                if let Some(e) = est {
                    w.streams[event.stream].swap(&e.workloads);
                }
                continue;
            }
            EventKind::Arrival { seq } => seq,
        };
        let row = w.streams[event.stream];
        let est_slice: &[f64] = match est {
            None => &zeros,
            Some(e) => {
                est_buf.clear();
                for &slot in &w.route {
                    est_buf.push(e.rate(w.slots[slot].est_row, row.workload as usize)?);
                }
                &est_buf
            }
        };
        let frame = FrameView {
            stream: event.stream,
            seq,
            arrival_s: event.t,
            deadline_s: row.deadline(),
            est_service_s: est_slice,
        };
        // Pinned streams bypass the dispatcher entirely (its internal
        // state does not advance for them); unpinned frames route
        // normally.
        let pos = match w.pins[event.stream].and_then(|slot| w.slot_pos[slot]) {
            Some(pos) => pos,
            None => {
                let pos = dispatcher.dispatch(&frame, &w.loads);
                if pos >= w.route.len() {
                    return Err(HeraldError::Fleet {
                        reason: format!(
                            "dispatcher {:?} chose chip {pos} of a {}-chip fleet",
                            dispatcher.name(),
                            w.route.len()
                        ),
                    });
                }
                pos
            }
        };
        // Predicted before this frame's own service time is queued.
        let finish = frame.predicted_finish_s(pos, &w.loads[pos]);
        if let (AdmissionPolicy::DeadlineSlack { slack }, Some(deadline)) =
            (admission, frame.deadline_s)
        {
            if finish > event.t + slack * deadline {
                w.dropped_total += 1;
                if fleet.audit_trail() {
                    w.dropped.push(DroppedFrame {
                        stream: event.stream,
                        seq,
                        arrival_s: event.t,
                        predicted_finish_s: finish,
                    });
                }
                continue;
            }
        }
        on_admit(&frame, pos, finish);
        if controlled {
            let win = &mut w.wins[pos];
            win.frames += 1;
            win.service_s += est_slice[pos];
            win.per_stream[event.stream] += 1;
            if let Some(d) = frame.deadline_s {
                win.deadline_frames += 1;
                if finish > event.t + d {
                    win.predicted_misses += 1;
                }
            }
        }
        if est.is_some() {
            let load = &mut w.loads[pos];
            load.free_at_s = load.free_at_s.max(event.t) + est_slice[pos];
        }
        w.loads[pos].dispatched += 1;
        let slot = w.route[pos];
        let segments = &mut w.slots[slot].segments;
        if fleet.audit_trail() {
            w.assignments
                .push((event.stream, seq, event.t, slot, segments.len() - 1));
        }
        segments
            .last_mut()
            .expect("a slot always has at least one segment")
            .arrivals
            .push((event.t, event.stream as u32));
    }
    // Trailing boundaries between the last event and the horizon still
    // produce telemetry (empty windows are meaningful — an autoscaler
    // uses them to scale back down) and keep the epoch count a pure
    // function of (horizon, cadence).
    w.run_boundaries(scenario.horizon_s(), &mut control, est, scenario)?;
    Ok(w)
}

/// The shared fleet run (see the module docs): validation, phase 1
/// ([`walk`]) and phase 2, the per-slot segment simulations. Phase 1
/// reads an [`Estimator`] over a fresh context when a controller, the
/// dispatcher or admission control needs estimates, and the estimator
/// is dropped before phase 2 starts. Returns the report beside the merged
/// [`HotPathProfile`] of every per-chip run plus the walk's own byte
/// accounting (`timed` additionally collects wall-clock phase timers,
/// phase 1's as `walk_ns`).
pub(crate) fn simulate_controlled(
    fleet: &FleetConfig,
    params: &WalkParams,
    dispatcher: &mut dyn Dispatcher,
    scenario: &Scenario,
    control: Option<(&ControllerConfig, &mut dyn FleetController)>,
    timed: bool,
) -> Result<(ControlledFleetReport, HotPathProfile), HeraldError> {
    if fleet.is_empty() {
        return Err(HeraldError::Fleet {
            reason: format!("fleet serving scenario {:?} has no chips", scenario.name()),
        });
    }
    if let AdmissionPolicy::DeadlineSlack { slack } = params.admission {
        if !(slack.is_finite() && slack > 0.0) {
            return Err(HeraldError::Fleet {
                reason: format!("admission slack must be positive and finite, got {slack}"),
            });
        }
    }
    validate_scenario(scenario)?;
    reject_chained(scenario, "the fleet controller's epoch walk")?;
    if let Some((c, _)) = &control {
        c.validate()?;
    }
    let controller_name = control
        .as_ref()
        .map_or_else(|| "static".to_string(), |(_, c)| c.name().to_string());
    let cadence = control.as_ref().map_or(0.0, |(c, _)| c.cadence_s);
    // Controllers that need no telemetry are never polled.
    let control = control.filter(|(_, c)| c.needs_telemetry());

    // Phase 1, timed as `walk_ns`: the walk is the run's trace source and
    // admission stage. It schedules each estimate cell on its first read.
    // The estimator serves this phase only: its byte count and the
    // distinct graphs that repartition seams invalidate outlive it, and
    // its context and cells are freed before the chip workers start. No
    // cell is scheduled twice, so it schedules without a memo.
    let walk_t0 = timed.then(Instant::now);
    let needs_estimates = control.is_some()
        || dispatcher.needs_estimates()
        || !matches!(params.admission, AdmissionPolicy::AcceptAll);
    let est = needs_estimates.then(|| {
        let scheduler = Box::new(HeraldScheduler::new(params.scheduler));
        Estimator::new(scenario, scheduler, EvalContext::new())
    });
    let mut w = walk(
        fleet,
        params.admission,
        dispatcher,
        scenario,
        est.as_ref(),
        control,
        |_, _, _| {},
    )?;
    let mut profile = HotPathProfile {
        walk_ns: walk_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
        ..Default::default()
    };
    profile.mem.estimate_bytes = est.as_ref().map_or(0, Estimator::memory_bytes);
    let inval_graphs: Vec<TaskGraph> = est.map_or_else(Vec::new, |e| e.graphs);

    // Phase 2, the commit stage: one worker per slot replays the slot's
    // segments in place (see [`replay_slot`]).
    let stream_names: Arc<Vec<String>> = Arc::new(
        scenario
            .streams()
            .iter()
            .map(|s| s.name().to_string())
            .collect(),
    );
    let base = RoutedScenario {
        name: scenario.name(),
        horizon_s: scenario.horizon_s(),
        streams: scenario.streams(),
        stream_names: &stream_names,
        arrivals: &[],
    };
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = w
            .slots
            .iter_mut()
            .map(|slot| {
                let (base, graphs) = (&base, &inval_graphs);
                scope.spawn(move || replay_slot(params, graphs, base, &mut slot.segments, timed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(worker_panic_error).and_then(|r| r))
            .collect()
    });

    // The collector: chip reports in slot order, then segment order, so a
    // slot's first chip index is the count of the segments before it.
    let (mut per_chip, mut chip_names) = (Vec::new(), Vec::new());
    let mut first_chip = Vec::with_capacity(w.slots.len());
    for (slot, run) in w.slots.into_iter().zip(runs) {
        let (reports, slot_profile) = run?;
        first_chip.push(per_chip.len());
        per_chip.extend(reports);
        profile.merge(&slot_profile);
        for seg in slot.segments {
            profile.mem.trace_bytes +=
                (seg.arrivals.capacity() * std::mem::size_of::<(f64, u32)>()) as u64;
            if let Some(ev) = seg.repart_event {
                w.events[ev].memos_invalidated = seg.memos_invalidated;
            }
            chip_names.push(seg.label);
        }
    }
    let assignments: Vec<FrameAssignment> = w
        .assignments
        .into_iter()
        .map(|(stream, seq, arrival_s, slot, seg)| FrameAssignment {
            stream,
            seq,
            arrival_s,
            chip: first_chip[slot] + seg,
        })
        .collect();
    profile.mem.audit_bytes += (assignments.capacity() * std::mem::size_of::<FrameAssignment>()
        + w.dropped.capacity() * std::mem::size_of::<DroppedFrame>())
        as u64;
    debug_assert!(w.dropped.is_empty() || w.dropped.len() == w.dropped_total);
    let fleet = FleetReport {
        scenario: scenario.name().to_string(),
        policy: dispatcher.name().to_string(),
        chip_names,
        stream_names,
        horizon_s: scenario.horizon_s(),
        per_chip,
        assignments,
        dropped: w.dropped,
        dropped_total: w.dropped_total,
    };
    Ok((
        ControlledFleetReport {
            controller: controller_name,
            cadence_s: cadence,
            epochs: w.epochs,
            events: w.events,
            fleet,
        },
        profile,
    ))
}

/// Phase 2's commit stage for one slot: replays its segments in order on
/// one private context, each as a [`RoutedScenario`] (the segment's flat
/// routed arrival list over the scenario's stream table) instead of a
/// per-stream `Trace` sub-`Scenario`. At every repartition seam it first
/// invalidates the outgoing configuration's schedule memos and records
/// how many in the incoming segment.
fn replay_slot(
    params: &WalkParams,
    graphs: &[TaskGraph],
    base: &RoutedScenario<'_>,
    segments: &mut [Segment],
    timed: bool,
) -> Result<(Vec<StreamReport>, HotPathProfile), HeraldError> {
    let ctx = EvalContext::new();
    let mut reports = Vec::with_capacity(segments.len());
    let mut profile = HotPathProfile::default();
    for k in 0..segments.len() {
        if k > 0 {
            let old = &segments[k - 1].config;
            let invalidated = graphs
                .iter()
                .filter(|graph| {
                    let key = ScheduleKey::new(graph, old, &params.scheduler, ctx.cost_model());
                    ctx.schedules().invalidate(&key)
                })
                .count();
            segments[k].memos_invalidated = invalidated;
        }
        let seg = &segments[k];
        let routed = RoutedScenario {
            arrivals: &seg.arrivals,
            ..*base
        };
        let sim = StreamSimulator::new(&seg.config, ctx.cost_model())
            .with_metric(params.metric)
            .with_policy(params.reschedule)
            .with_report_mode(params.report)
            .with_context(&ctx);
        let scheduler = HeraldScheduler::new(params.scheduler);
        let (report, seg_profile) = match params.reschedule {
            ReschedulePolicy::Incremental => {
                let inc = IncrementalScheduler::new(scheduler, ctx.clone());
                sim.run_routed(&inc, &routed, timed)?
            }
            ReschedulePolicy::FullReschedule => sim.run_routed(&scheduler, &routed, timed)?,
        };
        profile.merge(&seg_profile);
        reports.push(report);
    }
    Ok((reports, profile))
}

/// One window of the fleet-wide deadline-miss timeline (the transient
/// view a controlled run is judged on).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MissWindow {
    /// Window start (inclusive), seconds.
    pub t0_s: f64,
    /// Window end (exclusive), seconds.
    pub t1_s: f64,
    /// Completed deadline-carrying frames that arrived in the window.
    pub deadline_frames: usize,
    /// Deadline-miss rate over those frames (0 for an empty window).
    pub miss_rate: f64,
}

/// The outcome of a controlled fleet run: the merged [`FleetReport`]
/// plus the controller's audit trail (every decision, applied or
/// rejected) and windowed transient/recovery metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControlledFleetReport {
    pub(crate) controller: String,
    pub(crate) cadence_s: f64,
    pub(crate) epochs: usize,
    pub(crate) events: Vec<ReconfigurationEvent>,
    pub(crate) fleet: FleetReport,
}

impl ControlledFleetReport {
    /// Name of the controller policy that ran.
    #[must_use]
    pub fn controller(&self) -> &str {
        &self.controller
    }

    /// Control-epoch length, seconds (0 for an uncontrolled run).
    #[must_use]
    pub fn cadence_s(&self) -> f64 {
        self.cadence_s
    }

    /// Control epochs processed (boundaries at `k * cadence` up to the
    /// horizon; 0 when the controller never needed telemetry).
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Every controller decision, in decision order.
    #[must_use]
    pub fn events(&self) -> &[ReconfigurationEvent] {
        &self.events
    }

    /// Decisions the simulator actually applied.
    #[must_use]
    pub fn actions_applied(&self) -> usize {
        self.events.iter().filter(|e| e.applied).count()
    }

    /// Total reconfiguration cost charged to chips, seconds of busy
    /// time (rejected actions cost nothing).
    #[must_use]
    pub fn total_reconfiguration_cost_s(&self) -> f64 {
        // `Iterator::sum` over no elements yields -0.0; fold from +0.0
        // so a cost-free run prints (and serializes) as plain zero.
        self.events
            .iter()
            .filter(|e| e.applied)
            .fold(0.0, |acc, e| acc + e.cost_s)
    }

    /// The merged fleet outcome (chip entries are per *segment*: a
    /// repartitioned slot contributes one report per configuration it
    /// ran, labeled `chip<slot>:<name>@e<epoch>`).
    #[must_use]
    pub fn fleet(&self) -> &FleetReport {
        &self.fleet
    }

    /// Consumes the controlled wrapper, keeping the fleet outcome.
    #[must_use]
    pub fn into_fleet(self) -> FleetReport {
        self.fleet
    }

    /// Fleet-wide deadline-miss rate per window of `window_s` seconds
    /// across the scenario horizon, using the `[t0, t1)` arrival-window
    /// convention of [`FleetReport::miss_rate_between`].
    #[must_use]
    pub fn miss_timeline(&self, window_s: f64) -> Vec<MissWindow> {
        let horizon = self.fleet.horizon_s();
        if !(window_s > 0.0 && window_s.is_finite()) || horizon <= 0.0 {
            return Vec::new();
        }
        let n = (horizon / window_s).ceil() as usize;
        (0..n)
            .map(|k| {
                let t0 = k as f64 * window_s;
                let t1 = (k + 1) as f64 * window_s;
                MissWindow {
                    t0_s: t0,
                    t1_s: t1,
                    deadline_frames: self.fleet.deadline_frames_between(t0, t1),
                    miss_rate: self.fleet.miss_rate_between(t0, t1),
                }
            })
            .collect()
    }

    /// The worst window of [`ControlledFleetReport::miss_timeline`] —
    /// the transient depth (ties resolve to the earliest window).
    #[must_use]
    pub fn peak_window(&self, window_s: f64) -> Option<MissWindow> {
        self.miss_timeline(window_s).into_iter().max_by(|a, b| {
            a.miss_rate
                .total_cmp(&b.miss_rate)
                .then(b.t0_s.total_cmp(&a.t0_s))
        })
    }

    /// Recovery time after the transient peak: seconds from the start
    /// of the worst window to the start of the first window from which
    /// the miss rate stays at or below `threshold` for the rest of the
    /// run. `Some(0)` when the peak itself is within threshold; `None`
    /// when the fleet never recovers.
    #[must_use]
    pub fn recovery_s(&self, window_s: f64, threshold: f64) -> Option<f64> {
        let timeline = self.miss_timeline(window_s);
        let peak = timeline
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.miss_rate
                    .total_cmp(&b.miss_rate)
                    .then(b.t0_s.total_cmp(&a.t0_s))
            })
            .map(|(i, _)| i)?;
        if timeline[peak].miss_rate <= threshold {
            return Some(0.0);
        }
        let mut recovered_from = None;
        for i in (peak..timeline.len()).rev() {
            if timeline[i].miss_rate <= threshold {
                recovered_from = Some(i);
            } else {
                break;
            }
        }
        recovered_from.map(|i| timeline[i].t0_s - timeline[peak].t0_s)
    }
}

/// Simulates a [`FleetConfig`] serving a [`Scenario`] under a closed
/// control loop (see the [`crate::controller`] module docs). Mirrors
/// [`crate::fleet::FleetSimulator`]'s builder surface, plus the
/// [`ControllerConfig`] that drives the loop.
///
/// # Example
///
/// ```
/// use herald_arch::{AcceleratorClass, AcceleratorConfig};
/// use herald_core::controller::{ControlledFleetSimulator, ControllerConfig, ControllerPolicy};
/// use herald_core::fleet::{DispatchPolicy, FleetConfig};
/// use herald_dataflow::DataflowStyle;
/// use herald_workloads::diurnal_ramp_trace;
///
/// let chip = AcceleratorConfig::fda(
///     DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
/// let fleet = FleetConfig::homogeneous(&chip, 2);
/// let control = ControllerConfig::new(0.75, ControllerPolicy::autoscaler())
///     .with_menu(vec![chip.clone()])
///     .with_area_budget(4.0 * chip.area_mm2());
/// let scenario = diurnal_ramp_trace(2, 4.0, 12.0, 0.4, 3.0, 7);
/// let report = ControlledFleetSimulator::new(&fleet, &control)
///     .with_dispatcher(DispatchPolicy::LeastLoaded)
///     .simulate(&scenario)
///     .unwrap();
/// assert_eq!(report.controller(), "threshold-autoscaler");
/// assert_eq!(report.epochs(), 4);
/// ```
#[derive(Debug)]
pub struct ControlledFleetSimulator<'a> {
    fleet: &'a FleetConfig,
    control: &'a ControllerConfig,
    params: WalkParams,
    dispatcher: DispatchPolicy,
}

impl<'a> ControlledFleetSimulator<'a> {
    /// Creates a controlled fleet simulator with the same default knobs
    /// as [`crate::fleet::FleetSimulator`].
    pub fn new(fleet: &'a FleetConfig, control: &'a ControllerConfig) -> Self {
        Self {
            fleet,
            control,
            params: WalkParams::default(),
            dispatcher: DispatchPolicy::default(),
        }
    }

    /// Chooses how every per-chip report aggregates frames (see
    /// [`crate::sim::StreamSimulator::with_report_mode`]); fleet-level
    /// metrics merge per-chip sketches exactly.
    #[must_use]
    pub fn with_report_mode(mut self, report: ReportMode) -> Self {
        self.params.report = report;
        self
    }

    /// Overrides the per-chip online scheduler configuration.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.params.scheduler = scheduler;
        self
    }

    /// Overrides the metric used when a reconfigurable sub-accelerator
    /// picks its per-layer dataflow.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.params.metric = metric;
        self
    }

    /// Overrides the per-chip rescheduling policy (incremental by
    /// default).
    #[must_use]
    pub fn with_policy(mut self, policy: ReschedulePolicy) -> Self {
        self.params.reschedule = policy;
        self
    }

    /// Sets the dispatch policy (round-robin by default).
    #[must_use]
    pub fn with_dispatcher(mut self, dispatcher: DispatchPolicy) -> Self {
        self.dispatcher = dispatcher;
        self
    }

    /// Sets the admission policy (accept-all by default).
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.params.admission = admission;
        self
    }

    /// Runs the scenario under the configured policy's controller.
    ///
    /// # Errors
    ///
    /// Everything [`crate::fleet::FleetSimulator::simulate`] can
    /// return, plus [`HeraldError::Controller`] for degenerate
    /// controller knobs.
    pub fn simulate(&self, scenario: &Scenario) -> Result<ControlledFleetReport, HeraldError> {
        let mut dispatcher = self.dispatcher.build();
        let mut controller = self.control.policy.build();
        self.simulate_with(dispatcher.as_mut(), controller.as_mut(), scenario)
    }

    /// [`ControlledFleetSimulator::simulate`] plus the merged
    /// [`HotPathProfile`] of every per-chip run, the epoch walk's wall
    /// time (`profile.walk_ns`) and its own byte accounting
    /// (`profile.mem`). The report is bit-identical to the unprofiled
    /// entry point.
    ///
    /// # Errors
    ///
    /// As for [`ControlledFleetSimulator::simulate`].
    pub fn simulate_profiled(
        &self,
        scenario: &Scenario,
    ) -> Result<(ControlledFleetReport, HotPathProfile), HeraldError> {
        let mut dispatcher = self.dispatcher.build();
        let mut controller = self.control.policy.build();
        simulate_controlled(
            self.fleet,
            &self.params,
            dispatcher.as_mut(),
            scenario,
            Some((self.control, controller.as_mut())),
            true,
        )
    }

    /// Like [`ControlledFleetSimulator::simulate`] with caller-provided
    /// (possibly custom) dispatcher and controller. Both must be
    /// deterministic for the report to be reproducible.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ControlledFleetSimulator::simulate`].
    pub fn simulate_with(
        &self,
        dispatcher: &mut dyn Dispatcher,
        controller: &mut dyn FleetController,
        scenario: &Scenario,
    ) -> Result<ControlledFleetReport, HeraldError> {
        simulate_controlled(
            self.fleet,
            &self.params,
            dispatcher,
            scenario,
            Some((self.control, controller)),
            false,
        )
        .map(|(report, _)| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerPolicy;
    use crate::fleet::FleetSimulator;
    use herald_arch::{AcceleratorClass, Partition};
    use herald_cost::CostModel;
    use herald_dataflow::DataflowStyle;
    use herald_models::zoo;
    use herald_workloads::{single_model, StreamSpec};

    /// Replays a predefined decision list, one entry per epoch — the
    /// test harness for exercising each action path deterministically.
    struct Scripted {
        script: Vec<Vec<ControlAction>>,
        next: usize,
    }

    impl Scripted {
        fn new(script: Vec<Vec<ControlAction>>) -> Self {
            Self { script, next: 0 }
        }
    }

    impl FleetController for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn decide(
            &mut self,
            _telemetry: &[ChipTelemetry],
            _view: &ControlView<'_>,
        ) -> Result<Vec<ControlAction>, HeraldError> {
            let i = self.next;
            self.next += 1;
            Ok(self.script.get(i).cloned().unwrap_or_default())
        }
    }

    /// Asks the view for one stream's estimate on slot 0's configuration
    /// at every boundary and keeps the last answer.
    struct EstimateProbe {
        stream: usize,
        seen: Option<f64>,
    }

    impl FleetController for EstimateProbe {
        fn name(&self) -> &'static str {
            "estimate-probe"
        }

        fn decide(
            &mut self,
            _telemetry: &[ChipTelemetry],
            view: &ControlView<'_>,
        ) -> Result<Vec<ControlAction>, HeraldError> {
            self.seen = Some(view.estimate(self.stream, &view.chips[0].config)?);
            Ok(Vec::new())
        }
    }

    fn fda() -> AcceleratorConfig {
        AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources())
    }

    /// Deterministic overload: periodic arrivals well past one chip's
    /// capacity, so load-aware routing exercises every chip.
    fn periodic_scenario() -> Scenario {
        Scenario::new("ctl", 3.0)
            .stream(
                StreamSpec::periodic("cam", single_model(zoo::mobilenet_v1(), 1), 8.0)
                    .with_deadline(0.4),
            )
            .stream(
                StreamSpec::periodic("aux", single_model(zoo::mobilenet_v2(), 1), 4.0)
                    .with_deadline(0.6),
            )
    }

    fn run_scripted(
        fleet: &FleetConfig,
        cfg: &ControllerConfig,
        script: Vec<Vec<ControlAction>>,
        scenario: &Scenario,
    ) -> ControlledFleetReport {
        let mut dispatcher = DispatchPolicy::LeastLoaded.build();
        let mut controller = Scripted::new(script);
        ControlledFleetSimulator::new(fleet, cfg)
            .simulate_with(dispatcher.as_mut(), &mut controller, scenario)
            .unwrap()
    }

    #[test]
    fn flat_estimates_equal_direct_replays_per_stream_version_and_chip() {
        // Stream "a" runs four versions (one swap lies past the horizon
        // and opens none), "b" and "d" two each. Every workload but d's
        // second is shared with another stream or version, and no frame
        // arrives on that one: "d" sends its only frame at 0. Chips 0 and
        // 2 are identical, so they share one estimate row.
        let v1 = single_model(zoo::mobilenet_v1(), 1);
        let v2 = single_model(zoo::mobilenet_v2(), 1);
        let v1x2 = single_model(zoo::mobilenet_v1(), 2);
        let scenario = Scenario::new("swaps", 0.05)
            .stream(
                StreamSpec::periodic("a", v1.clone(), 100.0)
                    .with_deadline(0.03)
                    .swap_at(0.01, v2.clone())
                    .swap_at(0.02, v1x2.clone())
                    .swap_at(0.03, v1.clone())
                    .swap_at(0.5, v2.clone()),
            )
            .stream(StreamSpec::periodic("b", v2.clone(), 80.0).swap_at(0.025, v1))
            .stream(StreamSpec::poisson("c", v1x2, 60.0, 3))
            .stream(
                StreamSpec::periodic("d", v2, 10.0)
                    .swap_at(0.045, single_model(zoo::mobilenet_v2(), 2)),
            );
        let edge = AcceleratorClass::Edge.resources();
        let chips = [
            AcceleratorConfig::fda(DataflowStyle::Nvdla, edge),
            AcceleratorConfig::fda(DataflowStyle::ShiDianNao, edge),
            AcceleratorConfig::fda(DataflowStyle::Nvdla, edge),
        ];
        let scheduler = Box::new(HeraldScheduler::default());
        let est = Estimator::new(&scenario, scheduler, EvalContext::new());
        let mut rows = est.workloads.walk_rows(&scenario);
        let mut checked = 0;
        for (s, spec) in scenario.streams().iter().enumerate() {
            // The oracle: each version's workload straight from the spec,
            // replayed on its own graph, no deduplication.
            let versions = std::iter::once(spec.workload()).chain(
                spec.swaps()
                    .iter()
                    .filter(|sw| sw.at_s < scenario.horizon_s())
                    .map(|sw| &sw.workload),
            );
            for (k, workload) in versions.enumerate() {
                if k > 0 {
                    rows[s].swap(&est.workloads);
                }
                let w = est.workloads.workload(s, k);
                assert_eq!(rows[s].workload as usize, w, "stream {s} version {k}");
                assert_eq!(rows[s].deadline(), spec.deadline_s());
                let graph = TaskGraph::new(workload);
                for (c, chip) in chips.iter().enumerate() {
                    let direct = HeraldScheduler::default()
                        .schedule_and_simulate(&graph, chip, &CostModel::default())
                        .unwrap()
                        .total_latency_s();
                    let row = est.config_row(chip);
                    let at = (s, k, c);
                    assert_eq!(
                        est.rate(row, w).unwrap().to_bits(),
                        direct.to_bits(),
                        "{at:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, (4 + 2 + 1 + 2) * chips.len());
        // Four distinct workloads on two distinct configurations: one
        // index entry per (stream, version), one 8 B cell per pair.
        assert_eq!(est.rows(), 2);
        assert_eq!(
            est.memory_bytes(),
            ((scenario.streams().len() + 1 + 9) * 4 + 2 * 4 * 8) as u64
        );

        // A walk schedules only the cells it reads. Least-loaded reads
        // every arrival's workload on every chip, so the scheduler runs
        // once per (workload some frame arrives on, distinct chip), and
        // d's second version stays unscheduled. The oracle for the
        // workloads with arrivals is the simulated frames.
        let fleet = chips
            .iter()
            .fold(FleetConfig::new(), |f, c| f.chip(c.clone()));
        let ctx = EvalContext::new();
        let est = Estimator::new(&scenario, Box::new(HeraldScheduler::default()), ctx.clone());
        walk(
            &fleet,
            AdmissionPolicy::AcceptAll,
            DispatchPolicy::LeastLoaded.build().as_mut(),
            &scenario,
            Some(&est),
            None,
            |_, _, _| {},
        )
        .unwrap();
        let served: std::collections::HashSet<String> = FleetSimulator::new(&fleet)
            .with_dispatcher(DispatchPolicy::LeastLoaded)
            .simulate(&scenario)
            .unwrap()
            .per_chip()
            .iter()
            .flat_map(|r| r.frames())
            .map(|f| f.workload.to_string())
            .collect();
        assert_eq!(served.len(), 3, "{served:?}");
        assert_eq!(est.rows(), 2);
        assert_eq!(ctx.stats().scheduler_runs(), served.len() as u64 * 2);
        let unscheduled = est.cells.borrow().iter().filter(|v| v.is_nan()).count();
        assert_eq!(unscheduled, 2, "d's second version on both configurations");
    }

    #[test]
    fn estimates_of_unknown_streams_are_typed_errors() {
        let fleet = FleetConfig::homogeneous(&fda(), 2);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static);
        let scenario = periodic_scenario();
        let run = |stream: usize| {
            let mut dispatcher = DispatchPolicy::LeastLoaded.build();
            let mut probe = EstimateProbe { stream, seen: None };
            ControlledFleetSimulator::new(&fleet, &cfg)
                .simulate_with(dispatcher.as_mut(), &mut probe, &scenario)
                .map(|_| probe.seen)
        };
        let seen = run(1).unwrap();
        assert!(seen.is_some_and(|e| e > 0.0), "{seen:?}");
        match run(999) {
            Err(HeraldError::Controller { reason }) => {
                assert!(reason.contains("stream 999 of a 2-stream"), "{reason}");
            }
            other => panic!("expected a controller error, got {other:?}"),
        }
    }

    #[test]
    fn static_policy_is_bit_identical_to_the_uncontrolled_fleet() {
        let fleet = FleetConfig::homogeneous(&fda(), 2);
        let cfg = ControllerConfig::new(0.5, ControllerPolicy::Static);
        let scenario = periodic_scenario();
        for policy in DispatchPolicy::ALL {
            let plain = FleetSimulator::new(&fleet)
                .with_dispatcher(policy)
                .simulate(&scenario)
                .unwrap();
            let controlled = ControlledFleetSimulator::new(&fleet, &cfg)
                .with_dispatcher(policy)
                .simulate(&scenario)
                .unwrap();
            assert_eq!(controlled.controller(), "static");
            assert_eq!(
                controlled.epochs(),
                0,
                "static controllers are never polled"
            );
            assert!(controlled.events().is_empty());
            assert_eq!(controlled.fleet(), &plain, "{policy:?}");
        }
    }

    #[test]
    fn invalid_scale_ups_are_rejected_and_recorded() {
        let chip = fda();
        let fleet = FleetConfig::homogeneous(&chip, 2);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static)
            .with_menu(vec![chip.clone()])
            .with_area_budget(2.0 * chip.area_mm2());
        let report = run_scripted(
            &fleet,
            &cfg,
            vec![
                vec![ControlAction::ScaleUp { menu_chip: 0 }],
                vec![ControlAction::ScaleUp { menu_chip: 9 }],
            ],
            &periodic_scenario(),
        );
        assert_eq!(report.events().len(), 2);
        let over = &report.events()[0];
        assert!(!over.applied);
        assert!(over.detail.contains("over area budget"), "{}", over.detail);
        assert_eq!(over.cost_s, 0.0);
        let bad_menu = &report.events()[1];
        assert!(!bad_menu.applied);
        assert!(
            bad_menu.detail.contains("menu index"),
            "{}",
            bad_menu.detail
        );
        assert_eq!(report.actions_applied(), 0);
        assert_eq!(report.total_reconfiguration_cost_s(), 0.0);
        assert_eq!(report.fleet().chips(), 2);
    }

    #[test]
    fn applied_scale_up_adds_a_labeled_chip_that_serves_frames() {
        let chip = fda();
        let fleet = FleetConfig::homogeneous(&chip, 1);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static)
            .with_menu(vec![chip.clone()])
            .with_costs(0.001, 0.0, 0.0);
        let scenario = periodic_scenario();
        let report = run_scripted(
            &fleet,
            &cfg,
            vec![vec![ControlAction::ScaleUp { menu_chip: 0 }]],
            &scenario,
        );
        let ev = &report.events()[0];
        assert!(ev.applied, "{}", ev.detail);
        assert_eq!(ev.cost_s, 0.001);
        assert_eq!(report.actions_applied(), 1);
        let names = report.fleet().chip_names();
        assert_eq!(names.len(), 2);
        assert_eq!(names[1], "chip1:FDA-NVDLA@e1");
        // The scaled-up chip picks up post-boundary load...
        assert!(report.fleet().frames_on_chip(1) > 0);
        // ...and no frame is lost relative to the uncontrolled run.
        let plain = FleetSimulator::new(&fleet).simulate(&scenario).unwrap();
        assert_eq!(report.fleet().frames_total(), plain.frames_total());
    }

    #[test]
    fn migration_pins_the_stream_and_charges_the_destination() {
        let fleet = FleetConfig::homogeneous(&fda(), 2);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static).with_costs(0.0, 0.002, 0.0);
        let report = run_scripted(
            &fleet,
            &cfg,
            vec![
                vec![ControlAction::MigrateStream {
                    stream: 0,
                    to_slot: 1,
                }],
                vec![ControlAction::MigrateStream {
                    stream: 0,
                    to_slot: 1,
                }],
            ],
            &periodic_scenario(),
        );
        let ev = &report.events()[0];
        assert!(ev.applied, "{}", ev.detail);
        assert_eq!(ev.cost_s, 0.002);
        // Re-pinning to the same slot is a recorded no-op.
        let again = &report.events()[1];
        assert!(!again.applied);
        assert!(again.detail.contains("already pinned"), "{}", again.detail);
        // Every post-boundary frame of the pinned stream lands on the
        // destination, bypassing the dispatcher.
        let post: Vec<_> = report
            .fleet()
            .assignments()
            .iter()
            .filter(|a| a.stream == 0 && a.arrival_s >= 1.0)
            .collect();
        assert!(!post.is_empty());
        assert!(post.iter().all(|a| a.chip == 1));
    }

    #[test]
    fn scale_down_stops_routing_but_drains_in_place() {
        let fleet = FleetConfig::homogeneous(&fda(), 2);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static);
        let scenario = periodic_scenario();
        let report = run_scripted(
            &fleet,
            &cfg,
            vec![
                vec![ControlAction::ScaleDown { slot: 1 }],
                vec![ControlAction::ScaleDown { slot: 0 }],
            ],
            &scenario,
        );
        let ev = &report.events()[0];
        assert!(ev.applied, "{}", ev.detail);
        // The last live chip is protected.
        let last = &report.events()[1];
        assert!(!last.applied);
        assert!(last.detail.contains("last live chip"), "{}", last.detail);
        // Post-boundary frames all route to the survivor; the retired
        // chip keeps (drains) what it already had.
        assert!(report
            .fleet()
            .assignments()
            .iter()
            .filter(|a| a.arrival_s >= 1.0)
            .all(|a| a.chip == 0));
        assert!(report.fleet().frames_on_chip(1) > 0);
        let plain = FleetSimulator::new(&fleet).simulate(&scenario).unwrap();
        assert_eq!(report.fleet().frames_total(), plain.frames_total());
    }

    #[test]
    fn repartition_reshapes_the_chip_and_invalidates_its_memos() {
        let probe = fda();
        let (pes, bw) = (probe.total_pes(), probe.total_bandwidth_gbps());
        let res = AcceleratorClass::Edge.resources();
        let chip = AcceleratorConfig::maelstrom(res, Partition::even(2, pes, bw)).unwrap();
        let fleet = FleetConfig::homogeneous(&chip, 1);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static).with_costs(0.0, 0.0, 0.003);
        let p0 = 3 * pes / 4;
        let skew = Partition::new(
            vec![p0, pes - p0],
            vec![
                bw * f64::from(p0) / f64::from(pes),
                bw * f64::from(pes - p0) / f64::from(pes),
            ],
        )
        .unwrap();
        let report = run_scripted(
            &fleet,
            &cfg,
            vec![
                vec![ControlAction::Repartition {
                    slot: 0,
                    partition: skew.clone(),
                }],
                vec![ControlAction::Repartition {
                    slot: 0,
                    partition: skew,
                }],
            ],
            &periodic_scenario(),
        );
        let ev = &report.events()[0];
        assert!(ev.applied, "{}", ev.detail);
        assert_eq!(ev.cost_s, 0.003);
        assert!(
            ev.memos_invalidated > 0,
            "the outgoing configuration's schedule memos are dropped at the seam"
        );
        // Re-submitting the same split is a recorded no-op.
        let again = &report.events()[1];
        assert!(!again.applied);
        assert!(again.detail.contains("unchanged"), "{}", again.detail);
        // The slot contributes one report per configuration segment.
        assert_eq!(report.fleet().chips(), 2);
        assert_eq!(report.fleet().chip_names()[0], "chip0:Maelstrom");
        assert_eq!(report.fleet().chip_names()[1], "chip0:Maelstrom@e1");
        assert!(report.fleet().frames_on_chip(0) > 0);
        assert!(report.fleet().frames_on_chip(1) > 0);
    }

    #[test]
    fn repartition_of_a_single_dataflow_chip_is_rejected() {
        let probe = fda();
        let (pes, bw) = (probe.total_pes(), probe.total_bandwidth_gbps());
        let fleet = FleetConfig::homogeneous(&probe, 1);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static);
        let report = run_scripted(
            &fleet,
            &cfg,
            vec![vec![ControlAction::Repartition {
                slot: 0,
                partition: Partition::even(2, pes, bw),
            }]],
            &periodic_scenario(),
        );
        let ev = &report.events()[0];
        assert!(!ev.applied);
        assert!(ev.detail.contains("not an HDA chip"), "{}", ev.detail);
        assert_eq!(report.fleet().chips(), 1);
    }

    #[test]
    fn controlled_runs_are_repeat_identical() {
        let chip = fda();
        let fleet = FleetConfig::homogeneous(&chip, 1);
        let cfg = ControllerConfig::new(0.5, ControllerPolicy::autoscaler())
            .with_menu(vec![chip.clone()])
            .with_area_budget(3.0 * chip.area_mm2())
            .with_costs(0.001, 0.0005, 0.0005);
        let scenario = periodic_scenario();
        let run = || {
            ControlledFleetSimulator::new(&fleet, &cfg)
                .with_dispatcher(DispatchPolicy::LeastLoaded)
                .simulate(&scenario)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "a controlled run is a pure function of its inputs");
        assert_eq!(a.controller(), "threshold-autoscaler");
        assert!(a.epochs() > 0);
    }

    #[test]
    fn timers_never_change_the_work() {
        // Two HDA chips under the repartitioner, which re-splits a chip
        // mid-run: the untimed run does the timed run's work, counter
        // for counter, walk and seams included, and reports the same.
        let res = AcceleratorClass::Edge.resources();
        let chip =
            AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))
                .unwrap();
        let fleet = FleetConfig::homogeneous(&chip, 2);
        let cfg = ControllerConfig::new(0.05, ControllerPolicy::repartitioner())
            .with_menu(vec![chip.clone()])
            .with_area_budget(2.0 * chip.area_mm2());
        let scenario = herald_workloads::diurnal_ramp_trace(4, 100.0, 300.0, 0.02, 0.4, 7);
        let run = |timed| {
            let mut dispatcher = DispatchPolicy::LeastLoaded.build();
            let mut controller = cfg.policy.build();
            let control = Some((&cfg, controller.as_mut() as &mut dyn FleetController));
            let params = WalkParams::default();
            simulate_controlled(
                &fleet,
                &params,
                dispatcher.as_mut(),
                &scenario,
                control,
                timed,
            )
            .unwrap()
        };
        let ((report, untimed), (timed_report, timed)) = (run(false), run(true));
        assert_eq!(report, timed_report);
        assert!(report
            .events()
            .iter()
            .any(|e| e.applied && e.memos_invalidated > 0));
        assert!(timed.walk_ns > 0 && timed.run_ns > 0);
        let zeroed = HotPathProfile {
            compile_ns: 0,
            admit_ns: 0,
            run_ns: 0,
            harvest_ns: 0,
            walk_ns: 0,
            ..timed
        };
        assert_eq!(untimed, zeroed);
    }

    #[test]
    fn miss_timeline_windows_tile_the_horizon() {
        let fleet = FleetConfig::homogeneous(&fda(), 2);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static);
        let report = run_scripted(&fleet, &cfg, vec![], &periodic_scenario());
        let timeline = report.miss_timeline(1.0);
        assert_eq!(timeline.len(), 3);
        assert_eq!((timeline[0].t0_s, timeline[0].t1_s), (0.0, 1.0));
        // Every completed frame carries a deadline here, so the windows
        // partition the full frame population.
        let covered: usize = timeline.iter().map(|w| w.deadline_frames).sum();
        assert_eq!(covered, report.fleet().frames_total());
        let peak = report.peak_window(1.0).unwrap();
        assert!(timeline.iter().all(|w| w.miss_rate <= peak.miss_rate));
        // A threshold above the peak means "recovered from the start";
        // an impossible one means "never recovered" (overloaded fleet).
        assert_eq!(report.recovery_s(1.0, 1.0), Some(0.0));
        assert!(report.miss_timeline(0.0).is_empty());
        assert!(report.miss_timeline(f64::NAN).is_empty());
    }

    #[test]
    fn audit_trail_off_keeps_scalars_but_drops_per_frame_lists() {
        let chip = fda();
        let loud_fleet = FleetConfig::homogeneous(&chip, 2);
        let quiet_fleet = loud_fleet.clone().with_audit_trail(false);
        let cfg = ControllerConfig::new(1.0, ControllerPolicy::Static);
        let scenario = periodic_scenario();
        let sim = |fleet| {
            ControlledFleetSimulator::new(fleet, &cfg)
                .with_dispatcher(DispatchPolicy::DeadlineAware)
                .with_admission(AdmissionPolicy::DeadlineSlack { slack: 1.0 })
                .simulate(&scenario)
                .unwrap()
        };
        let loud = sim(&loud_fleet);
        let quiet = sim(&quiet_fleet);
        assert!(!loud.fleet().assignments().is_empty());
        assert!(quiet.fleet().assignments().is_empty());
        assert!(quiet.fleet().dropped().is_empty());
        assert_eq!(quiet.fleet().frames_total(), loud.fleet().frames_total());
        assert_eq!(quiet.fleet().dropped_total(), loud.fleet().dropped_total());
        assert_eq!(quiet.fleet().drop_rate(), loud.fleet().drop_rate());
        assert!(loud.fleet().dropped_total() > 0, "overload must shed load");
        assert_eq!(loud.fleet().dropped().len(), loud.fleet().dropped_total());
    }
}
