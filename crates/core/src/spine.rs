//! The event spine: the one place that knows which sink hears which fact.
//!
//! The engine states each fact of a run once, through one method of
//! [`Sinks`]; the method fans it out to counters, step observer, obs
//! histograms, trace and schedule recorder in a fixed order
//! (the fact → sinks table is DESIGN.md §5). Counters a single sink hears
//! (broadcasts, skips, drops, adversary messages) have no entry: the engine
//! bumps them on [`Sinks::metrics`] directly.

use crate::adversary::Fate;
use crate::config::RunConfig;
use crate::engine::StepObserver;
use crate::error::SimError;
use crate::ids::{NodeId, NodeSet};
use crate::message::Message;
use crate::metrics::{MetricsCollector, RunResult};
use crate::obs::{ObsConfig, ObsRecorder};
use crate::scheduler::SchedulerStats;
use crate::smallstr::SmallStr;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceKind, TraceLevel};
use crate::validator::DeliverySchedule;
use crate::value::Value;
use std::borrow::Cow;

/// Every consumer of run facts, owned in one place.
pub(crate) struct Sinks {
    pub(crate) metrics: MetricsCollector,
    trace: Trace,
    obs: Option<ObsRecorder>,
    observer: Option<Box<dyn StepObserver>>,
    recorder: Option<DeliverySchedule>,
}

/// A message a node addressed to itself never touches the wire, so it is
/// kept out of the sent and delivered counters (see [`RunResult`]'s message
/// accounting). Adversary-injected messages always count.
fn is_self_delivery(msg: &Message) -> bool {
    msg.src() == msg.dst() && !msg.is_injected()
}

impl Sinks {
    pub(crate) fn new(
        cfg: &RunConfig,
        observer: Option<Box<dyn StepObserver>>,
        obs: Option<ObsConfig>,
    ) -> Result<Self, SimError> {
        Ok(Sinks {
            metrics: MetricsCollector::with_expected_decisions(cfg.n, cfg.target_decisions),
            trace: Trace::at(cfg.trace),
            obs: obs.map(|o| ObsRecorder::new(cfg.n, o)).transpose()?,
            observer,
            recorder: None,
        })
    }

    /// Turns the schedule recorder on (see [`Sinks::fate`]).
    pub(crate) fn record_schedule(&mut self) {
        self.recorder = Some(DeliverySchedule::new());
    }

    /// Stores one event in the trace when the run keeps `level`; `kind` is
    /// built only then.
    #[inline]
    fn log(
        &mut self,
        level: TraceLevel,
        time: SimTime,
        node: NodeId,
        kind: impl FnOnce() -> TraceKind,
    ) {
        if self.trace.keeps(level) {
            self.trace.record(time, node, &kind());
        }
    }

    /// An honest node put `msg` on its way, before the network decides.
    #[inline]
    pub(crate) fn sent(&mut self, now: SimTime, msg: &Message) {
        if !is_self_delivery(msg) {
            self.metrics.count_honest_message(msg.src());
        }
        self.log(TraceLevel::Messages, now, msg.src(), || TraceKind::Sent {
            dst: msg.dst(),
            payload_type: msg.payload().payload_type().into(),
        });
    }

    /// An event survived the skip checks and is about to be dispatched.
    /// Counter and observer move in lockstep (the metrics-sanity oracle
    /// cross-checks them).
    #[inline]
    pub(crate) fn dispatched(&mut self, now: SimTime) {
        self.metrics.count_event();
        if let Some(observer) = &mut self.observer {
            observer.on_event(now);
        }
    }

    /// `msg` reached its (live) destination.
    #[inline]
    pub(crate) fn delivered(&mut self, now: SimTime, msg: &Message) {
        if !is_self_delivery(msg) {
            self.metrics.count_delivery(msg.dst());
            if let Some(obs) = &mut self.obs {
                obs.on_delivered(now, msg);
            }
        }
        self.log(TraceLevel::Messages, now, msg.dst(), || {
            TraceKind::Delivered {
                src: msg.src(),
                payload_type: msg.payload().payload_type().into(),
            }
        });
    }

    /// `node` decided `value` for its next slot.
    #[inline]
    pub(crate) fn decided(&mut self, now: SimTime, node: NodeId, value: Value, excluded: &NodeSet) {
        let slot = self.metrics.record_decision(node, now, value, excluded);
        if let Some(observer) = &mut self.observer {
            observer.on_decision(now, node, slot, value);
        }
        if let Some(obs) = &mut self.obs {
            obs.on_decided(now, node);
        }
        self.log(TraceLevel::Decisions, now, node, || TraceKind::Decided {
            slot,
            value,
        });
        self.metrics.update_completions(now, excluded);
    }

    /// `node` entered `view`.
    #[inline]
    pub(crate) fn view(&mut self, now: SimTime, node: NodeId, view: u64) {
        if let Some(obs) = &mut self.obs {
            obs.on_view(now, view);
        }
        self.log(TraceLevel::Events, now, node, || TraceKind::View { view });
    }

    /// `node` reported a protocol-defined event.
    #[inline]
    pub(crate) fn custom(
        &mut self,
        now: SimTime,
        node: NodeId,
        label: Cow<'static, str>,
        detail: SmallStr,
    ) {
        self.log(TraceLevel::Events, now, node, || TraceKind::Custom {
            label,
            detail,
        });
    }

    /// The adversary corrupted (or else crashed) `node`, which `excluded`
    /// already contains, so slots may complete over the nodes that are left.
    #[inline]
    pub(crate) fn excluded(
        &mut self,
        now: SimTime,
        node: NodeId,
        corrupted: bool,
        excluded: &NodeSet,
    ) {
        self.log(TraceLevel::Decisions, now, node, || {
            if corrupted {
                TraceKind::Corrupted
            } else {
                TraceKind::Crashed
            }
        });
        self.metrics.update_completions(now, excluded);
    }

    /// The network model queued a message on link `src → dst`.
    #[inline]
    pub(crate) fn link_queued(
        &mut self,
        src: NodeId,
        dst: NodeId,
        queued: SimDuration,
        depth: u32,
    ) {
        if queued > SimDuration::ZERO {
            if let Some(obs) = &mut self.obs {
                obs.on_link_queued(src, dst, queued, depth);
            }
        }
    }

    /// The final fate of one honest transmission (after adversary and wire
    /// faults), for validator replay.
    #[inline]
    pub(crate) fn fate(&mut self, fate: Fate) {
        if let Some(recorder) = &mut self.recorder {
            recorder.push(fate);
        }
    }

    /// The trace recorded so far, for a run that stops short of a result.
    pub(crate) fn into_trace(self) -> Trace {
        self.trace
    }

    /// Consumes the sinks into the run's result and recorded schedule
    /// (empty unless [`record_schedule`](Self::record_schedule) was called).
    pub(crate) fn finish(
        self,
        end_time: SimTime,
        timed_out: bool,
        queue_high_water: usize,
        scheduler: SchedulerStats,
    ) -> (RunResult, DeliverySchedule) {
        let result = self.metrics.into_result(
            end_time,
            timed_out,
            self.trace,
            queue_high_water,
            scheduler,
            self.obs.map(ObsRecorder::finish),
        );
        (result, self.recorder.unwrap_or_default())
    }
}
