//! Run-level observability: structured instrumentation the engine emits into.
//!
//! This module is the *zero-cost-when-disabled* telemetry layer described in
//! DESIGN.md §12. A simulation built without an [`ObsConfig`] pays exactly one
//! `Option` discriminant check per hook site; a simulation built *with* one
//! collects:
//!
//! * per-node **delivery-latency histograms** (wire messages only, matching
//!   the metrics layer's accounting convention),
//! * per-node **decision-interval histograms** (gap between consecutive
//!   decisions on the same node; the first decision is measured from t=0),
//! * an **n×n message-flow matrix per protocol phase**, where the phase label
//!   comes from a protocol-supplied [`PhaseClassifier`],
//! * **per-view timing breakdowns** (first/last entry time and entry count
//!   for every view number any node entered), and
//! * a bounded **ring buffer of recent [`TraceEvent`]s** whose handle
//!   ([`ObsRing`]) survives a panic of the simulation, so fuzz harnesses can
//!   embed the last-K events of a crashing run in their failure reports.
//!
//! Everything recorded here derives exclusively from simulated quantities
//! (virtual clock, node ids, payload types), so the resulting
//! [`Observability`] snapshot — and its JSON — is byte-identical across
//! sweep thread counts.
//!
//! Histograms use fixed log-2 buckets over microseconds: bucket 0 holds the
//! value 0, bucket *i* (for `i >= 1`) holds values in `[2^(i-1), 2^i)`. The
//! bucket array is a fixed-size inline array, so recording never allocates.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::error::SimError;
use crate::fasthash::FastMap;
use crate::ids::NodeId;
use crate::json::{self, Fields, Json};
use crate::message::Message;
use crate::payload::Payload;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceKind};

/// Maps message payloads to protocol phases.
///
/// A classifier is a static table of phase labels plus a function mapping a
/// payload to an *index* into that table (`None` for payloads it does not
/// understand — those are counted under [`UNCLASSIFIED_PHASE`]). Returning a
/// small integer instead of a label lets the recorder index its per-phase
/// flow accumulators directly — one array index per delivered message —
/// instead of linearly scanning a label list on the hot path.
///
/// Classifiers are `Copy` (a static slice and a plain `fn` pointer), so an
/// [`ObsConfig`] stays `Clone` and cheap to move across threads.
///
/// # Examples
///
/// ```
/// use bft_sim_core::obs::PhaseClassifier;
/// use bft_sim_core::payload::Payload;
///
/// const PHASES: &[&str] = &["proposal", "vote"];
/// fn classify(p: &dyn Payload) -> Option<u8> {
///     if p.as_any().is::<u64>() {
///         Some(1) // index into PHASES: "vote"
///     } else {
///         None
///     }
/// }
/// const CLASSIFIER: PhaseClassifier = PhaseClassifier::new(PHASES, classify);
/// assert_eq!(CLASSIFIER.phases()[1], "vote");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PhaseClassifier {
    phases: &'static [&'static str],
    classify: fn(&dyn Payload) -> Option<u8>,
}

impl PhaseClassifier {
    /// Builds a classifier from a phase-label table and an indexing function.
    /// Usable in `const` contexts, so protocols can expose their classifier
    /// as a constant.
    pub const fn new(
        phases: &'static [&'static str],
        classify: fn(&dyn Payload) -> Option<u8>,
    ) -> Self {
        PhaseClassifier { phases, classify }
    }

    /// The phase-label table; classification indices point into this slice.
    pub fn phases(&self) -> &'static [&'static str] {
        self.phases
    }

    /// Classifies `payload`, returning a valid index into
    /// [`phases`](PhaseClassifier::phases) or `None` (unclassified). An
    /// out-of-table index from the classify function is treated as
    /// unclassified rather than trusted.
    pub(crate) fn classify(&self, payload: &dyn Payload) -> Option<u8> {
        (self.classify)(payload).filter(|&i| (i as usize) < self.phases.len())
    }
}

/// Phase label used for payloads the [`PhaseClassifier`] does not recognise
/// (or when no classifier is configured at all).
pub const UNCLASSIFIED_PHASE: &str = "unclassified";

/// Largest node count for which per-phase flows keep a dense n×n matrix.
/// Above this the recorder switches to a sparse representation — at n = 1024
/// a *single* dense phase matrix would be 8 MiB, and protocols track several
/// phases. The JSON emitted for dense flows is unchanged, so reports for
/// runs at or below this size are byte-identical to earlier versions.
pub(crate) const DENSE_FLOW_MAX_NODES: usize = 64;

/// Number of log-2 buckets in a [`Histogram`].
///
/// Bucket 0 holds the value 0; bucket 40 holds everything at or above
/// `2^39` microseconds (~6.4 simulated days), which saturates the range.
pub(crate) const HISTOGRAM_BUCKETS: usize = 41;

/// Default ring-buffer capacity for recent trace events.
pub const DEFAULT_LAST_K: usize = 64;

/// A fixed-bucket log-2 histogram over microsecond durations.
///
/// Recording is allocation-free: the bucket array lives inline. Buckets are
/// `[0]`, `[1,2)`, `[2,4)`, … `[2^39, ∞)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_micros: u64,
    min_micros: u64,
    max_micros: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_micros: 0,
            min_micros: 0,
            max_micros: 0,
        }
    }

    /// The bucket index a microsecond value falls into.
    pub(crate) fn bucket_index(micros: u64) -> usize {
        if micros == 0 {
            0
        } else {
            ((64 - micros.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let micros = d.as_micros();
        self.buckets[Self::bucket_index(micros)] += 1;
        if self.count == 0 || micros < self.min_micros {
            self.min_micros = micros;
        }
        if micros > self.max_micros {
            self.max_micros = micros;
        }
        self.count += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values in microseconds (saturating).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// Smallest recorded value in microseconds (0 when empty).
    pub fn min_micros(&self) -> u64 {
        self.min_micros
    }

    /// Largest recorded value in microseconds (0 when empty).
    pub fn max_micros(&self) -> u64 {
        self.max_micros
    }

    /// Mean of recorded values in microseconds, or 0.0 when empty.
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min_micros < self.min_micros {
            self.min_micros = other.min_micros;
        }
        if other.max_micros > self.max_micros {
            self.max_micros = other.max_micros;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
    }

    /// Serialise to JSON. Buckets are emitted sparsely as `[index, count]`
    /// pairs so empty histograms stay tiny. `min_micros`/`max_micros` are
    /// omitted when the histogram is empty — a serialized 0 would otherwise
    /// be indistinguishable from a recorded 0.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(c)]))
            .collect();
        let mut fields = vec![
            ("count".to_string(), Json::UInt(self.count)),
            ("sum_micros".to_string(), Json::UInt(self.sum_micros)),
        ];
        if self.count > 0 {
            fields.push(("min_micros".to_string(), Json::UInt(self.min_micros)));
            fields.push(("max_micros".to_string(), Json::UInt(self.max_micros)));
        }
        fields.push(("buckets".to_string(), Json::Arr(buckets)));
        Json::Obj(fields)
    }

    /// Deserialise a histogram produced by [`to_json`](Histogram::to_json),
    /// validating internal consistency. Rejected as
    /// [`SimError::InvalidConfig`]:
    ///
    /// * anything [`crate::json`]'s artifact parsing policy rejects,
    /// * bucket entries that are not `[index, count]` pairs with
    ///   `index < HISTOGRAM_BUCKETS`, strictly ascending indices, and
    ///   `count > 0`,
    /// * `count` not equal to the bucket-count total,
    /// * an empty histogram (`count == 0`) carrying `min_micros`,
    ///   `max_micros`, a nonzero `sum_micros`, or populated buckets,
    /// * a populated histogram missing `min_micros`/`max_micros`, with
    ///   `min > max`, with min/max outside the lowest/highest populated
    ///   bucket, or with `sum_micros` outside `[count*min, count*max]`.
    pub(crate) fn from_json(json: &Json) -> Result<Histogram, SimError> {
        Self::read(json).map_err(SimError::InvalidConfig)
    }

    fn read(json: &Json) -> Result<Histogram, String> {
        let bad = |msg: String| format!("histogram: {msg}");
        let pair = |entry: &Json| match entry.as_arr() {
            Some([index, count]) => Ok((json::int::<usize>(index)?, json::int::<u64>(count)?)),
            _ => Err("not an [index, count] pair".to_string()),
        };
        let mut f = Fields::of(json, "histogram")?;
        let count: u64 = f.req("count", json::int)?;
        let sum_micros: u64 = f.req("sum_micros", json::int)?;
        let min_micros: Option<u64> = f.opt("min_micros", json::int)?;
        let max_micros: Option<u64> = f.opt("max_micros", json::int)?;
        let entries = f.req("buckets", json::list(pair))?;
        f.finish()?;

        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut bucket_total = 0u64;
        let mut last_index: Option<usize> = None;
        for (index, c) in entries {
            if index >= HISTOGRAM_BUCKETS {
                return Err(bad(format!(
                    "bucket index {index} out of range (max {})",
                    HISTOGRAM_BUCKETS - 1
                )));
            }
            if last_index.is_some_and(|prev| index <= prev) {
                return Err(bad("bucket indices must be strictly ascending".into()));
            }
            last_index = Some(index);
            if c == 0 {
                return Err(bad("bucket count must be a positive integer".into()));
            }
            buckets[index] = c;
            bucket_total = bucket_total
                .checked_add(c)
                .ok_or_else(|| bad("bucket counts overflow u64".into()))?;
        }
        if count != bucket_total {
            return Err(bad(format!(
                "count {count} does not match bucket total {bucket_total}"
            )));
        }

        if count == 0 {
            if min_micros.is_some() || max_micros.is_some() {
                return Err(bad("empty histogram must omit min_micros/max_micros".into()));
            }
            if sum_micros != 0 {
                return Err(bad(format!(
                    "empty histogram has nonzero sum_micros {sum_micros}"
                )));
            }
            return Ok(Histogram::new());
        }

        let min_micros = min_micros.ok_or_else(|| bad("missing \"min_micros\"".into()))?;
        let max_micros = max_micros.ok_or_else(|| bad("missing \"max_micros\"".into()))?;
        if min_micros > max_micros {
            return Err(bad(format!(
                "min_micros {min_micros} exceeds max_micros {max_micros}"
            )));
        }
        let lowest = buckets.iter().position(|&c| c > 0).expect("count > 0");
        let highest = buckets.iter().rposition(|&c| c > 0).expect("count > 0");
        if Self::bucket_index(min_micros) != lowest {
            return Err(bad(format!(
                "min_micros {min_micros} falls outside the lowest populated bucket {lowest}"
            )));
        }
        if Self::bucket_index(max_micros) != highest {
            return Err(bad(format!(
                "max_micros {max_micros} falls outside the highest populated bucket {highest}"
            )));
        }
        // `record` saturates the sum, so only flag sums that are impossible
        // even without saturation: below count*min, or above count*max when
        // count*max itself does not overflow.
        let lo = (count as u128) * (min_micros as u128);
        let hi = (count as u128) * (max_micros as u128);
        let sum = sum_micros as u128;
        if sum < lo || (sum > hi && hi <= u64::MAX as u128) {
            return Err(bad(format!(
                "sum_micros {sum_micros} inconsistent with count {count} and min/max \
                 [{min_micros}, {max_micros}]"
            )));
        }
        Ok(Histogram {
            buckets,
            count,
            sum_micros,
            min_micros,
            max_micros,
        })
    }
}

/// A clonable handle to a bounded ring buffer of recent [`TraceEvent`]s.
///
/// The buffer lives behind an `Arc<Mutex<..>>`, so a handle taken *before* a
/// simulation runs still sees the recorded events after the simulation
/// panics — fuzz harnesses rely on this to dump the last-K events of a
/// crashing run.
#[derive(Debug, Clone)]
pub struct ObsRing {
    inner: Arc<Mutex<RingInner>>,
}

#[derive(Debug)]
struct RingInner {
    capacity: usize,
    events: VecDeque<TraceEvent>,
}

impl ObsRing {
    /// A ring that retains the most recent `capacity` events.
    pub(crate) fn new(capacity: usize) -> Self {
        ObsRing {
            inner: Arc::new(Mutex::new(RingInner {
                capacity,
                events: VecDeque::with_capacity(capacity.min(1024)),
            })),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub(crate) fn push(&self, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("obs ring poisoned");
        if inner.capacity == 0 {
            return;
        }
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(event);
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("obs ring poisoned").capacity
    }

    /// Copy out the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("obs ring poisoned");
        inner.events.iter().cloned().collect()
    }
}

/// Configuration for run-level observability, passed to
/// [`SimulationBuilder::observability`](crate::engine::SimulationBuilder::observability).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    classifier: Option<PhaseClassifier>,
    ring: ObsRing,
    last_k: usize,
}

impl ObsConfig {
    /// Observability retaining the `last_k` most recent trace events.
    pub fn new(last_k: usize) -> Self {
        ObsConfig {
            classifier: None,
            ring: ObsRing::new(last_k),
            last_k,
        }
    }

    /// Attach a protocol-phase classifier for the message-flow matrix.
    pub fn with_classifier(mut self, classifier: PhaseClassifier) -> Self {
        self.classifier = Some(classifier);
        self
    }

    /// A handle to the event ring. Clone it *before* running the simulation
    /// to read the last-K events even if the run panics.
    pub fn ring(&self) -> ObsRing {
        self.ring.clone()
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::new(DEFAULT_LAST_K)
    }
}

/// First/last entry times and entry count for one view number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewTiming {
    /// The view number.
    pub view: u64,
    /// Simulated time the first node entered this view.
    pub first_entry: SimTime,
    /// Simulated time the last node entered this view.
    pub last_entry: SimTime,
    /// How many `EnterView` reports named this view (across all nodes).
    pub entries: u64,
}

impl ViewTiming {
    fn to_json(self) -> Json {
        Json::obj([
            ("view", Json::UInt(self.view)),
            (
                "first_entry_micros",
                Json::UInt(self.first_entry.as_micros()),
            ),
            ("last_entry_micros", Json::UInt(self.last_entry.as_micros())),
            ("entries", Json::UInt(self.entries)),
        ])
    }
}

/// Queueing statistics for one directed link that saw contention: how long
/// messages waited for the link to free up, and the deepest backlog
/// observed. Links that never queued produce no entry, so the list stays
/// proportional to actual bottlenecks — `bft-sim trace` sorts it to surface
/// the hottest links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkQueueStat {
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Queueing-delay histogram for messages that waited on this link.
    pub queued: Histogram,
    /// Deepest backlog (transmissions already serializing) seen on this link.
    pub peak_depth: u32,
}

impl LinkQueueStat {
    fn to_json(&self) -> Json {
        Json::obj([
            ("src", Json::UInt(self.src as u64)),
            ("dst", Json::UInt(self.dst as u64)),
            ("queued", self.queued.to_json()),
            ("peak_depth", Json::UInt(self.peak_depth as u64)),
        ])
    }
}

/// One nonzero cell of a message-flow matrix: `count` wire messages from
/// `src` delivered to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowCell {
    /// Source node index.
    pub(crate) src: u32,
    /// Destination node index.
    pub(crate) dst: u32,
    /// Deliveries observed on this edge.
    pub(crate) count: u64,
}

/// How a [`PhaseFlow`] stores its counts.
///
/// Dense keeps the familiar row-major n×n matrix; sparse keeps only the
/// nonzero cells, sorted by `(src, dst)`. Protocols at n = 1024 touch a few
/// edges per phase out of the ~10⁶ possible, so the sparse form is what makes
/// observability affordable at scale.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FlowRepr {
    /// Row-major n×n delivery counts (`matrix[src * nodes + dst]`).
    Dense(Vec<u64>),
    /// Nonzero cells only, ascending by `(src, dst)`.
    Sparse(Vec<FlowCell>),
}

/// An n×n message-flow matrix for one protocol phase.
///
/// The storage is dense (row-major `Vec`) for runs of up to
/// `DENSE_FLOW_MAX_NODES` nodes and sparse (sorted nonzero cells) above
/// that; the accessors hide the difference. The JSON form of a dense flow is
/// unchanged from when `PhaseFlow` exposed the matrix directly, so reports
/// for small runs stay byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseFlow {
    /// The phase label (from the protocol's [`PhaseClassifier`], or
    /// [`UNCLASSIFIED_PHASE`]).
    pub phase: String,
    nodes: usize,
    total: u64,
    repr: FlowRepr,
}

impl PhaseFlow {
    /// Total deliveries recorded in this phase (the sum over all cells).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Deliveries from `src` to `dst`; 0 when out of range.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        if src >= self.nodes || dst >= self.nodes {
            return 0;
        }
        match &self.repr {
            FlowRepr::Dense(matrix) => matrix[src * self.nodes + dst],
            FlowRepr::Sparse(cells) => {
                let key = (src as u32, dst as u32);
                match cells.binary_search_by_key(&key, |c| (c.src, c.dst)) {
                    Ok(i) => cells[i].count,
                    Err(_) => 0,
                }
            }
        }
    }

    /// Number of nonzero cells, without materialising them.
    pub fn nonzero_cells(&self) -> usize {
        match &self.repr {
            FlowRepr::Dense(matrix) => matrix.iter().filter(|&&c| c > 0).count(),
            FlowRepr::Sparse(cells) => cells.len(),
        }
    }

    fn to_json(&self, n: usize) -> Json {
        match &self.repr {
            FlowRepr::Dense(matrix) => {
                let rows: Vec<Json> = matrix
                    .chunks(n.max(1))
                    .map(|row| Json::Arr(row.iter().map(|&c| Json::UInt(c)).collect()))
                    .collect();
                Json::obj([
                    ("phase", Json::Str(self.phase.clone())),
                    ("matrix", Json::Arr(rows)),
                ])
            }
            FlowRepr::Sparse(cells) => {
                let arr: Vec<Json> = cells
                    .iter()
                    .map(|c| {
                        Json::Arr(vec![
                            Json::UInt(c.src as u64),
                            Json::UInt(c.dst as u64),
                            Json::UInt(c.count),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("phase", Json::Str(self.phase.clone())),
                    ("cells", Json::Arr(arr)),
                ])
            }
        }
    }
}

/// The immutable observability snapshot attached to a
/// [`RunResult`](crate::metrics::RunResult) when observability was enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observability {
    /// Number of nodes in the run (matrix dimension).
    pub nodes: usize,
    /// Ring-buffer capacity the run was configured with.
    pub(crate) last_k: usize,
    /// Per-node wire-message delivery-latency histograms (indexed by node id).
    pub delivery_latency: Vec<Histogram>,
    /// Per-node decision-interval histograms (indexed by node id).
    pub decision_interval: Vec<Histogram>,
    /// Message-flow matrices, sorted by phase label.
    pub flows: Vec<PhaseFlow>,
    /// Per-view timing breakdowns, sorted by view number.
    pub views: Vec<ViewTiming>,
    /// Queueing delays across all links that saw contention (bandwidth
    /// models only; empty under delay-only models).
    pub link_queue_delay: Histogram,
    /// Per-link queueing stats, sorted by `(src, dst)`; only links that
    /// actually queued appear.
    pub link_queues: Vec<LinkQueueStat>,
    /// The last-K trace events of the run, oldest first.
    pub recent_events: Vec<TraceEvent>,
}

impl Observability {
    /// Serialise the snapshot via `core::json`.
    ///
    /// Key order and number formatting are fixed, so two runs that recorded
    /// the same data produce byte-identical JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", Json::UInt(self.nodes as u64)),
            ("last_k", Json::UInt(self.last_k as u64)),
            (
                "delivery_latency",
                Json::Arr(self.delivery_latency.iter().map(|h| h.to_json()).collect()),
            ),
            (
                "decision_interval",
                Json::Arr(self.decision_interval.iter().map(|h| h.to_json()).collect()),
            ),
            (
                "flows",
                Json::Arr(self.flows.iter().map(|f| f.to_json(self.nodes)).collect()),
            ),
            (
                "views",
                Json::Arr(self.views.iter().map(|v| v.to_json()).collect()),
            ),
            ("link_queue_delay", self.link_queue_delay.to_json()),
            (
                "link_queues",
                Json::Arr(self.link_queues.iter().map(|l| l.to_json()).collect()),
            ),
            (
                "recent_events",
                Json::Arr(self.recent_events.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }

    /// Total wire messages recorded in the flow matrices for `phase`.
    pub fn phase_total(&self, phase: &str) -> u64 {
        self.flows
            .iter()
            .filter(|f| f.phase == phase)
            .map(|f| f.total())
            .sum()
    }
}

/// Accumulating storage for one phase's flow counts while a run executes.
///
/// Dense accumulators are allocated upfront (n ≤ [`DENSE_FLOW_MAX_NODES`],
/// so at most a 32 KiB matrix per phase); sparse ones start as an empty map
/// and grow with the edges actually seen. `total` doubles as the emptiness
/// check at [`ObsRecorder::finish`] — phases never delivered into produce no
/// [`PhaseFlow`], exactly as when flows were created lazily per label.
#[derive(Debug)]
enum FlowAccum {
    /// Row-major n×n counts.
    Dense(Vec<u64>),
    /// `(src << 32 | dst)` → count.
    Sparse(FastMap<u64, u64>),
}

impl FlowAccum {
    fn record(&mut self, n: usize, src: usize, dst: usize) {
        match self {
            FlowAccum::Dense(matrix) => matrix[src * n + dst] += 1,
            FlowAccum::Sparse(map) => {
                let key = ((src as u64) << 32) | dst as u64;
                *map.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Folds the accumulator into its immutable snapshot form.
    fn finish(self, phase: &str, nodes: usize) -> PhaseFlow {
        match self {
            FlowAccum::Dense(matrix) => PhaseFlow {
                phase: phase.to_string(),
                nodes,
                total: matrix.iter().sum(),
                repr: FlowRepr::Dense(matrix),
            },
            FlowAccum::Sparse(map) => {
                let mut cells: Vec<FlowCell> = map
                    .into_iter()
                    .map(|(key, count)| FlowCell {
                        src: (key >> 32) as u32,
                        dst: key as u32,
                        count,
                    })
                    .collect();
                cells.sort_unstable_by_key(|c| (c.src, c.dst));
                PhaseFlow {
                    phase: phase.to_string(),
                    nodes,
                    total: cells.iter().map(|c| c.count).sum(),
                    repr: FlowRepr::Sparse(cells),
                }
            }
        }
    }
}

/// The engine-side recorder. Lives inside `Simulation` as an `Option`, so a
/// run without observability pays one discriminant check per hook.
#[derive(Debug)]
pub(crate) struct ObsRecorder {
    n: usize,
    last_k: usize,
    classifier: Option<PhaseClassifier>,
    delivery: Vec<Histogram>,
    decision: Vec<Histogram>,
    last_decision: Vec<Option<SimTime>>,
    /// Per-phase flow accumulators, indexed by the classifier's phase id;
    /// the extra last slot collects unclassified deliveries. Recording is a
    /// direct index — no per-message label scan.
    flows: Vec<FlowAccum>,
    /// Count of deliveries recorded into each accumulator, same indexing.
    flow_totals: Vec<u64>,
    /// View number → timing, kept sorted by view number.
    views: Vec<ViewTiming>,
    /// All queueing events across all links.
    link_queue_delay: Histogram,
    /// `(src << 32 | dst)` → (queue histogram, peak depth); populated only
    /// by links that actually queued, so delay-only runs keep it empty.
    link_queues: FastMap<u64, (Histogram, u32)>,
    ring: ObsRing,
}

impl ObsRecorder {
    /// Builds the recorder, validating that the flow bookkeeping for `n`
    /// nodes is representable.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when node indices would not fit the sparse
    /// cell key (n above `u32` range) or a dense matrix's `n * n` length
    /// would overflow `usize` — both structured errors where the previous
    /// dense-only code would have aborted on arithmetic overflow.
    pub(crate) fn new(n: usize, cfg: ObsConfig) -> Result<Self, SimError> {
        if n > u32::MAX as usize {
            return Err(SimError::invalid_config(format!(
                "observability supports at most {} nodes, got {n}",
                u32::MAX
            )));
        }
        let phase_slots = cfg.classifier.map_or(0, |c| c.phases().len()) + 1;
        let flows: Vec<FlowAccum> = if n <= DENSE_FLOW_MAX_NODES {
            let cells = n.checked_mul(n).ok_or_else(|| {
                SimError::invalid_config(format!("flow matrix size n*n overflows for n={n}"))
            })?;
            (0..phase_slots)
                .map(|_| FlowAccum::Dense(vec![0u64; cells]))
                .collect()
        } else {
            (0..phase_slots)
                .map(|_| FlowAccum::Sparse(FastMap::default()))
                .collect()
        };
        Ok(ObsRecorder {
            n,
            last_k: cfg.last_k,
            classifier: cfg.classifier,
            delivery: vec![Histogram::new(); n],
            decision: vec![Histogram::new(); n],
            last_decision: vec![None; n],
            flow_totals: vec![0; phase_slots],
            flows,
            views: Vec::new(),
            link_queue_delay: Histogram::new(),
            link_queues: FastMap::default(),
            ring: cfg.ring,
        })
    }

    /// Appends to the event ring; same shape as `Trace::record`.
    pub(crate) fn push_event(&self, time: SimTime, node: NodeId, kind: TraceKind) {
        self.ring.push(TraceEvent { time, node, kind });
    }

    /// A wire message was delivered to `dst` at `now`.
    pub(crate) fn on_delivered(&mut self, now: SimTime, msg: &Message) {
        let dst = msg.dst().index();
        if let Some(h) = self.delivery.get_mut(dst) {
            h.record(now.saturating_since(msg.sent_at()));
        }
        let unclassified = self.flows.len() - 1;
        let id = match &self.classifier {
            Some(c) => c
                .classify(msg.payload())
                .map_or(unclassified, |i| i as usize),
            None => unclassified,
        };
        let src = msg.src().index();
        self.flows[id].record(self.n, src, dst);
        self.flow_totals[id] += 1;
    }

    /// `node` decided at `now`.
    pub(crate) fn on_decided(&mut self, now: SimTime, node: NodeId) {
        let idx = node.index();
        if let Some(h) = self.decision.get_mut(idx) {
            let since = self.last_decision[idx].unwrap_or(SimTime::ZERO);
            h.record(now.saturating_since(since));
            self.last_decision[idx] = Some(now);
        }
    }

    /// A message queued for `queued` behind `depth` earlier transmissions on
    /// the link `src → dst`. Called by the engine only when the network
    /// model reports actual queueing (`queued > 0`).
    pub(crate) fn on_link_queued(
        &mut self,
        src: NodeId,
        dst: NodeId,
        queued: SimDuration,
        depth: u32,
    ) {
        self.link_queue_delay.record(queued);
        let key = ((src.index() as u64) << 32) | dst.index() as u64;
        let entry = self
            .link_queues
            .entry(key)
            .or_insert_with(|| (Histogram::new(), 0));
        entry.0.record(queued);
        entry.1 = entry.1.max(depth);
    }

    /// `node` entered `view` at `now`.
    pub(crate) fn on_view(&mut self, now: SimTime, view: u64) {
        match self.views.binary_search_by_key(&view, |t| t.view) {
            Ok(i) => {
                let t = &mut self.views[i];
                if now < t.first_entry {
                    t.first_entry = now;
                }
                if now > t.last_entry {
                    t.last_entry = now;
                }
                t.entries += 1;
            }
            Err(i) => self.views.insert(
                i,
                ViewTiming {
                    view,
                    first_entry: now,
                    last_entry: now,
                    entries: 1,
                },
            ),
        }
    }

    /// Freeze the recorder into its final snapshot.
    pub(crate) fn finish(self) -> Observability {
        let phase_name = |id: usize| -> &'static str {
            match self.classifier {
                Some(c) if id < c.phases().len() => c.phases()[id],
                _ => UNCLASSIFIED_PHASE,
            }
        };
        let n = self.n;
        let totals = self.flow_totals;
        // Phases never delivered into are dropped, matching the lazy per-label
        // allocation the recorder used before accumulators were pre-sized.
        let mut flows: Vec<PhaseFlow> = self
            .flows
            .into_iter()
            .enumerate()
            .filter(|(id, _)| totals[*id] > 0)
            .map(|(id, accum)| accum.finish(phase_name(id), n))
            .collect();
        flows.sort_by(|a, b| a.phase.cmp(&b.phase));
        let mut link_queues: Vec<LinkQueueStat> = self
            .link_queues
            .into_iter()
            .map(|(key, (queued, peak_depth))| LinkQueueStat {
                src: (key >> 32) as u32,
                dst: key as u32,
                queued,
                peak_depth,
            })
            .collect();
        link_queues.sort_unstable_by_key(|l| (l.src, l.dst));
        Observability {
            nodes: self.n,
            last_k: self.last_k,
            delivery_latency: self.delivery,
            decision_interval: self.decision,
            flows,
            views: self.views,
            link_queue_delay: self.link_queue_delay,
            link_queues,
            recent_events: self.ring.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn bucket_index_is_log2_with_zero_bucket() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_summarises() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_micros(), 0.0);
        for micros in [0u64, 5, 5, 1000] {
            h.record(SimDuration::from_micros(micros));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_micros(), 1010);
        assert_eq!(h.min_micros(), 0);
        assert_eq!(h.max_micros(), 1000);
        assert_eq!(h.mean_micros(), 252.5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[Histogram::bucket_index(5)], 2);
        assert_eq!(h.buckets[Histogram::bucket_index(1000)], 1);
    }

    #[test]
    fn histogram_extreme_durations_land_in_first_and_last_buckets() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::MAX);
        // The zero duration occupies the dedicated first bucket and the
        // saturating maximum the last — never a panic, never an off-by-one
        // into a neighbouring bucket.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            2,
            "no other bucket was touched"
        );
        assert_eq!(h.count(), 2);
        assert_eq!(h.min_micros(), 0);
        assert_eq!(h.max_micros(), SimDuration::MAX.as_micros());
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum_micros(), SimDuration::MAX.as_micros());
        h.record(SimDuration::MAX);
        assert_eq!(
            h.sum_micros(),
            SimDuration::MAX.as_micros().saturating_mul(2)
        );
    }

    #[test]
    fn histogram_bucket_boundaries_around_powers_of_two() {
        // 2^k goes to bucket k+1; 2^k - 1 stays in bucket k (for k >= 1).
        for k in 1..(HISTOGRAM_BUCKETS - 2) {
            let lo = 1u64 << k;
            assert_eq!(Histogram::bucket_index(lo), k + 1, "2^{k}");
            assert_eq!(Histogram::bucket_index(lo - 1), k, "2^{k} - 1");
        }
        // At and beyond 2^39 everything saturates into the last bucket.
        assert_eq!(
            Histogram::bucket_index(1u64 << (HISTOGRAM_BUCKETS - 2)),
            HISTOGRAM_BUCKETS - 1
        );
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_preserves_totals_with_extremes() {
        let mut a = Histogram::new();
        a.record(SimDuration::ZERO);
        a.record(SimDuration::from_micros(17));
        let mut b = Histogram::new();
        b.record(SimDuration::MAX);
        let (ca, cb) = (a.count(), b.count());
        let (sa, sb) = (a.sum_micros(), b.sum_micros());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.sum_micros(), sa.saturating_add(sb));
        assert_eq!(a.min_micros(), 0);
        assert_eq!(a.max_micros(), SimDuration::MAX.as_micros());
        assert_eq!(a.buckets.iter().sum::<u64>(), ca + cb);
        assert_eq!(a.buckets[0], 1);
        assert_eq!(a.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_merge_matches_recording_everything_in_one() {
        let values_a = [3u64, 0, 99, 12_345];
        let values_b = [7u64, 7, 2];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &v in &values_a {
            a.record(SimDuration::from_micros(v));
            both.record(SimDuration::from_micros(v));
        }
        for &v in &values_b {
            b.record(SimDuration::from_micros(v));
            both.record(SimDuration::from_micros(v));
        }
        a.merge(&b);
        assert_eq!(a, both);

        // Merging an empty histogram is a no-op; merging into one adopts it.
        let mut empty = Histogram::new();
        empty.merge(&both);
        assert_eq!(empty, both);
        let snapshot = both.clone();
        both.merge(&Histogram::new());
        assert_eq!(both, snapshot);
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new();
        for micros in [0u64, 5, 5, 1000, 1 << 20] {
            h.record(SimDuration::from_micros(micros));
        }
        let json = h.to_json();
        let back = Histogram::from_json(&json).expect("round-trip");
        assert_eq!(back, h);
        // Through text too: dump + parse + from_json.
        let reparsed = Json::parse(&json.dump()).expect("parse");
        assert_eq!(Histogram::from_json(&reparsed).expect("round-trip"), h);
    }

    #[test]
    fn histogram_empty_json_omits_min_max_and_round_trips() {
        let h = Histogram::new();
        let json = h.to_json();
        assert!(json.get("min_micros").is_none(), "empty omits min");
        assert!(json.get("max_micros").is_none(), "empty omits max");
        let back = Histogram::from_json(&json).expect("round-trip");
        assert!(back.is_empty());
        assert_eq!(back, h);
        // A recorded zero, by contrast, serialises min/max explicitly.
        let mut z = Histogram::new();
        z.record(SimDuration::ZERO);
        let zj = z.to_json();
        assert_eq!(zj.get("min_micros").and_then(Json::as_u64), Some(0));
        assert_eq!(zj.get("max_micros").and_then(Json::as_u64), Some(0));
        assert_eq!(Histogram::from_json(&zj).expect("round-trip"), z);
    }

    #[test]
    fn histogram_from_json_rejects_inconsistencies() {
        let mut h = Histogram::new();
        for micros in [4u64, 5, 900] {
            h.record(SimDuration::from_micros(micros));
        }
        let good = h.to_json();
        assert!(Histogram::from_json(&good).is_ok());

        let rejects = |mutate: &dyn Fn(&mut Json)| {
            let mut j = good.clone();
            mutate(&mut j);
            assert!(
                matches!(Histogram::from_json(&j), Err(SimError::InvalidConfig(_))),
                "expected rejection of {}",
                j.dump()
            );
        };
        // count disagrees with the bucket total.
        rejects(&|j| *j.get_mut("count").unwrap() = Json::UInt(7));
        // sum below count*min / above count*max.
        rejects(&|j| *j.get_mut("sum_micros").unwrap() = Json::UInt(3));
        rejects(&|j| *j.get_mut("sum_micros").unwrap() = Json::UInt(10_000));
        // min/max outside their populated buckets, or inverted.
        rejects(&|j| *j.get_mut("min_micros").unwrap() = Json::UInt(100));
        rejects(&|j| *j.get_mut("max_micros").unwrap() = Json::UInt(5));
        rejects(&|j| {
            *j.get_mut("min_micros").unwrap() = Json::UInt(901);
            *j.get_mut("max_micros").unwrap() = Json::UInt(900);
        });
        // Unknown field.
        rejects(&|j| {
            if let Json::Obj(fields) = j {
                fields.push(("extra".into(), Json::UInt(1)));
            }
        });
        // Bucket index out of range, non-ascending order, zero count.
        rejects(&|j| {
            *j.get_mut("buckets").unwrap() = Json::Arr(vec![Json::Arr(vec![
                Json::UInt(HISTOGRAM_BUCKETS as u64),
                Json::UInt(3),
            ])]);
        });
        rejects(&|j| {
            *j.get_mut("buckets").unwrap() = Json::Arr(vec![
                Json::Arr(vec![Json::UInt(10), Json::UInt(1)]),
                Json::Arr(vec![Json::UInt(3), Json::UInt(2)]),
            ]);
        });
        rejects(&|j| {
            *j.get_mut("buckets").unwrap() = Json::Arr(vec![
                Json::Arr(vec![Json::UInt(3), Json::UInt(2)]),
                Json::Arr(vec![Json::UInt(10), Json::UInt(0)]),
            ]);
        });
        // Empty histogram carrying min/max or a nonzero sum.
        let mut empty = Histogram::new().to_json();
        if let Json::Obj(fields) = &mut empty {
            fields.insert(2, ("min_micros".into(), Json::UInt(0)));
        }
        assert!(Histogram::from_json(&empty).is_err());
        let mut empty = Histogram::new().to_json();
        *empty.get_mut("sum_micros").unwrap() = Json::UInt(9);
        assert!(Histogram::from_json(&empty).is_err());
    }

    #[test]
    fn ring_evicts_oldest_and_survives_capacity_zero() {
        let ring = ObsRing::new(2);
        let handle = ring.clone();
        for i in 0..4u64 {
            ring.push(TraceEvent {
                time: SimTime::from_micros(i),
                node: NodeId::new(0),
                kind: TraceKind::View { view: i },
            });
        }
        let events = handle.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::View { view: 2 });
        assert_eq!(events[1].kind, TraceKind::View { view: 3 });

        let none = ObsRing::new(0);
        none.push(TraceEvent {
            time: SimTime::ZERO,
            node: NodeId::new(0),
            kind: TraceKind::Crashed,
        });
        assert!(none.snapshot().is_empty());
    }

    #[test]
    fn recorder_decision_intervals_measure_gaps_per_node() {
        let mut rec = ObsRecorder::new(2, ObsConfig::new(8)).unwrap();
        rec.on_decided(SimTime::from_micros(100), NodeId::new(0));
        rec.on_decided(SimTime::from_micros(250), NodeId::new(0));
        rec.on_decided(SimTime::from_micros(400), NodeId::new(1));
        let obs = rec.finish();
        let h0 = &obs.decision_interval[0];
        assert_eq!(h0.count(), 2);
        assert_eq!(h0.min_micros(), 100); // first decision measured from t=0
        assert_eq!(h0.max_micros(), 150);
        let h1 = &obs.decision_interval[1];
        assert_eq!(h1.count(), 1);
        assert_eq!(h1.max_micros(), 400);
    }

    #[test]
    fn recorder_view_timings_fold_entries() {
        let mut rec = ObsRecorder::new(1, ObsConfig::new(8)).unwrap();
        rec.on_view(SimTime::from_micros(50), 3);
        rec.on_view(SimTime::from_micros(10), 3);
        rec.on_view(SimTime::from_micros(99), 3);
        rec.on_view(SimTime::from_micros(5), 1);
        let obs = rec.finish();
        assert_eq!(obs.views.len(), 2);
        assert_eq!(obs.views[0].view, 1);
        assert_eq!(obs.views[1].view, 3);
        assert_eq!(obs.views[1].first_entry, SimTime::from_micros(10));
        assert_eq!(obs.views[1].last_entry, SimTime::from_micros(99));
        assert_eq!(obs.views[1].entries, 3);
    }

    const TEST_PHASES: &[&str] = &["vote"];
    fn classify_votes(p: &dyn Payload) -> Option<u8> {
        p.as_any().downcast_ref::<u32>().map(|_| 0)
    }
    const TEST_CLASSIFIER: PhaseClassifier = PhaseClassifier::new(TEST_PHASES, classify_votes);

    #[test]
    fn recorder_flows_classify_and_fall_back() {
        let mut rec =
            ObsRecorder::new(2, ObsConfig::new(8).with_classifier(TEST_CLASSIFIER)).unwrap();
        let vote = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::from_micros(10),
            Arc::new(7u32) as Arc<dyn Payload>,
        );
        let other = Message::new(
            NodeId::new(1),
            NodeId::new(0),
            SimTime::from_micros(10),
            Arc::new("hello") as Arc<dyn Payload>,
        );
        rec.on_delivered(SimTime::from_micros(30), &vote);
        rec.on_delivered(SimTime::from_micros(30), &vote);
        rec.on_delivered(SimTime::from_micros(45), &other);
        let obs = rec.finish();
        // Sorted by phase label.
        assert_eq!(obs.flows.len(), 2);
        assert_eq!(obs.flows[0].phase, UNCLASSIFIED_PHASE);
        assert!(matches!(&obs.flows[0].repr, FlowRepr::Dense(m) if m[..] == [0, 0, 1, 0]));
        assert_eq!(obs.flows[1].phase, "vote");
        assert!(matches!(&obs.flows[1].repr, FlowRepr::Dense(m) if m[..] == [0, 2, 0, 0]));
        assert_eq!(obs.flows[1].get(0, 1), 2);
        assert_eq!(obs.flows[1].get(1, 0), 0);
        assert_eq!(obs.flows[1].total(), 2);
        assert_eq!(obs.flows[1].nonzero_cells(), 1);
        assert_eq!(obs.phase_total("vote"), 2);
        // Latency = now - sent_at, recorded against the destination.
        assert_eq!(obs.delivery_latency[1].count(), 2);
        assert_eq!(obs.delivery_latency[1].max_micros(), 20);
        assert_eq!(obs.delivery_latency[0].count(), 1);
        assert_eq!(obs.delivery_latency[0].min_micros(), 35);
    }

    #[test]
    fn large_runs_use_sparse_flows_with_identical_semantics() {
        let n = DENSE_FLOW_MAX_NODES + 1;
        let mut rec =
            ObsRecorder::new(n, ObsConfig::new(8).with_classifier(TEST_CLASSIFIER)).unwrap();
        // Deliver votes on a few scattered edges, out of sorted order.
        let edges = [(64u32, 3u32), (0, 1), (64, 3), (7, 64), (0, 1), (0, 1)];
        for &(src, dst) in &edges {
            let m = Message::new(
                NodeId::new(src),
                NodeId::new(dst),
                SimTime::from_micros(10),
                Arc::new(7u32) as Arc<dyn Payload>,
            );
            rec.on_delivered(SimTime::from_micros(30), &m);
        }
        let obs = rec.finish();
        assert_eq!(obs.flows.len(), 1, "only the vote phase saw traffic");
        let flow = &obs.flows[0];
        let FlowRepr::Sparse(cells) = &flow.repr else {
            panic!("flow above the threshold is dense")
        };
        assert_eq!(flow.nodes, n);
        assert_eq!(flow.total(), edges.len() as u64);
        assert_eq!(flow.get(0, 1), 3);
        assert_eq!(flow.get(64, 3), 2);
        assert_eq!(flow.get(7, 64), 1);
        assert_eq!(flow.get(1, 0), 0);
        assert_eq!(flow.get(n, 0), 0, "out of range reads 0");
        // Cells come out sorted by (src, dst) no matter the arrival order.
        let mut sorted = cells.clone();
        sorted.sort_unstable_by_key(|c| (c.src, c.dst));
        assert_eq!(*cells, sorted);
        assert_eq!(cells.len(), 3);
        // JSON uses the sparse "cells" form, not an n×n matrix.
        let json = flow.to_json(n).dump_pretty();
        assert!(json.contains("\"cells\""), "{json}");
        assert!(!json.contains("\"matrix\""), "{json}");
    }

    #[test]
    fn dense_threshold_is_exact() {
        let at = ObsRecorder::new(DENSE_FLOW_MAX_NODES, ObsConfig::new(2)).unwrap();
        assert!(matches!(at.flows[0], FlowAccum::Dense(_)));
        let above = ObsRecorder::new(DENSE_FLOW_MAX_NODES + 1, ObsConfig::new(2)).unwrap();
        assert!(matches!(above.flows[0], FlowAccum::Sparse(_)));
    }

    #[test]
    fn out_of_table_phase_ids_fall_back_to_unclassified() {
        fn bogus(_p: &dyn Payload) -> Option<u8> {
            Some(200) // far beyond the table
        }
        const BOGUS: PhaseClassifier = PhaseClassifier::new(TEST_PHASES, bogus);
        assert_eq!(BOGUS.classify(&7u32), None);
        let mut rec = ObsRecorder::new(2, ObsConfig::new(8).with_classifier(BOGUS)).unwrap();
        let m = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::from_micros(10),
            Arc::new(7u32) as Arc<dyn Payload>,
        );
        rec.on_delivered(SimTime::from_micros(30), &m);
        let obs = rec.finish();
        assert_eq!(obs.flows.len(), 1);
        assert_eq!(obs.flows[0].phase, UNCLASSIFIED_PHASE);
    }

    #[test]
    fn recorder_rejects_unrepresentable_node_counts() {
        // Only checkable on 64-bit targets, where usize can exceed u32.
        if usize::BITS > 32 {
            let err = ObsRecorder::new(u32::MAX as usize + 1, ObsConfig::new(2));
            assert!(matches!(err, Err(SimError::InvalidConfig(_))));
        }
    }

    #[test]
    fn observability_json_shape_is_stable() {
        let mut rec = ObsRecorder::new(1, ObsConfig::new(2)).unwrap();
        rec.on_decided(SimTime::from_micros(7), NodeId::new(0));
        rec.on_view(SimTime::from_micros(3), 1);
        rec.push_event(
            SimTime::from_micros(7),
            NodeId::new(0),
            TraceKind::Decided {
                slot: 0,
                value: Value::new(9),
            },
        );
        let obs = rec.finish();
        let json = obs.to_json().dump_pretty();
        for key in [
            "\"nodes\"",
            "\"last_k\"",
            "\"delivery_latency\"",
            "\"decision_interval\"",
            "\"flows\"",
            "\"views\"",
            "\"link_queue_delay\"",
            "\"link_queues\"",
            "\"recent_events\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Identical snapshots serialise identically.
        assert_eq!(json, obs.clone().to_json().dump_pretty());
    }

    #[test]
    fn recorder_link_queues_fold_per_link_and_globally() {
        let mut rec = ObsRecorder::new(3, ObsConfig::new(4)).unwrap();
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        rec.on_link_queued(a, b, SimDuration::from_micros(100), 1);
        rec.on_link_queued(a, b, SimDuration::from_micros(300), 2);
        rec.on_link_queued(c, b, SimDuration::from_micros(50), 1);
        let obs = rec.finish();
        assert_eq!(obs.link_queue_delay.count(), 3);
        assert_eq!(obs.link_queue_delay.sum_micros(), 450);
        // Sorted by (src, dst); only links that queued appear.
        assert_eq!(obs.link_queues.len(), 2);
        assert_eq!((obs.link_queues[0].src, obs.link_queues[0].dst), (0, 1));
        assert_eq!(obs.link_queues[0].queued.count(), 2);
        assert_eq!(obs.link_queues[0].peak_depth, 2);
        assert_eq!((obs.link_queues[1].src, obs.link_queues[1].dst), (2, 1));
        assert_eq!(obs.link_queues[1].peak_depth, 1);
    }
}
