//! Workload monitoring and refresh policy — the outer loop of the
//! paper's Figure 4 architecture.
//!
//! The paper assumes "a database system keeps the set of queries" and
//! re-runs extraction + update "whenever query workloads change …
//! (e.g., by request or periodical)". [`WorkloadMonitor`] is that
//! component: it records incoming label-path queries in a sliding
//! window and signals when a refresh is due, either periodically (every
//! N queries) or on *drift* (the windowed support of currently-required
//! multi-label paths decays below the threshold).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use apex_storage::OpKind;
use xmlgraph::{LabelPath, XmlGraph};

use crate::index::Apex;
use crate::wal::{Commit, Wal};
use crate::workload::Workload;

/// Aggregated predicted-vs-actual operator cost, fed back by every
/// executed plan (the feedback half of the cost-based planner): per
/// [`OpKind`], the work units the planner forecast and the work the
/// execution layer actually attributed. The mispredict ratio over this
/// aggregate is what `explain` and the serving tier report, and what a
/// future planner calibration would consume.
#[derive(Debug, Clone, Default)]
pub struct PlanFeedback {
    plans: u64,
    predicted: [u64; OpKind::ALL.len()],
    actual: [u64; OpKind::ALL.len()],
}

impl PlanFeedback {
    fn slot(kind: OpKind) -> usize {
        kind.idx()
    }

    /// Records one executed plan's per-operator `(kind, predicted,
    /// actual)` forecast outcomes.
    pub fn record(&mut self, ops: impl IntoIterator<Item = (OpKind, u64, u64)>) {
        self.plans += 1;
        for (kind, predicted, actual) in ops {
            let i = Self::slot(kind);
            self.predicted[i] += predicted;
            self.actual[i] += actual;
        }
    }

    /// Plans recorded.
    pub fn plans(&self) -> u64 {
        self.plans
    }

    /// `(predicted, actual)` accumulated for one operator kind.
    pub fn per_op(&self, kind: OpKind) -> (u64, u64) {
        let i = Self::slot(kind);
        (self.predicted[i], self.actual[i])
    }

    /// Total predicted work units across operators.
    pub fn predicted_total(&self) -> u64 {
        self.predicted.iter().sum()
    }

    /// Total actual work units across operators.
    pub fn actual_total(&self) -> u64 {
        self.actual.iter().sum()
    }

    /// Σ|predicted − actual| / max(1, Σactual): 0.0 means every forecast
    /// was exact; 1.0 means the planner was off by as much work as was
    /// actually done.
    pub fn mispredict_ratio(&self) -> f64 {
        let err: u64 = self
            .predicted
            .iter()
            .zip(&self.actual)
            .map(|(&p, &a)| p.abs_diff(a))
            .sum();
        err as f64 / self.actual_total().max(1) as f64
    }
}

/// When to re-run extraction + update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Refine after every `n` recorded queries ("periodical").
    EveryN(usize),
    /// Refine only when [`WorkloadMonitor::refresh_due`] detects drift:
    /// some multi-label required path's windowed support fell below
    /// `min_sup × slack`, or a non-required subpath's support rose above
    /// `min_sup / slack`.
    OnDrift {
        /// Tolerance factor (> 1.0); larger = fewer refreshes.
        slack: f64,
    },
    /// Never refresh automatically (by request only).
    Manual,
}

/// The monitor state a durable checkpoint captures: everything replay
/// needs to continue the record/drain sequence exactly where the
/// snapshot left it. Capacity and policy are *configuration* — they
/// come back from [`crate::recover::RecoverOptions`], not the image.
/// The default is the empty state a bare index file carries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorState {
    /// The sliding window, oldest first.
    pub window: Vec<LabelPath>,
    /// The support threshold at capture time.
    pub min_sup: f64,
    /// Queries since the last drain.
    pub since_refresh: u64,
    /// Total queries ever recorded.
    pub total_recorded: u64,
}

/// Sliding-window workload recorder with a refresh policy.
///
/// With a WAL attached ([`WorkloadMonitor::attach_wal`]), every
/// recorded query and every drain is logged *under the caller's
/// monitor lock*, so the log order equals the live serialization order
/// — the property that makes WAL replay deterministic.
#[derive(Debug, Clone)]
pub struct WorkloadMonitor {
    window: VecDeque<LabelPath>,
    capacity: usize,
    min_sup: f64,
    policy: RefreshPolicy,
    since_refresh: usize,
    total_recorded: usize,
    feedback: PlanFeedback,
    wal: Option<Arc<Wal>>,
}

impl WorkloadMonitor {
    /// Creates a monitor keeping the last `capacity` queries.
    pub fn new(capacity: usize, min_sup: f64, policy: RefreshPolicy) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        WorkloadMonitor {
            window: VecDeque::with_capacity(capacity),
            capacity,
            min_sup,
            policy,
            since_refresh: 0,
            total_recorded: 0,
            feedback: PlanFeedback::default(),
            wal: None,
        }
    }

    /// Attaches a write-ahead log: from here on, recorded queries and
    /// drains are appended to it (under whatever lock serializes calls
    /// into this monitor). Clones share the attachment.
    pub fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Captures the durable state for a checkpoint. Must be called
    /// together with `Wal::begin_checkpoint` under the same monitor
    /// lock, so the captured state covers exactly the records in
    /// segments before the rotation point.
    pub fn durable_state(&self) -> MonitorState {
        MonitorState {
            window: self.window.iter().cloned().collect(),
            min_sup: self.min_sup,
            since_refresh: self.since_refresh as u64,
            total_recorded: self.total_recorded as u64,
        }
    }

    /// Restores checkpointed state into this monitor (recovery). If the
    /// configured capacity shrank since the snapshot, the newest
    /// entries win.
    pub fn restore_state(&mut self, st: &MonitorState) {
        self.window.clear();
        let skip = st.window.len().saturating_sub(self.capacity);
        self.window.extend(st.window.iter().skip(skip).cloned());
        self.min_sup = st.min_sup;
        self.since_refresh = st.since_refresh as usize;
        self.total_recorded = st.total_recorded as usize;
    }

    /// Sets the support threshold directly (WAL replay applies the
    /// logged threshold before re-running each drain).
    pub fn set_min_sup(&mut self, min_sup: f64) {
        self.min_sup = min_sup;
    }

    /// Records an executed plan's per-operator `(kind, predicted,
    /// actual)` outcomes — the planner feedback loop.
    pub fn record_plan(&mut self, ops: impl IntoIterator<Item = (OpKind, u64, u64)>) {
        self.feedback.record(ops);
    }

    /// Accumulated planner feedback.
    pub fn plan_feedback(&self) -> &PlanFeedback {
        &self.feedback
    }

    /// Records one query (and logs it, if a WAL is attached — before
    /// the push, so a crash between log and push loses nothing: the
    /// logged record replays the push). The frame is written under the
    /// caller's lock (log order = window order); a group-commit fsync
    /// it owes is paid where the [`Commit`] is dropped — at once in
    /// `m.record(q);`, after the unlock in `Engine::execute`.
    pub fn record(&mut self, q: LabelPath) -> Option<Commit> {
        let commit = self.wal.as_ref().and_then(|w| w.log_query(&q));
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(q);
        self.since_refresh += 1;
        self.total_recorded += 1;
        commit
    }

    /// The current window as a [`Workload`].
    pub fn workload(&self) -> Workload {
        Workload::from_paths(self.window.iter().cloned().collect())
    }

    /// Queries recorded since the last refresh.
    pub fn since_refresh(&self) -> usize {
        self.since_refresh
    }

    /// Total queries ever recorded.
    pub fn total_recorded(&self) -> usize {
        self.total_recorded
    }

    /// The configured support threshold.
    pub fn min_sup(&self) -> f64 {
        self.min_sup
    }

    /// The configured refresh policy.
    pub fn policy(&self) -> RefreshPolicy {
        self.policy
    }

    /// Replaces the refresh policy (e.g. CLI `--refresh-every`).
    pub fn set_policy(&mut self, policy: RefreshPolicy) {
        self.policy = policy;
    }

    /// Hands the current window to a refresher and marks the refresh as
    /// taken: returns `(workload, min_sup)` and resets the
    /// since-refresh counter. This is the monitor half of a refresh
    /// cycle — used by `core::serve` where the rebuild itself happens on
    /// a private index copy outside the monitor lock.
    pub fn drain_for_refresh(&mut self) -> (Workload, f64) {
        let wl = self.workload();
        if let Some(w) = &self.wal {
            w.log_swap(self.min_sup, wl.len());
        }
        self.since_refresh = 0;
        (wl, self.min_sup)
    }

    /// Decides whether a refresh is due for `index` (per policy). The
    /// graph is not consulted (drift compares label ids, not rendered
    /// paths); the parameter stays for the callers that pass it.
    pub fn refresh_due(&self, _g: &XmlGraph, index: &Apex) -> bool {
        if self.window.is_empty() {
            return false;
        }
        match self.policy {
            RefreshPolicy::Manual => false,
            RefreshPolicy::EveryN(n) => self.since_refresh >= n,
            RefreshPolicy::OnDrift { slack } => self.drift_detected(index, slack),
        }
    }

    /// Drift check: compares the windowed support of the index's current
    /// multi-label required paths (decayed?) and of the window's
    /// subpaths (newly frequent?) against `min_sup`. One counting scan of
    /// the window, then a lookup per path.
    fn drift_detected(&self, index: &Apex, slack: f64) -> bool {
        assert!(slack >= 1.0, "slack must be >= 1.0");
        let counts = self.workload().subpath_counts();
        let support = |count: u32| f64::from(count) / self.window.len() as f64;
        let required: HashSet<LabelPath> = index
            .hash_tree()
            .required_paths()
            .into_iter()
            .filter(|p| p.len() >= 2)
            .map(LabelPath::new)
            .collect();
        // Required multi-label paths whose support collapsed.
        let decayed = required
            .iter()
            .any(|p| support(counts.get(p).copied().unwrap_or(0)) < self.min_sup / slack);
        // Newly hot subpaths not yet required.
        decayed
            || counts.iter().any(|(p, &count)| {
                p.len() >= 2 && support(count) >= self.min_sup * slack && !required.contains(p)
            })
    }

    /// Runs a refresh if the policy says so; returns the number of
    /// update steps (`None` if no refresh happened).
    pub fn maybe_refresh(&mut self, g: &XmlGraph, index: &mut Apex) -> Option<usize> {
        if !self.refresh_due(g, index) {
            return None;
        }
        Some(self.refresh(g, index))
    }

    /// Unconditional refresh ("by request").
    pub fn refresh(&mut self, g: &XmlGraph, index: &mut Apex) -> usize {
        self.refresh_at(g, index, self.min_sup)
    }

    /// Unconditional refresh with an explicit threshold (overrides the
    /// configured `min_sup` for this round and becomes the new setting).
    /// An empty window is a no-op refine (0 steps): every path —
    /// serving, direct refresh, and WAL replay — agrees that a drain
    /// with nothing recorded never reshapes the index, which is what
    /// keeps replay convergent with the live history.
    pub fn refresh_at(&mut self, g: &XmlGraph, index: &mut Apex, min_sup: f64) -> usize {
        self.min_sup = min_sup;
        let (wl, min_sup) = self.drain_for_refresh();
        if wl.is_empty() {
            return 0;
        }
        index.refine(g, &wl, min_sup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;

    fn path(g: &XmlGraph, s: &str) -> LabelPath {
        LabelPath::parse(g, s).unwrap()
    }

    #[test]
    fn window_slides() {
        let g = moviedb();
        let mut m = WorkloadMonitor::new(3, 0.5, RefreshPolicy::Manual);
        for s in ["actor.name", "movie.title", "name", "title"] {
            m.record(path(&g, s));
        }
        assert_eq!(m.workload().len(), 3);
        assert_eq!(m.total_recorded(), 4);
        // The oldest query fell out of the window.
        let an = path(&g, "actor.name");
        assert_eq!(m.workload().support(&an), 0.0);
    }

    #[test]
    fn every_n_policy_fires() {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let mut m = WorkloadMonitor::new(100, 0.4, RefreshPolicy::EveryN(5));
        for _ in 0..4 {
            m.record(path(&g, "actor.name"));
            assert!(m.maybe_refresh(&g, &mut idx).is_none());
        }
        m.record(path(&g, "actor.name"));
        let steps = m.maybe_refresh(&g, &mut idx).expect("5th query triggers");
        assert!(steps > 0);
        assert!(idx.required_paths(&g).contains(&"actor.name".to_string()));
        assert_eq!(m.since_refresh(), 0);
    }

    #[test]
    fn drift_policy_detects_new_hot_path() {
        let g = moviedb();
        let idx = Apex::build_initial(&g); // only singles required
        let mut m = WorkloadMonitor::new(100, 0.4, RefreshPolicy::OnDrift { slack: 1.2 });
        assert!(!m.refresh_due(&g, &idx));
        for _ in 0..10 {
            m.record(path(&g, "director.movie"));
        }
        assert!(m.refresh_due(&g, &idx), "hot multi-label path must trigger");
    }

    #[test]
    fn drift_policy_detects_decayed_required_path() {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let mut m = WorkloadMonitor::new(10, 0.4, RefreshPolicy::OnDrift { slack: 1.2 });
        for _ in 0..10 {
            m.record(path(&g, "actor.name"));
        }
        m.refresh(&g, &mut idx);
        assert!(idx.required_paths(&g).contains(&"actor.name".to_string()));
        assert!(!m.refresh_due(&g, &idx), "steady workload: no drift");
        // Workload shifts entirely: actor.name decays out of the window.
        for _ in 0..10 {
            m.record(path(&g, "title"));
        }
        assert!(
            m.refresh_due(&g, &idx),
            "decayed required path must trigger"
        );
        m.refresh(&g, &mut idx);
        assert!(!idx.required_paths(&g).contains(&"actor.name".to_string()));
    }

    /// The drift definition spelled out with the O(window) reference
    /// [`Workload::support`] per path.
    fn drift_reference(m: &WorkloadMonitor, g: &XmlGraph, idx: &Apex, slack: f64) -> bool {
        let wl = m.workload();
        let required = idx.required_paths(g);
        let decayed = required
            .iter()
            .filter(|r| r.contains('.'))
            .any(|r| wl.support(&LabelPath::parse(g, r).unwrap()) < m.min_sup() / slack);
        let hot = wl.iter().flat_map(|q| q.subpaths()).any(|sub| {
            sub.len() >= 2
                && wl.support(&sub) >= m.min_sup() * slack
                && !required.contains(&sub.render(g))
        });
        decayed || hot
    }

    #[test]
    fn drift_verdicts_match_the_support_reference() {
        let g = moviedb();
        let pool = [
            "actor.name",
            "director.movie.title",
            "movie.title",
            "@movie.movie",
            "name",
            "director.name",
        ];
        let mut idx = Apex::build_initial(&g);
        let mut m = WorkloadMonitor::new(12, 0.25, RefreshPolicy::Manual);
        let (mut fired, mut quiet) = (0, 0);
        // A deterministic walk over the pool that lingers, then moves on.
        for i in 0..120usize {
            m.record(path(&g, pool[(i / 7 + i % 3) % pool.len()]));
            for slack in [1.0, 1.5, 3.0] {
                m.set_policy(RefreshPolicy::OnDrift { slack });
                let due = m.refresh_due(&g, &idx);
                assert_eq!(due, drift_reference(&m, &g, &idx, slack), "step {i}");
                if due {
                    fired += 1;
                } else {
                    quiet += 1;
                }
            }
            if i % 10 == 9 {
                m.refresh(&g, &mut idx);
            }
        }
        assert!(fired > 20 && quiet > 20, "both verdicts exercised");
    }

    #[test]
    fn plan_feedback_accumulates_and_ratios() {
        let mut m = WorkloadMonitor::new(10, 0.4, RefreshPolicy::Manual);
        assert_eq!(m.plan_feedback().plans(), 0);
        assert_eq!(m.plan_feedback().mispredict_ratio(), 0.0);
        m.record_plan([
            (OpKind::SemijoinMerge, 100, 80),
            (OpKind::ExtentScan, 10, 10),
        ]);
        m.record_plan([(OpKind::SemijoinMerge, 50, 70)]);
        let fb = m.plan_feedback();
        assert_eq!(fb.plans(), 2);
        assert_eq!(fb.per_op(OpKind::SemijoinMerge), (150, 150));
        assert_eq!(fb.per_op(OpKind::ExtentScan), (10, 10));
        assert_eq!(fb.per_op(OpKind::TrieSearch), (0, 0));
        assert_eq!(fb.predicted_total(), 160);
        assert_eq!(fb.actual_total(), 160);
        // |100+50-80-70| vanishes in aggregate only if summed per-op
        // first; the per-op error here is |150-150| + |10-10| = 0.
        assert_eq!(fb.mispredict_ratio(), 0.0);
        m.record_plan([(OpKind::DataProbe, 40, 10)]);
        let fb = m.plan_feedback();
        assert!((fb.mispredict_ratio() - 30.0 / 170.0).abs() < 1e-9);
    }

    #[test]
    fn manual_policy_never_fires() {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let mut m = WorkloadMonitor::new(10, 0.4, RefreshPolicy::Manual);
        for _ in 0..10 {
            m.record(path(&g, "actor.name"));
        }
        assert!(m.maybe_refresh(&g, &mut idx).is_none());
        // But by-request refresh works.
        let steps = m.refresh(&g, &mut idx);
        assert!(steps > 0);
    }
}
