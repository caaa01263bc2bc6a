//! The honest control plane: stale, lossy and hierarchical report
//! channels.
//!
//! A broker whose reports reach the control node directly is an
//! instantaneous global oracle — every placement decision reads perfectly
//! fresh [`ResourceVector`]s, which is the least realistic part of the
//! stack and the part the paper's dynamic-balancing claims lean on
//! hardest. The report channel between the nodes and the
//! [`crate::Broker`]'s control node turns the control plane itself into
//! the experiment:
//!
//! * the lagged channel ([`BrokerKind::Lagged`]) adds report
//!   **staleness** (each node's vector is delayed by an exponentially
//!   distributed lag, quantized to report rounds), **heartbeat loss**
//!   (each report is dropped with probability `heartbeat_loss`), and a
//!   **failure detector** (a node whose heartbeats miss `miss_threshold`
//!   rounds in a row is suspected failed: its state is poisoned to
//!   fully-utilized/zero-memory so ranking policies avoid it, and the
//!   control node masks it out of cluster averages until the next
//!   heartbeat arrives). Nodes never actually fail in the simulator, so
//!   every suspicion is a *false* suspicion — the counter prices detector
//!   aggressiveness.
//! * the rack channel ([`BrokerKind::Hierarchical`]) splits the cluster
//!   into per-rack aggregators feeding the root on a slower cadence:
//!   between root flushes the aggregators absorb exact member reports,
//!   and on each flush the root sees one mean vector per rack
//!   (bounded-error summaries). A single rack degenerates to a pure relay
//!   — the aggregator *is* the root's feeder — which anchors the
//!   bit-identity parity tests.
//!
//! All fault randomness comes from one dedicated [`SimRng`] stream forked
//! from the run seed, so faulty runs are exactly as reproducible as clean
//! ones, and a clean configuration (`staleness_ms = 0`, `heartbeat_loss
//! = 0`) draws nothing at all — the lagged channel then delivers every
//! report at once, byte-identical to the direct one.

use crate::broker::Root;
use crate::resources::{ResourceKind, ResourceVector};
use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// Which control-plane implementation serves a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BrokerKind {
    /// The paper's designated control node: fresh global state every
    /// report round (the default; all pre-existing scenarios use it).
    #[default]
    Central,
    /// Staleness + heartbeat loss + failure detector between the nodes
    /// and the control node.
    Lagged,
    /// Per-rack aggregation on a slower root cadence.
    Hierarchical,
}

/// Control-plane knobs, threaded from scenario specs down to the broker's
/// report channel. The default is the clean central broker; a defaulted
/// config lowers byte-identically to the pre-fault configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct BrokerConfig {
    /// Report channel to run.
    pub kind: BrokerKind,
    /// Mean report staleness in milliseconds ([`BrokerKind::Lagged`]):
    /// each received report is applied after an exponentially distributed
    /// delay with this mean, quantized to whole report rounds. `0`
    /// disables delay entirely (no RNG draws).
    pub staleness_ms: f64,
    /// Probability in `[0, 1]` that a heartbeat (one node's report in one
    /// round) is lost ([`BrokerKind::Lagged`]). `0` disables loss.
    pub heartbeat_loss: f64,
    /// Consecutive missed heartbeats after which a node is suspected
    /// failed ([`BrokerKind::Lagged`]). `0` disables the detector.
    pub miss_threshold: u32,
    /// Number of rack aggregators ([`BrokerKind::Hierarchical`]); nodes
    /// are grouped contiguously. `1` is the degenerate relay.
    pub racks: u32,
    /// Root update cadence in report rounds
    /// ([`BrokerKind::Hierarchical`]): aggregators flush to the root
    /// every `root_cadence`-th round. `1` flushes every round.
    pub root_cadence: u32,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            kind: BrokerKind::Central,
            staleness_ms: 0.0,
            heartbeat_loss: 0.0,
            miss_threshold: 3,
            racks: 1,
            root_cadence: 1,
        }
    }
}

impl BrokerConfig {
    /// Compact axis label for sweep expansion and result tables, e.g.
    /// `central`, `lagged(s=200ms,loss=0.1,miss=3)`, `hier(r=4,c=2)`.
    pub fn label(&self) -> String {
        match self.kind {
            BrokerKind::Central => "central".to_string(),
            BrokerKind::Lagged => format!(
                "lagged(s={}ms,loss={},miss={})",
                self.staleness_ms, self.heartbeat_loss, self.miss_threshold
            ),
            BrokerKind::Hierarchical => {
                format!("hier(r={},c={})", self.racks, self.root_cadence)
            }
        }
    }
}

/// Cumulative control-plane fault accounting, surfaced in the run
/// summary. The direct channel reports all-zero stats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BrokerFaultStats {
    /// Nodes suspected failed that were in fact alive (in this simulator
    /// nodes never fail, so this counts every suspicion the detector
    /// raised).
    pub false_suspicions: u64,
    /// Sum over report rounds of the number of nodes under suspicion —
    /// the integral of lost placement capacity.
    pub suspected_node_rounds: u64,
    /// 95th percentile age, in milliseconds, of the per-node state the
    /// broker's readers saw at each report round (0 for a fresh central
    /// view).
    pub stale_reads_p95_ms: f64,
}

/// The all-resources-saturated, no-memory vector reported on behalf of a
/// suspected node, so every ranking (LUC, LUM, LUB, AVAIL-MEMORY) places
/// it last without any policy knowing about suspicion.
const POISON: ResourceVector = ResourceVector {
    cpu: 1.0,
    mem: 1.0,
    disk: 1.0,
    net: 1.0,
    free_pages: 0,
};

/// Fixed-bucket histogram of state ages in whole milliseconds, mirroring
/// the metric crate's `UtilHist` shape: exact quantiles, no allocation
/// per record, deterministic across platforms.
#[derive(Debug, Clone)]
struct AgeHist {
    buckets: Vec<u64>,
    count: u64,
}

/// Inclusive upper bound of the age histogram in ms (1 ms buckets); ages
/// beyond it clamp into the last bucket. 60 report rounds at the paper's
/// 100 ms interval fit with room for exponential tails.
const AGE_CAP_MS: usize = 6000;

impl AgeHist {
    fn new() -> AgeHist {
        AgeHist {
            buckets: vec![0; AGE_CAP_MS + 1],
            count: 0,
        }
    }

    fn record(&mut self, age_ms: f64) {
        let b = (age_ms.max(0.0) as usize).min(AGE_CAP_MS);
        self.buckets[b] += 1;
        self.count += 1;
    }

    fn p95(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (self.count - 1) as f64 * 0.95;
        let mut seen = 0u64;
        for (ms, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen as f64 > rank {
                return ms as f64;
            }
        }
        AGE_CAP_MS as f64
    }
}

/// How reports travel from the nodes to the broker's control node. Only
/// `report` and `end_round` differ between channels; placement and every
/// read are the broker's own.
pub(crate) enum ReportChannel {
    /// Every report reaches the control node at once (the paper's
    /// designated control node).
    Direct,
    /// Exponential report staleness, Bernoulli heartbeat loss and a
    /// consecutive-miss failure detector.
    Lagged(Box<Lagged>),
    /// Per-rack aggregators flushing rack means to the root.
    Racks(Box<Racks>),
}

/// State of the lagged channel. At `staleness_ms = 0`
/// and `heartbeat_loss = 0` it delivers every report at once and draws
/// nothing.
pub(crate) struct Lagged {
    cfg: BrokerConfig,
    /// One report round in milliseconds (the control interval); delays
    /// quantize to this.
    round_ms: f64,
    /// Dedicated fault stream forked from the run seed — never touches
    /// the placement or arrival streams.
    rng: SimRng,
    round: u64,
    /// In-flight delayed reports `(release_round, node, vector)` in send
    /// order; drained front-to-back each round so same-round releases
    /// apply oldest-first.
    pending: Vec<(u64, u32, ResourceVector)>,
    /// Consecutive missed heartbeats per node.
    missed: Vec<u32>,
    /// Round in which each node's state last reached the control node.
    last_applied: Vec<u64>,
    false_suspicions: u64,
    suspected_node_rounds: u64,
    ages: AgeHist,
}

/// State of the rack channel: contiguous per-rack
/// aggregators absorb exact member reports every round and flush to the
/// root every `root_cadence` rounds. With more than one rack the root
/// receives one mean vector per rack (each member is reported as its
/// rack's mean, free pages floored), so every read sees rack-level
/// summaries with bounded error. A single rack forwards exact vectors.
pub(crate) struct Racks {
    cfg: BrokerConfig,
    round_ms: f64,
    round: u64,
    /// Freshest member report absorbed by each rack aggregator since the
    /// last root flush.
    staged: Vec<ResourceVector>,
    last_flush: u64,
    ages: AgeHist,
}

impl ReportChannel {
    /// The channel `cfg` describes for `n` nodes. `round_ms` is the
    /// report-round length (the control interval) and `rng` a dedicated
    /// stream forked from the run seed (only the lagged channel draws).
    pub(crate) fn new(cfg: &BrokerConfig, n: usize, round_ms: f64, rng: SimRng) -> ReportChannel {
        let round_ms = round_ms.max(1.0);
        match cfg.kind {
            BrokerKind::Central => ReportChannel::Direct,
            BrokerKind::Lagged => ReportChannel::Lagged(Box::new(Lagged {
                cfg: *cfg,
                round_ms,
                rng,
                round: 0,
                pending: Vec::new(),
                missed: vec![0; n],
                last_applied: vec![0; n],
                false_suspicions: 0,
                suspected_node_rounds: 0,
                ages: AgeHist::new(),
            })),
            BrokerKind::Hierarchical => ReportChannel::Racks(Box::new(Racks {
                cfg: *cfg,
                round_ms,
                round: 0,
                staged: vec![ResourceVector::default(); n],
                last_flush: 0,
                ages: AgeHist::new(),
            })),
        }
    }

    /// Carry one node's periodic report towards the root.
    pub(crate) fn report(&mut self, root: &mut Root, node: u32, state: ResourceVector) {
        match self {
            ReportChannel::Direct => root.deliver(node, state),
            ReportChannel::Lagged(l) => l.report(root, node, state),
            ReportChannel::Racks(r) => r.staged[node as usize] = state,
        }
    }

    /// Close one report round (before the policies observe it).
    pub(crate) fn end_round(&mut self, root: &mut Root) {
        match self {
            ReportChannel::Direct => {}
            ReportChannel::Lagged(l) => l.end_round(root),
            ReportChannel::Racks(r) => r.end_round(root),
        }
    }

    /// Lose this round's heartbeat from `node` (lagged channel only).
    pub(crate) fn drop_heartbeat(&mut self, root: &mut Root, node: u32) {
        if let ReportChannel::Lagged(l) = self {
            l.drop_heartbeat(root, node);
        }
    }

    /// Cumulative fault accounting of this channel.
    pub(crate) fn fault_stats(&self) -> BrokerFaultStats {
        match self {
            ReportChannel::Direct => BrokerFaultStats::default(),
            ReportChannel::Lagged(l) => BrokerFaultStats {
                false_suspicions: l.false_suspicions,
                suspected_node_rounds: l.suspected_node_rounds,
                stale_reads_p95_ms: l.ages.p95(),
            },
            ReportChannel::Racks(r) => BrokerFaultStats {
                stale_reads_p95_ms: r.ages.p95(),
                ..BrokerFaultStats::default()
            },
        }
    }
}

impl Lagged {
    fn drop_heartbeat(&mut self, root: &mut Root, node: u32) {
        let m = &mut self.missed[node as usize];
        *m = m.saturating_add(1);
        if self.cfg.miss_threshold > 0
            && *m == self.cfg.miss_threshold
            && !root.ctl.is_suspected(node)
        {
            self.false_suspicions += 1;
            // Poison the delivered state so rankings steer around the
            // node; policies need no notion of suspicion.
            root.deliver(node, POISON);
            root.ctl.set_suspected(node, true);
        }
    }

    fn report(&mut self, root: &mut Root, node: u32, state: ResourceVector) {
        if self.cfg.heartbeat_loss > 0.0 && self.rng.chance(self.cfg.heartbeat_loss) {
            self.drop_heartbeat(root, node);
            return;
        }
        self.missed[node as usize] = 0;
        // A live heartbeat clears suspicion immediately; the payload below
        // repairs the poisoned state (possibly after its delay).
        root.ctl.set_suspected(node, false);
        if self.cfg.staleness_ms > 0.0 {
            let delay = (self.rng.exp(self.cfg.staleness_ms) / self.round_ms).round() as u64;
            if delay == 0 {
                self.apply(root, node, state);
            } else {
                self.pending.push((self.round + delay, node, state));
            }
        } else {
            self.apply(root, node, state);
        }
    }

    /// Deliver a report to the root now (unless the node is under
    /// suspicion: a suspect's buffered payloads are discarded so the
    /// poison state holds until a live heartbeat clears it).
    fn apply(&mut self, root: &mut Root, node: u32, state: ResourceVector) {
        if root.ctl.is_suspected(node) {
            return;
        }
        root.deliver(node, state);
        self.last_applied[node as usize] = self.round;
    }

    fn end_round(&mut self, root: &mut Root) {
        if !self.pending.is_empty() {
            // Drain due reports in send order (retain preserves order and
            // visits front to back).
            let round = self.round;
            let mut pending = std::mem::take(&mut self.pending);
            pending.retain(|&(release, node, state)| {
                if release <= round {
                    self.apply(root, node, state);
                    false
                } else {
                    true
                }
            });
            self.pending = pending;
        }
        self.suspected_node_rounds += u64::from(root.ctl.suspected_nodes());
        for node in 0..self.last_applied.len() {
            let age = (self.round - self.last_applied[node]) as f64 * self.round_ms;
            self.ages.record(age);
        }
        self.round += 1;
    }
}

impl Racks {
    /// Nodes per rack (last rack may be short).
    fn rack_size(&self) -> usize {
        let n = self.staged.len();
        let racks = (self.cfg.racks.max(1) as usize).min(n.max(1));
        n.div_ceil(racks)
    }

    fn flush_to_root(&self, root: &mut Root) {
        let n = self.staged.len();
        if self.cfg.racks <= 1 {
            // Lone aggregator: co-located with the root, exact relay.
            for node in 0..n {
                root.deliver(node as u32, self.staged[node]);
            }
            return;
        }
        let size = self.rack_size();
        let mut start = 0;
        while start < n {
            let end = (start + size).min(n);
            let members = &self.staged[start..end];
            let count = members.len() as f64;
            let mut mean = ResourceVector::default();
            let mut pages = 0u64;
            for m in members {
                for kind in ResourceKind::ALL {
                    mean.set(kind, mean.get(kind) + m.get(kind));
                }
                pages += u64::from(m.free_pages);
            }
            for kind in ResourceKind::ALL {
                mean.set(kind, mean.get(kind) / count);
            }
            mean.free_pages = (pages / members.len() as u64) as u32;
            for node in start..end {
                root.deliver(node as u32, mean);
            }
            start = end;
        }
    }

    fn end_round(&mut self, root: &mut Root) {
        let cadence = u64::from(self.cfg.root_cadence.max(1));
        if (self.round + 1).is_multiple_of(cadence) {
            self.flush_to_root(root);
            self.last_flush = self.round;
        }
        let age = (self.round - self.last_flush) as f64 * self.round_ms;
        for _ in 0..self.staged.len() {
            self.ages.record(age);
        }
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyConfig, WorkClass};
    use crate::strategy::Strategy;
    use crate::Broker;

    fn central(n: usize) -> Broker {
        Broker::new(n, 0.05, 50, Strategy::MinIo, &PolicyConfig::default())
    }

    fn lagged(n: usize, cfg: BrokerConfig) -> Broker {
        central(n).with_channel(&cfg, 100.0, SimRng::new(7).fork(3))
    }

    fn vec_cpu(cpu: f64) -> ResourceVector {
        ResourceVector {
            cpu,
            free_pages: 50,
            ..ResourceVector::default()
        }
    }

    #[test]
    fn suspicion_fires_after_exactly_miss_threshold_misses() {
        let mut b = lagged(
            4,
            BrokerConfig {
                kind: BrokerKind::Lagged,
                miss_threshold: 3,
                ..BrokerConfig::default()
            },
        );
        b.drop_heartbeat(2);
        b.drop_heartbeat(2);
        assert!(
            !b.control().is_suspected(2),
            "below threshold: not suspected"
        );
        assert_eq!(b.fault_stats().false_suspicions, 0);
        b.drop_heartbeat(2);
        assert!(
            b.control().is_suspected(2),
            "exactly at threshold: suspected"
        );
        assert_eq!(b.fault_stats().false_suspicions, 1);
        // Further misses keep the suspicion but never double-count it.
        b.drop_heartbeat(2);
        assert_eq!(b.fault_stats().false_suspicions, 1);
    }

    #[test]
    fn suspicion_clears_on_next_received_report() {
        let mut b = lagged(
            4,
            BrokerConfig {
                kind: BrokerKind::Lagged,
                miss_threshold: 2,
                ..BrokerConfig::default()
            },
        );
        b.drop_heartbeat(1);
        b.drop_heartbeat(1);
        assert!(b.control().is_suspected(1));
        assert_eq!(b.control().suspected_nodes(), 1);
        // Poisoned while suspected: rankings see a saturated node.
        assert!((b.utils(ResourceKind::Cpu)[1] - 1.0).abs() < 1e-12);
        b.report(1, vec_cpu(0.3));
        assert!(
            !b.control().is_suspected(1),
            "one live heartbeat clears suspicion"
        );
        assert_eq!(b.control().suspected_nodes(), 0);
        assert!((b.utils(ResourceKind::Cpu)[1] - 0.3).abs() < 1e-12);
        // The cleared suspicion still counts as one false positive.
        assert_eq!(b.fault_stats().false_suspicions, 1);
        // Misses must again accumulate from zero.
        b.drop_heartbeat(1);
        assert!(!b.control().is_suspected(1));
    }

    #[test]
    fn detector_never_fires_at_zero_loss() {
        let mut b = lagged(
            8,
            BrokerConfig {
                kind: BrokerKind::Lagged,
                heartbeat_loss: 0.0,
                miss_threshold: 1,
                ..BrokerConfig::default()
            },
        );
        for round in 0..200 {
            for node in 0..8 {
                b.report(node, vec_cpu(0.1 * (round % 10) as f64));
            }
            b.end_report_round();
        }
        assert_eq!(b.fault_stats().false_suspicions, 0);
        assert_eq!(b.fault_stats().suspected_node_rounds, 0);
        assert_eq!(b.control().suspected_nodes(), 0);
    }

    #[test]
    fn false_suspicion_counter_matches_scripted_loss_trace() {
        // Scripted pattern over 10 rounds for node 0, threshold 2:
        //   L L | R | L L | L | R ...   (L = lost, R = received)
        // round: 0 1   2   3 4   5   6..9 received
        // Suspicions fire at round 1 (2nd consecutive miss) and round 4;
        // round 5's miss extends the second suspicion without recounting.
        let mut b = lagged(
            2,
            BrokerConfig {
                kind: BrokerKind::Lagged,
                miss_threshold: 2,
                ..BrokerConfig::default()
            },
        );
        let lost = [
            true, true, false, true, true, true, false, false, false, false,
        ];
        let mut expect = 0u64;
        let mut expected_rounds = 0u64;
        let mut missed = 0u32;
        let mut sus = false;
        for &l in &lost {
            if l {
                b.drop_heartbeat(0);
                missed += 1;
                if missed == 2 && !sus {
                    sus = true;
                    expect += 1;
                }
            } else {
                b.report(0, vec_cpu(0.2));
                missed = 0;
                sus = false;
            }
            b.report(1, vec_cpu(0.2));
            b.end_report_round();
            if sus {
                expected_rounds += 1;
            }
        }
        assert_eq!(b.fault_stats().false_suspicions, expect);
        assert_eq!(expect, 2, "hand-computed trace: two suspicions");
        let stats = b.fault_stats();
        assert_eq!(stats.suspected_node_rounds, expected_rounds);
        assert_eq!(expected_rounds, 3, "suspected during rounds 1, 4, 5");
    }

    #[test]
    fn suspected_node_is_masked_out_of_cluster_averages() {
        let mut b = lagged(
            4,
            BrokerConfig {
                kind: BrokerKind::Lagged,
                miss_threshold: 1,
                ..BrokerConfig::default()
            },
        );
        for node in 0..4 {
            b.report(node, vec_cpu(0.4));
        }
        b.end_report_round();
        assert!((b.avg(ResourceKind::Cpu) - 0.4).abs() < 1e-12);
        b.drop_heartbeat(3);
        // Poisoned to 1.0 in the per-node view, but masked in the average.
        assert!((b.utils(ResourceKind::Cpu)[3] - 1.0).abs() < 1e-12);
        assert!((b.avg(ResourceKind::Cpu) - 0.4).abs() < 1e-12);
        assert!(b.control().is_suspected(3));
    }

    #[test]
    fn staleness_delays_reports_by_whole_rounds() {
        let mut b = lagged(
            2,
            BrokerConfig {
                kind: BrokerKind::Lagged,
                staleness_ms: 400.0,
                ..BrokerConfig::default()
            },
        );
        // Feed distinct values for many rounds; with a 4-round mean delay
        // the inner view lags behind the freshest report.
        for round in 0..50u32 {
            let cpu = f64::from(round % 10) / 10.0;
            b.report(0, vec_cpu(cpu));
            b.report(1, vec_cpu(cpu));
            b.end_report_round();
        }
        let stats = b.fault_stats();
        assert!(
            stats.stale_reads_p95_ms > 0.0,
            "p95 age must be positive under staleness, got {}",
            stats.stale_reads_p95_ms
        );
        assert_eq!(stats.false_suspicions, 0, "staleness is not loss");
    }

    #[test]
    fn hierarchical_racks_see_rack_means() {
        let cfg = BrokerConfig {
            kind: BrokerKind::Hierarchical,
            racks: 2,
            ..BrokerConfig::default()
        };
        let mut b = central(4).with_channel(&cfg, 100.0, SimRng::new(7));
        b.report(0, vec_cpu(0.2));
        b.report(1, vec_cpu(0.4));
        b.report(2, vec_cpu(0.6));
        b.report(3, vec_cpu(0.8));
        b.end_report_round();
        // Rack 0 = {0,1} mean 0.3; rack 1 = {2,3} mean 0.7.
        assert!((b.utils(ResourceKind::Cpu)[0] - 0.3).abs() < 1e-12);
        assert!((b.utils(ResourceKind::Cpu)[1] - 0.3).abs() < 1e-12);
        assert!((b.utils(ResourceKind::Cpu)[2] - 0.7).abs() < 1e-12);
        assert!((b.utils(ResourceKind::Cpu)[3] - 0.7).abs() < 1e-12);
        // The cluster mean is preserved by rack aggregation.
        assert!((b.avg(ResourceKind::Cpu) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hierarchical_root_cadence_batches_flushes() {
        let cfg = BrokerConfig {
            kind: BrokerKind::Hierarchical,
            racks: 2,
            root_cadence: 3,
            ..BrokerConfig::default()
        };
        let mut b = central(4).with_channel(&cfg, 100.0, SimRng::new(7));
        for round in 0..2 {
            for node in 0..4 {
                b.report(node, vec_cpu(0.5 + 0.1 * f64::from(round)));
            }
            b.end_report_round();
        }
        // No flush yet: the root still sees construction-time state.
        assert_eq!(b.utils(ResourceKind::Cpu)[0], 0.0);
        for node in 0..4 {
            b.report(node, vec_cpu(0.9));
        }
        b.end_report_round(); // third round: flush
        assert!((b.utils(ResourceKind::Cpu)[0] - 0.9).abs() < 1e-12);
        assert!(b.fault_stats().stale_reads_p95_ms > 0.0);
    }

    #[test]
    fn clean_lagged_broker_is_a_transparent_pass_through() {
        let mut a = central(6);
        let mut b = lagged(6, BrokerConfig::default());
        let mut rng_a = SimRng::new(11);
        let mut rng_b = SimRng::new(11);
        for round in 0..5u32 {
            for node in 0..6 {
                let v = vec_cpu(f64::from((node + round) % 6) / 6.0);
                a.report(node, v);
                b.report(node, v);
            }
            a.end_report_round();
            b.end_report_round();
            assert_eq!(
                a.place_coordinator(WorkClass::Scan, 0, 6, &mut rng_a),
                b.place_coordinator(WorkClass::Scan, 0, 6, &mut rng_b)
            );
        }
        for kind in ResourceKind::ALL {
            assert_eq!(a.utils(kind), b.utils(kind));
            assert_eq!(a.avg(kind).to_bits(), b.avg(kind).to_bits());
        }
        assert_eq!(b.fault_stats(), BrokerFaultStats::default());
    }
}
