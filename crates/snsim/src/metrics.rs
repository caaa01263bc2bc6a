//! Simulation output: per-class response times, resource utilization,
//! join placement statistics, conservation counters.
//!
//! Work-class names are **interned once per run**: the hot recording path
//! ([`Metrics::record_completion`], [`Metrics::record_join`]) works purely
//! with dense [`ClassId`] indices and never touches a `String` — names are
//! resolved only when the final [`Summary`] is built.

use lb_core::{ResourceKind, ResourceVector};
use serde::{Deserialize, Serialize};
use simkit::stats::{Histogram, OnlineStats};
use simkit::{SimDur, SimTime};

/// Fixed-bucket histogram over `[0, 1]` utilization samples: per-node,
/// per-report-round samples go in, deterministic quantiles come out.
/// Pre-sized (1001 buckets of 0.001) — recording allocates nothing.
#[derive(Debug, Clone)]
pub struct UtilHist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for UtilHist {
    fn default() -> Self {
        UtilHist {
            buckets: vec![0; 1001],
            count: 0,
        }
    }
}

impl UtilHist {
    /// Record one utilization sample (clamped into `[0, 1]`).
    pub fn record(&mut self, util: f64) {
        let i = (util.clamp(0.0, 1.0) * 1000.0).round() as usize;
        self.buckets[i.min(1000)] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (bucket upper edge; 0.0 with no samples).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return i as f64 / 1000.0;
            }
        }
        1.0
    }
}

/// Log₂-bucketed latency histogram with **inline** storage: the same
/// bucket math as [`simkit::stats::Histogram`] (`buckets[i]` counts
/// samples in `[2^i, 2^(i+1))` microseconds, ceil-rank quantile returning
/// the bucket upper edge) but backed by a fixed `[u64; 48]` array, so
/// constructing and recording never touch the heap. Used for the
/// queue-wait p95, which is recorded on the admission hot path.
///
/// Bit-compatibility with the `Vec`-backed histogram is pinned by
/// `tests::wait_hist_matches_simkit_histogram`.
#[derive(Debug, Clone)]
pub struct WaitHist {
    buckets: [u64; 48],
    count: u64,
}

impl Default for WaitHist {
    fn default() -> Self {
        WaitHist {
            buckets: [0; 48],
            count: 0,
        }
    }
}

impl WaitHist {
    /// Record one duration (floored to 1 µs, capped at the last bucket).
    pub fn record(&mut self, d: SimDur) {
        let us = (d.as_nanos() / 1_000).max(1);
        let b = (63 - us.leading_zeros()) as usize;
        let b = b.min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile (bucket upper bound), `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDur {
        if self.count == 0 {
            return SimDur::ZERO;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return SimDur::from_micros(1u64 << (i + 1));
            }
        }
        SimDur::from_micros(1u64 << self.buckets.len())
    }
}

/// Dense index of a workload class (queries first, then OLTP classes), in
/// the order the names were interned at [`Metrics::new`].
pub type ClassId = u32;

/// Per-workload-class accumulators (name held in the metrics-level intern
/// table, not per event).
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    pub completed: u64,
    pub resp: OnlineStats,
    pub hist: Histogram,
}

/// Join-specific accumulators (degree of parallelism, overflow I/O).
#[derive(Debug, Clone, Default)]
pub struct JoinStats {
    pub degree: OnlineStats,
    pub spill_pages: u64,
    pub temp_reads: u64,
    pub mem_waits: u64,
    pub results: u64,
}

/// Live metrics collected during a run.
#[derive(Debug, Clone)]
pub struct Metrics {
    pub warmup_end: SimTime,
    /// Interned class names; index = [`ClassId`].
    names: Vec<Box<str>>,
    pub classes: Vec<ClassStats>,
    pub joins: JoinStats,
    pub aborted: u64,
    pub deadlock_victims: u64,
    pub stale_tokens: u64,
    pub arrivals: u64,
    /// Completed fragment migrations (online rebalancing).
    pub migrations: u64,
    /// Tuples re-homed by completed migrations.
    pub tuples_moved: u64,
    /// Wait between a query's arrival and its actual start (admission
    /// queue + MPL input queue), post-warmup starts only. Pre-sized like
    /// every per-event accumulator: recording allocates nothing.
    pub queue_wait: OnlineStats,
    /// Histogram of the same waits (for the p95 backpressure metric).
    /// Inline fixed-bucket storage — recording allocates nothing.
    pub queue_hist: WaitHist,
    /// Peak backlog observed: admission-queue length plus all MPL input
    /// queues, sampled at every point the backlog can grow. (Rejection
    /// counts live in the scheduler, the single owner of that decision.)
    pub peak_queue_depth: u64,
    /// Per-resource utilization histograms (index = `ResourceKind::index`),
    /// fed one sample per node per post-warmup report round.
    pub util_hists: Vec<UtilHist>,
}

impl Metrics {
    pub fn new(class_names: Vec<String>, warmup_end: SimTime) -> Metrics {
        let names: Vec<Box<str>> = class_names
            .into_iter()
            .map(String::into_boxed_str)
            .collect();
        Metrics {
            warmup_end,
            classes: names.iter().map(|_| ClassStats::default()).collect(),
            names,
            joins: JoinStats::default(),
            aborted: 0,
            deadlock_victims: 0,
            stale_tokens: 0,
            arrivals: 0,
            migrations: 0,
            tuples_moved: 0,
            queue_wait: OnlineStats::new(),
            queue_hist: WaitHist::default(),
            peak_queue_depth: 0,
            util_hists: (0..ResourceKind::COUNT)
                .map(|_| UtilHist::default())
                .collect(),
        }
    }

    /// Record one node's report-round resource vector (post-warmup rounds
    /// only — the caller gates on the warm-up mark like every sampler).
    pub fn record_util_sample(&mut self, v: &ResourceVector) {
        for kind in ResourceKind::ALL {
            self.util_hists[kind.index()].record(v.get(kind));
        }
    }

    /// The p-quantile of one resource's per-node, per-round utilization
    /// samples.
    pub fn util_quantile(&self, kind: ResourceKind, q: f64) -> f64 {
        self.util_hists[kind.index()].quantile(q)
    }

    /// Interned name of a class.
    pub fn class_name(&self, class: ClassId) -> &str {
        &self.names[class as usize]
    }

    /// Record a completed job (response samples only after warm-up).
    pub fn record_completion(&mut self, class: ClassId, submitted: SimTime, now: SimTime) {
        if now < self.warmup_end {
            return;
        }
        let c = &mut self.classes[class as usize];
        c.completed += 1;
        let rt = now - submitted;
        c.resp.record(rt.as_millis_f64());
        c.hist.record(rt);
    }

    pub fn record_join(
        &mut self,
        degree: u32,
        spill: u64,
        temp_reads: u64,
        mem_waits: u32,
        results: u64,
        now: SimTime,
    ) {
        if now < self.warmup_end {
            return;
        }
        self.joins.degree.record(degree as f64);
        self.joins.spill_pages += spill;
        self.joins.temp_reads += temp_reads;
        self.joins.mem_waits += mem_waits as u64;
        self.joins.results += results;
    }

    /// Record one completed fragment migration.
    pub fn record_migration(&mut self, tuples: u64) {
        self.migrations += 1;
        self.tuples_moved += tuples;
    }

    /// Record the queue wait of a query that starts now (0 for immediate
    /// admissions; samples only after warm-up, like response times).
    pub fn record_queue_wait(&mut self, wait: SimDur, now: SimTime) {
        if now < self.warmup_end {
            return;
        }
        self.queue_wait.record(wait.as_millis_f64());
        self.queue_hist.record(wait);
    }

    /// Update the peak-backlog watermark.
    pub fn note_queue_depth(&mut self, depth: u64) {
        if depth > self.peak_queue_depth {
            self.peak_queue_depth = depth;
        }
    }
}

/// Final run summary (serializable, so every figure run leaves its
/// provenance under `results/`; see README, "Reproducing the paper's
/// figures").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    pub n_pes: u32,
    pub strategy: String,
    pub sim_seconds: f64,
    pub measured_seconds: f64,
    pub events: u64,
    /// Per class: (name, completed, mean ms, p95 ms, throughput /s).
    pub classes: Vec<ClassSummary>,
    pub avg_cpu_util: f64,
    pub max_cpu_util: f64,
    pub avg_disk_util: f64,
    pub avg_mem_util: f64,
    /// Mean egress-link utilization over the measurement window (the
    /// interconnect as a first-class balanced resource).
    pub avg_net_util: f64,
    /// p95 of per-node, per-round CPU utilization samples.
    pub p95_cpu_util: f64,
    /// p95 of per-node, per-round memory utilization samples.
    pub p95_mem_util: f64,
    /// p95 of per-node, per-round disk utilization samples.
    pub p95_disk_util: f64,
    /// p95 of per-node, per-round egress-link utilization samples.
    pub p95_net_util: f64,
    pub avg_join_degree: f64,
    pub spill_pages: u64,
    pub temp_reads: u64,
    pub mem_waits: u64,
    pub messages: u64,
    pub aborted: u64,
    pub deadlock_victims: u64,
    /// Mid-run placement-policy switches by adaptive controllers.
    pub policy_switches: u64,
    /// Completed fragment migrations (0 without rebalancing).
    pub migrations: u64,
    /// Tuples re-homed by completed migrations.
    pub tuples_moved: u64,
    /// Total arrivals over the whole run (including warm-up), before any
    /// admission decision — `arrivals − rejected − completions` is the
    /// backlog the run left behind.
    pub arrivals: u64,
    /// Mean wait (ms) between arrival and start across all post-warmup
    /// starts (admission queue + MPL input queue; 0 when every query
    /// started immediately).
    pub queue_wait_ms_mean: f64,
    /// 95th percentile of the same wait (ms).
    pub queue_wait_ms_p95: f64,
    /// Peak backlog: admission-queue length plus all MPL input queues.
    pub peak_queue_depth: u64,
    /// Admissions started with a degree shrunk below the ticket estimate
    /// (malleable scheduling).
    pub shrunk_admissions: u64,
    /// Arrivals rejected by the admission queue bound.
    pub rejected: u64,
    /// 95th percentile age (ms) of the per-node state the broker's
    /// readers saw at each report round (0 under the fresh central
    /// broker).
    pub stale_reads_p95_ms: f64,
    /// Live nodes the broker's failure detector wrongly suspected failed
    /// (every suspicion is false in this simulator — nodes never die).
    pub false_suspicions: u64,
    /// Sum over report rounds of nodes under suspicion: the integral of
    /// placement capacity the control plane withheld.
    pub suspected_node_rounds: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassSummary {
    pub name: String,
    pub completed: u64,
    pub mean_ms: f64,
    pub p95_ms: f64,
    pub throughput: f64,
}

impl Summary {
    /// Mean response time (ms) of the first join class, the headline
    /// number of every figure.
    ///
    /// A saturated cell that completed **zero** queries after warm-up
    /// reports `f64::INFINITY`, not the accumulator's 0.0 — an `argmin`
    /// over a degree sweep must never crown an empty cell the optimum
    /// (the pre-PR-3 fig1c "shape violation" was exactly that artifact).
    pub fn join_resp_ms(&self) -> f64 {
        self.classes
            .iter()
            .find(|c| c.name.starts_with("join"))
            .map(ClassSummary::resp_ms)
            .unwrap_or(f64::NAN)
    }

    /// Mean response time of the OLTP class, if present (infinite for a
    /// saturated cell with zero completions, like [`Summary::join_resp_ms`]).
    pub fn oltp_resp_ms(&self) -> Option<f64> {
        self.classes
            .iter()
            .find(|c| c.name.contains("debit") || c.name.contains("oltp"))
            .map(ClassSummary::resp_ms)
    }
}

impl ClassSummary {
    /// Mean response time, `f64::INFINITY` when nothing completed.
    pub fn resp_ms(&self) -> f64 {
        if self.completed == 0 {
            f64::INFINITY
        } else {
            self.mean_ms
        }
    }
}

/// Helper: duration of the measurement window.
pub fn measured_window(sim_time: SimDur, warmup: SimDur) -> SimDur {
    sim_time.saturating_sub(warmup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_samples_discarded() {
        let mut m = Metrics::new(vec!["join".into()], SimTime(1_000));
        m.record_completion(0, SimTime(0), SimTime(500));
        assert_eq!(m.classes[0].completed, 0);
        m.record_completion(0, SimTime(900), SimTime(1_500));
        assert_eq!(m.classes[0].completed, 1);
        assert_eq!(m.class_name(0), "join");
    }

    #[test]
    fn join_stats_aggregate() {
        let mut m = Metrics::new(vec!["join".into()], SimTime(0));
        m.record_join(3, 10, 5, 1, 100, SimTime(1));
        m.record_join(5, 0, 0, 0, 100, SimTime(2));
        assert!((m.joins.degree.mean() - 4.0).abs() < 1e-12);
        assert_eq!(m.joins.spill_pages, 10);
        assert_eq!(m.joins.results, 200);
    }

    #[test]
    fn util_hist_quantiles_are_deterministic() {
        let mut h = UtilHist::default();
        assert_eq!(h.quantile(0.95), 0.0, "empty");
        for i in 0..100 {
            h.record(i as f64 / 100.0);
        }
        assert_eq!(h.count(), 100);
        assert!(
            (h.quantile(0.95) - 0.94).abs() < 1e-9,
            "{}",
            h.quantile(0.95)
        );
        assert!((h.quantile(1.0) - 0.99).abs() < 1e-9);
        h.record(7.5); // clamped
        assert!((h.quantile(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn resource_samples_feed_per_kind_hists() {
        let mut m = Metrics::new(vec![], SimTime(0));
        m.record_util_sample(&ResourceVector {
            cpu: 0.5,
            mem: 0.2,
            disk: 0.9,
            net: 0.1,
            free_pages: 0,
        });
        m.record_util_sample(&ResourceVector {
            cpu: 0.7,
            mem: 0.2,
            disk: 0.1,
            net: 0.4,
            free_pages: 0,
        });
        assert_eq!(m.util_hists[ResourceKind::Cpu.index()].count(), 2);
        assert!((m.util_quantile(ResourceKind::Cpu, 1.0) - 0.7).abs() < 1e-9);
        assert!((m.util_quantile(ResourceKind::Net, 1.0) - 0.4).abs() < 1e-9);
        assert!((m.util_quantile(ResourceKind::Disk, 0.5) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn migration_counters_accumulate() {
        let mut m = Metrics::new(vec![], SimTime(0));
        m.record_migration(40_000);
        m.record_migration(2_000);
        assert_eq!(m.migrations, 2);
        assert_eq!(m.tuples_moved, 42_000);
    }

    fn summary(classes: Vec<ClassSummary>) -> Summary {
        Summary {
            n_pes: 10,
            strategy: "MIN-IO".into(),
            sim_seconds: 10.0,
            measured_seconds: 8.0,
            events: 1000,
            classes,
            avg_cpu_util: 0.5,
            max_cpu_util: 0.9,
            avg_disk_util: 0.3,
            avg_mem_util: 0.4,
            avg_net_util: 0.1,
            p95_cpu_util: 0.8,
            p95_mem_util: 0.6,
            p95_disk_util: 0.5,
            p95_net_util: 0.2,
            avg_join_degree: 3.0,
            spill_pages: 0,
            temp_reads: 0,
            mem_waits: 0,
            messages: 123,
            aborted: 0,
            deadlock_victims: 0,
            policy_switches: 0,
            migrations: 0,
            tuples_moved: 0,
            arrivals: 0,
            queue_wait_ms_mean: 0.0,
            queue_wait_ms_p95: 0.0,
            peak_queue_depth: 0,
            shrunk_admissions: 0,
            rejected: 0,
            stale_reads_p95_ms: 0.0,
            false_suspicions: 0,
            suspected_node_rounds: 0,
        }
    }

    /// The inline [`WaitHist`] must agree with the `Vec`-backed simkit
    /// [`Histogram`] sample for sample and quantile for quantile — it is
    /// a storage change, not a semantics change, and the committed
    /// `queue_wait_ms_p95` values depend on the exact bucket math
    /// (all-zero waits ⇒ 0.002 ms, the 2 µs bucket edge).
    #[test]
    fn wait_hist_matches_simkit_histogram() {
        let mut ours = WaitHist::default();
        let mut theirs = Histogram::new();
        // Zero, sub-µs, bucket-edge, mid-range, and beyond-last-bucket
        // durations, plus a pseudo-random spread.
        let mut samples: Vec<u64> = vec![0, 1, 999, 1_000, 1_001, 2_000, u64::MAX / 2];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            samples.push(x >> (x % 50));
        }
        for &ns in &samples {
            ours.record(SimDur::from_nanos(ns));
            theirs.record(SimDur::from_nanos(ns));
        }
        assert_eq!(ours.count(), theirs.count());
        for q in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(ours.quantile(q), theirs.quantile(q), "q={q}");
        }
        // The committed all-zero-wait fixed point.
        let mut zeros = WaitHist::default();
        zeros.record(SimDur::ZERO);
        assert_eq!(zeros.quantile(0.95).as_millis_f64(), 0.002);
        // Empty histograms agree on zero.
        assert_eq!(WaitHist::default().quantile(0.95), SimDur::ZERO);
    }

    #[test]
    fn queue_waits_gated_by_warmup() {
        let mut m = Metrics::new(vec!["join".into()], SimTime(1_000));
        m.record_queue_wait(SimDur::from_millis(5), SimTime(500));
        assert_eq!(m.queue_wait.count(), 0, "warm-up discarded");
        m.record_queue_wait(SimDur::from_millis(5), SimTime(2_000));
        m.record_queue_wait(SimDur::from_millis(15), SimTime(3_000));
        assert_eq!(m.queue_wait.count(), 2);
        assert!((m.queue_wait.mean() - 10.0).abs() < 1e-12);
        assert!(m.queue_hist.quantile(0.95) >= SimDur::from_millis(15));
        m.note_queue_depth(7);
        m.note_queue_depth(3);
        assert_eq!(m.peak_queue_depth, 7);
    }

    #[test]
    fn summary_helpers() {
        let s = summary(vec![
            ClassSummary {
                name: "join-1%".into(),
                completed: 10,
                mean_ms: 500.0,
                p95_ms: 900.0,
                throughput: 1.25,
            },
            ClassSummary {
                name: "debit-credit".into(),
                completed: 100,
                mean_ms: 20.0,
                p95_ms: 50.0,
                throughput: 12.5,
            },
        ]);
        assert_eq!(s.join_resp_ms(), 500.0);
        assert_eq!(s.oltp_resp_ms(), Some(20.0));
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("join-1%"));
    }

    #[test]
    fn empty_cells_report_infinite_response() {
        // A saturated cell: arrivals happened but nothing completed after
        // warm-up. The headline metric must be non-finite so sweeps
        // never treat the cell as the optimum.
        let s = summary(vec![ClassSummary {
            name: "join-1%".into(),
            completed: 0,
            mean_ms: 0.0,
            p95_ms: 0.0,
            throughput: 0.0,
        }]);
        assert!(s.join_resp_ms().is_infinite());
    }
}
