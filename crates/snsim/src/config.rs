//! Simulation configuration: the Fig. 4 parameter table plus run control.

use dbmodel::catalog::{Catalog, IndexKind, Relation, RelationId};
use dbmodel::log::LogParams;
use dbmodel::placement::RelationPlacement;
use engine::EngineConfig;
use hardware::HardwareParams;
use lb_core::costmodel::CostParams;
use lb_core::{Broker, BrokerConfig, PolicyConfig, RebalanceConfig, Strategy};
use serde::{Deserialize, Serialize};
use simkit::SimDur;
use workload::WorkloadSpec;

/// The data-placement layer's configuration: how the join relations are
/// fragmented and whether the online rebalancer runs. The default
/// reproduces the paper exactly (uniform one-fragment-per-PE allocation,
/// no rebalancing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPlacementConfig {
    /// Zipf theta of the fragment-size distribution of the join relations
    /// (0 = the paper's equal tuples per fragment).
    pub data_skew: f64,
    /// Fragments per join relation (0 = one per home PE, the paper's
    /// layout; larger values let several fragments share a home so
    /// migration can spread them).
    pub fragment_count: u32,
    /// Online rebalancing controller; `None` = static placement.
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for DataPlacementConfig {
    fn default() -> Self {
        DataPlacementConfig {
            data_skew: 0.0,
            fragment_count: 0,
            rebalance: None,
        }
    }
}

/// Everything needed to build and run one simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of processing elements (10–80 in the paper).
    pub n_pes: u32,
    pub hw: HardwareParams,
    pub engine: EngineConfig,
    /// Buffer pages per PE ("buffer size: 50 pages (0.4 MB)").
    pub buffer_pages: u32,
    /// Frames always left to the global LRU.
    pub global_floor: u32,
    /// Multiprogramming level per PE.
    pub mpl: u32,
    pub log: LogParams,
    /// OLTP relation size: data pages per node (calibrates buffer-hit
    /// ratios so 100 TPS/node ≈ 50% CPU / 60% disk / 45% memory, §5.3).
    pub oltp_pages_per_node: u32,
    pub workload: WorkloadSpec,
    pub strategy: Strategy,
    /// Per-work-class placement policies (scan/OLTP coordinators,
    /// multi-join stages, adaptive-controller parameters). The default
    /// reproduces the paper's setup.
    pub policies: PolicyConfig,
    /// Data-placement layer: fragment skew, fragment count, rebalancing.
    pub placement: DataPlacementConfig,
    /// Admission layer between arrivals and launch: policy, budgets,
    /// queue bound, priority tiers. The default ([`sched::AdmissionConfig`]
    /// with `FcfsMpl`) reproduces the paper's MPL-only admission
    /// bit-for-bit.
    pub admission: sched::AdmissionConfig,
    /// Per-PE CPU speed factors relative to `hw.cpu.mips` (heterogeneous
    /// systems). Empty = all PEs at nominal speed; shorter vectors apply
    /// to the leading PEs with the rest at nominal speed. The planner's
    /// cost model intentionally keeps using the nominal speed — dynamic
    /// load balancing, not the optimizer, has to absorb the heterogeneity.
    pub node_speed: Vec<f64>,
    /// How often PEs report utilization to the control node.
    pub control_interval: SimDur,
    /// LUC adaptive feedback bump.
    pub luc_bump: f64,
    /// Central deadlock-detection period.
    pub deadlock_interval: SimDur,
    /// Simulated duration.
    pub sim_time: SimDur,
    /// Warm-up discarded from statistics.
    pub warmup: SimDur,
    pub seed: u64,
    /// PE hosting the control node.
    pub control_pe: u32,
    /// Inert: nothing in the simulator reads it, and every run is one
    /// sequential event loop. Kept only because the external `perfbench`
    /// harness reads the field (it refuses configs with a non-zero
    /// value); it goes when that harness is next revised.
    #[serde(default)]
    pub exec_threads: u32,
    /// Control-plane implementation and fault model (staleness, heartbeat
    /// loss, failure detection, rack aggregation). The default is the
    /// clean central broker; every pre-fault configuration lowers
    /// byte-identically.
    #[serde(default)]
    pub broker: BrokerConfig,
    /// Observability layer (time series, lifecycle tracing, placement
    /// explain). Disabled by default; the disabled layer is inert — the
    /// system holds no recorder, so the hot path costs one pointer test
    /// and the [`crate::Summary`] stays bit-identical.
    #[serde(default)]
    pub trace: obs::TraceConfig,
}

impl SimConfig {
    /// The paper's Fig. 4 configuration for `n` PEs, with the given
    /// workload and load-balancing strategy.
    pub fn paper_default(n: u32, workload: WorkloadSpec, strategy: Strategy) -> SimConfig {
        let engine = EngineConfig {
            disks_per_pe: 10,
            ..EngineConfig::default()
        };
        SimConfig {
            n_pes: n,
            hw: HardwareParams::default(),
            engine,
            buffer_pages: 50,
            global_floor: 1,
            mpl: 64,
            log: LogParams {
                records_per_page: 40,
                group_commit_window: SimDur::from_millis(25),
            },
            oltp_pages_per_node: 60,
            workload,
            strategy,
            policies: PolicyConfig::default(),
            placement: DataPlacementConfig::default(),
            admission: sched::AdmissionConfig::default(),
            node_speed: Vec::new(),
            control_interval: SimDur::from_millis(100),
            luc_bump: 0.05,
            deadlock_interval: SimDur::from_secs(1),
            sim_time: SimDur::from_secs(60),
            warmup: SimDur::from_secs(10),
            seed: 0xC0FFEE,
            control_pe: 0,
            exec_threads: 0,
            broker: BrokerConfig::default(),
            trace: obs::TraceConfig::default(),
        }
    }

    /// Set the number of data disks per PE (the paper varies 1 / 5 / 10).
    pub fn with_disks(mut self, disks: u32) -> SimConfig {
        self.hw.disk.disks_per_pe = disks;
        self.engine.disks_per_pe = disks;
        self
    }

    /// Scale the per-PE buffer (Fig. 7 divides it by 10).
    pub fn with_buffer_pages(mut self, pages: u32) -> SimConfig {
        self.buffer_pages = pages;
        self.global_floor = self.global_floor.min(pages.saturating_sub(1)).max(1);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Set the per-work-class placement policies (per-class coordinator
    /// strategies, multi-join stage strategy, adaptive switching).
    pub fn with_policies(mut self, policies: PolicyConfig) -> SimConfig {
        self.policies = policies;
        self
    }

    /// Configure the admission layer (policy, budgets, priorities).
    pub fn with_admission(mut self, admission: sched::AdmissionConfig) -> SimConfig {
        self.admission = admission;
        self
    }

    /// Set the per-PE multiprogramming level (the paper's 64; admission
    /// experiments lower it to make MPL backpressure visible).
    pub fn with_mpl(mut self, mpl: u32) -> SimConfig {
        self.mpl = mpl.max(1);
        self
    }

    /// Build the admission scheduler this configuration describes.
    pub fn build_scheduler(&self) -> sched::Scheduler {
        self.admission.build(self.n_pes, self.buffer_pages)
    }

    /// Scale the interconnect's link bandwidth by `factor` (1.0 = the
    /// paper's ≈20 MB/s EDS links; 0.1 = a 10× slower fabric whose egress
    /// links become the bottleneck under shuffle-heavy joins). The wire
    /// time per packet is divided by the factor, rounded to whole
    /// nanoseconds so lowering stays exactly reproducible.
    pub fn with_net_speed(mut self, factor: f64) -> SimConfig {
        let factor = factor.max(1e-6);
        let nanos = (self.hw.net.per_packet.as_nanos() as f64 / factor).round() as u64;
        self.hw.net.per_packet = SimDur::from_nanos(nanos.max(1));
        self
    }

    /// CPU parameters of one PE, with its heterogeneity factor applied
    /// (at least 1 MIPS).
    pub fn cpu_params_for(&self, pe: usize) -> hardware::CpuParams {
        let mut p = self.hw.cpu.clone();
        if let Some(&factor) = self.node_speed.get(pe) {
            p.mips = ((p.mips as f64 * factor).round() as u32).max(1);
        }
        p
    }

    /// Build the broker this configuration describes: the control node,
    /// one placement policy per work class, and the configured report
    /// channel. The lagged channel's fault randomness runs on its own
    /// stream forked from the run seed (stream 3; placement uses 1,
    /// coordination 2, arrivals 10+), so clean runs consume exactly the
    /// same random numbers on every channel.
    pub fn build_broker(&self) -> Broker {
        Broker::new(
            self.n_pes as usize,
            self.luc_bump,
            self.buffer_pages,
            self.strategy,
            &self.policies,
        )
        .with_channel(
            &self.broker,
            self.control_interval.as_millis_f64(),
            simkit::SimRng::new(self.seed).fork(3),
        )
    }

    /// Select the control-plane implementation and fault model.
    pub fn with_broker(mut self, broker: BrokerConfig) -> SimConfig {
        self.broker = broker;
        self
    }

    /// Select the observability layer (disabled by default; enabling it
    /// never changes the [`crate::Summary`] — pinned by `obs_parity`).
    pub fn with_trace(mut self, trace: obs::TraceConfig) -> SimConfig {
        self.trace = trace;
        self
    }

    pub fn with_sim_time(mut self, sim: SimDur, warmup: SimDur) -> SimConfig {
        self.sim_time = sim;
        self.warmup = warmup;
        self
    }

    /// Build the catalog: the paper's A and B relations (fragmented per
    /// the data-placement config) plus an OLTP relation (id 2)
    /// declustered uniformly across all PEs when the workload has OLTP
    /// classes (affinity routing assumes a local fragment everywhere, so
    /// the skew knob applies to the join relations only).
    pub fn build_catalog(&self) -> Catalog {
        let mut c = Catalog::paper_with_placement(
            self.n_pes,
            self.placement.data_skew,
            self.placement.fragment_count,
        );
        if !self.workload.oltp.is_empty() {
            let tuples = self.oltp_pages_per_node as u64 * 20 * self.n_pes as u64;
            c.add(
                Relation {
                    id: RelationId(2),
                    name: "ACCOUNT".into(),
                    tuples,
                    tuple_bytes: 400,
                    blocking_factor: 20,
                    index: IndexKind::NonClusteredBTree,
                    memory_resident: false,
                    // Affinity-routed transactions assume a local fragment
                    // everywhere: the rebalancer must leave it alone.
                    pinned: true,
                },
                RelationPlacement::uniform(tuples, 0, self.n_pes),
            );
        }
        c
    }

    /// Cost-model parameters consistent with this configuration.
    pub fn cost_params(&self) -> CostParams {
        CostParams {
            instr: self.engine.instr,
            mips: self.hw.cpu.mips,
            mem_pages_per_pe: self.buffer_pages,
            fudge: self.engine.fudge,
            tuples_per_page: self.engine.tuples_per_page,
            seq_io_ms_per_page: {
                let d = &self.hw.disk;
                let pf = d.prefetch_pages.max(1) as f64;
                (d.base_access.as_millis_f64() + pf * d.per_page_delay.as_millis_f64()) / pf
                    + d.controller_per_page.as_millis_f64()
                    + d.transmission_per_page.as_millis_f64()
            },
            coord_per_p_instr: 15_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::costmodel::{paper_join_profile, CostModel};

    fn cfg(n: u32) -> SimConfig {
        SimConfig::paper_default(
            n,
            WorkloadSpec::homogeneous_join(0.01, 0.25),
            Strategy::OptIoCpu,
        )
    }

    #[test]
    fn fig4_parameters_encoded() {
        let c = cfg(80);
        assert_eq!(c.hw.cpu.mips, 20);
        assert_eq!(c.buffer_pages, 50);
        assert_eq!(c.hw.disk.disks_per_pe, 10);
        assert_eq!(c.engine.instr.init_txn, 25_000);
        assert_eq!(c.engine.instr.probe_ht, 200);
        assert_eq!(c.engine.tuples_per_page, 20);
        assert_eq!(c.engine.fudge, 1.05);
    }

    #[test]
    fn catalog_has_oltp_relation_only_when_mixed() {
        let plain = cfg(20);
        assert_eq!(plain.build_catalog().len(), 2);
        let mixed = SimConfig::paper_default(
            20,
            WorkloadSpec::mixed(
                0.01,
                0.075,
                RelationId(2),
                100.0,
                workload::NodeFilter::BNodes,
            ),
            Strategy::OptIoCpu,
        );
        let cat = mixed.build_catalog();
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.scan_pe_count(RelationId(2)), 20);
    }

    #[test]
    fn cost_params_reproduce_paper_optima() {
        let c = cfg(80);
        let m = CostModel::new(c.cost_params());
        assert_eq!(m.psu_noio(80, &paper_join_profile(80, 0.01)), 3);
        let p = m.psu_opt(80, &paper_join_profile(80, 0.01));
        assert!((25..=35).contains(&p), "psu_opt {p}");
    }

    #[test]
    fn seq_io_cost_close_to_six_ms() {
        let c = cfg(20);
        let io = c.cost_params().seq_io_ms_per_page;
        assert!((io - 6.15).abs() < 0.01, "{io}");
    }

    #[test]
    fn builders_apply() {
        let c = cfg(20).with_disks(1).with_buffer_pages(5).with_seed(7);
        assert_eq!(c.hw.disk.disks_per_pe, 1);
        assert_eq!(c.engine.disks_per_pe, 1);
        assert_eq!(c.buffer_pages, 5);
        assert!(c.global_floor >= 1 && c.global_floor < 5);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn config_round_trips_json() {
        let c = cfg(10);
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_pes, 10);
        assert_eq!(back.buffer_pages, c.buffer_pages);
    }
}
