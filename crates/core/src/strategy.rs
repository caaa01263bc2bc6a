//! The unified strategy interface.
//!
//! A [`Strategy`] turns a [`JoinRequest`] plus the control node's current
//! state into a [`Placement`] (degree of parallelism + selected nodes) in
//! one call. Isolated strategies combine a [`DegreePolicy`] with a
//! [`SelectPolicy`]; integrated strategies decide both together (§3.3).
//!
//! `Adaptive` names the paper's concluding recommendation, *"a family of
//! load balancing strategies so that the most appropriate policy can be
//! selected according to the current system state"*. The broker runs it
//! as the online [`crate::AdaptiveController`], which switches among the
//! strategies above at report rounds. Placed on its own, without a
//! controller, it places as the controller does before its first report
//! round: `pmu-cpu+LUM`.

use crate::control::ControlNode;
use crate::degree::DegreePolicy;
use crate::integrated;
use crate::select::SelectPolicy;
use serde::{Deserialize, Serialize};
use simkit::SimRng;

/// Planner-side description of a join about to be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinRequest {
    /// Hash-table pages of the inner input (`b_i · F`).
    pub table_pages: f64,
    /// Single-user optimum from the cost model.
    pub psu_opt: u32,
    /// Eq. 3.1 no-I/O degree from the cost model.
    pub psu_noio: u32,
    /// Scan nodes producing the probe input (used by the RateMatch
    /// baseline of §6 to size the consumer side).
    pub outer_scan_nodes: u32,
    /// Relation id of the build input (data-locality-aware selection
    /// ranks nodes by their local tuples of this relation; ignored by the
    /// paper's original policies).
    pub inner_rel: u32,
    /// Upper bound on the degree of parallelism imposed by the admission
    /// layer (malleable scheduling); 0 = unconstrained. Every strategy
    /// honours the cap: degree policies clamp to it, integrated policies
    /// search only selections within it.
    pub degree_cap: u32,
}

/// Failure from [`Strategy::parse`]: the offending token plus what the
/// label grammar expected in its place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyParseError {
    /// The token that did not parse.
    pub token: String,
    /// The grammar expected at that position.
    pub expected: &'static str,
}

impl StrategyParseError {
    fn new(token: &str, expected: &'static str) -> StrategyParseError {
        StrategyParseError {
            token: token.to_string(),
            expected,
        }
    }
}

impl std::fmt::Display for StrategyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecognized strategy token `{}`: expected {}",
            self.token, self.expected
        )
    }
}

impl std::error::Error for StrategyParseError {}

/// A placement decision: which nodes run join processes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Selected join processors (distinct node ids, `1..=n` of them).
    pub nodes: Vec<u32>,
}

impl Placement {
    /// Degree of join parallelism.
    pub fn degree(&self) -> u32 {
        self.nodes.len() as u32
    }
}

/// A load-balancing strategy from the paper's §3 family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Two-step strategy: degree policy then selection policy.
    Isolated {
        /// First step: how many join processors.
        degree: DegreePolicy,
        /// Second step: which nodes run them.
        select: SelectPolicy,
    },
    /// Integrated: minimal degree avoiding temporary file I/O (eq. 3.3).
    MinIo,
    /// Integrated: degree closest to `p_su-opt` avoiding temporary I/O.
    MinIoSuopt,
    /// Integrated: like MIN-IO-SUOPT but capped by `p_mu-cpu` (eq. 3.2).
    OptIoCpu,
    /// The online controller choosing among the above from the bottleneck
    /// state (extension; see module docs).
    Adaptive,
}

impl Strategy {
    /// `pmu-cpu+LUM`: the isolated strategy the adaptive controller starts
    /// on and falls back to when neither CPU nor memory is the bottleneck.
    pub const PMU_CPU_LUM: Strategy = Strategy::Isolated {
        degree: DegreePolicy::MU_CPU,
        select: SelectPolicy::Lum,
    };

    /// Decide degree and node set for one join query.
    ///
    /// For memory-aware strategies (LUM and all integrated policies) the
    /// control state is adapted in place (adaptive feedback).
    pub fn place(&self, req: &JoinRequest, ctl: &mut ControlNode, rng: &mut SimRng) -> Placement {
        match self {
            Strategy::Isolated { degree, select } => {
                let p = degree.degree(req, ctl);
                let share = per_node_share(req.table_pages, p);
                let nodes = select.select(p, ctl, rng, share, req.inner_rel);
                Placement { nodes }
            }
            Strategy::MinIo => integrated_placement(integrated::min_io(req, ctl), req, ctl),
            Strategy::MinIoSuopt => {
                integrated_placement(integrated::min_io_suopt(req, ctl), req, ctl)
            }
            Strategy::OptIoCpu => integrated_placement(integrated::opt_io_cpu(req, ctl), req, ctl),
            Strategy::Adaptive => Strategy::PMU_CPU_LUM.place(req, ctl, rng),
        }
    }

    /// Name used in experiment reports (matches the paper's labels).
    ///
    /// Returns a static string — this is called once per placement in hot
    /// experiment loops, and an allocation per call showed up in profiles.
    /// Isolated combinations are enumerated in a static
    /// `degree × selection` table; `Fixed(p)` degrees lose the numeric
    /// value in the label.
    pub fn name(&self) -> &'static str {
        /// `ISO_NAMES[degree.label_index()][select.label_index()]`.
        static ISO_NAMES: [[&str; 5]; 8] = [
            [
                "psu-opt+RANDOM",
                "psu-opt+LUC",
                "psu-opt+LUM",
                "psu-opt+DL",
                "psu-opt+LUB",
            ],
            [
                "psu-noIO+RANDOM",
                "psu-noIO+LUC",
                "psu-noIO+LUM",
                "psu-noIO+DL",
                "psu-noIO+LUB",
            ],
            [
                "pmu-cpu+RANDOM",
                "pmu-cpu+LUC",
                "pmu-cpu+LUM",
                "pmu-cpu+DL",
                "pmu-cpu+LUB",
            ],
            [
                "pmu-mem+RANDOM",
                "pmu-mem+LUC",
                "pmu-mem+LUM",
                "pmu-mem+DL",
                "pmu-mem+LUB",
            ],
            [
                "pmu-disk+RANDOM",
                "pmu-disk+LUC",
                "pmu-disk+LUM",
                "pmu-disk+DL",
                "pmu-disk+LUB",
            ],
            [
                "pmu-net+RANDOM",
                "pmu-net+LUC",
                "pmu-net+LUM",
                "pmu-net+DL",
                "pmu-net+LUB",
            ],
            [
                "p-fixed+RANDOM",
                "p-fixed+LUC",
                "p-fixed+LUM",
                "p-fixed+DL",
                "p-fixed+LUB",
            ],
            [
                "RateMatch+RANDOM",
                "RateMatch+LUC",
                "RateMatch+LUM",
                "RateMatch+DL",
                "RateMatch+LUB",
            ],
        ];
        match self {
            Strategy::Isolated { degree, select } => {
                ISO_NAMES[degree.label_index()][select.label_index()]
            }
            Strategy::MinIo => "MIN-IO",
            Strategy::MinIoSuopt => "MIN-IO-SUOPT",
            Strategy::OptIoCpu => "OPT-IO-CPU",
            Strategy::Adaptive => "ADAPTIVE",
        }
    }

    /// Parse a strategy from its report label — the inverse of
    /// [`Strategy::name`], used by the scenario lab so JSON specs can say
    /// `"pmu-cpu+LUM"` instead of spelling out the enum encoding.
    ///
    /// Accepted forms (ASCII-case-insensitive):
    ///
    /// * the integrated labels `MIN-IO`, `MIN-IO-SUOPT`, `OPT-IO-CPU` and
    ///   the meta-policy `ADAPTIVE`;
    /// * `<degree>+<selection>` for isolated strategies, with degree one
    ///   of `psu-opt`, `psu-noIO`, `pmu-<resource>` (`pmu-cpu`, `pmu-mem`,
    ///   `pmu-disk`, `pmu-net`) or `fixed(p)` (also spelled `p-fixed(p)`)
    ///   and selection one of `RANDOM`, `LUC`, `LUM`, `DL`, `LUB`.
    ///
    /// `RateMatch` degrees carry cost-model parameters and have no label
    /// form. Failures return a [`StrategyParseError`] naming the
    /// offending token and the grammar expected in its place.
    pub fn parse(label: &str) -> Result<Strategy, StrategyParseError> {
        let t = label.trim();
        for (name, s) in [
            ("MIN-IO", Strategy::MinIo),
            ("MIN-IO-SUOPT", Strategy::MinIoSuopt),
            ("OPT-IO-CPU", Strategy::OptIoCpu),
            ("ADAPTIVE", Strategy::Adaptive),
        ] {
            if t.eq_ignore_ascii_case(name) {
                return Ok(s);
            }
        }
        let Some((deg, sel)) = t.split_once('+') else {
            return Err(StrategyParseError::new(
                t,
                "an integrated label (`MIN-IO`, `MIN-IO-SUOPT`, `OPT-IO-CPU`, `ADAPTIVE`) \
                 or an isolated `<degree>+<selection>` pair",
            ));
        };
        let deg = deg.trim();
        let degree = if deg.eq_ignore_ascii_case("psu-opt") {
            DegreePolicy::SuOpt
        } else if deg.eq_ignore_ascii_case("psu-noIO") {
            DegreePolicy::SuNoIo
        } else if let Some(kind) = deg
            .get(..4)
            .filter(|p| p.eq_ignore_ascii_case("pmu-"))
            .and_then(|_| crate::resources::ResourceKind::parse(&deg[4..]))
        {
            DegreePolicy::Mu(kind)
        } else {
            let inner = deg
                .strip_prefix("p-fixed(")
                .or_else(|| deg.strip_prefix("fixed("))
                .and_then(|rest| rest.strip_suffix(')'))
                .ok_or_else(|| {
                    StrategyParseError::new(
                        deg,
                        "a degree policy: `psu-opt`, `psu-noIO`, \
                         `pmu-<cpu|mem|disk|net>` or `fixed(<p>)`",
                    )
                })?;
            let p = inner.trim().parse().map_err(|_| {
                StrategyParseError::new(inner.trim(), "an integer degree inside `fixed(...)`")
            })?;
            DegreePolicy::Fixed(p)
        };
        let select = match sel.trim() {
            s if s.eq_ignore_ascii_case("RANDOM") => SelectPolicy::Random,
            s if s.eq_ignore_ascii_case("LUC") => SelectPolicy::Luc,
            s if s.eq_ignore_ascii_case("LUM") => SelectPolicy::Lum,
            s if s.eq_ignore_ascii_case("DL") => SelectPolicy::DataLocal,
            s if s.eq_ignore_ascii_case("LUB") => SelectPolicy::Lub,
            other => {
                return Err(StrategyParseError::new(
                    other,
                    "a selection policy: `RANDOM`, `LUC`, `LUM`, `DL` or `LUB`",
                ))
            }
        };
        Ok(Strategy::Isolated { degree, select })
    }

    /// Exact, round-trippable label: like [`Strategy::name`] but keeping
    /// the numeric degree of `Fixed(p)` (`"fixed(22)+RANDOM"`). `None` for
    /// `RateMatch`, whose cost parameters cannot be expressed as a label.
    pub fn spec_label(&self) -> Option<String> {
        match self {
            Strategy::Isolated {
                degree: DegreePolicy::Fixed(p),
                select,
            } => Some(format!("fixed({p})+{}", select.name())),
            Strategy::Isolated {
                degree: DegreePolicy::RateMatch(_),
                ..
            } => None,
            other => Some(other.name().to_string()),
        }
    }

    /// The strategy set evaluated in the paper's Fig. 6.
    pub fn fig6_set() -> Vec<Strategy> {
        vec![
            Strategy::MinIo,
            Strategy::MinIoSuopt,
            Strategy::Isolated {
                degree: DegreePolicy::MU_CPU,
                select: SelectPolicy::Random,
            },
            Strategy::PMU_CPU_LUM,
            Strategy::OptIoCpu,
        ]
    }
}

fn per_node_share(table_pages: f64, p: u32) -> u32 {
    (table_pages / p.max(1) as f64).ceil() as u32
}

fn integrated_placement(
    (k, nodes): (u32, Vec<u32>),
    req: &JoinRequest,
    ctl: &mut ControlNode,
) -> Placement {
    debug_assert_eq!(k as usize, nodes.len());
    ctl.note_assignment(&nodes, per_node_share(req.table_pages, k));
    Placement { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{ResourceKind, ResourceVector};
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest};

    fn ctl(n: usize, cpu: f64, free: u32) -> ControlNode {
        let mut c = ControlNode::new(n, Default::default());
        for i in 0..n {
            c.report(
                i as u32,
                ResourceVector {
                    cpu,
                    free_pages: free,
                    ..ResourceVector::default()
                },
            );
        }
        c
    }

    fn req() -> JoinRequest {
        JoinRequest {
            table_pages: 131.25,
            psu_opt: 30,
            psu_noio: 3,
            outer_scan_nodes: 32,
            inner_rel: 0,
            degree_cap: 0,
        }
    }

    #[test]
    fn isolated_combines_both_steps() {
        let mut c = ctl(80, 0.0, 50);
        let mut rng = SimRng::new(3);
        let s = Strategy::Isolated {
            degree: DegreePolicy::SuNoIo,
            select: SelectPolicy::Lum,
        };
        let p = s.place(&req(), &mut c, &mut rng);
        assert_eq!(p.degree(), 3);
    }

    #[test]
    fn integrated_feedback_applied() {
        let mut c = ctl(4, 0.0, 50);
        let mut rng = SimRng::new(3);
        let s = Strategy::MinIo;
        let p1 = s.place(&req(), &mut c, &mut rng);
        assert_eq!(p1.degree(), 3);
        // 131.25/3 = 44 pages claimed per node → those nodes drop to 6
        // free; the next join must prefer the untouched node first.
        let p2 = s.place(&req(), &mut c, &mut rng);
        assert!(p2.nodes.contains(&3));
    }

    #[test]
    fn adaptive_defaults_to_isolated_dynamic() {
        // Hot CPUs would switch a controller to OPT-IO-CPU at its next
        // report round; without one, Adaptive places as pmu-cpu+LUM.
        let mut a = ctl(8, 0.8, 50);
        let mut b = a.clone();
        let p = Strategy::Adaptive.place(&req(), &mut a, &mut SimRng::new(5));
        let q = Strategy::PMU_CPU_LUM.place(&req(), &mut b, &mut SimRng::new(5));
        assert_eq!(p, q);
        assert_eq!(a.state(p.nodes[0]), b.state(q.nodes[0]), "same feedback");
    }

    #[test]
    fn parse_inverts_name_for_the_label_family() {
        // Every labelled strategy round-trips through parse(name()).
        let mut all = vec![
            Strategy::MinIo,
            Strategy::MinIoSuopt,
            Strategy::OptIoCpu,
            Strategy::Adaptive,
        ];
        for degree in [
            DegreePolicy::SuOpt,
            DegreePolicy::SuNoIo,
            DegreePolicy::Mu(ResourceKind::Cpu),
            DegreePolicy::Mu(ResourceKind::Mem),
            DegreePolicy::Mu(ResourceKind::Disk),
            DegreePolicy::Mu(ResourceKind::Net),
        ] {
            for select in [
                SelectPolicy::Random,
                SelectPolicy::Luc,
                SelectPolicy::Lum,
                SelectPolicy::DataLocal,
                SelectPolicy::Lub,
            ] {
                all.push(Strategy::Isolated { degree, select });
            }
        }
        for s in all {
            assert_eq!(Strategy::parse(s.name()), Ok(s), "label {}", s.name());
            assert_eq!(s.spec_label().as_deref(), Some(s.name()));
        }
    }

    #[test]
    fn every_spec_label_round_trips() {
        // The full label family: integrated + Adaptive + every isolated
        // combination including numeric fixed degrees. spec_label() must
        // be exactly invertible by parse().
        let mut all = vec![
            Strategy::MinIo,
            Strategy::MinIoSuopt,
            Strategy::OptIoCpu,
            Strategy::Adaptive,
        ];
        for select in [
            SelectPolicy::Random,
            SelectPolicy::Luc,
            SelectPolicy::Lum,
            SelectPolicy::DataLocal,
            SelectPolicy::Lub,
        ] {
            for degree in [
                DegreePolicy::SuOpt,
                DegreePolicy::SuNoIo,
                DegreePolicy::Mu(ResourceKind::Cpu),
                DegreePolicy::Mu(ResourceKind::Mem),
                DegreePolicy::Mu(ResourceKind::Disk),
                DegreePolicy::Mu(ResourceKind::Net),
                DegreePolicy::Fixed(1),
                DegreePolicy::Fixed(22),
                DegreePolicy::Fixed(80),
            ] {
                all.push(Strategy::Isolated { degree, select });
            }
        }
        for s in all {
            let label = s.spec_label().expect("labelled family");
            assert_eq!(Strategy::parse(&label), Ok(s), "spec label `{label}`");
        }
        // RateMatch carries cost parameters: no label form.
        let rm = Strategy::Isolated {
            degree: DegreePolicy::RateMatch(crate::costmodel::CostParams::default()),
            select: SelectPolicy::Random,
        };
        assert_eq!(rm.spec_label(), None);
    }

    #[test]
    fn parse_errors_name_token_and_grammar() {
        let e = Strategy::parse("bogus").unwrap_err();
        assert_eq!(e.token, "bogus");
        assert!(e.expected.contains("MIN-IO"), "grammar named: {e}");
        let e = Strategy::parse("nope(3)+LUM").unwrap_err();
        assert_eq!(e.token, "nope(3)");
        assert!(e.expected.contains("fixed(<p>)"));
        let e = Strategy::parse("fixed(x)+LUM").unwrap_err();
        assert_eq!(e.token, "x");
        assert!(e.expected.contains("integer"));
        let e = Strategy::parse("pmu-cpu+NEAREST").unwrap_err();
        assert_eq!(e.token, "NEAREST");
        assert!(e.expected.contains("RANDOM"));
        let msg = e.to_string();
        assert!(msg.contains("`NEAREST`") && msg.contains("expected"));
        // An unknown pmu resource names the degree grammar.
        let e = Strategy::parse("pmu-gpu+LUM").unwrap_err();
        assert_eq!(e.token, "pmu-gpu");
        assert!(e.expected.contains("pmu-<cpu|mem|disk|net>"));
    }

    #[test]
    fn net_aware_labels_round_trip() {
        let lub = Strategy::Isolated {
            degree: DegreePolicy::MU_CPU,
            select: SelectPolicy::Lub,
        };
        assert_eq!(lub.name(), "pmu-cpu+LUB");
        assert_eq!(Strategy::parse("pmu-cpu+LUB"), Ok(lub));
        assert_eq!(Strategy::parse("pmu-cpu+lub"), Ok(lub));
        let pmu_net = Strategy::Isolated {
            degree: DegreePolicy::Mu(ResourceKind::Net),
            select: SelectPolicy::Lum,
        };
        assert_eq!(pmu_net.name(), "pmu-net+LUM");
        assert_eq!(Strategy::parse("pmu-net+LUM"), Ok(pmu_net));
        assert_eq!(Strategy::parse("PMU-NET+lum"), Ok(pmu_net));
        assert_eq!(Strategy::parse("Pmu-Net+lum"), Ok(pmu_net), "mixed case");
        assert_eq!(pmu_net.spec_label().as_deref(), Some("pmu-net+LUM"));
    }

    #[test]
    fn parse_handles_fixed_degrees_and_case() {
        let fixed = Strategy::Isolated {
            degree: DegreePolicy::Fixed(22),
            select: SelectPolicy::Random,
        };
        assert_eq!(fixed.spec_label().as_deref(), Some("fixed(22)+RANDOM"));
        assert_eq!(Strategy::parse("fixed(22)+RANDOM"), Ok(fixed));
        assert_eq!(Strategy::parse("p-fixed( 22 )+random"), Ok(fixed));
        assert_eq!(Strategy::parse("min-io"), Ok(Strategy::MinIo));
        assert_eq!(
            Strategy::parse("PSU-OPT+lum"),
            Ok(Strategy::Isolated {
                degree: DegreePolicy::SuOpt,
                select: SelectPolicy::Lum,
            })
        );
        assert!(Strategy::parse("bogus").is_err());
        assert!(Strategy::parse("fixed(x)+LUM").is_err());
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Strategy::MinIo.name(), "MIN-IO");
        assert_eq!(Strategy::MinIoSuopt.name(), "MIN-IO-SUOPT");
        assert_eq!(Strategy::OptIoCpu.name(), "OPT-IO-CPU");
        assert_eq!(Strategy::PMU_CPU_LUM.name(), "pmu-cpu+LUM");
    }

    proptest! {
        /// Every strategy returns 1..=n distinct nodes under arbitrary
        /// control states.
        #[test]
        fn prop_placements_valid(
            n in 1usize..60,
            cpu in proptest::collection::vec(0.0f64..1.0, 60),
            free in proptest::collection::vec(0u32..200, 60),
            table in 1.0f64..500.0,
            psu_opt in 1u32..60,
            seed in 0u64..1000,
        ) {
            let mut c = ControlNode::new(n, Default::default());
            for i in 0..n {
                c.report(i as u32, ResourceVector {
                    cpu: cpu[i],
                    net: cpu[(i + 1) % 60],
                    free_pages: free[i],
                    ..ResourceVector::default()
                });
            }
            let r = JoinRequest { table_pages: table, psu_opt, psu_noio: 3, outer_scan_nodes: 8, inner_rel: 0, degree_cap: 0 };
            let mut rng = SimRng::new(seed);
            for s in [
                Strategy::MinIo,
                Strategy::MinIoSuopt,
                Strategy::OptIoCpu,
                Strategy::PMU_CPU_LUM,
                Strategy::Isolated { degree: DegreePolicy::SuOpt, select: SelectPolicy::Random },
                Strategy::Isolated { degree: DegreePolicy::SuNoIo, select: SelectPolicy::Luc },
                Strategy::Isolated { degree: DegreePolicy::Mu(ResourceKind::Net), select: SelectPolicy::Lub },
            ] {
                let p = s.place(&r, &mut c, &mut rng);
                prop_assert!(p.degree() >= 1 && p.degree() <= n as u32, "{}", s.name());
                let mut ids = p.nodes.clone();
                ids.sort_unstable();
                ids.dedup();
                prop_assert_eq!(ids.len(), p.nodes.len(), "duplicate nodes");
                prop_assert!(p.nodes.iter().all(|&i| (i as usize) < n));
            }
        }
    }
}
