//! Integrated multi-resource strategies (§3.3): MIN-IO, MIN-IO-SUOPT,
//! OPT-IO-CPU.
//!
//! "The integrated schemes primarily use the control node's information on
//! the current memory availability to determine the number of join
//! processors and to select them according to the LUM strategy. […] All
//! strategies try to avoid temporary file I/O by selecting `p_mu` join
//! processors with a minimum of `b` pages so that `p_mu · b` exceeds the
//! size of the smaller join input."
//!
//! The *critical* processor of a selection is the one with the least free
//! memory ("it is likely to cause the highest I/O delays from all
//! subqueries"); a selection of the top-k AVAIL-MEMORY nodes avoids
//! temporary I/O iff `AVAIL-MEMORY[k].free · k > b_i · F` (eq. 3.3).

use crate::control::ControlNode;
use crate::costmodel::CostModel;
use crate::resources::ResourceKind;
use crate::strategy::JoinRequest;

/// Smallest `k` whose top-k selection avoids temporary file I/O, if any.
/// `avail` must be sorted descending on free pages (AVAIL-MEMORY).
pub fn min_k_avoiding_io(avail: &[(u32, u32)], table_pages: f64) -> Option<u32> {
    for (i, &(_, free)) in avail.iter().enumerate() {
        let k = (i + 1) as f64;
        if free as f64 * k > table_pages {
            return Some(k as u32);
        }
    }
    None
}

/// All `k` whose top-k selection avoids temporary file I/O.
pub fn ks_avoiding_io(avail: &[(u32, u32)], table_pages: f64) -> Vec<u32> {
    (1..=avail.len() as u32)
        .filter(|&k| {
            let min_free = avail[k as usize - 1].1 as f64;
            min_free * k as f64 > table_pages
        })
        .collect()
}

/// Overflow at the **critical processor** of the top-k selection: "the one
/// with the minimum amount of available memory is critical since it is
/// likely to cause the highest I/O delays from all subqueries. Hence, it
/// is the one that determines response times under memory or disk
/// bottlenecks" (§3.3). This is the quantity the footnote-5 example
/// minimizes (2 MB at p_mu = 1 vs "at least 2.5 MB per processor").
pub fn critical_overflow(avail: &[(u32, u32)], k: u32, table_pages: f64) -> f64 {
    let share = table_pages / k as f64;
    let min_free = avail[k as usize - 1].1 as f64;
    (share - min_free).max(0.0)
}

/// `k ≤ max_k` minimizing the critical-processor overflow; ties prefer the
/// larger `k` (same worst-node spill, more I/O parallelism).
pub fn k_minimizing_overflow(avail: &[(u32, u32)], table_pages: f64, max_k: u32) -> u32 {
    let max_k = max_k.clamp(1, avail.len() as u32);
    let mut best = (1u32, f64::INFINITY);
    for k in 1..=max_k {
        let ov = critical_overflow(avail, k, table_pages);
        if ov < best.1 - 1e-9 || (ov - best.1).abs() <= 1e-9 {
            best = (k, ov);
        }
    }
    best.0
}

/// Largest degree the admission layer allows: `degree_cap` when set
/// (clamped to the system size), otherwise all `n` nodes.
fn admissible_max(req: &JoinRequest, n: u32) -> u32 {
    if req.degree_cap > 0 {
        req.degree_cap.clamp(1, n.max(1))
    } else {
        n.max(1)
    }
}

/// MIN-IO: "tries to find the minimal number k of join processors that
/// avoids temporary file I/O" (eq. 3.3); if impossible — including when
/// the admission layer's degree cap rules the avoiding selections out —
/// minimizes the amount of overflow I/O. CPU utilization is not
/// considered.
pub fn min_io(req: &JoinRequest, ctl: &mut ControlNode) -> (u32, Vec<u32>) {
    let avail = ctl.avail_memory();
    let max_k = admissible_max(req, avail.len() as u32);
    let k = min_k_avoiding_io(avail, req.table_pages)
        .filter(|&k| k <= max_k)
        .unwrap_or_else(|| k_minimizing_overflow(avail, req.table_pages, max_k));
    let nodes = avail[..k as usize].iter().map(|&(id, _)| id).collect();
    (k, nodes)
}

/// MIN-IO-SUOPT: among the selections avoiding temporary I/O (within the
/// admission layer's degree cap), choose the one "closest to p_su-opt";
/// ties prefer the larger degree (the paper notes this strategy
/// "generally chooses a higher number of join processors" than MIN-IO).
/// Falls back to overflow minimization.
pub fn min_io_suopt(req: &JoinRequest, ctl: &mut ControlNode) -> (u32, Vec<u32>) {
    let avail = ctl.avail_memory();
    let max_k = admissible_max(req, avail.len() as u32);
    let candidates: Vec<u32> = ks_avoiding_io(avail, req.table_pages)
        .into_iter()
        .filter(|&k| k <= max_k)
        .collect();
    let k = if candidates.is_empty() {
        k_minimizing_overflow(avail, req.table_pages, max_k)
    } else {
        *candidates
            .iter()
            .min_by_key(|&&k| {
                let d = (k as i64 - req.psu_opt as i64).unsigned_abs();
                (d, std::cmp::Reverse(k))
            })
            .expect("non-empty")
    };
    let nodes = avail[..k as usize].iter().map(|&(id, _)| id).collect();
    (k, nodes)
}

/// OPT-IO-CPU: "restricts the number of join processors to at most
/// `p_mu-cpu`, based on the current CPU utilization (formula 3.2). Within
/// this range, the maximal number of processors avoiding (or minimizing)
/// temporary I/O is selected." The admission layer's degree cap tightens
/// the range further.
pub fn opt_io_cpu(req: &JoinRequest, ctl: &mut ControlNode) -> (u32, Vec<u32>) {
    // Read the scalar before the view: `avail` borrows the scratch buffer.
    let avg_cpu = ctl.avg(ResourceKind::Cpu);
    let avail = ctl.avail_memory();
    let max_k = admissible_max(req, avail.len() as u32);
    let cap = CostModel::pmu_cpu(req.psu_opt, avg_cpu).clamp(1, max_k);
    let avoiding: Vec<u32> = ks_avoiding_io(avail, req.table_pages)
        .into_iter()
        .filter(|&k| k <= cap)
        .collect();
    let k = match avoiding.last() {
        Some(&k) => k,
        None => k_minimizing_overflow(avail, req.table_pages, cap),
    };
    let nodes = avail[..k as usize].iter().map(|&(id, _)| id).collect();
    (k, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;

    fn ctl(free: &[u32], cpu: f64) -> ControlNode {
        let mut c = ControlNode::new(free.len(), Default::default());
        for (i, &f) in free.iter().enumerate() {
            c.report(
                i as u32,
                ResourceVector {
                    cpu,
                    free_pages: f,
                    ..ResourceVector::default()
                },
            );
        }
        c
    }

    fn req(table_pages: f64, psu_opt: u32) -> JoinRequest {
        JoinRequest {
            table_pages,
            psu_opt,
            psu_noio: 3,
            outer_scan_nodes: 8,
            inner_rel: 0,
            degree_cap: 0,
        }
    }

    #[test]
    fn footnote5_example() {
        // "storage requirement of 10 MB, n=4, memory availability of 8, 1,
        // 0, 0 MB. MIN-IO selects p_mu=1 and chooses the processor with
        // 8 MB" (pages stand in for MB).
        let mut c = ctl(&[8, 1, 0, 0], 0.0);
        let (k, nodes) = min_io(&req(10.0, 4), &mut c);
        assert_eq!(k, 1);
        assert_eq!(nodes, vec![0]);
    }

    #[test]
    fn min_io_picks_minimal_k() {
        // 131.25 pages needed; nodes with 50 free: k=3 (50·3=150>131.25).
        let mut c = ctl(&[50; 80], 0.0);
        let (k, nodes) = min_io(&req(131.25, 30), &mut c);
        assert_eq!(k, 3);
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn min_io_uses_lum_order() {
        let mut c = ctl(&[10, 90, 40, 70], 0.0);
        let (k, nodes) = min_io(&req(80.0, 4), &mut c);
        assert_eq!(k, 1, "90 > 80 on one node");
        assert_eq!(nodes, vec![1]);
    }

    #[test]
    fn min_io_suopt_goes_closest_to_psuopt() {
        // All k in 3..=80 avoid I/O; psu_opt = 30 → choose 30.
        let mut c = ctl(&[50; 80], 0.0);
        let (k, _) = min_io_suopt(&req(131.25, 30), &mut c);
        assert_eq!(k, 30);
    }

    #[test]
    fn min_io_suopt_tie_prefers_larger() {
        // Nodes with 50 pages, need 149: k=3 avoids (150>149).
        // psu_opt = 4 → candidates {3,4,...}: distance 1 for 3 and 5 →
        // prefer 5? No: both 3 and 5 avoid; |3-4| = |5-4| = 1 → larger = 5.
        let mut c = ctl(&[50; 10], 0.0);
        let (k, _) = min_io_suopt(&req(149.0, 4), &mut c);
        assert_eq!(k, 4, "psu_opt itself avoids I/O");
        let (k2, _) = min_io_suopt(&req(201.0, 4), &mut c);
        // k=5 smallest avoiding (250>201); psu_opt=4 below → closest is 5.
        assert_eq!(k2, 5);
    }

    #[test]
    fn min_io_suopt_falls_back_to_overflow_minimization() {
        let mut c = ctl(&[8, 1, 0, 0], 0.0);
        let (k, nodes) = min_io_suopt(&req(10.0, 3), &mut c);
        assert_eq!(k, 1);
        assert_eq!(nodes, vec![0]);
    }

    #[test]
    fn opt_io_cpu_caps_by_cpu() {
        // Low memory per node forces large k to avoid I/O, but CPU is hot:
        // cap = pmu_cpu(30, 0.8) = 15; with 10 pages/node every k ≥ 14
        // avoids I/O (10·14 = 140 > 131.25); the maximal one within the
        // cap is 15.
        let mut c = ctl(&[10; 80], 0.8);
        let (k, _) = opt_io_cpu(&req(131.25, 30), &mut c);
        assert_eq!(k, 15);
        // At even hotter CPUs the cap falls below 14: overflow minimized
        // within the cap instead.
        let mut c2 = ctl(&[10; 80], 0.95);
        let (k2, _) = opt_io_cpu(&req(131.25, 30), &mut c2);
        assert!(k2 <= 5, "cap = pmu_cpu(30, 0.95) = {k2}");
    }

    #[test]
    fn opt_io_cpu_picks_max_avoiding_within_cap() {
        // Idle CPUs: cap = 30. Many k avoid I/O; choose the largest ≤ 30.
        let mut c = ctl(&[50; 80], 0.0);
        let (k, _) = opt_io_cpu(&req(131.25, 30), &mut c);
        assert_eq!(k, 30);
    }

    #[test]
    fn opt_io_cpu_minimizes_overflow_when_unavoidable() {
        // cap = pmu_cpu(4, 0.9) = 4·(1−0.729) = 1.08 → 1.
        let mut c = ctl(&[8, 1, 0, 0], 0.9);
        let (k, nodes) = opt_io_cpu(&req(10.0, 4), &mut c);
        assert_eq!(k, 1);
        assert_eq!(nodes, vec![0]);
    }

    #[test]
    fn opt_io_cpu_prefers_larger_k_on_overflow_ties() {
        // Nothing avoids I/O (need 1000); equal nodes → equal per-k
        // overflow? No: overflow shrinks with k here (more memory in
        // total), so max k within cap wins.
        let mut c = ctl(&[5; 40], 0.0);
        let (k, _) = opt_io_cpu(&req(1000.0, 20), &mut c);
        assert_eq!(k, 20, "cap = psu_opt at idle CPU");
    }

    #[test]
    fn ks_avoiding_io_respects_critical_node() {
        // Descending frees: 60, 50, 10. table = 119:
        // k=1: 60 > 119? no. k=2: 50·2=100 > 119? no. k=3: 10·3=30? no.
        let avail = vec![(0, 60), (1, 50), (2, 10)];
        assert!(ks_avoiding_io(&avail, 119.0).is_empty());
        // table = 90: k=2 works (100 > 90), k=3 fails (30).
        assert_eq!(ks_avoiding_io(&avail, 90.0), vec![2]);
    }

    #[test]
    fn degree_cap_tightens_every_integrated_policy() {
        // Uncapped, 131.25 pages over 50-page nodes: MIN-IO picks 3,
        // MIN-IO-SUOPT picks psu_opt = 30, OPT-IO-CPU picks 30.
        let mut c = ctl(&[50; 80], 0.0);
        let capped = JoinRequest {
            degree_cap: 2,
            ..req(131.25, 30)
        };
        // No k ≤ 2 avoids I/O (2·50 = 100 < 131.25): all three minimize
        // overflow within the cap instead of exceeding it.
        let (k, nodes) = min_io(&capped, &mut c);
        assert!(k <= 2, "MIN-IO capped: {k}");
        assert_eq!(nodes.len(), k as usize);
        let (k, _) = min_io_suopt(&capped, &mut c);
        assert!(k <= 2, "MIN-IO-SUOPT capped: {k}");
        let (k, _) = opt_io_cpu(&capped, &mut c);
        assert!(k <= 2, "OPT-IO-CPU capped: {k}");
        // A cap above the avoiding selection leaves decisions unchanged.
        let loose = JoinRequest {
            degree_cap: 40,
            ..req(131.25, 30)
        };
        assert_eq!(min_io(&loose, &mut c).0, 3);
        assert_eq!(min_io_suopt(&loose, &mut c).0, 30);
    }
}
