//! Broker order-statistics microbenchmarks: the control node's report →
//! ranked-read → assignment cycle at cluster sizes from the paper's 80
//! PEs up to 10 000. The `incremental` rows time [`ControlNode`]; the
//! `sort_per_call` rows time [`NaiveBroker`], a naive reference local to
//! this bench that allocates and fully sorts on every read (the original
//! port's behaviour). The incremental indices turn that per-read
//! O(n log n) sort + allocation into an O(log n) positional repair plus
//! an allocation-free view, which is the headline speedup of the
//! thousand-PE soak.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lb_core::{ControlNode, ResourceVector, ResourceWeights};

const SIZES: [usize; 3] = [80, 1_000, 10_000];

/// Triangle wave in [0, 1]: consecutive inputs move by ±1/p, like the
/// windowed utilizations a PE actually reports — smooth drift, no jumps.
fn tri(x: u64, p: u64) -> f64 {
    let m = x % (2 * p);
    let v = if m < p { m } else { 2 * p - m };
    v as f64 / p as f64
}

/// Smoothly drifting per-PE vector (each round nudges every key by one
/// step): the repair distance of the incremental indices stays O(1),
/// matching steady-state simulator behaviour.
fn vector(i: u64) -> ResourceVector {
    ResourceVector {
        cpu: tri(i, 97),
        disk: tri(i, 53),
        net: tri(i, 31),
        mem: tri(i, 11),
        free_pages: 10 + (i % 40) as u32,
    }
}

/// Adversarial vector: keys wrap modulo a small prime, so ~1% of nodes
/// leap across the entire ranking every round — the O(distance-moved)
/// worst case of positional repair.
fn vector_adversarial(i: u64) -> ResourceVector {
    ResourceVector {
        cpu: (i % 97) as f64 / 97.0,
        disk: (i % 53) as f64 / 53.0,
        net: (i % 31) as f64 / 31.0,
        mem: (i % 11) as f64 / 11.0,
        free_pages: 10 + (i % 40) as u32,
    }
}

/// The broker cycle both implementations run.
trait Broker {
    fn new(n: usize) -> Self;
    fn report(&mut self, id: u32, v: ResourceVector);
    /// Head of the ascending weighted-bottleneck ranking.
    fn by_bottleneck_head(&mut self) -> u32;
    fn note_assignment(&mut self, nodes: &[u32], pages_per_node: u32);
}

impl Broker for ControlNode {
    fn new(n: usize) -> Self {
        ControlNode::new(n, Default::default())
    }
    fn report(&mut self, id: u32, v: ResourceVector) {
        ControlNode::report(self, id, v);
    }
    fn by_bottleneck_head(&mut self) -> u32 {
        self.by_bottleneck()[0].0
    }
    fn note_assignment(&mut self, nodes: &[u32], pages_per_node: u32) {
        ControlNode::note_assignment(self, nodes, pages_per_node);
    }
}

/// Naive reference: reports only store the vector, and every ranking
/// read allocates a fresh vector and sorts it by `(key, rotating rank)`
/// — the same ranking `ControlNode` serves from its indices.
struct NaiveBroker {
    utils: Vec<ResourceVector>,
    promised: Vec<u32>,
    weights: ResourceWeights,
    luc_bump: f64,
    rr: u32,
}

impl Broker for NaiveBroker {
    fn new(n: usize) -> Self {
        NaiveBroker {
            utils: vec![ResourceVector::default(); n],
            promised: vec![0; n],
            weights: ResourceWeights::default(),
            luc_bump: 0.1,
            rr: 0,
        }
    }
    fn report(&mut self, id: u32, v: ResourceVector) {
        self.utils[id as usize] = v;
        self.promised[id as usize] /= 2;
    }
    fn by_bottleneck_head(&mut self) -> u32 {
        let n = self.utils.len() as u32;
        let rank = |id: u32| (id + n - self.rr % n) % n;
        let mut v: Vec<(u32, f64)> = self
            .utils
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.bottleneck(&self.weights)))
            .collect();
        v.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite")
                .then(rank(a.0).cmp(&rank(b.0)))
        });
        v[0].0
    }
    fn note_assignment(&mut self, nodes: &[u32], pages_per_node: u32) {
        for &id in nodes {
            self.promised[id as usize] = self.promised[id as usize].saturating_add(pages_per_node);
            let s = &mut self.utils[id as usize];
            s.cpu = (s.cpu + self.luc_bump).min(1.0);
        }
        self.rr = self.rr.wrapping_add(nodes.len().max(1) as u32);
    }
}

fn warmed<B: Broker>(n: usize) -> B {
    let mut ctl = B::new(n);
    for pe in 0..n as u64 {
        ctl.report(pe as u32, vector(pe * 7));
    }
    ctl
}

/// Time `f` on a warmed `B` under `{label}/n{n}`.
fn bench_on<B: Broker>(
    g: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    n: usize,
    mut f: impl FnMut(&mut B) -> u64,
) {
    let mut ctl = warmed::<B>(n);
    g.bench_function(&format!("{label}/n{n}"), |b| {
        b.iter(|| black_box(f(&mut ctl)))
    });
}

/// One report round: every PE refreshes its vector (the per-tick cost).
fn report_round<B: Broker>(
    vector: fn(u64) -> ResourceVector,
    n: usize,
) -> impl FnMut(&mut B) -> u64 {
    let mut round = 1u64;
    move |ctl| {
        round += 1;
        for pe in 0..n as u64 {
            ctl.report(pe as u32, vector(pe * 7 + round));
        }
        round
    }
}

/// One ranked read + assignment: the per-arrival placement cost.
fn place<B: Broker>(ctl: &mut B) -> u64 {
    let head = ctl.by_bottleneck_head();
    ctl.note_assignment(&[head], 1);
    u64::from(head)
}

fn bench_report(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker/report_round");
    for n in SIZES {
        bench_on::<ControlNode>(&mut g, "incremental", n, report_round(vector, n));
        bench_on::<NaiveBroker>(&mut g, "sort_per_call", n, report_round(vector, n));
    }
    g.finish();
}

/// Worst case for the incremental indices: every round a slice of nodes
/// teleports across the ranking, so each repair bubbles O(n) positions.
/// Kept honest in the suite — this is the pattern where sort-per-call's
/// do-nothing report wins, and reads have to pay it back.
fn bench_report_adversarial(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker/report_round_adversarial");
    let n = 1_000;
    let adv = vector_adversarial;
    bench_on::<ControlNode>(&mut g, "incremental", n, report_round(adv, n));
    bench_on::<NaiveBroker>(&mut g, "sort_per_call", n, report_round(adv, n));
    g.finish();
}

fn bench_by_bottleneck(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker/by_bottleneck");
    for n in SIZES {
        bench_on::<ControlNode>(&mut g, "incremental", n, place);
        bench_on::<NaiveBroker>(&mut g, "sort_per_call", n, place);
    }
    g.finish();
}

/// The lazy top-k head read the coordinator policies actually issue
/// (`ControlNode` only: it never materializes the full ranking).
fn bench_ranked_head(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker/ranked_head");
    for n in SIZES {
        let mut ctl = warmed::<ControlNode>(n);
        g.bench_function(&format!("incremental/n{n}"), |b| {
            b.iter(|| {
                let head = ctl
                    .ranked_bottleneck()
                    .map(|(id, _)| id)
                    .next()
                    .expect("non-empty");
                ctl.note_assignment(&[head], 1);
                black_box(head)
            })
        });
    }
    g.finish();
}

/// Adaptive feedback alone: `note_assignment` of one coordinator (one
/// promised page) on nodes in pseudo-random order, the repair the
/// least-bottleneck coordinator policy runs per transaction. The CPU bump
/// is shrunk so keys keep moving instead of saturating at 1.0 within a
/// few rounds; free pages do run out after a few dozen bumps per node,
/// after which the AVAIL-MEMORY key stops changing, as it does in the
/// soak.
fn bench_note_assignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("broker/note_assignment");
    let n = 1_000;
    let mut ctl = warmed::<ControlNode>(n);
    ctl.luc_bump = 1e-6;
    let mut x = 1u64;
    g.bench_function(&format!("incremental/n{n}"), |b| {
        b.iter(|| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let id = ((x >> 33) % n as u64) as u32;
            ctl.note_assignment(&[id], 1);
            black_box(id)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_report,
    bench_report_adversarial,
    bench_by_bottleneck,
    bench_ranked_head,
    bench_note_assignment
);
criterion_main!(benches);
