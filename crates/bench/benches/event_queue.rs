//! Future-event-list microbenchmarks: the event heap under push/pop
//! mixes shaped like real runs — a steady-state hold (every pop
//! schedules a successor, the simulator's common case), the same hold
//! with simulator-sized payloads at the 1000-PE join soak's depth, a
//! fill-then-drain sweep, and a heavy-tie burst (group commits and
//! control ticks land whole cohorts on one timestamp).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simkit::{EventHeap, SimRng, SimTime};

const LIVE: usize = 4_096;
const OPS: usize = 10_000;

/// Pre-generated inter-event gaps.
fn gaps(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    (0..OPS).map(|_| rng.below(200_000) + 1).collect()
}

/// Steady state: `LIVE` events in flight, every pop schedules one
/// successor — the shape of a saturated simulation run.
fn steady_state(q: &mut EventHeap<usize>) -> usize {
    let gaps = gaps(1);
    for (i, &g) in gaps[..LIVE].iter().enumerate() {
        q.push(SimTime(g), i);
    }
    let mut acc = 0usize;
    for &g in &gaps[LIVE..] {
        let (t, v) = q.pop().expect("live set never empties");
        acc = acc.wrapping_add(v);
        q.push(SimTime(t.as_nanos() + g), v);
    }
    black_box(acc)
}

/// Events in flight in the 1000-PE join soak (its queue holds ~2.5k).
const SOAK_LIVE: usize = 2_500;

/// A payload the size of the simulator's event enum (40 bytes).
type Ev40 = [u64; 5];

/// Steady state at the join soak's shape: `SOAK_LIVE` events of 40
/// bytes in flight, every pop scheduling one successor.
fn steady_state_40b(q: &mut EventHeap<Ev40>) -> u64 {
    let gaps = gaps(4);
    for (i, &g) in gaps[..SOAK_LIVE].iter().enumerate() {
        q.push(SimTime(g), [i as u64, g, 0, 0, 0]);
    }
    let mut acc = 0u64;
    for &g in &gaps[SOAK_LIVE..] {
        let (t, mut v) = q.pop().expect("live set never empties");
        acc = acc.wrapping_add(v[0]);
        v[2] = v[2].wrapping_add(1);
        q.push(SimTime(t.as_nanos() + g), v);
    }
    black_box(acc)
}

/// Fill completely, then drain dry (arrival floods, end-of-run tails).
fn fill_drain(q: &mut EventHeap<usize>) -> usize {
    let gaps = gaps(2);
    let mut t = 0u64;
    for (i, &g) in gaps.iter().enumerate() {
        t += g;
        q.push(SimTime(t), i);
    }
    let mut acc = 0usize;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    black_box(acc)
}

/// Heavy ties: cohorts of 64 events share each timestamp (group commit /
/// control tick shape); FIFO order within a cohort is part of the
/// contract the queue must honor.
fn tie_burst(q: &mut EventHeap<usize>) -> usize {
    let gaps = gaps(3);
    let mut t = 0u64;
    for (i, &g) in gaps.iter().enumerate() {
        if i % 64 == 0 {
            t += g;
        }
        q.push(SimTime(t), i);
    }
    let mut acc = 0usize;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    black_box(acc)
}

fn bench_steady_state(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/steady_state_4k_live");
    g.bench_function("heap", |b| {
        b.iter(|| steady_state(&mut EventHeap::with_capacity(LIVE)))
    });
    g.finish();
}

fn bench_steady_state_40b(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/steady_state_2k5_live_40b");
    g.bench_function("heap", |b| {
        b.iter(|| steady_state_40b(&mut EventHeap::with_capacity(SOAK_LIVE)))
    });
    g.finish();
}

fn bench_fill_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/fill_drain_10k");
    g.bench_function("heap", |b| {
        b.iter(|| fill_drain(&mut EventHeap::with_capacity(OPS)))
    });
    g.finish();
}

fn bench_tie_burst(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue/tie_burst_10k");
    g.bench_function("heap", |b| {
        b.iter(|| tie_burst(&mut EventHeap::with_capacity(OPS)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_steady_state,
    bench_steady_state_40b,
    bench_fill_drain,
    bench_tie_burst
);
criterion_main!(benches);
