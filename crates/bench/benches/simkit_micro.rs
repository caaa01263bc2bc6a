//! Microbenchmarks of the simulation kernel: event heap, FCFS servers,
//! LRU, RNG, slab — the inner loops every simulated second rides on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simkit::server::Priority;
use simkit::{EventHeap, FcfsServer, FifoPool, LruMap, SimDur, SimRng, SimTime, Slab};

fn bench_event_heap(c: &mut Criterion) {
    c.bench_function("heap/push_pop_1k", |b| {
        let mut rng = SimRng::new(1);
        let times: Vec<u64> = (0..1_000).map(|_| rng.below(1_000_000)).collect();
        b.iter(|| {
            let mut h = EventHeap::with_capacity(1_024);
            for (i, &t) in times.iter().enumerate() {
                h.push(SimTime(t), i);
            }
            let mut acc = 0usize;
            while let Some((_, v)) = h.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn bench_fcfs_server(c: &mut Criterion) {
    c.bench_function("server/offer_complete_1k", |b| {
        // The pool outlives the iterations, as a system's does: after the
        // first iteration its free list serves every queued request.
        let mut pool = FifoPool::new();
        b.iter(|| {
            let mut s: FcfsServer<u32> = FcfsServer::new(1);
            let mut now = SimTime::ZERO;
            for i in 0..1_000u32 {
                if s.offer(&mut pool, now, SimDur::from_micros(50), Priority::Normal, i)
                    .is_none()
                {
                    now += SimDur::from_micros(50);
                    black_box(s.complete(&mut pool, now));
                }
            }
            black_box(s.served())
        })
    });
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("lru/mixed_ops_1k", |b| {
        let mut rng = SimRng::new(2);
        let keys: Vec<u64> = (0..1_000).map(|_| rng.below(300)).collect();
        b.iter(|| {
            let mut l: LruMap<u64, u32> = LruMap::new(200);
            let mut hits = 0u32;
            for &k in &keys {
                if l.get(&k).is_some() {
                    hits += 1;
                } else {
                    l.insert(k, 0);
                }
            }
            black_box(hits)
        })
    });
    // The two rows below bracket the LRU's trade. One 200-entry map sits
    // in L1 and hides the footprint of a hit; 1000 buffers with 64
    // resident pages each, hit in pseudo-random order, is what the
    // 1000-PE OLTP soak does, and a hit stamps one slot with no shadow
    // heap beside the map. A full map taking only misses pays an
    // eviction per insert, the scan and spill pattern; about one victim
    // in 62 pays a refill of the batch (two passes over the map and a
    // sort of the records it collects).
    c.bench_function("lru/hit_1000_maps_x64_10k", |b| {
        let mut maps: Vec<LruMap<(u64, u64), u32>> = (0..1_000).map(|_| LruMap::new(500)).collect();
        for (m, map) in maps.iter_mut().enumerate() {
            for page in 0..64 {
                map.insert((m as u64, page), 0);
            }
        }
        let mut rng = SimRng::new(5);
        let hits: Vec<(usize, (u64, u64))> = (0..10_000)
            .map(|_| {
                let m = rng.below(1_000);
                (m as usize, (m, rng.below(64)))
            })
            .collect();
        b.iter(|| {
            let mut found = 0u32;
            for (m, key) in &hits {
                if let Some(v) = maps[*m].get_mut(key) {
                    *v += 1;
                    found += 1;
                }
            }
            black_box(found)
        })
    });
    c.bench_function("lru/miss_full_500_10k", |b| {
        let mut l: LruMap<(u64, u64), u32> = LruMap::new(500);
        let mut next = 0u64;
        while l.len() < 500 {
            l.insert((0, next), 0);
            next += 1;
        }
        b.iter(|| {
            let mut evicted = 0u32;
            for _ in 0..10_000 {
                if l.get(&(0, next)).is_none() && l.insert((0, next), 0).is_some() {
                    evicted += 1;
                }
                next += 1;
            }
            black_box(evicted)
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/exp_1k", |b| {
        let mut rng = SimRng::new(3);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000 {
                acc += rng.exp(0.05);
            }
            black_box(acc)
        })
    });
    c.bench_function("rng/sample_distinct_30_of_80", |b| {
        let mut rng = SimRng::new(4);
        b.iter(|| black_box(rng.sample_distinct(80, 30)))
    });
}

fn bench_slab(c: &mut Criterion) {
    c.bench_function("slab/churn_1k", |b| {
        b.iter(|| {
            let mut s: Slab<u64> = Slab::new();
            let mut keys = Vec::with_capacity(64);
            for i in 0..1_000u64 {
                keys.push(s.insert(i));
                if keys.len() > 32 {
                    let k = keys.remove(0);
                    black_box(s.remove(k));
                }
            }
            black_box(s.len())
        })
    });
}

criterion_group!(
    benches,
    bench_event_heap,
    bench_fcfs_server,
    bench_lru,
    bench_rng,
    bench_slab
);
criterion_main!(benches);
