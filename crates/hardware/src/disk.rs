//! Disk servers with controllers, LRU disk caches and prefetching.
//!
//! From §4: *"Disks and disk controllers have explicitly been modelled as
//! servers to capture potential I/O bottlenecks. Furthermore, disk
//! controllers can have a LRU disk cache. The disk controllers also provide
//! a prefetching mechanism to support sequential access patterns. If
//! prefetching is selected, a disk cache miss causes multiple succeeding
//! pages to be read from disk and allocated into the disk cache."*
//!
//! Each disk unit is one FCFS station whose service time composes the
//! controller work, the arm access (skipped on controller-cache hits) and
//! the page transmission. Because sequential readers issue their page
//! requests in order, folding controller and arm into one station preserves
//! the paper's per-page averages (e.g. a 4-page prefetch miss costs
//! 15 + 4·1 = 19 ms of arm time; the three following requests are cache
//! hits costing only controller + transmission time).

use crate::params::DiskParams;
use simkit::server::Grant;
use simkit::{FcfsServer, LruMap, Priority, SimDur, SimTime};

/// Index of a disk within one PE's subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskId(pub u32);

/// Access pattern of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Sequential read (relation scans, clustered index scans, temporary
    /// file scans). Prefetching applies; `run_remaining` is the number of
    /// pages left in the sequential run *including* this page, so the
    /// controller never prefetches past the end of the file.
    SeqRead { run_remaining: u32 },
    /// Random single-page read (non-clustered index accesses).
    RandRead,
    /// Write of `pages` sequential pages (asynchronous buffer write-back,
    /// temporary file output, logging).
    Write { pages: u32 },
}

/// One I/O request against a page of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Opaque file/partition identity used for cache keying.
    pub object: u64,
    /// First page touched.
    pub page: u64,
    pub kind: IoKind,
}

/// Counters for one disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    pub reads: u64,
    pub writes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub pages_read: u64,
    pub pages_written: u64,
}

struct DiskUnit<T> {
    server: FcfsServer<T>,
    cache: Option<LruMap<(u64, u64), ()>>,
    stats: DiskStats,
}

/// The disk subsystem of one PE: `disks_per_pe` independent disk servers.
pub struct DiskSubsystem<T> {
    params: DiskParams,
    units: Vec<DiskUnit<T>>,
}

impl<T> DiskSubsystem<T> {
    pub fn new(params: DiskParams) -> Self {
        assert!(params.disks_per_pe >= 1, "a PE needs at least one disk");
        let units = (0..params.disks_per_pe)
            .map(|_| DiskUnit {
                server: FcfsServer::new(1),
                cache: if params.cache_pages > 0 {
                    Some(LruMap::new(params.cache_pages))
                } else {
                    None
                },
                stats: DiskStats::default(),
            })
            .collect();
        DiskSubsystem { params, units }
    }

    pub fn disks(&self) -> u32 {
        self.units.len() as u32
    }

    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Compute the service time of `req` on `disk` and update the cache.
    fn service_for(&mut self, disk: DiskId, req: &IoRequest) -> SimDur {
        let p = self.params.clone();
        let unit = &mut self.units[disk.0 as usize];
        match req.kind {
            IoKind::SeqRead { run_remaining } => {
                unit.stats.reads += 1;
                unit.stats.pages_read += 1;
                let hit = unit
                    .cache
                    .as_mut()
                    .map(|c| c.get(&(req.object, req.page)).is_some())
                    .unwrap_or(false);
                if hit {
                    unit.stats.cache_hits += 1;
                    p.controller_per_page + p.transmission_per_page
                } else {
                    unit.stats.cache_misses += 1;
                    let fetch = p.prefetch_pages.max(1).min(run_remaining.max(1));
                    if let Some(cache) = unit.cache.as_mut() {
                        for i in 0..fetch as u64 {
                            cache.insert((req.object, req.page + i), ());
                        }
                    }
                    p.base_access
                        + p.per_page_delay * fetch as u64
                        + p.controller_per_page
                        + p.transmission_per_page
                }
            }
            IoKind::RandRead => {
                unit.stats.reads += 1;
                unit.stats.pages_read += 1;
                let hit = unit
                    .cache
                    .as_mut()
                    .map(|c| c.get(&(req.object, req.page)).is_some())
                    .unwrap_or(false);
                if hit {
                    unit.stats.cache_hits += 1;
                    p.controller_per_page + p.transmission_per_page
                } else {
                    unit.stats.cache_misses += 1;
                    if let Some(cache) = unit.cache.as_mut() {
                        cache.insert((req.object, req.page), ());
                    }
                    p.base_access
                        + p.per_page_delay
                        + p.controller_per_page
                        + p.transmission_per_page
                }
            }
            IoKind::Write { pages } => {
                let pages = pages.max(1);
                unit.stats.writes += 1;
                unit.stats.pages_written += pages as u64;
                // Write-through into the controller cache: a temporary
                // partition read back soon after spilling may still hit.
                if let Some(cache) = unit.cache.as_mut() {
                    for i in 0..pages as u64 {
                        cache.insert((req.object, req.page + i), ());
                    }
                }
                p.base_access
                    + (p.per_page_delay + p.controller_per_page + p.transmission_per_page)
                        * pages as u64
            }
        }
    }

    /// Submit an I/O. Returns a grant (schedule its completion) or queues.
    pub fn request(
        &mut self,
        now: SimTime,
        disk: DiskId,
        req: IoRequest,
        tag: T,
    ) -> Option<Grant<T>> {
        let service = self.service_for(disk, &req);
        self.units[disk.0 as usize]
            .server
            .offer(now, service, Priority::Normal, tag)
    }

    /// An I/O completion fired on `disk`; returns the next grant if queued.
    pub fn complete(&mut self, now: SimTime, disk: DiskId) -> Option<Grant<T>> {
        self.units[disk.0 as usize].server.complete(now)
    }

    /// Average cumulative utilization across this PE's disks (read-only).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let n = self.units.len() as f64;
        self.units
            .iter()
            .map(|u| u.server.utilization(now))
            .sum::<f64>()
            / n
    }

    /// Utilization of the busiest disk (bottleneck view; read-only).
    pub fn max_utilization(&self, now: SimTime) -> f64 {
        self.units
            .iter()
            .map(|u| u.server.utilization(now))
            .fold(0.0, f64::max)
    }

    /// Sum of busy integrals (unit-ns) for windowed reporting (read-only).
    pub fn busy_integral(&self, now: SimTime) -> u128 {
        self.units
            .iter()
            .map(|u| u.server.busy_integral_at(now))
            .sum()
    }

    /// Aggregate counters across disks.
    pub fn stats(&self) -> DiskStats {
        let mut agg = DiskStats::default();
        for u in &self.units {
            agg.reads += u.stats.reads;
            agg.writes += u.stats.writes;
            agg.cache_hits += u.stats.cache_hits;
            agg.cache_misses += u.stats.cache_misses;
            agg.pages_read += u.stats.pages_read;
            agg.pages_written += u.stats.pages_written;
        }
        agg
    }

    /// Pending + in-service request count over all disks.
    pub fn outstanding(&self) -> usize {
        self.units
            .iter()
            .map(|u| u.server.queued() + u.server.in_service() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_millis(ms)
    }

    fn subsystem() -> DiskSubsystem<u32> {
        DiskSubsystem::new(DiskParams::default())
    }

    fn seq(object: u64, page: u64, remaining: u32) -> IoRequest {
        IoRequest {
            object,
            page,
            kind: IoKind::SeqRead {
                run_remaining: remaining,
            },
        }
    }

    #[test]
    fn sequential_miss_costs_prefetch_access() {
        let mut d = subsystem();
        let g = d.request(at(0), DiskId(0), seq(1, 0, 100), 0).unwrap();
        // 15 + 4*1 + 1 + 0.4 = 20.4 ms
        assert_eq!(g.done, SimTime::ZERO + SimDur::from_micros(20_400));
        let s = d.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 1));
    }

    #[test]
    fn prefetched_pages_hit_cache() {
        let mut d = subsystem();
        d.request(at(0), DiskId(0), seq(1, 0, 100), 0).unwrap();
        d.complete(at(21), DiskId(0));
        let g = d.request(at(21), DiskId(0), seq(1, 1, 99), 1).unwrap();
        // hit: 1 + 0.4 ms
        assert_eq!(g.done, at(21) + SimDur::from_micros(1_400));
        assert_eq!(d.stats().cache_hits, 1);
    }

    #[test]
    fn prefetch_clamped_to_run_end() {
        let mut d = subsystem();
        // Only 2 pages remain: prefetch must fetch 2, not 4.
        let g = d.request(at(0), DiskId(0), seq(1, 10, 2), 0).unwrap();
        // 15 + 2*1 + 1 + 0.4 = 18.4 ms
        assert_eq!(g.done, SimTime::ZERO + SimDur::from_micros(18_400));
        d.complete(at(19), DiskId(0));
        // Page 12 was NOT prefetched.
        let g2 = d.request(at(19), DiskId(0), seq(1, 12, 1), 1).unwrap();
        assert!(g2.done > at(19) + SimDur::from_millis(15));
    }

    #[test]
    fn random_read_costs_single_page_access() {
        let mut d = subsystem();
        let g = d
            .request(
                at(0),
                DiskId(3),
                IoRequest {
                    object: 9,
                    page: 77,
                    kind: IoKind::RandRead,
                },
                0,
            )
            .unwrap();
        // 15 + 1 + 1 + 0.4 = 17.4 ms
        assert_eq!(g.done, SimTime::ZERO + SimDur::from_micros(17_400));
    }

    #[test]
    fn write_batches_pages() {
        let mut d = subsystem();
        let g = d
            .request(
                at(0),
                DiskId(0),
                IoRequest {
                    object: 5,
                    page: 0,
                    kind: IoKind::Write { pages: 4 },
                },
                0,
            )
            .unwrap();
        // 15 + 4*(1 + 1 + 0.4) = 24.6 ms
        assert_eq!(g.done, SimTime::ZERO + SimDur::from_micros(24_600));
        assert_eq!(d.stats().pages_written, 4);
    }

    #[test]
    fn written_pages_can_hit_on_read_back() {
        let mut d = subsystem();
        d.request(
            at(0),
            DiskId(0),
            IoRequest {
                object: 5,
                page: 0,
                kind: IoKind::Write { pages: 2 },
            },
            0,
        )
        .unwrap();
        d.complete(at(25), DiskId(0));
        let g = d.request(at(25), DiskId(0), seq(5, 0, 2), 1).unwrap();
        assert_eq!(g.done, at(25) + SimDur::from_micros(1_400), "cache hit");
    }

    #[test]
    fn queueing_on_busy_disk() {
        let mut d = subsystem();
        assert!(d.request(at(0), DiskId(0), seq(1, 0, 8), 0).is_some());
        assert!(d.request(at(0), DiskId(0), seq(2, 0, 8), 1).is_none());
        assert_eq!(d.outstanding(), 2);
        let g = d.complete(at(21), DiskId(0)).unwrap();
        assert_eq!(g.tag, 1);
    }

    #[test]
    fn disks_are_independent() {
        let mut d = subsystem();
        assert!(d.request(at(0), DiskId(0), seq(1, 0, 8), 0).is_some());
        assert!(d.request(at(0), DiskId(1), seq(2, 0, 8), 1).is_some());
    }

    #[test]
    fn cache_disabled_when_zero_capacity() {
        let params = DiskParams {
            cache_pages: 0,
            ..DiskParams::default()
        };
        let mut d: DiskSubsystem<u8> = DiskSubsystem::new(params);
        d.request(at(0), DiskId(0), seq(1, 0, 100), 0).unwrap();
        d.complete(at(21), DiskId(0));
        let g = d.request(at(21), DiskId(0), seq(1, 1, 99), 1).unwrap();
        assert!(
            g.done > at(21) + SimDur::from_millis(15),
            "no cache → full access"
        );
    }

    #[test]
    fn utilization_accumulates() {
        let mut d = subsystem();
        d.request(at(0), DiskId(0), seq(1, 0, 4), 0).unwrap();
        d.complete(at(20), DiskId(0)); // ≈20.4ms busy, call it 20 for the test window
        let u = d.utilization(at(200));
        assert!(u > 0.0 && u < 0.02, "one busy disk of ten: {u}");
        let m = d.max_utilization(at(200));
        assert!(m > 0.09 && m < 0.11, "the busy disk itself: {m}");
    }
}
