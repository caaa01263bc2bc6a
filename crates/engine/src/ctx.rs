//! Execution context threaded through every engine handler.

use crate::api::{Action, EngineConfig, JobId, Msg, MsgKind, PeId, TaskId, Token};
use crate::pe::Pe;
use dbmodel::buffer::{FixOutcome, JobMemKey};
use dbmodel::catalog::{Catalog, PageAddr};
use hardware::{IoKind, IoRequest};
use simkit::slab::SlabKey;
use simkit::{SimRng, SimTime};

/// Object-id encoding shared by buffer, disk cache and temp files.
pub mod object {
    use dbmodel::catalog::RelationId;

    const INDEX_BIT: u64 = 1 << 32;
    const TEMP_BIT: u64 = 1 << 40;

    /// Data pages of a relation fragment.
    pub fn data(rel: RelationId) -> u64 {
        rel.0 as u64
    }

    /// Index pages of a relation fragment.
    pub fn index(rel: RelationId) -> u64 {
        INDEX_BIT | rel.0 as u64
    }

    /// A temporary partition file.
    pub fn temp(counter: u64) -> u64 {
        TEMP_BIT | counter
    }

    /// Lock object for a fragment-level lock (disjoint from tuple locks).
    /// Scans take these shared per scanned fragment; online fragment
    /// migration takes them exclusive, so scans block on in-flight
    /// fragments and migrations wait for running scans to commit.
    pub fn frag_lock(rel: RelationId, fragment: u32) -> u64 {
        (1 << 62) | ((rel.0 as u64) << 24) | fragment as u64
    }

    /// Lock object for a tuple-level lock.
    pub fn tuple_lock(rel: RelationId, tuple: u64) -> u64 {
        (1 << 61) | ((rel.0 as u64) << 40) | (tuple & 0xFF_FFFF_FFFF)
    }

    /// The relation id of a data/index object, if it is one.
    pub fn relation_of(obj: u64) -> Option<RelationId> {
        if obj & TEMP_BIT != 0 {
            None
        } else {
            Some(RelationId((obj & 0xFFFF_FFFF) as u32))
        }
    }

    pub fn is_temp(obj: u64) -> bool {
        obj & TEMP_BIT != 0
    }
}

/// Mutable state handed to every handler invocation.
pub struct Ctx<'a> {
    pub now: SimTime,
    pub cfg: &'a EngineConfig,
    pub catalog: &'a Catalog,
    /// Every PE, indexed by global PE id.
    pub pes: &'a mut [Pe],
    pub rng: &'a mut SimRng,
    /// Actions for the simulator to execute, in order.
    pub out: &'a mut Vec<Action>,
    /// Allocator for temp-file object ids.
    pub temp_counter: &'a mut u64,
    /// PE hosting the load-balancing control node.
    pub control_pe: PeId,
}

impl Ctx<'_> {
    /// Working-space key of a job's allocation at one PE.
    pub fn mem_key(job: JobId, pe: PeId) -> JobMemKey {
        JobMemKey(job.to_raw() ^ ((pe as u64) << 52))
    }

    /// Recover the job behind a working-space key.
    pub fn job_of_mem_key(key: JobMemKey, pe: PeId) -> JobId {
        SlabKey::from_raw(key.0 ^ ((pe as u64) << 52))
    }

    /// Allocate a fresh temp-file object id.
    pub fn alloc_temp(&mut self) -> u64 {
        *self.temp_counter += 1;
        object::temp(*self.temp_counter)
    }

    /// Which data disk a page of an object lives on at any PE.
    pub fn disk_of_page(&self, obj: u64, page: u64) -> u32 {
        match object::relation_of(obj) {
            Some(rel) => self.cfg.disk_of_rel_page(rel, page),
            None => self.cfg.disk_of_temp(obj),
        }
    }

    /// Request CPU service.
    pub fn cpu(&mut self, pe: PeId, instr: u64, oltp: bool, token: Token) {
        self.out.push(Action::Cpu {
            pe,
            instr,
            oltp,
            token,
        });
    }

    /// Send a message (send/receive CPU is charged by the simulator).
    /// The box allocated here carries the message end-to-end.
    pub fn send(&mut self, msg: Msg) {
        self.out.push(Action::Send(Box::new(msg)));
    }

    /// Convenience constructor + send.
    pub fn send_to(
        &mut self,
        from: PeId,
        to: PeId,
        job: JobId,
        task: TaskId,
        bytes: u32,
        kind: MsgKind,
    ) {
        self.send(Msg {
            from,
            to,
            job,
            task,
            bytes,
            kind,
        });
    }

    /// Fix `addr` in `pe`'s buffer. On a miss the synchronous read I/O is
    /// emitted with `token`; returns `true` iff the caller must wait for
    /// `IoDone`. Dirty victims are written back asynchronously; OLTP
    /// steals raise [`Action::MemoryStolen`] for the victim join.
    #[allow(clippy::too_many_arguments)]
    pub fn fix_page(
        &mut self,
        pe: PeId,
        addr: PageAddr,
        write: bool,
        oltp: bool,
        kind: IoKind,
        token: Token,
    ) -> bool {
        let outcome = self.pes[pe as usize].buffer.fix(addr, write, oltp);
        let disk = self.disk_of_page(addr.object, addr.page);
        match outcome {
            FixOutcome::Hit => false,
            FixOutcome::Miss { writeback } => {
                self.emit_writeback(pe, writeback);
                self.out.push(Action::Io {
                    pe,
                    disk,
                    req: IoRequest {
                        object: addr.object,
                        page: addr.page,
                        kind,
                    },
                    token,
                });
                true
            }
            FixOutcome::MissSteal { victim, writeback } => {
                self.emit_writeback(pe, writeback);
                self.out.push(Action::MemoryStolen {
                    job: Self::job_of_mem_key(victim, pe),
                    pe,
                    pages: 1,
                });
                self.out.push(Action::Io {
                    pe,
                    disk,
                    req: IoRequest {
                        object: addr.object,
                        page: addr.page,
                        kind,
                    },
                    token,
                });
                true
            }
        }
    }

    fn emit_writeback(&mut self, pe: PeId, writeback: Option<PageAddr>) {
        if let Some(victim) = writeback {
            let disk = self.disk_of_page(victim.object, victim.page);
            self.out.push(Action::IoAsync {
                pe,
                disk,
                req: IoRequest {
                    object: victim.object,
                    page: victim.page,
                    kind: IoKind::Write { pages: 1 },
                },
            });
        }
    }

    /// Emit write-back I/Os for a batch of displaced dirty pages.
    pub fn emit_writebacks(&mut self, pe: PeId, pages: &[PageAddr]) {
        for &p in pages {
            self.emit_writeback(pe, Some(p));
        }
    }

    /// Release a job's working space at `pe` and wake FCFS waiters.
    pub fn release_memory(&mut self, job: JobId, pe: PeId) {
        let key = Self::mem_key(job, pe);
        self.pes[pe as usize].buffer.release_all(key);
        let admissions = self.pes[pe as usize].buffer.admit_waiters();
        for a in admissions {
            self.emit_writebacks(pe, &a.writebacks);
            self.out.push(Action::MemoryGranted {
                job: Self::job_of_mem_key(a.job, pe),
                pe,
                pages: a.pages,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::catalog::RelationId;
    use simkit::Slab;

    #[test]
    fn mem_key_round_trips() {
        let mut slab: Slab<u8> = Slab::new();
        let j1 = slab.insert(1);
        let j2 = slab.insert(2);
        for pe in [0u32, 1, 7, 79] {
            assert_eq!(Ctx::job_of_mem_key(Ctx::mem_key(j1, pe), pe), j1);
            assert_eq!(Ctx::job_of_mem_key(Ctx::mem_key(j2, pe), pe), j2);
        }
        assert_ne!(Ctx::mem_key(j1, 0), Ctx::mem_key(j1, 1));
        assert_ne!(Ctx::mem_key(j1, 0), Ctx::mem_key(j2, 0));
    }

    #[test]
    fn object_encoding_disjoint() {
        let d = object::data(RelationId(3));
        let i = object::index(RelationId(3));
        let t = object::temp(3);
        assert_ne!(d, i);
        assert_ne!(d, t);
        assert_ne!(i, t);
        assert_eq!(object::relation_of(d), Some(RelationId(3)));
        assert_eq!(object::relation_of(i), Some(RelationId(3)));
        assert_eq!(object::relation_of(t), None);
        assert!(object::is_temp(t));
        assert!(!object::is_temp(d));
    }
}
