//! Engine-action execution and token routing.
//!
//! The adapter between the engine's action/input protocol and the hardware
//! model: executes queued [`Action`]s against CPUs, disks, log disks and
//! the network, routes completion [`Token`]s back into jobs (a message's
//! token is its box: job and task are read from the message), and drains
//! the (job, input) work queue until quiescent after every event. Pure
//! mechanism — placement policy lives in the broker, event ordering in
//! `simkit::Dispatcher`.

use crate::system::{Ev, System};
use engine::api::{Action, InKind, Input, JobId, Msg, MsgKind, TaskId, Token, COORD_TASK};
use engine::ctx::Ctx;
use engine::PeId;
use hardware::{DiskId, IoKind, IoRequest};

impl System {
    /// A CPU or disk request completed: put a sent message on the
    /// network, or route the token into its job.
    pub(crate) fn handle_token(&mut self, token: Token) {
        match token {
            Token::Send(msg) => {
                let release = self
                    .net
                    .send(self.events.now(), msg.from as usize, msg.bytes);
                let latency = self.net.latency();
                self.events.at(release + latency, Ev::Deliver(msg));
            }
            Token::Recv(msg) => {
                if let MsgKind::ControlReq(req) = msg.kind {
                    self.handle_control_req(msg.from, msg.job, *req);
                } else {
                    self.route(msg.job, msg.task, InKind::Msg(msg));
                }
            }
            Token::Step { job, task, step } => self.route(job, task, InKind::Step(step)),
        }
    }

    /// Deliver a message: charge receive CPU at the destination.
    pub(crate) fn deliver(&mut self, msg: Box<Msg>) {
        if msg.from == msg.to {
            // Local messages skip the network and CPU costs entirely.
            self.handle_token(Token::Recv(msg));
            return;
        }
        let to = msg.to;
        let instr = self.cfg.engine.recv_instr(msg.bytes);
        self.request_cpu(to, instr, false, Token::Recv(msg));
    }

    /// Queue `instr` instructions at `pe`'s CPU, scheduling the
    /// completion if a unit is free.
    fn request_cpu(&mut self, pe: PeId, instr: u64, oltp: bool, token: Token) {
        let now = self.events.now();
        let cpu = &mut self.cpus[pe as usize];
        if let Some(grant) = cpu.request(&mut self.cpu_pool, now, instr, oltp, token) {
            self.events.at(
                grant.done,
                Ev::CpuDone {
                    pe,
                    token: grant.tag,
                },
            );
        }
    }

    /// Queue `req` at data disk `disk` of `pe`, scheduling the completion
    /// if the disk is free; `token` (none for a write-back) is routed
    /// when it completes.
    fn request_io(&mut self, pe: PeId, disk: u32, req: IoRequest, token: Option<Token>) {
        let now = self.events.now();
        let disks = &mut self.disks[pe as usize];
        if let Some(grant) = disks.request(&mut self.disk_pool, now, DiskId(disk), req, token) {
            self.events.at(
                grant.done,
                Ev::IoDone {
                    pe,
                    disk,
                    token: grant.tag,
                },
            );
        }
    }

    /// Queue `kind` for task `task` of `job`.
    pub(crate) fn route(&mut self, job: JobId, task: TaskId, kind: InKind) {
        self.pending.push_back((job, Input { task, kind }));
    }

    /// Drain pending inputs and actions until quiescent.
    pub(crate) fn drain(&mut self) {
        let mut guard = 0u64;
        while let Some((job, input)) = self.pending.pop_front() {
            guard += 1;
            assert!(guard < 10_000_000, "engine dispatch loop does not converge");
            // The job is handled in its slab slot: `Ctx` borrows the other
            // fields of the system, and nothing in it reaches `jobs`.
            let Some(body) = self.jobs.get_mut(job) else {
                self.metrics.stale_tokens += 1;
                continue;
            };
            let mut ctx = Ctx {
                now: self.events.now(),
                cfg: &self.cfg.engine,
                catalog: &self.catalog,
                pes: &mut self.pes,
                rng: &mut self.rng_coord,
                out: &mut self.actions,
                temp_counter: &mut self.temp_counter,
                control_pe: self.cfg.control_pe,
            };
            body.handle(job, input, &mut ctx);
            self.drain_actions();
        }
    }

    /// Execute queued engine actions against the hardware.
    ///
    /// Runs in rounds: the queued actions are swapped into a spare `Vec`
    /// and consumed by value (no per-action clone), while actions pushed
    /// during execution collect in `self.actions` for the next round. So
    /// every action runs after everything queued before it — breadth
    /// first, the order a FIFO queue would give.
    pub(crate) fn drain_actions(&mut self) {
        let mut round = std::mem::take(&mut self.action_round);
        debug_assert!(round.is_empty(), "drain_actions re-entered");
        while !self.actions.is_empty() {
            std::mem::swap(&mut self.actions, &mut round);
            for action in round.drain(..) {
                self.exec_action(action);
            }
        }
        self.action_round = round;
    }

    fn exec_action(&mut self, action: Action) {
        let now = self.events.now();
        match action {
            Action::Cpu {
                pe,
                instr,
                oltp,
                token,
            } => self.request_cpu(pe, instr, oltp, token),
            Action::Io {
                pe,
                disk,
                req,
                token,
            } => self.request_io(pe, disk, req, Some(token)),
            Action::IoAsync { pe, disk, req } => self.request_io(pe, disk, req, None),
            Action::LogWrite { pe, pages, token } => {
                let page = self.pes[pe as usize].log.alloc_pages(pages);
                let req = IoRequest {
                    object: u64::MAX,
                    page,
                    kind: IoKind::Write { pages },
                };
                if let Some(grant) = self.log_disks[pe as usize].request(
                    &mut self.disk_pool,
                    now,
                    DiskId(0),
                    req,
                    Some(token),
                ) {
                    self.events.at(
                        grant.done,
                        Ev::LogDone {
                            pe,
                            token: grant.tag,
                        },
                    );
                }
            }
            Action::Send(msg) => {
                if msg.from == msg.to {
                    self.events.at(now, Ev::Deliver(msg));
                } else {
                    let instr = self.cfg.engine.send_instr(msg.bytes);
                    let from = msg.from;
                    self.request_cpu(from, instr, false, Token::Send(msg));
                }
            }
            Action::JobDone { job } => self.job_done(job),
            Action::MemoryGranted { job, pe, pages } => {
                self.route(job, COORD_TASK, InKind::MemGrant { pe, pages });
            }
            Action::MemoryStolen { job, pe, pages } => {
                self.route(job, COORD_TASK, InKind::MemSteal { pe, pages });
            }
            Action::LockGranted { job, pe, object } => {
                self.route(job, COORD_TASK, InKind::LockGrant { pe, object });
            }
            Action::Alarm { job, pe, after } => {
                self.events.after(after, Ev::Alarm { job, pe });
            }
        }
    }
}
