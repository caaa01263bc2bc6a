//! Engine-action execution and token routing.
//!
//! The adapter between the engine's action/input protocol and the hardware
//! model: executes queued [`Action`]s against CPUs, disks, log disks and
//! the network, routes completion [`Token`]s back into jobs, and drains
//! the (job, input) work queue until quiescent after every event. Pure
//! mechanism — placement policy lives in the broker, event ordering in
//! `simkit::Dispatcher`.

use crate::system::{Ev, System};
use engine::api::{Action, InKind, Input, Msg, MsgKind, Step, Token, COORD_TASK};
use engine::ctx::Ctx;
use engine::{Job, PeId};
use hardware::{DiskId, IoKind, IoRequest};

impl System {
    /// A CPU grant completed: route by step.
    pub(crate) fn handle_cpu_token(&mut self, _pe: PeId, mut token: Token) {
        match token.step {
            Step::SendCpu => {
                let msg = token.msg.expect("send token carries the message");
                let release = self
                    .net
                    .send(self.events.now(), msg.from as usize, msg.bytes);
                let latency = self.net.latency();
                self.events.at(release + latency, Ev::Deliver(msg));
            }
            Step::MsgCpu => {
                let msg = token.msg.take().expect("msg token carries the message");
                if matches!(msg.kind, MsgKind::ControlReq { .. }) {
                    self.handle_control_req(*msg);
                } else {
                    self.route_token(token, Some(msg));
                }
            }
            _ => self.route_token(token, None),
        }
    }

    /// Deliver a message: charge receive CPU at the destination.
    pub(crate) fn deliver(&mut self, msg: Box<Msg>) {
        if msg.from == msg.to {
            // Local messages skip the network and CPU costs entirely.
            let to = msg.to;
            let token = Token {
                job: msg.job,
                task: msg.task,
                step: Step::MsgCpu,
                msg: Some(msg),
            };
            self.handle_cpu_token(to, token);
            return;
        }
        let to = msg.to;
        let instr = self.cfg.engine.recv_instr(msg.bytes);
        let token = Token {
            job: msg.job,
            task: msg.task,
            step: Step::MsgCpu,
            msg: Some(msg),
        };
        if let Some(grant) = self.cpus[to as usize].request(self.events.now(), instr, false, token)
        {
            self.events.at(
                grant.done,
                Ev::CpuDone {
                    pe: to,
                    token: grant.tag,
                },
            );
        }
    }

    /// Route a completed token into the owning job.
    pub(crate) fn route_token(&mut self, token: Token, msg: Option<Box<Msg>>) {
        let kind = match msg {
            Some(m) => InKind::Msg(m),
            None => InKind::Step(token.step),
        };
        self.pending.push_back((
            token.job,
            Input {
                task: token.task,
                kind,
            },
        ));
    }

    /// Drain pending inputs and actions until quiescent.
    pub(crate) fn drain(&mut self) {
        let mut guard = 0u64;
        while let Some((job, input)) = self.pending.pop_front() {
            guard += 1;
            assert!(guard < 10_000_000, "engine dispatch loop does not converge");
            // Check the job out of the slab (stable key, no aliasing).
            let Some(mut body) = self.jobs.get_mut(job).and_then(Option::take) else {
                self.metrics.stale_tokens += 1;
                continue;
            };
            let t0 = self.prof_t0();
            {
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
            }
            if let Some(slot) = self.jobs.get_mut(job) {
                *slot = Some(body);
            }
            self.prof_add(t0, crate::profile::Phase::SubEngineHandle);
            let t1 = self.prof_t0();
            self.drain_actions();
            self.prof_add(t1, crate::profile::Phase::SubExecActions);
        }
    }

    /// Execute queued engine actions against the hardware.
    ///
    /// Actions are moved into a scratch deque and consumed by value — no
    /// per-action clone. The deque (not a Vec index loop) keeps the order
    /// rule intact: nested actions pushed during execution (e.g. the
    /// control reply) run after everything already queued.
    pub(crate) fn drain_actions(&mut self) {
        if self.actions.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.action_scratch);
        debug_assert!(queue.is_empty(), "drain_actions re-entered");
        queue.extend(self.actions.drain(..));
        while let Some(action) = queue.pop_front() {
            self.exec_action(action);
            if !self.actions.is_empty() {
                queue.extend(self.actions.drain(..));
            }
        }
        self.action_scratch = queue;
    }

    fn exec_action(&mut self, action: Action) {
        let now = self.events.now();
        match action {
            Action::Cpu {
                pe,
                instr,
                oltp,
                token,
            } => {
                if let Some(grant) = self.cpus[pe as usize].request(now, instr, oltp, token) {
                    self.events.at(
                        grant.done,
                        Ev::CpuDone {
                            pe,
                            token: grant.tag,
                        },
                    );
                }
            }
            Action::Io {
                pe,
                disk,
                req,
                token,
            } => {
                if let Some(grant) =
                    self.disks[pe as usize].request(now, DiskId(disk), req, Some(token))
                {
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
            Action::IoAsync { pe, disk, req } => {
                if let Some(grant) = self.disks[pe as usize].request(now, DiskId(disk), req, None) {
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
            Action::LogWrite { pe, pages, token } => {
                let page = self.pes[pe as usize].log.alloc_pages(pages);
                let req = IoRequest {
                    object: u64::MAX,
                    page,
                    kind: IoKind::Write { pages },
                };
                if let Some(grant) =
                    self.log_disks[pe as usize].request(now, DiskId(0), req, Some(token))
                {
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
                    let token = Token {
                        job: msg.job,
                        task: msg.task,
                        step: Step::SendCpu,
                        msg: Some(msg),
                    };
                    if let Some(grant) = self.cpus[from as usize].request(now, instr, false, token)
                    {
                        self.events.at(
                            grant.done,
                            Ev::CpuDone {
                                pe: from,
                                token: grant.tag,
                            },
                        );
                    }
                }
            }
            Action::JobDone { job } => self.job_done(job),
            Action::MemoryGranted { job, pe, pages } => {
                self.pending.push_back((
                    job,
                    Input {
                        task: COORD_TASK,
                        kind: InKind::MemGrant { pe, pages },
                    },
                ));
            }
            Action::MemoryStolen { job, pe, pages } => {
                self.pending.push_back((
                    job,
                    Input {
                        task: COORD_TASK,
                        kind: InKind::MemSteal { pe, pages },
                    },
                ));
            }
            Action::LockGranted { job, pe, object } => {
                self.pending.push_back((
                    job,
                    Input {
                        task: COORD_TASK,
                        kind: InKind::LockGrant { pe, object },
                    },
                ));
            }
            Action::Alarm { job, pe, after } => {
                self.events.after(after, Ev::Alarm { job, pe });
            }
        }
    }

    /// Summaries of up to `max` live jobs (stuck-state diagnostics).
    pub fn debug_live_jobs(&self, max: usize) -> Vec<String> {
        self.jobs
            .iter()
            .take(max)
            .map(|(_, j)| match j {
                Some(Job::Join(j)) => {
                    format!("submitted={} {}", j.submitted, j.debug_state())
                }
                Some(Job::MultiJoin(m)) => format!(
                    "submitted={} multi[{}] {}",
                    m.join.submitted,
                    m.stages_done(),
                    m.join.debug_state()
                ),
                Some(Job::Oltp(o)) => format!("oltp pe={} submitted={}", o.pe, o.submitted),
                Some(Job::ScanQ(s)) => format!("scanq submitted={}", s.submitted),
                Some(Job::UpdateQ(u)) => format!("updateq submitted={}", u.submitted),
                Some(Job::SortQ(s)) => format!("sortq submitted={}", s.submitted),
                Some(Job::Migrate(m)) => m.debug_state(),
                None => "checked-out".into(),
            })
            .collect()
    }

    /// Tasks of the first stuck join job (diagnostics).
    pub fn debug_live_tasks_of_first_stuck(&self) -> Vec<(usize, String)> {
        for (_, j) in self.jobs.iter() {
            if let Some(Job::Join(j)) = j {
                let lines = j.debug_tasks();
                return lines.into_iter().enumerate().collect();
            }
        }
        Vec::new()
    }

    /// Hardware server occupancy (diagnostics): (pe, cpu_in_service,
    /// cpu_queued, disk_outstanding) for PEs with anything in flight.
    pub fn debug_server_state(&self) -> Vec<(u32, u32, usize, usize)> {
        (0..self.pes.len())
            .map(|i| {
                (
                    i as u32,
                    self.cpus[i].in_service(),
                    self.cpus[i].queued(),
                    self.disks[i].outstanding(),
                )
            })
            .filter(|&(_, a, b, c)| a > 0 || b > 0 || c > 0)
            .collect()
    }
}
