//! Discrete-event simulation engine executing per-rank MPI programs.
//!
//! Each rank runs a program of [`Op`]s; cross-rank dependencies (message
//! arrival, collective completion) are resolved event-driven. The engine
//! emits `StateInterval`s — one per MPI call or compute block — exactly as a
//! Score-P-instrumented run would, producing the paper's trace shape:
//! `MPI_Init` / `Compute` / `MPI_Send` / `MPI_Recv` / `MPI_Wait` /
//! `MPI_Allreduce` states per process.
//!
//! Causality: a receive completes at `max(receiver clock, message arrival)`;
//! arrival is `send time + transfer time` from the [`Network`]. Execution
//! order therefore never violates message ordering, and runs are
//! deterministic for a fixed seed — their memory use too: the engine's maps
//! hash with fixed keys (`FixedKeys`), so a seed replays the same
//! allocations and frees. `HashMap`'s default per-process random keys
//! would free the channel queues in a different order on every run and
//! leave the heap of the process a different shape each time.

use crate::network::Network;
use crate::platform::Platform;
use ocelotl_trace::{LeafId, StateId, StateRegistry, Trace, TraceBuilder};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// The hasher of the engine's maps: the standard hasher with the same keys
/// in every process (see the module docs).
type FixedKeys = BuildHasherDefault<DefaultHasher>;

/// One instruction of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `MPI_Init` occupying the rank for `duration` seconds.
    Init {
        /// Duration of the init call.
        duration: f64,
    },
    /// Application computation (outside MPI).
    Compute {
        /// Duration of the compute block.
        duration: f64,
    },
    /// Eager blocking send: the rank is occupied for the injection time,
    /// the message arrives after the full transfer time.
    Send {
        /// Destination rank.
        dst: u32,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Post a non-blocking receive expectation from `src` (no visible state;
    /// completed by a later [`Op::Wait`]).
    Irecv {
        /// Source rank.
        src: u32,
    },
    /// Complete the oldest posted [`Op::Irecv`]: `MPI_Wait` until arrival.
    Wait,
    /// Blocking receive: `MPI_Recv` until the message from `src` arrives.
    Recv {
        /// Source rank.
        src: u32,
    },
    /// Global allreduce over all ranks; completes for everyone at
    /// `max(entry times) + collective time`.
    Allreduce {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Global barrier: an allreduce with an empty payload and its own
    /// visible state (`MPI_Barrier`).
    Barrier,
    /// Global all-to-all personalized exchange (`bytes` per rank pair);
    /// completes for everyone at `max(entry times) + exchange time` — the
    /// NPB-FT transpose.
    Alltoall {
        /// Payload per rank pair in bytes.
        bytes: u64,
    },
}

/// The fixed state vocabulary emitted by the engine.
#[derive(Debug, Clone, Copy)]
pub struct States {
    /// `MPI_Init`.
    pub init: StateId,
    /// Application compute.
    pub compute: StateId,
    /// `MPI_Send`.
    pub send: StateId,
    /// `MPI_Recv`.
    pub recv: StateId,
    /// `MPI_Wait`.
    pub wait: StateId,
    /// `MPI_Allreduce`.
    pub allreduce: StateId,
    /// `MPI_Barrier`.
    pub barrier: StateId,
    /// `MPI_Alltoall`.
    pub alltoall: StateId,
}

impl States {
    /// Intern the engine's state names into a registry.
    pub fn intern(reg: &mut StateRegistry) -> Self {
        Self {
            init: reg.intern("MPI_Init"),
            compute: reg.intern("Compute"),
            send: reg.intern("MPI_Send"),
            recv: reg.intern("MPI_Recv"),
            wait: reg.intern("MPI_Wait"),
            allreduce: reg.intern("MPI_Allreduce"),
            barrier: reg.intern("MPI_Barrier"),
            alltoall: reg.intern("MPI_Alltoall"),
        }
    }
}

/// Ordered f64 key for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);
impl Eq for TimeKey {}
impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockKind {
    Recv,
    Wait,
}

#[derive(Debug, Clone, Copy)]
struct Blocked {
    kind: BlockKind,
    src: u32,
    since: f64,
}

struct RankState {
    program: Vec<Op>,
    pc: usize,
    clock: f64,
    pending_irecv: VecDeque<u32>,
    coll_seq: usize,
    blocked: Option<Blocked>,
}

struct Collective {
    entered: Vec<(u32, f64)>,
    bytes: u64,
    state: StateId,
}

/// Outcome statistics of a simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimStats {
    /// Number of state intervals emitted.
    pub intervals: usize,
    /// Simulated makespan (seconds).
    pub makespan: f64,
}

/// Execute per-rank programs over a platform + network; returns the trace
/// and summary statistics.
pub struct Engine<'a> {
    platform: &'a Platform,
    network: &'a Network,
    rng: SmallRng,
}

impl<'a> Engine<'a> {
    /// Create an engine with a deterministic seed.
    pub fn new(platform: &'a Platform, network: &'a Network, seed: u64) -> Self {
        Self {
            platform,
            network,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The fixed state registry every simulation uses (needed upfront by
    /// streaming sinks, e.g. `BtfStreamWriter`).
    pub fn standard_states() -> (StateRegistry, States) {
        let mut reg = StateRegistry::new();
        let states = States::intern(&mut reg);
        (reg, states)
    }

    /// Run the programs (one per rank) to completion, collecting the trace
    /// in memory.
    ///
    /// Panics on deadlock (a program whose receives are never matched) with
    /// a diagnostic of the stuck ranks.
    pub fn run(self, programs: Vec<Vec<Op>>, metadata: &[(&str, String)]) -> (Trace, SimStats) {
        let (reg, states) = Self::standard_states();
        let mut tb = TraceBuilder::new(self.platform.hierarchy()).with_states(reg);
        for (k, v) in metadata {
            tb.push_meta(k, v);
        }
        let stats = self.run_impl(programs, &states, &mut |rank, sid, b, e| {
            tb.push_state(LeafId(rank), sid, b, e)
        });
        (tb.build(), stats)
    }

    /// Run the programs, emitting every state interval through `emit`
    /// instead of materializing a trace — for streaming multi-hundred-
    /// million-event runs straight to disk.
    pub fn run_with_sink(
        self,
        programs: Vec<Vec<Op>>,
        emit: &mut dyn FnMut(u32, StateId, f64, f64),
    ) -> SimStats {
        let (_, states) = Self::standard_states();
        self.run_impl(programs, &states, emit)
    }

    fn run_impl(
        mut self,
        programs: Vec<Vec<Op>>,
        states: &States,
        emit: &mut dyn FnMut(u32, StateId, f64, f64),
    ) -> SimStats {
        let n = self.platform.n_ranks;
        assert_eq!(programs.len(), n, "one program per rank");

        let mut ranks: Vec<RankState> = programs
            .into_iter()
            .map(|program| RankState {
                program,
                pc: 0,
                clock: 0.0,
                pending_irecv: VecDeque::new(),
                coll_seq: 0,
                blocked: None,
            })
            .collect();

        let mut channels: HashMap<(u32, u32), VecDeque<f64>, FixedKeys> = HashMap::default();
        let mut collectives: HashMap<usize, Collective, FixedKeys> = HashMap::default();
        let mut heap: BinaryHeap<Reverse<(TimeKey, u32)>> = BinaryHeap::new();
        for r in 0..n as u32 {
            heap.push(Reverse((TimeKey(0.0), r)));
        }

        let mut intervals = 0usize;
        let mut makespan = 0.0f64;

        while let Some(Reverse((TimeKey(t), rank))) = heap.pop() {
            let ri = rank as usize;
            debug_assert!(ranks[ri].blocked.is_none());
            ranks[ri].clock = ranks[ri].clock.max(t);

            // Run the rank inline until it blocks, parks, or finishes.
            'inline: loop {
                let pc = ranks[ri].pc;
                if pc >= ranks[ri].program.len() {
                    break 'inline;
                }
                let op = ranks[ri].program[pc];
                ranks[ri].pc += 1;
                let clock = ranks[ri].clock;
                match op {
                    Op::Init { duration } => {
                        emit(rank, states.init, clock, clock + duration);
                        intervals += 1;
                        ranks[ri].clock += duration;
                    }
                    Op::Compute { duration } => {
                        emit(rank, states.compute, clock, clock + duration);
                        intervals += 1;
                        ranks[ri].clock += duration;
                    }
                    Op::Send { dst, bytes } => {
                        let occ = self.network.send_occupancy(
                            self.platform,
                            ri,
                            dst as usize,
                            bytes,
                            clock,
                            &mut self.rng,
                        );
                        let transfer = self.network.transfer_time(
                            self.platform,
                            ri,
                            dst as usize,
                            bytes,
                            clock,
                            &mut self.rng,
                        );
                        emit(rank, states.send, clock, clock + occ);
                        intervals += 1;
                        ranks[ri].clock += occ;
                        let arrival = clock + transfer.max(occ);
                        // Deliver, waking the receiver if it is parked on us.
                        let key = (rank, dst);
                        let dsti = dst as usize;
                        let wake = match ranks[dsti].blocked {
                            Some(b) if b.src == rank => {
                                // Only steal the message if no earlier one queues.
                                channels.get(&key).is_none_or(|q| q.is_empty())
                            }
                            _ => false,
                        };
                        if wake {
                            let b = ranks[dsti].blocked.take().unwrap();
                            let end = arrival.max(b.since);
                            let sid = match b.kind {
                                BlockKind::Recv => states.recv,
                                BlockKind::Wait => states.wait,
                            };
                            emit(dst, sid, b.since, end);
                            intervals += 1;
                            ranks[dsti].clock = end;
                            heap.push(Reverse((TimeKey(end), dst)));
                        } else {
                            channels.entry(key).or_default().push_back(arrival);
                        }
                    }
                    Op::Irecv { src } => {
                        ranks[ri].pending_irecv.push_back(src);
                    }
                    Op::Recv { .. } | Op::Wait => {
                        let (src, kind, sid) = match op {
                            Op::Recv { src } => (src, BlockKind::Recv, states.recv),
                            _ => {
                                let src = ranks[ri]
                                    .pending_irecv
                                    .pop_front()
                                    .expect("MPI_Wait without a posted Irecv");
                                (src, BlockKind::Wait, states.wait)
                            }
                        };
                        let key = (src, rank);
                        if let Some(arrival) = channels.get_mut(&key).and_then(|q| q.pop_front()) {
                            let end = arrival.max(clock);
                            emit(rank, sid, clock, end);
                            intervals += 1;
                            ranks[ri].clock = end;
                        } else {
                            ranks[ri].blocked = Some(Blocked {
                                kind,
                                src,
                                since: clock,
                            });
                            break 'inline;
                        }
                    }
                    Op::Allreduce { .. } | Op::Barrier | Op::Alltoall { .. } => {
                        let (bytes, sid) = match op {
                            Op::Allreduce { bytes } => (bytes, states.allreduce),
                            Op::Alltoall { bytes } => (bytes, states.alltoall),
                            _ => (0, states.barrier),
                        };
                        let seq = ranks[ri].coll_seq;
                        ranks[ri].coll_seq += 1;
                        let coll = collectives.entry(seq).or_insert_with(|| Collective {
                            entered: Vec::with_capacity(n),
                            bytes,
                            state: sid,
                        });
                        coll.entered.push((rank, clock));
                        if coll.entered.len() == n {
                            let coll = collectives.remove(&seq).unwrap();
                            let latest = coll
                                .entered
                                .iter()
                                .map(|&(_, t)| t)
                                .fold(f64::NEG_INFINITY, f64::max);
                            let coll_time = if coll.state == states.alltoall {
                                self.network.alltoall_time(n, coll.bytes, &mut self.rng)
                            } else {
                                self.network.allreduce_time(n, coll.bytes, &mut self.rng)
                            };
                            let end = latest + coll_time;
                            for (r, te) in coll.entered {
                                emit(r, coll.state, te, end);
                                intervals += 1;
                                ranks[r as usize].clock = end;
                                heap.push(Reverse((TimeKey(end), r)));
                            }
                        }
                        // This rank is parked until the collective completes
                        // (the heap push above resumes it).
                        break 'inline;
                    }
                }
            }
            makespan = makespan.max(ranks[ri].clock);
        }

        // Deadlock detection: every program must have run to completion.
        let stuck: Vec<usize> = ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.pc < r.program.len() || r.blocked.is_some())
            .map(|(i, _)| i)
            .collect();
        assert!(
            stuck.is_empty(),
            "simulation deadlock: ranks {stuck:?} never completed"
        );

        SimStats {
            intervals,
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Nic, Platform};

    fn tiny_platform() -> Platform {
        Platform::uniform(2, 2, Nic::Infiniband20G)
    }

    fn quiet_network(p: &Platform) -> Network {
        let mut n = Network::for_platform(p);
        n.jitter = 0.0;
        n
    }

    #[test]
    fn ping_pong_completes_with_correct_states() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        // rank 0 sends to rank 2 (other machine), rank 2 receives.
        let mut programs = vec![vec![]; 4];
        programs[0] = vec![
            Op::Init { duration: 1.0 },
            Op::Send {
                dst: 2,
                bytes: 1 << 20,
            },
        ];
        programs[2] = vec![Op::Init { duration: 0.5 }, Op::Recv { src: 0 }];
        let (trace, stats) = Engine::new(&p, &net, 1).run(programs, &[]);
        assert_eq!(stats.intervals, 4);
        let recv = trace.states.get("MPI_Recv").unwrap();
        let recv_iv: Vec<_> = trace
            .intervals
            .iter()
            .filter(|iv| iv.state == recv)
            .collect();
        assert_eq!(recv_iv.len(), 1);
        // Receiver blocked from t=0.5 until after sender's message arrives
        // (sent at t=1.0): recv interval must end after 1.0.
        assert!(recv_iv[0].begin == 0.5);
        assert!(recv_iv[0].end > 1.0);
    }

    #[test]
    fn early_send_makes_recv_instant() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        let mut programs = vec![vec![]; 4];
        programs[0] = vec![Op::Send { dst: 1, bytes: 8 }];
        programs[1] = vec![Op::Compute { duration: 5.0 }, Op::Recv { src: 0 }];
        let (trace, _) = Engine::new(&p, &net, 1).run(programs, &[]);
        let recv = trace.states.get("MPI_Recv").unwrap();
        let iv = trace.intervals.iter().find(|iv| iv.state == recv).unwrap();
        // Message arrived long before the recv was posted: near-zero wait.
        assert!(iv.duration() < 1e-6, "duration {}", iv.duration());
    }

    #[test]
    fn irecv_wait_matches_fifo_order() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        let mut programs = vec![vec![]; 4];
        programs[0] = vec![
            Op::Send { dst: 1, bytes: 8 },
            Op::Compute { duration: 1.0 },
            Op::Send { dst: 1, bytes: 8 },
        ];
        programs[1] = vec![
            Op::Irecv { src: 0 },
            Op::Irecv { src: 0 },
            Op::Wait,
            Op::Wait,
        ];
        let (trace, _) = Engine::new(&p, &net, 1).run(programs, &[]);
        let wait = trace.states.get("MPI_Wait").unwrap();
        let waits: Vec<_> = trace
            .intervals
            .iter()
            .filter(|iv| iv.state == wait && iv.resource == LeafId(1))
            .collect();
        assert_eq!(waits.len(), 2);
        // Second wait ends after the second message (sent at ≈1.0).
        assert!(waits[1].end >= 1.0);
    }

    #[test]
    fn allreduce_synchronizes_all_ranks() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        let programs = (0..4)
            .map(|r| {
                vec![
                    Op::Compute {
                        duration: 1.0 + r as f64,
                    },
                    Op::Allreduce { bytes: 8 },
                ]
            })
            .collect();
        let (trace, _) = Engine::new(&p, &net, 1).run(programs, &[]);
        let ar = trace.states.get("MPI_Allreduce").unwrap();
        let ivs: Vec<_> = trace.intervals.iter().filter(|iv| iv.state == ar).collect();
        assert_eq!(ivs.len(), 4);
        let end = ivs[0].end;
        assert!(ivs.iter().all(|iv| (iv.end - end).abs() < 1e-12));
        // Slowest rank entered at t=4.0; everyone ends after that.
        assert!(end > 4.0);
        // Rank 0 entered at 1.0, so its allreduce state is the longest.
        let r0 = ivs.iter().find(|iv| iv.resource == LeafId(0)).unwrap();
        assert!(r0.duration() > 3.0);
    }

    #[test]
    fn barrier_synchronizes_with_its_own_state() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        let programs = (0..4)
            .map(|r| {
                vec![
                    Op::Compute {
                        duration: 1.0 + r as f64 * 0.5,
                    },
                    Op::Barrier,
                    Op::Compute { duration: 0.1 },
                ]
            })
            .collect();
        let (trace, _) = Engine::new(&p, &net, 2).run(programs, &[]);
        let b = trace.states.get("MPI_Barrier").unwrap();
        let ivs: Vec<_> = trace.intervals.iter().filter(|iv| iv.state == b).collect();
        assert_eq!(ivs.len(), 4);
        let end = ivs[0].end;
        assert!(ivs.iter().all(|iv| (iv.end - end).abs() < 1e-12));
        // Mixing barriers and allreduces keeps the collective sequence
        // aligned because both bump the same counter.
    }

    #[test]
    fn repeated_allreduces_stay_in_step() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        let programs = (0..4)
            .map(|_| {
                let mut ops = Vec::new();
                for _ in 0..5 {
                    ops.push(Op::Compute { duration: 0.5 });
                    ops.push(Op::Allreduce { bytes: 64 });
                }
                ops
            })
            .collect();
        let (trace, stats) = Engine::new(&p, &net, 3).run(programs, &[]);
        assert_eq!(stats.intervals, 4 * 10);
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let p = tiny_platform();
        let net = Network::for_platform(&p);
        let make = || {
            (0..4)
                .map(|r: u32| {
                    vec![
                        Op::Init { duration: 0.1 },
                        Op::Send {
                            dst: (r + 1) % 4,
                            bytes: 1024,
                        },
                        Op::Recv { src: (r + 3) % 4 },
                        Op::Allreduce { bytes: 8 },
                    ]
                })
                .collect::<Vec<_>>()
        };
        let (t1, s1) = Engine::new(&p, &net, 42).run(make(), &[]);
        let (t2, s2) = Engine::new(&p, &net, 42).run(make(), &[]);
        assert_eq!(t1.intervals, t2.intervals);
        assert_eq!(s1.intervals, s2.intervals);
        let (t3, _) = Engine::new(&p, &net, 43).run(make(), &[]);
        assert_ne!(
            t1.intervals, t3.intervals,
            "different seed, different jitter"
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unmatched_recv_deadlocks() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        let mut programs = vec![vec![]; 4];
        programs[0] = vec![Op::Recv { src: 1 }];
        Engine::new(&p, &net, 1).run(programs, &[]);
    }

    #[test]
    fn ring_pipeline_makespan_accumulates() {
        // 0 → 1 → 2 → 3 pipeline: each rank waits for the previous one.
        let p = tiny_platform();
        let net = quiet_network(&p);
        let programs = (0..4u32)
            .map(|r| {
                let mut ops = vec![];
                if r > 0 {
                    ops.push(Op::Recv { src: r - 1 });
                }
                ops.push(Op::Compute { duration: 1.0 });
                if r < 3 {
                    ops.push(Op::Send {
                        dst: r + 1,
                        bytes: 8,
                    });
                }
                ops
            })
            .collect();
        let (_, stats) = Engine::new(&p, &net, 1).run(programs, &[]);
        // 4 sequential compute blocks ⇒ makespan ≥ 4.
        assert!(stats.makespan >= 4.0, "makespan {}", stats.makespan);
    }

    #[test]
    fn metadata_is_attached() {
        let p = tiny_platform();
        let net = quiet_network(&p);
        let programs = vec![vec![Op::Compute { duration: 1.0 }]; 4];
        let (trace, _) = Engine::new(&p, &net, 1).run(programs, &[("app", "test".to_string())]);
        assert_eq!(trace.meta("app"), Some("test"));
    }
}
