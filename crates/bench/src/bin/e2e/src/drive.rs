//! The closed-loop driver: client threads that replay seeded lifecycles
//! through real `WireClient`s and check every answer.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use oasis::core::cert::Rmc;
use oasis::prelude::*;
use oasis::store::ReplicaNode;
use oasis::wire::{WireClient, WireError};
use oasis_obs::TraceCtx;

use crate::reference::Probe;
use crate::workload::{Lifecycle, Lifecycles, Op, CLIENTS, INVOKES, THIEF, WARMUP_LIFECYCLES};
use crate::world::World;

/// One successful timed operation (or one reference round trip).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the answer arrived, nanoseconds since the run started.
    pub at_ns: u64,
    pub latency_ns: u64,
}

/// What one client saw during a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latencies of correctly answered timed operations, by [`Op::idx`].
    pub samples: [Vec<Sample>; 5],
    /// The host-speed reference: one echo round trip before each lifecycle.
    pub reference: Vec<Sample>,
    /// Operations sent, timed or not (the stolen-RMC probe and step ⑥
    /// are untimed but checked).
    pub attempted: u64,
    /// Transport errors, `Overloaded`/`DeadlineExceeded`/`NotLeader`, and
    /// wrong answers (grant for deny, deny for grant, ⑥ accepted).
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub lifecycles: u64,
    pub granted: u64,
    pub elapsed: Duration,
    /// Quorum commits seen around each timed operation, by [`Op::idx`];
    /// only counted by [`Client::census`].
    pub commits: [u64; 5],
}

impl Outcome {
    fn fail(&mut self, lifecycle: &Lifecycle, what: &str, detail: impl std::fmt::Debug) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures
                .push(format!("lifecycle {}: {what}: {detail:?}", lifecycle.id));
        }
    }

    pub fn timed_ops(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// Folds another client's outcome into this one. Elapsed time is the
    /// longer of the two (the clients run side by side).
    pub fn merge(&mut self, other: Outcome) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.reference.extend(other.reference);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.lifecycles += other.lifecycles;
        self.granted += other.granted;
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// One closed-loop client: a connection per server it talks to and its
/// own seeded lifecycle stream.
pub struct Client {
    login: WireClient,
    /// `None` when one server issues both roles: the client then has a
    /// single connection, as a principal of that service would.
    hospital: Option<WireClient>,
    /// To the benchmark's own echo thread.
    reference: Probe,
    lifecycles: Lifecycles,
    /// Attach a root `TraceCtx` per lifecycle (the traced re-run).
    pub traced: bool,
    /// The cluster leader whose `committed` counter is read around every
    /// timed operation; set only while [`Client::census`] runs.
    census: Option<Arc<ReplicaNode>>,
}

fn is_denial<T>(result: &Result<T, WireError>) -> bool {
    matches!(result, Err(WireError::Remote(_)))
}

impl Client {
    pub fn connect(world: &World, reference: SocketAddr, seed: u64, index: usize) -> Client {
        let login = WireClient::connect(world.login_addr).expect("client connects");
        let hospital = (world.hospital_addr != world.login_addr)
            .then(|| WireClient::connect(world.hospital_addr).expect("client connects"));
        Client {
            login,
            hospital,
            reference: Probe::connect(reference),
            lifecycles: Lifecycles::new(seed, index),
            traced: false,
            census: None,
        }
    }

    fn hospital(&mut self) -> &mut WireClient {
        self.hospital.as_mut().unwrap_or(&mut self.login)
    }

    fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.login.set_trace(trace);
        if let Some(hospital) = &mut self.hospital {
            hospital.set_trace(trace);
        }
    }

    /// Runs `call`, and records its latency under `op` if `expected`
    /// accepts the answer; otherwise counts a failure. Returns the answer
    /// only when it was the expected one.
    fn timed<T: std::fmt::Debug>(
        &mut self,
        out: &mut Outcome,
        started: Instant,
        lifecycle: &Lifecycle,
        op: Op,
        expected: fn(&Result<T, WireError>) -> bool,
        call: impl FnOnce(&mut Client) -> Result<T, WireError>,
    ) -> Option<Result<T, WireError>> {
        out.attempted += 1;
        let committed = |c: &Client| c.census.as_ref().map_or(0, |node| node.stats().committed);
        let committed_before = committed(self);
        let sent = Instant::now();
        let answer = call(self);
        let latency_ns = sent.elapsed().as_nanos() as u64;
        out.commits[op.idx()] += committed(self) - committed_before;
        if !expected(&answer) {
            out.fail(lifecycle, op.name(), &answer);
            return None;
        }
        out.samples[op.idx()].push(Sample {
            at_ns: started.elapsed().as_nanos() as u64,
            latency_ns,
        });
        Some(answer)
    }

    /// One session, steps ① to ⑥. `started` is the run's time origin.
    fn lifecycle(&mut self, out: &mut Outcome, started: Instant, lc: &Lifecycle) {
        out.lifecycles += 1;
        if self.traced {
            self.set_trace(Some(TraceCtx::root(lc.id + 1)));
        }
        let now = 1_000 + lc.id;
        let doctor = PrincipalId::new(lc.doctor.clone());
        let treating_args = vec![Value::id(lc.doctor.clone()), Value::id(lc.patient.clone())];

        // ① login
        let Some(Ok(login)) = self.timed(out, started, lc, Op::Login, Result::is_ok, |c| {
            c.login.activate(
                &doctor,
                "logged_in",
                vec![Value::id(lc.doctor.clone())],
                vec![],
                now,
            )
        }) else {
            return;
        };
        let login_cred = Credential::Rmc(login.clone());

        if lc.stolen {
            out.attempted += 1;
            let theft = self.hospital().activate(
                &PrincipalId::new(THIEF),
                "treating_doctor",
                treating_args.clone(),
                vec![login_cred.clone()],
                now,
            );
            if !is_denial(&theft) {
                out.fail(lc, "stolen login RMC was not refused", &theft);
            }
        }

        // ② enter_role; a seeded denial is the correct answer for an
        // unregistered patient.
        let expected: fn(&Result<Rmc, WireError>) -> bool =
            if lc.denied { is_denial } else { Result::is_ok };
        let treating = self
            .timed(out, started, lc, Op::EnterRole, expected, |c| {
                c.hospital().activate(
                    &doctor,
                    "treating_doctor",
                    treating_args.clone(),
                    vec![login_cred.clone()],
                    now,
                )
            })
            .and_then(Result::ok);

        if let Some(treating) = &treating {
            out.granted += 1;
            let treating_cred = Credential::Rmc(treating.clone());
            // ③ guarded calls
            for _ in 0..INVOKES {
                self.timed(out, started, lc, Op::Invoke, Result::is_ok, |c| {
                    c.hospital().invoke(
                        &doctor,
                        "read_record",
                        vec![Value::id(lc.patient.clone())],
                        vec![login_cred.clone(), treating_cred.clone()],
                        now,
                    )
                });
            }
            // ④ validation callback, as a relying service would make it
            self.timed(out, started, lc, Op::Validate, Result::is_ok, |c| {
                c.hospital().validate(&treating_cred, &doctor, now)
            });
        }

        // ⑤ logout: the ack must mean the dependent subtree is gone.
        self.timed(
            out,
            started,
            lc,
            Op::Revoke,
            |r| matches!(r, Ok(true)),
            |c| c.login.revoke(login.crr.cert_id.0, "logout", now),
        );

        // ⑥ the cascade finished before the revoke was acked
        if let Some(treating) = treating {
            out.attempted += 1;
            let after = self
                .hospital()
                .validate(&Credential::Rmc(treating), &doctor, now);
            if !is_denial(&after) {
                out.fail(lc, "treating RMC survived the revoke", &after);
            }
        }
    }

    /// This client's connection to the server that guards `read_record`.
    pub fn connection(&mut self) -> &mut WireClient {
        self.hospital()
    }

    /// The next lifecycle of this client's stream, after one reference
    /// round trip.
    fn next_lifecycle(&mut self, out: &mut Outcome, started: Instant) {
        let latency_ns = self.reference.round_trip();
        out.reference.push(Sample {
            at_ns: started.elapsed().as_nanos() as u64,
            latency_ns,
        });
        let lc = self.lifecycles.next().expect("endless stream");
        self.lifecycle(out, started, &lc);
    }

    fn run_lifecycles(&mut self, count: usize) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        for _ in 0..count {
            self.next_lifecycle(&mut out, started);
        }
        out
    }

    fn warm_up(&mut self) -> Outcome {
        self.run_lifecycles(WARMUP_LIFECYCLES)
    }

    /// Runs `count` lifecycles alone, counting in [`Outcome::commits`] how
    /// far `leader`'s commit counter moved across each timed operation.
    /// Exact only while no other client is running.
    pub fn census(&mut self, leader: Arc<ReplicaNode>, count: usize) -> Outcome {
        self.census = Some(leader);
        let out = self.run_lifecycles(count);
        self.census = None;
        out
    }

    fn run_for(&mut self, duration: Duration) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        while started.elapsed() < duration {
            self.next_lifecycle(&mut out, started);
        }
        out.elapsed = started.elapsed();
        out
    }
}

fn on_all_clients(clients: &mut [Client], work: impl Fn(&mut Client) -> Outcome + Sync) -> Outcome {
    let barrier = Arc::new(Barrier::new(clients.len()));
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = Arc::clone(&barrier);
                let work = &work;
                scope.spawn(move || {
                    barrier.wait();
                    work(client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Outcome::default();
    for outcome in outcomes {
        merged.merge(outcome);
    }
    merged
}

/// Connects the [`CLIENTS`] clients and runs each through its warm-up
/// lifecycles. Warm-up answers are checked like any other. `reference` is
/// where [`crate::reference::serve`] echoes.
pub fn connect_and_warm_up(
    world: &World,
    reference: SocketAddr,
    seed: u64,
) -> (Vec<Client>, Outcome) {
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| Client::connect(world, reference, seed, i))
        .collect();
    let outcome = on_all_clients(&mut clients, Client::warm_up);
    (clients, outcome)
}

/// The timed run: every client loops lifecycles for `duration`.
pub fn run(clients: &mut [Client], duration: Duration) -> Outcome {
    on_all_clients(clients, |client| client.run_for(duration))
}
