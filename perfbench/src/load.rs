//! The open-loop load generator and the rate search.
//!
//! Requests are due on a fixed schedule at the offered rate. A pool of at
//! most `nproc` client threads, one TCP connection each, takes the next due
//! request whenever a thread is free, so a slow reply delays later requests
//! (send lag) without lowering the offered load. On mixed workloads one
//! thread is the writer and takes every update. Every latency is timed
//! from the request's scheduled arrival.

use crate::setup::{PostMaker, Spec};
use crate::stats::{median, percentile, sorted};
use bgpq_engine::StrategyKind;
use bgpq_graph::NodeId;
use bgpq_net::{Client, ClientError, QueryOutcome, QuerySpec};
use bgpq_pattern::DetRng;
use bgpq_serve::{Server, Update};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub enum Req {
    Read(usize),
    Update,
}

/// The seeded request sequence of one phase: queries drawn uniformly from
/// the distinct set; on mixed workloads every `n`-th arrival is an update.
pub fn sequence(spec: &Spec, distinct: usize, len: usize, seed: u64) -> Vec<Req> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..len as u64)
        .map(|i| match spec.update_every {
            Some(n) if i % n == n - 1 => Req::Update,
            _ => Req::Read(rng.random_range(0..distinct)),
        })
        .collect()
}

/// The single writer's view of the served graph, kept by the generator so
/// every commit can be checked: versions rise by one, the new post gets
/// the next node id.
pub struct Writer {
    pub posts: PostMaker,
    pub next_id: u32,
    pub version: u64,
    pub added: u64,
}

impl Writer {
    /// The next post batch, naming its post by the id it will receive.
    pub fn next_batch(&mut self) -> Vec<Update> {
        let post = NodeId(self.next_id);
        self.posts.batch(post)
    }
}

pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub queries: &'a [String],
    /// Answer size per query, on workloads whose graph never changes.
    pub expected: Option<Vec<u64>>,
    pub writer: Mutex<Writer>,
    pub bounded: String,
    /// Output checks that failed; any entry makes the run incorrect.
    pub errors: Mutex<Vec<String>>,
}

impl<'a> Ctx<'a> {
    /// A context for `server`, served at `addr`, with the writer's view
    /// taken from its current snapshot.
    pub fn new(addr: SocketAddr, queries: &'a [String], server: &Server, posts: PostMaker) -> Self {
        Ctx {
            addr,
            queries,
            expected: None,
            writer: Mutex::new(Writer {
                posts,
                next_id: server.snapshot().graph().node_count() as u32,
                version: server.version(),
                added: 0,
            }),
            bounded: StrategyKind::Bounded.to_string(),
            errors: Mutex::new(Vec::new()),
        }
    }

    pub fn error(&self, message: String) {
        let mut errors = self.errors.lock().expect("error list poisoned");
        if errors.len() < 20 {
            errors.push(message);
        }
    }

    /// Checks one query reply: bounded strategy, a complete answer, and
    /// the known answer size when the graph is static.
    pub fn check_reply(&self, q: usize, reply: &QueryOutcome) {
        if reply.header.strategy != self.bounded {
            self.error(format!(
                "query {q} served by {:?}, not the bounded strategy",
                reply.header.strategy
            ));
        }
        if reply.header.total != reply.matches.len() as u64 || reply.done.aborted {
            self.error(format!("query {q}: incomplete answer"));
        }
        if let Some(expected) = &self.expected {
            if reply.header.total != expected[q] {
                self.error(format!(
                    "query {q}: {} rows, expected {}",
                    reply.header.total, expected[q]
                ));
            }
        }
    }

    pub fn read(&self, client: &mut Client, q: usize) -> Result<QueryOutcome, ClientError> {
        let reply = client.query(&QuerySpec::new(self.queries[q].as_str()))?;
        self.check_reply(q, &reply);
        Ok(reply)
    }

    /// Commits the next post batch. The writer lock is held across the
    /// round trip, so commits from different connections are ordered and
    /// each can be checked against the one before.
    pub fn update(&self, client: &mut Client) -> Result<Vec<Update>, ClientError> {
        let mut w = self.writer.lock().expect("writer poisoned");
        let batch = w.next_batch();
        let summary = client.update(&batch)?;
        if summary.version != w.version + 1 || summary.new_nodes != [w.next_id] {
            self.error(format!(
                "commit published version {} with new nodes {:?}; expected version {} and node {}",
                summary.version,
                summary.new_nodes,
                w.version + 1,
                w.next_id
            ));
        }
        w.version = summary.version;
        w.next_id = summary.new_nodes.last().map_or(w.next_id, |id| id + 1);
        w.added += summary.new_nodes.len() as u64;
        Ok(batch)
    }
}

pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Client>, ClientError> {
    (0..n)
        .map(|i| Client::connect(addr, &format!("perfbench-{i}")))
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Ok,
    Failed,
    /// Not completed before the window closed plus the latency limit.
    Late,
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub update: bool,
    pub sched_ns: u64,
    /// How late the request was sent against its schedule (`None` when it
    /// was never sent).
    pub lag_ns: Option<u64>,
    /// Scheduled arrival to reply, and when the reply landed (both from
    /// the phase start).
    pub latency_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
}

pub struct Phase {
    pub rate: f64,
    pub secs: f64,
    pub samples: Vec<Sample>,
    pub aborted: bool,
}

/// Runs `seq` open-loop at `rate` over the connections in `clients`.
/// Requests not done within the window plus `grace` are late. With a
/// `limit`, the phase stops once more than 1% of its requests missed it,
/// since it can no longer meet it.
pub fn run_phase(
    ctx: &Ctx,
    clients: &mut [Client],
    seq: &[Req],
    rate: f64,
    grace: Duration,
    limit: Option<Duration>,
) -> Phase {
    let interval = 1e9 / rate;
    let secs = seq.len() as f64 / rate;
    let t0 = Instant::now() + Duration::from_millis(5);
    let deadline = t0 + Duration::from_secs_f64(secs) + grace;
    // With updates and two or more connections, the first connection is
    // the writer's and carries every update; the others share the reads,
    // so a read never waits behind a commit on its own connection.
    let split = clients.len() > 1 && seq.iter().any(|r| matches!(r, Req::Update));
    let lanes: Vec<Vec<usize>> = if split {
        let (updates, reads) = (0..seq.len()).partition(|&i| matches!(seq[i], Req::Update));
        vec![updates, reads]
    } else {
        vec![(0..seq.len()).collect()]
    };
    let cursors: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let misses = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let ns_since = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;

    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let lane = usize::from(split && c > 0);
                let (order, next) = (&lanes[lane], &cursors[lane]);
                let (misses, abort) = (&misses, &abort);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(k) else { break };
                        let req = seq[i];
                        let sched_ns = (i as f64 * interval) as u64;
                        let sched = t0 + Duration::from_nanos(sched_ns);
                        let update = matches!(req, Req::Update);
                        if abort.load(Ordering::Relaxed) || Instant::now() > deadline {
                            out.push(Sample {
                                update,
                                sched_ns,
                                lag_ns: None,
                                latency_ns: 0,
                                done_ns: ns_since(deadline),
                                outcome: Outcome::Late,
                            });
                            continue;
                        }
                        wait_until(sched);
                        let sent = Instant::now();
                        let ok = match req {
                            Req::Read(q) => ctx.read(client, q).map(|_| ()),
                            Req::Update => ctx.update(client).map(|_| ()),
                        };
                        let done = Instant::now();
                        let outcome = match ok {
                            _ if done > deadline => Outcome::Late,
                            Ok(()) => Outcome::Ok,
                            Err(err) => {
                                ctx.error(format!("request failed: {err}"));
                                if !matches!(err, ClientError::Server { .. }) {
                                    if let Ok(fresh) = Client::connect(ctx.addr, "perfbench-re") {
                                        *client = fresh;
                                    }
                                }
                                Outcome::Failed
                            }
                        };
                        let latency = done.duration_since(sched);
                        if let Some(limit) = limit {
                            if (outcome != Outcome::Ok || latency > limit)
                                && (misses.fetch_add(1, Ordering::Relaxed) + 1) * 100 > seq.len()
                            {
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        out.push(Sample {
                            update,
                            sched_ns,
                            lag_ns: Some(ns_since(sent).saturating_sub(sched_ns)),
                            latency_ns: latency.as_nanos() as u64,
                            done_ns: ns_since(done),
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples: Vec<Sample> = per_thread.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.sched_ns);
    Phase {
        rate,
        secs,
        samples,
        aborted: abort.load(Ordering::Relaxed),
    }
}

/// Waits for `t` without sleeping: a sleeping client thread would add the
/// timer's and the host's wake-up delay to every send. Yielding lets the
/// server's threads run on this core meanwhile.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

impl Phase {
    fn ms(&self, update: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.update == update && s.outcome == Outcome::Ok)
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    }

    /// One line per request: schedule, send lag and latency in ns, kind
    /// and outcome.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("sched_ns\tlag_ns\tlatency_ns\tkind\toutcome\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{:?}\n",
                s.sched_ns,
                s.lag_ns.map_or(-1, |ns| ns as i64),
                s.latency_ns,
                if s.update { "update" } else { "read" },
                s.outcome
            ));
        }
        out
    }

    /// Latencies of successful reads, in ms.
    pub fn read_ms(&self) -> Vec<f64> {
        self.ms(false)
    }

    /// Latencies of successful updates (commits), in ms.
    pub fn commit_ms(&self) -> Vec<f64> {
        self.ms(true)
    }

    pub fn lag_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter_map(|s| s.lag_ns.map(|ns| ns as f64 / 1e6))
            .collect()
    }

    /// Failed, refused or late requests.
    pub fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome != Outcome::Ok)
            .count()
    }

    /// Requests completed in time, per second of the window.
    pub fn achieved_qps(&self) -> f64 {
        (self.samples.len() - self.failed()) as f64 / self.secs
    }

    /// The offered rate the reads of an overloaded phase sustained: the
    /// median over half-second slices of the window of replies per second,
    /// so one slow moment of the host does not decide it, scaled by the
    /// reads' share of the arrivals.
    pub fn read_capacity(&self) -> f64 {
        const SLICE_NS: u64 = 500_000_000;
        let slices = ((self.secs * 1e9) as u64 / SLICE_NS).max(1);
        let reads = self.samples.iter().filter(|s| !s.update);
        let share = reads.clone().count() as f64 / self.samples.len() as f64;
        let mut per_slice = vec![0.0; slices as usize];
        for s in reads.filter(|s| s.outcome == Outcome::Ok) {
            if let Some(count) = per_slice.get_mut((s.done_ns / SLICE_NS) as usize) {
                *count += 1.0;
            }
        }
        median(&per_slice) / (SLICE_NS as f64 / 1e9) / share
    }

    /// The offered rate the single writer can sustain, from this phase's
    /// commits: one over their median service time (send to reply), scaled
    /// by the updates' share of the arrivals. `None` without updates.
    pub fn writer_capacity(&self) -> Option<f64> {
        let service: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.update && s.outcome == Outcome::Ok)
            .filter_map(|s| s.lag_ns.map(|lag| (s.latency_ns - lag) as f64 / 1e9))
            .collect();
        if service.is_empty() {
            return None;
        }
        let share = service.len() as f64 / self.samples.len() as f64;
        Some(1.0 / median(&service) / share)
    }

    /// Median send lag of the last quarter of arrivals minus that of the
    /// first quarter, in ms; reads and updates are taken apart (they use
    /// different connections on mixed workloads) and the larger growth
    /// counts.
    pub fn lag_growth_ms(&self) -> f64 {
        let growth = |update: bool| {
            let lags: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| s.update == update)
                .map(|s| s.lag_ns.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
                .collect();
            let quarter = lags.len() / 4;
            if quarter == 0 {
                return 0.0;
            }
            let median_of = |part: &[f64]| percentile(&sorted(part.to_vec()), 0.5);
            median_of(&lags[lags.len() - quarter..]) - median_of(&lags[..quarter])
        };
        growth(false).max(growth(true))
    }

    /// Whether this phase meets the limit: no failed, refused or late
    /// request, read p99 under `limit`, and send lag not growing across
    /// the window (by more than 1 ms plus 2% of its length).
    pub fn meets(&self, limit: Duration) -> bool {
        let reads = sorted(self.read_ms());
        !self.aborted
            && self.failed() == 0
            && !reads.is_empty()
            && percentile(&reads, 0.99) < limit.as_secs_f64() * 1e3
            && self.lag_growth_ms() <= 1.0 + 0.02 * self.secs * 1e3
    }
}

/// One step of the rate search, for the log.
pub struct Step {
    pub offered: f64,
    pub achieved: f64,
    pub passed: bool,
}

/// Finds the highest offered rate that meets the workload's limit. An
/// overloaded probe of two steps' length measures the reads' throughput,
/// the nominal phase's commits the writer's; the lower is `c`. The search
/// then steps down from `0.9 c` by `0.1 c` to the first passing rate and
/// bisects (geometrically) between the highest passing rate and the lowest
/// failing one until they are within 6% or `budget` is spent. Returns the
/// achieved rate of the highest passing step.
pub fn max_qps(
    ctx: &Ctx,
    clients: &mut [Client],
    spec: &Spec,
    nominal: &Phase,
    seed: u64,
    step_secs: f64,
    budget: Duration,
) -> (f64, Vec<Step>) {
    let started = Instant::now();
    let mut steps = Vec::new();
    let mut phase_seed = seed;
    let mut run = |clients: &mut [Client], rate: f64, limit: Option<Duration>, secs: f64| {
        phase_seed = phase_seed.wrapping_add(1);
        let seq = sequence(spec, ctx.queries.len(), (rate * secs) as usize, phase_seed);
        let grace = limit.unwrap_or(Duration::ZERO);
        let phase = run_phase(ctx, clients, &seq, rate, grace, limit);
        std::thread::sleep(Duration::from_millis(50));
        phase
    };

    let probe = run(clients, spec.nominal_qps * 40.0, None, 2.0 * step_secs);
    // The writer's rate comes from the nominal phase: in the probe its
    // commits compete with overloaded reads and run slower than they do
    // at any rate the search will pass.
    let capacity = probe
        .read_capacity()
        .min(nominal.writer_capacity().unwrap_or(f64::INFINITY));
    steps.push(Step {
        offered: probe.rate,
        achieved: capacity,
        passed: false,
    });

    let (mut lo, mut best) = if nominal.meets(spec.limit) {
        (spec.nominal_qps, nominal.achieved_qps())
    } else {
        (0.0, 0.0)
    };
    let mut hi = capacity * 1.05;
    // A rate fails only when two attempts at it miss, so one burst of
    // outside noise does not end the search low.
    let mut step = |clients: &mut [Client], rate: f64, steps: &mut Vec<Step>| {
        for _ in 0..2 {
            let phase = run(clients, rate, Some(spec.limit), step_secs);
            let passed = phase.meets(spec.limit);
            steps.push(Step {
                offered: rate,
                achieved: phase.achieved_qps(),
                passed,
            });
            if passed {
                return (true, phase.achieved_qps());
            }
        }
        (false, 0.0)
    };
    // Descend from 0.9 c in steps of 0.1 c to the first passing rate ...
    let mut rate = 0.9 * capacity;
    while rate > lo && started.elapsed() < budget {
        let (passed, achieved) = step(clients, rate, &mut steps);
        if passed {
            (lo, best) = (rate, achieved);
            break;
        }
        hi = rate;
        rate -= 0.1 * capacity;
    }
    // ... then bisect between it and the lowest failing rate. The first
    // upper end is only assumed to fail; it is tried before the search
    // ends there, and raised when it passes.
    let mut hi_failed = hi < capacity;
    while lo > 0.0 && started.elapsed() < budget {
        let rate = if hi / lo > 1.06 {
            (lo * hi).sqrt()
        } else if !hi_failed {
            hi
        } else {
            break;
        };
        let (passed, achieved) = step(clients, rate, &mut steps);
        if passed {
            (lo, best) = (rate, achieved);
            if rate >= hi {
                hi = rate * 1.25;
            }
        } else {
            hi = rate;
            hi_failed = true;
        }
    }
    (best, steps)
}
