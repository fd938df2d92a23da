//! Workload definitions, input generation and the timed server set-up.

use bgpq_access::{discover_schema, AccessIndexSet, DiscoveryConfig};
use bgpq_core::Semantics;
use bgpq_graph::{NodeId, Value};
use bgpq_net::{NetServer, NetServerConfig, NetServerHandle};
use bgpq_pattern::DetRng;
use bgpq_serve::{Server, Update};
use bgpq_workload::{
    generate_with, generate_workload, GraphSink, Record, Scenario, ScenarioConfig, WorkloadConfig,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload. The values are fixed here and recorded in
/// `BENCHMARK.json`; only the seed varies between runs.
pub struct Spec {
    pub name: &'static str,
    /// Scale of the skewed social scenario (users; `|V|` is about 3x).
    pub scale: usize,
    /// Distinct bounded queries requests draw from.
    pub queries: usize,
    /// Root-predicate selectivity of the generated queries.
    pub selectivity: f64,
    /// Offered rate of the nominal phase.
    pub nominal_qps: f64,
    /// Limit on read p99 that `max_qps` must meet.
    pub limit: Duration,
    /// Every `n`-th arrival is an update, for mixed workloads.
    pub update_every: Option<u64>,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "wide-answers",
        scale: 10_000,
        queries: 120,
        selectivity: 0.5,
        nominal_qps: 50.0,
        limit: Duration::from_millis(100),
        update_every: None,
    },
    Spec {
        name: "big-read",
        scale: 100_000,
        queries: 1024,
        selectivity: 0.01,
        nominal_qps: 200.0,
        limit: Duration::from_millis(50),
        update_every: None,
    },
    Spec {
        name: "big-mixed",
        scale: 100_000,
        queries: 1024,
        selectivity: 0.01,
        nominal_qps: 200.0,
        limit: Duration::from_millis(1000),
        update_every: Some(100),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the graph: one fixed graph per scale, as in the engine bench's
/// `fragment_scaling` sweep.
pub const GRAPH_SEED: u64 = 7;

/// Seed of the query set. Fixed like the graph: with one set per workload,
/// runs differ only in the traffic the run's seed draws (the request
/// sequence and the update batches), not in which answers are asked for.
pub const QUERY_SEED: u64 = 0x1CDE_2015;

/// The `fragment_scaling` recipe: zipf 1.1, hot fraction 0.5, domain 50.
pub fn scenario(spec: &Spec) -> ScenarioConfig {
    ScenarioConfig {
        zipf: Some(1.1),
        hot_fraction: Some(0.5),
        domain: Some(50),
        ..ScenarioConfig::new(spec.scale, GRAPH_SEED)
    }
}

pub fn records(spec: &Spec) -> Vec<Record> {
    let mut out = Vec::new();
    stream(spec, |r| out.push(r));
    out
}

pub fn stream(spec: &Spec, emit: impl FnMut(Record)) {
    generate_with(Scenario::Social, &scenario(spec), emit);
}

/// Wall time of each set-up step, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub graph_build: f64,
    pub discover: f64,
    pub index_build: f64,
    pub server_start: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.graph_build + self.discover + self.index_build + self.server_start
    }
}

pub struct Served {
    pub server: Arc<Server>,
    pub handle: NetServerHandle,
    pub index_entries: usize,
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything between receiving the records and serving the first query:
/// graph build, schema discovery, index build and server start.
/// `feed` pushes the records into the graph sink.
pub fn serve(feed: impl FnOnce(&mut GraphSink)) -> std::io::Result<(Served, SetupTimes)> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mut sink = GraphSink::new();
    feed(&mut sink);
    let graph = sink.finish();
    times.graph_build = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let schema = discover_schema(&graph, &DiscoveryConfig::simple());
    times.discover = t.elapsed().as_secs_f64();

    // Uncapped: the engine's planner skips truncated indices, which would
    // refuse generator-certified bounded queries.
    let t = Instant::now();
    let indices = AccessIndexSet::build_with_cap(&graph, &schema, usize::MAX);
    times.index_build = t.elapsed().as_secs_f64();
    let index_entries = indices.total_size();

    let t = Instant::now();
    let server = Arc::new(Server::with_indices(graph, indices));
    let handle = NetServer::start(
        Arc::clone(&server),
        NetServerConfig {
            workers: workers(),
            ..NetServerConfig::default()
        },
    )?;
    times.server_start = t.elapsed().as_secs_f64();
    Ok((
        Served {
            server,
            handle,
            index_entries,
        },
        times,
    ))
}

/// The workload's distinct query texts, generated from the served graph
/// and its discovered schema: certified bounded isomorphism queries of 3-5
/// nodes, shapes chain/star/cycle/tree weighted 2/1/0/1.
pub fn queries(spec: &Spec, server: &Server) -> Result<Vec<String>, String> {
    let snapshot = server.snapshot();
    let mut distinct = BTreeSet::new();
    let mut texts = Vec::with_capacity(spec.queries);
    for round in 0..8u64 {
        let config = WorkloadConfig {
            queries: spec.queries,
            seed: QUERY_SEED + round,
            bounded_fraction: 1.0,
            selectivity: Some(spec.selectivity),
            min_nodes: 3,
            max_nodes: 5,
            semantics: Semantics::Isomorphism,
            shape_weights: [2, 1, 0, 1],
        };
        let workload = generate_workload(snapshot.graph(), snapshot.indices().schema(), &config)
            .map_err(|e| format!("query generation failed: {e:?}"))?;
        for q in workload.queries {
            if texts.len() < spec.queries && distinct.insert(q.text.clone()) {
                texts.push(q.text);
            }
        }
        if texts.len() == spec.queries {
            return Ok(texts);
        }
    }
    Err(format!(
        "only {} distinct queries of {} generated",
        texts.len(),
        spec.queries
    ))
}

/// Source of the update batches: each adds a `post` attached to an
/// existing user and tag, like the `fragment_scaling` maintenance batches.
pub struct PostMaker {
    users: Vec<NodeId>,
    tags: Vec<NodeId>,
    rng: DetRng,
    next_value: i64,
}

impl PostMaker {
    pub fn new(server: &Server, seed: u64, scale: usize) -> Self {
        let snapshot = server.snapshot();
        let graph = snapshot.graph();
        let label = |name: &str| {
            let l = graph.interner().get(name).expect("social label exists");
            graph.nodes_with_label(l).to_vec()
        };
        PostMaker {
            users: label("user"),
            tags: label("tag"),
            rng: DetRng::seed_from_u64(seed ^ 0x5EED_0F90_5700),
            next_value: scale as i64,
        }
    }

    /// The next batch, given the id its new post will receive.
    pub fn batch(&mut self, post: NodeId) -> Vec<Update> {
        let user = self.users[self.rng.random_range(0..self.users.len())];
        let tag = self.tags[self.rng.random_range(0..self.tags.len())];
        self.next_value += 1;
        vec![
            Update::AddNode {
                label: "post".into(),
                value: Value::Int(self.next_value),
            },
            Update::AddEdge {
                src: user,
                dst: post,
            },
            Update::AddEdge {
                src: post,
                dst: tag,
            },
        ]
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
