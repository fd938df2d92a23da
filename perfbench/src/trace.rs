//! The traced run: each request of a workload's sequence is sent once as
//! an unloaded client round trip, then the same work is replayed through
//! the layers' public functions on the same served snapshot, one span per
//! call. Per-layer self times come from these spans.

use crate::load::{Ctx, Req};
use crate::stats::Metrics;
use bgpq_access::{apply_deltas, GraphDelta};
use bgpq_core::{fetch_candidate_sets, plan_for_indices, LookupMemo, Semantics};
use bgpq_engine::{QueryAnswer, QueryRequest, QueryResponse};
use bgpq_graph::{FragmentView, GraphAccess, NodeId, ScratchArena};
use bgpq_matching::{MatchSet, SubgraphMatcher};
use bgpq_net::{
    AnswerHeader, AnswerKind, Client, DoneFrame, MatchBinding, NetServerConfig, QuerySpec, Request,
    Response, WireStats,
};
use bgpq_pattern::{parse_pattern, Pattern};
use bgpq_serve::{Server, Snapshot, Update, WorkerPool};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

pub struct Span {
    pub request: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, request: u32, parent: Option<u32>, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    pub fn span<T>(
        &mut self,
        request: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(request, Some(parent), name);
        let out = f();
        (out, self.close(id))
    }

    /// Each span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0;
                let mut reach = s.start_ns;
                let mut kids = children.get(&s.id).cloned().unwrap_or_default();
                kids.sort_unstable();
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.request, s.id, parent, s.name, s.start_ns, s.end_ns, own
            )?;
        }
        Ok(())
    }
}

/// Per-request values that are not span durations.
#[derive(Default)]
pub struct Derived {
    /// Round trip minus every attributed layer self time, in ns (signed).
    pub unattributed_ns: Vec<f64>,
    pub pool_wait_ns: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    pub reply_frames: Vec<f64>,
    pub index_lookups: Vec<f64>,
    pub fragment_nodes: Vec<f64>,
    pub fragment_edges: Vec<f64>,
    pub fetch_utilization: Vec<f64>,
    pub steps: Vec<f64>,
    pub rows: Vec<f64>,
    pub touched: Vec<f64>,
    pub refreshed: Vec<f64>,
    pub fragment_hits: u64,
    pub plan_hits: u64,
    pub reads: u64,
    /// Sum over reads of each attributed step and of the rest, in ns: they
    /// add up to `round_trip_sum`.
    pub breakdown: BTreeMap<&'static str, f64>,
    pub round_trip_sum: f64,
}

impl Derived {
    /// Mean per read of each step of the round trip, in us, and its share.
    pub fn breakdown_table(&self) -> String {
        let reads = self.reads.max(1) as f64;
        let mut out = format!(
            "mean client round trip {:.1} us over {} reads, as the sum of:\n",
            self.round_trip_sum / reads / 1e3,
            self.reads
        );
        for (name, ns) in &self.breakdown {
            out.push_str(&format!(
                "  {name:<22} {:>10.1} us {:>6.1}%\n",
                ns / reads / 1e3,
                100.0 * ns / self.round_trip_sum.max(1.0)
            ));
        }
        out
    }
}

pub struct Replay<'a> {
    ctx: &'a Ctx<'a>,
    server: &'a Arc<Server>,
    pool: WorkerPool,
    tracer: Tracer,
    derived: Derived,
    arena: ScratchArena,
    rows_per_frame: usize,
    next_request: u32,
}

impl<'a> Replay<'a> {
    pub fn new(ctx: &'a Ctx<'a>, server: &'a Arc<Server>) -> Self {
        Replay {
            ctx,
            server,
            pool: WorkerPool::new(Arc::clone(server), 1),
            tracer: Tracer::new(),
            derived: Derived::default(),
            arena: ScratchArena::new(),
            rows_per_frame: NetServerConfig::default().rows_per_frame.max(1),
            next_request: 0,
        }
    }

    pub fn run(&mut self, client: &mut Client, req: Req) {
        let request = self.next_request;
        self.next_request += 1;
        let root = self.tracer.open(request, None, "request");
        match req {
            Req::Read(q) => self.read(client, request, root, q),
            Req::Update => self.update(client, request, root),
        }
        self.tracer.close(root);
    }

    fn read(&mut self, client: &mut Client, request: u32, root: u32, q: usize) {
        let ctx = self.ctx;
        let text = ctx.queries[q].as_str();
        let spec = QuerySpec::new(text);
        let snap = self.server.snapshot();
        let before = snap.engine().stats();
        let bytes_before = client.bytes_in();
        let (reply, rt) = self
            .tracer
            .span(request, root, "net.round_trip", || client.query(&spec));
        let reply = match reply {
            Ok(reply) => reply,
            Err(err) => return ctx.error(format!("traced query {q} failed: {err}")),
        };
        ctx.check_reply(q, &reply);
        if reply.header.snapshot_version != snap.version() {
            return ctx.error(format!("traced query {q} answered on another version"));
        }
        let after = snap.engine().stats();
        let fragment_hit = after.fragment_cache_hits > before.fragment_cache_hits;
        let plan_hit = after.plan_cache_hits > before.plan_cache_hits;
        let d = &mut self.derived;
        d.reads += 1;
        d.fragment_hits += fragment_hit as u64;
        d.plan_hits += plan_hit as u64;
        d.reply_bytes
            .push((client.bytes_in() - bytes_before) as f64);

        let t = &mut self.tracer;
        let payload = Request::Query(spec.clone())
            .encode()
            .expect("query specs encode");
        let (decoded, request_decode) = t.span(request, root, "net.request_decode", || {
            Request::decode(&payload)
        });
        if decoded != Ok(Request::Query(spec)) {
            ctx.error(format!("query {q}: request does not round-trip"));
        }
        let graph = snap.graph();
        let indices = snap.indices();
        let (pattern, parse) = t.span(request, root, "pattern.parse", || {
            parse_pattern(text, graph.interner().clone())
        });
        let pattern = pattern.expect("generated queries parse");
        let (plan, plan_ns) = t.span(request, root, "core.plan", || {
            plan_for_indices(&pattern, indices, Semantics::Isomorphism)
        });
        let Ok(plan) = plan else {
            return ctx.error(format!("query {q} is not bounded on the served indices"));
        };
        let (fetched, fetch_ns) = t.span(request, root, "core.fetch", || {
            fetch_candidate_sets(&plan, &pattern, graph, indices, &mut LookupMemo::new())
        });
        let arena = &mut self.arena;
        let ((matches, vf2, nodes, edges), view_ns, match_ns) = {
            let id = t.open(request, Some(root), "graph.view_build");
            let view = FragmentView::induced(graph, &fetched.all_nodes, arena);
            let view_ns = t.close(id);
            let (nodes, edges) = (view.node_count(), view.edge_count());
            let ((matches, vf2), match_ns) = t.span(request, root, "matching.match", || {
                SubgraphMatcher::new(&pattern, &view)
                    .with_candidates(fetched.candidates.clone())
                    .run()
            });
            ((matches, vf2, nodes, edges), view_ns, match_ns)
        };
        let d = &mut self.derived;
        d.index_lookups.push(fetched.stats.index_lookups as f64);
        d.fragment_nodes.push(nodes as f64);
        d.fragment_edges.push(edges as f64);
        d.fetch_utilization
            .push(nodes as f64 / plan.worst_case_nodes().max(1) as f64);
        d.steps.push(vf2.steps as f64);
        d.rows.push(matches.len() as f64);

        let engine_request = QueryRequest::build(pattern.clone()).finish();
        let (response, _) = t.span(request, root, "engine.execute", || {
            snap.execute(&engine_request)
        });
        let response = response.expect("bounded query executes");
        match response.answer.as_matches() {
            Some(answer) if *answer == matches && same_rows(answer, &reply.matches) => {}
            _ => ctx.error(format!(
                "query {q}: plan-fetch-view-match, Engine::execute and the TCP answer differ"
            )),
        }
        let (pooled, submit_ns) = t.span(request, root, "serve.submit_pinned", || {
            self.pool
                .submit_pinned(Arc::clone(&snap), engine_request)
                .recv()
        });
        let pool_wait = match pooled {
            Ok(Ok(pooled)) => submit_ns as f64 - pooled.stats.total_nanos as f64,
            _ => {
                ctx.error(format!("query {q}: worker pool failed"));
                0.0
            }
        };
        let rows_per_frame = self.rows_per_frame;
        let (frames, render) = t.span(request, root, "net.render", || {
            render(&response, &pattern, &snap, rows_per_frame)
        });
        let (payloads, encode) = t.span(request, root, "net.response_encode", || {
            frames.iter().map(Response::encode).collect::<Vec<_>>()
        });
        let (decoded, decode) = t.span(request, root, "net.response_decode", || {
            payloads
                .iter()
                .map(|p| Response::decode(p))
                .collect::<Vec<_>>()
        });
        if decoded
            .iter()
            .zip(&frames)
            .any(|(d, f)| d.as_ref() != Ok(f))
        {
            ctx.error(format!("query {q}: reply frames do not round-trip"));
        }

        // The round trip is made of these steps plus whatever none of them
        // covers (sockets, thread hand-offs, client bookkeeping). Plan and
        // fetch count only when the served request missed the engine's
        // caches; on a hit it skipped them.
        let parts = [
            ("net.request_decode", request_decode as f64),
            ("pattern.parse", parse as f64),
            ("serve.pool_wait", pool_wait),
            ("core.plan", if plan_hit { 0.0 } else { plan_ns as f64 }),
            (
                "core.fetch",
                if fragment_hit { 0.0 } else { fetch_ns as f64 },
            ),
            ("graph.view_build", view_ns as f64),
            ("matching.match", match_ns as f64),
            ("net.render", render as f64),
            ("net.response_encode", encode as f64),
            ("net.response_decode", decode as f64),
        ];
        let unattributed = rt as f64 - parts.iter().map(|(_, ns)| ns).sum::<f64>();
        let d = &mut self.derived;
        for (name, ns) in parts {
            *d.breakdown.entry(name).or_default() += ns;
        }
        *d.breakdown.entry("net.unattributed").or_default() += unattributed;
        d.round_trip_sum += rt as f64;
        d.pool_wait_ns.push(pool_wait);
        d.reply_frames.push(frames.len() as f64);
        d.unattributed_ns.push(unattributed);
    }

    fn update(&mut self, client: &mut Client, request: u32, root: u32) {
        let ctx = self.ctx;
        let t = &mut self.tracer;
        let old = self.server.snapshot();
        let (batch, _) = t.span(request, root, "net.commit_round_trip", || {
            ctx.update(client)
        });
        let batch = match batch {
            Ok(batch) => batch,
            Err(err) => return ctx.error(format!("traced update failed: {err}")),
        };
        // The retired snapshot's last reference is ours.
        t.span(request, root, "serve.snapshot_drop", || drop(old));

        let old = self.server.snapshot();
        {
            let mut w = ctx.writer.lock().expect("writer poisoned");
            let direct = w.next_batch();
            let (receipt, _) = t.span(request, root, "serve.commit", || {
                self.server.commit(&direct)
            });
            match receipt {
                Ok(r) if r.version == w.version + 1 && r.new_nodes == [NodeId(w.next_id)] => {
                    w.version = r.version;
                    w.next_id += 1;
                    w.added += 1;
                }
                other => ctx.error(format!("direct commit: unexpected receipt {other:?}")),
            }
        }
        t.span(request, root, "serve.snapshot_drop", || drop(old));

        let current = self.server.snapshot();
        let ((mut graph, mut indices), _) = t.span(request, root, "serve.snapshot_clone", || {
            (current.graph().clone(), current.indices().clone())
        });
        let deltas = apply_post(&mut graph, &batch);
        let (maintenance, _) = t.span(request, root, "access.maintain", || {
            apply_deltas(&mut indices, &graph, &deltas)
        });
        self.derived.touched.push(maintenance.touched_nodes as f64);
        self.derived
            .refreshed
            .push(maintenance.refreshed_contributions as f64);
    }

    pub fn finish(self) -> (Tracer, Derived) {
        self.pool.shutdown();
        (self.tracer, self.derived)
    }
}

/// Applies a post batch (a node plus its two edges) to a private copy of
/// the graph and returns the deltas index maintenance needs.
fn apply_post(graph: &mut bgpq_graph::Graph, batch: &[Update]) -> Vec<GraphDelta> {
    let mut deltas = Vec::new();
    let mut post = None;
    let mut planned = NodeId(u32::MAX);
    for update in batch {
        match update {
            Update::AddNode { label, value } => {
                planned = NodeId(graph.node_count() as u32);
                let id = graph.insert_node(label, value.clone());
                post = Some(id);
                deltas.push(GraphDelta::InsertNode(id));
            }
            Update::AddEdge { src, dst } => {
                // Batches name their new post by the id it got when served;
                // here it gets the next id of this copy.
                let fix = |v: NodeId| {
                    if v.0 >= planned.0 {
                        post.unwrap_or(v)
                    } else {
                        v
                    }
                };
                let (src, dst) = (fix(*src), fix(*dst));
                if graph.insert_edge(src, dst).expect("endpoints exist") {
                    deltas.push(GraphDelta::InsertEdge(src, dst));
                }
            }
            _ => {}
        }
    }
    deltas
}

pub fn same_rows(answer: &MatchSet, rows: &[Vec<MatchBinding>]) -> bool {
    answer.len() == rows.len()
        && answer.iter().zip(rows).all(|(m, row)| {
            m.assignment().len() == row.len()
                && m.assignment().iter().zip(row).all(|(v, b)| v.0 == b.id)
        })
}

/// The reply frames the server streams for an isomorphism answer.
fn render(
    response: &QueryResponse,
    pattern: &Pattern,
    snapshot: &Snapshot,
    rows_per_frame: usize,
) -> Vec<Response> {
    let graph = snapshot.graph();
    let QueryAnswer::Matches(matches) = &response.answer else {
        return Vec::new();
    };
    let mut frames = vec![Response::Answer(AnswerHeader {
        kind: AnswerKind::Matches,
        strategy: response.strategy.to_string(),
        snapshot_version: response.stats.snapshot_version,
        total: matches.len() as u64,
    })];
    let rows: Vec<Vec<MatchBinding>> = matches
        .iter()
        .map(|m| {
            pattern
                .nodes()
                .map(|u| {
                    let v = m.node_for(u);
                    MatchBinding {
                        node: pattern
                            .node_name(u)
                            .map_or_else(|| u.to_string(), str::to_string),
                        id: v.0,
                        label: graph.label_name(v),
                        value: graph.value(v).to_string(),
                    }
                })
                .collect()
        })
        .collect();
    for chunk in rows.chunks(rows_per_frame) {
        frames.push(Response::MatchRows(chunk.to_vec()));
    }
    let stats = &response.stats;
    frames.push(Response::Done(DoneFrame {
        aborted: stats.aborted,
        stats: WireStats {
            plan_nanos: stats.plan_nanos,
            fragment_build_nanos: stats.fragment_build_nanos,
            match_nanos: stats.match_nanos,
            total_nanos: stats.total_nanos,
            fragment_nodes: stats.fetch.as_ref().map(|f| f.fragment_nodes as u64),
            worst_case_nodes: stats.worst_case_nodes,
        },
        explain: None,
    }));
    frames
}

/// Adds the traced run's per-layer metrics: query-level timings with
/// their p99, commit-level ones with their p75 (a run holds 40 commits).
pub fn layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    d: &Derived,
    untraced_us: &[f64],
) -> Result<(), String> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, own) in tracer.spans.iter().zip(tracer.self_times()) {
        by_name.entry(s.name).or_default().push(own as f64);
    }
    let span = |name: &str, ns_per_unit: f64| -> Vec<f64> {
        by_name
            .get(name)
            .map(|v| v.iter().map(|ns| ns / ns_per_unit).collect())
            .unwrap_or_default()
    };
    let us = |name: &str| span(name, 1e3);
    let ms = |name: &str| span(name, 1e6);
    let in_us = |v: &[f64]| v.iter().map(|ns| ns / 1e3).collect::<Vec<_>>();

    let round_trip = us("net.round_trip");
    m.timing("net.round_trip_us", &round_trip, 99, "us")?;
    m.timing("net.request_decode_us", &us("net.request_decode"), 99, "us")?;
    m.timing("net.render_us", &us("net.render"), 99, "us")?;
    m.timing(
        "net.response_encode_us",
        &us("net.response_encode"),
        99,
        "us",
    )?;
    m.timing(
        "net.response_decode_us",
        &us("net.response_decode"),
        99,
        "us",
    )?;
    m.timing("net.unattributed_us", &in_us(&d.unattributed_ns), 99, "us")?;
    m.counts("net.reply_bytes", &d.reply_bytes, 99, "B")?;
    m.counts("net.reply_frames", &d.reply_frames, 99, "count")?;
    m.timing("pattern.parse_us", &us("pattern.parse"), 99, "us")?;
    m.timing("serve.pool_wait_us", &in_us(&d.pool_wait_ns), 99, "us")?;
    m.timing("engine.execute_us", &us("engine.execute"), 99, "us")?;
    let reads = d.reads.max(1) as f64;
    m.push(
        "engine.fragment_cache_hit_ratio",
        d.fragment_hits as f64 / reads,
        "ratio",
    );
    m.push(
        "engine.plan_cache_hit_ratio",
        d.plan_hits as f64 / reads,
        "ratio",
    );
    m.timing("core.plan_us", &us("core.plan"), 99, "us")?;
    m.timing("core.fetch_us", &us("core.fetch"), 99, "us")?;
    m.counts("core.index_lookups", &d.index_lookups, 99, "count")?;
    m.counts("core.fragment_nodes", &d.fragment_nodes, 99, "count")?;
    m.counts("core.fetch_utilization", &d.fetch_utilization, 99, "ratio")?;
    m.timing("graph.view_build_us", &us("graph.view_build"), 99, "us")?;
    m.counts("graph.fragment_edges", &d.fragment_edges, 99, "count")?;
    m.timing("matching.match_us", &us("matching.match"), 99, "us")?;
    m.counts("matching.steps", &d.steps, 99, "count")?;
    m.counts("matching.rows", &d.rows, 99, "count")?;

    m.timing(
        "net.commit_round_trip_ms",
        &ms("net.commit_round_trip"),
        75,
        "ms",
    )?;
    m.timing("serve.commit_ms", &ms("serve.commit"), 75, "ms")?;
    m.timing(
        "serve.snapshot_clone_ms",
        &ms("serve.snapshot_clone"),
        75,
        "ms",
    )?;
    m.timing(
        "serve.snapshot_drop_ms",
        &ms("serve.snapshot_drop"),
        75,
        "ms",
    )?;
    m.timing("access.maintain_us", &us("access.maintain"), 75, "us")?;
    m.counts("access.touched_nodes", &d.touched, 75, "count")?;
    m.counts("access.refreshed_contributions", &d.refreshed, 75, "count")?;

    // The same reads, traced and then untraced, both unloaded.
    let traced = &round_trip[..untraced_us.len().min(round_trip.len())];
    m.push(
        "trace.overhead_us",
        crate::stats::median(traced) - crate::stats::median(untraced_us),
        "us",
    );
    Ok(())
}
