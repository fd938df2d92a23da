//! One benchmark for the bgpq serving stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload big-read --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Per workload it generates a skewed social graph and a set of bounded
//! queries (both fixed per workload) and the request traffic from the seed, serves the graph in-process over TCP
//! (`NetServer`, one worker per core) and drives it open-loop from at most
//! one client connection per core. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it replays the request sequence
//! once per request through each layer's public functions and prints
//! per-layer self times. Spans and metrics are also written under
//! `.bench_out/`. The last line of standard output is one JSON object;
//! the exit code is non-zero when an output check fails.

mod load;
mod setup;
mod stats;
mod trace;

use bgpq_engine::QueryRequest;
use bgpq_net::Client;
use bgpq_pattern::parse_pattern;
use load::{Ctx, Phase, Req};
use setup::{PostMaker, Spec};
use stats::{median, percentile, sorted, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repeats per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Commits behind each run's commit metrics (p75 then has 10 beyond it).
const COMMITS: usize = 40;
/// Pause after each commit of a read-only workload's commit phase.
const COMMIT_PAUSE: Duration = Duration::from_millis(50);
/// Reads replayed untraced to measure the tracing overhead.
const OVERHEAD_READS: usize = 1000;
/// Length of one rate-search step.
const STEP_SECS: f64 = 1.5;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut rss_probe) =
        (None, None, 30.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(setup::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--rss-probe" => rss_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        rss_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        return match rss_probe(args.workload, args.seed) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench rss probe: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run(&args) {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("perfbench: CHECK FAILED: {e}");
            }
            for m in &outcome.metrics.0 {
                eprintln!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
            }
            let correct = outcome.errors.is_empty();
            let line = outcome
                .metrics
                .result_line(correct, outcome.attempted, outcome.failed);
            write_output(&args, "metrics.json", &line);
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Writes one output file under `.bench_out/`; a failure is reported, not
/// fatal.
fn write_output(args: &Args, suffix: &str, body: &str) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{suffix}",
        args.workload.name, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Milliseconds a fixed CPU loop takes: how fast the host ran this run.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..50_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn run(args: &Args) -> Result<Outcome, String> {
    eprintln!("perfbench: calibration {:.1} ms", calibrate());
    let spec = args.workload;
    let seed = args.seed;
    let peak_rss = if args.trace {
        None
    } else {
        Some(rss_in_child(spec, seed)?)
    };

    let mut rounds = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(old) = served.take() {
            let setup::Served { handle, .. } = old;
            handle.shutdown();
        }
        let records = setup::records(spec);
        let (s, times) = setup::serve(|sink| records.into_iter().for_each(|r| sink.push(r)))
            .map_err(|e| format!("server start: {e}"))?;
        rounds.push(times);
        served = Some(s);
    }
    let served = served.expect("at least one set-up round");
    let server = std::sync::Arc::clone(&served.server);
    let addr = served.handle.local_addr();
    let queries = setup::queries(spec, &server)?;
    let initial_nodes = server.snapshot().graph().node_count();
    let connections = setup::workers();
    eprintln!(
        "perfbench: {} seed {seed}: |V| {} |E| {}, {} distinct queries, {connections} connections, {} workers",
        spec.name,
        server.snapshot().graph().live_node_count(),
        server.snapshot().graph().edge_count(),
        queries.len(),
        setup::workers()
    );

    let posts = PostMaker::new(&server, seed, spec.scale);
    let mut ctx = Ctx::new(addr, &queries, &server, posts);
    let mut clients = load::connect(addr, connections).map_err(|e| format!("connect: {e}"))?;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Each distinct query once before timing: fills the caches and checks
    // every TCP answer against `Snapshot::execute` on the same version.
    let mut totals = Vec::with_capacity(queries.len());
    let mut rows = Vec::with_capacity(queries.len());
    for (q, text) in queries.iter().enumerate() {
        attempted += 1;
        let reply = match ctx.read(&mut clients[0], q) {
            Ok(reply) => reply,
            Err(e) => {
                failed += 1;
                ctx.error(format!("warm-up query {q}: {e}"));
                totals.push(0);
                continue;
            }
        };
        let snapshot = server.snapshot();
        let pattern = parse_pattern(text, snapshot.graph().interner().clone())
            .map_err(|e| format!("query {q} does not parse: {e}"))?;
        let local = snapshot.execute(&QueryRequest::build(pattern).finish());
        let same = snapshot.version() == reply.header.snapshot_version
            && local
                .as_ref()
                .ok()
                .and_then(|r| r.answer.as_matches())
                .is_some_and(|m| trace::same_rows(m, &reply.matches));
        if !same {
            ctx.error(format!(
                "query {q}: TCP answer differs from Snapshot::execute"
            ));
        }
        totals.push(reply.header.total);
        rows.push(reply.header.total as f64);
    }
    if spec.update_every.is_none() {
        ctx.expected = Some(totals);
    }

    let nominal_secs = args.seconds * 2.0 / 3.0;
    let seq = load::sequence(
        spec,
        queries.len(),
        (spec.nominal_qps * nominal_secs) as usize,
        seed ^ 0xA11CE,
    );
    let nominal = load::run_phase(&ctx, &mut clients, &seq, spec.nominal_qps, spec.limit, None);
    attempted += nominal.samples.len() as u64;
    failed += nominal.failed() as u64;
    write_output(args, "nominal.tsv", &nominal.to_tsv());
    let reads = sorted(nominal.read_ms());
    if reads.is_empty() {
        return Err("no read completed in the nominal phase".into());
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let mut replay = trace::Replay::new(&ctx, &server);
        for &req in &seq {
            replay.run(&mut clients[0], req);
        }
        // Tracing overhead: the first reads of the sequence once more,
        // untraced, against their traced round trips (before any commit
        // of a read-only workload changes the answers).
        let mut untraced = Vec::new();
        for &req in seq.iter().take(OVERHEAD_READS) {
            if let Req::Read(q) = req {
                attempted += 1;
                let t = Instant::now();
                match ctx.read(&mut clients[0], q) {
                    Ok(_) => untraced.push(t.elapsed().as_secs_f64() * 1e6),
                    Err(e) => {
                        failed += 1;
                        ctx.error(format!("untraced query {q}: {e}"));
                    }
                }
            }
        }
        if spec.update_every.is_none() {
            for _ in 0..COMMITS {
                replay.run(&mut clients[0], Req::Update);
            }
        }
        let (tracer, derived) = replay.finish();
        attempted += tracer.spans.iter().filter(|s| s.parent.is_none()).count() as u64;
        trace::layer_metrics(&mut metrics, &tracer, &derived, &untraced)?;
        eprint!("{}", derived.breakdown_table());
        write_output(args, "breakdown.txt", &derived.breakdown_table());
        metrics.timing("workload.send_lag_ms", &nominal.lag_ms(), 99, "ms")?;
        metrics.timing("workload.read_latency_ms", &reads, 99, "ms")?;
        let med =
            |f: fn(&setup::SetupTimes) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        metrics.push("graph.build_s", med(|t| t.graph_build), "s");
        metrics.push("access.discover_s", med(|t| t.discover), "s");
        metrics.push("access.index_build_s", med(|t| t.index_build), "s");
        metrics.push("access.index_entries", served.index_entries as f64, "count");
        let mut spans = Vec::new();
        tracer
            .write_spans(&mut spans)
            .map_err(|e| format!("spans: {e}"))?;
        write_output(args, "spans.jsonl", &String::from_utf8_lossy(&spans));
    } else {
        let budget = Duration::from_secs_f64(args.seconds - nominal_secs);
        let (max_qps, steps) = load::max_qps(
            &ctx,
            &mut clients,
            spec,
            &nominal,
            seed ^ 0x5EA2C4,
            STEP_SECS,
            budget,
        );
        for s in &steps {
            eprintln!(
                "perfbench: rate step offered {:.1}/s achieved {:.1}/s {}",
                s.offered,
                s.achieved,
                if s.passed {
                    "meets the limit"
                } else {
                    "misses"
                }
            );
        }
        let commits = if spec.update_every.is_some() {
            nominal.commit_ms()
        } else {
            // Paced, so the commits sample more than one moment of the host.
            let mut commits = Vec::with_capacity(COMMITS);
            for _ in 0..COMMITS {
                attempted += 1;
                let t = Instant::now();
                match ctx.update(&mut clients[0]) {
                    Ok(_) => commits.push(t.elapsed().as_secs_f64() * 1e3),
                    Err(e) => {
                        failed += 1;
                        ctx.error(format!("commit: {e}"));
                    }
                }
                std::thread::sleep(COMMIT_PAUSE);
            }
            commits
        };
        end_to_end(&mut metrics, &nominal, &reads, max_qps, &commits)?;
        metrics.push(
            "setup_s",
            median(&rounds.iter().map(|t| t.total()).collect::<Vec<_>>()),
            "s",
        );
        metrics.push("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB");
        rows.sort_by(|a, b| a.total_cmp(b));
        eprintln!(
            "perfbench: answer rows p50 {} max {}; reads {} commits {}",
            percentile(&rows, 0.5),
            rows.last().copied().unwrap_or(0.0),
            reads.len(),
            commits.len()
        );
    }

    // The writer's view must match the served graph: one version per
    // commit, one node per committed post.
    {
        let w = ctx.writer.lock().expect("writer poisoned");
        let snapshot = server.snapshot();
        if snapshot.version() != w.version
            || snapshot.graph().node_count() != initial_nodes + w.added as usize
        {
            ctx.error(format!(
                "served version {} with {} nodes; expected version {} with {}",
                snapshot.version(),
                snapshot.graph().node_count(),
                w.version,
                initial_nodes + w.added as usize
            ));
        }
    }
    for client in clients {
        let _ = client.goodbye();
    }
    drop(server);
    served.handle.shutdown();
    let errors = ctx.errors.into_inner().expect("error list poisoned");
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        errors,
    })
}

fn end_to_end(
    m: &mut Metrics,
    nominal: &Phase,
    reads: &[f64],
    max_qps: f64,
    commits: &[f64],
) -> Result<(), String> {
    if stats::beyond(reads.len(), 0.9) < 10 {
        return Err(format!(
            "{} reads leave fewer than 10 beyond p90",
            reads.len()
        ));
    }
    if stats::beyond(commits.len(), 0.75) < 10 {
        return Err(format!(
            "{} commits leave fewer than 10 beyond p75",
            commits.len()
        ));
    }
    let commits = sorted(commits.to_vec());
    eprintln!(
        "perfbench: samples: {} reads (p99 {:.3} ms, not gated), {} commits",
        reads.len(),
        percentile(reads, 0.99),
        commits.len()
    );
    m.push("query_p50_ms", percentile(reads, 0.5), "ms");
    m.push("query_p90_ms", percentile(reads, 0.9), "ms");
    m.push("max_qps", max_qps, "1/s");
    m.push("commit_p50_ms", percentile(&commits, 0.5), "ms");
    m.push("commit_p75_ms", percentile(&commits, 0.75), "ms");
    let attempted = nominal.samples.len() as f64;
    m.push(
        "served_frac",
        (attempted - nominal.failed() as f64) / attempted,
        "ratio",
    );
    Ok(())
}

/// Peak resident memory of serving this workload, measured in a child
/// process so the parent's records and set-up rounds do not count.
fn rss_in_child(spec: &Spec, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--rss-probe",
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("rss probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("rss probe output: {e}"))
}

/// The child side of [`rss_in_child`]: streams the records into the
/// graph, serves it, runs every distinct query once and a few commits,
/// then reports `VmHWM`.
fn rss_probe(spec: &Spec, seed: u64) -> Result<f64, String> {
    let (served, _) = setup::serve(|sink| setup::stream(spec, |r| sink.push(r)))
        .map_err(|e| format!("server start: {e}"))?;
    let queries = setup::queries(spec, &served.server)?;
    let posts = PostMaker::new(&served.server, seed, spec.scale);
    let ctx = Ctx::new(served.handle.local_addr(), &queries, &served.server, posts);
    let mut client = Client::connect(ctx.addr, "perfbench-rss").map_err(|e| e.to_string())?;
    for q in 0..queries.len() {
        ctx.read(&mut client, q).map_err(|e| e.to_string())?;
    }
    for _ in 0..3 {
        ctx.update(&mut client).map_err(|e| e.to_string())?;
    }
    let _ = client.goodbye();
    let peak = setup::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    served.handle.shutdown();
    Ok(peak)
}
