//! The `plan_serve` workload: an in-process planner server on a Unix
//! socket, driven by two closed-loop clients, each through its own seeded
//! query stream; cache misses run `mics-core` emission and the simulator,
//! hits exercise only the planner's protocol and cache.

use crate::gen::{deal, simulate_pool, tune_pool, Query, QueryStream, Rng};
use crate::report::Report;
use crate::stats::{median, samples_for_tail, tail};
use mics_cluster::{ClusterSpec, InstanceType};
use mics_core::{Json, Strategy, ToJson, TrainingJob};
use mics_planner::{JobSpec, PlannerClient, PlannerConfig, PlannerServer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients (one per core of the target host), one query
/// stream each.
const CLIENTS: usize = 2;

/// Share of queries that repeat an earlier job.
const REPEAT_SHARE: f64 = 0.75;

/// Tail percentile reported for query latency.
pub const QUERY_TAIL: f64 = 99.0;

/// Served responses checked byte for byte against in-process simulation.
const BYTE_CHECKS: usize = 8;

/// One answered (or failed) query.
#[derive(Debug, Clone, Copy)]
struct Sample {
    client: usize,
    query: usize,
    ms: f64,
    ok: bool,
}

/// One repetition: a fresh server (cold cache) serving every client's
/// whole stream.
struct Rep {
    setup_s: f64,
    queries_per_s: f64,
    samples: Vec<Sample>,
    /// Server counters, read after the timed loop of a traced repetition.
    stats: Option<mics_planner::ServerStats>,
}

/// Run the workload on the seeded streams for `seconds` and fill `report`.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    run_streams(&streams(seed, simulate_pool(), tune_pool()), seed, seconds, traced, report);
}

/// One stream per client, over that client's half of each pool.
fn streams(seed: u64, sims: Vec<JobSpec>, tunes: Vec<JobSpec>) -> [QueryStream; CLIENTS] {
    let ([s0, s1], [t0, t1]) = (deal(sims), deal(tunes));
    [
        QueryStream::new(seed, 0, REPEAT_SHARE, s0, t0),
        QueryStream::new(seed, 1, REPEAT_SHARE, s1, t1),
    ]
}

/// Serve `streams` once untimed, then for `seconds` (at least two
/// repetitions of each kind, and enough queries for the tail percentile),
/// and fill `report`.
fn run_streams(
    streams: &[QueryStream; CLIENTS],
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) {
    let addr = socket_addr();
    let per_rep: usize = streams.iter().map(|s| s.queries.len()).sum();
    // The warm-up repetition grows the allocator's heaps and checks the
    // served bytes; only its queries' outcomes count.
    let mut bytes_ok = true;
    let warmup = run_rep(streams, &addr, Some((seed, &mut bytes_ok)), false);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Traced runs alternate untraced and traced repetitions, so the two
    // throughputs compare under the same host conditions.
    while reps.len() < if traced { 4 } else { 2 }
        || reps.len() * per_rep < samples_for_tail(QUERY_TAIL)
        || start.elapsed() < Duration::from_secs_f64(seconds)
    {
        let trace_this = traced && reps.len() % 2 == 1;
        reps.push(run_rep(streams, &addr, None, trace_this));
    }
    report.check(
        &format!("{BYTE_CHECKS} served reports byte-identical to in-process simulate"),
        bytes_ok,
    );

    let samples: Vec<Sample> = reps.iter().flat_map(|r| r.samples.iter().copied()).collect();
    let outcomes = || samples.iter().chain(&warmup.samples);
    report.attempted = outcomes().count() as u64;
    report.failed = outcomes().filter(|s| !s.ok).count() as u64;
    report.check("every query answered without a PlanError", report.failed == 0);
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let split = |first: bool| -> Vec<f64> {
        samples.iter().filter(|s| query(streams, s).first == first).map(|s| s.ms).collect()
    };
    let (hits, misses) = (split(false), split(true));
    let hit_us = median(&hits).unwrap_or(0.0) * 1e3;
    let miss_ms = median(&misses).unwrap_or(0.0);
    let qps = |traced: bool| -> Vec<f64> {
        reps.iter().filter(|r| r.stats.is_some() == traced).map(|r| r.queries_per_s).collect()
    };
    println!(
        "repetitions {} ({} traced) after 1 warm-up, queries {} ({per_rep} per repetition, \
         {} distinct jobs); queries/s per repetition {:.0?}",
        reps.len(),
        qps(true).len(),
        samples.len(),
        streams.iter().map(|s| s.jobs.len()).sum::<usize>(),
        reps.iter().map(|r| r.queries_per_s).collect::<Vec<_>>()
    );
    if traced {
        let s: Vec<_> = reps.iter().filter_map(|r| r.stats).collect();
        let med = |f: fn(&mics_planner::ServerStats) -> f64| {
            median(&s.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        report.set("planner.hit_ratio", med(|s| s.cache_hits as f64 / s.queries.max(1) as f64));
        report.set("planner.sim_runs", med(|s| s.sim_runs as f64));
        report.set("planner.hit_us_p50", hit_us);
        report.set("planner.miss_ms_p50", miss_ms);
        core_layers(streams, &samples, report);
        // A traced repetition differs only in reading the server's counters
        // after its timed loop, so this reads the comparison's noise.
        let base = median(&qps(false)).expect("untraced repetitions");
        let with = median(&qps(true)).expect("traced repetitions");
        report.set("bench.trace_overhead_pct", (base - with) / base * 100.0);
    } else {
        let qps = median(&qps(false)).expect("repetitions");
        report.set("throughput_per_s", qps);
        report.set("latency_ms_p50", median(&all).expect("queries"));
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        report.set("setup_s", median(&setups).expect("repetitions"));
        println!("metric queries_per_s = {qps:.1} queries/s");
        println!("metric hit_us_p50 = {hit_us:.2} us ({} hits)", hits.len());
        println!("metric miss_ms_p50 = {miss_ms:.3} ms ({} misses)", misses.len());
        match tail(&all, QUERY_TAIL) {
            Some(t) => println!("metric query_ms_p99 = {t:.3} ms ({} samples)", all.len()),
            None => println!("metric query_ms_p99 omitted: {} samples", all.len()),
        }
    }
}

/// A Unix socket path in the working directory, unique to this process
/// and call.
fn socket_addr() -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("unix:.perfbench-{}-{n}.sock", std::process::id())
}

/// The query a sample answered.
fn query<'a>(streams: &'a [QueryStream; CLIENTS], s: &Sample) -> &'a Query {
    &streams[s.client].queries[s.query]
}

fn run_rep(
    streams: &[QueryStream; CLIENTS],
    addr: &str,
    verify: Option<(u64, &mut bool)>,
    traced: bool,
) -> Rep {
    let started = Instant::now();
    let server =
        PlannerServer::start(PlannerConfig { addr: addr.to_string(), ..PlannerConfig::default() })
            .expect("planner server starts");
    let mut clients: Vec<PlannerClient> = (0..CLIENTS)
        .map(|_| PlannerClient::connect(server.addr()).expect("client connects"))
        .collect();
    let setup_s = started.elapsed().as_secs_f64();

    let loop_start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(k, (client, stream))| s.spawn(move || client_loop(client, k, stream)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let queries_per_s = samples.len() as f64 / loop_start.elapsed().as_secs_f64();

    if let Some((seed, ok)) = verify {
        *ok = served_bytes_match(seed, streams, &mut clients[0]);
    }
    let stats = traced.then(|| clients[0].stats().expect("stats answer"));
    server.shutdown();
    drop(clients);
    server.join();
    Rep { setup_s, queries_per_s, samples, stats }
}

/// Ask client `k`'s stream in order, one query at a time.
fn client_loop(client: &mut PlannerClient, k: usize, stream: &QueryStream) -> Vec<Sample> {
    let mut out = Vec::with_capacity(stream.queries.len());
    for (i, q) in stream.queries.iter().enumerate() {
        let job = &stream.jobs[q.job];
        let t = Instant::now();
        let ok = if q.tune {
            client.tune(job, &[], None).is_ok()
        } else {
            client.simulate(job, None).is_ok()
        };
        out.push(Sample { client: k, query: i, ms: t.elapsed().as_secs_f64() * 1e3, ok });
    }
    out
}

/// The in-process job a wire spec describes.
fn training_job(spec: &JobSpec) -> TrainingJob {
    TrainingJob {
        workload: mics_model::preset(&spec.model, spec.micro_batch).expect("known preset"),
        cluster: ClusterSpec::new(
            InstanceType::preset(&spec.instance).expect("known instance"),
            spec.nodes,
        ),
        strategy: Strategy::parse(&spec.strategy).expect("valid strategy"),
        accum_steps: spec.accum,
    }
}

/// Re-ask a seeded sample of simulate jobs (served from the cache the
/// timed loop filled) and compare the raw response bytes with an
/// in-process simulation.
fn served_bytes_match(
    seed: u64,
    streams: &[QueryStream; CLIENTS],
    client: &mut PlannerClient,
) -> bool {
    let mut rng = Rng::new(seed, 4);
    (0..BYTE_CHECKS).all(|i| {
        let stream = &streams[rng.below(CLIENTS)];
        let spec = &stream.jobs[rng.below(stream.simulate_jobs)];
        let request = Json::obj([
            ("type", Json::from("simulate")),
            ("id", Json::Num(i as f64 + 1.0)),
            ("job", spec.to_json()),
        ]);
        let Ok(raw) = client.request_text(&request.emit()) else { return false };
        let direct = match mics_core::simulate(&training_job(spec)) {
            Ok(report) => report.to_json().emit(),
            Err(oom) => oom.to_json().emit(),
        };
        raw.contains(&direct)
    })
}

/// Time the `mics-core` calls behind a miss, in process, on the streams'
/// distinct jobs, and the planner's overhead on top of them.
fn core_layers(streams: &[QueryStream; CLIENTS], samples: &[Sample], report: &mut Report) {
    let (mut sim_ms, mut emit_us, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut tune_ms = Vec::new();
    for (k, stream) in streams.iter().enumerate() {
        for (j, spec) in stream.jobs.iter().enumerate() {
            let job = training_job(spec);
            if j >= stream.simulate_jobs {
                let t = Instant::now();
                let _ = std::hint::black_box(mics_core::tune(
                    &job.workload,
                    &job.cluster,
                    job.accum_steps,
                ));
                tune_ms.push(t.elapsed().as_secs_f64() * 1e3);
                continue;
            }
            let t = Instant::now();
            let _ = std::hint::black_box(mics_core::dp_program(&job));
            emit_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let _ = std::hint::black_box(mics_core::simulate(&job));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            sim_ms.push(ms);
            let served: Vec<f64> = samples
                .iter()
                .filter(|s| s.client == k && query(streams, s).first && query(streams, s).job == j)
                .map(|s| s.ms)
                .collect();
            if let Some(served) = median(&served) {
                overhead_ms.push(served - ms);
            }
        }
    }
    report.set("core.simulate_ms_p50", median(&sim_ms).unwrap_or(0.0));
    report.set("core.emit_us_p50", median(&emit_us).unwrap_or(0.0));
    report.set("core.tune_ms_p50", median(&tune_ms).unwrap_or(0.0));
    report.set("planner.miss_overhead_ms", median(&overhead_ms).unwrap_or(0.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streams over pools small enough for a test.
    fn small_streams() -> [QueryStream; CLIENTS] {
        let sims = simulate_pool().into_iter().filter(|j| j.nodes <= 2).take(8).collect();
        streams(9, sims, tune_pool().into_iter().take(2).collect())
    }

    #[test]
    fn smoke_plan_serve() {
        let mut report = Report::default();
        run_streams(&small_streams(), 9, 0.0, false, &mut report);
        assert!(report.failed_checks.is_empty(), "{:?}", report.failed_checks);
        for name in ["throughput_per_s", "latency_ms_p50", "setup_s"] {
            assert!(report.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn traced_smoke_fills_the_planner_and_core_metrics() {
        let mut report = Report::default();
        run_streams(&small_streams(), 9, 0.0, true, &mut report);
        assert!(report.failed_checks.is_empty(), "{:?}", report.failed_checks);
        for name in ["planner.hit_ratio", "planner.sim_runs", "core.simulate_ms_p50"] {
            assert!(report.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
        assert!(report.get("bench.trace_overhead_pct").is_some_and(f64::is_finite));
    }
}
