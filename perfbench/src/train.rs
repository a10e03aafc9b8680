//! The `train_compute` and `train_wire` workloads: data-parallel LM
//! training on the real minidl backend, timed from outside through the
//! gradient closure handed to `train_generic_on` and the lane spans the
//! engine returns.

use crate::gen::{LmBatches, Rng};
use crate::report::Report;
use crate::stats::{median, samples_for_tail, tail};
use mics_compress::{dequantize, quantize, CompressionConfig, CompressionScope, QuantScheme};
use mics_dataplane::{socket_counters, TransportKind};
use mics_minidl::{
    kernel_stats, train_generic_on, ExecLane, LaneSpan, LaneStats, LossScale, ScheduleHyper,
    SyncSchedule, TinyTransformer, TrainOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Data-parallel ranks; matches the 2-core hosts this benchmark targets.
const WORLD: usize = 2;

/// Tail percentile reported for step times.
pub const STEP_TAIL: f64 = 90.0;

/// One training job, fully determined by its fields and the seed.
#[derive(Debug, Clone)]
pub struct TrainJob {
    /// The language model.
    pub model: TinyTransformer,
    /// Distinct sequence start tokens in the data.
    pub starts: usize,
    /// Data-plane transport.
    pub transport: TransportKind,
    /// MiCS partition group size.
    pub partition_size: usize,
    /// Sequences per rank per micro-step.
    pub micro_batch: usize,
    /// Micro-steps per iteration.
    pub accum: usize,
    /// Iterations per repetition.
    pub iterations: usize,
    /// Leading iterations of each repetition left out of step timing.
    pub warmup: usize,
    /// Collective look-ahead (0 = inline interpreter, 1 = async executor).
    pub prefetch_depth: usize,
    /// Quantized communication.
    pub comm_quant: Option<CompressionConfig>,
    /// Adam learning rate.
    pub lr: f32,
    /// The final loss must fall below half the first (otherwise: below it).
    pub must_halve: bool,
}

impl TrainJob {
    /// Compute-bound: local transport, p = 1, so the only collective is the
    /// per-iteration hop-2 all-reduce and the kernels dominate the step.
    pub fn compute() -> Self {
        TrainJob {
            model: TinyTransformer::new(64, 32, 64, 4, 256, 2),
            starts: 64,
            transport: TransportKind::Local,
            partition_size: 1,
            micro_batch: 8,
            accum: 4,
            iterations: 24,
            warmup: 2,
            prefetch_depth: 0,
            comm_quant: None,
            lr: 0.01,
            must_halve: true,
        }
    }

    /// Wire-bound: socket transport, p = 2 (a gather and a reduce-scatter
    /// every micro-step) through the async executor, int8 gradient
    /// reduce-scatters, and an embedding-heavy model whose compute is
    /// small next to its parameter traffic.
    pub fn wire() -> Self {
        TrainJob {
            model: TinyTransformer::new(4096, 4, 64, 4, 256, 1),
            starts: 16,
            transport: TransportKind::Socket,
            partition_size: 2,
            micro_batch: 1,
            accum: 4,
            iterations: 12,
            warmup: 2,
            prefetch_depth: 1,
            comm_quant: Some(CompressionConfig {
                scope: CompressionScope::IntraGroupOnly,
                ..CompressionConfig::grads_only(QuantScheme::int8())
            }),
            lr: 0.01,
            must_halve: false,
        }
    }

    fn hyper(&self) -> ScheduleHyper {
        ScheduleHyper {
            world: WORLD,
            partition_size: self.partition_size,
            accum_steps: self.accum,
            iterations: self.iterations,
            lr: self.lr,
            quantize: false,
            loss_scale: LossScale::None,
            clip_grad_norm: None,
            comm_quant: self.comm_quant,
            prefetch_depth: self.prefetch_depth,
        }
    }

    /// Tokens trained per iteration across all ranks.
    fn tokens_per_step(&self) -> usize {
        WORLD * self.micro_batch * self.accum * self.model.seq_len
    }

    /// The batch rank `rank` trains on at (`iteration`, `micro`).
    fn batch<'a>(
        &self,
        batches: &'a LmBatches,
        iteration: usize,
        micro: usize,
        rank: usize,
    ) -> &'a [usize] {
        batches.get((iteration * self.accum + micro) * WORLD + rank)
    }

    /// Shard length of the flat parameter vector under the partition.
    fn shard_len(&self) -> usize {
        self.model.num_params().div_ceil(self.partition_size)
    }

    /// fp32 payload, in bytes, that rank 0 contributes to one collective
    /// with this span label: a gather sends the rank's shard, a
    /// reduce-scatter the whole padded gradient, the hop-2 all-reduce the
    /// reduced shard, and control collectives one scalar.
    fn fp32_bytes(&self, label: &str) -> u64 {
        let words = match label {
            "gather" | "gather-prefetch" | "hop2" => self.shard_len(),
            "grad-reduce" => self.shard_len() * self.partition_size,
            _ => 1,
        };
        4 * words as u64
    }
}

/// Layer measurements of one traced repetition, per measured iteration
/// unless noted.
#[derive(Debug, Clone, Default)]
struct Layers {
    step_ms: f64,
    fwd_bwd_ms: f64,
    optimizer_ms: f64,
    gather_ms: f64,
    reduce_ms: f64,
    control_ms: f64,
    hidden_ms: f64,
    overlap_fraction: f64,
    collectives: f64,
    /// Whole-repetition kernel counter deltas, per iteration.
    flops: f64,
    pool_dispatches: f64,
    simd_share: f64,
    /// Kernel FLOPs over closure time summed across ranks.
    gflops: f64,
    /// Rank-0 socket bytes sent, per iteration.
    tx_bytes: f64,
    /// What those collectives would send as fp32, per iteration.
    fp32_bytes: f64,
    deferred_ops: f64,
    prefetched_gathers: f64,
}

/// One repetition of the job.
struct Rep {
    setup_s: f64,
    /// Rank-0 wall time of each measured iteration, ms.
    step_ms: Vec<f64>,
    tokens_per_s: f64,
    outcome: TrainOutcome,
    layers: Option<Layers>,
}

/// Run the workload for `seconds` (at least two repetitions, and enough
/// measured steps for the tail percentile) and fill `report`.
pub fn run(job: &TrainJob, seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let batches = LmBatches::new(
        seed,
        job.model.vocab,
        job.starts,
        job.model.seq_len,
        job.micro_batch,
        job.iterations * job.accum * WORLD,
    );
    let init = job.model.init_params(seed);
    if job.transport == TransportKind::Socket {
        transport_prepass(job, &batches, &init, report);
    }

    let measured = job.iterations - job.warmup;
    let min_reps = 2.max(samples_for_tail(STEP_TAIL).div_ceil(measured));
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Traced runs alternate untraced and traced repetitions, so the two
    // throughputs compare under the same host conditions.
    while reps.len() < min_reps.max(if traced { 4 } else { 2 })
        || start.elapsed() < Duration::from_secs_f64(seconds)
    {
        let trace_this = traced && reps.len() % 2 == 1;
        reps.push(run_rep(job, &batches, &init, trace_this));
    }

    // Correctness: finite, falling, and bit-identical across repetitions.
    let first = &reps[0].outcome;
    println!(
        "loss digest {:016x}: first {:.6} last {:.6} over {} iterations",
        digest(first),
        first.losses[0],
        first.losses.last().expect("at least one iteration"),
        first.losses.len()
    );
    report.attempted = (reps.len() * job.iterations) as u64;
    let mut all_ok = true;
    for rep in &reps {
        let l = &rep.outcome.losses;
        let target = if job.must_halve { l[0] * 0.5 } else { l[0] };
        let ok = l.iter().all(|x| x.is_finite())
            && *l.last().expect("losses") < target
            && rep.outcome == *first;
        if !ok {
            report.failed += job.iterations as u64;
            all_ok = false;
        }
    }
    report.check(
        if job.must_halve {
            "loss finite, final < first / 2, identical in every repetition"
        } else {
            "loss finite, final < first, identical in every repetition"
        },
        all_ok,
    );

    let plain: Vec<&Rep> = reps.iter().filter(|r| r.layers.is_none()).collect();
    let tput: Vec<f64> = plain.iter().map(|r| r.tokens_per_s).collect();
    let steps: Vec<f64> = plain.iter().flat_map(|r| r.step_ms.iter().copied()).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    println!(
        "repetitions {} ({} traced), measured steps {}; tokens/s per repetition {:.0?}",
        reps.len(),
        reps.len() - plain.len(),
        steps.len(),
        reps.iter().map(|r| r.tokens_per_s).collect::<Vec<_>>()
    );
    if traced {
        let traced_reps: Vec<&Layers> = reps.iter().filter_map(|r| r.layers.as_ref()).collect();
        let traced_tput: Vec<f64> =
            reps.iter().filter(|r| r.layers.is_some()).map(|r| r.tokens_per_s).collect();
        fill_layers(job, seed, &traced_reps, report);
        let base = median(&tput).expect("untraced repetitions");
        let with = median(&traced_tput).expect("traced repetitions");
        report.set("bench.trace_overhead_pct", (base - with) / base * 100.0);
    } else {
        report.set("throughput_per_s", median(&tput).expect("repetitions"));
        report.set("latency_ms_p50", median(&steps).expect("steps"));
        report.set("setup_s", median(&setups).expect("repetitions"));
        println!("metric tokens_per_s = {:.1} tokens/s", median(&tput).unwrap_or(0.0));
        println!("metric step_ms_p50 = {:.3} ms", median(&steps).unwrap_or(0.0));
        match tail(&steps, STEP_TAIL) {
            Some(t) => println!("metric step_ms_p90 = {t:.3} ms ({} samples)", steps.len()),
            None => println!("metric step_ms_p90 omitted: {} samples", steps.len()),
        }
    }
}

/// Socket and local transports must agree bit for bit on a short job.
fn transport_prepass(job: &TrainJob, batches: &LmBatches, init: &[f32], report: &mut Report) {
    let short = TrainJob { iterations: 3.min(job.iterations), ..job.clone() };
    let run = |transport| {
        train_generic_on(
            transport,
            &short.hyper(),
            SyncSchedule::TwoHop,
            init.to_vec(),
            |params: &[f32], iter: usize, micro: usize, rank: usize| {
                short.model.loss_and_grad(params, short.batch(batches, iter, micro, rank))
            },
        )
    };
    let socket = run(TransportKind::Socket);
    let local = run(TransportKind::Local);
    report.check(
        "socket and local transports give bit-identical losses and params",
        socket.losses == local.losses && socket.final_params == local.final_params,
    );
}

fn run_rep(job: &TrainJob, batches: &LmBatches, init: &[f32], traced: bool) -> Rep {
    let first_call: OnceLock<Instant> = OnceLock::new();
    let closure_ns: [AtomicU64; WORLD] = Default::default();
    let rank0_measured_ns = AtomicU64::new(0);
    let counters_before = traced.then(|| (kernel_stats(), rank0_tx_bytes()));
    let grad_fn = |params: &[f32], iter: usize, micro: usize, rank: usize| {
        first_call.get_or_init(Instant::now);
        let toks = job.batch(batches, iter, micro, rank);
        if !traced {
            return job.model.loss_and_grad(params, toks);
        }
        let t = Instant::now();
        let out = job.model.loss_and_grad(params, toks);
        let ns = t.elapsed().as_nanos() as u64;
        closure_ns[rank].fetch_add(ns, Ordering::Relaxed);
        if rank == 0 && iter >= job.warmup {
            rank0_measured_ns.fetch_add(ns, Ordering::Relaxed);
        }
        out
    };
    let called = Instant::now();
    let outcome =
        train_generic_on(job.transport, &job.hyper(), SyncSchedule::TwoHop, init.to_vec(), grad_fn);
    let setup_s = first_call.get().map_or(0.0, |t| t.duration_since(called).as_secs_f64());

    // Iteration boundaries: the end of each iteration's loss all-reduce.
    let ends: Vec<u64> = outcome
        .lane_stats
        .spans
        .iter()
        .filter(|s| s.label == "loss-sync")
        .map(|s| s.end_ns)
        .collect();
    assert_eq!(ends.len(), job.iterations, "one loss-sync per iteration");
    let step_ms: Vec<f64> =
        ends.windows(2).skip(job.warmup - 1).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
    let measured_ns = (ends[job.iterations - 1] - ends[job.warmup - 1]) as f64;
    let tokens_per_s = (job.tokens_per_step() * step_ms.len()) as f64 / (measured_ns / 1e9);

    let layers = counters_before.map(|(kernels_before, tx_before)| {
        let n = step_ms.len() as f64;
        let iters = job.iterations as f64;
        let stats = &outcome.lane_stats;
        let spans: Vec<LaneSpan> =
            stats.spans.iter().filter(|s| s.iteration >= job.warmup).cloned().collect();
        let window = LaneStats { spans, ..LaneStats::default() };
        let busy_ms = |lane| window.busy_ns(lane) as f64 / 1e6 / n;
        let optimizer_ns: u64 = window
            .spans
            .iter()
            .filter(|s| s.label == "optimizer")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let comm: Vec<&LaneSpan> =
            stats.spans.iter().filter(|s| s.lane != ExecLane::Compute).collect();
        let delta = |name: &str| {
            let get =
                |v: &[(String, u64)]| v.iter().find(|(k, _)| k == name).map_or(0, |&(_, x)| x);
            (get(&kernel_stats()) - get(&kernels_before)) as f64
        };
        let closure_total: u64 = closure_ns.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let calls = delta("kernel.calls");
        Layers {
            step_ms: step_ms.iter().sum::<f64>() / n,
            fwd_bwd_ms: rank0_measured_ns.load(Ordering::Relaxed) as f64 / 1e6 / n,
            optimizer_ms: optimizer_ns as f64 / 1e6 / n,
            gather_ms: busy_ms(ExecLane::Gather),
            reduce_ms: busy_ms(ExecLane::Reduce),
            control_ms: busy_ms(ExecLane::Control),
            hidden_ms: window.overlap_ns() as f64 / 1e6 / n,
            overlap_fraction: window.overlap_fraction(),
            collectives: window.spans.iter().filter(|s| s.lane != ExecLane::Compute).count() as f64
                / n,
            flops: delta("kernel.flops") / iters,
            pool_dispatches: delta("kernel.pool_dispatches") / iters,
            simd_share: if calls > 0.0 { delta("kernel.simd_calls") / calls } else { 0.0 },
            gflops: delta("kernel.flops") / closure_total.max(1) as f64,
            tx_bytes: (rank0_tx_bytes() - tx_before) as f64 / iters,
            fp32_bytes: comm.iter().map(|s| job.fp32_bytes(s.label)).sum::<u64>() as f64 / iters,
            deferred_ops: stats.deferred_wire_ops.len() as f64,
            prefetched_gathers: f64::from(stats.prefetched_gathers),
        }
    });
    Rep { setup_s, step_ms, tokens_per_s, outcome, layers }
}

/// Bytes rank 0 has written to socket connections in this process so far.
fn rank0_tx_bytes() -> u64 {
    socket_counters().get("socket.rank0.tx_bytes")
}

/// Medians of the traced repetitions' layer measurements.
fn fill_layers(job: &TrainJob, seed: u64, reps: &[&Layers], report: &mut Report) {
    let m = |f: fn(&Layers) -> f64| {
        median(&reps.iter().map(|l| f(l)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let step = m(|l| l.step_ms);
    let fwd_bwd = m(|l| l.fwd_bwd_ms);
    let optimizer = m(|l| l.optimizer_ms);
    let (gather, reduce, control) = (m(|l| l.gather_ms), m(|l| l.reduce_ms), m(|l| l.control_ms));
    let hidden = m(|l| l.hidden_ms);
    let residual = step - (fwd_bwd + optimizer + gather + reduce + control - hidden);
    println!(
        "attribution per step: measured {step:.3} ms = fwd_bwd {fwd_bwd:.3} + optimizer \
         {optimizer:.3} + gather {gather:.3} + reduce {reduce:.3} + control {control:.3} \
         - hidden {hidden:.3} + residual {residual:.3} ms"
    );
    report.set("kernels.gflops", m(|l| l.gflops));
    report.set("kernels.flops_per_step", m(|l| l.flops));
    report.set("kernels.pool_dispatches_per_step", m(|l| l.pool_dispatches));
    report.set("kernels.simd_share", m(|l| l.simd_share));
    report.set("model.fwd_bwd_ms_per_step", fwd_bwd);
    report.set("engine.step_ms_per_step", step);
    report.set("engine.optimizer_ms_per_step", optimizer);
    report.set("engine.residual_ms_per_step", residual);
    report.set("engine.residual_share", residual / step);
    report.set("dataplane.gather_ms_per_step", gather);
    report.set("dataplane.reduce_ms_per_step", reduce);
    report.set("dataplane.control_ms_per_step", control);
    report.set("dataplane.collectives_per_step", m(|l| l.collectives));
    report.set("executor.overlap_fraction", m(|l| l.overlap_fraction));
    report.set("executor.hidden_ms_per_step", hidden);
    report.set("executor.deferred_ops", m(|l| l.deferred_ops));
    report.set("executor.prefetched_gathers", m(|l| l.prefetched_gathers));
    if job.transport == TransportKind::Socket {
        let tx = m(|l| l.tx_bytes);
        report.set("dataplane.tx_bytes_per_step", tx);
        report.set("compress.wire_ratio", tx / m(|l| l.fp32_bytes));
    }
    if let Some(cfg) = job.comm_quant {
        let (q, dq) = codec_gbps(seed, job.shard_len() * job.partition_size, cfg.scheme);
        report.set("compress.quantize_gbps", q);
        report.set("compress.dequantize_gbps", dq);
    }
}

/// Quantize/dequantize throughput over a gradient-sized buffer, GB/s of
/// fp32 input (median call of a fixed batch).
fn codec_gbps(seed: u64, len: usize, scheme: QuantScheme) -> (f64, f64) {
    let mut rng = Rng::new(seed, 3);
    let grad: Vec<f32> = (0..len).map(|_| rng.signed_unit() * 1e-2).collect();
    let bytes = (len * 4) as f64;
    let (mut q_s, mut dq_s) = (Vec::new(), Vec::new());
    for _ in 0..31 {
        let t = Instant::now();
        let q = std::hint::black_box(quantize(std::hint::black_box(&grad), scheme));
        q_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(dequantize(&q));
        dq_s.push(t.elapsed().as_secs_f64());
    }
    let gbps = |s: &[f64]| bytes / median(s).expect("samples") / 1e9;
    (gbps(&q_s), gbps(&dq_s))
}

/// FNV-1a over the loss curve and final parameters: equal digests mean a
/// parent and a change computed the same numbers.
fn digest(outcome: &TrainOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in outcome.losses.iter().chain(&outcome.final_params) {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `train_compute` on a model small enough for a test.
    fn small_compute() -> TrainJob {
        TrainJob {
            model: TinyTransformer::new(16, 8, 16, 2, 32, 1),
            iterations: 16,
            ..TrainJob::compute()
        }
    }

    /// `train_wire` on a model small enough for a test.
    fn small_wire() -> TrainJob {
        TrainJob {
            model: TinyTransformer::new(256, 4, 16, 2, 32, 1),
            iterations: 16,
            ..TrainJob::wire()
        }
    }

    fn smoke(job: TrainJob) -> Report {
        let mut report = Report::default();
        run(&job, 5, 0.0, false, &mut report);
        assert!(report.failed_checks.is_empty(), "{:?}", report.failed_checks);
        assert_eq!(report.failed, 0);
        for name in ["throughput_per_s", "latency_ms_p50", "setup_s"] {
            assert!(report.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
        report
    }

    #[test]
    fn smoke_train_compute() {
        smoke(small_compute());
    }

    #[test]
    fn smoke_train_wire() {
        smoke(small_wire());
    }

    #[test]
    fn traced_smoke_fills_the_layer_metrics() {
        let mut report = Report::default();
        run(&small_wire(), 5, 0.0, true, &mut report);
        for name in ["kernels.flops_per_step", "model.fwd_bwd_ms_per_step", "compress.wire_ratio"] {
            assert!(report.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }
}
