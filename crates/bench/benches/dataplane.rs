//! Wall-clock benchmarks of the real data plane: rendezvous collectives
//! over thread-ranks, including the 3-stage hierarchical all-gather and the
//! coalesced APIs.
//!
//! Besides the criterion registrations, `main` times all-gather and the
//! fp32 and int8 reduce-scatters on both transports at three sizes — one of
//! them the `train_wire` gradient of the end-to-end benchmark — and writes
//! `results/BENCH_wire.json`: the median and median absolute deviation of
//! the per-call time over repeated samples, with the host fingerprint. The
//! ranks are spawned once per transport, outside every timed loop.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mics_bench::Table;
use mics_collectives::HierarchicalLayout;
use mics_core::QuantScheme;
use mics_dataplane::hierarchical::split_hierarchical;
use mics_dataplane::quantized::try_quantized_reduce_scatter;
use mics_dataplane::{hierarchical_all_gather, run_ranks, run_ranks_on, TransportKind};
use mics_minidl::TinyTransformer;
use std::time::Instant;

const WORLD: usize = 8;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataplane");
    g.sample_size(20);

    for len in [1024usize, 65536] {
        g.bench_with_input(BenchmarkId::new("all_gather", len), &len, |b, &len| {
            b.iter(|| {
                run_ranks(WORLD, |comm| {
                    let v = vec![comm.rank() as f32; len];
                    comm.all_gather(&v).len()
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("reduce_scatter", len), &len, |b, &len| {
            b.iter(|| {
                run_ranks(WORLD, |comm| {
                    let v = vec![comm.rank() as f32; len * WORLD];
                    comm.reduce_scatter(&v).len()
                })
            })
        });
    }

    g.bench_function("hierarchical_all_gather/8ranks_4x2", |b| {
        let layout = HierarchicalLayout::new(8, 2).unwrap();
        b.iter(|| {
            run_ranks(8, |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                let shard = vec![rank as f32; 4096];
                hierarchical_all_gather(&channel, &node, &layout, &shard).len()
            })
        })
    });

    g.bench_function("all_gather_coalesced/8x8buffers", |b| {
        b.iter(|| {
            run_ranks(WORLD, |comm| {
                let bufs: Vec<Vec<f32>> = (0..8).map(|p| vec![p as f32; 512]).collect();
                let refs: Vec<&[f32]> = bufs.iter().map(|b| b.as_slice()).collect();
                comm.all_gather_coalesced(&refs).len()
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench);

/// Ranks of the wire table: the `train_wire` partition group.
const WIRE_WORLD: usize = 2;

/// Timed samples per (collective, transport, size).
const SAMPLES: usize = 15;

/// The collectives of the wire table.
const OPS: [&str; 3] = ["all_gather", "reduce_scatter_fp32", "reduce_scatter_int8"];

/// Run collective `op` once over a buffer of `len` floats (the gathered
/// size for an all-gather, the input size for a reduce-scatter).
fn collective(c: &mics_dataplane::Communicator, op: &str, data: &[f32]) {
    let n = match op {
        "all_gather" => c.try_all_gather(&data[..data.len() / c.world()]).map(|v| v.len()),
        "reduce_scatter_fp32" => c.try_reduce_scatter(data).map(|v| v.len()),
        _ => try_quantized_reduce_scatter(c, data, QuantScheme::int8()).map(|v| v.len()),
    };
    std::hint::black_box(n.expect("collective"));
}

/// Median and median absolute deviation.
fn median_mad(mut xs: Vec<f64>) -> (f64, f64) {
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    };
    let m = median(&mut xs);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    (m, median(&mut dev))
}

/// Per-call ns samples of every (op, size) on `kind`, as rank 0 saw them.
/// Each sample is a barrier, then `iters` back-to-back calls.
fn wire_samples(kind: TransportKind, sizes: &[usize]) -> Vec<(String, usize, Vec<f64>)> {
    let sizes = sizes.to_vec();
    let mut per_rank = run_ranks_on(kind, WIRE_WORLD, move |c| {
        let mut out = Vec::new();
        for op in OPS {
            for &len in &sizes {
                let data: Vec<f32> =
                    (0..len).map(|i| ((i * 31 + c.rank()) as f32 * 1e-3).sin()).collect();
                let iters = (1 << 20) / len + 1;
                collective(&c, op, &data); // warm-up
                let mut samples = Vec::with_capacity(SAMPLES);
                for _ in 0..SAMPLES {
                    c.barrier();
                    let start = Instant::now();
                    for _ in 0..iters {
                        collective(&c, op, &data);
                    }
                    samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
                }
                out.push((op.to_string(), len, samples));
            }
        }
        out
    });
    per_rank.swap_remove(0)
}

fn main() {
    // `cargo bench` runs with cwd = crates/bench; hop to the workspace root
    // so the artifact lands in the repo-wide `results/` directory that
    // `tests/results_schema.rs` validates.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(root).expect("workspace root must exist");

    benches();

    // The `train_wire` gradient: the end-to-end benchmark's model, padded
    // to the partition group.
    let grad = TinyTransformer::new(4096, 4, 64, 4, 256, 1).num_params().next_multiple_of(2);
    let sizes = [4096, 65536, grad];
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = mics_minidl::kernels::simd_available();
    let mut table = Table::new(
        format!(
            "dataplane collectives on {WIRE_WORLD} ranks, ranks spawned once per transport: \
             median and MAD of ns per call over {SAMPLES} samples"
        ),
        &["collective", "transport", "floats", "median_ns", "mad_ns", "nproc", "simd"],
    );
    for kind in [TransportKind::Local, TransportKind::Socket] {
        for (op, len, samples) in wire_samples(kind, &sizes) {
            let (median, mad) = median_mad(samples);
            table.row(vec![
                op,
                kind.to_string(),
                len.to_string(),
                format!("{median:.0}"),
                format!("{mad:.0}"),
                nproc.to_string(),
                simd.to_string(),
            ]);
        }
    }
    table.finish("BENCH_wire");
}
