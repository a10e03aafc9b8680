//! Test oracles for the routed reduce-scatters: the gather-everything
//! bodies they replaced. Each rank gathers every member's *whole* buffer
//! (encoded whole, for the quantized forms) and folds its own shard in rank
//! order. The routed collectives must equal these bit for bit, on both
//! transports.

use crate::hierarchical::split_hierarchical;
use crate::quantized::{
    decode, try_quantized_hierarchical_reduce_scatter, try_quantized_reduce_scatter,
};
use crate::{run_ranks_on, CommError, Communicator, TransportKind};
use mics_collectives::HierarchicalLayout;
use mics_compress::{dequantize_range_add, quantize, QuantScheme};
use proptest::prelude::*;

/// fp32 reduce-scatter by gathering every full contribution.
pub(crate) fn reduce_scatter(comm: &Communicator, contribution: &[f32]) -> Vec<f32> {
    let len = contribution.len();
    let shard = len / comm.world();
    let gathered = comm.try_all_gather(contribution).expect("gather");
    let base = comm.rank() * shard;
    let mut out = vec![0.0f32; shard];
    for r in 0..comm.world() {
        for i in 0..shard {
            out[i] += gathered[r * len + base + i];
        }
    }
    out
}

/// Coalesced fp32 reduce-scatter by one coalesced gather of every part.
pub(crate) fn reduce_scatter_coalesced(comm: &Communicator, parts: &[&[f32]]) -> Vec<Vec<f32>> {
    let gathered = comm.try_all_gather_coalesced(parts).expect("gather");
    parts
        .iter()
        .zip(&gathered)
        .map(|(p, all)| {
            let (full, shard) = (p.len(), p.len() / comm.world());
            let base = comm.rank() * shard;
            let mut out = vec![0.0f32; shard];
            for r in 0..comm.world() {
                for i in 0..shard {
                    out[i] += all[r * full + base + i];
                }
            }
            out
        })
        .collect()
}

/// Quantized reduce-scatter by gathering every whole encoded buffer.
pub(crate) fn quantized_reduce_scatter(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Result<Vec<f32>, CommError> {
    let len = contribution.len();
    let shard = len / comm.world();
    let words = quantize(contribution, scheme).to_words();
    let gathered = comm.try_all_gather(&words)?;
    let per = scheme.encoded_words(len);
    let base = comm.rank() * shard;
    let mut out = vec![0.0f32; shard];
    for r in 0..comm.world() {
        let q = decode(&gathered[r * per..(r + 1) * per], len, scheme)?;
        dequantize_range_add(&q, base, &mut out);
    }
    Ok(out)
}

/// Two-hop quantized reduce-scatter whose hop 1 gathers every whole
/// encoded span with one coalesced gather.
pub(crate) fn quantized_hierarchical_reduce_scatter(
    channel: &Communicator,
    node: &Communicator,
    layout: &HierarchicalLayout,
    full: &[f32],
    scheme: QuantScheme,
) -> Result<Vec<f32>, CommError> {
    let chunk = full.len() / layout.participants();
    let k = layout.per_node();
    let span_len = k * chunk;
    let sw = scheme.encoded_words(span_len);
    let spans: Vec<Vec<f32>> = (0..layout.nodes())
        .map(|j| quantize(&full[j * span_len..(j + 1) * span_len], scheme).to_words())
        .collect();
    let span_refs: Vec<&[f32]> = spans.iter().map(|s| s.as_slice()).collect();
    let exchanged = node.try_all_gather_coalesced(&span_refs)?;
    let mut stage1 = Vec::with_capacity(layout.nodes() * chunk);
    for exchanged_span in &exchanged {
        let mut acc = vec![0.0f32; chunk];
        for peer in 0..k {
            let q = decode(&exchanged_span[peer * sw..(peer + 1) * sw], span_len, scheme)?;
            dequantize_range_add(&q, node.rank() * chunk, &mut acc);
        }
        stage1.extend(acc);
    }
    quantized_reduce_scatter(channel, &stage1, scheme)
}

/// Deterministic, rank-distinct payload with sign changes and a spread of
/// magnitudes (so blocks get distinct scales).
fn payload(rank: usize, len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((rank * 977 + i * 31 + salt * 13) as f32 * 0.0713).sin() * (1 + i % 7) as f32)
        .collect()
}

/// `0` is the local transport, `1` the socket transport.
fn transport(socket: usize) -> TransportKind {
    if socket == 1 {
        TransportKind::Socket
    } else {
        TransportKind::Local
    }
}

/// f16, int8 or int4 with the given block size.
fn scheme(which: usize, block: usize) -> QuantScheme {
    match which {
        0 => QuantScheme::F16,
        1 => QuantScheme::Int8 { block },
        _ => QuantScheme::Int4 { block },
    }
}

/// Compare results by bit pattern (NaN-safe, and ±0 distinct).
fn bits(results: &[Vec<f32>]) -> Vec<Vec<u32>> {
    results.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// fp32 and quantized routed reduce-scatters equal the gathered-whole
    /// oracles bit for bit. Small blocks make shard edges fall inside
    /// blocks and the last block partial.
    #[test]
    fn prop_routed_reduce_scatters_equal_the_gather_oracles(
        world in 1usize..=5,
        shard in 0usize..40,
        block in 1usize..20,
        which in 0usize..3,
        socket in 0usize..2,
    ) {
        let kind = transport(socket);
        let scheme = scheme(which, block);
        let len = world * shard;
        let got = run_ranks_on(kind, world, move |c| {
            let data = payload(c.rank(), len, 0);
            let q = try_quantized_reduce_scatter(&c, &data, scheme).expect("routed");
            (c.try_reduce_scatter(&data).expect("routed"), q)
        });
        let want = run_ranks_on(kind, world, move |c| {
            let data = payload(c.rank(), len, 0);
            let q = quantized_reduce_scatter(&c, &data, scheme).expect("oracle");
            (reduce_scatter(&c, &data), q)
        });
        let (fp32, quant): (Vec<_>, Vec<_>) = got.into_iter().unzip();
        let (fp32_oracle, quant_oracle): (Vec<_>, Vec<_>) = want.into_iter().unzip();
        prop_assert_eq!(bits(&fp32), bits(&fp32_oracle));
        prop_assert_eq!(bits(&quant), bits(&quant_oracle));
    }

    /// The coalesced routed reduce-scatter equals the coalesced-gather
    /// oracle for batches of differently sized parts, empty ones included.
    #[test]
    fn prop_routed_coalesced_reduce_scatter_equals_the_gather_oracle(
        world in 1usize..=5,
        shards in proptest::collection::vec(0usize..12, 0usize..4),
        socket in 0usize..2,
    ) {
        let kind = transport(socket);
        let sizes = shards.clone();
        let run = move |oracle: bool| {
            let shards = sizes.clone();
            run_ranks_on(kind, world, move |c| {
                let data: Vec<Vec<f32>> = shards
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| payload(c.rank(), world * s, i))
                    .collect();
                let refs: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
                if oracle {
                    reduce_scatter_coalesced(&c, &refs)
                } else {
                    c.try_reduce_scatter_coalesced(&refs).expect("routed")
                }
            })
        };
        let (got, want) = (run(false), run(true));
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(bits(g), bits(w));
        }
    }

    /// Hop 1 of the two-hop quantized reduce-scatter routes each node peer
    /// only its chunk's covering blocks of every span; the result equals
    /// the oracle whose hop 1 gathers every whole encoded span.
    #[test]
    fn prop_routed_hierarchical_reduce_scatter_equals_the_gather_oracle(
        nodes in 2usize..4,
        k in 1usize..4,
        chunk in 0usize..12,
        block in 1usize..10,
        which in 0usize..3,
        socket in 0usize..2,
    ) {
        let p = nodes * k;
        let kind = transport(socket);
        let scheme = scheme(which, block);
        let layout = HierarchicalLayout::new(p, k).unwrap();
        let run = move |oracle: bool| {
            run_ranks_on(kind, p, move |mut comm| {
                let data = payload(comm.rank(), p * chunk, 0);
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                let f = if oracle {
                    quantized_hierarchical_reduce_scatter
                } else {
                    try_quantized_hierarchical_reduce_scatter
                };
                f(&channel, &node, &layout, &data, scheme).expect("reduce-scatter")
            })
        };
        prop_assert_eq!(bits(&run(false)), bits(&run(true)));
    }
}
