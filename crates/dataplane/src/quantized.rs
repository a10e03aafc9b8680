//! Quantized collectives on the real data plane — the execution half of the
//! compressed-communication subsystem (`mics-compress` provides the
//! kernels, `mics-collectives::compress` the α–β prices).
//!
//! Every collective here moves *encoded word streams* (see
//! `Quantized::to_words`) through the ordinary rendezvous collectives. The
//! codes travel packed at their real width (four int8 codes per word), so
//! the bytes a transport moves are the cost model's `wire_bytes` rounded up
//! to whole words. The failure semantics are inherited wholesale: a dead or
//! absent rank aborts the quantized collective with the same [`CommError`]
//! its fp32 counterpart would return, and poison propagates through the
//! same barrier state. A peer's stream that does not decode (wrong length,
//! nonzero padding) is `CommError::Io { kind: InvalidData }`. The `try_*`
//! variants surface errors as `Result`; the plain wrappers panic like the
//! rest of the data plane.
//!
//! Two styles, mirroring ZeRO++:
//!
//! * **qwZ (weight gather):** quantize once, transport codes, dequantize at
//!   the receiver — [`try_quantized_all_gather`] and the 3-stage
//!   [`try_quantized_hierarchical_all_gather`], which moves encoded chunks
//!   through stages 1–3 and is therefore *bit-identical* to the flat
//!   quantized gather (codes are copied, never re-derived).
//! * **qgZ (gradient reduce):** gradients must be summed, and summing codes
//!   is meaningless — each hop dequantizes, reduces in fp32, and
//!   requantizes for the next hop. A reduce-scatter is a routed exchange:
//!   each rank quantizes, per destination, only the blocks covering that
//!   destination's shard and sends them to it alone. Blocks are quantized
//!   independently, so those are exactly the codes and scales quantizing
//!   the whole buffer gives, and the result is bit-identical to gathering
//!   every encoded buffer. The hierarchical
//!   [`try_quantized_hierarchical_reduce_scatter`] performs exactly two
//!   quantized hops (intra-node, then inter-node), which bounds the
//!   accumulated error at 2 half-steps per element instead of `O(p)`.

use crate::{CommError, Communicator};
use mics_collectives::HierarchicalLayout;
use mics_compress::{dequantize, dequantize_range_add, quantize, QuantScheme, Quantized};
use std::ops::Range;

/// Decode one peer's word stream; a malformed stream is corrupt peer data.
pub(crate) fn decode(
    words: &[f32],
    len: usize,
    scheme: QuantScheme,
) -> Result<Quantized, CommError> {
    Quantized::from_words(words, len, scheme)
        .map_err(|_| CommError::Io { kind: std::io::ErrorKind::InvalidData })
}

/// The block-aligned range of a `len`-element buffer whose blocks cover
/// `range`. Blocks are quantized independently from the buffer's start, so
/// quantizing only this range yields exactly the codes and scales its
/// blocks get when the whole buffer is quantized.
fn covering(range: Range<usize>, len: usize, scheme: QuantScheme) -> Range<usize> {
    match scheme.block() {
        None => range,
        Some(b) => range.start / b * b..(range.end.div_ceil(b) * b).min(len),
    }
}

/// Fallible quantized all-gather: every rank's `contribution` is quantized,
/// the encoded words are gathered, and each rank dequantizes all `world`
/// shards. Equal `contribution.len()` on every rank, as with
/// [`Communicator::all_gather`].
pub fn try_quantized_all_gather(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Result<Vec<f32>, CommError> {
    let len = contribution.len();
    let words = quantize(contribution, scheme).to_words();
    let gathered = comm.try_all_gather(&words)?;
    let per = scheme.encoded_words(len);
    let mut out = Vec::with_capacity(len * comm.world());
    for r in 0..comm.world() {
        let q = decode(&gathered[r * per..(r + 1) * per], len, scheme)?;
        out.extend(dequantize(&q));
    }
    Ok(out)
}

/// Panicking wrapper over [`try_quantized_all_gather`].
pub fn quantized_all_gather(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Vec<f32> {
    try_quantized_all_gather(comm, contribution, scheme)
        .unwrap_or_else(|e| panic!("collective aborted: {e}"))
}

/// Fallible quantized reduce-scatter over one hop: each rank quantizes,
/// for every member, the blocks covering that member's shard of its
/// `world × shard` buffer and sends them to that member alone; each rank
/// dequantizes its shard of every peer's blocks and sums in fixed rank
/// order (deterministic, like the fp32 collective).
pub fn try_quantized_reduce_scatter(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Result<Vec<f32>, CommError> {
    let world = comm.world();
    assert!(
        contribution.len().is_multiple_of(world),
        "reduce_scatter input length {} not divisible by world {world}",
        contribution.len()
    );
    let len = contribution.len();
    let shard = len / world;
    let cover = |j: usize| covering(j * shard..(j + 1) * shard, len, scheme);
    let outgoing: Vec<Vec<f32>> =
        (0..world).map(|j| quantize(&contribution[cover(j)], scheme).to_words()).collect();
    let refs: Vec<&[f32]> = outgoing.iter().map(Vec::as_slice).collect();
    let received = comm.try_exchange_routed(&refs)?;
    let mine = cover(comm.rank());
    let mut out = vec![0.0f32; shard];
    for words in &received {
        let q = decode(words, mine.len(), scheme)?;
        dequantize_range_add(&q, comm.rank() * shard - mine.start, &mut out);
    }
    Ok(out)
}

/// Panicking wrapper over [`try_quantized_reduce_scatter`].
pub fn quantized_reduce_scatter(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Vec<f32> {
    try_quantized_reduce_scatter(comm, contribution, scheme)
        .unwrap_or_else(|e| panic!("collective aborted: {e}"))
}

/// Fallible quantized all-reduce (one quantized hop): exchange encoded
/// buffers, dequantize all, sum in rank order. Every rank computes the
/// identical result.
pub fn try_quantized_all_reduce(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Result<Vec<f32>, CommError> {
    let len = contribution.len();
    let words = quantize(contribution, scheme).to_words();
    let gathered = comm.try_all_gather(&words)?;
    let per = scheme.encoded_words(len);
    let mut out = vec![0.0f32; len];
    for r in 0..comm.world() {
        let q = decode(&gathered[r * per..(r + 1) * per], len, scheme)?;
        dequantize_range_add(&q, 0, &mut out);
    }
    Ok(out)
}

/// Panicking wrapper over [`try_quantized_all_reduce`].
pub fn quantized_all_reduce(
    comm: &Communicator,
    contribution: &[f32],
    scheme: QuantScheme,
) -> Vec<f32> {
    try_quantized_all_reduce(comm, contribution, scheme)
        .unwrap_or_else(|e| panic!("collective aborted: {e}"))
}

/// Fallible quantized 3-stage hierarchical all-gather (§3.3 geometry, qwZ
/// payloads): this rank's shard is quantized **once**; stage 1 gathers
/// encoded chunks along the inter-node channel, stage 2 re-arranges whole
/// encoded chunks into their final positions, stage 3 fills in node peers'
/// chunks with one coalesced intra-node gather of encoded chunks; only then
/// is everything dequantized. Because codes travel unmodified, the result
/// is bit-identical to [`try_quantized_all_gather`] over the whole group.
///
/// `channel`/`node`/`layout` exactly as in
/// [`crate::hierarchical::hierarchical_all_gather`].
pub fn try_quantized_hierarchical_all_gather(
    channel: &Communicator,
    node: &Communicator,
    layout: &HierarchicalLayout,
    shard: &[f32],
    scheme: QuantScheme,
) -> Result<Vec<f32>, CommError> {
    assert_eq!(channel.world(), layout.nodes(), "channel size must equal node count");
    assert_eq!(node.world(), layout.per_node(), "node group size must equal k");
    let chunk = shard.len();
    let cw = scheme.encoded_words(chunk);
    let p = layout.participants();
    let local = node.rank();
    let group_rank = channel.rank() * layout.per_node() + local;

    // Quantize this rank's chunk once; all further movement is on codes.
    let words = quantize(shard, scheme).to_words();

    // Stage 1: inter-node all-gather of encoded chunks along the channel.
    let stage1 = channel.try_all_gather(&words)?;
    debug_assert_eq!(stage1.len(), layout.nodes() * cw);

    // Stage 2: re-arrange whole encoded chunks into their final slots.
    let mut enc = vec![0.0f32; p * cw];
    for slot in 0..layout.nodes() {
        let dest = layout.stage2_destination(group_rank, slot);
        enc[dest * cw..(dest + 1) * cw].copy_from_slice(&stage1[slot * cw..(slot + 1) * cw]);
    }

    // Stage 3: p/k batched intra-node all-gathers of encoded chunks.
    let parts: Vec<Vec<f32>> = (0..layout.nodes())
        .map(|j| {
            let idx = j * layout.per_node() + local;
            enc[idx * cw..(idx + 1) * cw].to_vec()
        })
        .collect();
    let part_refs: Vec<&[f32]> = parts.iter().map(|p| p.as_slice()).collect();
    let gathered = node.try_all_gather_coalesced(&part_refs)?;
    for (j, span) in gathered.iter().enumerate() {
        debug_assert_eq!(span.len(), layout.per_node() * cw);
        let base = j * layout.per_node() * cw;
        enc[base..base + span.len()].copy_from_slice(span);
    }

    // Dequantize the p encoded chunks into the flat fp32 result.
    let mut out = Vec::with_capacity(p * chunk);
    for r in 0..p {
        let q = decode(&enc[r * cw..(r + 1) * cw], chunk, scheme)?;
        out.extend(dequantize(&q));
    }
    Ok(out)
}

/// Panicking wrapper over [`try_quantized_hierarchical_all_gather`].
pub fn quantized_hierarchical_all_gather(
    channel: &Communicator,
    node: &Communicator,
    layout: &HierarchicalLayout,
    shard: &[f32],
    scheme: QuantScheme,
) -> Vec<f32> {
    try_quantized_hierarchical_all_gather(channel, node, layout, shard, scheme)
        .unwrap_or_else(|e| panic!("collective aborted: {e}"))
}

/// Fallible quantized hierarchical reduce-scatter — the qgZ-style 2-hop
/// gradient reduce. Hop 1 (intra-node): each rank quantizes its `p/k`
/// spans, sends every node peer only the blocks covering that peer's chunk
/// of each span (one routed exchange), and reduces its interleaved chunks
/// in fp32. Hop 2 (inter-node): the node-partial sums are *requantized*
/// and reduced along the channel the same way.
/// Exactly two quantized hops touch each element, so the error stays
/// bounded by two half-steps regardless of `p`.
pub fn try_quantized_hierarchical_reduce_scatter(
    channel: &Communicator,
    node: &Communicator,
    layout: &HierarchicalLayout,
    full: &[f32],
    scheme: QuantScheme,
) -> Result<Vec<f32>, CommError> {
    assert_eq!(channel.world(), layout.nodes(), "channel size must equal node count");
    assert_eq!(node.world(), layout.per_node(), "node group size must equal k");
    let p = layout.participants();
    assert!(full.len().is_multiple_of(p), "input must be p equal chunks");
    let chunk = full.len() / p;
    let k = layout.per_node();
    let local = node.rank();

    // Hop 1: node peer `d` receives, for every k-chunk span, the encoded
    // blocks covering its chunk `d` of the span (spans are quantized
    // independently, so the covering range is relative to the span), and
    // dequantize-reduces them into its interleaved chunks.
    let nodes = layout.nodes();
    let span_len = k * chunk;
    let cover = |d: usize| covering(d * chunk..(d + 1) * chunk, span_len, scheme);
    let outgoing: Vec<Vec<f32>> = (0..k)
        .map(|d| {
            let range = cover(d);
            let mut words = Vec::with_capacity(nodes * scheme.encoded_words(range.len()));
            for j in 0..nodes {
                let span = &full[j * span_len..(j + 1) * span_len];
                words.extend(quantize(&span[range.clone()], scheme).to_words());
            }
            words
        })
        .collect();
    let refs: Vec<&[f32]> = outgoing.iter().map(Vec::as_slice).collect();
    let received = node.try_exchange_routed(&refs)?;

    let mine = cover(local);
    let per = scheme.encoded_words(mine.len());
    let mut stage1 = vec![0.0f32; nodes * chunk];
    for words in &received {
        if words.len() != nodes * per {
            return Err(CommError::Io { kind: std::io::ErrorKind::InvalidData });
        }
        for j in 0..nodes {
            let q = decode(&words[j * per..(j + 1) * per], mine.len(), scheme)?;
            let acc = &mut stage1[j * chunk..(j + 1) * chunk];
            dequantize_range_add(&q, local * chunk - mine.start, acc);
        }
    }

    // Hop 2: requantize the node-partial sums and reduce-scatter them along
    // the inter-node channel (second and final quantized hop).
    try_quantized_reduce_scatter(channel, &stage1, scheme)
}

/// Panicking wrapper over [`try_quantized_hierarchical_reduce_scatter`].
pub fn quantized_hierarchical_reduce_scatter(
    channel: &Communicator,
    node: &Communicator,
    layout: &HierarchicalLayout,
    full: &[f32],
    scheme: QuantScheme,
) -> Vec<f32> {
    try_quantized_hierarchical_reduce_scatter(channel, node, layout, full, scheme)
        .unwrap_or_else(|e| panic!("collective aborted: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::split_hierarchical;
    use crate::{run_ranks, try_run_ranks, with_deadline};
    use mics_compress::round_trip;
    use proptest::prelude::*;
    use std::time::Duration;

    const SCHEMES: [QuantScheme; 3] =
        [QuantScheme::F16, QuantScheme::Int8 { block: 128 }, QuantScheme::Int4 { block: 32 }];

    fn payload(rank: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| ((rank * 977 + i * 31) as f32 * 0.0713).sin() * 2.0).collect()
    }

    #[test]
    fn quantized_all_gather_equals_per_rank_round_trips() {
        // The gather is exact on *quantized* data: the result must equal the
        // concatenation of each rank's local round-trip.
        for scheme in SCHEMES {
            let world = 4;
            let len = 200;
            let out = run_ranks(world, move |c| {
                quantized_all_gather(&c, &payload(c.rank(), len), scheme)
            });
            let expect: Vec<f32> =
                (0..world).flat_map(|r| round_trip(&payload(r, len), scheme)).collect();
            for r in &out {
                assert_eq!(r, &expect, "{scheme:?}");
            }
        }
    }

    #[test]
    fn quantized_all_gather_world_one_is_local_round_trip() {
        let out = run_ranks(1, |c| quantized_all_gather(&c, &payload(0, 50), QuantScheme::int8()));
        assert_eq!(out[0], round_trip(&payload(0, 50), QuantScheme::int8()));
    }

    #[test]
    fn quantized_all_gather_empty_buffers() {
        let out = run_ranks(3, |c| quantized_all_gather(&c, &[], QuantScheme::int4()));
        for r in &out {
            assert!(r.is_empty());
        }
    }

    #[test]
    fn quantized_reduce_scatter_close_to_fp32() {
        let world = 4;
        let len = 64;
        let q = run_ranks(world, move |c| {
            quantized_reduce_scatter(&c, &payload(c.rank(), len), QuantScheme::int8())
        });
        let f = run_ranks(world, move |c| c.reduce_scatter(&payload(c.rank(), len)));
        // One quantized hop: error ≤ Σ_r bound_r ≈ world · scale/2.
        let bound: f32 = (0..world)
            .map(|r| mics_compress::quantize(&payload(r, len), QuantScheme::int8()).error_bound())
            .sum();
        for (qs, fs) in q.iter().zip(f.iter()) {
            for (a, b) in qs.iter().zip(fs.iter()) {
                assert!((a - b).abs() <= bound, "|{a} - {b}| > {bound}");
            }
        }
    }

    #[test]
    fn quantized_all_reduce_identical_on_every_rank() {
        let world = 5;
        let out = run_ranks(world, move |c| {
            quantized_all_reduce(&c, &payload(c.rank(), 90), QuantScheme::int8())
        });
        for r in &out[1..] {
            assert_eq!(r, &out[0]);
        }
        // And it equals the sum of the round-tripped contributions exactly
        // (rank-order fold of dequantized values).
        let mut expect = vec![0.0f32; 90];
        for r in 0..world {
            for (o, x) in expect.iter_mut().zip(round_trip(&payload(r, 90), QuantScheme::int8())) {
                *o += x;
            }
        }
        assert_eq!(out[0], expect);
    }

    #[test]
    fn hierarchical_quantized_gather_bit_equals_flat_quantized_gather() {
        // The tentpole data-layout claim, compressed edition: moving encoded
        // chunks through the 3 stages must reproduce the flat quantized
        // gather bit-for-bit.
        for scheme in SCHEMES {
            let (nodes, k, chunk) = (3usize, 2usize, 37usize);
            let p = nodes * k;
            let layout = HierarchicalLayout::new(p, k).unwrap();
            let hier = run_ranks(p, move |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                quantized_hierarchical_all_gather(
                    &channel,
                    &node,
                    &layout,
                    &payload(rank, chunk),
                    scheme,
                )
            });
            let flat =
                run_ranks(p, move |c| quantized_all_gather(&c, &payload(c.rank(), chunk), scheme));
            assert_eq!(hier, flat, "{scheme:?}");
        }
    }

    #[test]
    fn hierarchical_quantized_reduce_scatter_two_hops_stay_bounded() {
        let (nodes, k, chunk) = (2usize, 4usize, 16usize);
        let p = nodes * k;
        let layout = HierarchicalLayout::new(p, k).unwrap();
        let scheme = QuantScheme::int8();
        let hier = run_ranks(p, move |mut comm| {
            let rank = comm.rank();
            let (channel, node) = split_hierarchical(&mut comm, &layout);
            quantized_hierarchical_reduce_scatter(
                &channel,
                &node,
                &layout,
                &payload(rank, p * chunk),
                scheme,
            )
        });
        let flat = run_ranks(p, move |c| c.reduce_scatter(&payload(c.rank(), p * chunk)));
        // Hop 1 contributes Σ_r bound_r; hop 2 adds one more quantization of
        // the (k×-larger) node partials: double the hop-1 budget is a safe,
        // still-tight envelope for "2 quantized hops".
        let bound: f32 = 2.0
            * (0..p)
                .map(|r| {
                    mics_compress::quantize(&payload(r, p * chunk), scheme).error_bound() * k as f32
                })
                .sum::<f32>();
        for (h, f) in hier.iter().zip(flat.iter()) {
            for (a, b) in h.iter().zip(f.iter()) {
                assert!((a - b).abs() <= bound, "|{a} - {b}| > {bound}");
            }
        }
    }

    #[test]
    fn f16_gather_is_bit_exact_for_f16_data() {
        // Parameters already cast to f16 (minidl's quantize=true) travel a
        // f16 wire losslessly.
        let world = 4;
        let len = 100;
        let data = move |r: usize| -> Vec<f32> { round_trip(&payload(r, len), QuantScheme::F16) };
        let q =
            run_ranks(world, move |c| quantized_all_gather(&c, &data(c.rank()), QuantScheme::F16));
        let f = run_ranks(world, move |c| c.all_gather(&data(c.rank())));
        assert_eq!(q, f);
    }

    #[test]
    fn malformed_peer_streams_are_invalid_data() {
        let invalid = Err(CommError::Io { kind: std::io::ErrorKind::InvalidData });
        let scheme = QuantScheme::int8();
        assert_eq!(decode(&[0.0; 3], 128, scheme), invalid, "wrong length");
        let mut words = mics_compress::quantize(&payload(0, 5), scheme).to_words();
        *words.last_mut().unwrap() = f32::from_bits(u32::MAX);
        assert_eq!(decode(&words, 5, scheme), invalid, "nonzero padding");

        // A routed frame must carry one part per member. A peer that sends
        // three parts to a group of two poisons the group with a typed
        // error: the sender is told so, and the member that joins the
        // exchange afterwards fails with the same error instead of waiting
        // out its deadline.
        with_deadline(Duration::from_secs(20), move || {
            use crate::transport::socket::{encode_exchange, read_frame, Frame, Route};
            let invalid = CommError::Io { kind: std::io::ErrorKind::InvalidData };
            use crate::transport::{connect_world, Hub, SocketWorldConfig};
            use std::io::Write;
            let hub = Hub::spawn("127.0.0.1:0").expect("hub");
            let mut raw = std::net::TcpStream::connect(hub.addr()).expect("connect");
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let hello = crate::transport::socket::encode_frame(&Frame::Hello { rank: 0, world: 2 });
            let parts: [&[f32]; 3] = [&[], &[1.0], &[2.0]];
            raw.write_all(&hello).unwrap();
            raw.write_all(&encode_exchange(0, 0, 2, 0, Route::Routed, &parts)).unwrap();
            match read_frame(&mut raw, &mut Vec::new()).expect("the hub answers") {
                (Frame::GroupPoison { group: 0, err }, _) => assert_eq!(err, invalid, "sender"),
                (other, _) => panic!("expected a group poison, got {other:?}"),
            }
            let mut cfg = SocketWorldConfig::new(hub.addr(), 1, 2);
            cfg.timeout = Duration::from_secs(10);
            let peer = connect_world(cfg).expect("peer connects");
            let data = payload(1, 256);
            assert_eq!(peer.try_reduce_scatter(&data), Err(invalid), "peer, fp32");
            let quantized = try_quantized_reduce_scatter(&peer, &data, scheme);
            assert_eq!(quantized, Err(invalid), "peer, int8");
        });
    }

    #[test]
    fn killed_rank_aborts_quantized_collectives() {
        // Same rendezvous/abort semantics as the fp32 collectives (PR 1).
        with_deadline(Duration::from_secs(20), || {
            let results = try_run_ranks(4, |c| {
                c.set_timeout(Duration::from_secs(5));
                if c.rank() == 2 {
                    panic!("injected fault");
                }
                try_quantized_all_gather(&c, &payload(c.rank(), 64), QuantScheme::int8())
            });
            for (rank, r) in results.iter().enumerate() {
                if rank == 2 {
                    assert!(r.is_err());
                } else {
                    assert_eq!(
                        r.as_ref().expect("survivors don't panic").as_ref().unwrap_err(),
                        &CommError::RankFailed { rank: 2 },
                        "survivor {rank}"
                    );
                }
            }
        });
    }

    #[test]
    fn killed_rank_aborts_quantized_hierarchical_collectives() {
        with_deadline(Duration::from_secs(20), || {
            let layout = HierarchicalLayout::new(4, 2).unwrap();
            let results = try_run_ranks(4, move |mut c| {
                c.set_timeout(Duration::from_secs(5));
                let (channel, node) = split_hierarchical(&mut c, &layout);
                if c.rank() == 3 {
                    panic!("dies after split");
                }
                try_quantized_hierarchical_all_gather(
                    &channel,
                    &node,
                    &layout,
                    &payload(c.rank(), 8),
                    QuantScheme::int4(),
                )
            });
            for (rank, r) in results.iter().enumerate() {
                if rank == 3 {
                    assert!(r.is_err());
                } else {
                    let collective = r.as_ref().expect("survivors don't panic");
                    assert!(
                        matches!(collective, Err(CommError::RankFailed { rank: 3 })),
                        "survivor {rank}: {collective:?}"
                    );
                }
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// "Quantized hierarchical all-gather == flat quantized all-gather
        /// after dequant" — bit-exactly, for every (p, k) geometry and
        /// scheme (the ISSUE's ε is 0 here because codes travel verbatim).
        #[test]
        fn prop_hierarchical_equals_flat_for_all_geometries(
            nodes in 2usize..4,
            k in 1usize..4,
            chunk in 0usize..40,
            which in 0usize..3,
        ) {
            let p = nodes * k;
            prop_assume!(p > k);
            let scheme = SCHEMES[which];
            let layout = HierarchicalLayout::new(p, k).unwrap();
            let hier = run_ranks(p, move |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                quantized_hierarchical_all_gather(
                    &channel, &node, &layout, &payload(rank, chunk), scheme,
                )
            });
            let flat = run_ranks(p, move |c| {
                quantized_all_gather(&c, &payload(c.rank(), chunk), scheme)
            });
            prop_assert_eq!(hier, flat);
        }

        /// The 2-hop quantized reduce stays within the analytic error
        /// envelope of the flat fp32 reduce-scatter for every geometry.
        #[test]
        fn prop_hierarchical_reduce_close_to_fp32(
            nodes in 2usize..4,
            k in 1usize..4,
            chunk in 1usize..6,
        ) {
            let p = nodes * k;
            prop_assume!(p > k);
            let layout = HierarchicalLayout::new(p, k).unwrap();
            let scheme = QuantScheme::int8();
            let hier = run_ranks(p, move |mut comm| {
                let rank = comm.rank();
                let (channel, node) = split_hierarchical(&mut comm, &layout);
                quantized_hierarchical_reduce_scatter(
                    &channel, &node, &layout, &payload(rank, p * chunk), scheme,
                )
            });
            let flat = run_ranks(p, move |c| {
                c.reduce_scatter(&payload(c.rank(), p * chunk))
            });
            let bound: f32 = 2.0 * (0..p).map(|r| {
                mics_compress::quantize(&payload(r, p * chunk), scheme).error_bound() * k as f32
            }).sum::<f32>();
            for (h, f) in hier.iter().zip(flat.iter()) {
                for (a, b) in h.iter().zip(f.iter()) {
                    prop_assert!((a - b).abs() <= bound, "|{} - {}| > {}", a, b, bound);
                }
            }
        }
    }
}
