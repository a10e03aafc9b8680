//! The bytes a reduce-scatter really puts on the socket wire, held to the
//! cost model's price.
//!
//! A reduce-scatter is a routed exchange: each rank sends every peer only
//! that peer's shard (for a quantized one, the encoded blocks covering it)
//! and keeps its own part, which travels as an empty placeholder.
//!
//! The socket counters are process-wide and keyed by rank, so this file
//! holds a single test: another test's rank 0 would count into the same
//! counter.

use mics_compress::QuantScheme;
use mics_dataplane::quantized::try_quantized_reduce_scatter;
use mics_dataplane::{run_ranks_on, socket_counters, Communicator, TransportKind};
use std::time::{Duration, Instant};

/// World size of both cases.
const WORLD: usize = 2;

/// Bytes of a routed `Exchange` frame around its payload: the 4-byte length
/// prefix, the tag byte, group, seq, world and member (`u64` each), the part
/// count and one part length per member (`u32` each).
const ROUTED_HEADER: u64 = 4 + 1 + 4 * 8 + 4 + 4 * WORLD as u64;

/// A heartbeat ping: length prefix and tag byte.
const PING_FRAME: u64 = 4 + 1;

/// How often a rank pings its hub.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Run `collective` on a 2-rank socket world and return the bytes rank 0
/// sent while it ran, less any heartbeat pings that fell inside the window.
/// Panics unless the surplus over `expected` is whole pings, at most one
/// per interval.
fn rank0_tx(expected: u64, collective: fn(&Communicator, &[f32]), len: usize) -> u64 {
    let sent = run_ranks_on(TransportKind::Socket, WORLD, move |c| {
        let data: Vec<f32> = (0..len).map(|i| ((i * 31 + c.rank()) as f32 * 0.01).sin()).collect();
        let tx = socket_counters().counter("socket.rank0.tx_bytes");
        let (before, start) = (tx.get(), Instant::now());
        collective(&c, &data);
        (tx.get() - before, start.elapsed())
    });
    let (sent, elapsed) = sent[0];
    // Rank 0's heartbeat thread shares the counter: on a slow host a ping
    // can fall inside the measured window, one per interval at most.
    let extra = sent.checked_sub(expected).expect("rank 0 sent less than one exchange");
    assert_eq!(extra % PING_FRAME, 0, "rank 0 sent {sent} bytes, expected {expected}");
    let pings = extra / PING_FRAME;
    let interval = HEARTBEAT_INTERVAL.as_millis() as u64;
    assert!(pings <= elapsed.as_millis() as u64 / interval + 1, "{pings} pings in {elapsed:?}");
    sent - extra
}

#[test]
fn reduce_scatters_send_only_the_peers_shard() {
    // fp32: rank 0 ships rank 1's shard, 4 bytes a float, and nothing of
    // its own.
    let len = WORLD * 1001;
    let shard = (len / WORLD) as u64;
    rank0_tx(
        4 * shard + ROUTED_HEADER,
        |c, data| {
            c.try_reduce_scatter(data).expect("reduce-scatter");
        },
        len,
    );

    // int8: rank 0 ships the encoded blocks covering rank 1's shard,
    // elements 1001..2002 — blocks 7..16 of 128, the last one partial.
    let scheme = QuantScheme::int8();
    let block = scheme.block().expect("int8 has blocks");
    let (lo, hi) = (1001 / block * block, (2 * 1001usize).div_ceil(block) * block);
    let cover = hi.min(len) - lo;
    assert_eq!((lo, cover), (896, 2002 - 896));
    let payload = 4 * scheme.encoded_words(cover) as u64;
    rank0_tx(
        payload + ROUTED_HEADER,
        |c, data| {
            try_quantized_reduce_scatter(c, data, QuantScheme::int8()).expect("reduce-scatter");
        },
        len,
    );

    // The packed stream is the cost model's wire size of those blocks
    // rounded up to whole words: only the last word is padded.
    let charged = scheme.wire_bytes(cover);
    assert!(
        (charged..charged + 4).contains(&payload),
        "payload {payload} B vs wire_bytes {charged} B over {} blocks",
        scheme.blocks(cover)
    );
}
