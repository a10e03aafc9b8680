//! The bytes a quantized collective really puts on the socket wire, held
//! to the cost model's price.
//!
//! The socket counters are process-wide and keyed by rank, so this file
//! holds a single test: another test's rank 0 would count into the same
//! counter.

use mics_compress::QuantScheme;
use mics_dataplane::quantized::try_quantized_reduce_scatter;
use mics_dataplane::{run_ranks_on, socket_counters, TransportKind};
use std::time::{Duration, Instant};

/// Bytes of an `Exchange` frame around its one payload part: the 4-byte
/// length prefix, the tag byte, group, seq, world and member (`u64` each),
/// the part count and the part length (`u32` each).
const EXCHANGE_HEADER: u64 = 4 + 1 + 4 * 8 + 4 + 4;

/// A heartbeat ping: length prefix and tag byte.
const PING_FRAME: u64 = 4 + 1;

/// How often a rank pings its hub.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

#[test]
fn int8_reduce_scatter_sends_what_the_cost_model_charges() {
    let scheme = QuantScheme::int8();
    let len = 2 * 1001; // world × shard; 16 blocks, the last one partial
    let sent = run_ranks_on(TransportKind::Socket, 2, |c| {
        let data: Vec<f32> = (0..len).map(|i| ((i * 31 + c.rank()) as f32 * 0.01).sin()).collect();
        let tx = socket_counters().counter("socket.rank0.tx_bytes");
        let (before, start) = (tx.get(), Instant::now());
        try_quantized_reduce_scatter(&c, &data, scheme).expect("reduce-scatter");
        (tx.get() - before, start.elapsed())
    });
    let (sent, elapsed) = sent[0];

    let payload = 4 * scheme.encoded_words(len) as u64;
    let expected = payload + EXCHANGE_HEADER;
    // Rank 0's heartbeat thread shares the counter: on a slow host a ping
    // can fall inside the measured window, one per interval at most.
    let extra = sent.checked_sub(expected).expect("rank 0 sent less than one exchange");
    assert_eq!(extra % PING_FRAME, 0, "rank 0 sent {sent} bytes, expected {expected}");
    let pings = extra / PING_FRAME;
    let interval = HEARTBEAT_INTERVAL.as_millis() as u64;
    assert!(pings <= elapsed.as_millis() as u64 / interval + 1, "{pings} pings in {elapsed:?}");

    // The packed stream is the cost model's wire size rounded up to whole
    // words: only the last word is padded, well within one word per block.
    let charged = scheme.wire_bytes(len);
    assert!(
        (charged..charged + 4).contains(&payload),
        "payload {payload} B vs wire_bytes {charged} B over {} blocks",
        scheme.blocks(len)
    );
}
