//! Seeded input generators. Everything a workload feeds the program is
//! derived from the benchmark's `--seed` here, so one seed always yields
//! the same token batches and the same query stream.

use mics_planner::JobSpec;

/// SplitMix64: a tiny, well-mixed generator that needs no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two consumers of
    /// one seed do not see the same sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Token batches for one training job, generated up front so the timed
/// closure only looks them up. Each sequence walks a seeded permutation of
/// the vocabulary from a start token drawn from a seeded pool of `starts`
/// tokens: the next token is a function of the current one, so the loss
/// can fall far, and a schedule bug shows as a different loss curve. A
/// small pool lets a large vocabulary be learned from few tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct LmBatches(Vec<Vec<usize>>);

impl LmBatches {
    /// `count` batches of `micro_batch` sequences of `seq_len + 1` tokens.
    pub fn new(
        seed: u64,
        vocab: usize,
        starts: usize,
        seq_len: usize,
        micro_batch: usize,
        count: usize,
    ) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut next: Vec<usize> = (0..vocab).collect();
        rng.shuffle(&mut next);
        let pool: Vec<usize> = (0..starts).map(|_| rng.below(vocab)).collect();
        let batches = (0..count)
            .map(|_| {
                let mut toks = Vec::with_capacity(micro_batch * (seq_len + 1));
                for _ in 0..micro_batch {
                    let mut t = pool[rng.below(pool.len())];
                    for _ in 0..=seq_len {
                        toks.push(t);
                        t = next[t];
                    }
                }
                toks
            })
            .collect();
        LmBatches(batches)
    }

    /// Batch `i`.
    pub fn get(&self, i: usize) -> &[usize] {
        &self.0[i]
    }
}

/// One planner query of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Index into [`QueryStream::jobs`].
    pub job: usize,
    /// `tune` instead of `simulate`.
    pub tune: bool,
    /// First time the stream asks for this job: the server has to run the
    /// simulator or tuner (a miss); later asks are served from its cache.
    pub first: bool,
}

/// A seeded stream of one client's planner queries over a fixed pool of
/// distinct jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStream {
    /// The distinct jobs (simulate jobs first, then tune jobs).
    pub jobs: Vec<JobSpec>,
    /// How many leading entries of `jobs` are simulate jobs.
    pub simulate_jobs: usize,
    /// The queries, in the order clients take them.
    pub queries: Vec<Query>,
}

/// Paper-scale simulate jobs: every preset × cluster size × partition
/// size × micro-batch in a fixed grid, each configuration at micro-batch
/// 4 and 8 back to back. The pool is the same for every seed, so every
/// seed pays the same total simulation work and runs stay comparable; the
/// seed decides order and repetition.
pub fn simulate_pool() -> Vec<JobSpec> {
    let models =
        ["bert-1.5b", "bert-10b", "bert-15b", "bert-20b", "roberta-20b", "gpt2-20b", "52b"];
    let mut jobs = Vec::new();
    for model in models {
        for n in [1, 2, 4, 8] {
            let mut p = 8;
            while p <= 8 * n {
                for mb in [4, 8] {
                    let mut job = JobSpec::mics(model, n, p);
                    job.micro_batch = mb;
                    jobs.push(job);
                }
                p *= 2;
            }
        }
    }
    jobs
}

/// Tuner jobs on 1–2 node clusters, each at micro-batch 4 and 8 back to
/// back.
pub fn tune_pool() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for model in ["bert-1.5b", "bert-10b"] {
        for n in [1, 2] {
            for mb in [4, 8] {
                let mut job = JobSpec::mics(model, n, 8);
                job.micro_batch = mb;
                jobs.push(job);
            }
        }
    }
    jobs
}

/// Deal a pool that lists every configuration at two micro-batches back to
/// back between two clients: each client gets one job of every pair, and
/// which one alternates from pair to pair. The two halves then cost
/// nearly the same whatever the seed, so neither client idles long at the
/// end of a repetition, and no two clients ever ask for the same job.
pub fn deal(pool: Vec<JobSpec>) -> [Vec<JobSpec>; 2] {
    let mut halves = [Vec::new(), Vec::new()];
    for (i, job) in pool.into_iter().enumerate() {
        halves[(i / 2 + i % 2) % 2].push(job);
    }
    halves
}

impl QueryStream {
    /// Every job of the `sims` and `tunes` pools is asked once as a miss;
    /// between misses, repeats of uniformly chosen earlier jobs make up
    /// `repeat_share` of the stream. Tune jobs are spread over the stream's
    /// first half so their repeats land in the timed window too. Each
    /// `client` of one seed gets its own sequence.
    pub fn new(
        seed: u64,
        client: u64,
        repeat_share: f64,
        sims: Vec<JobSpec>,
        tunes: Vec<JobSpec>,
    ) -> Self {
        let mut rng = Rng::new(seed, 16 + client);
        let simulate_jobs = sims.len();
        let mut jobs = sims;
        jobs.extend(tunes);
        let mut order: Vec<usize> = (0..simulate_jobs).collect();
        rng.shuffle(&mut order);
        for t in simulate_jobs..jobs.len() {
            let at = rng.below(order.len() / 2 + 1);
            order.insert(at, t);
        }
        let misses = order.len();
        let total = (misses as f64 / (1.0 - repeat_share)).round() as usize;
        let mut queries = Vec::with_capacity(total);
        let mut seen: Vec<usize> = Vec::with_capacity(misses);
        let mut fresh = order.into_iter();
        while queries.len() < total {
            // Sequential sampling: exactly `misses` first asks, spread
            // uniformly over the stream.
            let left = total - queries.len();
            let first = seen.is_empty() || rng.below(left) < misses - seen.len();
            let job = if first {
                let j = fresh.next().expect("a fresh job remains");
                seen.push(j);
                j
            } else {
                seen[rng.below(seen.len())]
            };
            queries.push(Query { job, tune: job >= simulate_jobs, first });
        }
        QueryStream { jobs, simulate_jobs, queries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_batches_repeat_for_a_seed_and_differ_across_seeds() {
        let a = LmBatches::new(7, 16, 16, 5, 2, 24);
        assert_eq!(a, LmBatches::new(7, 16, 16, 5, 2, 24));
        assert_ne!(a, LmBatches::new(8, 16, 16, 5, 2, 24));
        assert_ne!(a.get(0), a.get(1), "batches must differ");
        assert!(a.get(23).iter().all(|&t| t < 16));
        assert_eq!(a.get(23).len(), 2 * 6);
    }

    #[test]
    fn query_stream_repeats_for_a_seed_and_differs_across_seeds_and_clients() {
        let stream =
            |seed, client| QueryStream::new(seed, client, 0.75, simulate_pool(), tune_pool());
        let a = stream(11, 0);
        assert_eq!(a, stream(11, 0));
        assert_ne!(a.queries, stream(12, 0).queries);
        assert_ne!(a.queries, stream(11, 1).queries);
    }

    #[test]
    fn deal_gives_each_client_one_job_of_every_pair_alternating() {
        for pool in [simulate_pool(), tune_pool()] {
            let [a, b] = deal(pool.clone());
            assert_eq!((a.len(), b.len()), (pool.len() / 2, pool.len() / 2));
            for (k, pair) in pool.chunks(2).enumerate() {
                assert_eq!(pair[0].strategy, pair[1].strategy);
                assert_eq!((pair[0].micro_batch, pair[1].micro_batch), (4, 8));
                let (got4, got8) = if k % 2 == 0 { (&a, &b) } else { (&b, &a) };
                assert_eq!((&got4[k], &got8[k]), (&pair[0], &pair[1]));
            }
        }
    }

    #[test]
    fn query_stream_asks_every_job_once_as_a_miss_and_repeats_the_rest() {
        let s = QueryStream::new(3, 0, 0.75, simulate_pool(), tune_pool());
        let firsts: Vec<usize> = s.queries.iter().filter(|q| q.first).map(|q| q.job).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..s.jobs.len()).collect::<Vec<_>>(), "each job is a miss once");
        let share = 1.0 - firsts.len() as f64 / s.queries.len() as f64;
        assert!((share - 0.75).abs() < 0.01, "repeat share {share}");
        let mut seen = vec![false; s.jobs.len()];
        for q in &s.queries {
            assert_eq!(q.first, !seen[q.job], "a repeat must follow its first ask");
            assert_eq!(q.tune, q.job >= s.simulate_jobs);
            seen[q.job] = true;
        }
    }
}
