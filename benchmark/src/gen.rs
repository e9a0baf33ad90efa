//! Seeded input generation: synthetic references, a Mason-like read
//! model, and the duplicate / re-send schedules of `reads_dup` and
//! `serve_mixed`. Depends on nothing but [`crate::rng`], so the load is
//! a function of `--seed` alone.

use crate::rng::{Fnv, Rng};

/// Sequence pairs in one arena: `codes[q_off..s_off]` is the query,
/// `codes[s_off..end]` the subject.
#[derive(Default)]
pub struct Pool {
    codes: Vec<u8>,
    spans: Vec<[u32; 3]>,
}

impl Pool {
    pub fn push(&mut self, q: &[u8], s: &[u8]) {
        let q_off = self.codes.len() as u32;
        self.codes.extend_from_slice(q);
        let s_off = self.codes.len() as u32;
        self.codes.extend_from_slice(s);
        self.spans.push([q_off, s_off, self.codes.len() as u32]);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn pair(&self, i: usize) -> (&[u8], &[u8]) {
        let [q_off, s_off, end] = self.spans[i];
        (
            &self.codes[q_off as usize..s_off as usize],
            &self.codes[s_off as usize..end as usize],
        )
    }

    pub fn cells(&self, i: usize) -> u64 {
        let (q, s) = self.pair(i);
        q.len() as u64 * s.len() as u64
    }

    pub fn hash_into(&self, h: &mut Fnv) {
        h.bytes(&self.codes);
        for span in &self.spans {
            h.word(span[1] as u64);
            h.word(span[2] as u64);
        }
    }
}

/// Illumina-style error profile; the numbers mirror the program's
/// `ReadSimProfile::default()` (150 bp, substitutions ramping 0.1 % →
/// 1 % along the read, 0.02 % insertions and deletions per base).
pub struct ReadModel {
    pub len: usize,
    pub sub_start: f64,
    pub sub_end: f64,
    pub ins: f64,
    pub del: f64,
}

pub const PAPER_READS: ReadModel = ReadModel {
    len: 150,
    sub_start: 0.001,
    sub_end: 0.01,
    ins: 0.0002,
    del: 0.0002,
};

pub fn genome(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.base()).collect()
}

fn other_base(rng: &mut Rng, base: u8) -> u8 {
    (base + 1 + rng.below(3) as u8) % 4
}

/// "Sequences" a perfect template under `model`, appending to `out`.
fn sequence_read(rng: &mut Rng, template: &[u8], model: &ReadModel, out: &mut Vec<u8>) {
    let last = template.len().saturating_sub(1).max(1) as f64;
    for (i, &base) in template.iter().enumerate() {
        if rng.chance(model.del) {
            continue;
        }
        if rng.chance(model.ins) {
            out.push(rng.base());
        }
        let sub = model.sub_start + i as f64 / last * (model.sub_end - model.sub_start);
        out.push(if rng.chance(sub) {
            other_base(rng, base)
        } else {
            base
        });
    }
}

fn rev_comp(codes: &[u8]) -> Vec<u8> {
    codes.iter().rev().map(|&b| 3 - b).collect()
}

const REFERENCE_LEN: usize = 1 << 20;

/// `n` read pairs: two reads of one locus with independent errors, the
/// second sequenced from the opposite strand half of the time and
/// flipped back (the paper's use case (ii)).
pub fn read_pool(seed: u64, n: usize) -> Pool {
    let mut rng = Rng::new(seed, 1);
    let reference = genome(&mut rng, REFERENCE_LEN);
    let model = &PAPER_READS;
    let mut pool = Pool::default();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let at = rng.below(REFERENCE_LEN - model.len + 1);
        let template = &reference[at..at + model.len];
        a.clear();
        b.clear();
        sequence_read(&mut rng, template, model, &mut a);
        if rng.chance(0.5) {
            sequence_read(&mut rng, template, model, &mut b);
        } else {
            sequence_read(&mut rng, &rev_comp(template), model, &mut b);
            b = rev_comp(&b);
        }
        pool.push(&a, &b);
    }
    pool
}

pub const TRIM_MIN: usize = 50;
pub const TRIM_MAX: usize = 150;

/// `n` (read, window) pairs for semi-global mapping: reads trimmed to
/// a uniform 50–150 bp, each inside a reference window 1.5× its length.
pub fn contained_pool(seed: u64, n: usize) -> Pool {
    let mut rng = Rng::new(seed, 2);
    let reference = genome(&mut rng, REFERENCE_LEN);
    let mut pool = Pool::default();
    let mut read = Vec::new();
    for _ in 0..n {
        let len = rng.between(TRIM_MIN, TRIM_MAX);
        let window = len * 3 / 2;
        let at = rng.below(REFERENCE_LEN - window + 1);
        let offset = rng.below(window - len + 1);
        read.clear();
        sequence_read(
            &mut rng,
            &reference[at + offset..at + offset + len],
            &PAPER_READS,
            &mut read,
        );
        pool.push(&read, &reference[at..at + window]);
    }
    pool
}

/// `n` long pairs of exactly `len` × `len` bases at `divergence`
/// (80 % substitutions, 10 % short insertions, 10 % short deletions),
/// so the cell count does not depend on the seed.
pub fn long_pool(seed: u64, n: usize, len: usize, divergence: f64) -> Pool {
    let mut rng = Rng::new(seed, 3);
    let mut pool = Pool::default();
    for _ in 0..n {
        let q = genome(&mut rng, len);
        let mut s = Vec::with_capacity(len + 8);
        let mut i = 0;
        while i < len {
            if !rng.chance(divergence) {
                s.push(q[i]);
                i += 1;
                continue;
            }
            match rng.below(10) {
                0 => (0..rng.between(1, 6)).for_each(|_| s.push(rng.base())),
                1 => i += rng.between(1, 6),
                _ => {
                    s.push(other_base(&mut rng, q[i]));
                    i += 1;
                }
            }
        }
        s.resize_with(len, || rng.base());
        pool.push(&q, &s);
    }
    pool
}

/// Stated composition of every `reads_dup` batch: first-seen content,
/// duplicates of that batch's own content, and repeats of what earlier
/// batches sent (the rest).
pub const DUP_FIRST_SEEN: f64 = 0.50;
pub const DUP_IN_BATCH: f64 = 0.25;
/// Repeats re-send content first seen at most this many batches ago.
pub const DUP_REPEAT_WINDOW: usize = 8;

/// The `reads_dup` batch stream as indices into a pool of
/// `calls × batch / 2` first-seen pairs, in shuffled order. Repeats
/// within one batch are distinct, so each is a repeat and not also an
/// in-batch duplicate; the first batch, having no history, doubles its
/// in-batch duplicates instead.
pub fn dup_schedule(seed: u64, calls: usize, batch: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed, 4);
    let fresh = (batch as f64 * DUP_FIRST_SEEN) as usize;
    let in_batch = (batch as f64 * DUP_IN_BATCH) as usize;
    (0..calls)
        .map(|k| {
            let own = k * fresh;
            let history = k.saturating_sub(DUP_REPEAT_WINDOW) * fresh;
            let mut idx: Vec<u32> = (own..own + fresh).map(|i| i as u32).collect();
            let mut repeated = std::collections::HashSet::new();
            while idx.len() < batch {
                if idx.len() < fresh + in_batch || k == 0 {
                    idx.push((own + rng.below(fresh)) as u32);
                } else {
                    let pick = (history + rng.below(own - history)) as u32;
                    if repeated.insert(pick) {
                        idx.push(pick);
                    }
                }
            }
            for i in (1..batch).rev() {
                idx.swap(i, rng.below(i + 1));
            }
            idx
        })
        .collect()
}

/// Measured `(first-seen, in-batch duplicate, repeat)` shares of a
/// batch stream — counted from the stream itself, not from the
/// constants that built it.
pub fn dup_shares(schedule: &[Vec<u32>]) -> (f64, f64, f64) {
    let pool = schedule
        .iter()
        .flatten()
        .max()
        .map_or(0, |&m| m as usize + 1);
    let mut last_batch = vec![usize::MAX; pool];
    let (mut first, mut in_batch, mut repeat) = (0u64, 0u64, 0u64);
    for (k, batch) in schedule.iter().enumerate() {
        for &i in batch {
            match last_batch[i as usize] {
                usize::MAX => first += 1,
                seen if seen == k => in_batch += 1,
                _ => repeat += 1,
            }
            last_batch[i as usize] = k;
        }
    }
    let total = (first + in_batch + repeat).max(1) as f64;
    (
        first as f64 / total,
        in_batch as f64 / total,
        repeat as f64 / total,
    )
}

/// Stated share of `serve_mixed` pairs that re-send earlier content.
pub const SERVE_RESEND: f64 = 0.20;
/// A re-send repeats content sent at most this many pairs earlier
/// (counted over all connections).
pub const SERVE_RESEND_WINDOW: usize = 4096;

/// Per-connection pair streams for `serve_mixed` as indices into a
/// pool of first-seen pairs (returned count): each position re-sends,
/// with probability [`SERVE_RESEND`], what the same connection sent up
/// to `SERVE_RESEND_WINDOW / conns` positions earlier, and is
/// first-seen content otherwise.
pub fn serve_schedule(seed: u64, conns: usize, pairs_per_conn: usize) -> (Vec<Vec<u32>>, usize) {
    let mut rng = Rng::new(seed, 5);
    let window = SERVE_RESEND_WINDOW / conns;
    let mut fresh = 0u32;
    let streams = (0..conns)
        .map(|_| {
            let mut stream: Vec<u32> = Vec::with_capacity(pairs_per_conn);
            for p in 0..pairs_per_conn {
                if p > 0 && rng.chance(SERVE_RESEND) {
                    stream.push(stream[p - rng.between(1, window.min(p))]);
                } else {
                    stream.push(fresh);
                    fresh += 1;
                }
            }
            stream
        })
        .collect();
    (streams, fresh as usize)
}

/// Measured share of stream positions that carry already-sent content.
pub fn resend_share(streams: &[Vec<u32>]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let total: usize = streams.iter().map(Vec::len).sum();
    let resent = streams
        .iter()
        .flatten()
        .filter(|&&i| !seen.insert(i))
        .count();
    resent as f64 / total.max(1) as f64
}

pub fn hash_schedule(schedule: &[Vec<u32>], h: &mut Fnv) {
    for stream in schedule {
        h.word(stream.len() as u64);
        stream.iter().for_each(|&i| h.word(i as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_hash(pool: &Pool) -> u64 {
        let mut h = Fnv::new();
        pool.hash_into(&mut h);
        h.0
    }

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        type Build = fn(u64) -> Pool;
        let builders: [Build; 3] = [
            |s| read_pool(s, 300),
            |s| contained_pool(s, 300),
            |s| long_pool(s, 2, 3000, 0.02),
        ];
        for build in builders {
            assert_eq!(pool_hash(&build(11)), pool_hash(&build(11)));
            assert_ne!(pool_hash(&build(11)), pool_hash(&build(12)));
        }
        let schedule_hash = |seed| {
            let mut h = Fnv::new();
            hash_schedule(&dup_schedule(seed, 4, 64), &mut h);
            hash_schedule(&serve_schedule(seed, 2, 500).0, &mut h);
            h.0
        };
        assert_eq!(schedule_hash(11), schedule_hash(11));
        assert_ne!(schedule_hash(11), schedule_hash(12));
    }

    #[test]
    fn reads_follow_the_paper_profile() {
        let pool = read_pool(3, 4000);
        let mut equal_len = 0usize;
        let mut mismatches = 0usize;
        for i in 0..pool.len() {
            let (q, s) = pool.pair(i);
            assert!((140..=160).contains(&q.len()) && (140..=160).contains(&s.len()));
            assert!(q.iter().chain(s).all(|&b| b < 4));
            if q.len() == 150 && s.len() == 150 {
                equal_len += 1;
                mismatches += q.iter().zip(s).filter(|(a, b)| a != b).count();
            }
        }
        // No indel in either read: (1 − 0.0004)^300 ≈ 89 %.
        let share = equal_len as f64 / pool.len() as f64;
        assert!((0.85..0.93).contains(&share), "indel-free share {share}");
        // Indel-free pairs differ by two reads' substitutions, ≈ 1.1 %
        // of positions (a hidden insertion + deletion pair adds a few).
        let rate = mismatches as f64 / (equal_len * 150) as f64;
        assert!((0.008..0.016).contains(&rate), "mismatch rate {rate}");
    }

    #[test]
    fn long_pairs_have_exact_length_and_stated_divergence() {
        let pool = long_pool(5, 2, 6_000, 0.02);
        for i in 0..pool.len() {
            let (q, s) = pool.pair(i);
            assert_eq!((q.len(), s.len()), (6_000, 6_000));
            // 1.6 % substitutions (−3 each against a match) and 0.4 %
            // short indels (≈ −8 each) leave about 1.92 per base of
            // the perfect 2.
            let per_base = crate::oracle::Sch::GlobalAffine.score(q, s) as f64 / 6_000.0;
            assert!(
                (1.85..1.97).contains(&per_base),
                "score per base {per_base}"
            );
        }
    }

    #[test]
    fn serve_lengths_are_uniform_trimmed_reads_in_wider_windows() {
        let pool = contained_pool(7, 20_000);
        let mut histogram = [0usize; TRIM_MAX + 1];
        for i in 0..pool.len() {
            let (q, s) = pool.pair(i);
            // The window is 1.5× the untrimmed template; read indels
            // move the read length by a base or two at most.
            assert!((TRIM_MIN * 3 / 2..=TRIM_MAX * 3 / 2).contains(&s.len()));
            assert!(
                q.len().abs_diff(s.len() * 2 / 3) <= 3,
                "{} in {}",
                q.len(),
                s.len()
            );
            histogram[(s.len() * 2).div_ceil(3).min(TRIM_MAX)] += 1;
        }
        let expected = pool.len() as f64 / (TRIM_MAX - TRIM_MIN + 1) as f64;
        for (len, &count) in histogram.iter().enumerate().skip(TRIM_MIN) {
            assert!(
                (count as f64) > expected * 0.7 && (count as f64) < expected * 1.3,
                "length {len}: {count} pairs, expected about {expected}"
            );
        }
    }

    #[test]
    fn dup_shares_match_the_stated_ones() {
        let schedule = dup_schedule(11, 16, 8192);
        assert!(schedule.iter().all(|b| b.len() == 8192));
        let (first, in_batch, repeat) = dup_shares(&schedule);
        assert!((first - DUP_FIRST_SEEN).abs() < 0.02, "first-seen {first}");
        assert!(
            (in_batch - DUP_IN_BATCH).abs() < 0.02,
            "in-batch {in_batch}"
        );
        let stated_repeat = 1.0 - DUP_FIRST_SEEN - DUP_IN_BATCH;
        assert!((repeat - stated_repeat).abs() < 0.02, "repeat {repeat}");
    }

    #[test]
    fn dup_repeats_stay_inside_the_window() {
        let schedule = dup_schedule(3, 12, 256);
        for (k, batch) in schedule.iter().enumerate() {
            let oldest = k.saturating_sub(DUP_REPEAT_WINDOW) * 128;
            assert!(batch
                .iter()
                .all(|&i| (oldest..(k + 1) * 128).contains(&(i as usize))));
        }
    }

    #[test]
    fn serve_resend_share_matches_the_stated_one() {
        let (streams, fresh) = serve_schedule(11, 2, 100_000);
        assert!((resend_share(&streams) - SERVE_RESEND).abs() < 0.02);
        let max = streams.iter().flatten().max().unwrap();
        assert_eq!(*max as usize + 1, fresh);
        // A re-send never reaches further back than the window.
        for stream in &streams {
            let mut last = std::collections::HashMap::new();
            for (p, &i) in stream.iter().enumerate() {
                if let Some(prev) = last.insert(i, p) {
                    assert!(p - prev <= SERVE_RESEND_WINDOW / 2);
                }
            }
        }
    }
}
