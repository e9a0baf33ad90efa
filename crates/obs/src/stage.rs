//! The fixed stage taxonomy of the batch pipeline.
//!
//! Every span recorded anywhere in the pipeline is tagged with exactly
//! one of these stages. The taxonomy is closed on purpose: a fixed enum
//! keeps span records `Copy`, lets exporters pre-allocate, and keeps the
//! `stage.<name>_ns` counter namespace stable across releases — the
//! bench report validator requires all ten keys to be present.

use std::fmt;

/// One stage of the batch pipeline, in rough pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// A worker lane waiting for a unit to become available (also used
    /// for the coordinator thread, once it has no unit left to pull,
    /// blocking on the worker pool join).
    QueueWait,
    /// Deriving content-hash cache keys for a chunk of pairs.
    Hash,
    /// Folding in-batch duplicates onto their first occurrence: one
    /// pass over the batch's keys on the coordinator, between hashing
    /// and the cache probe.
    Dedup,
    /// Probing the result cache with the leaders' already-derived keys.
    CacheProbe,
    /// Gathering borrowed `PairRef`s for one unit (index indirection,
    /// never sequence bytes).
    Gather,
    /// The SIMD lane transpose — the one accounted sequence-byte copy.
    Transpose,
    /// The DP matrix relaxation itself (score pass).
    Kernel,
    /// Alignment path reconstruction (banded passes + decode, or the
    /// scalar/wavefront equivalent).
    Traceback,
    /// Inserting freshly computed results into the cache.
    CacheInsert,
    /// Folding per-worker stats, spans, and counters into the batch
    /// totals at the end of a run, scattering values into their result
    /// slots and handing in-batch duplicates their leader's value.
    Merge,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::QueueWait,
        Stage::Hash,
        Stage::Dedup,
        Stage::CacheProbe,
        Stage::Gather,
        Stage::Transpose,
        Stage::Kernel,
        Stage::Traceback,
        Stage::CacheInsert,
        Stage::Merge,
    ];

    /// The stage's snake_case name, used as the `stage` label value in
    /// metrics and as the event name in Chrome traces.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Hash => "hash",
            Stage::Dedup => "dedup",
            Stage::CacheProbe => "cache_probe",
            Stage::Gather => "gather",
            Stage::Transpose => "transpose",
            Stage::Kernel => "kernel",
            Stage::Traceback => "traceback",
            Stage::CacheInsert => "cache_insert",
            Stage::Merge => "merge",
        }
    }

    /// The additive `BatchStats` counter key (`stage.<name>_ns`) that
    /// accumulates this stage's total span time.
    pub const fn counter_key(self) -> &'static str {
        match self {
            Stage::QueueWait => "stage.queue_wait_ns",
            Stage::Hash => "stage.hash_ns",
            Stage::Dedup => "stage.dedup_ns",
            Stage::CacheProbe => "stage.cache_probe_ns",
            Stage::Gather => "stage.gather_ns",
            Stage::Transpose => "stage.transpose_ns",
            Stage::Kernel => "stage.kernel_ns",
            Stage::Traceback => "stage.traceback_ns",
            Stage::CacheInsert => "stage.cache_insert_ns",
            Stage::Merge => "stage.merge_ns",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_counter_keys_are_unique() {
        let names: BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        let keys: BTreeSet<_> = Stage::ALL.iter().map(|s| s.counter_key()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
        assert_eq!(keys.len(), Stage::ALL.len());
        for s in Stage::ALL {
            assert_eq!(s.counter_key(), format!("stage.{}_ns", s.name()));
        }
    }
}
