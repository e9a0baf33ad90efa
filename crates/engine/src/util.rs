//! The order-preserving parallel map the backends share — and the only
//! `unsafe` in the crate (`lib.rs` denies it everywhere else).

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An output buffer that workers fill by index, each slot written
/// exactly once, then assembled into a `Vec<T>` in input order.
struct IndexedOut<T> {
    slots: Vec<MaybeUninit<T>>,
}

/// Raw writer handle workers share (`&IndexedWriter` is `Sync`).
struct IndexedWriter<T> {
    ptr: *mut MaybeUninit<T>,
}

// SAFETY: workers write disjoint indices; synchronization is provided
// by the thread scope join before `finish` reads the slots.
unsafe impl<T: Send> Send for IndexedWriter<T> {}
unsafe impl<T: Send> Sync for IndexedWriter<T> {}

impl<T> IndexedOut<T> {
    /// Allocates `len` uninitialized slots.
    fn new(len: usize) -> IndexedOut<T> {
        let mut slots = Vec::with_capacity(len);
        // SAFETY: MaybeUninit contents may be left uninitialized.
        unsafe { slots.set_len(len) };
        IndexedOut { slots }
    }

    /// The shared writer for worker threads.
    fn writer(&mut self) -> IndexedWriter<T> {
        IndexedWriter {
            ptr: self.slots.as_mut_ptr(),
        }
    }

    /// Reclaims the buffer as a fully initialized vector.
    ///
    /// # Safety
    /// Every index in `0..len` must have been written exactly once via
    /// [`IndexedWriter::write`], and all writers must be dead (threads
    /// joined).
    unsafe fn finish(self) -> Vec<T> {
        let mut slots = self.slots;
        let ptr = slots.as_mut_ptr() as *mut T;
        let len = slots.len();
        let cap = slots.capacity();
        std::mem::forget(slots);
        // SAFETY: same allocation, identical layout, all slots init.
        unsafe { Vec::from_raw_parts(ptr, len, cap) }
    }
}

impl<T> IndexedWriter<T> {
    /// Stores `value` at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds and written by exactly one worker.
    unsafe fn write(&self, index: usize, value: T) {
        // SAFETY: caller guarantees bounds and exclusivity.
        unsafe { (*self.ptr.add(index)).write(value) };
    }
}

/// Maps `f` over `items` with a pool of `threads` scoped workers,
/// preserving input order in the result. Work is handed out in chunks
/// through a shared counter (the same alignment-granularity scheduling
/// the wavefront batch path uses).
pub fn parallel_map<I, T, F>(items: &[I], threads: usize, chunk: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let chunk = chunk.max(1);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let mut out = IndexedOut::new(items.len());
    let writer = out.writer();
    let next = AtomicUsize::new(0);
    {
        let writer = &writer;
        let next = &next;
        let f = &f;
        std::thread::scope(|sc| {
            for _ in 0..threads {
                sc.spawn(move || loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    for (k, item) in items[start..end].iter().enumerate() {
                        // SAFETY: chunk ranges are disjoint across
                        // workers and cover each index once.
                        unsafe { writer.write(start + k, f(item)) };
                    }
                });
            }
        });
    }
    // SAFETY: the counter handed out every index exactly once and the
    // scope joined all writers.
    unsafe { out.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = parallel_map(&items, 8, 7, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single_thread() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, 16, |&x| x).is_empty());
        let one = vec![41u32];
        assert_eq!(parallel_map(&one, 1, 16, |&x| x + 1), vec![42]);
    }

    #[test]
    fn parallel_map_non_copy_values() {
        let items: Vec<usize> = (0..100).collect();
        let strings = parallel_map(&items, 4, 3, |&x| format!("v{x}"));
        assert_eq!(strings[99], "v99");
        assert_eq!(strings.len(), 100);
    }
}
