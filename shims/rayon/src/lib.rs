//! Offline stand-in for the `rayon` crate.
//!
//! The repro harness only uses `slice.par_iter().map(f).collect::<Vec<_>>()`
//! to run *independent simulations* of a parameter sweep concurrently. This
//! shim provides exactly that shape on `std::thread::scope`: the input is
//! chunked across the available cores, each chunk is mapped on its own
//! thread, and results come back in input order — the same observable
//! behaviour as rayon's indexed parallel collect.

/// The subset of `rayon::prelude` the workspace imports.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParIter, ParMap};
}

/// Types whose references can be iterated in parallel (slices, arrays,
/// `Vec` via deref).
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by reference.
    type Item: 'a;
    /// A parallel iterator borrowing `self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each element through `f` (run in parallel at collect time).
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`]; runs the map on `collect`.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Evaluate the map in parallel, preserving input order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<R>,
    {
        let n = self.items.len();
        if n == 0 {
            return std::iter::empty().collect();
        }
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n);
        let chunk = n.div_ceil(threads);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let f = &self.f;
        std::thread::scope(|s| {
            for (inputs, outputs) in self.items.chunks(chunk).zip(out.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (i, o) in inputs.iter().zip(outputs.iter_mut()) {
                        *o = Some(f(i));
                    }
                });
            }
        });
        out.into_iter().map(|o| o.expect("mapped")).collect()
    }
}
