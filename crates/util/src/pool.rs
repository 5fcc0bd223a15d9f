//! A scoped fork/join helper: evaluation clients fork their client threads
//! with [`scoped_indexed`].

/// Runs `f` on `threads` scoped threads, passing each its index, and returns
/// the per-thread results in index order. This is the fork/join primitive the
/// benchmark clients use for the "number of client threads" parameter.
pub fn scoped_indexed<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|i| scope.spawn(move || f(i))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_indexed_returns_in_order() {
        let results = scoped_indexed(8, |i| i * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn scoped_indexed_clamps_to_one() {
        assert_eq!(scoped_indexed(0, |i| i), vec![0]);
    }
}
