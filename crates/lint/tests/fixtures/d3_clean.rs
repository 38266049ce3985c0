//! D3 fixture: sanctioned shapes — scoped pool spawns, a suppressed
//! call with a reason, and test modules.

pub fn scoped_ok(xs: &[u64]) -> u64 {
    // Scope-style spawns (`scope.spawn`) are the shape `parallel.rs`
    // uses; they do not match `thread :: spawn`.
    std::thread::scope(|scope| {
        let h = scope.spawn(|| xs.iter().sum::<u64>());
        h.join().unwrap_or(0)
    })
}

pub fn suppressed() {
    let h = std::thread::spawn(|| 1u64); // gsf-lint: allow(D3) -- one-off migration shim, removed next PR
    let _ = h.join();
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_thread() {
        let h = std::thread::spawn(|| 2u64);
        assert_eq!(h.join().unwrap(), 2);
    }
}
