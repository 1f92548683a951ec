//! # fdb-bench
//!
//! The experiment harness: one runner per table/figure of the paper,
//! shared between the `src/bin` table binaries and the Criterion benches.
//! The experiment index (DESIGN.md §7) maps each paper artifact to its
//! runner and test-scale guard; the end-to-end benchmark is `benchmark/`.

pub mod datasets4;
pub mod fig3;
pub mod fig4_ivm;
pub mod fig4_speedup;
pub mod fig5;
pub mod fig6;
pub mod ineq_scaling;

use std::time::Instant;

/// Serializes wall-clock-sensitive measurements: the test runner executes
/// tests in parallel, and concurrent heavy tests skew each other's
/// timings. Timing-based assertions grab this lock first.
pub fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Times a closure, returning `(seconds, result)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Formats seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(b: usize) -> String {
    if b < 1 << 10 {
        format!("{b} B")
    } else if b < 1 << 20 {
        format!("{:.1} KB", b as f64 / 1024.0)
    } else if b < 1 << 30 {
        format!("{:.1} MB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.2} GB", b as f64 / (1 << 30) as f64)
    }
}

/// Prints a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> =
            cells.iter().enumerate().map(|(i, c)| format!("{c:<w$}", w = widths[i])).collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert!(fmt_secs(0.0000005).contains("µs"));
        assert!(fmt_secs(0.005).contains("ms"));
        assert!(fmt_secs(2.5).contains("s"));
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(2048).contains("KB"));
        assert!(fmt_bytes(3 << 20).contains("MB"));
    }

    #[test]
    fn timing_returns_result() {
        let (secs, v) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
