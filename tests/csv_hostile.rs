//! Hostile CSV input stays bounded: it parses to an empty relation or
//! fails with a typed `DataError::Csv`, never panics or wraps, and the
//! reader's live heap never exceeds a small multiple of the input.
//!
//! The heap is measured by a counting global allocator, so this binary
//! holds a single test: nothing else allocates while it measures.

use fdb::data::{read_csv, AttrType, DataError, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak heap growth during it.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

#[test]
fn hostile_inputs_are_empty_or_typed_errors_within_linear_memory() {
    let schema = Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]);
    let wide = Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Int),
        ("d", AttrType::Int),
        ("e", AttrType::Int),
        ("f", AttrType::Int),
    ]);
    const MIB: usize = 1 << 20;
    let digits = |n: usize| vec![b'1'; n];
    let mut huge_field = digits(MIB);
    huge_field.extend_from_slice(b",0.5\n");
    let mut huge_negative = vec![b'-'];
    huge_negative.extend_from_slice(&huge_field);
    let cases: Vec<(&str, &Schema, Vec<u8>, Option<usize>)> = vec![
        ("8 MiB of newlines", &schema, vec![b'\n'; 8 * MIB], None),
        ("one 8 MiB line of digits", &schema, digits(8 * MIB), Some(1)),
        ("one 8 MiB line of letters", &schema, vec![b'a'; 8 * MIB], Some(1)),
        ("a 1M-digit integer", &schema, huge_field, Some(1)),
        ("a 1M-digit negative integer", &schema, huge_negative, Some(1)),
        // The densest lines a byte count allows under a six-column
        // schema, in one unit: sized by its lines, the reservation would
        // be 24 bytes per input byte; it is capped by what the bytes can
        // hold as six-field records.
        ("1 MiB of one-field lines", &wide, b"1\n".repeat(MIB / 2), Some(1)),
    ];
    for (what, schema, bytes, want_line) in cases {
        let (got, peak) = peak_during(|| read_csv(schema.clone(), &bytes));
        match (got, want_line) {
            (Ok(rel), None) => assert!(rel.is_empty(), "{what}"),
            (Err(DataError::Csv { line, message }), Some(want)) => {
                assert_eq!(line, want, "{what}");
                assert!(message.len() < 200, "{what}: the message quotes a bounded prefix");
            }
            (got, want) => panic!("{what}: got {got:?}, want an error at line {want:?}"),
        }
        assert!(
            peak <= 4 * bytes.len() + 4 * MIB,
            "{what}: {peak} bytes of heap for {} bytes of input",
            bytes.len()
        );
    }
}
