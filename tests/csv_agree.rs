//! The CSV reader agrees with a row-at-a-time reference reader.
//!
//! `fdb::data::read_csv` is one fused, typed, unit-parallel pass. The
//! oracle below is the plainest reading of the same grammar: split on `\n`
//! and `,`, then `str::parse` per field. On every input — well-formed or
//! corrupted — the two must agree: when the reader returns `Ok`, its
//! columns equal the oracle's bit for bit; when it returns `Err`, the
//! oracle fails too, on the same line. Inputs above one unit
//! (`csv::UNIT_BYTES`) run the unit split, so some cases are several units
//! long and the line-number cases put the bad row next to a cut.

use fdb::data::csv::UNIT_BYTES;
use fdb::data::{read_csv, AttrType, Column, DataError, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference reader: the row-at-a-time semantics the fused reader
/// must keep. `Err` carries the 1-based line of the first bad record.
fn oracle(schema: &Schema, bytes: &[u8]) -> Result<Vec<Column>, usize> {
    let mut cols: Vec<Column> = schema
        .attrs()
        .iter()
        .map(|a| if a.ty.is_int_backed() { Column::Int(vec![]) } else { Column::F64(vec![]) })
        .collect();
    for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&[u8]> = line.split(|&b| b == b',').collect();
        if fields.len() != cols.len() {
            return Err(i + 1);
        }
        for (col, field) in cols.iter_mut().zip(fields) {
            let text = std::str::from_utf8(field).map_err(|_| i + 1)?;
            match col {
                Column::Int(v) => v.push(text.parse().map_err(|_| i + 1)?),
                Column::F64(v) => v.push(text.parse().map_err(|_| i + 1)?),
            }
        }
    }
    Ok(cols)
}

/// Runs both readers and checks they agree; returns the oracle's outcome.
fn assert_agrees(schema: &Schema, bytes: &[u8], what: &str) -> Result<usize, usize> {
    let want = oracle(schema, bytes);
    match (read_csv(schema.clone(), bytes), &want) {
        (Ok(rel), Ok(cols)) => {
            for (c, col) in cols.iter().enumerate() {
                match (rel.col(c), col) {
                    (Column::Int(got), Column::Int(want)) => {
                        assert_eq!(got, want, "{what} col {c}")
                    }
                    (Column::F64(got), Column::F64(want)) => {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(want), "{what} col {c}");
                    }
                    _ => panic!("{what}: column {c} has the wrong backing type"),
                }
            }
            Ok(rel.len())
        }
        (Err(DataError::Csv { line, .. }), Err(want_line)) => {
            assert_eq!(line, *want_line, "{what}: error line");
            Err(line)
        }
        (got, want) => panic!("{what}: reader {got:?}, oracle {want:?}"),
    }
}

/// Integer renderings: extremes, signs, leading zeros and a `+`.
fn int_text(rng: &mut StdRng) -> String {
    let v: i64 = match rng.gen_range(0..8u32) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => rng.gen_range(-10..10i64),
        _ => rng.gen_range(i64::MIN / 2..i64::MAX / 2),
    };
    match rng.gen_range(0..10u32) {
        0 if v >= 0 => format!("+{v}"),
        1 if v >= 0 => format!("00{v}"),
        2 if v < 0 => format!("-0{}", v.unsigned_abs()),
        _ => v.to_string(),
    }
}

/// Float renderings: signed zeros, NaN, infinities, subnormals,
/// `f64::MAX`, exponent forms, a leading `+` and bare-dot forms.
fn float_text(rng: &mut StdRng) -> String {
    const SPECIAL: &[&str] = &[
        "0",
        "-0",
        "0.0",
        "-0.0",
        "NaN",
        "nan",
        "inf",
        "-inf",
        "+inf",
        "infinity",
        "-Infinity",
        "5e-324",
        "-5e-324",
        "2.2250738585072014e-308",
        "1e-310",
        "1.7976931348623157e308",
        "-1.7976931348623157e308",
        "+7",
        "1.",
        ".5",
        "-.5",
        "1E5",
        "1e+5",
        "1e-5",
    ];
    match rng.gen_range(0..6u32) {
        0 => SPECIAL[rng.gen_range(0..SPECIAL.len())].to_string(),
        1 => format!("{:e}", rng.gen_range(-1e300..1e300)),
        2 => rng.gen_range(-1000..1000i64).to_string(),
        _ => format!("{}", rng.gen_range(-1e6..1e6)),
    }
}

fn random_schema(rng: &mut StdRng) -> Schema {
    let names = ["a", "b", "c", "d", "e", "f"];
    let attrs: Vec<(&str, AttrType)> = names[..rng.gen_range(1..7usize)]
        .iter()
        .map(|&n| {
            let ty = match rng.gen_range(0..3u32) {
                0 => AttrType::Int,
                1 => AttrType::Categorical,
                _ => AttrType::Double,
            };
            (n, ty)
        })
        .collect();
    Schema::of(&attrs)
}

/// Well-formed CSV of at least `min_bytes` bytes (and `min_rows` rows).
fn render(rng: &mut StdRng, schema: &Schema, min_rows: usize, min_bytes: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rows = 0;
    while rows < min_rows || out.len() < min_bytes {
        for (c, a) in schema.attrs().iter().enumerate() {
            if c > 0 {
                out.push(b',');
            }
            let text = if a.ty.is_int_backed() { int_text(rng) } else { float_text(rng) };
            out.extend_from_slice(text.as_bytes());
        }
        out.push(b'\n');
        rows += 1;
    }
    out
}

/// A random line start of `bytes` (0 if there is none).
fn line_start(rng: &mut StdRng, bytes: &[u8]) -> usize {
    let p = rng.gen_range(0..bytes.len().max(1));
    bytes[..p].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// One corruption: a dropped, inserted or replaced byte (separators, CR,
/// signs, letters, non-ASCII and non-UTF-8 bytes), an empty field, an
/// extra field, blank lines, or no trailing newline.
fn corrupt(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    const NOISE: &[u8] =
        &[b',', b'\n', b'\r', b'-', b'+', b'.', b'e', b'x', b'0', b' ', 0xC3, 0xFF];
    if bytes.is_empty() {
        bytes.push(NOISE[rng.gen_range(0..NOISE.len())]);
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    let noise = NOISE[rng.gen_range(0..NOISE.len())];
    match rng.gen_range(0..9u32) {
        0 => {
            bytes.remove(at);
        }
        1 => bytes.insert(at, noise),
        2 => bytes[at] = noise,
        3 => {
            // CRLF line ending on one line.
            if let Some(nl) = bytes[at..].iter().position(|&b| b == b'\n') {
                bytes.insert(at + nl, b'\r');
            }
        }
        4 => {
            // A valid multi-byte UTF-8 character inside a field.
            bytes.splice(at..at, "é".bytes());
        }
        5 => {
            // An empty first field.
            let s = line_start(rng, bytes);
            bytes.insert(s, b',');
        }
        6 => {
            // An extra field at the end of a line.
            let nl = bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |i| at + i);
            bytes.splice(nl..nl, b",1".iter().copied());
        }
        7 => {
            let s = line_start(rng, bytes);
            bytes.splice(s..s, b"\n\n".iter().copied());
        }
        _ => {
            while bytes.last() == Some(&b'\n') {
                bytes.pop();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn reader_agrees_with_the_row_at_a_time_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        // One case in eight spans at least three units.
        let min_bytes = if rng.gen_range(0..8u32) == 0 { 2 * UNIT_BYTES + 4096 } else { 0 };
        let min_rows = rng.gen_range(0..40usize);
        let mut bytes = render(&mut rng, &schema, min_rows, min_bytes);
        if rng.gen_bool(0.7) {
            for _ in 0..rng.gen_range(1..4u32) {
                corrupt(&mut rng, &mut bytes);
            }
        }
        let _ = assert_agrees(&schema, &bytes, &format!("seed {seed}"));
    }
}

#[test]
fn well_formed_multi_unit_input_agrees_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(17);
    let schema = Schema::of(&[
        ("k", AttrType::Int),
        ("x", AttrType::Double),
        ("c", AttrType::Categorical),
        ("y", AttrType::Double),
    ]);
    let bytes = render(&mut rng, &schema, 0, 3 * UNIT_BYTES + 123);
    let rows = assert_agrees(&schema, &bytes, "3+ units").expect("well-formed");
    assert_eq!(rows, bytes.iter().filter(|&&b| b == b'\n').count());
}

/// Fixed-width rows so a same-length corruption moves no unit boundary.
fn fixed_rows(rows: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows * 24);
    for i in 0..rows {
        out.extend_from_slice(format!("{:09},{:012.6}\n", i, i as f64 / 7.0).as_bytes());
    }
    out
}

/// The unit starts the reader documents: the first `\n` at or after each
/// nominal cut `len / units * k`, plus one.
fn unit_starts(bytes: &[u8]) -> Vec<usize> {
    let units = bytes.len().div_ceil(UNIT_BYTES);
    let mut starts = vec![0];
    for k in 1..units {
        let nominal = (bytes.len() / units * k).max(*starts.last().unwrap());
        let nl = bytes[nominal..].iter().position(|&b| b == b'\n').unwrap();
        starts.push(nominal + nl + 1);
    }
    starts
}

#[test]
fn error_lines_are_global_across_unit_boundaries() {
    let schema = Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]);
    let mut clean = fixed_rows(5 * UNIT_BYTES / 23);
    assert!(clean.len() > 4 * UNIT_BYTES, "about 5 MB");
    let starts = unit_starts(&clean);
    assert!(starts.len() >= 5);
    let nominal = clean.len() / starts.len();
    assert_ne!(clean[nominal - 1], b'\n', "the nominal cut falls inside a line");
    let straddling = clean[..nominal].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    assert_eq!(assert_agrees(&schema, &clean, "clean"), Ok(clean.len() / 23));

    // The first line of the second unit, the line across its nominal
    // cut, and the last line (with its trailing newline removed).
    clean.pop();
    let last = clean.iter().rposition(|&b| b == b'\n').unwrap() + 1;
    for (what, at) in [("second unit", starts[1]), ("straddling", straddling), ("last", last)] {
        for bad in [b'x', b','] {
            let mut bytes = clean.clone();
            bytes[at + 3] = bad;
            let line = assert_agrees(&schema, &bytes, what).unwrap_err();
            assert_eq!(line, 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count(), "{what}");
        }
    }
    // Two bad rows: the first in input order is the one reported.
    let mut bytes = clean.clone();
    bytes[last + 3] = b'x';
    bytes[starts[1] + 3] = b'x';
    let line = assert_agrees(&schema, &bytes, "two errors").unwrap_err();
    assert_eq!(line, 1 + bytes[..starts[1]].iter().filter(|&&b| b == b'\n').count());
}

#[test]
fn boundary_values_parse_exactly() {
    let schema = Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]);
    let text = "-9223372036854775808,-0\n+9223372036854775807,NaN\n+7,inf\n-0,5e-324\n";
    assert_eq!(assert_agrees(&schema, text.as_bytes(), "extremes"), Ok(4));
    let rel = read_csv(schema.clone(), text.as_bytes()).unwrap();
    assert_eq!(rel.int_col(0), &[i64::MIN, i64::MAX, 7, 0]);
    assert_eq!(rel.f64_col(1)[0].to_bits(), (-0.0f64).to_bits());
    // The densest well-formed inputs, with no trailing newline: the rows
    // the reader sizes from the bytes must still hold every record.
    let one = Schema::of(&[("k", AttrType::Int)]);
    assert_eq!(assert_agrees(&one, b"1\n2\n3", "dense"), Ok(3));
    assert_eq!(assert_agrees(&schema, b"1,2\n3,4", "dense pairs"), Ok(2));
    // One past either extreme overflows; signs alone are not numbers.
    for bad in ["-9223372036854775809,1\n", "9223372036854775808,1\n", "+,1\n", "-,1\n", "+-1,1\n"]
    {
        assert_eq!(assert_agrees(&schema, bad.as_bytes(), bad), Err(1), "{bad}");
    }
}
