//! CSV import and export for relations: the ingest path.
//!
//! [`read_csv`] is how relations come in. Every training workload of the
//! benchmark starts its cold operation by parsing its tables from CSV
//! bytes (the paper's unit of work starts at "relations in"), and the
//! Figure 3 reproduction round-trips the materialized data matrix through
//! [`relation_to_csv`] and [`read_csv`] to simulate the structure-agnostic
//! pipeline's *export / import* step (the paper's "data move"
//! shortcoming), as a PostgreSQL → TensorFlow hand-off would.
//!
//! **Grammar.** No header, no quoting, no whitespace trimming. A record is
//! one line ended by `\n` (the last may lack it); empty lines are skipped
//! but still counted. A record holds exactly `arity` fields separated by
//! `,`. An `Int`/`Categorical` field is exactly what `str::parse::<i64>`
//! accepts: an optional `+` or `-`, then one or more ASCII digits, in
//! range. A `Double` field is an ASCII string handed to
//! `str::parse::<f64>`, so floats are bit-exact with the standard library
//! and `inf`/`NaN`/`-0` round-trip.
//!
//! **One fused, typed pass.** The parse walks the bytes once and writes
//! straight into the typed columns: integers accumulate while they are
//! scanned (checked arithmetic; negatives accumulate downward so
//! `i64::MIN` parses), and a float's field is scanned to its end, checked
//! to be ASCII along the way, and parsed in place. No `Value` is built, no
//! row is pushed, and no field gets a separate UTF-8 pass; the relation is
//! built from its finished columns with one content id.
//!
//! **Units.** Inputs above [`UNIT_BYTES`] are cut into units of about that
//! size that end on `\n`, run through [`run_stealing`] on
//! [`default_threads`] workers. A smaller input is one unit and parses on
//! the caller's thread. Before the parse, a vectorized scan counts each
//! unit's non-empty lines, capped by what its bytes can hold, so every
//! column is allocated once at its final length and each unit writes its
//! own range of rows, in unit order, with no concatenation copy. A unit
//! counts its lines locally; only on the error path is the count of `\n`
//! before the unit added, so the reported line is global and the error is
//! the first one in input order. The `csv-ingest` fault site runs once
//! per data row.

use crate::error::DataError;
use crate::relation::{Column, Relation};
use crate::sched::{default_threads, run_stealing};
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::sync::Mutex;

/// Bytes per parallel unit of [`read_csv`]: large enough that a unit's
/// parse dwarfs its scheduling, small enough that a 2-core host splits a
/// 27 MB table into plenty of stealable units.
pub const UNIT_BYTES: usize = 1 << 20;

/// Serializes a relation to CSV (no header) into `out`.
pub fn write_csv<W: Write>(rel: &Relation, out: W) -> Result<()> {
    let mut w = BufWriter::new(out);
    let arity = rel.schema().arity();
    let mut line = String::with_capacity(arity * 12);
    for r in 0..rel.len() {
        line.clear();
        for c in 0..arity {
            if c > 0 {
                line.push(',');
            }
            // `{}` prints integers exactly and floats shortest-roundtrip.
            match rel.value(r, c) {
                Value::Int(i) => write!(line, "{i}"),
                Value::F64(f) => write!(line, "{f}"),
            }
            .expect("write to String cannot fail");
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Serializes a relation to an in-memory CSV byte buffer and returns it.
pub fn relation_to_csv(rel: &Relation) -> Vec<u8> {
    let mut buf = Vec::with_capacity(rel.len() * rel.schema().arity() * 8);
    write_csv(rel, &mut buf).expect("writing to Vec cannot fail");
    buf
}

/// Parses CSV bytes into a relation with the given schema (grammar and
/// units in the module docs). Malformed input is a
/// [`DataError::Csv`] naming the first bad line, never a panic.
pub fn read_csv(schema: Schema, bytes: &[u8]) -> Result<Relation> {
    let starts = unit_starts(bytes);
    let unit = |i: usize| &bytes[starts[i]..starts.get(i + 1).copied().unwrap_or(bytes.len())];
    let (workers, arity) = (default_threads(), schema.arity());
    // Pass 1 sizes each unit's rows, so every column is allocated once at
    // its final length and each unit fills its own disjoint range of it.
    let rows = run_stealing(starts.len(), workers, |i| unit_rows(unit(i), arity))?;
    let total = rows.iter().sum();
    let mut cols: Vec<Column> = schema
        .attrs()
        .iter()
        .map(|a| {
            if a.ty.is_int_backed() {
                Column::Int(vec![0; total])
            } else {
                Column::F64(vec![0.0; total])
            }
        })
        .collect();
    // The block ends the units' borrows of `cols` before the relation
    // takes them.
    let parsed = {
        let mut dests: Vec<Vec<Dest<'_>>> =
            rows.iter().map(|_| Vec::with_capacity(arity)).collect();
        for col in &mut cols {
            match col {
                Column::Int(v) => split_rows(v, &rows, &mut dests, Dest::Int),
                Column::F64(v) => split_rows(v, &rows, &mut dests, Dest::F64),
            }
        }
        let dests: Vec<Mutex<Vec<Dest<'_>>>> = dests.into_iter().map(Mutex::new).collect();
        run_stealing(starts.len(), workers, |i| {
            let mut dest = std::mem::take(&mut *dests[i].lock().unwrap_or_else(|p| p.into_inner()));
            parse_unit(&mut dest, unit(i))
        })?
    };
    // The first failed unit holds the first error in input order; only it
    // pays for counting the lines before it.
    for (part, &start) in parsed.into_iter().zip(&starts) {
        part.map_err(|mut e| {
            if let DataError::Csv { line, .. } = &mut e {
                *line += bytes[..start].iter().filter(|&&b| b == b'\n').count();
            }
            e
        })?;
    }
    Ok(Relation::from_columns(schema, cols))
}

/// One unit's share of a column: the rows it parses into.
enum Dest<'a> {
    Int(&'a mut [i64]),
    F64(&'a mut [f64]),
}

/// Cuts `col` into consecutive ranges of `rows[u]` rows, handing unit `u`
/// its range.
fn split_rows<'a, T>(
    col: &'a mut [T],
    rows: &[usize],
    dests: &mut [Vec<Dest<'a>>],
    wrap: fn(&'a mut [T]) -> Dest<'a>,
) {
    let mut rest = col;
    for (dest, &n) in dests.iter_mut().zip(rows) {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(n);
        dest.push(wrap(mine));
        rest = tail;
    }
}

/// Start offsets of the parse units: the first is 0, and each later one
/// sits just past the first `\n` at or after its nominal cut, so every
/// unit holds whole lines. Inputs of at most [`UNIT_BYTES`] are one unit.
/// Each byte is searched at most once, so a line longer than a unit costs
/// one scan, not one per cut it spans.
fn unit_starts(bytes: &[u8]) -> Vec<usize> {
    let units = bytes.len().div_ceil(UNIT_BYTES).max(1);
    let mut starts = vec![0];
    let mut from = 0;
    for k in 1..units {
        let nominal = (bytes.len() / units * k).max(from);
        let Some(nl) = bytes[nominal..].iter().position(|&b| b == b'\n') else { break };
        from = nominal + nl + 1;
        if from == bytes.len() {
            break;
        }
        starts.push(from);
    }
    starts
}

/// Parses one unit of whole lines into its ranges of the columns. A
/// [`DataError::Csv`] carries the line number *within the unit*.
fn parse_unit(dest: &mut [Dest<'_>], buf: &[u8]) -> Result<()> {
    let (mut pos, mut line, mut row) = (0, 1, 0);
    while pos < buf.len() {
        if buf[pos] == b'\n' {
            pos += 1;
            line += 1;
            continue;
        }
        // Fault plans demote panics to `Err` here so an injected ingest
        // failure is always a clean typed error, like the parse errors.
        crate::fault::check_err("csv-ingest")?;
        pos = parse_record(dest, row, buf, pos)
            .map_err(|message| DataError::Csv { line, message })?;
        line += 1;
        row += 1;
    }
    Ok(())
}

/// Parses the non-empty record starting at `pos` into row `row` of each
/// destination and returns the offset just past its line (past the `\n`,
/// or the end of `buf`). On malformed input returns why; the row is then
/// garbage, and the caller discards the relation.
fn parse_record(
    dest: &mut [Dest<'_>],
    row: usize,
    buf: &[u8],
    mut pos: usize,
) -> std::result::Result<usize, String> {
    let arity = dest.len();
    for (c, col) in dest.iter_mut().enumerate() {
        let start = pos;
        let int = matches!(col, Dest::Int(_));
        // `row` is in range: `unit_rows` sized the unit for every record
        // it can hold before one of them is malformed.
        pos = match col {
            Dest::Int(v) => scan_int(buf, pos).map(|(x, end)| {
                v[row] = x;
                end
            }),
            Dest::F64(v) => scan_f64(buf, pos).map(|(x, end)| {
                v[row] = x;
                end
            }),
        }
        .ok_or_else(|| bad_field(buf, start, int))?;
        let last = c + 1 == arity;
        match buf.get(pos) {
            Some(b',') if !last => pos += 1,
            Some(b',') => return Err(format!("too many fields (expected {arity})")),
            Some(b'\n') | None if last => return Ok((pos + 1).min(buf.len())),
            Some(b'\n') | None => return Err(format!("expected {arity} fields, got {}", c + 1)),
            // The integer scan stopped on a byte that is neither a digit
            // nor a separator.
            Some(_) => return Err(bad_field(buf, start, int)),
        }
    }
    // Only an empty schema gets here: a non-empty line has a field.
    Err(format!("too many fields (expected {arity})"))
}

/// Scans the integer field at `pos`: exactly the grammar of
/// `str::parse::<i64>`, accumulated with checked arithmetic. Returns the
/// value and the offset of the first byte after the digits, or `None` on
/// a missing digit or overflow (reported as soon as it happens, however
/// long the field).
#[inline]
fn scan_int(buf: &[u8], pos: usize) -> Option<(i64, usize)> {
    let (neg, mut p) = match buf.get(pos) {
        Some(b'-') => (true, pos + 1),
        Some(b'+') => (false, pos + 1),
        _ => (false, pos),
    };
    let digits = p;
    let mut acc: i64 = 0;
    while let Some(&b) = buf.get(p) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        // Negatives accumulate downward: `i64::MIN` has no positive twin.
        acc = acc.checked_mul(10)?;
        acc = if neg { acc.checked_sub(i64::from(d))? } else { acc.checked_add(i64::from(d))? };
        p += 1;
    }
    (p > digits).then_some((acc, p))
}

/// Scans the float field at `pos` to its separator, checking that it is
/// ASCII on the way, and parses it with `str::parse::<f64>`. Returns the
/// value and the separator's offset, or `None` if the field does not parse.
#[inline]
fn scan_f64(buf: &[u8], pos: usize) -> Option<(f64, usize)> {
    let mut p = pos;
    let mut high = 0u8;
    while let Some(&b) = buf.get(p) {
        if b == b',' || b == b'\n' {
            break;
        }
        high |= b;
        p += 1;
    }
    if !high.is_ascii() {
        return None;
    }
    // SAFETY: every byte of `buf[pos..p]` is ASCII (their OR is below
    // 0x80), and ASCII is valid UTF-8.
    let text = unsafe { std::str::from_utf8_unchecked(&buf[pos..p]) };
    Some((text.parse().ok()?, p))
}

/// Why the field starting at `start` is malformed, in the standard
/// library's words, quoting at most the field's first 32 characters.
#[cold]
fn bad_field(buf: &[u8], start: usize, int: bool) -> String {
    let rest = &buf[start..];
    let field = &rest[..rest.iter().position(|&b| b == b',' || b == b'\n').unwrap_or(rest.len())];
    let Ok(text) = std::str::from_utf8(field) else { return "non-utf8 field".to_string() };
    let why = if int {
        text.parse::<i64>().err().map(|e| e.to_string())
    } else {
        text.parse::<f64>().err().map(|e| e.to_string())
    };
    let mut shown: String = text.chars().take(32).collect();
    if shown.len() < text.len() {
        shown.push('…');
    }
    format!("bad {} `{shown}`: {}", if int { "int" } else { "float" }, why.unwrap_or_default())
}

/// The rows a unit parses into: its non-empty lines, capped by the most
/// well-formed records its bytes can hold (one of `arity` fields is at
/// least `2·arity − 1` bytes plus its newline). A unit with more lines
/// than that has a malformed one, and the parse stops there before
/// running out of rows; so no input makes the reader allocate more than
/// four bytes of column per input byte.
fn unit_rows(buf: &[u8], arity: usize) -> usize {
    // Line ends are bytes other than `\n` followed by one. Counting them
    // into a `u8` per 255-byte block lets the loop vectorize.
    let next = buf.get(1..).unwrap_or_default();
    let ends: usize = (buf.chunks(255).zip(next.chunks(255)))
        .map(|(block, next)| {
            let end = |(&a, &b): (&u8, &u8)| u8::from((a != b'\n') & (b == b'\n'));
            usize::from(block.iter().zip(next).map(end).sum::<u8>())
        })
        .sum();
    let lines = ends + usize::from(buf.last().is_some_and(|&b| b != b'\n'));
    lines.min(buf.len() / (2 * arity.max(1)) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn schema() -> Schema {
        Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)])
    }

    fn sample() -> Relation {
        Relation::from_rows(
            schema(),
            vec![vec![Value::Int(1), Value::F64(1.5)], vec![Value::Int(-2), Value::F64(0.25)]],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let rel = sample();
        let bytes = relation_to_csv(&rel);
        assert_eq!(String::from_utf8_lossy(&bytes), "1,1.5\n-2,0.25\n");
        let back = read_csv(schema(), &bytes).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn roundtrip_preserves_floats_exactly() {
        let rel = Relation::from_rows(schema(), vec![vec![Value::Int(0), Value::F64(0.1 + 0.2)]])
            .unwrap();
        let back = read_csv(schema(), &relation_to_csv(&rel)).unwrap();
        assert_eq!(back.f64_col(1)[0], 0.1 + 0.2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        // Malformed input surfaces as a typed `DataError::Csv` carrying the
        // offending line — asserted structurally, no panic-based matching.
        let err = read_csv(schema(), b"1,2.0\nx,3.0\n").unwrap_err();
        assert!(
            matches!(err, DataError::Csv { line: 2, .. }),
            "expected Csv error at line 2, got {err:?}"
        );
        assert!(matches!(read_csv(schema(), b"1\n").unwrap_err(), DataError::Csv { line: 1, .. }));
        assert!(matches!(
            read_csv(schema(), b"1,2.0,3\n").unwrap_err(),
            DataError::Csv { line: 1, .. }
        ));
    }

    #[test]
    fn units_end_on_newlines_and_long_lines_collapse_cuts() {
        assert_eq!(unit_starts(b""), vec![0]);
        assert_eq!(unit_starts(&[b'1'; UNIT_BYTES]), vec![0], "one unit up to UNIT_BYTES");
        let rows = b"12345,0.5\n".repeat(UNIT_BYTES / 2);
        let starts = unit_starts(&rows);
        assert_eq!(starts.len(), rows.len().div_ceil(UNIT_BYTES));
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert!(starts[1..].iter().all(|&s| rows[s - 1] == b'\n'));
        // A line longer than every later cut leaves them no newline.
        let mut long = vec![b'7'; 3 * UNIT_BYTES];
        long[10] = b'\n';
        assert_eq!(unit_starts(&long), vec![0]);
        long[UNIT_BYTES + 10] = b'\n';
        assert_eq!(unit_starts(&long), vec![0, UNIT_BYTES + 11]);
    }

    #[test]
    fn unit_rows_count_records_capped_by_the_input() {
        assert_eq!(unit_rows(b"", 2), 0);
        assert_eq!(unit_rows(&[b'\n'; 1 << 20], 2), 0, "blank lines hold no rows");
        assert_eq!(unit_rows(b"1,2\n\n\n3,4", 2), 2, "the last line needs no newline");
        assert_eq!(unit_rows(b"\n1,2\n", 2), 1);
        assert_eq!(unit_rows(b"1\n2", 1), 2, "the densest input fits its rows");
        // Lines too short for the schema: capped by the bytes, not the lines.
        let short = b"1\n".repeat(1 << 10);
        assert_eq!(unit_rows(&short, 1), 1 << 10);
        assert_eq!(unit_rows(&short, 6), short.len() / 12 + 1);
    }

    #[test]
    fn empty_input_gives_empty_relation() {
        let rel = read_csv(schema(), b"").unwrap();
        assert!(rel.is_empty());
    }
}
