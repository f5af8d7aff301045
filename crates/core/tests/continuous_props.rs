//! Property tests of the continuous-benchmarking store: non-finite
//! rejection at every ingress, JSONL round-trip fidelity of the history
//! record schema, the direction-classification convention over
//! randomly assembled metric keys, and a parser that never panics on a
//! damaged `results.jsonl`.

use caraml::continuous::{Baseline, ContinuousError, Direction, History, HistoryRecord, Verdict};
use proptest::prelude::*;

/// Key suffixes the convention must classify higher-is-better, even
/// when the segment also ends in `_s` (throughputs beat the
/// seconds-suffix rule by precedence).
const HIGHER_SUFFIXES: &[&str] = &[
    "tokens_per_s",
    "images_per_s",
    "tokens_per_wh",
    "goodput_tokens_per_s",
    "slo_attainment",
    "gflops",
    "gbps",
    "throughput",
];

/// Key suffixes the convention must classify lower-is-better.
const LOWER_SUFFIXES: &[&str] = &[
    "p99_ttft_s",
    "p50_tpot_s",
    "latency",
    "wh_per_ktoken",
    "energy_wh",
    "median_ms",
    "queue_depth",
    "makespan",
];

/// Printable key segments without `/` (the series separator) so the
/// suffix we append stays the last path segment.
fn segment() -> impl Strategy<Value = String> {
    "[a-z0-9_]{1,12}"
}

fn non_finite() -> impl Strategy<Value = f64> {
    prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY),]
}

/// Characters JSON is made of, so random text gets past the parser's
/// first byte.
const JSON_ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '-', '+', '.', 'e', 'E', '0', '1', '9', 'n', 'u', 'l', 't',
    'r', 'f', 'a', 's', ' ', '\\',
];

/// The loader's whole contract on damaged input: `Ok` with only valid
/// records, or a typed error — never a panic.
fn load_never_panics(text: &str) -> Result<(), String> {
    match History::from_jsonl(text) {
        Ok(history) => {
            for rec in &history.records {
                if rec.schema != caraml::continuous::HISTORY_SCHEMA || !rec.value.is_finite() {
                    return Err(format!("accepted an invalid record: {rec:?}"));
                }
            }
            Ok(())
        }
        Err(
            ContinuousError::Parse { .. }
            | ContinuousError::Schema { .. }
            | ContinuousError::NonFinite { .. },
        ) => Ok(()),
        Err(e) => Err(format!("unexpected error kind: {e:?}")),
    }
}

/// One way to damage a valid `results.jsonl` line.
#[derive(Debug, Clone, Copy)]
enum Damage {
    Truncate,
    FlipByte,
    DropField,
    NullValue,
}

/// Apply `damage` to a valid compact record line; `at` and `byte` pick
/// the position and replacement byte where the damage needs them.
fn damage(line: &str, damage: Damage, at: usize, byte: u8) -> String {
    match damage {
        Damage::Truncate => line[..at % line.len()].to_string(),
        Damage::FlipByte => {
            let mut bytes = line.as_bytes().to_vec();
            let i = at % bytes.len();
            bytes[i] ^= byte.max(1);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        Damage::DropField | Damage::NullValue => {
            let serde_json::Value::Map(mut fields) = serde_json::parse(line).unwrap() else {
                unreachable!("a record serializes to an object")
            };
            match damage {
                Damage::DropField => {
                    fields.remove(at % fields.len());
                }
                _ => {
                    for (name, value) in fields.iter_mut() {
                        if name == "value" {
                            *value = serde_json::Value::Null;
                        }
                    }
                }
            }
            serde_json::to_string(&serde_json::Value::Map(fields)).unwrap()
        }
    }
}

proptest! {
    /// Every non-finite value is rejected at `Baseline::record` with the
    /// typed error naming the key — nothing non-finite ever reaches the
    /// JSON layer (where the vendored serde shim would write `null` and
    /// silently corrupt the round trip).
    #[test]
    fn non_finite_rejected_by_record(key in segment(), value in non_finite()) {
        let mut b = Baseline::new("prop");
        let err = b.record(key.clone(), value).unwrap_err();
        prop_assert!(matches!(err, ContinuousError::NonFinite { key: k, .. } if k == key));
        prop_assert!(b.metrics.is_empty());
    }

    /// `HistoryRecord::new` applies the same guard.
    #[test]
    fn non_finite_rejected_by_history_record(key in segment(), value in non_finite()) {
        let err = HistoryRecord::new(0, "l", "s", "default", "-", key, value).unwrap_err();
        prop_assert!(matches!(err, ContinuousError::NonFinite { .. }));
    }

    /// A history of arbitrary valid records survives the JSONL round
    /// trip bit-for-bit — values compare by `to_bits`, so this pins the
    /// full-precision float formatting too.
    #[test]
    fn history_jsonl_round_trip(
        rows in prop::collection::vec(
            (
                0u64..64,
                "[a-zA-Z0-9._-]{1,16}",          // label
                "[a-z0-9-]{1,12}",                // scenario
                prop_oneof![Just("default"), Just("scalar"), Just("avx2")],
                prop_oneof![Just("-"), Just("f32"), Just("bf16"), Just("int8")],
                prop::collection::vec("[a-z0-9_]{1,8}", 1..4), // key segments
                prop::num::f64::NORMAL,
            ),
            1..24,
        )
    ) {
        let records: Vec<HistoryRecord> = rows
            .into_iter()
            .map(|(generation, label, scenario, arm, precision, segs, value)| {
                HistoryRecord::new(
                    generation,
                    label,
                    scenario,
                    arm,
                    precision,
                    segs.join("/"),
                    value,
                )
                .unwrap()
            })
            .collect();
        let history = History { records };
        let reparsed = History::from_jsonl(&history.to_jsonl()).unwrap();
        prop_assert_eq!(reparsed.len(), history.len());
        for (a, b) in history.records.iter().zip(&reparsed.records) {
            prop_assert_eq!(a, b);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    /// The suffix convention holds under any path prefix: the direction
    /// of a key is decided by its last `/` segment alone.
    #[test]
    fn direction_ignores_path_prefix(
        prefix in prop::collection::vec(segment(), 0..4),
        higher in prop::sample::select(HIGHER_SUFFIXES),
        lower in prop::sample::select(LOWER_SUFFIXES),
    ) {
        let mut head = prefix.join("/");
        if !head.is_empty() {
            head.push('/');
        }
        prop_assert_eq!(
            Direction::infer(&format!("{head}{higher}")),
            Direction::HigherIsBetter
        );
        prop_assert_eq!(
            Direction::infer(&format!("{head}{lower}")),
            Direction::LowerIsBetter
        );
    }

    /// Direction-aware gating is consistent for any finite baseline and
    /// any worsening beyond tolerance: a higher-is-better metric that
    /// drops and a lower-is-better metric that climbs must both be
    /// `Regressed`, and the mirrored moves must be `Improved`.
    #[test]
    fn worsening_always_regresses(
        base in 1e-6f64..1e9,
        rel in 0.11f64..5.0,
    ) {
        let tolerance = 0.10;
        let mut baseline = Baseline::new("prop-base");
        baseline.record("throughput", base).unwrap();
        baseline.record("p99_ttft_s", base).unwrap();

        let mut worse = Baseline::new("prop-now");
        worse.record("throughput", base / (1.0 + rel)).unwrap();
        worse.record("p99_ttft_s", base * (1.0 + rel)).unwrap();
        let report = baseline.compare(&worse, tolerance);
        for f in &report.findings {
            prop_assert_eq!(f.change, Verdict::Regressed, "key {}", &f.key);
        }

        let mut better = Baseline::new("prop-now");
        better.record("throughput", base * (1.0 + rel)).unwrap();
        better.record("p99_ttft_s", base / (1.0 + rel)).unwrap();
        let report = baseline.compare(&better, tolerance);
        for f in &report.findings {
            prop_assert_eq!(f.change, Verdict::Improved, "key {}", &f.key);
        }
    }

    /// Arbitrary bytes — raw, and drawn from JSON's own alphabet so the
    /// parser gets past the first byte — load as `Ok` or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic_the_loader(
        raw in prop::collection::vec(0u8..=255, 0..256),
        jsonish in prop::collection::vec(prop::sample::select(JSON_ALPHABET), 0..64),
    ) {
        let text = String::from_utf8_lossy(&raw);
        prop_assert!(load_never_panics(&text).is_ok());
        let jsonish: String = jsonish.into_iter().collect();
        prop_assert!(load_never_panics(&jsonish).is_ok());
        // Deep nesting must be refused, not recursed into until the
        // stack overflows.
        let nested = format!("{}{jsonish}", "[".repeat(raw.len() * 512));
        prop_assert!(load_never_panics(&nested).is_ok());
    }

    /// A valid line damaged one way — truncated, one byte flipped, a
    /// field dropped, or `value` set to `null` — between valid lines
    /// loads as `Ok` or a typed error. Dropping a field or nulling the
    /// value must be an error: every field is required and values are
    /// finite.
    #[test]
    fn damaged_lines_never_panic_the_loader(
        generation in 0u64..1000,
        segs in prop::collection::vec("[a-z0-9_]{1,8}", 1..4),
        value in prop::num::f64::NORMAL,
        kind in prop::sample::select(&[
            Damage::Truncate,
            Damage::FlipByte,
            Damage::DropField,
            Damage::NullValue,
        ]),
        at in 0usize..4096,
        byte in 0u8..=255,
    ) {
        let rec = HistoryRecord::new(generation, "rev", "quickstart", "avx2", "bf16", segs.join("/"), value)
            .unwrap();
        let line = serde_json::to_string(&rec).unwrap();
        let bad = damage(&line, kind, at, byte);
        let text = format!("{line}\n{bad}\n{line}\n");
        prop_assert!(load_never_panics(&text).is_ok(), "{:?} of {}: {}", kind, line, bad);
        if matches!(kind, Damage::DropField | Damage::NullValue) {
            prop_assert!(History::from_jsonl(&text).is_err(), "{:?}: {}", kind, bad);
        }
    }
}
