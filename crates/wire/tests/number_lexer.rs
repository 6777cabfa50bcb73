//! Differential test of the JSON number lexer against the rules it
//! replaced: an integer token is `str::parse::<u64>` (or `::<i64>` when
//! negative) if that succeeds, and every other token is
//! `str::parse::<f64>`. Each token must land in the oracle's lane with the
//! oracle's bits, and a malformed token must keep its message and position.
//!
//! The inputs are seeded, so a failure repeats: random `f64` bit patterns
//! as the writer renders them, random decimal tokens of 1 to 25 significant
//! digits with exponents within ±330, and hand-picked edges.

use thermsched_wire::{JsonValue, Number, WireError};

/// The lane and value the replaced lexer gave a valid number token.
fn oracle(token: &str) -> Number {
    if !token.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        if token.starts_with('-') {
            if let Ok(signed) = token.parse::<i64>() {
                return Number::from_i64(signed);
            }
        } else if let Ok(unsigned) = token.parse::<u64>() {
            return Number::Unsigned(unsigned);
        }
    }
    Number::Float(token.parse().expect("a JSON number token parses as f64"))
}

/// Lane and bits: `Number`'s `==` would call `0.0` and `-0.0` equal.
fn same(a: Number, b: Number) -> bool {
    match (a, b) {
        (Number::Unsigned(a), Number::Unsigned(b)) => a == b,
        (Number::Signed(a), Number::Signed(b)) => a == b,
        (Number::Float(a), Number::Float(b)) => a.to_bits() == b.to_bits(),
        _ => false,
    }
}

/// Checks every token of `text`, a JSON array of number tokens separated
/// by bare commas, against the oracle, and returns the tokens: parsing the
/// array once keeps a large batch cheap.
fn check_array(text: &str) -> Vec<&str> {
    let parsed = JsonValue::parse(text).expect("valid tokens parse");
    let items = parsed.as_array().expect("an array");
    let tokens: Vec<&str> = text[1..text.len() - 1].split(',').collect();
    assert_eq!(items.len(), tokens.len());
    for (token, item) in tokens.iter().zip(items) {
        let JsonValue::Number(number) = item else {
            panic!("{token} parsed as {item:?}");
        };
        let expected = oracle(token);
        assert!(
            same(*number, expected),
            "{token}: lexer {number:?}, oracle {expected:?}"
        );
    }
    tokens
}

/// [`check_array`] on `tokens`, except that a token the oracle reads as
/// infinite must be refused instead.
fn check(tokens: &[String]) {
    let (finite, infinite): (Vec<&String>, Vec<&String>) = tokens
        .iter()
        .partition(|token| token.parse::<f64>().is_ok_and(f64::is_finite));
    let finite: Vec<&str> = finite.iter().map(|token| token.as_str()).collect();
    let finite = format!("[{}]", finite.join(","));
    check_array(&finite);
    for token in infinite {
        assert_eq!(
            JsonValue::parse(token),
            Err(WireError::Parse {
                line: 1,
                column: token.len() + 1,
                message: "number does not fit a finite f64".to_owned(),
            }),
            "{token}"
        );
    }
}

/// SplitMix64: a seeded stream, so every run checks the same tokens.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn digit(&mut self) -> char {
        char::from(b'0' + self.below(10) as u8)
    }
}

#[test]
fn random_bit_patterns_read_back_in_the_oracles_lane_and_bits() {
    const PATTERNS: usize = 1_000_000;
    const BATCH: usize = 10_000;
    let mut rng = Rng(0x5eed_0001);
    let mut checked = 0;
    while checked < PATTERNS {
        let values: Vec<f64> = std::iter::repeat_with(|| f64::from_bits(rng.next()))
            .filter(|value| value.is_finite())
            .take(BATCH)
            .collect();
        let text = JsonValue::Array(values.iter().copied().map(JsonValue::from).collect())
            .render_compact()
            .expect("finite");
        // The oracle reads the writer's text back bit for bit, so the
        // lexer does too.
        for (token, &value) in check_array(&text).iter().zip(&values) {
            assert!(same(oracle(token), Number::Float(value)), "{token}");
        }
        checked += BATCH;
    }
}

/// A token of `digits` significant digits (the first nonzero) written in
/// one of several shapes, with a decimal exponent within ±330.
fn random_decimal(rng: &mut Rng, digits: usize) -> String {
    let mut mantissa = String::with_capacity(digits);
    mantissa.push(char::from(b'1' + rng.below(9) as u8));
    for _ in 1..digits {
        mantissa.push(rng.digit());
    }
    let sign = if rng.below(2) == 0 { "" } else { "-" };
    let exponent = rng.below(661) as i64 - 330;
    let marker = if rng.below(2) == 0 { "e" } else { "E" };
    let written = match rng.below(3) {
        0 => format!("{exponent}"),
        1 if exponent >= 0 => format!("+{exponent}"),
        _ => format!(
            "{}{:03}",
            if exponent < 0 { "-" } else { "" },
            exponent.abs()
        ),
    };
    match rng.below(5) {
        // An integer token, which may overflow both integer lanes.
        0 => format!("{sign}{mantissa}"),
        1 => format!("{sign}{mantissa}{marker}{written}"),
        // A point inside or after the digits, with or without an exponent.
        2 | 3 => {
            let point = 1 + rng.below(digits as u64) as usize;
            let (whole, fraction) = mantissa.split_at(point);
            let fraction = if fraction.is_empty() { "0" } else { fraction };
            if rng.below(2) == 0 {
                format!("{sign}{whole}.{fraction}")
            } else {
                format!("{sign}{whole}.{fraction}{marker}{written}")
            }
        }
        // Leading zeros after the point.
        _ => {
            let zeros = "0".repeat(rng.below(25) as usize);
            format!("{sign}0.{zeros}{mantissa}")
        }
    }
}

#[test]
fn random_decimal_tokens_match_the_oracle() {
    let mut rng = Rng(0x5eed_0002);
    for _ in 0..40 {
        let tokens: Vec<String> = (0..5_000)
            .map(|_| {
                let digits = 1 + rng.below(25) as usize;
                random_decimal(&mut rng, digits)
            })
            .collect();
        check(&tokens);
    }
}

#[test]
fn edge_tokens_match_the_oracle() {
    let mut tokens: Vec<String> = [
        // 2^53 and its neighbours, the first integers an f64 cannot tell
        // apart, as integer and float tokens.
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "9007199254740991.0",
        "9007199254740992.0",
        "9007199254740993.0",
        "9007199254740993e0",
        "-9007199254740993.0",
        // The largest exact power of ten, and the first inexact one.
        "1e22",
        "1e23",
        "1E+22",
        "1e-22",
        "1e-23",
        "123456789012345e22",
        "123456789012345e-22",
        "9.99999999999999e22",
        // Subnormals and the extremes.
        "5e-324",
        "4.9406564584124654e-324",
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
        "2.2250738585072014e-308",
        "1.7976931348623157e308",
        "1.7976931348623158e308",
        "0.1",
        "0.2",
        "0.3",
        "-0.1",
        // 15, 16 and 17 significant digits.
        "123456789012345.0",
        "0.123456789012345",
        "1.23456789012345",
        "999999999999999.0",
        "1234567890123456.0",
        "0.1234567890123456",
        "9999999999999999.0",
        "12345678901234567.0",
        "0.12345678901234567",
        "13.115134147647492",
        "1.761979310425991",
        // 19- and 20-digit integers either side of the integer lanes.
        "1000000000000000000",
        "9999999999999999999",
        "10000000000000000000",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "-999999999999999999",
        "-9223372036854775807",
        "-9223372036854775808",
        "-9223372036854775809",
        "-10000000000000000000",
        // Zeros.
        "0",
        "-0",
        "0.0",
        "-0.0",
        "0e0",
        "-0e-0",
        "0.000",
        "0e400",
        "-0.0e-400",
        // Exponents written with a sign or leading zeros, and long ones.
        "1e+0",
        "1e-0",
        "1e007",
        "1E-007",
        "2.5e+000022",
        "2.5e0000000000000000000000023",
        "1e-400",
        "-1e-400",
        "1e-99999999999999999999",
        "0.5e-323",
        "1.0",
        "4.0",
        "0.004",
        "120.0",
    ]
    .iter()
    .map(|token| (*token).to_owned())
    .collect();
    // `0.000…1` at every length around the fast path's reach.
    for zeros in 0..30 {
        tokens.push(format!("0.{}1", "0".repeat(zeros)));
        tokens.push(format!("-0.{}7", "0".repeat(zeros)));
    }
    // Every power of ten the fast path touches, and one either side.
    for exponent in -25..=25 {
        tokens.push(format!("1e{exponent}"));
        tokens.push(format!("3.0e{exponent}"));
        tokens.push(format!("999999999999999e{exponent}"));
        tokens.push(format!("9999999999999999e{exponent}"));
    }
    tokens.push(format!("{}", u64::MAX));
    tokens.push(format!("{}", i64::MIN));
    tokens.push("1e999".to_owned());
    tokens.push("-1e999".to_owned());
    check(&tokens);
}

#[test]
fn malformed_tokens_keep_their_messages_and_positions() {
    let parse_error = |line, column, message: &str| {
        Err(WireError::Parse {
            line,
            column,
            message: message.to_owned(),
        })
    };
    for (text, expected) in [
        ("-", parse_error(1, 2, "expected a digit")),
        ("-a", parse_error(1, 2, "expected a digit")),
        ("[-]", parse_error(1, 3, "expected a digit")),
        ("1.", parse_error(1, 3, "expected a digit after `.`")),
        ("1.e5", parse_error(1, 3, "expected a digit after `.`")),
        ("-0.]", parse_error(1, 4, "expected a digit after `.`")),
        ("1e", parse_error(1, 3, "expected a digit in the exponent")),
        ("1e+", parse_error(1, 4, "expected a digit in the exponent")),
        (
            "2.5E-x",
            parse_error(1, 6, "expected a digit in the exponent"),
        ),
        (
            "01",
            parse_error(1, 2, "trailing characters after the JSON value"),
        ),
        (
            "-01",
            parse_error(1, 3, "trailing characters after the JSON value"),
        ),
        (
            "1.5.2",
            parse_error(1, 4, "trailing characters after the JSON value"),
        ),
        (
            "1e5e5",
            parse_error(1, 4, "trailing characters after the JSON value"),
        ),
        ("+1", parse_error(1, 1, "unexpected character `+`")),
        (".5", parse_error(1, 1, "unexpected character `.`")),
        (
            "1e999",
            parse_error(1, 6, "number does not fit a finite f64"),
        ),
        (
            "[\n  -1.5e99999999999999999999]",
            parse_error(2, 28, "number does not fit a finite f64"),
        ),
        ("[1, 2,, 3]", parse_error(1, 7, "unexpected character `,`")),
    ] {
        assert_eq!(JsonValue::parse(text), expected, "{text:?}");
    }
}
