//! Property tests: printing a datum and re-parsing it yields the same tree.

use proptest::prelude::*;
use sct_sexpr::{parse_one, Datum};

/// Strategy generating arbitrary valid symbols (no delimiters, not numeric).
fn symbol_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z!$%&*/:<=>?^_~+-][a-zA-Z0-9!$%&*/:<=>?^_~+-]{0,8}")
        .unwrap()
        .prop_filter("not a number or dot", |s| {
            s != "." && {
                let body = s.strip_prefix(['+', '-']).unwrap_or(s);
                body.is_empty() || !body.bytes().all(|b| b.is_ascii_digit()) || {
                    // "+" and "-" alone are symbols; "+1" is a number.
                    s == "+" || s == "-"
                }
            }
        })
}

fn datum_strategy() -> impl Strategy<Value = Datum> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Datum::Int),
        any::<bool>().prop_map(Datum::Bool),
        proptest::char::range('!', '~').prop_map(Datum::Char),
        Just(Datum::Char(' ')),
        Just(Datum::Char('\n')),
        "[ -~]{0,12}".prop_map(Datum::Str),
        symbol_strategy().prop_map(Datum::sym),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Datum::List),
            (proptest::collection::vec(inner.clone(), 1..4), inner).prop_map(|(items, tail)| {
                match tail {
                    // Keep the improper invariant: the tail is never a list.
                    Datum::List(tl) => {
                        let mut items = items;
                        items.extend(tl);
                        Datum::List(items)
                    }
                    Datum::Improper(mid, end) => {
                        let mut items = items;
                        items.extend(mid);
                        Datum::Improper(items, end)
                    }
                    atom => Datum::Improper(items, Box::new(atom)),
                }
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn print_parse_roundtrip(d in datum_strategy()) {
        let printed = d.to_string();
        let reparsed = parse_one(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse {printed:?}: {e}"));
        prop_assert_eq!(d, reparsed);
    }

    #[test]
    fn node_count_positive(d in datum_strategy()) {
        prop_assert!(d.node_count() >= 1);
    }
}
