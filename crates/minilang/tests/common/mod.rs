//! Program generators shared by the property-test suites.

use proptest::prelude::*;

/// Strategy: a small arithmetic expression over the mutable slots `v0`–`v3`.
pub fn small_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-9i32..10).prop_map(|n| n.to_string()),
        (0usize..4).prop_map(|k| format!("v{k}")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (
            inner.clone(),
            inner,
            prop_oneof![Just("+"), Just("-"), Just("*")],
        )
            .prop_map(|(l, r, op)| format!("({l} {op} {r})"))
    })
}

/// `if`/`else` and bounded `for` loops over the statements `leaf` draws.
pub fn stmts_over(leaf: impl Strategy<Value = String> + 'static) -> impl Strategy<Value = String> {
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (
                small_expr(),
                proptest::collection::vec(inner.clone(), 1..3),
                proptest::collection::vec(inner.clone(), 0..3),
            )
                .prop_map(|(c, t, e)| {
                    format!(
                        "if ({c} % 2) == 0 {{ {} }} else {{ {} }}",
                        t.join(" "),
                        e.join(" ")
                    )
                }),
            (1u32..5, proptest::collection::vec(inner, 1..3))
                .prop_map(|(b, body)| format!("for i in range(0, {b}) {{ {} }}", body.join(" "))),
        ]
    })
}
