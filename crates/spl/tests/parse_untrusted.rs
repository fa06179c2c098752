//! `spiral_spl::parse` reads untrusted text (hand-written formulas,
//! wisdom files): on any input it must return `Ok` or a positioned
//! `ParseError`, never panic. Inputs come from three generators:
//! arbitrary Unicode, soups of SPL tokens (which get past the lexer into
//! every production), and well-formed atoms with adversarial sizes.

use proptest::collection::vec;
use proptest::prelude::*;
use spiral_spl::parse;

/// Tokens of the SPL grammar plus near-misses and extreme numbers.
const TOKENS: &str = "I_ F_ DFT_ L^ T^ _ dsum dsum|| smp vec diag ( ) [ ] , ; .. @ @|| @bar * \
                      0 1 2 4 8 16 3 - + . e E 1e308 -0.5 nan inf 18446744073709551615 \
                      18446744073709551616 4294967296 x é \u{0}";
/// Sizes from tiny through values whose products overflow `usize`.
const NUMS: &str = "0 1 2 4 3 4294967296 4294967296 18446744073709551615";
const OPS: [&str; 5] = [" @ ", " @ ", " @|| ", " @bar ", " * "];

fn pick(words: &str, k: usize) -> &str {
    let words: Vec<&str> = words.split_whitespace().collect();
    words[k % words.len()]
}

/// Well-formed atoms joined by arbitrary operators, optionally wrapped
/// in a parallel construct: reaches the tensor, `@||`, `@bar` and
/// construct checks with adversarial sizes.
fn formula_text(atoms: &[(u8, usize, usize)], ops: &[usize], wrap: u8) -> String {
    let mut text = String::new();
    for (i, &(kind, a, b)) in atoms.iter().enumerate() {
        text.push_str(OPS[ops[i] % OPS.len()]);
        let (a, b) = (pick(NUMS, a), pick(NUMS, b));
        text.push_str(&match kind % 6 {
            0 => format!("I_{a}"),
            1 => format!("DFT_{a}"),
            2 => format!("L^{a}_{b}"),
            3 => format!("T^{a}_{b}"),
            4 => format!("T^{a}_{b}[{b}..{a}]"),
            _ => "F_2".to_string(),
        });
    }
    // Drop the leading operator.
    let text = text.split_at(OPS[ops[0] % OPS.len()].len()).1;
    match wrap % 4 {
        0 => text.to_string(),
        1 => format!("smp(2,4)[{text}]"),
        2 => format!("vec(2)[{text}]"),
        _ => format!("dsum||({text}, {text})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_never_panics_on_arbitrary_text(raw in vec(any::<u32>(), 0..48)) {
        let text: String = raw.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect();
        let _ = parse(&text);
    }

    #[test]
    fn parse_never_panics_on_adversarial_formulas(
        atoms in vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..7),
        ops in vec(any::<usize>(), 7),
        wrap in any::<u8>(),
    ) {
        let _ = parse(&formula_text(&atoms, &ops, wrap));
    }

    #[test]
    fn parse_never_panics_on_token_soup(picks in vec(any::<usize>(), 0..24)) {
        let text: String = picks.iter().map(|&k| pick(TOKENS, k)).collect();
        if let Err(e) = parse(&text) {
            prop_assert!(e.pos <= text.len(), "error position {} past {:?}", e.pos, text);
        }
    }
}

/// Regression: sizes whose tensor product overflows `usize` made
/// `@bar`'s permutation check multiply past the limit and panic.
#[test]
fn overflowing_dimensions_are_parse_errors() {
    for text in [
        "I_4294967296 @ I_4294967296 @ L^4_2 @bar I_2",
        "I_4294967296 @|| I_4294967296",
        "L^4_2 @bar I_18446744073709551615",
        "dsum(I_18446744073709551615, I_1)",
    ] {
        let err = parse(text).expect_err(text);
        assert!(err.msg.contains("overflows"), "{text}: {err}");
    }
    // In-range sizes still parse.
    assert!(parse("I_65536 @ I_65536 @ L^4_2 @bar I_2").is_ok());
}
