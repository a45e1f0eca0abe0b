//! In-workspace stand-in for `proptest`.
//!
//! The build environment has no network access, so the workspace vendors a
//! minimal property-testing harness behind the proptest API subset its
//! tests use: the [`proptest!`] macro, `prop_assert!` / `prop_assert_eq!`,
//! string strategies given as character-class regexes (`"[a-z]{0,12}"`,
//! `"\\PC{0,200}"`), numeric range strategies, tuple strategies, and
//! [`collection::vec`]. Each test function runs [`CASES`] seeded random
//! cases; the seed derives from the test name, so failures reproduce
//! deterministically. No shrinking — a failing case panics with the plain
//! assertion message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property.
pub const CASES: usize = 64;

/// Deterministic per-test RNG (seeded from the test's name).
pub fn test_rng(name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// A value generator.
pub trait Strategy {
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

// ---- string strategies: a character-class regex subset ----------------

/// `&str` patterns: sequences of `[class]` or `\PC` atoms, each with an
/// optional `{m}` / `{m,n}` quantifier (defaults to exactly once).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        generate_pattern(self, rng)
    }
}

/// Printable sample pool for `\PC` (no control characters; mixes ASCII
/// with multi-byte chars so UTF-8 handling is exercised).
const PRINTABLE_EXTRA: &[char] = &['é', 'ü', 'ß', 'µ', 'Œ', '東', '☃', '¡', '—', '√'];

fn generate_pattern(pattern: &str, rng: &mut StdRng) -> String {
    let mut out = String::new();
    let chars: Vec<char> = pattern.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // Parse one atom.
        enum Atom {
            Printable,
            Class(Vec<(char, char)>),
            Literal(char),
        }
        let atom = match chars[i] {
            '\\' => {
                // Only \PC (printable) and escaped literals are supported.
                if chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C') {
                    i += 3;
                    Atom::Printable
                } else {
                    let c = *chars.get(i + 1).unwrap_or(&'\\');
                    i += 2;
                    Atom::Literal(c)
                }
            }
            '[' => {
                let mut ranges: Vec<(char, char)> = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    let lo = chars[i];
                    if chars.get(i + 1) == Some(&'-') && i + 2 < chars.len() && chars[i + 2] != ']'
                    {
                        ranges.push((lo, chars[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((lo, lo));
                        i += 1;
                    }
                }
                assert!(i < chars.len(), "unterminated class in {pattern:?}");
                i += 1; // ']'
                Atom::Class(ranges)
            }
            c => {
                i += 1;
                Atom::Literal(c)
            }
        };
        // Parse an optional quantifier.
        let (lo, hi) = if chars.get(i) == Some(&'{') {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .expect("unterminated quantifier")
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse::<usize>().expect("quantifier lo"),
                    n.trim().parse::<usize>().expect("quantifier hi"),
                ),
                None => {
                    let n = body.trim().parse::<usize>().expect("quantifier");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let count = rng.gen_range(lo..=hi);
        for _ in 0..count {
            match &atom {
                Atom::Printable => {
                    // 9-in-10 printable ASCII, else a multi-byte char.
                    if rng.gen_range(0..10) < 9 {
                        out.push(char::from(rng.gen_range(0x20u8..0x7f)));
                    } else {
                        out.push(PRINTABLE_EXTRA[rng.gen_range(0..PRINTABLE_EXTRA.len())]);
                    }
                }
                Atom::Class(ranges) => {
                    let total: u32 = ranges.iter().map(|&(a, b)| b as u32 - a as u32 + 1).sum();
                    let mut pick = rng.gen_range(0..total);
                    for &(a, b) in ranges {
                        let span = b as u32 - a as u32 + 1;
                        if pick < span {
                            out.push(char::from_u32(a as u32 + pick).expect("class char"));
                            break;
                        }
                        pick -= span;
                    }
                }
                Atom::Literal(c) => out.push(*c),
            }
        }
    }
    out
}

// ---- numeric range strategies -----------------------------------------

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

// ---- tuple strategies -------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(S0 / 0, S1 / 1);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);

// ---- collections ------------------------------------------------------

pub mod collection {
    //! `proptest::collection` subset: random-length vectors.

    use super::Strategy;

    /// Length specifications `vec` accepts.
    pub trait SizeRange {
        fn sample(&self, rng: &mut rand::rngs::StdRng) -> usize;
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample(&self, rng: &mut rand::rngs::StdRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample(&self, rng: &mut rand::rngs::StdRng) -> usize {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    /// A vector of values from `element`, with length drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// The strategy [`vec`](fn@vec) returns.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut rand::rngs::StdRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---- macros -----------------------------------------------------------

/// Mirrors proptest's `proptest!` block: each `fn name(arg in strategy, …)`
/// becomes a `#[test]` running [`CASES`] seeded cases.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$attr:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                #[allow(unused_imports)]
                use $crate::Strategy as _;
                let mut proptest_rng = $crate::test_rng(stringify!($name));
                for _ in 0..$crate::CASES {
                    $( let $arg = ($strat).generate(&mut proptest_rng); )+
                    $body
                }
            }
        )*
    };
}

/// `assert!` under proptest's name (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under proptest's name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under proptest's name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

pub mod prelude {
    //! Glob-import target mirroring `proptest::prelude`.
    pub use crate::collection;
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_pattern_respects_alphabet_and_length() {
        let mut rng = test_rng("class");
        for _ in 0..200 {
            let s = "[a-c]{0,2}".generate(&mut rng);
            assert!(s.chars().count() <= 2);
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn printable_pattern_has_no_controls() {
        let mut rng = test_rng("pc");
        for _ in 0..100 {
            let s = "\\PC{0,40}".generate(&mut rng);
            assert!(s.chars().count() <= 40);
            assert!(!s.chars().any(char::is_control), "{s:?}");
        }
    }

    #[test]
    fn mixed_class_with_space() {
        let mut rng = test_rng("mix");
        for _ in 0..100 {
            let s = "[a-zA-Z ]{0,30}".generate(&mut rng);
            assert!(
                s.chars().all(|c| c == ' ' || c.is_ascii_alphabetic()),
                "{s:?}"
            );
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = test_rng("vec");
        let strat = collection::vec((0usize..4, 1usize..=10), 2..6);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            for (a, b) in v {
                assert!(a < 4);
                assert!((1..=10).contains(&b));
            }
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        use rand::RngCore;
        assert_eq!(test_rng("x").next_u64(), test_rng("x").next_u64());
        assert_ne!(test_rng("x").next_u64(), test_rng("y").next_u64());
    }

    proptest! {
        /// The macro itself works end-to-end.
        #[test]
        fn macro_smoke(a in 0usize..10, s in "[a-z]{1,4}") {
            prop_assert!(a < 10);
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert_eq!(s.to_lowercase(), s.clone());
            prop_assert_ne!(s.len(), 0);
        }
    }
}
