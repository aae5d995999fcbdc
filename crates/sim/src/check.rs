//! A minimal, deterministic property-testing harness.
//!
//! The workspace must build and test offline, so it cannot depend on
//! `proptest`. This module provides the small slice of that
//! functionality the test suites actually use: run a closure over many
//! randomly generated inputs, with every input derived from a [`Pcg32`]
//! stream so failures replay exactly. On failure the case seed is
//! printed; set `NECTAR_CHECK_SEED` to re-run a single failing case.

use std::cell::Cell;

use crate::rng::Pcg32;

/// Default number of cases for property tests, tuned to keep the whole
/// suite fast while still exploring a meaningful slice of input space.
pub const DEFAULT_CASES: u64 = 96;

thread_local! {
    /// Seed of the property case currently executing on this thread
    /// (set by [`cases`]), so deep assertion failures — e.g. the
    /// conformance oracle in `nectar-stack` — can name the exact
    /// `NECTAR_CHECK_SEED` that replays them.
    static CURRENT_SEED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The seed of the in-flight [`cases`] case, if any.
fn current_seed() -> Option<u64> {
    CURRENT_SEED.with(|c| c.get())
}

/// A replay instruction for the in-flight case, or the empty string
/// outside [`cases`]. Appended to invariant-violation panics so the
/// failing input is always one environment variable away.
pub fn replay_hint() -> String {
    match current_seed() {
        Some(seed) => format!("; replay with NECTAR_CHECK_SEED={seed:x}"),
        None => String::new(),
    }
}

/// A source of random test inputs for one case.
pub struct Gen {
    pub rng: Pcg32,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen { rng: Pcg32::seeded(seed) }
    }

    /// An arbitrary 64-bit value (seed material for nested generators).
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range(lo, hi)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.f64() * (hi - lo)
    }

    /// A byte vector whose length is uniform in `[lo, hi)`.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let n = self.rng.range(lo, hi);
        (0..n).map(|_| self.rng.next_u32() as u8).collect()
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// A uniformly chosen element of `items` (panics on an empty slice,
    /// like indexing would).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.below(items.len() as u32) as usize]
    }
}

/// Number of cases a suite should run: `n`, unless the named
/// environment variable overrides it (e.g. `NECTAR_CHAOS_CASES=40`).
/// Lets CI dial one suite up or down without a rebuild.
pub fn cases_from_env(var: &str, n: u64) -> u64 {
    std::env::var(var).ok().and_then(|s| s.trim().parse().ok()).filter(|&v| v > 0).unwrap_or(n)
}

/// Greedily shrink a failing input to a local minimum. `candidates`
/// proposes strictly-smaller variants of `input`; any variant for which
/// `fails` still returns true becomes the new input, and the loop
/// restarts until no candidate reproduces the failure. Deterministic:
/// candidates are tried in the order proposed.
pub fn shrink<T: Clone>(
    mut input: T,
    mut candidates: impl FnMut(&T) -> Vec<T>,
    mut fails: impl FnMut(&T) -> bool,
) -> T {
    'outer: loop {
        for cand in candidates(&input) {
            if fails(&cand) {
                input = cand;
                continue 'outer;
            }
        }
        return input;
    }
}

/// Run `f` over `n` generated cases. Panics propagate after printing
/// the case seed, so a red test names the exact input that broke it.
pub fn cases(n: u64, mut f: impl FnMut(&mut Gen)) {
    let (base, forced) = match std::env::var("NECTAR_CHECK_SEED").ok().and_then(|s| {
        let s = s.trim().trim_start_matches("0x");
        u64::from_str_radix(s, 16).ok()
    }) {
        Some(seed) => (seed, true),
        None => (0x6e_c7a6_5eed_u64, false),
    };
    let n = if forced { 1 } else { n };
    for i in 0..n {
        let seed =
            if forced { base } else { base.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CURRENT_SEED.with(|c| c.set(Some(seed)));
            let mut g = Gen::new(seed);
            f(&mut g);
        }));
        CURRENT_SEED.with(|c| c.set(None));
        if let Err(e) = result {
            eprintln!(
                "check: case {i} of {n} failed; re-run just it with NECTAR_CHECK_SEED={seed:x}"
            );
            std::panic::resume_unwind(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let mut a = Gen::new(1);
        let mut b = Gen::new(1);
        assert_eq!(a.bytes(0, 64), b.bytes(0, 64));
        assert_eq!(a.usize_in(5, 50), b.usize_in(5, 50));
        assert_eq!(a.u64(), b.u64());
    }

    #[test]
    fn cases_runs_requested_count() {
        let mut count = 0;
        cases(17, |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn shrink_reaches_local_minimum() {
        // failure = the vec contains a 7; shrinking removes one element
        // at a time, so the minimum is exactly [7].
        let input = vec![3, 7, 1, 7, 9];
        let min = shrink(
            input,
            |v: &Vec<i32>| {
                (0..v.len())
                    .map(|i| {
                        let mut c = v.clone();
                        c.remove(i);
                        c
                    })
                    .collect()
            },
            |v| v.contains(&7),
        );
        assert_eq!(min, vec![7]);
    }

    #[test]
    fn cases_from_env_parses_override() {
        assert_eq!(cases_from_env("NECTAR_NO_SUCH_VAR_", 20), 20);
        std::env::set_var("NECTAR_CHECK_TEST_CASES_VAR", "7");
        assert_eq!(cases_from_env("NECTAR_CHECK_TEST_CASES_VAR", 20), 7);
        std::env::set_var("NECTAR_CHECK_TEST_CASES_VAR", "junk");
        assert_eq!(cases_from_env("NECTAR_CHECK_TEST_CASES_VAR", 20), 20);
        std::env::remove_var("NECTAR_CHECK_TEST_CASES_VAR");
    }

    #[test]
    fn f64_in_stays_in_range() {
        let mut g = Gen::new(2);
        for _ in 0..1000 {
            let v = g.f64_in(0.25, 0.75);
            assert!((0.25..0.75).contains(&v));
        }
    }
}
