//! Seeded inputs: the benchmark's own generator and the order in which a
//! pass sends its operations.
//!
//! The generator is the benchmark's, not the library's, so a change to the
//! simulator's RNG can never change what the benchmark asks for.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for `seed` and a per-purpose `label`, so independent
    /// draws never share a stream.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut g = Gen(seed ^ 0x9e37_79b9_7f4a_7c15);
        for b in label.bytes() {
            g.0 = (g.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            g.next_u64();
        }
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Whether a send is an operation's first execution or its repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
}

/// The order of one pass over `n` distinct operations: every operation is
/// sent once cold and once warm, the warm send always after the cold one,
/// otherwise in seeded order. Each operation draws two keys; the smaller
/// places its cold send, the larger its warm send.
pub fn cold_warm_order(n: usize, g: &mut Gen) -> Vec<(usize, Kind)> {
    let mut slots: Vec<(u64, usize, Kind)> = Vec::with_capacity(2 * n);
    for i in 0..n {
        let (a, b) = (g.next_u64(), g.next_u64());
        slots.push((a.min(b), i, Kind::Cold));
        slots.push((a.max(b), i, Kind::Warm));
    }
    // Ties (vanishingly rare) break by operation, cold first.
    slots.sort_by_key(|&(k, i, kind)| (k, i, kind == Kind::Warm));
    slots.into_iter().map(|(_, i, kind)| (i, kind)).collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, g: &mut Gen) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, g.below(i as u64 + 1) as usize);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_follows_cold_and_every_op_appears_twice() {
        let order = cold_warm_order(100, &mut Gen::new(7, "order"));
        assert_eq!(order.len(), 200);
        let mut seen_cold = [false; 100];
        for &(i, kind) in &order {
            match kind {
                Kind::Cold => {
                    assert!(!seen_cold[i]);
                    seen_cold[i] = true;
                }
                Kind::Warm => assert!(seen_cold[i], "warm send of {i} before its cold send"),
            }
        }
        assert!(seen_cold.iter().all(|&c| c));
    }

    #[test]
    fn labels_separate_streams() {
        let a = Gen::new(1, "a").next_u64();
        let b = Gen::new(1, "b").next_u64();
        assert_ne!(a, b);
    }
}
