//! Seeded op plans.
//!
//! Every op of every client is derived from `(seed, workload, client,
//! position)` by a counter-based hash, so a plan can be cut into phases
//! (warm-up, measured) without the cut changing any op, and the same seed
//! always yields the same ops.

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The random stream of one op: a small generator seeded from the op's
/// coordinates, from which a workload draws the op's fields in order.
pub struct OpRng(u64);

impl OpRng {
    /// The generator of op `position` of `client` in workload `workload`.
    pub fn new(seed: u64, workload: &str, client: usize, position: u64) -> OpRng {
        let mut state = mix(seed);
        for byte in workload.bytes() {
            state = mix(state ^ u64::from(byte));
        }
        state = mix(state ^ (client as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        OpRng(mix(state ^ position.wrapping_mul(0x9FB2_1C65_1E98_DF25)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// A value in `low..=high`.
    pub fn range(&mut self, low: u64, high: u64) -> u64 {
        low + self.next_u64() % (high - low + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_depend_on_every_coordinate() {
        let base = OpRng::new(1, "ring", 0, 0).next_u64();
        assert_eq!(base, OpRng::new(1, "ring", 0, 0).next_u64());
        assert_ne!(base, OpRng::new(2, "ring", 0, 0).next_u64());
        assert_ne!(base, OpRng::new(1, "bank", 0, 0).next_u64());
        assert_ne!(base, OpRng::new(1, "ring", 1, 0).next_u64());
        assert_ne!(base, OpRng::new(1, "ring", 0, 1).next_u64());
    }

    #[test]
    fn range_stays_inside_its_bounds() {
        let mut rng = OpRng::new(7, "contend", 0, 0);
        for _ in 0..1000 {
            let v = rng.range(1, 8);
            assert!((1..=8).contains(&v));
        }
    }
}
