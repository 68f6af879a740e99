//! Counter-based dawdle noise for the batched fidelity.
//!
//! Exact mode draws dawdling noise from a *sequential* per-road stream:
//! every draw depends on how many draws came before it, which welds the
//! car-following loop to the visitation order and to a serial dependency
//! chain through the generator state. The batched kernel instead derives
//! each sample *statelessly* from the key `(seed, vehicle_id, tick)`:
//!
//! - **Order-independent** — a vehicle's draw is the same whatever order
//!   the fleet is visited in, so lanes can be updated in any order
//!   without changing a single trajectory.
//! - **Deterministic** — the same key always yields the same sample,
//!   across repeats and checkpoint restores (the key is plain data, so
//!   there is no stream position to save).
//! - **Cheap** — one SplitMix64-style integer mix plus a bit-cast to
//!   `f64`, with no loop-carried state.
//!
//! The statistical quality bar is modest — dawdling wants i.i.d.-looking
//! `U[0, 1)` noise, not cryptographic strength — and the SplitMix64
//! finalizer comfortably clears it (it is the same avalanche the
//! workspace's `SmallRng` shim uses for seeding).

/// Mixes the draw key into a scrambled 64-bit word.
///
/// The three words are combined injectively-enough (distinct odd
/// multipliers per coordinate, from the SplitMix64/xxHash constant
/// families) and then avalanched by the SplitMix64 finalizer, so flipping
/// any key bit flips each output bit with probability ≈ 1/2.
#[inline]
pub(crate) fn mix(seed: u64, vehicle_id: u64, tick: u64) -> u64 {
    finish(base(seed, tick), vehicle_id)
}

/// The `(seed, tick)` half of the key combination — loop-invariant
/// across a tick, so batch callers hoist it out of their per-vehicle
/// loops.
#[inline]
pub(crate) fn base(seed: u64, tick: u64) -> u64 {
    seed.wrapping_add(tick.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Folds a vehicle id into a hoisted [`base`] word and avalanches:
/// `finish(base(s, t), v) == mix(s, v, t)` by construction.
#[inline]
pub(crate) fn finish(base: u64, vehicle_id: u64) -> u64 {
    let mut z = base.wrapping_add(vehicle_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a scrambled word to `U[0, 1)` with 52 random mantissa bits: the
/// top bits are planted into the mantissa of a double in `[1, 2)` and the
/// result shifted down — pure bit ops plus one subtraction, so the batch
/// kernel's draw loop autovectorizes.
#[inline]
pub(crate) fn uniform01(word: u64) -> f64 {
    f64::from_bits((word >> 12) | 0x3FF0_0000_0000_0000) - 1.0
}

/// The dawdle sample `ξ ∈ [0, 1)` for `vehicle_id` at `tick` under
/// `seed` — the batched replacement for one sequential `rng.gen::<f64>()`.
#[inline]
pub(crate) fn dawdle_xi(seed: u64, vehicle_id: u64, tick: u64) -> f64 {
    uniform01(mix(seed, vehicle_id, tick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_independent_of_visitation_order() {
        // The property the batched kernel rests on: a draw is a pure
        // function of its key, so visiting vehicles front-to-back,
        // back-to-front, or interleaved across lanes yields identical
        // noise per vehicle.
        let seed = 0xDEAD_BEEF;
        let keys: Vec<(u64, u64)> = (0..64)
            .flat_map(|v| (0..16).map(move |t| (v * 17 + 3, t * 31)))
            .collect();
        let forward: Vec<f64> = keys.iter().map(|&(v, t)| dawdle_xi(seed, v, t)).collect();
        let reverse: Vec<f64> = keys
            .iter()
            .rev()
            .map(|&(v, t)| dawdle_xi(seed, v, t))
            .collect();
        let strided: Vec<f64> = (0..keys.len())
            .map(|i| {
                let (v, t) = keys[(i * 7) % keys.len()];
                dawdle_xi(seed, v, t)
            })
            .collect();
        for (i, &x) in forward.iter().enumerate() {
            assert_eq!(x.to_bits(), reverse[keys.len() - 1 - i].to_bits());
            // Find the strided position of key i: j with (j*7) % len == i.
            let j = (0..keys.len())
                .find(|&j| (j * 7) % keys.len() == i)
                .unwrap();
            assert_eq!(x.to_bits(), strided[j].to_bits());
        }
    }

    #[test]
    fn distinct_keys_decorrelate() {
        // Neighboring keys (vehicle ± 1, tick ± 1, seed ± 1) must not
        // produce equal or near-equal draws — the finalizer's avalanche
        // at the smallest key perturbations.
        let base = dawdle_xi(7, 42, 1000);
        for (s, v, t) in [(7, 43, 1000), (7, 42, 1001), (8, 42, 1000), (7, 41, 999)] {
            let other = dawdle_xi(s, v, t);
            assert_ne!(base.to_bits(), other.to_bits(), "key ({s},{v},{t})");
        }
        // A window of keys yields all-distinct samples (53-bit draws:
        // collisions in a few thousand draws would be astronomical luck).
        let mut seen: Vec<u64> = (0..64u64)
            .flat_map(|v| (0..64u64).map(move |t| dawdle_xi(0, v, t).to_bits()))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64 * 64, "duplicate draws across distinct keys");
    }

    #[test]
    fn uniformity_sanity() {
        // 100k draws across a realistic key grid: mean near 1/2, decile
        // bins near 10% each, range actually exercised. A smoke-level
        // frequency test, not a NIST battery — dawdling noise only needs
        // to look i.i.d. uniform to the physics.
        let n = 100_000u64;
        let mut sum = 0.0;
        let mut bins = [0u32; 10];
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for k in 0..n {
            let x = dawdle_xi(2020, k % 977, k / 977);
            assert!((0.0..1.0).contains(&x), "draw out of [0,1): {x}");
            sum += x;
            bins[(x * 10.0) as usize] += 1;
            min = min.min(x);
            max = max.max(x);
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        for (i, &b) in bins.iter().enumerate() {
            let frac = f64::from(b) / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bin {i} frequency {frac}");
        }
        assert!(min < 0.001 && max > 0.999, "range [{min}, {max}]");
    }

    #[test]
    fn hoisted_base_matches_the_fused_mix() {
        // The batch kernel hoists `base(seed, tick)` per road-tick and
        // folds ids in the loop; the split must reproduce `mix` exactly
        // or the hoist would silently change every trajectory.
        for (s, v, t) in [
            (0, 0, 0),
            (7, 42, 1000),
            (u64::MAX, 3, 9),
            (2020, u64::MAX, u64::MAX),
        ] {
            assert_eq!(finish(base(s, t), v), mix(s, v, t));
        }
    }

    #[test]
    fn uniform01_plants_the_top_bits() {
        assert_eq!(uniform01(0), 0.0);
        assert!(uniform01(u64::MAX) < 1.0);
        assert!((uniform01(1u64 << 63) - 0.5).abs() < 1e-12);
    }
}
