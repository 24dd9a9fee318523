//! How far two runs of one algorithm may differ. The class of each
//! algorithm is declared in the catalogue
//! ([`Algo::determinism`](crate::Algo::determinism)); the service
//! (cache, coalescer), the bench ablations and the cross-schedule
//! property tests read it there and compare through
//! [`Determinism::agrees_f32`] / [`agrees_u32`].
//!
//! [`agrees_u32`]: Determinism::agrees_u32

/// How far two runs of the same algorithm on the same input may differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Determinism {
    /// Every run produces the same bits.
    BitExact,
    /// Runs agree to within this fraction of the result's largest finite
    /// magnitude (see [`Determinism::agrees_f32`]).
    Tolerance(f32),
}

impl Determinism {
    /// Integer results have no tolerance: every class demands equality.
    pub fn agrees_u32(self, a: &[u32], b: &[u32]) -> bool {
        a == b
    }

    /// Whether `b` is an acceptable re-run of `a`: the same bits, or —
    /// under `Tolerance(eps)` — every value within `eps` times the
    /// largest finite magnitude in `a` (non-finite values must match
    /// exactly).
    pub fn agrees_f32(self, a: &[f32], b: &[f32]) -> bool {
        // No bound at all under `BitExact`: `|0.0 - -0.0| <= 0.0` holds,
        // and signed zeros are different bits.
        let bound = match self {
            Determinism::BitExact => None,
            Determinism::Tolerance(eps) => {
                let finite = a.iter().filter(|x| x.is_finite());
                Some(eps * finite.fold(0.0f32, |m, x| m.max(x.abs())))
            }
        };
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.to_bits() == y.to_bits() || bound.is_some_and(|bound| (x - y).abs() <= bound)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_relative_to_the_largest_finite_value() {
        let class = Determinism::Tolerance(1e-4);
        let a = [1000.0, 1.0, f32::INFINITY];
        assert!(class.agrees_f32(&a, &[1000.05, 1.05, f32::INFINITY]));
        assert!(!class.agrees_f32(&a, &[1000.2, 1.0, f32::INFINITY]));
        assert!(!class.agrees_f32(&a, &[1000.0, 1.0, f32::MAX]));
        assert!(!class.agrees_f32(&a, &[1000.0, 1.0]));
    }

    #[test]
    fn bit_exact_distinguishes_signed_zeros() {
        assert!(Determinism::BitExact.agrees_f32(&[0.5, f32::NAN], &[0.5, f32::NAN]));
        assert!(!Determinism::BitExact.agrees_f32(&[0.0], &[-0.0]));
        assert!(!Determinism::BitExact.agrees_f32(&[1.0], &[1.0 + f32::EPSILON]));
    }
}
