//! Exact rational arithmetic used throughout the CRSharing model.
//!
//! The paper's algorithms (the dynamic program of Algorithm 1, the
//! configuration-domination test of Algorithm 2, the non-wasting / balanced
//! schedule predicates) all rely on *exact* comparisons of sums of resource
//! requirements.  Floating point would make "does the remaining requirement
//! sum exceed 1?" unreliable, so the whole repository represents resource
//! shares as exact rationals with `i128` numerator and denominator.
//!
//! [`Ratio`] is deliberately small and self-contained: construction always
//! normalizes (reduced fraction, positive denominator), arithmetic reduces
//! eagerly and panics with a descriptive message on `i128` overflow (which
//! cannot occur for the instance families shipped in this repository, whose
//! denominators are bounded by a few million).
//!
//! # Two representations: `Ratio` at the boundary, scaled `u64` in hot loops
//!
//! `Ratio` is the **authoritative** representation at every public API
//! boundary — instances, schedules, bounds, serialization — because it is
//! closed under the arithmetic any caller may perform.  The exact solvers in
//! `cr-algos`, however, run their hot search loops on a
//! [`ScaledInstance`](crate::scaled::ScaledInstance), and the schedulers and
//! the `cr-sim` online arbiter run on a `u64`
//! [`MultiStepper`](crate::multi::MultiStepper): all requirements (and
//! workloads) of one instance re-expressed as integer units on the common
//! grid `1/D` (`D` = the denominators' LCM), where sums, capacity
//! comparisons and share splits are single integer ops with no gcd.
//! The conversion round-trips exactly in both directions, so the two
//! representations never disagree; when the LCM would overflow the scaled
//! form's `u64` headroom, solvers and schedulers simply stay on the `Ratio`
//! path.  Property tests in `cr-algos` cross-check the two paths on random
//! instances.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num / den` with `den > 0`, always stored in
/// lowest terms.
///
/// # Examples
///
/// ```
/// use cr_core::Ratio;
///
/// let half = Ratio::new(1, 2);
/// let third = Ratio::new(1, 3);
/// assert_eq!(half + third, Ratio::new(5, 6));
/// assert!(half > third);
/// assert_eq!(Ratio::from_percent(50), half);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// Greatest common divisor of the absolute values (Euclid).  Works on
/// `unsigned_abs` so `i128::MIN` inputs are handled exactly; the result
/// always fits `i128` because it divides the (non-`MIN`) companion operand.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    // lint: allow(panic_hygiene) — only fires when both operands are i128::MIN, which the reduced-form invariant excludes
    i128::try_from(a).expect("gcd exceeds i128 (both operands were i128::MIN)")
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };
    /// The rational two (useful for approximation-ratio assertions).
    pub const TWO: Ratio = Ratio { num: 2, den: 1 };

    /// Creates a new ratio `num / den`, reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if normalizing the sign overflows (which
    /// happens only for `i128::MIN`, whose negation does not exist).
    #[must_use]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Ratio denominator must be non-zero");
        let (num, den) = if den < 0 {
            (
                num.checked_neg()
                    .expect("Ratio construction overflow (cannot negate i128::MIN numerator)"),
                den.checked_neg()
                    .expect("Ratio construction overflow (cannot negate i128::MIN denominator)"),
            )
        } else {
            (num, den)
        };
        if num == 0 {
            return Ratio { num: 0, den: 1 };
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Creates the integer ratio `n / 1`.
    #[must_use]
    pub fn from_integer(n: i64) -> Self {
        Ratio {
            num: n as i128,
            den: 1,
        }
    }

    /// Creates `p / 100` — convenient because the paper labels all of its
    /// figures with requirements in percent.
    #[must_use]
    pub fn from_percent(p: i64) -> Self {
        Ratio::new(p as i128, 100)
    }

    /// Creates `p / q` from unsigned parts (convenience for generators).
    #[must_use]
    pub fn from_parts(p: u64, q: u64) -> Self {
        Ratio::new(p as i128, q as i128)
    }

    /// Numerator of the reduced fraction (sign carried here).
    #[must_use]
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction (always positive).
    #[must_use]
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    #[must_use]
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value lies in the closed unit interval `[0, 1]`,
    /// the admissible range for resource requirements and shares.
    #[must_use]
    pub fn in_unit_interval(&self) -> bool {
        !self.is_negative() && *self <= Ratio::ONE
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(&self) -> Self {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Minimum of two ratios.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two ratios.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps the value into `[lo, hi]`.
    #[must_use]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi);
        self.max(lo).min(hi)
    }

    /// Floor of the rational as an integer.
    #[must_use]
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling of the rational as an integer.  Used for the Observation 1
    /// lower bound `⌈Σ r_ij·p_ij⌉` on integral makespans.
    #[must_use]
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Reciprocal.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "cannot take reciprocal of zero");
        Ratio::new(self.den, self.num)
    }

    /// Checked addition that reports overflow instead of panicking.
    #[must_use]
    pub fn checked_add(self, other: Self) -> Option<Self> {
        let num = self
            .num
            .checked_mul(other.den)?
            .checked_add(other.num.checked_mul(self.den)?)?;
        let den = self.den.checked_mul(other.den)?;
        Some(Ratio::new(num, den))
    }

    /// Checked multiplication that reports overflow instead of panicking.
    #[must_use]
    pub fn checked_mul(self, other: Self) -> Option<Self> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Some(Ratio::new(num, den))
    }

    /// Approximate `f64` value (for reporting / plotting only, never for
    /// scheduling decisions).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Constructs the closest rational with the given denominator to an
    /// `f64` in `[0, 1]`.  Useful when importing measured traces.
    #[must_use]
    pub fn from_f64_with_denom(x: f64, den: u64) -> Self {
        let den = den.max(1) as i128;
        let num = (x * den as f64).round() as i128;
        Ratio::new(num, den)
    }

    /// Rounds the value **down** to the nearest multiple of `1/denominator`.
    ///
    /// This is the floor step of the deterministic largest-remainder
    /// splitting used by the scheduling layer (see
    /// [`scaled::largest_remainder_split_ratio`](crate::scaled::largest_remainder_split_ratio)):
    /// quantities snapped to an instance's unit grid keep bounded
    /// denominators over arbitrarily long schedules, and snapping down never
    /// overuses the resource.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is not positive or if `num · denominator`
    /// overflows `i128`.
    #[must_use]
    pub fn floor_to_denominator(&self, denominator: i128) -> Self {
        assert!(denominator > 0, "grid denominator must be positive");
        let scaled = self
            .num
            .checked_mul(denominator)
            .expect("Ratio floor_to_denominator overflow")
            .div_euclid(self.den);
        Ratio::new(scaled, denominator)
    }

    /// Sum of a slice (convenience wrapper that avoids iterator adapters in
    /// hot inner loops of the algorithms crate).
    #[must_use]
    pub fn sum_slice(values: &[Ratio]) -> Ratio {
        let mut acc = Ratio::ZERO;
        for v in values {
            acc += *v;
        }
        acc
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal denominators (integers, such as the configuration search's
        // completed-job counts, among them) compare by numerator alone.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Both denominators are positive, so cross multiplication preserves
        // the order; when a product overflows i128, the continued-fraction
        // comparison decides without multiplying.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => cmp_fractions(self.num, self.den, other.num, other.den),
        }
    }
}

/// Orders `a/b` against `c/d` (`b, d > 0`) by comparing their continued
/// fraction expansions term by term: integer parts first, then the
/// reciprocals of the remainders (which reverses the order).  Uses only
/// division, so it cannot overflow.
fn cmp_fractions(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
    let mut reversed = false;
    loop {
        let ord = a.div_euclid(b).cmp(&c.div_euclid(d));
        let (ra, rc) = (a.rem_euclid(b), c.rem_euclid(d));
        if ord != Ordering::Equal || ra == 0 || rc == 0 {
            let ord = ord.then((ra != 0).cmp(&(rc != 0)));
            return if reversed { ord.reverse() } else { ord };
        }
        (a, b, c, d) = (b, ra, d, rc);
        reversed = !reversed;
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, other: Ratio) -> Ratio {
        // lint: allow(panic_hygiene) — the operator form panics on overflow by design; checked_add is the fallible surface
        self.checked_add(other).expect("Ratio addition overflow")
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, other: Ratio) {
        *self = *self + other;
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, other: Ratio) -> Ratio {
        self + (-other)
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, other: Ratio) {
        *self = *self - other;
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, other: Ratio) -> Ratio {
        self.checked_mul(other)
            // lint: allow(panic_hygiene) — the operator form panics on overflow by design; checked_mul is the fallible surface
            .expect("Ratio multiplication overflow")
    }
}

impl MulAssign for Ratio {
    fn mul_assign(&mut self, other: Ratio) {
        *self = *self * other;
    }
}

impl Div for Ratio {
    type Output = Ratio;
    // Division by the reciprocal is the intended exact-rational definition.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, other: Ratio) -> Ratio {
        self * other.recip()
    }
}

impl DivAssign for Ratio {
    fn div_assign(&mut self, other: Ratio) {
        *self = *self / other;
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |a, b| a + *b)
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Self {
        Ratio::from_integer(n)
    }
}

impl From<u32> for Ratio {
    fn from(n: u32) -> Self {
        Ratio::from_integer(n as i64)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Ratio`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError(pub String);

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for ParseRatioError {}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses `"a/b"`, `"a"` or `"x%"` literals.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(pct) = s.strip_suffix('%') {
            let p: i128 = pct
                .trim()
                .parse()
                .map_err(|_| ParseRatioError(s.to_string()))?;
            return Ok(Ratio::new(p, 100));
        }
        if let Some((a, b)) = s.split_once('/') {
            let num: i128 = a
                .trim()
                .parse()
                .map_err(|_| ParseRatioError(s.to_string()))?;
            let den: i128 = b
                .trim()
                .parse()
                .map_err(|_| ParseRatioError(s.to_string()))?;
            if den == 0 {
                return Err(ParseRatioError(s.to_string()));
            }
            return Ok(Ratio::new(num, den));
        }
        let num: i128 = s.parse().map_err(|_| ParseRatioError(s.to_string()))?;
        Ok(Ratio::new(num, 1))
    }
}

/// Shorthand constructor used pervasively in tests and generators.
#[must_use]
pub fn ratio(num: i128, den: i128) -> Ratio {
    Ratio::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::ZERO);
        assert_eq!(Ratio::new(0, 7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "construction overflow")]
    fn min_numerator_negation_panics_descriptively() {
        let _ = Ratio::new(i128::MIN, -1);
    }

    #[test]
    #[should_panic(expected = "construction overflow")]
    fn min_denominator_negation_panics_descriptively() {
        let _ = Ratio::new(1, i128::MIN);
    }

    #[test]
    fn extreme_but_valid_constructions_still_work() {
        assert_eq!(Ratio::new(i128::MIN + 1, -1).numer(), i128::MAX);
        assert_eq!(Ratio::new(-1, 1), Ratio::new(1, -1));
        // i128::MIN numerators are representable; gcd works on unsigned_abs.
        assert_eq!(Ratio::new(i128::MIN, 1).numer(), i128::MIN);
        assert_eq!(Ratio::new(i128::MIN, 2), Ratio::new(i128::MIN / 2, 1));
        assert_eq!(Ratio::new(i128::MIN, i128::MAX).denom(), i128::MAX);
    }

    #[test]
    #[should_panic(expected = "floor_to_denominator overflow")]
    fn floor_to_denominator_overflow_panics_descriptively() {
        let _ = Ratio::new(i128::MAX / 2, 1).floor_to_denominator(1_000);
    }

    #[test]
    fn basic_arithmetic() {
        let a = ratio(1, 3);
        let b = ratio(1, 6);
        assert_eq!(a + b, ratio(1, 2));
        assert_eq!(a - b, ratio(1, 6));
        assert_eq!(a * b, ratio(1, 18));
        assert_eq!(a / b, ratio(2, 1));
        assert_eq!(-a, ratio(-1, 3));
    }

    #[test]
    fn assign_ops() {
        let mut x = ratio(1, 4);
        x += ratio(1, 4);
        assert_eq!(x, ratio(1, 2));
        x -= ratio(1, 8);
        assert_eq!(x, ratio(3, 8));
        x *= ratio(2, 1);
        assert_eq!(x, ratio(3, 4));
        x /= ratio(3, 1);
        assert_eq!(x, ratio(1, 4));
    }

    #[test]
    fn ordering() {
        assert!(ratio(1, 3) < ratio(1, 2));
        assert!(ratio(-1, 2) < Ratio::ZERO);
        assert!(ratio(7, 7) == Ratio::ONE);
        assert!(ratio(101, 100) > Ratio::ONE);
        let mut v = vec![ratio(3, 4), ratio(1, 4), ratio(1, 2)];
        v.sort();
        assert_eq!(v, vec![ratio(1, 4), ratio(1, 2), ratio(3, 4)]);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(ratio(7, 2).floor(), 3);
        assert_eq!(ratio(7, 2).ceil(), 4);
        assert_eq!(ratio(-7, 2).floor(), -4);
        assert_eq!(ratio(-7, 2).ceil(), -3);
        assert_eq!(ratio(4, 2).ceil(), 2);
        assert_eq!(ratio(4, 2).floor(), 2);
        assert_eq!(Ratio::ZERO.ceil(), 0);
    }

    #[test]
    fn unit_interval_check() {
        assert!(Ratio::ZERO.in_unit_interval());
        assert!(Ratio::ONE.in_unit_interval());
        assert!(ratio(1, 2).in_unit_interval());
        assert!(!ratio(-1, 2).in_unit_interval());
        assert!(!ratio(3, 2).in_unit_interval());
    }

    #[test]
    fn percent_helpers() {
        assert_eq!(Ratio::from_percent(25), ratio(1, 4));
        assert_eq!(Ratio::from_percent(100), Ratio::ONE);
        assert_eq!(Ratio::from_percent(0), Ratio::ZERO);
    }

    #[test]
    fn min_max_clamp() {
        assert_eq!(ratio(1, 3).min(ratio(1, 2)), ratio(1, 3));
        assert_eq!(ratio(1, 3).max(ratio(1, 2)), ratio(1, 2));
        assert_eq!(ratio(5, 2).clamp(Ratio::ZERO, Ratio::ONE), Ratio::ONE);
        assert_eq!(ratio(-5, 2).clamp(Ratio::ZERO, Ratio::ONE), Ratio::ZERO);
    }

    #[test]
    fn sum_implementations() {
        let xs = vec![ratio(1, 4), ratio(1, 4), ratio(1, 2)];
        let s1: Ratio = xs.iter().sum();
        let s2: Ratio = xs.iter().copied().sum();
        let s3 = Ratio::sum_slice(&xs);
        assert_eq!(s1, Ratio::ONE);
        assert_eq!(s2, Ratio::ONE);
        assert_eq!(s3, Ratio::ONE);
    }

    #[test]
    fn parsing() {
        assert_eq!("1/2".parse::<Ratio>().unwrap(), ratio(1, 2));
        assert_eq!("  3 / 9 ".parse::<Ratio>().unwrap(), ratio(1, 3));
        assert_eq!("42".parse::<Ratio>().unwrap(), Ratio::from_integer(42));
        assert_eq!("75%".parse::<Ratio>().unwrap(), ratio(3, 4));
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("abc".parse::<Ratio>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for r in [
            ratio(1, 3),
            ratio(-7, 5),
            Ratio::ZERO,
            Ratio::from_integer(9),
        ] {
            let s = r.to_string();
            assert_eq!(s.parse::<Ratio>().unwrap(), r);
        }
    }

    #[test]
    fn f64_conversions() {
        assert!((ratio(1, 3).to_f64() - 0.333_333).abs() < 1e-5);
        assert_eq!(Ratio::from_f64_with_denom(0.25, 100), ratio(1, 4));
        assert_eq!(Ratio::from_f64_with_denom(0.333, 1000), ratio(333, 1000));
    }

    #[test]
    fn serde_roundtrip() {
        let r = ratio(7, 13);
        let json = serde_json::to_string(&r).unwrap();
        let back: Ratio = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn comparison_survives_overflowing_cross_products() {
        let n: i128 = 10_i128.pow(37);
        // (n+1)/(n+2) > n/(n+1), but the cross products overflow i128.
        let (x, y) = (Ratio::new(n + 1, n + 2), Ratio::new(n, n + 1));
        assert!(x > y);
        assert_eq!(y.cmp(&x), Ordering::Less);
        assert_eq!(x.cmp(&x), Ordering::Equal);
        assert!(Ratio::new(-(n + 1), n + 2) < Ratio::new(-n, n + 1));
        assert!(Ratio::new(-1, n + 2) < Ratio::new(1, n + 1));
        let p: i128 = 7_000_000_000_000_000_013;
        assert!(Ratio::new(p - 1, p * (p + 1)) < Ratio::new(p - 1, p));
        // Equal integer parts, decided by the remainders.
        assert!(Ratio::new(2 * n + 1, n) > Ratio::new(2 * n + 3, n + 1));
    }

    #[test]
    fn checked_ops_detect_overflow() {
        let huge = Ratio::new(i128::MAX / 2, 1);
        assert!(huge.checked_mul(huge).is_none());
        assert!(huge.checked_add(huge).is_some());
        let huge = Ratio::new(i128::MAX - 1, 1);
        assert!(huge.checked_add(huge).is_none());
    }

    #[test]
    fn floor_to_denominator_snaps_down() {
        assert_eq!(ratio(1, 3).floor_to_denominator(100), ratio(33, 100));
        assert_eq!(ratio(1, 2).floor_to_denominator(100), ratio(1, 2));
        assert_eq!(ratio(99, 100).floor_to_denominator(10), ratio(9, 10));
        assert_eq!(Ratio::ZERO.floor_to_denominator(7), Ratio::ZERO);
        assert_eq!(ratio(-1, 3).floor_to_denominator(3), ratio(-1, 3));
        // Never increases the value, never moves by more than one grid step.
        for (n, d) in [(7i128, 13i128), (5, 8), (123, 997)] {
            let x = ratio(n, d);
            let snapped = x.floor_to_denominator(1000);
            assert!(snapped <= x);
            assert!(x - snapped < ratio(1, 1000));
        }
    }

    #[test]
    fn recip() {
        assert_eq!(ratio(2, 3).recip(), ratio(3, 2));
        assert_eq!(ratio(-2, 3).recip(), ratio(-3, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Ratio::ZERO.recip();
    }
}
