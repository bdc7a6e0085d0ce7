//! Domain regions of uncertain objects.
//!
//! The paper (Theorem 1) models every uncertain object's domain region as an
//! axis-aligned hyper-rectangle `R = [l_1, u_1] x ... x [l_m, u_m]`; the
//! U-centroid region is then the member-wise average box. [`Interval`] is one
//! side of that box and [`BoxRegion`] the full region.

use serde::{Deserialize, Serialize};

/// A closed real interval `[lo, hi]` (one dimension of a domain region).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`. Panics in debug builds if `lo > hi`. A NaN
    /// endpoint passes in every build: the object it bounds carries the
    /// NaN into its moments, where the engines refuse it as non-finite,
    /// so hostile pdf parameters meet one checked error in debug and
    /// release builds alike.
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(
            lo <= hi || lo.is_nan() || hi.is_nan(),
            "interval requires lo <= hi, got [{lo}, {hi}]"
        );
        Self { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Self::new(x, x)
    }

    /// Interval width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Interval midpoint.
    pub fn center(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether `x` lies in the closed interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Intersection with another interval, or `None` if disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// Smallest interval containing both operands.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Clamps `x` into the interval.
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lo, self.hi)
    }

    /// Distance from a scalar to the interval (0 when inside).
    pub fn distance_to(&self, x: f64) -> f64 {
        if x < self.lo {
            self.lo - x
        } else if x > self.hi {
            x - self.hi
        } else {
            0.0
        }
    }

    /// Largest distance from `x` to any point of the interval.
    pub fn max_distance_to(&self, x: f64) -> f64 {
        (x - self.lo).abs().max((x - self.hi).abs())
    }
}

/// An `m`-dimensional axis-aligned box: the domain region of a multivariate
/// uncertain object (Definition 1 with the rectangular regions of Theorem 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxRegion {
    sides: Box<[Interval]>,
}

impl BoxRegion {
    /// Builds a region from its per-dimension intervals.
    pub fn new(sides: impl Into<Box<[Interval]>>) -> Self {
        Self {
            sides: sides.into(),
        }
    }

    /// The degenerate region `{x}` of a deterministic point.
    pub fn point(x: &[f64]) -> Self {
        Self::new(x.iter().map(|&v| Interval::point(v)).collect::<Vec<_>>())
    }

    /// Number of dimensions `m`.
    pub fn dims(&self) -> usize {
        self.sides.len()
    }

    /// Per-dimension intervals.
    pub fn sides(&self) -> &[Interval] {
        &self.sides
    }

    /// The interval of dimension `j`.
    pub fn side(&self, j: usize) -> Interval {
        self.sides[j]
    }

    /// Whether the point lies inside the region. Panics if the
    /// dimensionalities differ.
    pub fn contains(&self, x: &[f64]) -> bool {
        assert_eq!(x.len(), self.dims(), "dimension mismatch");
        self.sides.iter().zip(x).all(|(iv, &v)| iv.contains(v))
    }

    /// The region's center point.
    pub fn center(&self) -> Vec<f64> {
        self.sides.iter().map(Interval::center).collect()
    }

    /// Squared Euclidean distance from `y` to the closest point of the box.
    ///
    /// Used by the MinMax-BB pruning baseline as a lower bound on the expected
    /// distance between an object and a candidate centroid.
    pub fn min_sq_distance_to(&self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.dims(), "dimension mismatch");
        self.sides
            .iter()
            .zip(y)
            .map(|(iv, &v)| {
                let d = iv.distance_to(v);
                d * d
            })
            .sum()
    }

    /// Squared Euclidean distance from `y` to the farthest point of the box
    /// (always attained at a corner; computable per-dimension).
    pub fn max_sq_distance_to(&self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.dims(), "dimension mismatch");
        self.sides
            .iter()
            .zip(y)
            .map(|(iv, &v)| {
                let d = iv.max_distance_to(v);
                d * d
            })
            .sum()
    }

    /// The member-wise average of several regions: the U-centroid's domain
    /// region per Theorem 1,
    /// `R = [ (1/|C|) Σ l_i^(j), (1/|C|) Σ u_i^(j) ]_j`.
    ///
    /// Panics if `regions` is empty or dimensionalities differ.
    pub fn average(regions: &[&BoxRegion]) -> BoxRegion {
        assert!(!regions.is_empty(), "cannot average zero regions");
        let m = regions[0].dims();
        let inv = 1.0 / regions.len() as f64;
        let sides = (0..m)
            .map(|j| {
                let (lo, hi) = regions.iter().fold((0.0, 0.0), |(lo, hi), r| {
                    assert_eq!(r.dims(), m, "dimension mismatch");
                    (lo + r.side(j).lo, hi + r.side(j).hi)
                });
                Interval::new(lo * inv, hi * inv)
            })
            .collect::<Vec<_>>();
        BoxRegion::new(sides)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::new(-1.0, 3.0);
        assert_eq!(iv.width(), 4.0);
        assert_eq!(iv.center(), 1.0);
        assert!(iv.contains(0.0));
        assert!(iv.contains(-1.0) && iv.contains(3.0));
        assert!(!iv.contains(3.0001));
    }

    #[test]
    fn interval_distance() {
        let iv = Interval::new(0.0, 2.0);
        assert_eq!(iv.distance_to(1.0), 0.0);
        assert_eq!(iv.distance_to(-2.0), 2.0);
        assert_eq!(iv.distance_to(5.0), 3.0);
        assert_eq!(iv.max_distance_to(0.5), 1.5);
        assert_eq!(iv.max_distance_to(-1.0), 3.0);
    }

    #[test]
    fn interval_intersect_and_hull() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        let c = Interval::new(5.0, 6.0);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn box_contains_and_center() {
        let r = BoxRegion::new(vec![Interval::new(0.0, 2.0), Interval::new(-1.0, 1.0)]);
        assert!(r.contains(&[1.0, 0.0]));
        assert!(!r.contains(&[3.0, 0.0]));
        assert_eq!(r.center(), vec![1.0, 0.0]);
    }

    #[test]
    fn box_min_max_distance() {
        let r = BoxRegion::new(vec![Interval::new(0.0, 2.0), Interval::new(0.0, 2.0)]);
        // Point inside: min distance 0, max distance to farthest corner.
        assert_eq!(r.min_sq_distance_to(&[1.0, 1.0]), 0.0);
        assert_eq!(r.max_sq_distance_to(&[0.0, 0.0]), 8.0);
        // Point outside along one axis.
        assert_eq!(r.min_sq_distance_to(&[4.0, 1.0]), 4.0);
    }

    #[test]
    fn average_region_matches_theorem_1() {
        let r1 = BoxRegion::new(vec![Interval::new(0.0, 2.0)]);
        let r2 = BoxRegion::new(vec![Interval::new(4.0, 6.0)]);
        let avg = BoxRegion::average(&[&r1, &r2]);
        assert_eq!(avg.side(0), Interval::new(2.0, 4.0));
    }

    #[test]
    fn point_region_is_degenerate() {
        let r = BoxRegion::point(&[1.0, -2.0]);
        assert_eq!(r.side(0).width(), 0.0);
        assert!(r.contains(&[1.0, -2.0]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn contains_panics_on_dim_mismatch() {
        let r = BoxRegion::point(&[1.0]);
        let _ = r.contains(&[1.0, 2.0]);
    }
}
