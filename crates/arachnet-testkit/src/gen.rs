//! Seeded value generators with shrinking.
//!
//! A [`Gen<T>`] bundles two closures: `generate`, which draws a value from a
//! [`TagRng`], and `shrink`, which proposes a handful of strictly "simpler"
//! candidates for a failing value. Shrink candidates must always move toward
//! a fixed point (smaller magnitude, shorter length, earlier choice) so the
//! runner's bounded walk terminates.

use arachnet_core::rng::TagRng;

/// Boxed shrink function: proposes strictly simpler candidates for a value.
type ShrinkFn<T> = Box<dyn Fn(&T) -> Vec<T>>;

/// A seeded generator for values of type `T`, with optional shrinking.
pub struct Gen<T> {
    generate: Box<dyn Fn(&mut TagRng) -> T>,
    shrink: ShrinkFn<T>,
}

impl<T: 'static> Gen<T> {
    /// Creates a generator from a draw function, with no shrinking.
    pub fn new(generate: impl Fn(&mut TagRng) -> T + 'static) -> Self {
        Gen {
            generate: Box::new(generate),
            shrink: Box::new(|_| Vec::new()),
        }
    }

    /// Attaches a shrink function that proposes simpler candidates for a
    /// failing value. Candidates must be strictly simpler than the input or
    /// shrinking may loop until the step budget is exhausted.
    pub fn with_shrink(mut self, shrink: impl Fn(&T) -> Vec<T> + 'static) -> Self {
        self.shrink = Box::new(shrink);
        self
    }

    /// Draws one value.
    pub fn generate(&self, rng: &mut TagRng) -> T {
        (self.generate)(rng)
    }

    /// Proposes simpler candidates for a failing value (possibly empty).
    pub fn shrink_candidates(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }

    /// Maps generated values through `f`. The mapped generator does not
    /// shrink (shrinking happens in the source domain only when the mapping
    /// is avoided), so prefer building composite values with [`zip`] /
    /// [`vec()`] when shrinking matters.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let g = self.generate;
        Gen::new(move |rng| f(g(rng)))
    }
}

macro_rules! int_range_gen {
    ($(#[$doc:meta])* $name:ident, $ty:ty) => {
        $(#[$doc])*
        ///
        /// Draws uniformly from `lo..hi` (half-open; `hi` must exceed `lo`).
        /// Shrinks toward `lo` by halving the distance and by stepping down
        /// by one.
        pub fn $name(lo: $ty, hi: $ty) -> Gen<$ty> {
            assert!(lo < hi, "empty range {}..{}", lo, hi);
            Gen::new(move |rng| lo + rng.below((hi - lo) as u64) as $ty).with_shrink(move |&v| {
                let mut out = Vec::new();
                if v > lo {
                    out.push(lo);
                    let half = lo + (v - lo) / 2;
                    if half != lo && half != v {
                        out.push(half);
                    }
                    if v - 1 != lo && (v - lo) > 1 {
                        out.push(v - 1);
                    }
                }
                out
            })
        }
    };
}

int_range_gen!(
    /// Uniform `u64` in a half-open range.
    u64_range, u64
);
int_range_gen!(
    /// Uniform `u32` in a half-open range.
    u32_range, u32
);
int_range_gen!(
    /// Uniform `u16` in a half-open range.
    u16_range, u16
);
int_range_gen!(
    /// Uniform `u8` in a half-open range.
    u8_range, u8
);
int_range_gen!(
    /// Uniform `usize` in a half-open range.
    usize_range, usize
);

/// Any `u64` (full range). Shrinks toward zero.
pub fn u64_any() -> Gen<u64> {
    Gen::new(|rng| rng.next_u64()).with_shrink(|&v| {
        let mut out = Vec::new();
        if v > 0 {
            out.push(0);
            if v / 2 != 0 && v / 2 != v {
                out.push(v / 2);
            }
            if v - 1 != 0 {
                out.push(v - 1);
            }
        }
        out
    })
}

/// Uniform `f64` in `[lo, hi)`. Shrinks toward `lo`, halving the distance;
/// candidates closer than one millionth of the range are suppressed so the
/// walk terminates.
pub fn f64_range(lo: f64, hi: f64) -> Gen<f64> {
    assert!(lo < hi, "empty range {}..{}", lo, hi);
    let eps = (hi - lo) * 1e-6;
    Gen::new(move |rng| lo + rng.unit_f64() * (hi - lo)).with_shrink(move |&v| {
        let mut out = Vec::new();
        if v - lo > eps {
            out.push(lo);
            let half = lo + (v - lo) / 2.0;
            if half - lo > eps && v - half > eps {
                out.push(half);
            }
        }
        out
    })
}

/// Fair coin flip. `true` shrinks to `false`.
pub fn boolean() -> Gen<bool> {
    Gen::new(|rng| rng.chance(0.5)).with_shrink(|&v| if v { vec![false] } else { Vec::new() })
}

/// Uniform choice from a fixed list of options. Shrinks toward earlier
/// entries in the list, so put the "simplest" option first.
pub fn select<T: Clone + PartialEq + 'static>(options: Vec<T>) -> Gen<T> {
    assert!(!options.is_empty(), "select() needs at least one option");
    let pick = options.clone();
    Gen::new(move |rng| pick[rng.below(pick.len() as u64) as usize].clone()).with_shrink(move |v| {
        match options.iter().position(|o| o == v) {
            Some(pos) => options[..pos].to_vec(),
            None => Vec::new(),
        }
    })
}

/// Vector of `elem` draws with length uniform in `min_len..=max_len`.
///
/// Shrinks by (a) truncating to the minimum length, (b) halving the length,
/// (c) dropping one element at a time, and (d) shrinking each element in
/// place using the element generator's own shrinker.
pub fn vec<T: Clone + 'static>(elem: Gen<T>, min_len: usize, max_len: usize) -> Gen<Vec<T>> {
    assert!(min_len <= max_len, "min_len > max_len");
    let elem = std::rc::Rc::new(elem);
    let elem_gen = elem.clone();
    Gen::new(move |rng| {
        let len = min_len + rng.below((max_len - min_len + 1) as u64) as usize;
        (0..len).map(|_| elem_gen.generate(rng)).collect()
    })
    .with_shrink(move |v: &Vec<T>| {
        let mut out: Vec<Vec<T>> = Vec::new();
        if v.len() > min_len {
            out.push(v[..min_len].to_vec());
            let half = min_len + (v.len() - min_len) / 2;
            if half != min_len && half != v.len() {
                out.push(v[..half].to_vec());
            }
            for i in 0..v.len() {
                let mut dropped = v.clone();
                dropped.remove(i);
                out.push(dropped);
            }
        }
        for (i, x) in v.iter().enumerate() {
            for cand in elem.shrink_candidates(x) {
                let mut swapped = v.clone();
                swapped[i] = cand;
                out.push(swapped);
            }
        }
        out
    })
}

/// Pairs two generators; shrinks each side independently while holding the
/// other fixed.
pub fn zip<A, B>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)>
where
    A: Clone + 'static,
    B: Clone + 'static,
{
    let (a, b) = (std::rc::Rc::new(a), std::rc::Rc::new(b));
    let (ga, gb) = (a.clone(), b.clone());
    Gen::new(move |rng| (ga.generate(rng), gb.generate(rng))).with_shrink(move |(x, y)| {
        let mut out = Vec::new();
        for cand in a.shrink_candidates(x) {
            out.push((cand, y.clone()));
        }
        for cand in b.shrink_candidates(y) {
            out.push((x.clone(), cand));
        }
        out
    })
}

/// Triples three generators; shrinks componentwise.
pub fn zip3<A, B, C>(a: Gen<A>, b: Gen<B>, c: Gen<C>) -> Gen<(A, B, C)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
{
    let inner = zip(a, zip(b, c));
    let paired = std::rc::Rc::new(inner);
    let g = paired.clone();
    Gen::new(move |rng| {
        let (x, (y, z)) = g.generate(rng);
        (x, y, z)
    })
    .with_shrink(move |(x, y, z)| {
        paired
            .shrink_candidates(&(x.clone(), (y.clone(), z.clone())))
            .into_iter()
            .map(|(sx, (sy, sz))| (sx, sy, sz))
            .collect()
    })
}

/// Quadruples four generators; shrinks componentwise.
pub fn zip4<A, B, C, D>(a: Gen<A>, b: Gen<B>, c: Gen<C>, d: Gen<D>) -> Gen<(A, B, C, D)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
    D: Clone + 'static,
{
    let inner = zip(zip(a, b), zip(c, d));
    let paired = std::rc::Rc::new(inner);
    let g = paired.clone();
    Gen::new(move |rng| {
        let ((w, x), (y, z)) = g.generate(rng);
        (w, x, y, z)
    })
    .with_shrink(move |(w, x, y, z)| {
        paired
            .shrink_candidates(&((w.clone(), x.clone()), (y.clone(), z.clone())))
            .into_iter()
            .map(|((sw, sx), (sy, sz))| (sw, sx, sy, sz))
            .collect()
    })
}
