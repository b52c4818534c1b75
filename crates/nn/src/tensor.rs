//! Dense `f32` tensors with row-major layout.

use rand::Rng;
use std::fmt;

/// A dense, row-major `f32` tensor.
///
/// Deliberately minimal: shape + flat storage + the handful of operations
/// the layer zoo needs. No views, no broadcasting — the explicitness keeps
/// the hand-written backward passes auditable.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(data.len(), expect, "data length {} != shape product {}", data.len(), expect);
        Self { shape, data }
    }

    /// All-zero tensor.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: vec![0.0; n] }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n: usize = shape.iter().product();
        Self { shape, data: vec![value; n] }
    }

    /// Uniform random tensor in `[-scale, scale]` (used for weight init).
    pub fn rand_uniform<R: Rng + ?Sized>(shape: Vec<usize>, scale: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self { shape, data }
    }

    /// Kaiming-style init for a parameter with the given fan-in.
    pub fn kaiming<R: Rng + ?Sized>(shape: Vec<usize>, fan_in: usize, rng: &mut R) -> Self {
        let scale = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::rand_uniform(shape, scale, rng)
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable flat data access.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data access.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(self.data.len(), expect, "reshape element count mismatch");
        self.shape = shape;
        self
    }

    /// Element-wise sum with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// In-place element-wise accumulate.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise scale.
    pub fn scale(&self, k: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| v * k).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean squared magnitude (for diagnostics and tests).
    pub fn mean_sq(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().map(|v| v * v).sum::<f32>() / self.data.len() as f32
        }
    }

    /// Matrix multiply: `self [m×k] · other [k×n] → [m×n]`.
    ///
    /// Row-blocked `i-k-j` kernel with a zero-skip on the left operand
    /// (mapping tensors are mostly zeros). The row blocks go to the thread
    /// pool, which forks only once a product has run long enough to pay
    /// for a thread (the `rayon` shim's fork rule); the per-row arithmetic
    /// (and hence the result, bit for bit) does not depend on which thread
    /// runs a block.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch");
        // Multiply-adds per row block: enough that the pool's per-block
        // clock read is noise, few enough that a long product leaves
        // blocks to split.
        const BLOCK_MACS: usize = 1 << 14;
        let rows_per = (BLOCK_MACS / (k * n).max(1)).max(1);
        let mut out = vec![0.0f32; m * n];
        let mut blocks: Vec<&mut [f32]> = out.chunks_mut((rows_per * n).max(1)).collect();
        rayon::iter::par_map_slice_mut(&mut blocks, rayon::current_num_threads(), &|b, dst| {
            let rows = dst.len() / n;
            let lhs = &self.data[b * rows_per * k..(b * rows_per + rows) * k];
            matmul_rows(lhs, &other.data, dst, rows, k, n);
        });
        Tensor { shape: vec![m, n], data: out }
    }

    /// In-place ReLU (used by the allocation-free inference path).
    pub fn relu_inplace(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// In-place row-wise softmax of a 2-D tensor — the inference path.
    ///
    /// Uses [`fast_exp`] (polynomial `2^x`, relative error < 1e-6) instead
    /// of libm `exp`: attention layers spend a large share of their time
    /// exponentiating scores, and softmax ratios are insensitive at that
    /// precision. The training path ([`Tensor::softmax_rows`]) keeps libm.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn softmax_rows_inplace(&mut self) {
        assert_eq!(self.shape.len(), 2, "softmax_rows_inplace needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        for i in 0..m {
            let row = &mut self.data[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            // Three separate passes so the exponential pass stays free of
            // cross-iteration dependencies and auto-vectorizes.
            for v in row.iter_mut() {
                *v = fast_exp(*v - max);
            }
            let denom: f32 = row.iter().sum();
            let inv = 1.0 / denom;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor { shape: vec![n, m], data: out }
    }

    /// Row-wise softmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "softmax_rows needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for v in &mut out[i * n..(i + 1) * n] {
                *v /= denom;
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }
}

/// Fast `e^x` for `x ≤ 0` (the softmax regime): `2^(x·log₂e)` with the
/// fractional power from a degree-7 Taylor polynomial and the integer
/// power spliced into the float exponent bits. Relative error < 1e-6;
/// inputs below −87 flush to 0 like libm.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    // Branch-free (the clamp handles underflow: 2^-126 · p ≈ 0) so the
    // softmax loops auto-vectorize. `floor` is computed by truncating the
    // biased value `y + 126 ≥ 0` — unlike `f32::floor`, integer
    // truncation vectorizes on every x86-64 baseline.
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    let y = x.clamp(-87.0, 87.0) * LOG2E;
    let ti = (y + 126.0) as i32; // trunc(y + 126) == floor(y) + 126 here
    let yi = (ti - 126) as f32;
    let f = y - yi;
    // 2^f on [0, 1): Taylor in f·ln2 through degree 7.
    let p = 1.0
        + f * (std::f32::consts::LN_2
            + f * (0.240_226_5
                + f * (0.055_504_11
                    + f * (0.009_618_13
                        + f * (0.001_333_355
                            + f * (1.540_353_5e-4 + f * 1.525_27e-5))))));
    let bits = ((ti + 1) << 23) as u32;
    f32::from_bits(bits) * p
}

/// Shared `i-k-j` matmul kernel over raw row-major storage:
/// `out [rows×n] = lhs [rows×k] · rhs [k×n]`, skipping zero `lhs` entries.
///
/// Narrow outputs (`n ≤ 48` — attention layers live here) accumulate into
/// a stack array: through the output slice, every `p` step pays a reload
/// and store per lane because the compiler cannot prove `out` and `rhs`
/// disjoint.
fn matmul_rows(lhs: &[f32], rhs: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    if n <= 48 {
        for i in 0..rows {
            let mut acc = [0.0f32; 48];
            for p in 0..k {
                let a = lhs[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &rhs[p * n..(p + 1) * n];
                for (d, &b) in acc[..n].iter_mut().zip(row) {
                    *d += a * b;
                }
            }
            out[i * n..(i + 1) * n].copy_from_slice(&acc[..n]);
        }
        return;
    }
    for i in 0..rows {
        for p in 0..k {
            let a = lhs[i * k + p];
            if a == 0.0 {
                continue;
            }
            let row = &rhs[p * n..(p + 1) * n];
            let dst = &mut out[i * n..(i + 1) * n];
            for (d, &b) in dst.iter_mut().zip(row) {
                *d += a * b;
            }
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

/// Backward helper for `softmax` applied row-wise: given the softmax output
/// `y` and upstream gradient `dy`, returns `dx` (`dx_i = y_i (dy_i − Σ_j
/// y_j dy_j)`).
pub fn softmax_rows_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(y.shape(), dy.shape(), "softmax backward shape mismatch");
    let (m, n) = (y.shape()[0], y.shape()[1]);
    let mut dx = vec![0.0f32; m * n];
    for i in 0..m {
        let yr = &y.data()[i * n..(i + 1) * n];
        let dyr = &dy.data()[i * n..(i + 1) * n];
        let dot: f32 = yr.iter().zip(dyr).map(|(a, b)| a * b).sum();
        for j in 0..n {
            dx[i * n + j] = yr[j] * (dyr[j] - dot);
        }
    }
    Tensor::from_vec(dx, vec![m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], vec![2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], vec![3, 3]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::rand_uniform(vec![3, 5], 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], vec![2, 3]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![1, 3]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], vec![1, 3]);
        let (sa, sb) = (a.softmax_rows(), b.softmax_rows());
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1], vec![1, 4]);
        let w = [0.5f32, -1.0, 0.25, 2.0]; // fixed loss weights
        let loss = |t: &Tensor| -> f32 {
            t.softmax_rows().data().iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let y = x.softmax_rows();
        let dy = Tensor::from_vec(w.to_vec(), vec![1, 4]);
        let dx = softmax_rows_backward(&y, &dy);
        let eps = 1e-3;
        for j in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[j] += eps;
            let mut xm = x.clone();
            xm.data_mut()[j] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[j]).abs() < 1e-3,
                "softmax grad mismatch at {j}: {num} vs {}",
                dx.data()[j]
            );
        }
    }

    #[test]
    fn large_matmul_parallel_path_matches_serial() {
        // Long enough to fork across row blocks on multi-core hosts;
        // on single-core hosts this still exercises the serial kernel.
        let mut rng = StdRng::seed_from_u64(6);
        let a = Tensor::rand_uniform(vec![160, 96], 1.0, &mut rng);
        let b = Tensor::rand_uniform(vec![96, 160], 1.0, &mut rng);
        let fast = a.matmul(&b);
        // Reference: naive triple loop.
        let mut expect = vec![0.0f32; 160 * 160];
        for i in 0..160 {
            for p in 0..96 {
                let av = a.data()[i * 96 + p];
                for j in 0..160 {
                    expect[i * 160 + j] += av * b.data()[p * 160 + j];
                }
            }
        }
        for (x, y) in fast.data().iter().zip(&expect) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn relu_inplace_clamps_negatives() {
        let mut t = Tensor::from_vec(vec![-1.0, 0.0, 2.5, -0.1], vec![4]);
        t.relu_inplace();
        assert_eq!(t.data(), &[0.0, 0.0, 2.5, 0.0]);
    }

    #[test]
    fn softmax_rows_inplace_matches_out_of_place() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], vec![2, 3]);
        let reference = a.softmax_rows();
        let mut b = a.clone();
        b.softmax_rows_inplace();
        for (x, y) in b.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-5, "fast softmax drifted: {x} vs {y}");
        }
    }

    #[test]
    fn fast_exp_accuracy() {
        for i in 0..2000 {
            let x = -(i as f32) * 0.05; // [0, -100]
            let fast = fast_exp(x);
            let exact = x.exp();
            let tol = 5e-6 * exact.max(f32::MIN_POSITIVE);
            assert!(
                (fast - exact).abs() <= tol.max(1e-30),
                "fast_exp({x}) = {fast}, libm = {exact}"
            );
        }
        assert!(fast_exp(-100.0) < 1e-37, "deep negatives must flush to ~0");
        assert!((fast_exp(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shape product")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], vec![3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = a.clone().reshape(vec![4]);
        assert_eq!(b.data(), a.data());
        assert_eq!(b.shape(), &[4]);
    }

    #[test]
    fn add_and_scale() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], vec![2]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }
}
