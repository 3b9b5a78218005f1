//! Minimal convolutional neural network with SGD training.
//!
//! The MANN controller is a small CNN; the paper's study realizes it on
//! RRAM crossbars. We implement exactly the pieces needed — 3×3 same-pad
//! convolution, 2×2 max pooling, ReLU, fully connected layers, softmax
//! cross-entropy — with hand-written backpropagation, so the whole
//! pipeline is self-contained and deterministic.

use xlda_num::rng::Rng64;

/// A channels × height × width activation tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Channel count.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Row-major data, channel-major outermost.
    pub data: Vec<f64>,
}

impl Tensor {
    /// Creates a zero tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "tensor dims must be positive");
        Self {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if the data length disagrees with the shape.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), c * h * w, "data length mismatch");
        Self { c, h, w, data }
    }

    #[inline]
    fn at(&self, ch: usize, y: usize, x: usize) -> f64 {
        self.data[(ch * self.h + y) * self.w + x]
    }

    #[inline]
    fn at_mut(&mut self, ch: usize, y: usize, x: usize) -> &mut f64 {
        &mut self.data[(ch * self.h + y) * self.w + x]
    }
}

/// 3×3 same-padding convolution (stride 1).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    /// Weights `[out_c][in_c][3][3]`, flattened.
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Conv2d {
    /// He-initialized convolution layer.
    pub fn new(in_c: usize, out_c: usize, rng: &mut Rng64) -> Self {
        let fan_in = (in_c * 9) as f64;
        let sigma = (2.0 / fan_in).sqrt();
        Self {
            in_c,
            out_c,
            w: rng.normal_vec(out_c * in_c * 9, 0.0, sigma),
            b: vec![0.0; out_c],
        }
    }

    #[inline]
    fn wi(&self, o: usize, i: usize, dy: usize, dx: usize) -> usize {
        ((o * self.in_c + i) * 3 + dy) * 3 + dx
    }

    /// Forward pass.
    ///
    /// Each output is its bias plus its in-bounds taps added in
    /// `(i, dy, dx)` order, one output at a time. The pass keeps one
    /// output row per `(channel, y)` and adds each tap to the run of
    /// outputs it reaches; border outputs skip the taps that fall outside
    /// the input rather than adding `w * 0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count mismatches.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.c, self.in_c, "conv input channels");
        let (h, w) = (input.h, input.w);
        let mut out = Tensor::zeros(self.out_c, h, w);
        for (o, plane) in out.data.chunks_exact_mut(h * w).enumerate() {
            for (y, acc) in plane.chunks_exact_mut(w).enumerate() {
                acc.fill(self.b[o]);
                for i in 0..self.in_c {
                    for dy in 0..3usize {
                        // Input row y + dy - 1, when it exists.
                        let Some(yy) = (y + dy).checked_sub(1).filter(|&yy| yy < h) else {
                            continue;
                        };
                        let row = &input.data[(i * h + yy) * w..][..w];
                        for dx in 0..3usize {
                            // Output x reads input x + dx - 1, which exists
                            // for x in lo..hi.
                            let lo = 1 - dx.min(1);
                            let hi = (w + 1 - dx).min(w);
                            if lo >= hi {
                                continue;
                            }
                            let k = self.w[self.wi(o, i, dy, dx)];
                            let src = &row[lo + dx - 1..hi + dx - 1];
                            for (a, &v) in acc[lo..hi].iter_mut().zip(src) {
                                *a += k * v;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The one-output-at-a-time forward pass that `forward` must match
    /// bit for bit.
    #[cfg(test)]
    fn forward_scalar(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.c, self.in_c, "conv input channels");
        let mut out = Tensor::zeros(self.out_c, input.h, input.w);
        for o in 0..self.out_c {
            for y in 0..input.h {
                for x in 0..input.w {
                    let mut acc = self.b[o];
                    for i in 0..self.in_c {
                        for dy in 0..3usize {
                            let yy = y as i64 + dy as i64 - 1;
                            if yy < 0 || yy >= input.h as i64 {
                                continue;
                            }
                            for dx in 0..3usize {
                                let xx = x as i64 + dx as i64 - 1;
                                if xx < 0 || xx >= input.w as i64 {
                                    continue;
                                }
                                acc += self.w[self.wi(o, i, dy, dx)]
                                    * input.at(i, yy as usize, xx as usize);
                            }
                        }
                    }
                    *out.at_mut(o, y, x) = acc;
                }
            }
        }
        out
    }

    /// Backward pass: returns the input gradient and accumulates weight
    /// gradients into `gw`/`gb`.
    #[allow(clippy::needless_range_loop)] // nested spatial loops index several buffers
    fn backward(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        gw: &mut [f64],
        gb: &mut [f64],
    ) -> Tensor {
        let mut grad_in = Tensor::zeros(input.c, input.h, input.w);
        for o in 0..self.out_c {
            for y in 0..input.h {
                for x in 0..input.w {
                    let g = grad_out.at(o, y, x);
                    if g == 0.0 {
                        continue;
                    }
                    gb[o] += g;
                    for i in 0..self.in_c {
                        for dy in 0..3usize {
                            let yy = y as i64 + dy as i64 - 1;
                            if yy < 0 || yy >= input.h as i64 {
                                continue;
                            }
                            for dx in 0..3usize {
                                let xx = x as i64 + dx as i64 - 1;
                                if xx < 0 || xx >= input.w as i64 {
                                    continue;
                                }
                                let idx = self.wi(o, i, dy, dx);
                                gw[idx] += g * input.at(i, yy as usize, xx as usize);
                                *grad_in.at_mut(i, yy as usize, xx as usize) += g * self.w[idx];
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// Number of weight parameters.
    pub fn weight_count(&self) -> usize {
        self.w.len()
    }

    /// Flat weight view (for crossbar mapping): `[out_c][in_c][3][3]`.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Bias per output channel.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }

    /// (input channels, output channels).
    pub fn shape(&self) -> (usize, usize) {
        (self.in_c, self.out_c)
    }
}

/// Outputs whose sums one pass of [`Linear::forward`] interleaves.
const LINEAR_BLOCK: usize = 4;

/// Fully connected layer.
#[derive(Debug, Clone)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Linear {
    /// He-initialized linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        let sigma = (2.0 / in_dim as f64).sqrt();
        Self {
            in_dim,
            out_dim,
            w: rng.normal_vec(in_dim * out_dim, 0.0, sigma),
            b: vec![0.0; out_dim],
        }
    }

    /// Forward pass.
    ///
    /// Each output is its bias plus the left-to-right sum of its products
    /// folded from `-0.0`, as `Sum for f64` folds. The pass interleaves the
    /// sums of a few outputs at a time; the outputs left over sum one by
    /// one.
    ///
    /// # Panics
    ///
    /// Panics on input dimension mismatch.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "linear input dim");
        let n = self.in_dim;
        let mut out = Vec::with_capacity(self.out_dim);
        let mut blocks = self.w.chunks_exact(LINEAR_BLOCK * n);
        for block in blocks.by_ref() {
            let rows: [&[f64]; LINEAR_BLOCK] = std::array::from_fn(|j| &block[j * n..][..n]);
            let mut acc = [-0.0; LINEAR_BLOCK];
            for (k, &xk) in x.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(rows) {
                    *a += row[k] * xk;
                }
            }
            let o = out.len();
            out.extend(self.b[o..].iter().zip(acc).map(|(b, a)| b + a));
        }
        for row in blocks.remainder().chunks_exact(n) {
            let o = out.len();
            out.push(self.b[o] + row.iter().zip(x).map(|(a, b)| a * b).sum::<f64>());
        }
        out
    }

    /// The one-output-at-a-time forward pass that `forward` must match
    /// bit for bit.
    #[cfg(test)]
    fn forward_scalar(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "linear input dim");
        (0..self.out_dim)
            .map(|o| {
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                self.b[o] + row.iter().zip(x).map(|(a, b)| a * b).sum::<f64>()
            })
            .collect()
    }

    fn backward(&self, x: &[f64], grad_out: &[f64], gw: &mut [f64], gb: &mut [f64]) -> Vec<f64> {
        let mut grad_in = vec![0.0; self.in_dim];
        for (o, gbo) in gb.iter_mut().enumerate().take(self.out_dim) {
            let g = grad_out[o];
            *gbo += g;
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut gw[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += g * x[i];
                grad_in[i] += g * row[i];
            }
        }
        grad_in
    }

    /// Flat weight view (for crossbar mapping): `[out_dim][in_dim]`.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Bias per output.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }

    /// (input dimension, output dimension).
    pub fn shape(&self) -> (usize, usize) {
        (self.in_dim, self.out_dim)
    }

    /// Number of weight parameters.
    pub fn weight_count(&self) -> usize {
        self.w.len()
    }
}

pub(crate) fn relu(x: &mut [f64]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

fn relu_backward(activated: &[f64], grad: &mut [f64]) {
    for (g, &a) in grad.iter_mut().zip(activated) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

/// 2×2 max pooling (stride 2); returns output and argmax indices.
pub(crate) fn maxpool(input: &Tensor) -> (Tensor, Vec<usize>) {
    let (oh, ow) = (input.h / 2, input.w / 2);
    let mut out = Tensor::zeros(input.c, oh, ow);
    let mut arg = vec![0usize; input.c * oh * ow];
    for c in 0..input.c {
        for y in 0..oh {
            for x in 0..ow {
                let mut best = f64::NEG_INFINITY;
                let mut best_idx = 0usize;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let iy = 2 * y + dy;
                        let ix = 2 * x + dx;
                        let idx = (c * input.h + iy) * input.w + ix;
                        if input.data[idx] > best {
                            best = input.data[idx];
                            best_idx = idx;
                        }
                    }
                }
                *out.at_mut(c, y, x) = best;
                arg[(c * oh + y) * ow + x] = best_idx;
            }
        }
    }
    (out, arg)
}

fn maxpool_backward(
    input_shape: (usize, usize, usize),
    arg: &[usize],
    grad_out: &Tensor,
) -> Tensor {
    let mut grad_in = Tensor::zeros(input_shape.0, input_shape.1, input_shape.2);
    for (i, &src) in arg.iter().enumerate() {
        grad_in.data[src] += grad_out.data[i];
    }
    grad_in
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let m = logits.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f64> = logits.iter().map(|&l| (l - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / s).collect()
}

/// The MANN controller CNN:
/// `conv(1→8) → relu → pool → conv(8→16) → relu → pool → fc(784→emb)
/// → relu → fc(emb→classes)`.
#[derive(Debug, Clone)]
pub struct SmallCnn {
    conv1: Conv2d,
    conv2: Conv2d,
    fc_emb: Linear,
    fc_out: Linear,
    side: usize,
    emb_dim: usize,
    classes: usize,
}

/// Cached activations from a training forward pass.
struct Caches {
    input: Tensor,
    a1: Tensor,
    arg1: Vec<usize>,
    p1: Tensor,
    a2: Tensor,
    arg2: Vec<usize>,
    p2: Tensor,
    flat: Vec<f64>,
    emb: Vec<f64>,
    logits: Vec<f64>,
}

impl SmallCnn {
    /// Builds the network for `side`×`side` single-channel images.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not divisible by 4 or dims are zero.
    pub fn new(side: usize, emb_dim: usize, classes: usize, rng: &mut Rng64) -> Self {
        assert!(
            side.is_multiple_of(4) && side > 0,
            "side must be divisible by 4"
        );
        assert!(emb_dim > 0 && classes > 0, "dims must be positive");
        let flat = 16 * (side / 4) * (side / 4);
        Self {
            conv1: Conv2d::new(1, 8, rng),
            conv2: Conv2d::new(8, 16, rng),
            fc_emb: Linear::new(flat, emb_dim, rng),
            fc_out: Linear::new(emb_dim, classes, rng),
            side,
            emb_dim,
            classes,
        }
    }

    /// Embedding dimensionality.
    pub fn emb_dim(&self) -> usize {
        self.emb_dim
    }

    /// Number of classifier outputs (background classes).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// First convolution layer.
    pub fn conv1(&self) -> &Conv2d {
        &self.conv1
    }

    /// Second convolution layer.
    pub fn conv2(&self) -> &Conv2d {
        &self.conv2
    }

    /// Embedding head.
    pub fn fc_emb(&self) -> &Linear {
        &self.fc_emb
    }

    /// Image side length the network expects.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Total weight count across all layers (the paper quotes >65 000
    /// weights realized as 130 000 RRAM devices for its model).
    pub fn weight_count(&self) -> usize {
        self.conv1.weight_count()
            + self.conv2.weight_count()
            + self.fc_emb.weight_count()
            + self.fc_out.weight_count()
    }

    fn forward_cached(&self, image: &[f64]) -> Caches {
        assert_eq!(image.len(), self.side * self.side, "image size mismatch");
        let input = Tensor::from_vec(1, self.side, self.side, image.to_vec());
        let mut a1 = self.conv1.forward(&input);
        relu(&mut a1.data);
        let (p1, arg1) = maxpool(&a1);
        let mut a2 = self.conv2.forward(&p1);
        relu(&mut a2.data);
        let (p2, arg2) = maxpool(&a2);
        let flat = p2.data.clone();
        let mut emb = self.fc_emb.forward(&flat);
        relu(&mut emb);
        let logits = self.fc_out.forward(&emb);
        Caches {
            input,
            a1,
            arg1,
            p1,
            a2,
            arg2,
            p2,
            flat,
            emb,
            logits,
        }
    }

    /// The L2-normalized embedding (feature vector) of an image.
    pub fn embed(&self, image: &[f64]) -> Vec<f64> {
        let c = self.forward_cached(image);
        let n = xlda_num::matrix::norm(&c.emb).max(1e-12);
        c.emb.iter().map(|&v| v / n).collect()
    }

    /// Class logits of an image.
    pub fn logits(&self, image: &[f64]) -> Vec<f64> {
        self.forward_cached(image).logits
    }

    /// One SGD step on a single example; returns the cross-entropy loss.
    ///
    /// # Panics
    ///
    /// Panics if `label >= classes` or the image size mismatches.
    pub fn train_step(&mut self, image: &[f64], label: usize, lr: f64) -> f64 {
        assert!(label < self.classes, "label out of range");
        let c = self.forward_cached(image);
        let probs = softmax(&c.logits);
        let loss = -(probs[label].max(1e-12)).ln();

        // dL/dlogits = probs - onehot
        let mut grad_logits = probs;
        grad_logits[label] -= 1.0;

        let mut gw_out = vec![0.0; self.fc_out.w.len()];
        let mut gb_out = vec![0.0; self.fc_out.b.len()];
        let mut grad_emb = self
            .fc_out
            .backward(&c.emb, &grad_logits, &mut gw_out, &mut gb_out);
        relu_backward(&c.emb, &mut grad_emb);

        let mut gw_emb = vec![0.0; self.fc_emb.w.len()];
        let mut gb_emb = vec![0.0; self.fc_emb.b.len()];
        let grad_flat = self
            .fc_emb
            .backward(&c.flat, &grad_emb, &mut gw_emb, &mut gb_emb);

        let grad_p2 = Tensor::from_vec(c.p2.c, c.p2.h, c.p2.w, grad_flat);
        let mut grad_a2 = maxpool_backward((c.a2.c, c.a2.h, c.a2.w), &c.arg2, &grad_p2);
        relu_backward(&c.a2.data, &mut grad_a2.data);

        let mut gw2 = vec![0.0; self.conv2.w.len()];
        let mut gb2 = vec![0.0; self.conv2.b.len()];
        let grad_p1 = self.conv2.backward(&c.p1, &grad_a2, &mut gw2, &mut gb2);

        let mut grad_a1 = maxpool_backward((c.a1.c, c.a1.h, c.a1.w), &c.arg1, &grad_p1);
        relu_backward(&c.a1.data, &mut grad_a1.data);

        let mut gw1 = vec![0.0; self.conv1.w.len()];
        let mut gb1 = vec![0.0; self.conv1.b.len()];
        let _ = self.conv1.backward(&c.input, &grad_a1, &mut gw1, &mut gb1);

        // SGD update.
        let upd = |w: &mut [f64], g: &[f64]| {
            for (wi, &gi) in w.iter_mut().zip(g) {
                *wi -= lr * gi;
            }
        };
        upd(&mut self.fc_out.w, &gw_out);
        upd(&mut self.fc_out.b, &gb_out);
        upd(&mut self.fc_emb.w, &gw_emb);
        upd(&mut self.fc_emb.b, &gb_emb);
        upd(&mut self.conv2.w, &gw2);
        upd(&mut self.conv2.b, &gb2);
        upd(&mut self.conv1.w, &gw1);
        upd(&mut self.conv1.b, &gb1);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tensor_indexing() {
        let mut t = Tensor::zeros(2, 3, 4);
        *t.at_mut(1, 2, 3) = 5.0;
        assert_eq!(t.at(1, 2, 3), 5.0);
        assert_eq!(t.data[23], 5.0);
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut rng = Rng64::new(1);
        let mut conv = Conv2d::new(1, 1, &mut rng);
        conv.w = vec![0.0; 9];
        conv.w[4] = 1.0; // center tap
        conv.b = vec![0.0];
        let input = Tensor::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv.forward(&input);
        assert_eq!(out.data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn maxpool_picks_maxima() {
        let input = Tensor::from_vec(1, 2, 2, vec![1.0, 5.0, 3.0, 2.0]);
        let (out, arg) = maxpool(&input);
        assert_eq!(out.data, vec![5.0]);
        assert_eq!(arg, vec![1]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn conv_gradient_check() {
        // Finite-difference check on a random weight.
        let mut rng = Rng64::new(2);
        let conv = Conv2d::new(2, 3, &mut rng);
        let input = Tensor::from_vec(2, 4, 4, rng.normal_vec(32, 0.0, 1.0));
        let loss = |c: &Conv2d| -> f64 { c.forward(&input).data.iter().map(|v| v * v).sum() };
        let out = conv.forward(&input);
        let grad_out = Tensor::from_vec(3, 4, 4, out.data.iter().map(|&v| 2.0 * v).collect());
        let mut gw = vec![0.0; conv.w.len()];
        let mut gb = vec![0.0; conv.b.len()];
        conv.backward(&input, &grad_out, &mut gw, &mut gb);
        let eps = 1e-5;
        for &idx in &[0usize, 7, 20, 53] {
            let mut c2 = conv.clone();
            c2.w[idx] += eps;
            let num = (loss(&c2) - loss(&conv)) / eps;
            assert!(
                (num - gw[idx]).abs() < 1e-2 * (1.0 + num.abs()),
                "w[{idx}]: numeric {num} vs analytic {}",
                gw[idx]
            );
        }
    }

    #[test]
    fn linear_gradient_check() {
        let mut rng = Rng64::new(3);
        let lin = Linear::new(5, 4, &mut rng);
        let x = rng.normal_vec(5, 0.0, 1.0);
        let loss = |l: &Linear| -> f64 { l.forward(&x).iter().map(|v| v * v).sum() };
        let out = lin.forward(&x);
        let grad_out: Vec<f64> = out.iter().map(|&v| 2.0 * v).collect();
        let mut gw = vec![0.0; lin.w.len()];
        let mut gb = vec![0.0; lin.b.len()];
        lin.backward(&x, &grad_out, &mut gw, &mut gb);
        let eps = 1e-6;
        for idx in [0usize, 9, 19] {
            let mut l2 = lin.clone();
            l2.w[idx] += eps;
            let num = (loss(&l2) - loss(&lin)) / eps;
            assert!(
                (num - gw[idx]).abs() < 1e-3 * (1.0 + num.abs()),
                "numeric {num} vs {}",
                gw[idx]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        let mut rng = Rng64::new(4);
        let mut net = SmallCnn::new(8, 16, 2, &mut rng);
        // Two trivially separable patterns.
        let a = vec![1.0; 64];
        let b = vec![0.0; 64];
        let first_loss = net.train_step(&a, 0, 0.01) + net.train_step(&b, 1, 0.01);
        for _ in 0..30 {
            net.train_step(&a, 0, 0.01);
            net.train_step(&b, 1, 0.01);
        }
        let final_loss = {
            let pa = softmax(&net.logits(&a));
            let pb = softmax(&net.logits(&b));
            -(pa[0].ln() + pb[1].ln())
        };
        assert!(final_loss < first_loss, "{final_loss} vs {first_loss}");
        // And classification is now correct.
        let pa = softmax(&net.logits(&a));
        assert!(pa[0] > 0.8);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let mut rng = Rng64::new(5);
        let net = SmallCnn::new(28, 64, 10, &mut rng);
        let img: Vec<f64> = (0..784).map(|i| (i % 7) as f64 / 7.0).collect();
        let e = net.embed(&img);
        assert_eq!(e.len(), 64);
        let n = xlda_num::matrix::norm(&e);
        assert!((n - 1.0).abs() < 1e-9 || n == 0.0);
    }

    /// Bit-for-bit equality. IEEE 754 leaves NaN payloads and signs
    /// unspecified, so any two NaNs compare equal; every other value,
    /// signed zeros and infinities included, must match exactly.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// `n` normal draws; with `specials > 0`, about one in
    /// `12 / specials` is replaced by ±0.0, ±inf or NaN.
    fn with_specials(rng: &mut Rng64, n: usize, specials: u64) -> Vec<f64> {
        const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        (0..n)
            .map(|_| {
                let x = rng.normal(0.0, 1.0);
                if rng.below(12) < specials {
                    SPECIAL[rng.below(5) as usize]
                } else {
                    x
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn conv_forward_matches_scalar_reference(
            in_c in 1usize..4,
            out_c in 1usize..4,
            h in 1usize..7,
            w in 1usize..7,
            specials in 0u64..4,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng64::new(seed);
            let mut conv = Conv2d::new(in_c, out_c, &mut rng);
            conv.w = with_specials(&mut rng, conv.w.len(), specials);
            conv.b = with_specials(&mut rng, out_c, specials);
            let input = Tensor::from_vec(in_c, h, w, with_specials(&mut rng, in_c * h * w, specials));
            let out = conv.forward(&input);
            prop_assert_eq!((out.c, out.h, out.w), (out_c, h, w));
            prop_assert!(same_bits(&out.data, &conv.forward_scalar(&input).data));
        }

        #[test]
        fn linear_forward_matches_scalar_reference(
            in_dim in 1usize..20,
            out_dim in 1usize..15,
            specials in 0u64..4,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng64::new(seed);
            let mut lin = Linear::new(in_dim, out_dim, &mut rng);
            lin.w = with_specials(&mut rng, lin.w.len(), specials);
            lin.b = with_specials(&mut rng, out_dim, specials);
            let x = with_specials(&mut rng, in_dim, specials);
            prop_assert!(same_bits(&lin.forward(&x), &lin.forward_scalar(&x)));
        }
    }

    #[test]
    fn negative_zero_sums_keep_their_sign() {
        // A -0.0 bias plus only -0.0 products stays -0.0 in both passes: a
        // sum started from +0.0, or border padding added as w * 0.0,
        // would turn it into +0.0.
        for (h, w) in [(1, 1), (1, 5), (4, 1), (3, 4)] {
            let mut conv = Conv2d::new(2, 3, &mut Rng64::new(9));
            conv.w = vec![1.0; conv.w.len()];
            conv.b = vec![-0.0; 3];
            let input = Tensor::from_vec(2, h, w, vec![-0.0; 2 * h * w]);
            let out = conv.forward(&input);
            assert!(same_bits(&out.data, &conv.forward_scalar(&input).data));
            assert!(out.data.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
        }
        for out_dim in [1, 4, 7] {
            let mut lin = Linear::new(6, out_dim, &mut Rng64::new(10));
            lin.w = vec![2.0; lin.w.len()];
            lin.b = vec![-0.0; out_dim];
            let x = vec![-0.0; 6];
            let y = lin.forward(&x);
            assert!(same_bits(&y, &lin.forward_scalar(&x)));
            assert!(y.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
        }
    }

    #[test]
    fn weight_count_in_papers_ballpark() {
        // Paper: >65 000 weights for the Omniglot CNN model; a 96-d
        // embedding head puts our controller in the same ballpark.
        let mut rng = Rng64::new(6);
        let net = SmallCnn::new(28, 96, 64, &mut rng);
        assert!(net.weight_count() > 65_000, "{}", net.weight_count());
    }
}
