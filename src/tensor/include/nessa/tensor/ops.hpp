// BLAS-like kernels over rank-2 Tensors. All GEMM variants the MLP forward
// and backward passes need, plus row-wise softmax and distance kernels used
// by the selection library.
//
// The three GEMMs run register-tiled SSE2 kernels, optionally parallelized
// over row blocks via the global thread pool. Each output element keeps one
// fixed summation order whatever the tiling, the thread count or the target
// (docs/performance.md, "Float training step"); tests pin the kernels bit
// for bit to scalar references of that order. matmul_naive is the
// double-precision reference the benchmarks compare against.
#pragma once

#include <cstddef>
#include <span>

#include "nessa/tensor/tensor.hpp"

namespace nessa::tensor {

/// out = A(mxk) * B(kxn). Allocates the output.
Tensor matmul(const Tensor& a, const Tensor& b, bool parallel = true);

/// out = A^T(mxk->kxm as stored mxk) * B(mxn) -> (k x n).
/// I.e. computes A.transpose() * B without materializing the transpose.
Tensor matmul_at_b(const Tensor& a, const Tensor& b, bool parallel = true);

/// out = A(mxk) * B^T where B is (n x k) -> (m x n).
Tensor matmul_a_bt(const Tensor& a, const Tensor& b, bool parallel = true);

/// Naive triple-loop reference GEMM (for tests/benchmarks).
Tensor matmul_naive(const Tensor& a, const Tensor& b);

/// Explicit transpose copy of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Add row vector `bias` (shape [n]) to every row of `a` (shape [m, n]).
void add_row_vector(Tensor& a, const Tensor& bias);

/// Column-wise sum of a rank-2 tensor -> shape [n]. Used for bias gradients.
Tensor column_sums(const Tensor& a);

/// In-place row-wise softmax of a rank-2 tensor (numerically stabilized).
void softmax_rows(Tensor& a);

/// Row-wise argmax of a rank-2 tensor.
std::vector<std::size_t> argmax_rows(const Tensor& a);

/// ReLU forward: out = max(0, a) elementwise (copy).
Tensor relu(const Tensor& a);

/// ReLU backward in place: grad[i] = +0 where pre_activation[i] <= 0 (a NaN
/// pre-activation keeps its gradient).
void relu_backward(Tensor& grad, const Tensor& pre_activation);

/// Squared L2 distance between two equal-length vectors.
float squared_l2(std::span<const float> a, std::span<const float> b) noexcept;

/// Dot product of two equal-length vectors.
float dot(std::span<const float> a, std::span<const float> b) noexcept;

/// L2 norm of a vector.
float l2_norm(std::span<const float> a) noexcept;

/// Pairwise squared-L2 distance matrix between rows of X (m x d) -> (m x m).
/// Uses the ||x||^2 + ||y||^2 - 2<x,y> expansion with the X*X^T cross term
/// fused into the distance finalize (one pass per output row); clamps tiny
/// negatives from cancellation to zero. The result is exactly symmetric and
/// independent of `parallel` and the thread count.
Tensor pairwise_sq_dists(const Tensor& x, bool parallel = true);

}  // namespace nessa::tensor
