// Pins the float training kernels bit for bit. Each kernel must equal a
// scalar reference that spells out the summation order of every output
// element, on the values training feeds it: +0 entries (ReLU outputs), -0.0,
// subnormals, and shapes that cover every tile edge and the multi-threaded
// row-block split. A kernel that reassociates a sum fails here even when its
// error is far below any tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nessa/tensor/ops.hpp"
#include "nessa/util/rng.hpp"

namespace nessa::tensor {
namespace {

constexpr std::size_t kDims[] = {1, 3, 5, 8, 9, 10, 29, 64, 128};

/// About a third +0, a few -0.0 and subnormals of either sign, the rest
/// uniform in (-2, 2). All finite: a 0 * inf product is where the kernels
/// may legitimately differ from one that skips zeros.
Tensor awkward(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t({rows, cols});
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.35) {
      t[i] = 0.0f;
    } else if (u < 0.40) {
      t[i] = -0.0f;
    } else if (u < 0.45) {
      const auto mantissa =
          static_cast<std::uint32_t>(1 + rng.uniform_int((1u << 23) - 1));
      const float sub = std::bit_cast<float>(mantissa);
      t[i] = rng.uniform() < 0.5 ? sub : -sub;
    } else {
      t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return t;
}

/// c[i][j] = +0, then + a[i][p] * b[p][j] for p ascending.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc = acc + a(i, p) * b(p, j);
      c(i, j) = acc;
    }
  }
  return c;
}

/// c[p][j] = +0, then + a[i][p] * b[i][j] for i ascending.
Tensor ref_matmul_at_b(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c({k, n});
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < m; ++i) acc = acc + a(i, p) * b(i, j);
      c(p, j) = acc;
    }
  }
  return c;
}

/// c[i][j]: eight lane sums over p = 8q + l (each from +0, q ascending),
/// combined pairwise, then the tail p >= 8 * (k / 8), summed from +0 in
/// ascending order, added last.
Tensor ref_matmul_a_bt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const std::size_t body = k / 8 * 8;
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float lane[8] = {};
      for (std::size_t p = 0; p < body; ++p) {
        lane[p % 8] = lane[p % 8] + a(i, p) * b(j, p);
      }
      float tail = 0.0f;
      for (std::size_t p = body; p < k; ++p) tail = tail + a(i, p) * b(j, p);
      c(i, j) = (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                 ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
                tail;
    }
  }
  return c;
}

/// Byte comparison; reports the first differing element.
void expect_same_bits(const Tensor& got, const Tensor& want, const char* who,
                      std::size_t m, std::size_t k, std::size_t n) {
  ASSERT_EQ(got.shape(), want.shape()) << who;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << who << " (m, k, n) = (" << m << ", " << k << ", " << n
        << ") flat " << i << ": got " << got[i] << ", want " << want[i];
  }
}

/// Runs `check(m, k, n, rng)` over every shape drawn from kDims, plus one
/// shape above the 4 MFLOP threshold that splits rows across the pool, and
/// two whose sums run past 128 steps, so A * B resumes partial sums over
/// three passes of B (A^T * B does in the 301-row shape).
template <typename Check>
void each_shape(Check check) {
  util::Rng rng(33);
  for (std::size_t m : kDims) {
    for (std::size_t k : kDims) {
      for (std::size_t n : kDims) check(m, k, n, rng);
    }
  }
  check(301, 128, 129, rng);
  check(37, 300, 13, rng);
  check(6, 260, 6, rng);
}

TEST(FloatKernelBits, MatmulMatchesOrderedReference) {
  each_shape([](std::size_t m, std::size_t k, std::size_t n, util::Rng& rng) {
    const Tensor a = awkward(m, k, rng);
    const Tensor b = awkward(k, n, rng);
    const Tensor want = ref_matmul(a, b);
    expect_same_bits(matmul(a, b, false), want, "matmul serial", m, k, n);
    expect_same_bits(matmul(a, b, true), want, "matmul parallel", m, k, n);
  });
}

TEST(FloatKernelBits, MatmulAtBMatchesOrderedReference) {
  each_shape([](std::size_t m, std::size_t k, std::size_t n, util::Rng& rng) {
    const Tensor a = awkward(m, k, rng);
    const Tensor b = awkward(m, n, rng);
    const Tensor want = ref_matmul_at_b(a, b);
    expect_same_bits(matmul_at_b(a, b, false), want, "matmul_at_b serial", m,
                     k, n);
    expect_same_bits(matmul_at_b(a, b, true), want, "matmul_at_b parallel", m,
                     k, n);
  });
}

TEST(FloatKernelBits, MatmulABtMatchesOrderedReference) {
  each_shape([](std::size_t m, std::size_t k, std::size_t n, util::Rng& rng) {
    const Tensor a = awkward(m, k, rng);
    const Tensor b = awkward(n, k, rng);
    const Tensor want = ref_matmul_a_bt(a, b);
    expect_same_bits(matmul_a_bt(a, b, false), want, "matmul_a_bt serial", m,
                     k, n);
    expect_same_bits(matmul_a_bt(a, b, true), want, "matmul_a_bt parallel", m,
                     k, n);
  });
}

TEST(FloatKernelBits, ReluBackwardMatchesMaskReference) {
  // grad survives where pre > 0 or pre is NaN; elsewhere (including -0.0
  // and negative subnormals) it becomes +0.
  util::Rng rng(34);
  for (std::size_t len : {1, 3, 4, 5, 8, 9, 29, 64, 129}) {
    Tensor pre = awkward(1, len, rng);
    const Tensor grad = awkward(1, len, rng);
    pre[len / 2] = std::numeric_limits<float>::quiet_NaN();
    Tensor want = grad;
    for (std::size_t i = 0; i < len; ++i) {
      if (pre[i] <= 0.0f) want[i] = 0.0f;
    }
    Tensor got = grad;
    relu_backward(got, pre);
    expect_same_bits(got, want, "relu_backward", 1, len, 1);
  }
}

}  // namespace
}  // namespace nessa::tensor
