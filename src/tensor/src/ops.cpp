#include "nessa/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "nessa/util/thread_pool.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace nessa::tensor {

namespace {

constexpr std::size_t kParallelThresholdFlops = 1u << 22;  // ~4 MFLOP
/// Summation steps per pass of the A*B and A^T*B kernels: one pass sweeps
/// every row against a kBlock-row slab of B, which stays in L2 however
/// large the whole of B is.
constexpr std::size_t kBlock = 128;
/// B-row tile for the A*B^T kernel: 32 B rows of a few hundred floats stay
/// resident in L1 while the A rows stream against them.
constexpr std::size_t kRowTile = 32;
/// Independent float accumulator lanes per dot product. Eight lanes break
/// the serial FP dependency chain so the compiler can keep one full SIMD
/// register of partial sums without reassociating a single accumulator.
constexpr std::size_t kLanes = 8;
/// Row width at which pairwise_sq_dists switches to its column-tiled kernel:
/// past ~4096 columns an output row (16 KB+) no longer shares L1 with the
/// streaming X^T row. Bit-identical either way (see the kernel comment);
/// measured tile-size tradeoffs live in docs/performance.md.
constexpr std::size_t kDistTileMinCols = 4096;
/// Column tile for that kernel: a 4096-float slice of the output row (16 KB)
/// takes all k saxpy passes while cache-resident.
constexpr std::size_t kDistColTile = 4096;

void require_rank2(const Tensor& t, const char* who) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(who) + ": tensor must be rank 2");
  }
}

/// Lane-unrolled dot product of two contiguous float rows. Fixed
/// accumulation order: lane partials combined pairwise, tail appended last.
float dot_lanes(const float* a, const float* b, std::size_t k) noexcept {
  float acc[kLanes] = {};
  std::size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] += a[p + l] * b[p + l];
  }
  float tail = 0.0f;
  for (; p < k; ++p) tail += a[p] * b[p];
  return (((acc[0] + acc[1]) + (acc[2] + acc[3])) +
          ((acc[4] + acc[5]) + (acc[6] + acc[7]))) +
         tail;
}

/// One element of the GEMM family: +0, then + a[s * a_step] * b[s * ldb]
/// for s ascending, each product rounded before its add. Every element of
/// A * B and A^T * B is summed in exactly this order, tiled or not.
float gemm_element(const float* a, std::size_t a_step, const float* b,
                   std::size_t ldb, std::size_t steps) noexcept {
  float acc = 0.0f;
  for (std::size_t s = 0; s < steps; ++s) acc += a[s * a_step] * b[s * ldb];
  return acc;
}

#if defined(__SSE2__)

/// One R x 4V tile of C, each element in gemm_element's order: the
/// accumulators start at +0, or at C's partial sums when the tile resumes
/// after an earlier pass, and take one _mm_mul_ps then one _mm_add_ps per
/// step, with no zero skip. A element (row r, step s) sits at
/// a[r * a_row + s * a_step], B row s at b + s * ldb. Only the columns from
/// `from` on are stored; the ones before it belong to the previous tile.
template <std::size_t R, std::size_t V>
void gemm_tile(const float* a, std::size_t a_row, std::size_t a_step,
               const float* b, std::size_t ldb, float* c, std::size_t ldc,
               std::size_t steps, bool resume, std::size_t from) noexcept {
  __m128 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] =
          resume ? _mm_loadu_ps(c + r * ldc + 4 * v) : _mm_setzero_ps();
    }
  }
  for (std::size_t s = 0; s < steps; ++s, a += a_step, b += ldb) {
    __m128 bv[V];
    for (std::size_t v = 0; v < V; ++v) bv[v] = _mm_loadu_ps(b + 4 * v);
    for (std::size_t r = 0; r < R; ++r) {
      const __m128 av = _mm_set1_ps(a[r * a_row]);
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm_add_ps(acc[r][v], _mm_mul_ps(av, bv[v]));
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    // Full tiles store straight from the registers: going through `out`
    // made the k = 29 forward product about a third slower.
    if (from == 0) {
      for (std::size_t v = 0; v < V; ++v) {
        _mm_storeu_ps(c + r * ldc + 4 * v, acc[r][v]);
      }
      continue;
    }
    float out[4 * V];
    for (std::size_t v = 0; v < V; ++v) _mm_storeu_ps(out + 4 * v, acc[r][v]);
    std::copy(out + from, out + 4 * V, c + r * ldc + from);
  }
}

/// All n >= 4 columns of R rows of C, in 8-wide tiles (4-wide when n < 8).
/// The leftover columns take one more tile that ends at column n and
/// stores only the columns past the previous tile.
template <std::size_t R>
void gemm_row_tiles(const float* a, std::size_t a_row, std::size_t a_step,
                    const float* b, float* c, std::size_t steps,
                    std::size_t n, bool resume) noexcept {
  std::size_t j = 0;
  if (n >= 8) {
    for (; j + 8 <= n; j += 8) {
      gemm_tile<R, 2>(a, a_row, a_step, b + j, n, c + j, n, steps, resume, 0);
    }
    if (j == n) return;
    if (n - j > 4) {
      gemm_tile<R, 2>(a, a_row, a_step, b + n - 8, n, c + n - 8, n, steps,
                      resume, j + 8 - n);
      return;
    }
  } else {
    gemm_tile<R, 1>(a, a_row, a_step, b, n, c, n, steps, resume, 0);
    if (n == 4) return;
    j = 4;
  }
  gemm_tile<R, 1>(a, a_row, a_step, b + n - 4, n, c + n - 4, n, steps, resume,
                  j + 4 - n);
}

/// The 2x2 block C[i..i+1][j..j+1] of A * B^T, each element in dot_lanes'
/// order. Per element, lanes 0-3 and 4-7 of the eight lane sums live in
/// two registers; a 4x4 transpose then lines up lane l of all four elements
/// so the pairwise combine and the tail run once for the whole block.
void abt_tile(const float* a0, const float* a1, const float* b0,
              const float* b1, std::size_t k, float* c0, float* c1) noexcept {
  // Element e in lane order (a0.b0, a0.b1, a1.b0, a1.b1).
  __m128 lo[4], hi[4];
  for (std::size_t e = 0; e < 4; ++e) lo[e] = hi[e] = _mm_setzero_ps();
  std::size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    for (std::size_t h = 0; h < kLanes; h += 4) {
      const __m128 x0 = _mm_loadu_ps(a0 + p + h);
      const __m128 x1 = _mm_loadu_ps(a1 + p + h);
      const __m128 y0 = _mm_loadu_ps(b0 + p + h);
      const __m128 y1 = _mm_loadu_ps(b1 + p + h);
      __m128(&acc)[4] = h == 0 ? lo : hi;
      acc[0] = _mm_add_ps(acc[0], _mm_mul_ps(x0, y0));
      acc[1] = _mm_add_ps(acc[1], _mm_mul_ps(x0, y1));
      acc[2] = _mm_add_ps(acc[2], _mm_mul_ps(x1, y0));
      acc[3] = _mm_add_ps(acc[3], _mm_mul_ps(x1, y1));
    }
  }
  __m128 tail = _mm_setzero_ps();
  for (; p < k; ++p) {
    tail = _mm_add_ps(tail, _mm_mul_ps(_mm_set_ps(a1[p], a1[p], a0[p], a0[p]),
                                       _mm_set_ps(b1[p], b0[p], b1[p], b0[p])));
  }
  _MM_TRANSPOSE4_PS(lo[0], lo[1], lo[2], lo[3]);
  _MM_TRANSPOSE4_PS(hi[0], hi[1], hi[2], hi[3]);
  const __m128 body =
      _mm_add_ps(_mm_add_ps(_mm_add_ps(lo[0], lo[1]), _mm_add_ps(lo[2], lo[3])),
                 _mm_add_ps(_mm_add_ps(hi[0], hi[1]), _mm_add_ps(hi[2], hi[3])));
  const __m128 sum = _mm_add_ps(body, tail);
  _mm_storel_pi(reinterpret_cast<__m64*>(c0), sum);
  _mm_storeh_pi(reinterpret_cast<__m64*>(c1), sum);
}

#endif  // __SSE2__

/// C rows [r0, r1) of a GEMM whose A element (row i, step s) sits at
/// a[i * a_row + s * a_step]: C = A * B for (a_row, a_step) = (k, 1) and
/// C = A^T * B for (1, k). B is (steps x n), C is (rows x n). SSE2 builds
/// run 4x8 register tiles in passes of kBlock steps; a pass after the first
/// resumes from the partial sums the one before it stored, so the order of
/// each element's sum is the same as in one pass. Fewer than 4 columns,
/// and builds without SSE2, run gemm_element itself.
void gemm_rows(const float* a, std::size_t a_row, std::size_t a_step,
               const float* b, float* c, std::size_t r0, std::size_t r1,
               std::size_t steps, std::size_t n) {
#if defined(__SSE2__)
  if (n >= 4) {
    for (std::size_t s0 = 0; s0 < steps; s0 += kBlock) {
      const std::size_t len = std::min(kBlock, steps - s0);
      const float* as = a + s0 * a_step;
      const float* bs = b + s0 * n;
      const bool resume = s0 > 0;
      std::size_t i = r0;
      for (; i + 4 <= r1; i += 4) {
        gemm_row_tiles<4>(as + i * a_row, a_row, a_step, bs, c + i * n, len, n,
                          resume);
      }
      for (; i < r1; ++i) {
        gemm_row_tiles<1>(as + i * a_row, a_row, a_step, bs, c + i * n, len, n,
                          resume);
      }
    }
    return;
  }
#endif
  for (std::size_t i = r0; i < r1; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c[i * n + j] = gemm_element(a + i * a_row, a_step, b + j, n, steps);
    }
  }
}

/// A*B^T kernel for rows [r0, r1): tiles over B rows so a kRowTile slab of
/// B stays cache-hot while A row pairs stream against it. SSE2 builds run
/// 2x2 register tiles; an odd last row or column, and builds without SSE2,
/// run dot_lanes itself.
void gemm_abt_rows(const float* a, const float* b, float* c, std::size_t r0,
                   std::size_t r1, std::size_t k, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kRowTile) {
    const std::size_t j1 = std::min(n, j0 + kRowTile);
    std::size_t i = r0;
#if defined(__SSE2__)
    for (; i + 2 <= r1; i += 2) {
      const float* a0 = a + i * k;
      float* c0 = c + i * n;
      std::size_t j = j0;
      for (; j + 2 <= j1; j += 2) {
        abt_tile(a0, a0 + k, b + j * k, b + (j + 1) * k, k, c0 + j,
                 c0 + n + j);
      }
      if (j < j1) {
        c0[j] = dot_lanes(a0, b + j * k, k);
        c0[n + j] = dot_lanes(a0 + k, b + j * k, k);
      }
    }
#endif
    for (; i < r1; ++i) {
      for (std::size_t j = j0; j < j1; ++j) {
        c[i * n + j] = dot_lanes(a + i * k, b + j * k, k);
      }
    }
  }
}

void run_row_blocks(std::size_t m, std::size_t flops, bool parallel,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  auto& pool = util::ThreadPool::global();
  if (!parallel || flops < kParallelThresholdFlops || pool.size() <= 1 ||
      m < 2) {
    fn(0, m);
    return;
  }
  // Split into ~4 chunks per thread so a large matrix load-balances across
  // the pool instead of one oversized chunk per worker.
  const std::size_t target_chunks = pool.size() * 4;
  const std::size_t grain =
      std::max<std::size_t>(1, (m + target_chunks - 1) / target_chunks);
  pool.parallel_for_chunked(0, m, grain, fn);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, bool parallel) {
  require_rank2(a, "matmul");
  require_rank2(b, "matmul");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c({m, n});
  run_row_blocks(m, m * n * k, parallel, [&](std::size_t r0, std::size_t r1) {
    gemm_rows(a.data(), k, 1, b.data(), c.data(), r0, r1, k, n);
  });
  return c;
}

Tensor matmul_at_b(const Tensor& a, const Tensor& b, bool parallel) {
  require_rank2(a, "matmul_at_b");
  require_rank2(b, "matmul_at_b");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != m) {
    throw std::invalid_argument("matmul_at_b: row-count mismatch");
  }
  // C (k x n): row p of C is row p of A^T, i.e. column p of A.
  Tensor c({k, n});
  run_row_blocks(k, m * n * k, parallel, [&](std::size_t r0, std::size_t r1) {
    gemm_rows(a.data(), 1, k, b.data(), c.data(), r0, r1, m, n);
  });
  return c;
}

Tensor matmul_a_bt(const Tensor& a, const Tensor& b, bool parallel) {
  require_rank2(a, "matmul_a_bt");
  require_rank2(b, "matmul_a_bt");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) {
    throw std::invalid_argument("matmul_a_bt: inner dim mismatch");
  }
  Tensor c({m, n});
  run_row_blocks(m, m * n * k, parallel, [&](std::size_t r0, std::size_t r1) {
    gemm_abt_rows(a.data(), b.data(), c.data(), r0, r1, k, n);
  });
  return c;
}

Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_naive");
  require_rank2(b, "matmul_naive");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) {
    throw std::invalid_argument("matmul_naive: inner dim mismatch");
  }
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a(i, p)) * b(p, j);
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  require_rank2(a, "transpose");
  Tensor t({a.cols(), a.rows()});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

void add_row_vector(Tensor& a, const Tensor& bias) {
  require_rank2(a, "add_row_vector");
  // Shape reads stay out of the loops: rows() and cols() are out-of-line
  // calls that would otherwise run per element and block vectorization.
  const std::size_t m = a.rows(), n = a.cols();
  if (bias.size() != n) {
    throw std::invalid_argument("add_row_vector: bias length mismatch");
  }
  const float* b = bias.data();
  for (std::size_t i = 0; i < m; ++i) {
    float* row = a.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) row[j] += b[j];
  }
}

Tensor column_sums(const Tensor& a) {
  require_rank2(a, "column_sums");
  const std::size_t m = a.rows(), n = a.cols();
  Tensor out({n});
  float* sums = out.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) sums[j] += row[j];
  }
  return out;
}

void softmax_rows(Tensor& a) {
  require_rank2(a, "softmax_rows");
  const std::size_t m = a.rows(), n = a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    float* row = a.data() + i * n;
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
  }
}

std::vector<std::size_t> argmax_rows(const Tensor& a) {
  if (a.rank() != 2) {
    throw std::invalid_argument("argmax_rows: tensor must be rank 2");
  }
  const std::size_t m = a.rows(), n = a.cols();
  std::vector<std::size_t> out(m);
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = best;
  }
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out = a;
  for (float& x : out.flat()) x = std::max(0.0f, x);
  return out;
}

void relu_backward(Tensor& grad, const Tensor& pre_activation) {
  if (grad.shape() != pre_activation.shape()) {
    throw std::invalid_argument("relu_backward: shape mismatch");
  }
  // An unconditional select, not a branch: ReLU's sign pattern is random,
  // so a branch mispredicts on half the elements, while the select
  // vectorizes into a compare-and-mask. pre <= 0 is false for NaN, which
  // keeps its gradient.
  float* g = grad.data();
  const float* pre = pre_activation.data();
  const std::size_t size = grad.size();
  for (std::size_t i = 0; i < size; ++i) g[i] = pre[i] <= 0.0f ? 0.0f : g[i];
}

float squared_l2(std::span<const float> a, std::span<const float> b) noexcept {
  double acc = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(acc);
}

float dot(std::span<const float> a, std::span<const float> b) noexcept {
  double acc = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

float l2_norm(std::span<const float> a) noexcept {
  double acc = 0.0;
  for (float x : a) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

Tensor pairwise_sq_dists(const Tensor& x, bool parallel) {
  require_rank2(x, "pairwise_sq_dists");
  const std::size_t m = x.rows(), k = x.cols();
  std::vector<float> sq(m);
  for (std::size_t i = 0; i < m; ++i) {
    sq[i] = dot_lanes(x.data() + i * k, x.data() + i * k, k);
  }
  // Each output row is built with contiguous saxpy passes over X^T:
  //   d[i][j] = sq[i] + sq[j];  d[i][j] += (-2 x[i][t]) * x[j][t] for each t
  // Gradient embeddings are short (k ~ 10s), so a per-pair dot product is
  // pure call overhead; the saxpy form streams whole rows through SIMD
  // units instead. Every row is produced independently with a fixed
  // accumulation order, so the result does not depend on the row chunking,
  // and d(i,j) == d(j,i) exactly: -2*a is exact in floating point, so the
  // term sequences are bit-identical either way.
  std::vector<float> xt(k * m);  // X^T, so the inner saxpy loop is unit-stride
  for (std::size_t j = 0; j < m; ++j) {
    const float* row = x.data() + j * k;
    for (std::size_t t = 0; t < k; ++t) xt[t * m + j] = row[t];
  }
  Tensor d({m, m});
  run_row_blocks(m, m * m * (k + 2), parallel,
                 [&](std::size_t r0, std::size_t r1) {
                   const float* sqv = sq.data();
                   // Large rows run column-tiled: each drow slice receives
                   // all its k saxpy terms while L1-resident instead of the
                   // whole row streaming through cache once per embedding
                   // dimension. Per element the t-accumulation order is the
                   // loop-interchange of the untiled kernel with identical
                   // term order, so the result is bit-identical.
                   const std::size_t jtile =
                       m >= kDistTileMinCols ? kDistColTile : m;
                   for (std::size_t i = r0; i < r1; ++i) {
                     const float* arow = x.data() + i * k;
                     float* drow = d.data() + i * m;
                     const float sqi = sqv[i];
                     for (std::size_t j0 = 0; j0 < m; j0 += jtile) {
                       const std::size_t j1 = std::min(m, j0 + jtile);
                       for (std::size_t j = j0; j < j1; ++j) {
                         drow[j] = sqi + sqv[j];
                       }
                       for (std::size_t t = 0; t < k; ++t) {
                         const float av = -2.0f * arow[t];
                         const float* xtrow = xt.data() + t * m;
                         for (std::size_t j = j0; j < j1; ++j) {
                           drow[j] += av * xtrow[j];
                         }
                       }
                       for (std::size_t j = j0; j < j1; ++j) {
                         drow[j] = std::max(0.0f, drow[j]);
                       }
                     }
                     drow[i] = 0.0f;
                   }
                 });
  return d;
}

}  // namespace nessa::tensor
