// vmtherm/ml/svr_inference.h
//
// Batched, vectorized SVR inference engine — the serve-side hot path of the
// paper's stable-temperature predictor (Eq. 1 / Fig. 1a).
//
// At construction the support vectors are packed into ONE contiguous
// row-major matrix (n_sv x dim) with per-SV squared norms precomputed, so
// an RBF evaluation becomes
//
//   K(x, s_k) = exp(-gamma * (|x|^2 + |s_k|^2 - 2 x.s_k))
//
// and a whole query reduces to a blocked GEMV-style dot-product pass over
// the packed matrix followed by a fused kernel-transform/coefficient-
// reduction pass. The compute kernel streams a second, blocked-transposed
// copy of the matrix (feature-major within each 128-SV block) so the dot
// products accumulate with unit stride across support vectors — the inner
// loop auto-vectorizes. No ragged vector<vector<double>> pointer chasing,
// no per-query allocation.
//
// Batches run in tiles of several queries: each transposed block row is
// loaded once per tile, and the tile's coefficient reductions run as
// independent interleaved chains instead of one serial add chain.
//
// Determinism contract: every query is evaluated by exactly the same
// floating-point operation sequence — same SV blocking, same fixed
// ascending-k reduction order, same exp_det polynomial — whether it
// arrives through predict() or through predict_batch(), alone or inside a
// query tile. Results are therefore bitwise-identical at any batch size.
// (They are NOT bitwise-identical to a naive kernel_eval-summation for the
// RBF kernel, whose squared-distance summation order and libm exp differ;
// the equivalence is within a few ulps and the inference engine itself is
// the reference.)

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/kernel.h"

namespace vmtherm::ml {

/// Deterministic, branch-free exp: argument reduction by log2(e) plus a
/// Cephes-style rational approximation, scaled back with bit-twiddled
/// powers of two (no libm call, auto-vectorizable, <= 2 ulp). Identical
/// bits for identical inputs on every code path — the property the
/// bitwise-determinism contract of predict_batch is built on.
double exp_det(double x) noexcept;

/// Packed SVR decision function f(x) = sum_k beta_k K(s_k, x) + b.
/// Immutable after construction; safe to share across threads.
class SvrInference {
 public:
  /// Empty model: zero support vectors, f(x) = 0.
  SvrInference() = default;

  /// Packs ragged support vectors (all rows must share one dimension;
  /// throws ConfigError otherwise, or on a sv/coef count mismatch).
  SvrInference(KernelParams kernel,
               const std::vector<std::vector<double>>& support_vectors,
               std::vector<double> coefficients, double bias);

  /// Single-query prediction. Throws DataError on dimension mismatch
  /// (empty models accept any dimension and return the bias).
  double predict(std::span<const double> x) const;

  /// Batched prediction over `query_count` queries packed row-major into
  /// `queries` (query_count x dim). Results land in `out` in query order.
  /// Throws DataError when the flattened extents disagree.
  void predict_batch(std::span<const double> queries, std::size_t query_count,
                     std::span<double> out) const;

  std::size_t support_vector_count() const noexcept { return count_; }
  std::size_t dim() const noexcept { return dim_; }
  double bias() const noexcept { return bias_; }
  const KernelParams& kernel() const noexcept { return kernel_; }
  const std::vector<double>& coefficients() const noexcept {
    return coefficients_;
  }
  /// The packed row-major n_sv x dim support-vector matrix.
  std::span<const double> packed() const noexcept { return packed_; }
  /// Row view of one support vector.
  std::span<const double> support_vector(std::size_t k) const noexcept {
    return std::span<const double>(packed_.data() + k * dim_, dim_);
  }

 private:
  /// Unchecked kernel over the packed matrix for a tile of Q queries
  /// stored row-major at `x`, results to out[0..Q). The one code path every
  /// public entry point funnels through: a lone query is the Q = 1 tile.
  /// Every query of a tile executes the same floating-point operation
  /// sequence as it would alone, so results do not depend on Q.
  template <std::size_t Q>
  void predict_tile(const double* x, double* out) const noexcept;

  KernelParams kernel_;
  std::vector<double> packed_;    ///< n_sv x dim, row-major (API view)
  /// Blocked transpose of packed_: for each 128-SV block, dim x 128 in
  /// feature-major order, zero-padded to a full block. The GEMV kernel
  /// reads this copy so the SV-indexed inner loop has unit stride.
  std::vector<double> packed_t_;
  std::vector<double> sq_norms_;  ///< |s_k|^2 per SV, zero-padded (RBF)
  std::vector<double> coefficients_;  ///< beta_k, ascending k
  double bias_ = 0.0;
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
};

}  // namespace vmtherm::ml
