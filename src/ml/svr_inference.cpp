#include "ml/svr_inference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "obs/trace.h"

namespace vmtherm::ml {

namespace {

/// Support vectors processed per blocked pass: the dot-product scratch for
/// one block (1 KiB) stays in L1 while the transposed rows stream through.
constexpr std::size_t kSvBlock = 128;

/// Queries evaluated together by one predict_tile pass: enough independent
/// reduction chains to hide the add latency, few enough that the tile's
/// dot-product scratch (8 KiB) stays in L1.
constexpr std::size_t kQueryTile = 8;

/// 2^n as a double via exponent-field construction, n in [-1022, 1023].
inline double pow2(int n) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + n) << 52);
}

/// v * 2^n with the scale split in two so gradual underflow and the full
/// double range behave exactly like a correctly scaled libm result.
inline double scale_pow2(double v, int n) noexcept {
  n = std::clamp(n, -2044, 2046);
  const int half = n / 2;
  return v * pow2(half) * pow2(n - half);
}

/// exp_det core, file-local so the kernel-transform loops inline it and
/// vectorize. Strictly branch-free: the clamps are written as ternary
/// selects (min/max instructions, no libm calls, no jumps).
inline double exp_det_core(double x) noexcept {
  // Cephes-style expansion: x = n*ln2 + r with |r| <= ln2/2, then
  // e^r = 1 + 2r P(r^2) / (Q(r^2) - r P(r^2)), finally scale by 2^n.
  constexpr double kLog2e = 1.4426950408889634073599;
  constexpr double kLn2Hi = 6.93145751953125e-1;
  constexpr double kLn2Lo = 1.42860682030941723212e-6;
  // Out-of-range inputs saturate. A NaN falls through both selects and
  // poisons r, so NaN in -> NaN out; `nd == nd` keeps the int conversion
  // defined in that case.
  // Round-to-nearest via the 2^52 magic constant: exact for |y| < 2^51
  // and, unlike std::floor, it auto-vectorizes.
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  double xc = x < -746.0 ? -746.0 : x;
  xc = xc > 710.0 ? 710.0 : xc;
  const double nd = (kLog2e * xc + kRound) - kRound;
  const int n = static_cast<int>(nd == nd ? nd : 0.0);
  const double r = (xc - nd * kLn2Hi) - nd * kLn2Lo;
  const double rr = r * r;
  const double p =
      r * ((1.26177193074810590878e-4 * rr + 3.02994407707441961300e-2) * rr +
           9.99999999999999999910e-1);
  const double q =
      ((3.00198505138664455042e-6 * rr + 2.52448340349684104192e-3) * rr +
       2.27265548208155028766e-1) *
          rr +
      2.00000000000000000005e0;
  const double e = 1.0 + 2.0 * p / (q - p);
  return scale_pow2(e, n);
}

}  // namespace

double exp_det(double x) noexcept { return exp_det_core(x); }

SvrInference::SvrInference(
    KernelParams kernel,
    const std::vector<std::vector<double>>& support_vectors,
    std::vector<double> coefficients, double bias)
    : kernel_(kernel), coefficients_(std::move(coefficients)), bias_(bias) {
  kernel_.validate();
  detail::require(support_vectors.size() == coefficients_.size(),
                  "svr inference: sv/coef count mismatch");
  count_ = support_vectors.size();
  dim_ = count_ == 0 ? 0 : support_vectors.front().size();
  const std::size_t padded =
      (count_ + kSvBlock - 1) / kSvBlock * kSvBlock;
  packed_.reserve(count_ * dim_);
  sq_norms_.assign(padded, 0.0);
  packed_t_.assign(padded * dim_, 0.0);
  for (std::size_t k = 0; k < count_; ++k) {
    const std::vector<double>& sv = support_vectors[k];
    detail::require(sv.size() == dim_,
                    "svr inference: inconsistent sv dimensions");
    double norm = 0.0;
    for (const double v : sv) norm += v * v;
    sq_norms_[k] = norm;
    packed_.insert(packed_.end(), sv.begin(), sv.end());
    // Blocked transpose: element j of SV k lands in block k/128 at
    // feature-major offset j*128 + (k mod 128).
    double* block = packed_t_.data() + (k / kSvBlock) * kSvBlock * dim_;
    for (std::size_t j = 0; j < dim_; ++j) {
      block[j * kSvBlock + (k % kSvBlock)] = sv[j];
    }
  }
}

template <std::size_t Q>
void SvrInference::predict_tile(const double* x, double* out) const noexcept {
  const double gamma = kernel_.gamma;
  const double coef0 = kernel_.coef0;
  const int degree = kernel_.degree;
  const std::size_t dim = dim_;

  double sq_x[Q];
  double acc[Q];
  for (std::size_t q = 0; q < Q; ++q) {
    sq_x[q] = 0.0;
    if (kernel_.kind == KernelKind::kRbf) {
      const double* xq = x + q * dim;
      for (std::size_t j = 0; j < dim; ++j) sq_x[q] += xq[j] * xq[j];
    }
    acc[q] = bias_;
  }

  alignas(64) double dots[Q][kSvBlock];
  for (std::size_t begin = 0; begin < count_; begin += kSvBlock) {
    const std::size_t block = std::min(kSvBlock, count_ - begin);
    // Lanes the transform touches: the block rounded up to a vector-friendly
    // multiple of 8. Lanes at or past `block` are padding the reduction
    // never reads, so their values do not matter.
    const std::size_t lanes = (block + 7) / 8 * 8;
    const double* cols = packed_t_.data() + begin * dim;

    // GEMV-style pass over the transposed block: each dots[q][k]
    // accumulates x_q.s_k in ascending-j order; the k-indexed inner loop
    // is unit-stride with a constant trip count, so it vectorizes cleanly,
    // and each transposed row is loaded once per tile rather than once per
    // query. Padding lanes accumulate zeros.
    for (std::size_t q = 0; q < Q; ++q) {
      for (std::size_t k = 0; k < kSvBlock; ++k) dots[q][k] = 0.0;
    }
    for (std::size_t j = 0; j < dim; ++j) {
      const double* col = cols + j * kSvBlock;
      for (std::size_t q = 0; q < Q; ++q) {
        const double xj = x[q * dim + j];
        double* d = dots[q];
        for (std::size_t k = 0; k < kSvBlock; ++k) d[k] += xj * col[k];
      }
    }

    // Kernel-transform pass per query (vectorizable: exp_det is
    // branch-free).
    for (std::size_t q = 0; q < Q; ++q) {
      double* d = dots[q];
      switch (kernel_.kind) {
        case KernelKind::kLinear:
          break;
        case KernelKind::kPolynomial:
          for (std::size_t k = 0; k < lanes; ++k) {
            d[k] = pow_integer(gamma * d[k] + coef0, degree);
          }
          break;
        case KernelKind::kRbf: {
          const double* norms = sq_norms_.data() + begin;
          for (std::size_t k = 0; k < lanes; ++k) {
            d[k] = exp_det_core(-gamma * (sq_x[q] + norms[k] - 2.0 * d[k]));
          }
          break;
        }
        case KernelKind::kSigmoid:
          for (std::size_t k = 0; k < lanes; ++k) {
            d[k] = std::tanh(gamma * d[k] + coef0);
          }
          break;
      }
    }

    // Coefficient reduction in fixed ascending-k order per query, with the
    // Q independent accumulation chains interleaved so a tile does not
    // wait on one serial add chain. Each query's sequence never depends on
    // batch shape, tile position or thread count.
    const double* coefs = coefficients_.data() + begin;
    for (std::size_t k = 0; k < block; ++k) {
      for (std::size_t q = 0; q < Q; ++q) acc[q] += coefs[k] * dots[q][k];
    }
  }
  for (std::size_t q = 0; q < Q; ++q) out[q] = acc[q];
}

double SvrInference::predict(std::span<const double> x) const {
  if (count_ != 0) {
    detail::require_data(x.size() == dim_, "svr predict dimension mismatch");
  }
  double result;
  predict_tile<1>(x.data(), &result);
  return result;
}

void SvrInference::predict_batch(std::span<const double> queries,
                                 std::size_t query_count,
                                 std::span<double> out) const {
  VMTHERM_SPAN_ARG("ml.predict_batch", "ml", "queries", query_count);
  detail::require_data(out.size() == query_count,
                       "svr predict_batch output size mismatch");
  if (count_ == 0) {
    std::fill(out.begin(), out.end(), bias_);
    return;
  }
  detail::require_data(queries.size() == query_count * dim_,
                       "svr predict_batch query extent mismatch");

  // Full tiles, then a tail of single queries.
  const double* q = queries.data();
  double* results = out.data();
  std::size_t i = 0;
  for (; i + kQueryTile <= query_count; i += kQueryTile) {
    predict_tile<kQueryTile>(q + i * dim_, results + i);
  }
  for (; i < query_count; ++i) predict_tile<1>(q + i * dim_, results + i);
}

}  // namespace vmtherm::ml
