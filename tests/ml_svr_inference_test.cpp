// Equivalence suite for the packed SVR inference engine (svr_inference.h):
// the engine's own single-query predict() is the scalar reference, and the
// batched / persisted paths must match it BITWISE across all four
// kernels. The pre-engine kernel_eval summation is checked to
// tolerance (its RBF op order and libm exp differ by design).

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "ml/model_io.h"
#include "ml/svr.h"
#include "util/rng.h"

namespace {

using namespace vmtherm;

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

ml::KernelParams make_kernel(ml::KernelKind kind) {
  ml::KernelParams kernel;
  kernel.kind = kind;
  kernel.gamma = 1.0 / 8;
  kernel.coef0 = 1.0;
  kernel.degree = 3;
  return kernel;
}

struct RaggedModel {
  std::vector<std::vector<double>> svs;
  std::vector<double> coefs;
  double bias = 0.0;
};

RaggedModel random_model(std::size_t count, std::size_t dim,
                         std::uint64_t seed) {
  Rng rng(seed);
  RaggedModel m;
  m.svs.assign(count, std::vector<double>(dim));
  m.coefs.resize(count);
  for (auto& sv : m.svs) {
    for (double& v : sv) v = rng.uniform(-1.0, 1.0);
  }
  for (double& c : m.coefs) c = rng.uniform(-2.0, 2.0);
  m.bias = 0.375;
  return m;
}

std::vector<double> random_queries(std::size_t count, std::size_t dim,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(count * dim);
  for (double& v : q) v = rng.uniform(-1.0, 1.0);
  return q;
}

class SvrInferenceKernelTest
    : public ::testing::TestWithParam<ml::KernelKind> {};

TEST_P(SvrInferenceKernelTest, BatchMatchesSingleQueryBitwise) {
  // 300 SVs straddles the 128-SV block boundary (2 full blocks + tail).
  const RaggedModel m = random_model(300, 7, 11);
  const ml::SvrModel model(make_kernel(GetParam()), m.svs, m.coefs, m.bias);
  const std::size_t queries = 97;  // not a multiple of any block size
  const std::vector<double> flat = random_queries(queries, 7, 12);

  std::vector<double> batched(queries);
  model.predict_batch(flat, queries, batched);
  for (std::size_t i = 0; i < queries; ++i) {
    const double single = model.predict(
        std::span<const double>(flat.data() + i * 7, 7));
    ASSERT_EQ(bits_of(single), bits_of(batched[i])) << "query " << i;
  }
}

TEST_P(SvrInferenceKernelTest, QueryTilesMatchSingleQueryBitwise) {
  // Batches run as query tiles (8 queries) plus single-query tails. Every
  // tile/tail split must reproduce predict() of each query alone, at SV
  // counts around the 128-SV block edge and at the paper's 344, for short
  // batches and for long ones (64 + count) that run many tiles first.
  constexpr std::size_t kDim = 19;
  constexpr std::size_t kTile = 8;
  for (const std::size_t svs : {1u, 127u, 128u, 129u, 344u}) {
    const RaggedModel m = random_model(svs, kDim, 91 + svs);
    const ml::SvrModel model(make_kernel(GetParam()), m.svs, m.coefs,
                             m.bias);
    // The longest batch (64 + 2 * kTile + 1) at the largest offset.
    const std::size_t max_queries = 64 + 2 * kTile + 3;
    const std::vector<double> flat =
        random_queries(max_queries, kDim, 92 + svs);
    std::vector<double> alone(max_queries);
    for (std::size_t i = 0; i < max_queries; ++i) {
      alone[i] = model.predict(
          std::span<const double>(flat.data() + i * kDim, kDim));
    }
    for (std::size_t count = 1; count <= 2 * kTile + 1; ++count) {
      for (const std::size_t n : {count, 64 + count}) {
        // Offset the batch so a query's tile position varies with count.
        const std::size_t offset = count % 3;
        ASSERT_LE(offset + n, max_queries);
        std::vector<double> out(n);
        model.predict_batch(
            std::span<const double>(flat.data() + offset * kDim, n * kDim), n,
            out);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits_of(out[i]), bits_of(alone[offset + i]))
              << "svs=" << svs << " count=" << n << " query " << i;
        }
      }
    }
  }
}

TEST_P(SvrInferenceKernelTest, MatchesKernelEvalReferenceToTolerance) {
  const RaggedModel m = random_model(150, 9, 31);
  const ml::KernelParams kernel = make_kernel(GetParam());
  const ml::SvrModel model(kernel, m.svs, m.coefs, m.bias);
  const std::vector<double> flat = random_queries(40, 9, 32);

  for (std::size_t i = 0; i < 40; ++i) {
    const std::span<const double> x(flat.data() + i * 9, 9);
    double reference = m.bias;
    for (std::size_t k = 0; k < m.svs.size(); ++k) {
      reference += m.coefs[k] * ml::kernel_eval(kernel, m.svs[k], x);
    }
    EXPECT_NEAR(model.predict(x), reference,
                1e-9 * std::max(1.0, std::abs(reference)));
  }
}

TEST_P(SvrInferenceKernelTest, SurvivesSaveLoadBitwise) {
  // Snapshot/restore of the packed model: serialization goes through the
  // packed accessors and text round-trips doubles at 17 significant
  // digits, so the rebuilt engine must predict identical bits.
  const RaggedModel m = random_model(130, 5, 41);
  const ml::SvrModel model(make_kernel(GetParam()), m.svs, m.coefs, m.bias);

  std::stringstream stream;
  ml::save_svr(stream, model);
  const ml::SvrModel reloaded = ml::load_svr(stream);

  const std::vector<double> flat = random_queries(33, 5, 42);
  std::vector<double> original(33);
  std::vector<double> restored(33);
  model.predict_batch(flat, 33, original);
  reloaded.predict_batch(flat, 33, restored);
  for (std::size_t i = 0; i < 33; ++i) {
    ASSERT_EQ(bits_of(original[i]), bits_of(restored[i])) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SvrInferenceKernelTest,
    ::testing::Values(ml::KernelKind::kLinear, ml::KernelKind::kPolynomial,
                      ml::KernelKind::kRbf, ml::KernelKind::kSigmoid),
    [](const ::testing::TestParamInfo<ml::KernelKind>& param) {
      return std::string(ml::kernel_kind_name(param.param));
    });

TEST(SvrInference, EmptyModelReturnsBiasForEveryQuery) {
  const ml::SvrInference empty;
  EXPECT_EQ(empty.support_vector_count(), 0u);
  EXPECT_EQ(empty.predict(std::span<const double>()), 0.0);

  const ml::SvrInference biased(make_kernel(ml::KernelKind::kRbf), {}, {},
                                2.5);
  // An empty model accepts any query dimension.
  const std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_EQ(biased.predict(x), 2.5);
  std::vector<double> out(4);
  biased.predict_batch(std::span<const double>(), 4, out);
  for (const double v : out) EXPECT_EQ(v, 2.5);
}

TEST(SvrInference, OneSupportVectorMatchesDirectEvaluation) {
  const std::vector<std::vector<double>> svs{{0.5, -0.25, 0.125}};
  const std::vector<double> coefs{1.5};
  for (const auto kind :
       {ml::KernelKind::kLinear, ml::KernelKind::kPolynomial,
        ml::KernelKind::kRbf, ml::KernelKind::kSigmoid}) {
    const ml::SvrInference inference(make_kernel(kind), svs, coefs, -0.5);
    const std::vector<double> x{0.25, 0.75, -0.5};
    const double reference =
        -0.5 + 1.5 * ml::kernel_eval(make_kernel(kind), svs[0], x);
    EXPECT_NEAR(inference.predict(x), reference, 1e-12)
        << ml::kernel_kind_name(kind);
    // The batch path funnels through the same kernel.
    std::vector<double> out(1);
    inference.predict_batch(x, 1, out);
    EXPECT_EQ(bits_of(out[0]), bits_of(inference.predict(x)));
  }
}

TEST(SvrInference, PackedLayoutExposesSupportVectorRows) {
  const RaggedModel m = random_model(10, 4, 51);
  const ml::SvrInference inference(make_kernel(ml::KernelKind::kRbf), m.svs,
                                   m.coefs, m.bias);
  ASSERT_EQ(inference.support_vector_count(), 10u);
  ASSERT_EQ(inference.dim(), 4u);
  ASSERT_EQ(inference.packed().size(), 40u);
  for (std::size_t k = 0; k < 10; ++k) {
    const std::span<const double> row = inference.support_vector(k);
    ASSERT_EQ(row.size(), 4u);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(row[j], m.svs[k][j]);
  }
}

TEST(SvrInference, RejectsMalformedConstructionAndQueries) {
  const ml::KernelParams kernel = make_kernel(ml::KernelKind::kRbf);
  EXPECT_THROW(ml::SvrInference(kernel, {{1.0, 2.0}}, {0.5, 0.5}, 0.0),
               ConfigError);  // sv/coef count mismatch
  EXPECT_THROW(ml::SvrInference(kernel, {{1.0, 2.0}, {1.0}}, {0.5, 0.5}, 0.0),
               ConfigError);  // ragged dimensions

  const ml::SvrInference inference(kernel, {{1.0, 2.0}}, {0.5}, 0.0);
  const std::vector<double> wrong{1.0, 2.0, 3.0};
  EXPECT_THROW(inference.predict(wrong), DataError);
  std::vector<double> out(2);
  EXPECT_THROW(inference.predict_batch(wrong, 2, out), DataError);
  std::vector<double> short_out(1);
  EXPECT_THROW(inference.predict_batch(wrong, 2, short_out), DataError);
}

TEST(ExpDet, TracksLibmExpToTwoUlps) {
  Rng rng(61);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(-700.0, 700.0);
    const double expected = std::exp(x);
    const double got = ml::exp_det(x);
    if (expected == 0.0 || !std::isfinite(expected)) {
      EXPECT_EQ(got, expected) << "x=" << x;
      continue;
    }
    const double ulp = std::abs(std::nexttoward(expected, INFINITY) - expected);
    EXPECT_NEAR(got, expected, 2.0 * ulp) << "x=" << x;
  }
}

TEST(ExpDet, SaturatesAndPropagatesSpecials) {
  EXPECT_EQ(ml::exp_det(0.0), 1.0);
  EXPECT_EQ(ml::exp_det(-1000.0), 0.0);
  EXPECT_EQ(ml::exp_det(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isinf(ml::exp_det(1000.0)));
  EXPECT_TRUE(std::isinf(ml::exp_det(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(ml::exp_det(std::numeric_limits<double>::quiet_NaN())));
  // Gradual underflow region round-trips through the split 2^n scaling.
  const double tiny = ml::exp_det(-745.0);
  EXPECT_GT(tiny, 0.0);
  EXPECT_LT(tiny, std::numeric_limits<double>::min());
}

TEST(ExpDet, IsDeterministicAcrossRepeatedCalls) {
  Rng rng(71);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-50.0, 10.0);
    EXPECT_EQ(bits_of(ml::exp_det(x)), bits_of(ml::exp_det(x)));
  }
}

TEST(SvrModel, DatasetPredictRoutesThroughBatchBitwise) {
  const RaggedModel m = random_model(120, 6, 81);
  const ml::SvrModel model(make_kernel(ml::KernelKind::kRbf), m.svs, m.coefs,
                           m.bias);
  Rng rng(82);
  ml::Dataset data;
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    data.add(ml::Sample{std::move(x), 0.0});
  }
  const std::vector<double> via_dataset = model.predict(data);
  ASSERT_EQ(via_dataset.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_EQ(bits_of(via_dataset[i]),
              bits_of(model.predict(data.samples()[i].x)));
  }
}

}  // namespace
