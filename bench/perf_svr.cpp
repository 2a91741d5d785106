// Microbenchmarks of the ML substrate (google-benchmark): SMO training,
// prediction throughput, kernel evaluation and grid-search cost. These
// bound the offline training and online serving cost of the paper's
// pipeline.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "ml/forest.h"
#include "ml/grid.h"
#include "ml/svr.h"
#include "util/rng.h"

namespace {

using namespace vmtherm;

ml::Dataset synthetic_data(std::size_t n, std::size_t dim,
                           std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(dim);
    double y = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      x[j] = rng.uniform(-1.0, 1.0);
      y += std::sin(static_cast<double>(j + 1) * x[j]) /
           static_cast<double>(j + 1);
    }
    data.add(ml::Sample{std::move(x), y});
  }
  return data;
}

ml::SvrParams rbf_params() {
  ml::SvrParams params;
  params.kernel.gamma = 0.5;
  params.c = 10.0;
  params.epsilon = 0.05;
  return params;
}

void BM_SvrTrain(benchmark::State& state) {
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 1);
  const auto params = rbf_params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::SvrModel::train(data, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SvrTrain)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SvrPredict(benchmark::State& state) {
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 2);
  const auto model = ml::SvrModel::train(data, rbf_params());
  const std::vector<double> x(16, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvrPredict)->Arg(128)->Arg(512);

void BM_SvrPredictBatch(benchmark::State& state) {
  // Batched inference over the packed engine; items/sec here divided by
  // BM_SvrPredict's rate is the batching win at equal support size.
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 2);
  const auto model = ml::SvrModel::train(data, rbf_params());
  constexpr std::size_t kQueries = 1024;
  Rng rng(9);
  std::vector<double> queries(kQueries * 16);
  for (double& q : queries) q = rng.uniform(-1.0, 1.0);
  std::vector<double> out(kQueries);
  for (auto _ : state) {
    model.predict_batch(queries, kQueries, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kQueries);
}
BENCHMARK(BM_SvrPredictBatch)->Arg(128)->Arg(512);

void BM_ExpDet(benchmark::State& state) {
  // Deterministic exp vs libm: the transform at the heart of the RBF row.
  Rng rng(11);
  std::vector<double> xs(1024);
  for (double& v : xs) v = rng.uniform(-30.0, 0.0);
  std::vector<double> out(1024);
  const bool use_det = state.range(0) == 1;
  for (auto _ : state) {
    if (use_det) {
      for (std::size_t i = 0; i < xs.size(); ++i) out[i] = ml::exp_det(xs[i]);
    } else {
      for (std::size_t i = 0; i < xs.size(); ++i) out[i] = std::exp(xs[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(use_det ? "exp_det" : "std::exp");
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_ExpDet)->Arg(0)->Arg(1);

void BM_KernelEvalRbf(benchmark::State& state) {
  Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(dim);
  std::vector<double> b(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    a[j] = rng.uniform(-1, 1);
    b[j] = rng.uniform(-1, 1);
  }
  ml::KernelParams params;
  params.kind = ml::KernelKind::kRbf;
  params.gamma = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kernel_eval(params, a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelEvalRbf)->Arg(16)->Arg(64);

void BM_GridSearchSmall(benchmark::State& state) {
  const auto data = synthetic_data(96, 16, 4);
  ml::GridSpec spec;
  spec.c_values = {1.0, 10.0};
  spec.gamma_values = {0.1, 1.0};
  spec.epsilon_values = {0.05};
  spec.folds = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::grid_search_svr(data, spec));
  }
  state.SetLabel("2x2x1 grid, 4-fold, 96 samples");
}
BENCHMARK(BM_GridSearchSmall)->Unit(benchmark::kMillisecond);

void BM_GridSearchPaperScale(benchmark::State& state) {
  // The paper-scale search: default 7x5x2 (C, gamma, epsilon) grid with
  // 10-fold CV, swept over thread counts. UseRealTime makes the threaded
  // runs report wall clock, so the serial-vs-parallel speedup reads
  // directly off the table.
  const auto data = synthetic_data(96, 16, 8);
  ml::GridSpec spec;
  spec.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::grid_search_svr(data, spec));
  }
  state.SetLabel("7x5x2 grid, 10-fold, 96 samples, " +
                 std::to_string(state.range(0)) + " thread(s)");
}
BENCHMARK(BM_GridSearchPaperScale)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SvrTrainCacheConstrained(benchmark::State& state) {
  // Cache thrashing cost: tiny kernel cache vs roomy one.
  const auto data = synthetic_data(256, 16, 5);
  auto params = rbf_params();
  params.cache_mb = state.range(0) == 0 ? 1e-5 : 16.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::SvrModel::train(data, params));
  }
  state.SetLabel(state.range(0) == 0 ? "2-row cache" : "16 MB cache");
}
BENCHMARK(BM_SvrTrainCacheConstrained)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);


void BM_ForestTrain(benchmark::State& state) {
  const auto data = synthetic_data(static_cast<std::size_t>(state.range(0)),
                                   16, 6);
  ml::ForestParams params;
  params.n_trees = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::RandomForest::train(data, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestTrain)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto data = synthetic_data(256, 16, 7);
  ml::ForestParams params;
  params.n_trees = 50;
  const auto forest = ml::RandomForest::train(data, params);
  const std::vector<double> x(16, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredict);

}  // namespace

BENCHMARK_MAIN();
