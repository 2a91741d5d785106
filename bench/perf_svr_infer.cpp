// bench/perf_svr_infer.cpp
//
// Batched SVR inference throughput: the packed SvrInference engine vs. a
// scalar reference that replays the pre-engine code path (per-SV
// kernel_eval over ragged vector<vector<double>> storage plus libm exp).
// It also times the engine one query at a time (predict(), a lone query)
// against predict_batch (query tiles), and prints a digest of the batched
// outputs' bits, so two builds can be checked to compute identical
// results. Emits machine-readable JSON (BENCH_svr_infer.json) next to the
// human-readable table.
//
// Methodology: the model is constructed directly from a deterministic
// pseudo-random support set at the paper's scale (Eq. (2) feature count,
// a few hundred SVs) so the bench measures inference, not SMO training.
// Every throughput number is best-of `--trials`; the scalar and batched
// paths are cross-checked to a few ulps and the threaded path must be
// bitwise-identical to the single-thread batched run before any number
// is reported.
//
//   perf_svr_infer [--svs N] [--dim N] [--queries N] [--trials N]
//                  [--out PATH]

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <bit>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ml/svr.h"
#include "util/hash.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace ml = vmtherm::ml;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::size_t svs = 512;     ///< paper-scale support set (N=400 corpus)
  std::size_t dim = 19;      ///< Eq. (2) feature count
  std::size_t queries = 4096;
  std::size_t trials = 5;    ///< best-of trials per throughput number
  std::string out = "BENCH_svr_infer.json";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << name << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (name == "--svs") {
      args.svs = std::stoul(next());
    } else if (name == "--dim") {
      args.dim = std::stoul(next());
    } else if (name == "--queries") {
      args.queries = std::stoul(next());
    } else if (name == "--trials") {
      args.trials = std::stoul(next());
    } else if (name == "--out") {
      args.out = next();
    } else {
      std::cerr << "usage: perf_svr_infer [--svs N] [--dim N] [--queries N] "
                   "[--trials N] [--out PATH]\n";
      std::exit(name == "--help" ? 0 : 1);
    }
  }
  if (args.svs == 0 || args.dim == 0 || args.queries == 0 ||
      args.trials == 0) {
    std::cerr << "--svs, --dim, --queries and --trials must be >= 1\n";
    std::exit(1);
  }
  return args;
}

/// Deterministic uniform [0, 1) stream (SplitMix64) — scaled-feature-like
/// inputs without touching any global RNG.
struct Rng {
  std::uint64_t state;
  double next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

/// The pre-engine prediction path, kept verbatim as the scalar baseline:
/// ragged storage, per-SV kernel_eval, accumulate in SV order.
double scalar_predict(const ml::KernelParams& kernel,
                      const std::vector<std::vector<double>>& svs,
                      const std::vector<double>& coefs, double bias,
                      std::span<const double> x) {
  double acc = bias;
  for (std::size_t k = 0; k < svs.size(); ++k) {
    acc += coefs[k] * ml::kernel_eval(kernel, svs[k], x);
  }
  return acc;
}

struct KernelResult {
  std::string name;
  double scalar_qps = 0.0;
  double single_qps = 0.0;   ///< engine predict(), one query at a time
  double batched_qps = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a over the batched outputs' bits
};

struct ThreadResult {
  std::size_t threads = 0;
  double qps = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::cout << "# perf_svr_infer: packed batched inference vs scalar "
               "kernel_eval baseline\n"
            << "# svs=" << args.svs << " dim=" << args.dim
            << " queries=" << args.queries << "\n";

  Rng rng{12345};
  std::vector<std::vector<double>> svs(args.svs,
                                       std::vector<double>(args.dim));
  std::vector<double> coefs(args.svs);
  for (auto& sv : svs) {
    for (double& v : sv) v = rng.next();
  }
  for (double& c : coefs) c = 2.0 * rng.next() - 1.0;
  std::vector<double> queries(args.queries * args.dim);
  for (double& q : queries) q = rng.next();

  const double bias = 0.3;
  const auto make_kernel = [](ml::KernelKind kind) {
    ml::KernelParams kernel;
    kernel.kind = kind;
    kernel.gamma = 1.0 / 32;
    kernel.coef0 = 1.0;
    kernel.degree = 3;
    return kernel;
  };

  std::vector<KernelResult> kernel_results;
  std::vector<ThreadResult> thread_results;
  double rbf_batched_qps = 0.0;

  for (const ml::KernelKind kind :
       {ml::KernelKind::kLinear, ml::KernelKind::kPolynomial,
        ml::KernelKind::kRbf, ml::KernelKind::kSigmoid}) {
    const ml::KernelParams kernel = make_kernel(kind);
    const ml::SvrModel model(kernel, svs, coefs, bias);

    std::vector<double> scalar_out(args.queries);
    std::vector<double> single_out(args.queries);
    std::vector<double> batched_out(args.queries);

    double scalar_best_s = 0.0;
    double single_best_s = 0.0;
    double batched_best_s = 0.0;
    for (std::size_t trial = 0; trial < args.trials; ++trial) {
      auto start = Clock::now();
      for (std::size_t i = 0; i < args.queries; ++i) {
        scalar_out[i] = scalar_predict(
            kernel, svs, coefs, bias,
            std::span<const double>(queries.data() + i * args.dim, args.dim));
      }
      const double scalar_s = seconds_since(start);

      start = Clock::now();
      for (std::size_t i = 0; i < args.queries; ++i) {
        single_out[i] = model.predict(
            std::span<const double>(queries.data() + i * args.dim, args.dim));
      }
      const double single_s = seconds_since(start);

      start = Clock::now();
      model.predict_batch(queries, args.queries, batched_out);
      const double batched_s = seconds_since(start);

      if (trial == 0 || scalar_s < scalar_best_s) scalar_best_s = scalar_s;
      if (trial == 0 || single_s < single_best_s) single_best_s = single_s;
      if (trial == 0 || batched_s < batched_best_s) batched_best_s = batched_s;
    }

    // Query tiles must not change a bit of any result.
    if (std::memcmp(single_out.data(), batched_out.data(),
                    args.queries * sizeof(double)) != 0) {
      std::cerr << "DETERMINISM VIOLATION: kernel="
                << ml::kernel_kind_name(kind)
                << " batch differs from one-at-a-time predict\n";
      return 1;
    }

    // Correctness gate: the packed engine must agree with the pre-engine
    // path to a few ulps (the RBF summation order differs by design).
    for (std::size_t i = 0; i < args.queries; ++i) {
      const double tolerance =
          1e-9 * std::max(1.0, std::abs(scalar_out[i]));
      if (std::abs(scalar_out[i] - batched_out[i]) > tolerance) {
        std::cerr << "MISMATCH kernel=" << ml::kernel_kind_name(kind)
                  << " query " << i << ": scalar=" << scalar_out[i]
                  << " batched=" << batched_out[i] << "\n";
        return 1;
      }
    }

    KernelResult r;
    r.name = std::string(ml::kernel_kind_name(kind));
    r.scalar_qps = static_cast<double>(args.queries) / scalar_best_s;
    r.single_qps = static_cast<double>(args.queries) / single_best_s;
    r.batched_qps = static_cast<double>(args.queries) / batched_best_s;
    r.digest = vmtherm::util::kFnv1a64Offset;
    for (const double v : batched_out) {
      r.digest = vmtherm::util::fnv1a64_mix(r.digest,
                                            std::bit_cast<std::uint64_t>(v));
    }
    kernel_results.push_back(r);

    if (kind == ml::KernelKind::kRbf) {
      rbf_batched_qps = r.batched_qps;
      // Thread sweep on the RBF model; every run must be bitwise-identical
      // to the single-thread batched result (the determinism contract).
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        vmtherm::util::ThreadPool pool(threads);
        std::vector<double> threaded_out(args.queries);
        double best_s = 0.0;
        for (std::size_t trial = 0; trial < args.trials; ++trial) {
          const auto start = Clock::now();
          model.predict_batch(queries, args.queries, threaded_out, &pool);
          const double elapsed_s = seconds_since(start);
          if (trial == 0 || elapsed_s < best_s) best_s = elapsed_s;
        }
        if (std::memcmp(threaded_out.data(), batched_out.data(),
                        args.queries * sizeof(double)) != 0) {
          std::cerr << "DETERMINISM VIOLATION: threads=" << threads
                    << " differs from single-thread batch\n";
          return 1;
        }
        thread_results.push_back(
            {threads, static_cast<double>(args.queries) / best_s});
      }
    }
  }

  const auto hex = [](std::uint64_t v) {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
  };
  vmtherm::Table table({"kernel", "scalar_q_s", "single_us", "batched_us",
                        "speedup", "digest"});
  for (const KernelResult& r : kernel_results) {
    table.add_row({r.name, vmtherm::Table::num(r.scalar_qps, 0),
                   vmtherm::Table::num(1e6 / r.single_qps, 3),
                   vmtherm::Table::num(1e6 / r.batched_qps, 3),
                   vmtherm::Table::num(r.batched_qps / r.scalar_qps, 2),
                   hex(r.digest)});
  }
  table.print(std::cout);

  std::cout << "\nRBF thread sweep (hardware_concurrency="
            << std::thread::hardware_concurrency() << ")\n";
  vmtherm::Table sweep({"threads", "q_s", "vs_1thread"});
  for (const ThreadResult& r : thread_results) {
    sweep.add_row({vmtherm::Table::num(static_cast<long long>(r.threads)),
                   vmtherm::Table::num(r.qps, 0),
                   vmtherm::Table::num(r.qps / thread_results.front().qps, 2)});
  }
  sweep.print(std::cout);

  std::ofstream json(args.out);
  if (!json) {
    std::cerr << "cannot create " << args.out << "\n";
    return 1;
  }
  json.precision(17);
  json << "{\"svs\":" << args.svs << ",\"dim\":" << args.dim
       << ",\"queries\":" << args.queries
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"kernels\":[";
  for (std::size_t i = 0; i < kernel_results.size(); ++i) {
    const KernelResult& r = kernel_results[i];
    if (i > 0) json << ",";
    json << "{\"kernel\":\"" << r.name
         << "\",\"scalar_queries_per_sec\":" << r.scalar_qps
         << ",\"single_queries_per_sec\":" << r.single_qps
         << ",\"batched_queries_per_sec\":" << r.batched_qps
         << ",\"speedup\":" << r.batched_qps / r.scalar_qps
         << ",\"output_digest\":\"" << hex(r.digest) << "\"}";
  }
  json << "],\"rbf_thread_sweep\":[";
  for (std::size_t i = 0; i < thread_results.size(); ++i) {
    const ThreadResult& r = thread_results[i];
    if (i > 0) json << ",";
    json << "{\"threads\":" << r.threads
         << ",\"queries_per_sec\":" << r.qps << ",\"scaling_vs_1thread\":"
         << r.qps / thread_results.front().qps
         << ",\"scaling_vs_batched\":" << r.qps / rbf_batched_qps << "}";
  }
  json << "]}\n";
  std::cout << "wrote " << args.out << "\n";
  return 0;
}
