// perfbench: runs one named workload from a seed and prints its report
// lines, then one JSON result line:
//
//   perfbench --workload spmspv|bfs|serve --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--list-layers]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced
// passes and prints every per-layer metric. Any wrong output makes the
// exit code 1 (after the result line, which then reads correct=false).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void print_number(double v) {
  // Every digit as measured; JSON has no inf/nan.
  if (v != v || v > 1e300 || v < -1e300) v = 0.0;
  std::printf("%.17g", v);
}

void print_result(const Outcome& o, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    print_number(value);
    std::printf(", \"unit\": \"%s\"}", unit.c_str());
    first = false;
  };
  if (trace) {
    for (const LayerSpec& s : layer_catalogue()) {
      emit(s.name, o.layers.get(s.name), s.unit);
    }
  } else {
    for (const Metric& m : o.metrics) emit(m.name, m.value, m.unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spmspv|bfs|serve --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] | --list-layers\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-layers") {
      for (const LayerSpec& s : layer_catalogue()) {
        std::printf("%s\t%s\t%s\n", s.name.c_str(), s.unit.c_str(),
                    s.feeds.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || opt.seconds <= 0.0) return usage();
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  Outcome o;
  try {
    if (opt.workload == "spmspv") {
      o = run_spmspv(opt);
    } else if (opt.workload == "bfs") {
      o = run_bfs(opt);
    } else if (opt.workload == "serve") {
      o = run_serve(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  o.failed += o.wrong;
  if (!opt.trace) {
    const double ok =
        o.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(o.failed) /
                        static_cast<double>(o.attempted);
    o.put("ok_ratio", ok, "ratio");
    o.put("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  for (const std::string& line : o.notes) std::printf("%s\n", line.c_str());
  if (o.wrong != 0) {
    std::printf("perfbench: %llu wrong outputs\n",
                static_cast<unsigned long long>(o.wrong));
  }
  print_result(o, opt.trace);
  std::fflush(stdout);
  return (o.wrong == 0 && o.failed == 0) ? 0 : 1;
}
