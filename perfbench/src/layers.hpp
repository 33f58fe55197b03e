// The per-layer metric catalogue: every name the traced run prints, its
// unit, and the end-to-end metric it should move (the README's table is
// this list). A workload fills the entries its layers exercise; the rest
// print as measured zeros, since that layer did no work on it.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LayerSpec {
  std::string name;
  std::string unit;
  std::string feeds;  // end-to-end metric (and workload) it should move
};

const std::vector<LayerSpec>& layer_catalogue();

/// Per-layer values of one traced run, keyed by catalogue name.
class LayerValues {
 public:
  /// Sets a catalogue metric; throws std::logic_error on a name the
  /// catalogue lacks, so a typo cannot emit an unlisted metric.
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> v_;
};

/// True for the metrics of the serving path (protocol, admission, batch
/// engine, store, and their pool and format work): the ones the serve
/// ladder measures.
bool serve_layer(const std::string& name);

/// Serve ladder rung names ("r0" lowest rate ... "r3" highest).
inline constexpr int kRungs = 4;

/// Op classes the parallel.* metrics split by.
inline const char* const kOpClasses[] = {"csc",      "csr",      "dense",
                                         "high_diam", "low_diam", "serve"};

}  // namespace perfbench
