#pragma once

#include "common.hpp"

namespace perfbench {

Outcome run_spmspv(const RunOptions& opt);
Outcome run_bfs(const RunOptions& opt);
Outcome run_serve(const RunOptions& opt);

}  // namespace perfbench
