// Per-layer metrics read from a finished simulation: the engine's
// EngineStats, the runtime's ImageStats, and the obs registry, wire rings
// and analyzer. Only counters the layers already export are read.
#pragma once

#include "caf/runtime.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Adds one image's ImageStats into a run-wide sum.
void accumulate(caf::ImageStats& sum, const caf::ImageStats& s);

/// Appends the sim / fabric / net / caf / obs-analyzer layer metrics of the
/// run that just finished to r.layer.
void add_layers(RunReport& r, const sim::EngineStats& es,
                const caf::ImageStats& stats, int images);

}  // namespace perfbench
