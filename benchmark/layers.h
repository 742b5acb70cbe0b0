/**
 * @file
 * The layer replays of a traced run: each library layer called through
 * its public functions at the shapes the workloads use, timed from
 * here, with a span around every call.
 */

#ifndef HEAPBENCH_LAYERS_H
#define HEAPBENCH_LAYERS_H

#include <cstddef>
#include <cstdint>

#include "report.h"

namespace heapbench {

/** The shapes of the traced workload that the replays reproduce. */
struct ReplayShape {
    /** Parallel shares one bootstrap's blind rotation is cut into. */
    size_t rotateShares = 0;
    /** Ring dimension of the lookup database. */
    size_t pirRingN = 0;
};

/**
 * Runs every replay with keys and inputs drawn from `seed`, at
 * `shape`, and adds the math, rlwe, tfhe, boot, pir and hw metrics to
 * `out`. Returns false when a replayed composition differs from the
 * library's own result (bootstrap() bytes, answer() words).
 */
bool replayLayers(uint64_t seed, const ReplayShape& shape, Tracer& tracer,
                  MetricList& out);

} // namespace heapbench

#endif // HEAPBENCH_LAYERS_H
