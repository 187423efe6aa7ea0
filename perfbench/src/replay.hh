/**
 * @file
 * Host cost of single layers, measured outside the event loop: a
 * simulation's own instruction stream (SyntheticWorkload::instruction)
 * is replayed through each layer's public function at the job's
 * geometry. ns_per_call times the count of calls the stat tree
 * records gives the host seconds a layer plausibly spent inside a
 * real run.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <map>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/simulator.hh"

namespace perfbench {

/** Layer functions priced by replayLayers(), by metric prefix. */
const std::vector<std::string> &layerFunctions();

/**
 * Host nanoseconds per call of every layerFunctions() entry, replaying
 * @p job's trace at @p job's configuration. Each function is timed for
 * at least @p min_seconds. Functions that drive the event queue
 * (memory controller, link) report their cost net of event dispatch,
 * which common.event_queue prices on its own.
 */
std::map<std::string, double> replayLayers(const carve::SimJob &job,
                                           double min_seconds);

/** Calls each layerFunctions() entry received in the finished
 * simulation @p r, derived from its stat tree. */
std::map<std::string, double> layerCalls(const carve::SimResult &r);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
