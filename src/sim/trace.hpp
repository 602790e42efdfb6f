// Chrome trace-event export of schedules — the one trace_event writer.
//
// Serializes a Schedule as the Trace Event JSON format consumed by
// chrome://tracing and Perfetto (https://ui.perfetto.dev): each stream
// becomes a named thread row, each task a complete ("X") event with
// microsecond timestamps, colored by its breakdown category (the "cat"
// keys compute, factor_comp, inverse_comp, grad_comm, factor_comm,
// inverse_comm, other).  Both timelines go through it: the simulator's
// *predicted* schedules (the interactive equivalent of Fig. 1) and the
// control plane's *measured* run, which ctl::TraceRecorder packs into a
// Schedule of compute-N/comm-N lanes.
#pragma once

#include <string>
#include <vector>

#include "sim/event_sim.hpp"

namespace spdkfac::sim {

/// Renders the schedule as a Trace Event JSON array document; tasks that
/// do not end after they start are left out.
/// `stream_names` must index every stream id used by the schedule's tasks.
std::string to_chrome_trace(const Schedule& schedule,
                            const std::vector<std::string>& stream_names,
                            const std::string& process_name = "spdkfac-sim");

/// Writes to_chrome_trace() output to `path`; throws std::runtime_error on
/// I/O failure.
void write_chrome_trace(const std::string& path, const Schedule& schedule,
                        const std::vector<std::string>& stream_names,
                        const std::string& process_name = "spdkfac-sim");

}  // namespace spdkfac::sim
