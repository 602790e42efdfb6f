#include "sim/trace.hpp"

#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace spdkfac::sim {

namespace {

/// Category names double as Perfetto color keys.
const char* category_of(TaskKind kind) {
  switch (kind) {
    case TaskKind::kForward:
    case TaskKind::kBackward:
      return "compute";
    case TaskKind::kFactorComp:
      return "factor_comp";
    case TaskKind::kInverseComp:
      return "inverse_comp";
    case TaskKind::kGradComm:
      return "grad_comm";
    case TaskKind::kFactorComm:
      return "factor_comm";
    case TaskKind::kInverseComm:
      return "inverse_comm";
    case TaskKind::kOther:
      return "other";
  }
  return "other";
}

}  // namespace

std::string to_chrome_trace(const Schedule& schedule,
                            const std::vector<std::string>& stream_names,
                            const std::string& process_name) {
  // Built from std::to_string (integers) and the util/json helpers only, so
  // no global locale can regroup a tid or comma a timestamp.
  std::string out = "[\n";
  // Process + thread metadata rows.
  out += R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":)";
  out += util::json_string(process_name) + "}}";
  for (std::size_t s = 0; s < stream_names.size(); ++s) {
    out += ",\n";
    out += R"({"name":"thread_name","ph":"M","pid":1,"tid":)";
    out += std::to_string(s) + R"(,"args":{"name":)";
    out += util::json_string(stream_names[s]) + "}}";
  }
  // One complete event per (task, stream) occupancy; gang tasks appear on
  // every stream they hold, exactly as they block them.
  for (const ScheduledTask& t : schedule.tasks) {
    if (t.end <= t.start) continue;
    for (int s : t.resources) {
      if (s < 0 || static_cast<std::size_t>(s) >= stream_names.size()) {
        throw std::invalid_argument("to_chrome_trace: unnamed stream id");
      }
      out += ",\n";
      out += R"({"name":)";
      out += util::json_string(t.label.empty() ? to_string(t.kind) : t.label);
      out += R"(,"cat":")";
      out += category_of(t.kind);
      out += R"(","ph":"X","pid":1,"tid":)";
      out += std::to_string(s) + R"(,"ts":)";
      out += util::json_number(t.start * 1e6) + R"(,"dur":)";
      out += util::json_number((t.end - t.start) * 1e6);
      out += R"(,"args":{"kind":")";
      out += to_string(t.kind);
      out += "\"}}";
    }
  }
  out += "\n]\n";
  return out;
}

void write_chrome_trace(const std::string& path, const Schedule& schedule,
                        const std::vector<std::string>& stream_names,
                        const std::string& process_name) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("write_chrome_trace: cannot open " + path);
  }
  file << to_chrome_trace(schedule, stream_names, process_name);
  if (!file) {
    throw std::runtime_error("write_chrome_trace: write failed for " + path);
  }
}

}  // namespace spdkfac::sim
