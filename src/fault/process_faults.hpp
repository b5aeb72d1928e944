// Seeded process fault channel: interprets a FaultPlan's proc_* rates as
// worker-task failures under the pipeline supervisor — crash at task start
// (exit 137), hang at task start without a heartbeat (stale-heartbeat
// SIGKILL path), and garbage output committed over the task's artifacts
// (container validation path).
//
// decide() is a pure function of (plan, task name, attempt): the child
// process and the supervisor can both evaluate it and agree, nothing is
// communicated, and a failure scenario replays identically from the seed.
// The per-task fault cap is honored by recounting the draws of earlier
// attempts, so "fault once then succeed" needs no mutable state either.
#pragma once

#include <cstddef>
#include <string_view>

#include "fault/plan.hpp"

namespace dnsembed::fault {

enum class ProcessFault {
  kNone,
  kCrash,    // _Exit(137) before any output
  kHang,     // sleep forever without a heartbeat (supervisor must SIGKILL)
  kGarbage,  // overwrite output artifacts with garbage, report success
};

const char* process_fault_name(ProcessFault fault) noexcept;

class ProcessFaultChannel {
 public:
  explicit ProcessFaultChannel(const FaultPlan& plan) : plan_{plan} {}

  /// The fault (if any) this (task, attempt) suffers. Deterministic in
  /// (plan, task, attempt); attempts beyond plan.proc_max_faults_per_task
  /// faulted ones come up clean.
  ProcessFault decide(std::string_view task, std::size_t attempt) const;

  /// True when the plan can fault at all (any nonzero rate).
  bool active() const noexcept {
    return plan_.proc_crash_rate > 0.0 || plan_.proc_hang_rate > 0.0 ||
           plan_.proc_garbage_rate > 0.0;
  }

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  ProcessFault draw(std::string_view task, std::size_t attempt) const;

  FaultPlan plan_;
};

}  // namespace dnsembed::fault
