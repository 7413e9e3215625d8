#include "stats/trace.h"

#include <iterator>
#include <optional>
#include <ostream>

#include "util/csv.h"
#include "util/fmt.h"

namespace elastisim::stats {

std::string to_string(TraceEvent event) {
  switch (event) {
    case TraceEvent::kSubmit: return "submit";
    case TraceEvent::kStart: return "start";
    case TraceEvent::kExpand: return "expand";
    case TraceEvent::kShrink: return "shrink";
    case TraceEvent::kEvolvingRequest: return "evolving-request";
    case TraceEvent::kFinish: return "finish";
    case TraceEvent::kWalltimeKill: return "walltime-kill";
    case TraceEvent::kRequeue: return "requeue";
    case TraceEvent::kCancel: return "cancel";
    case TraceEvent::kNodeFail: return "node-fail";
    case TraceEvent::kNodeRestore: return "node-restore";
  }
  return "?";
}

std::uint64_t EventTrace::record(double time, TraceEvent event, workload::JobId job,
                                 std::string detail) {
  const std::uint64_t seq = next_seq_++;
  entries_.push_back(TraceEntry{seq, time, event, job, std::move(detail)});
  return seq;
}

void EventTrace::on_job(const JobEvent& event) {
  // Indexed by JobChange; holds, queue entries and boundaries are not traced.
  constexpr std::optional<TraceEvent> kKind[] = {
      TraceEvent::kSubmit, std::nullopt,        std::nullopt,           TraceEvent::kCancel,
      TraceEvent::kStart,  TraceEvent::kStart,  std::nullopt,           TraceEvent::kFinish,
      TraceEvent::kWalltimeKill, TraceEvent::kWalltimeKill, TraceEvent::kRequeue};
  static_assert(std::size(kKind) == static_cast<std::size_t>(JobChange::kRequeued) + 1);
  if (const auto kind = kKind[static_cast<std::size_t>(event.change)]) {
    event.trace_seq = record(event.time, *kind, event.job->id, describe(event));
  }
}

void EventTrace::on_resize(const ResizeEvent& event) {
  // Indexed by ResizeChange; target changes live in the journal only.
  constexpr std::optional<TraceEvent> kKind[] = {std::nullopt, TraceEvent::kEvolvingRequest,
                                                 TraceEvent::kExpand, TraceEvent::kShrink};
  if (const auto kind = kKind[static_cast<std::size_t>(event.change)]) {
    event.trace_seq = record(event.time, *kind, event.job->id, describe(event));
  }
}

void EventTrace::on_fault(const FaultEvent& event) {
  if (event.change == FaultChange::kFailed) {
    record(event.time, TraceEvent::kNodeFail, 0, util::fmt("node {}", event.node));
  } else if (event.change == FaultChange::kRepaired) {
    record(event.time, TraceEvent::kNodeRestore, 0, util::fmt("node {}", event.node));
  }
}

std::vector<TraceEntry> EventTrace::filtered(TraceEvent event) const {
  std::vector<TraceEntry> out;
  for (const TraceEntry& entry : entries_) {
    if (entry.event == event) out.push_back(entry);
  }
  return out;
}

void EventTrace::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.typed_row("seq", "time", "event", "job", "detail");
  for (const TraceEntry& entry : entries_) {
    csv.typed_row(entry.seq, entry.time, to_string(entry.event), entry.job, entry.detail);
  }
}

}  // namespace elastisim::stats
