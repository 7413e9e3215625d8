#include "stats/journal.h"

#include <cassert>
#include <fstream>
#include <ostream>
#include <sstream>

#include "json/json.h"
#include "util/fmt.h"

namespace elastisim::stats {

std::string to_string(JournalCause cause) {
  switch (cause) {
    case JournalCause::kSubmit: return "submit";
    case JournalCause::kFinish: return "finish";
    case JournalCause::kWalltime: return "walltime";
    case JournalCause::kBoundary: return "boundary";
    case JournalCause::kShrinkComplete: return "shrink-complete";
    case JournalCause::kFailure: return "failure";
    case JournalCause::kRepair: return "repair";
    case JournalCause::kMaintenance: return "maintenance";
    case JournalCause::kTimer: return "timer";
    case JournalCause::kCancel: return "cancel";
  }
  return "?";
}

std::string to_string(VerdictAction action) {
  switch (action) {
    case VerdictAction::kStarted: return "started";
    case VerdictAction::kExpandTarget: return "expand-target";
    case VerdictAction::kShrinkTarget: return "shrink-target";
    case VerdictAction::kHeld: return "held";
    case VerdictAction::kEvolvingGranted: return "evolving-granted";
    case VerdictAction::kEvolvingDenied: return "evolving-denied";
    case VerdictAction::kRequeued: return "requeued";
    case VerdictAction::kKilled: return "killed";
  }
  return "?";
}

std::string to_string(HoldReason reason) {
  switch (reason) {
    case HoldReason::kNone: return "none";
    case HoldReason::kInsufficientNodes: return "insufficient_nodes";
    case HoldReason::kQueuedBehindHead: return "queued_behind_head";
    case HoldReason::kBlockedByReservation: return "blocked_by_reservation";
    case HoldReason::kBackfillWindowTooSmall: return "backfill_window_too_small";
    case HoldReason::kWalltimeExceedsHole: return "walltime_exceeds_hole";
    case HoldReason::kMaxRequeuesReached: return "max_requeues_reached";
    case HoldReason::kNotConsidered: return "not_considered";
  }
  return "?";
}

std::optional<JournalCause> journal_cause_from_string(std::string_view name) {
  for (auto cause : {JournalCause::kSubmit, JournalCause::kFinish, JournalCause::kWalltime,
                     JournalCause::kBoundary, JournalCause::kShrinkComplete,
                     JournalCause::kFailure, JournalCause::kRepair, JournalCause::kMaintenance,
                     JournalCause::kTimer, JournalCause::kCancel}) {
    if (to_string(cause) == name) return cause;
  }
  return std::nullopt;
}

std::optional<VerdictAction> verdict_action_from_string(std::string_view name) {
  for (auto action : {VerdictAction::kStarted, VerdictAction::kExpandTarget,
                      VerdictAction::kShrinkTarget, VerdictAction::kHeld,
                      VerdictAction::kEvolvingGranted, VerdictAction::kEvolvingDenied,
                      VerdictAction::kRequeued, VerdictAction::kKilled}) {
    if (to_string(action) == name) return action;
  }
  return std::nullopt;
}

std::optional<HoldReason> hold_reason_from_string(std::string_view name) {
  for (auto reason :
       {HoldReason::kNone, HoldReason::kInsufficientNodes, HoldReason::kQueuedBehindHead,
        HoldReason::kBlockedByReservation, HoldReason::kBackfillWindowTooSmall,
        HoldReason::kWalltimeExceedsHole, HoldReason::kMaxRequeuesReached,
        HoldReason::kNotConsidered}) {
    if (to_string(reason) == name) return reason;
  }
  return std::nullopt;
}

void DecisionJournal::begin(double time, JournalCause cause, int queued, int running,
                            int free_nodes, int total_nodes) {
  assert(!open_ && "begin() with a record already open");
  current_ = JournalRecord{};
  current_.seq = next_seq_++;
  current_.time = time;
  current_.cause = cause;
  current_.queued = queued;
  current_.running = running;
  current_.free_nodes = free_nodes;
  current_.total_nodes = total_nodes;
  current_.verdicts = std::move(pending_);
  pending_.clear();
  open_ = true;
}

void DecisionJournal::add(JournalVerdict verdict) {
  if (!open_) {
    pending_.push_back(std::move(verdict));
    return;
  }
  if (verdict.action == VerdictAction::kHeld) {
    for (JournalVerdict& existing : current_.verdicts) {
      if (existing.job == verdict.job && existing.action == VerdictAction::kHeld) {
        existing = std::move(verdict);
        return;
      }
    }
  } else {
    // The job acted after all (e.g. started in a later scheduler round):
    // a stale held verdict would contradict the outcome.
    std::erase_if(current_.verdicts, [&verdict](const JournalVerdict& existing) {
      return existing.job == verdict.job && existing.action == VerdictAction::kHeld;
    });
  }
  current_.verdicts.push_back(std::move(verdict));
}

bool DecisionJournal::has_held_verdict(workload::JobId job) const {
  if (!open_) return false;
  for (const JournalVerdict& verdict : current_.verdicts) {
    if (verdict.job == job && verdict.action == VerdictAction::kHeld) return true;
  }
  return false;
}

void DecisionJournal::commit() {
  assert(open_ && "commit() without begin()");
  records_.push_back(std::move(current_));
  open_ = false;
}

void DecisionJournal::on_job(const JobEvent& event) {
  const workload::JobId id = event.job->id;
  switch (event.change) {
    case JobChange::kStarted:
      add({id, VerdictAction::kStarted, HoldReason::kNone, static_cast<int>(event.nodes.size()),
           event.trace_seq, std::string()});
      break;
    case JobChange::kTimedOut:
    case JobChange::kKilled:
      add({id, VerdictAction::kKilled,
           event.requeue_limit ? HoldReason::kMaxRequeuesReached : HoldReason::kNone, 0,
           event.trace_seq, describe(event)});
      break;
    case JobChange::kRequeued:
      add({id, VerdictAction::kRequeued, HoldReason::kNone, 0, event.trace_seq,
           describe(event)});
      break;
    default: break;
  }
}

void DecisionJournal::on_resize(const ResizeEvent& event) {
  const workload::JobId id = event.job->id;
  if (event.change == ResizeChange::kTarget) {
    add({id, event.to > event.from ? VerdictAction::kExpandTarget : VerdictAction::kShrinkTarget,
         HoldReason::kNone, event.to, 0, describe(event)});
  } else if (event.change == ResizeChange::kEvolving) {
    add({id, event.granted ? VerdictAction::kEvolvingGranted : VerdictAction::kEvolvingDenied,
         HoldReason::kNone, event.to, event.trace_seq, describe(event)});
  }
}

void DecisionJournal::on_hold(workload::JobId job, HoldReason reason,
                              const std::string& detail) {
  add({job, VerdictAction::kHeld, reason, 0, 0, detail});
}

void DecisionJournal::on_point_begin(const SchedulingPoint& point) {
  const Snapshot& state = point.state;
  begin(state.time, point.cause, state.queued, state.running, state.free, state.in_service());
}

void DecisionJournal::on_point_end(const SchedulingPoint& point) {
  for (workload::JobId id : point.queue) {
    if (!has_held_verdict(id)) {
      add({id, VerdictAction::kHeld, HoldReason::kNotConsidered, 0, 0, std::string()});
    }
  }
  commit();
}

namespace {

json::Value record_to_json(const JournalRecord& record) {
  json::Object out;
  out["seq"] = static_cast<std::int64_t>(record.seq);
  out["t"] = record.time;
  out["cause"] = to_string(record.cause);
  out["queued"] = record.queued;
  out["running"] = record.running;
  out["free"] = record.free_nodes;
  out["total"] = record.total_nodes;
  json::Array verdicts;
  verdicts.reserve(record.verdicts.size());
  for (const JournalVerdict& verdict : record.verdicts) {
    json::Object v;
    v["job"] = static_cast<std::int64_t>(verdict.job);
    v["action"] = to_string(verdict.action);
    if (verdict.reason != HoldReason::kNone) v["reason"] = to_string(verdict.reason);
    if (verdict.nodes != 0) v["nodes"] = verdict.nodes;
    if (verdict.trace_seq != 0) v["trace"] = static_cast<std::int64_t>(verdict.trace_seq);
    if (!verdict.detail.empty()) v["detail"] = verdict.detail;
    verdicts.push_back(json::Value(std::move(v)));
  }
  out["verdicts"] = json::Value(std::move(verdicts));
  return json::Value(std::move(out));
}

JournalRecord record_from_json(const json::Value& value, std::size_t line) {
  if (!value.is_object()) {
    throw std::runtime_error(util::fmt("journal line {}: not a JSON object", line));
  }
  JournalRecord record;
  record.seq = static_cast<std::uint64_t>(value.member_or("seq", std::int64_t{0}));
  record.time = value.member_or("t", 0.0);
  const std::string cause = value.member_or("cause", "");
  const auto parsed_cause = journal_cause_from_string(cause);
  if (!parsed_cause) {
    throw std::runtime_error(util::fmt("journal line {}: unknown cause \"{}\"", line, cause));
  }
  record.cause = *parsed_cause;
  record.queued = static_cast<int>(value.member_or("queued", std::int64_t{0}));
  record.running = static_cast<int>(value.member_or("running", std::int64_t{0}));
  record.free_nodes = static_cast<int>(value.member_or("free", std::int64_t{0}));
  record.total_nodes = static_cast<int>(value.member_or("total", std::int64_t{0}));
  if (const json::Value* verdicts = value.find("verdicts")) {
    for (const json::Value& entry : verdicts->as_array()) {
      JournalVerdict verdict;
      verdict.job = static_cast<workload::JobId>(entry.member_or("job", std::int64_t{0}));
      const std::string action = entry.member_or("action", "");
      const auto parsed_action = verdict_action_from_string(action);
      if (!parsed_action) {
        throw std::runtime_error(
            util::fmt("journal line {}: unknown action \"{}\"", line, action));
      }
      verdict.action = *parsed_action;
      const std::string reason = entry.member_or("reason", "none");
      const auto parsed_reason = hold_reason_from_string(reason);
      if (!parsed_reason) {
        throw std::runtime_error(
            util::fmt("journal line {}: unknown reason \"{}\"", line, reason));
      }
      verdict.reason = *parsed_reason;
      verdict.nodes = static_cast<int>(entry.member_or("nodes", std::int64_t{0}));
      verdict.trace_seq =
          static_cast<std::uint64_t>(entry.member_or("trace", std::int64_t{0}));
      verdict.detail = entry.member_or("detail", "");
      record.verdicts.push_back(std::move(verdict));
    }
  }
  return record;
}

}  // namespace

void DecisionJournal::write_jsonl(std::ostream& out) const {
  for (const JournalRecord& record : records_) {
    out << json::dump(record_to_json(record)) << '\n';
  }
}

void DecisionJournal::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(util::fmt("cannot write journal to {}", path));
  write_jsonl(out);
}

std::vector<JournalRecord> DecisionJournal::read_jsonl(std::istream& in) {
  std::vector<JournalRecord> records;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    records.push_back(record_from_json(json::parse(line), line_number));
  }
  return records;
}

std::vector<JournalRecord> DecisionJournal::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(util::fmt("cannot read journal {}", path));
  return read_jsonl(in);
}

namespace {

std::string describe_verdict(const JournalVerdict& verdict) {
  std::string out = util::fmt("job {} {}", verdict.job, to_string(verdict.action));
  if (verdict.reason != HoldReason::kNone) out += " (" + to_string(verdict.reason) + ")";
  if (verdict.nodes != 0) out += util::fmt(", {} nodes", verdict.nodes);
  if (verdict.trace_seq != 0) out += util::fmt(" [trace #{}]", verdict.trace_seq);
  if (!verdict.detail.empty()) out += ": " + verdict.detail;
  return out;
}

}  // namespace

std::optional<JournalDivergence> first_divergence(const std::vector<JournalRecord>& a,
                                                  const std::vector<JournalRecord>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    const JournalRecord& ra = a[i];
    const JournalRecord& rb = b[i];
    if (ra == rb) continue;
    JournalDivergence divergence;
    divergence.index = i;
    // elsim-lint: allow(float-equality) -- divergence detection is exact by design
    if (ra.time != rb.time) {
      divergence.what = util::fmt("record {}: time {} vs {}", ra.seq, ra.time, rb.time);
    } else if (ra.cause != rb.cause) {
      divergence.what = util::fmt("record {} at t={}: cause {} vs {}", ra.seq, ra.time,
                                  to_string(ra.cause), to_string(rb.cause));
    } else if (ra.queued != rb.queued || ra.running != rb.running ||
               ra.free_nodes != rb.free_nodes || ra.total_nodes != rb.total_nodes) {
      divergence.what = util::fmt(
          "record {} at t={}: snapshot queued/running/free/total {}/{}/{}/{} vs {}/{}/{}/{}",
          ra.seq, ra.time, ra.queued, ra.running, ra.free_nodes, ra.total_nodes, rb.queued,
          rb.running, rb.free_nodes, rb.total_nodes);
    } else {
      // Same trigger and snapshot: pinpoint the first differing verdict.
      const std::size_t verdicts = std::min(ra.verdicts.size(), rb.verdicts.size());
      std::string what = util::fmt("record {} at t={} ({}): ", ra.seq, ra.time,
                                   to_string(ra.cause));
      bool found = false;
      for (std::size_t v = 0; v < verdicts; ++v) {
        if (ra.verdicts[v] == rb.verdicts[v]) continue;
        what += describe_verdict(ra.verdicts[v]) + " vs " + describe_verdict(rb.verdicts[v]);
        found = true;
        break;
      }
      if (!found) {
        what += util::fmt("{} verdicts vs {}", ra.verdicts.size(), rb.verdicts.size());
      }
      divergence.what = std::move(what);
    }
    return divergence;
  }
  if (a.size() != b.size()) {
    JournalDivergence divergence;
    divergence.index = common;
    divergence.what =
        util::fmt("journals agree on the first {} records, then lengths differ: {} vs {}",
                  common, a.size(), b.size());
    return divergence;
  }
  return std::nullopt;
}

std::vector<std::string> job_timeline(const std::vector<JournalRecord>& records,
                                      workload::JobId job) {
  std::vector<std::string> lines;
  for (const JournalRecord& record : records) {
    for (const JournalVerdict& verdict : record.verdicts) {
      if (verdict.job != job) continue;
      std::string line = util::fmt("t={} #{} [{}] {}", record.time, record.seq,
                                   to_string(record.cause), to_string(verdict.action));
      if (verdict.reason != HoldReason::kNone) line += ": " + to_string(verdict.reason);
      if (verdict.nodes != 0) line += util::fmt(" ({} nodes)", verdict.nodes);
      if (!verdict.detail.empty()) line += " — " + verdict.detail;
      if (verdict.trace_seq != 0) line += util::fmt(" [trace #{}]", verdict.trace_seq);
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

}  // namespace elastisim::stats
