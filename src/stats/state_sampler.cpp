#include "stats/state_sampler.h"

#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/csv.h"
#include "util/fmt.h"

namespace elastisim::stats {

void StateSampler::sample(double time, int queued, int running, int free_nodes,
                          int failed, int drained, int total) {
  StateSample s;
  s.time = time;
  s.queued = queued;
  s.running = running;
  s.free_nodes = free_nodes;
  s.down = failed + drained;
  s.total = total;
  s.allocated = total - free_nodes - s.down;
  if (s.allocated < 0) s.allocated = 0;  // defensive; the books should balance
  s.utilization = total > 0 ? static_cast<double>(s.allocated) / total : 0.0;
  s.expansions = expansions_;
  s.shrinks = shrinks_;
  s.evolving_grants = evolving_grants_;
  s.requeues = requeues_;
  s.checkpoint_restarts = checkpoint_restarts_;
  s.lost_node_seconds = lost_node_seconds_;
  record(s);
}

void StateSampler::on_job(const JobEvent& event) {
  if (event.change == JobChange::kRestarted) {
    count_checkpoint_restart();
  } else if (event.change == JobChange::kRequeued) {
    count_requeue(event.lost_node_seconds);
  }
}

void StateSampler::on_resize(const ResizeEvent& event) {
  switch (event.change) {
    case ResizeChange::kExpanded: count_expansion(); break;
    case ResizeChange::kShrunk: count_shrink(); break;
    case ResizeChange::kEvolving:
      if (event.granted) count_evolving_grant();
      break;
    case ResizeChange::kTarget: break;
  }
}

void StateSampler::record(const StateSample& sample) {
  // Same-instant scheduling points collapse into one sample (last wins), so
  // the series stays a step function with unique timestamps.
  // elsim-lint: allow(float-equality) -- same-instant samples coalesce exactly
  if (!samples_.empty() && samples_.back().time == sample.time) {
    samples_.back() = sample;
    return;
  }
  const bool on_stride = (updates_++ % stride_ == 0);
  if (tail_provisional_) {
    samples_.back() = sample;
    tail_provisional_ = !on_stride;
  } else if (on_stride) {
    samples_.push_back(sample);
  } else {
    // Off-stride: keep the timeline's tail at the latest observation anyway;
    // the next sample overwrites this slot.
    samples_.push_back(sample);
    tail_provisional_ = true;
  }
  if (samples_.size() >= kMaxSamples) {
    // Thin to every other sample and double the stride — but never lose the
    // newest observation: if the tail sat at an odd index, re-append it.
    const StateSample last = samples_.back();
    const bool last_dropped = (samples_.size() - 1) % 2 == 1;
    std::size_t write = 0;
    for (std::size_t read = 0; read < samples_.size(); read += 2) {
      samples_[write++] = samples_[read];
    }
    samples_.resize(write);
    if (last_dropped) samples_.push_back(last);
    stride_ *= 2;
  }
}

void StateSampler::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.typed_row("time", "queued", "running", "allocated_nodes", "free_nodes",
                "down_nodes", "total_nodes", "utilization", "expansions", "shrinks",
                "evolving_grants", "requeues", "checkpoint_restarts",
                "lost_node_seconds");
  for (const StateSample& s : samples_) {
    csv.typed_row(s.time, s.queued, s.running, s.allocated, s.free_nodes, s.down,
                  s.total, s.utilization, static_cast<unsigned long long>(s.expansions),
                  static_cast<unsigned long long>(s.shrinks),
                  static_cast<unsigned long long>(s.evolving_grants),
                  static_cast<unsigned long long>(s.requeues),
                  static_cast<unsigned long long>(s.checkpoint_restarts),
                  s.lost_node_seconds);
  }
}

void StateSampler::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(util::fmt("cannot write {}", path));
  write_csv(out);
}

namespace {

double field_as_double(const std::vector<std::string>& fields, std::size_t index,
                       std::size_t line) {
  try {
    return std::stod(fields.at(index));
  } catch (const std::exception&) {
    throw std::runtime_error(
        util::fmt("timeseries line {}: malformed number \"{}\"", line,
                  index < fields.size() ? fields[index] : std::string("<missing>")));
  }
}

}  // namespace

std::vector<StateSample> StateSampler::read_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) return {};
  const std::vector<std::string> header = util::split_csv_line(line);
  std::unordered_map<std::string, std::size_t> column;
  for (std::size_t i = 0; i < header.size(); ++i) column[header[i]] = i;
  const auto need = [&](const char* name) {
    auto it = column.find(name);
    if (it == column.end()) {
      throw std::runtime_error(util::fmt("timeseries header lacks column \"{}\"", name));
    }
    return it->second;
  };
  const std::size_t c_time = need("time");
  const std::size_t c_queued = need("queued");
  const std::size_t c_running = need("running");
  const std::size_t c_allocated = need("allocated_nodes");
  const std::size_t c_free = need("free_nodes");
  const std::size_t c_down = need("down_nodes");
  const std::size_t c_total = need("total_nodes");
  const std::size_t c_util = need("utilization");
  const std::size_t c_expansions = need("expansions");
  const std::size_t c_shrinks = need("shrinks");
  const std::size_t c_grants = need("evolving_grants");
  const std::size_t c_requeues = need("requeues");
  const std::size_t c_restarts = need("checkpoint_restarts");
  const std::size_t c_lost = need("lost_node_seconds");

  std::vector<StateSample> samples;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::split_csv_line(line);
    if (fields.size() < header.size()) {
      throw std::runtime_error(util::fmt("timeseries line {}: {} fields, expected {}",
                                         line_number, fields.size(), header.size()));
    }
    StateSample s;
    s.time = field_as_double(fields, c_time, line_number);
    s.queued = static_cast<int>(field_as_double(fields, c_queued, line_number));
    s.running = static_cast<int>(field_as_double(fields, c_running, line_number));
    s.allocated = static_cast<int>(field_as_double(fields, c_allocated, line_number));
    s.free_nodes = static_cast<int>(field_as_double(fields, c_free, line_number));
    s.down = static_cast<int>(field_as_double(fields, c_down, line_number));
    s.total = static_cast<int>(field_as_double(fields, c_total, line_number));
    s.utilization = field_as_double(fields, c_util, line_number);
    s.expansions =
        static_cast<std::uint64_t>(field_as_double(fields, c_expansions, line_number));
    s.shrinks = static_cast<std::uint64_t>(field_as_double(fields, c_shrinks, line_number));
    s.evolving_grants =
        static_cast<std::uint64_t>(field_as_double(fields, c_grants, line_number));
    s.requeues =
        static_cast<std::uint64_t>(field_as_double(fields, c_requeues, line_number));
    s.checkpoint_restarts =
        static_cast<std::uint64_t>(field_as_double(fields, c_restarts, line_number));
    s.lost_node_seconds = field_as_double(fields, c_lost, line_number);
    samples.push_back(s);
  }
  return samples;
}

std::vector<StateSample> StateSampler::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(util::fmt("cannot read {}", path));
  return read_csv(in);
}

}  // namespace elastisim::stats
