#include "stats/run_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "json/json.h"
#include "stats/journal.h"
#include "stats/report_format.h"
#include "stats/state_sampler.h"
#include "util/csv.h"
#include "util/fmt.h"

namespace elastisim::stats {

namespace {

// --------------------------------------------------------------------------
// Input parsing
// --------------------------------------------------------------------------

struct JobRow {
  long long id = 0;
  std::string name;
  std::string user;
  std::string type;  // rigid | moldable | malleable | evolving
  double submit = 0.0;
  double start = -1.0;
  double end = -1.0;
  int initial_nodes = 0;
  int final_nodes = 0;
  int expansions = 0;
  int shrinks = 0;
  int requeues = 0;
  bool killed = false;
  bool cancelled = false;

  bool started() const { return start >= 0.0; }
  bool finished() const { return end >= 0.0; }
};

std::size_t column_index(const std::vector<std::string>& header, const char* name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::runtime_error(util::fmt("jobs.csv lacks column \"{}\"", name));
}

std::vector<JobRow> read_jobs_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(util::fmt("cannot read {}", path));
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error(util::fmt("{} is empty", path));
  const std::vector<std::string> header = util::split_csv_line(line);
  const std::size_t c_id = column_index(header, "id");
  const std::size_t c_name = column_index(header, "name");
  const std::size_t c_user = column_index(header, "user");
  const std::size_t c_type = column_index(header, "type");
  const std::size_t c_submit = column_index(header, "submit");
  const std::size_t c_start = column_index(header, "start");
  const std::size_t c_end = column_index(header, "end");
  const std::size_t c_initial = column_index(header, "initial_nodes");
  const std::size_t c_final = column_index(header, "final_nodes");
  const std::size_t c_expansions = column_index(header, "expansions");
  const std::size_t c_shrinks = column_index(header, "shrinks");
  const std::size_t c_requeues = column_index(header, "requeues");
  const std::size_t c_killed = column_index(header, "killed");
  const std::size_t c_cancelled = column_index(header, "cancelled");

  std::vector<JobRow> jobs;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::split_csv_line(line);
    if (fields.size() < header.size()) {
      throw std::runtime_error(util::fmt("{} line {}: {} fields, expected {}", path,
                                         line_number, fields.size(), header.size()));
    }
    try {
      JobRow row;
      row.id = std::stoll(fields[c_id]);
      row.name = fields[c_name];
      row.user = fields[c_user];
      row.type = fields[c_type];
      row.submit = std::stod(fields[c_submit]);
      row.start = std::stod(fields[c_start]);
      row.end = std::stod(fields[c_end]);
      row.initial_nodes = static_cast<int>(std::stod(fields[c_initial]));
      row.final_nodes = static_cast<int>(std::stod(fields[c_final]));
      row.expansions = static_cast<int>(std::stod(fields[c_expansions]));
      row.shrinks = static_cast<int>(std::stod(fields[c_shrinks]));
      row.requeues = static_cast<int>(std::stod(fields[c_requeues]));
      row.killed = fields[c_killed] == "true";
      row.cancelled = fields[c_cancelled] == "true";
      jobs.push_back(std::move(row));
    } catch (const std::invalid_argument&) {
      throw std::runtime_error(util::fmt("{} line {}: malformed number", path, line_number));
    }
  }
  return jobs;
}

/// Per-job event markers mined from trace.csv (requeues, walltime kills).
struct TraceMarkers {
  std::size_t entries = 0;
  std::map<long long, std::vector<double>> requeues;
  std::map<long long, std::vector<double>> kills;
};

TraceMarkers read_trace_markers(const std::string& path) {
  TraceMarkers markers;
  std::ifstream in(path);
  if (!in) return markers;
  std::string line;
  if (!std::getline(in, line)) return markers;  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::split_csv_line(line);
    if (fields.size() < 4) continue;
    ++markers.entries;
    // seq,time,event,job,detail
    const std::string& event = fields[2];
    if (event != "requeue" && event != "walltime-kill") continue;
    try {
      const double time = std::stod(fields[1]);
      const long long job = std::stoll(fields[3]);
      (event == "requeue" ? markers.requeues : markers.kills)[job].push_back(time);
    } catch (const std::exception&) {
      continue;  // tolerate foreign rows; markers are best-effort decoration
    }
  }
  return markers;
}

std::size_t count_failure_events(const std::string& path) {
  try {
    const json::Value trace = json::parse_file(path);
    if (const json::Value* failures = trace.find("failures")) {
      if (failures->is_array()) return failures->as_array().size();
    }
  } catch (const std::exception&) {
    // Malformed or unreadable: the report simply omits the count.
  }
  return 0;
}

// --------------------------------------------------------------------------
// Formatting helpers
// --------------------------------------------------------------------------

using report_format::html_escape;
using report_format::xy;

/// Human-readable simulated-time label for axis ticks.
std::string time_label(double seconds) {
  char buffer[48];
  if (seconds >= 2.0 * 86400.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fd", seconds / 86400.0);
  } else if (seconds >= 2.0 * 3600.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1fh", seconds / 3600.0);
  } else if (seconds >= 120.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0fm", seconds / 60.0);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0fs", seconds);
  }
  return buffer;
}

/// Rounds a raw step to 1/2/5 x 10^k, the usual tick spacing.
double nice_step(double raw) {
  if (raw <= 0.0) return 1.0;
  const double magnitude = std::pow(10.0, std::floor(std::log10(raw)));
  const double residual = raw / magnitude;
  if (residual <= 1.0) return magnitude;
  if (residual <= 2.0) return 2.0 * magnitude;
  if (residual <= 5.0) return 5.0 * magnitude;
  return 10.0 * magnitude;
}

/// Linear time -> x mapping shared by every chart.
struct TimeScale {
  double t1 = 1.0;   // domain [0, t1]
  double x0 = 0.0;
  double x1 = 1.0;
  double x(double t) const { return x0 + (x1 - x0) * (t / t1); }
};

const char* type_color(const std::string& type) {
  if (type == "moldable") return "#4e79a7";
  if (type == "malleable") return "#59a14f";
  if (type == "evolving") return "#b07aa1";
  return "#7b8794";  // rigid and anything unrecognized
}

/// Time axis with ticks and labels, shared chart furniture.
void append_time_axis(std::string& svg, const TimeScale& scale, double y) {
  svg += util::fmt("<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>\n",
                   xy(scale.x0), xy(y), xy(scale.x1), xy(y));
  const double step = nice_step(scale.t1 / 6.0);
  for (double t = 0.0; t <= scale.t1 + step * 0.01; t += step) {
    const double x = scale.x(std::min(t, scale.t1));
    svg += util::fmt("<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>\n",
                     xy(x), xy(y), xy(x), xy(y + 4));
    svg += util::fmt("<text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>\n", xy(x),
                     xy(y + 16), time_label(t));
  }
}

/// Shaded vertical bands over intervals where down-node count is positive.
void append_down_bands(std::string& svg, const TimeScale& scale,
                       const std::vector<StateSample>& samples, double y0, double height) {
  double band_start = -1.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool down = samples[i].down > 0;
    if (down && band_start < 0.0) band_start = samples[i].time;
    if (!down && band_start >= 0.0) {
      svg += util::fmt(
          "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" class=\"downband\">"
          "<title>nodes down {} – {}</title></rect>\n",
          xy(scale.x(band_start)), xy(y0),
          xy(std::max(1.0, scale.x(samples[i].time) - scale.x(band_start))), xy(height),
          time_label(band_start), time_label(samples[i].time));
      band_start = -1.0;
    }
  }
  if (band_start >= 0.0) {
    svg += util::fmt(
        "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" class=\"downband\">"
        "<title>nodes down from {}</title></rect>\n",
        xy(scale.x(band_start)), xy(y0),
        xy(std::max(1.0, scale.x1 - scale.x(band_start))), xy(height),
        time_label(band_start));
  }
}

/// Step-function path ("M ... H ... V ...") through (time, value) points.
template <typename GetValue>
std::string step_path(const TimeScale& scale, const std::vector<StateSample>& samples,
                      double y0, double height, double vmax, GetValue&& value) {
  std::string path;
  double last_y = y0 + height;  // baseline: zero before the first sample
  path += util::fmt("M {} {}", xy(scale.x0), xy(last_y));
  for (const StateSample& s : samples) {
    const double x = scale.x(s.time);
    const double y =
        y0 + height - (vmax > 0.0 ? std::clamp(value(s) / vmax, 0.0, 1.0) : 0.0) * height;
    path += util::fmt(" H {} V {}", xy(x), xy(y));
    last_y = y;
  }
  path += util::fmt(" H {}", xy(scale.x1));
  return path;
}

// --------------------------------------------------------------------------
// Sections
// --------------------------------------------------------------------------

constexpr std::size_t kMaxGanttRows = 400;
constexpr std::size_t kMaxJournalJobs = 200;
constexpr double kChartWidth = 1120.0;
constexpr double kChartLeft = 56.0;
constexpr double kChartRight = kChartWidth - 16.0;

std::string summary_section(const json::Value& summary, const ReportInputs& inputs,
                            const ReportResult& found) {
  std::string html = "<section id=\"summary\">\n<h2>Summary</h2>\n";
  html += util::fmt("<p class=\"meta\">source: <code>{}</code></p>\n",
                    html_escape(inputs.dir));
  if (summary.is_object()) {
    html += "<table><tbody>\n";
    for (const auto& [key, value] : summary.as_object()) {
      std::string shown;
      if (value.is_string()) {
        shown = html_escape(value.as_string());
      } else {
        shown = json::dump(value);
      }
      html += util::fmt("<tr><th>{}</th><td>{}</td></tr>\n", html_escape(key), shown);
    }
    html += "</tbody></table>\n";
  } else {
    html += "<p class=\"note\">summary.json not found; headline metrics omitted.</p>\n";
  }
  std::string artifacts = util::fmt("{} jobs", found.jobs);
  artifacts += found.samples
                   ? util::fmt(", {} timeline samples", found.samples)
                   : std::string(", no timeseries.csv (run with --timeseries)");
  if (found.journal_records) {
    artifacts += util::fmt(", {} journal records", found.journal_records);
  }
  if (found.trace_entries) artifacts += util::fmt(", {} trace entries", found.trace_entries);
  if (found.failure_events) {
    artifacts += util::fmt(", {} scheduled failure events", found.failure_events);
  }
  html += util::fmt("<p class=\"meta\">artifacts: {}.</p>\n", artifacts);
  html += "</section>\n";
  return html;
}

std::string gantt_section(const std::vector<JobRow>& jobs, const TimeScale& base_scale,
                          const TraceMarkers& markers, bool link_journal) {
  // Row order: by first activity (start when the job ran, submit otherwise).
  std::vector<const JobRow*> rows;
  rows.reserve(jobs.size());
  for (const JobRow& job : jobs) rows.push_back(&job);
  std::stable_sort(rows.begin(), rows.end(), [](const JobRow* a, const JobRow* b) {
    const double ka = a->started() ? a->start : a->submit;
    const double kb = b->started() ? b->start : b->submit;
    // elsim-lint: allow(float-equality) -- sort tie-break wants exactness
    if (ka != kb) return ka < kb;
    return a->id < b->id;
  });
  const std::size_t shown = std::min(rows.size(), kMaxGanttRows);

  const double row_height = 14.0;
  const double bar_height = 9.0;
  const double top = 8.0;
  const double axis_y = top + static_cast<double>(shown) * row_height + 6.0;
  const double svg_height = axis_y + 24.0;
  TimeScale scale = base_scale;

  std::string html = "<section id=\"gantt\">\n<h2>Job Gantt</h2>\n";
  html +=
      "<p class=\"legend\"><span style=\"background:#7b8794\"></span>rigid "
      "<span style=\"background:#4e79a7\"></span>moldable "
      "<span style=\"background:#59a14f\"></span>malleable "
      "<span style=\"background:#b07aa1\"></span>evolving "
      "<span style=\"background:#c9ced6\"></span>waiting "
      "<span class=\"marker\">◆</span>requeue "
      "<span class=\"marker\">✕</span>kill</p>\n";
  if (shown < rows.size()) {
    html += util::fmt(
        "<p class=\"note\">showing the first {} of {} jobs by start time; the rest are "
        "omitted from the chart but present in jobs.csv and the tables below.</p>\n",
        shown, rows.size());
  }
  html += util::fmt(
      "<svg viewBox=\"0 0 {} {}\" width=\"100%\" role=\"img\" "
      "aria-label=\"per-job Gantt chart\">\n",
      xy(kChartWidth), xy(svg_height));

  for (std::size_t i = 0; i < shown; ++i) {
    const JobRow& job = *rows[i];
    const double y = top + static_cast<double>(i) * row_height;
    const double bar_y = y + (row_height - bar_height) / 2.0;
    const double run_start = job.started() ? job.start : job.submit;
    const double run_end = job.finished() ? job.end : scale.t1;

    // Waiting bar: submit -> start (or the whole visible life when the job
    // never started).
    const double wait_end = job.started() ? job.start : run_end;
    if (wait_end > job.submit) {
      html += util::fmt(
          "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"3\" fill=\"#c9ced6\"/>\n",
          xy(scale.x(job.submit)), xy(bar_y + bar_height / 2.0 - 1.5),
          xy(std::max(0.75, scale.x(wait_end) - scale.x(job.submit))));
    }
    // Run bar.
    if (job.started()) {
      const std::string label = job.name.empty() ? util::fmt("job {}", job.id)
                                                 : job.name;
      std::string tooltip = util::fmt(
          "job {} “{}” ({}) user={} submit={} start={} end={} nodes {}→{}", job.id,
          label, job.type, job.user.empty() ? "-" : job.user, time_label(job.submit),
          time_label(job.start), job.finished() ? time_label(job.end) : "never",
          job.initial_nodes, job.final_nodes);
      if (job.expansions || job.shrinks) {
        tooltip += util::fmt(", {}+/{}- resizes", job.expansions, job.shrinks);
      }
      if (job.requeues) tooltip += util::fmt(", {} requeues", job.requeues);
      if (job.killed) tooltip += ", killed";
      html += util::fmt(
          "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"{}>"
          "<title>{}</title></rect>\n",
          xy(scale.x(run_start)), xy(bar_y),
          xy(std::max(1.0, scale.x(run_end) - scale.x(run_start))), xy(bar_height),
          type_color(job.type),
          job.killed ? " stroke=\"#b3252c\" stroke-width=\"1.5\"" : "",
          html_escape(tooltip));
    } else if (job.cancelled) {
      html += util::fmt(
          "<text x=\"{}\" y=\"{}\" class=\"marker\">∅<title>job {} cancelled "
          "(dependency failed)</title></text>\n",
          xy(scale.x(job.finished() ? job.end : job.submit)), xy(y + row_height - 3.0),
          job.id);
    }
    // Failure/requeue and kill markers from trace.csv.
    if (auto it = markers.requeues.find(job.id); it != markers.requeues.end()) {
      for (double t : it->second) {
        html += util::fmt(
            "<text x=\"{}\" y=\"{}\" class=\"marker\">◆<title>job {} requeued at "
            "{}</title></text>\n",
            xy(scale.x(t) - 3.0), xy(y + row_height - 3.0), job.id, time_label(t));
      }
    }
    if (auto it = markers.kills.find(job.id); it != markers.kills.end()) {
      for (double t : it->second) {
        html += util::fmt(
            "<text x=\"{}\" y=\"{}\" class=\"marker\">✕<title>job {} killed at "
            "{}</title></text>\n",
            xy(scale.x(t) - 3.0), xy(y + row_height - 3.0), job.id, time_label(t));
      }
    }
    // Row label, linked to the journal timeline when one exists.
    const std::string label_text = util::fmt("{}", job.id);
    if (link_journal) {
      html += util::fmt(
          "<a href=\"#job-{}\"><text x=\"{}\" y=\"{}\" class=\"rowlabel\">{}</text></a>\n",
          job.id, xy(kChartLeft - 6.0), xy(y + row_height - 4.0), label_text);
    } else {
      html += util::fmt("<text x=\"{}\" y=\"{}\" class=\"rowlabel\">{}</text>\n",
                        xy(kChartLeft - 6.0), xy(y + row_height - 4.0), label_text);
    }
  }
  append_time_axis(html, scale, axis_y);
  html += "</svg>\n</section>\n";
  return html;
}

std::string utilization_section(const std::vector<StateSample>& samples,
                                const TimeScale& scale) {
  std::string html = "<section id=\"utilization\">\n<h2>Utilization</h2>\n";
  if (samples.empty()) {
    html +=
        "<p class=\"note\">no timeseries.csv in this run directory — re-run the "
        "simulation with <code>--timeseries</code> to populate this chart.</p>\n"
        "</section>\n";
    return html;
  }
  const double height = 140.0;
  const double top = 8.0;
  const double axis_y = top + height;
  html += util::fmt(
      "<svg viewBox=\"0 0 {} {}\" width=\"100%\" role=\"img\" "
      "aria-label=\"cluster utilization over time\">\n",
      xy(kChartWidth), xy(axis_y + 24.0));
  append_down_bands(html, scale, samples, top, height);
  for (double frac : {0.0, 0.5, 1.0}) {
    const double y = top + height - frac * height;
    html += util::fmt("<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"grid\"/>\n",
                      xy(scale.x0), xy(y), xy(scale.x1), xy(y));
    html += util::fmt("<text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}%</text>\n",
                      xy(scale.x0 - 6.0), xy(y + 4.0), static_cast<int>(frac * 100.0));
  }
  const std::string path =
      step_path(scale, samples, top, height, 1.0,
                [](const StateSample& s) { return s.utilization; });
  html += util::fmt(
      "<path d=\"{} V {} H {} Z\" fill=\"#4e79a7\" fill-opacity=\"0.25\" stroke=\"none\"/>\n",
      path, xy(axis_y), xy(scale.x0));
  html += util::fmt("<path d=\"{}\" fill=\"none\" stroke=\"#4e79a7\" stroke-width=\"1.5\"/>\n",
                    path);
  append_time_axis(html, scale, axis_y);
  html += "</svg>\n";
  html +=
      "<p class=\"legend\"><span style=\"background:#4e79a7\"></span>allocated-node "
      "fraction <span class=\"downkey\"></span>nodes down (failed or drained)</p>\n";
  html += "</section>\n";
  return html;
}

std::string queue_section(const std::vector<StateSample>& samples, const TimeScale& scale) {
  std::string html = "<section id=\"queue\">\n<h2>Queue depth</h2>\n";
  if (samples.empty()) {
    html += "<p class=\"note\">no timeseries.csv — queue-depth timeline unavailable.</p>\n"
            "</section>\n";
    return html;
  }
  double vmax = 1.0;
  for (const StateSample& s : samples) {
    vmax = std::max({vmax, static_cast<double>(s.queued), static_cast<double>(s.running)});
  }
  const double height = 140.0;
  const double top = 8.0;
  const double axis_y = top + height;
  html += util::fmt(
      "<svg viewBox=\"0 0 {} {}\" width=\"100%\" role=\"img\" "
      "aria-label=\"queue depth and running jobs over time\">\n",
      xy(kChartWidth), xy(axis_y + 24.0));
  append_down_bands(html, scale, samples, top, height);
  for (double frac : {0.0, 0.5, 1.0}) {
    const double y = top + height - frac * height;
    html += util::fmt("<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"grid\"/>\n",
                      xy(scale.x0), xy(y), xy(scale.x1), xy(y));
    html += util::fmt("<text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}</text>\n",
                      xy(scale.x0 - 6.0), xy(y + 4.0),
                      static_cast<int>(std::lround(frac * vmax)));
  }
  html += util::fmt(
      "<path d=\"{}\" fill=\"none\" stroke=\"#f28e2b\" stroke-width=\"1.5\"/>\n",
      step_path(scale, samples, top, height, vmax,
                [](const StateSample& s) { return static_cast<double>(s.queued); }));
  html += util::fmt(
      "<path d=\"{}\" fill=\"none\" stroke=\"#4e79a7\" stroke-width=\"1.5\"/>\n",
      step_path(scale, samples, top, height, vmax,
                [](const StateSample& s) { return static_cast<double>(s.running); }));
  append_time_axis(html, scale, axis_y);
  html += "</svg>\n";
  html +=
      "<p class=\"legend\"><span style=\"background:#f28e2b\"></span>queued jobs "
      "<span style=\"background:#4e79a7\"></span>running jobs "
      "<span class=\"downkey\"></span>nodes down</p>\n";
  html += "</section>\n";
  return html;
}

std::string journal_section(const std::vector<JournalRecord>& records,
                            const std::vector<JobRow>& jobs) {
  std::string html = "<section id=\"journal\">\n<h2>Why jobs waited</h2>\n";
  if (records.empty()) {
    html +=
        "<p class=\"note\">no decision journal found — run the simulation with "
        "<code>--journal &lt;out-dir&gt;/journal.jsonl</code> for per-job hold-reason "
        "timelines.</p>\n</section>\n";
    return html;
  }
  // One pass over the records builds every job's timeline (same line format
  // as `elastisim inspect --job`).
  std::map<long long, std::vector<std::string>> timelines;
  for (const JournalRecord& record : records) {
    for (const JournalVerdict& verdict : record.verdicts) {
      std::string line = util::fmt("t={} #{} [{}] {}", record.time, record.seq,
                                   to_string(record.cause), to_string(verdict.action));
      if (verdict.reason != HoldReason::kNone) line += ": " + to_string(verdict.reason);
      if (verdict.nodes != 0) line += util::fmt(" ({} nodes)", verdict.nodes);
      if (!verdict.detail.empty()) line += " — " + verdict.detail;
      if (verdict.trace_seq != 0) line += util::fmt(" [trace #{}]", verdict.trace_seq);
      timelines[static_cast<long long>(verdict.job)].push_back(std::move(line));
    }
  }
  html += util::fmt(
      "<p class=\"meta\">{} scheduler invocations recorded; expand a job for its "
      "decision timeline (Gantt row labels link here).</p>\n",
      records.size());
  std::size_t listed = 0;
  for (const JobRow& job : jobs) {
    auto it = timelines.find(job.id);
    if (it == timelines.end()) continue;
    if (listed == kMaxJournalJobs) break;
    ++listed;
    html += util::fmt("<details id=\"job-{}\"><summary>job {} — {} decisions</summary><pre>",
                      job.id, job.id, it->second.size());
    for (const std::string& line : it->second) {
      html += html_escape(line);
      html += '\n';
    }
    html += "</pre></details>\n";
  }
  if (listed == kMaxJournalJobs && timelines.size() > kMaxJournalJobs) {
    html += util::fmt(
        "<p class=\"note\">showing {} of {} jobs with journal entries; use "
        "<code>elastisim inspect --job &lt;id&gt;</code> for the rest.</p>\n",
        listed, timelines.size());
  }
  html += "</section>\n";
  return html;
}

const char* kStyle = R"css(
  body { font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
         color: #1f2733; margin: 2rem auto; max-width: 1180px; padding: 0 1rem; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
  code, pre { font: 12px/1.45 ui-monospace, "SF Mono", Menlo, Consolas, monospace; }
  table { border-collapse: collapse; }
  th, td { text-align: left; padding: 2px 12px 2px 0; border-bottom: 1px solid #e3e7ee; }
  th { font-weight: 600; color: #53627a; }
  .meta, .note { color: #53627a; } .note { font-style: italic; }
  .legend span { display: inline-block; width: 12px; height: 12px; margin: 0 4px -1px 10px;
                 border-radius: 2px; }
  .legend .marker, svg .marker { color: #b3252c; font-size: 10px; width: auto; height: auto; }
  .legend .downkey { background: #e15759; opacity: 0.25; }
  svg { background: #fbfcfe; border: 1px solid #e3e7ee; border-radius: 4px; }
  svg text { font: 10px system-ui, sans-serif; fill: #53627a; }
  svg .rowlabel { text-anchor: end; font-size: 9px; }
  svg a .rowlabel { fill: #2563b0; text-decoration: underline; }
  svg .tick { text-anchor: middle; }
  svg .axis { stroke: #9aa5b5; stroke-width: 1; }
  svg .grid { stroke: #e3e7ee; stroke-width: 1; }
  svg .downband { fill: #e15759; opacity: 0.18; }
  details { margin: 2px 0; } summary { cursor: pointer; color: #2563b0; }
  pre { background: #f4f6fa; padding: 8px; border-radius: 4px; overflow-x: auto; }
)css";

}  // namespace

std::string render_run_report(const ReportInputs& inputs, ReportResult* result) {
  namespace fs = std::filesystem;
  ReportResult found;

  const std::vector<JobRow> jobs = read_jobs_csv(inputs.dir + "/jobs.csv");
  found.jobs = jobs.size();

  std::vector<StateSample> samples;
  const std::string timeseries_path = inputs.dir + "/timeseries.csv";
  if (fs::exists(timeseries_path)) {
    samples = StateSampler::load(timeseries_path);
    found.samples = samples.size();
  }

  json::Value summary;  // null when absent
  const std::string summary_path = inputs.dir + "/summary.json";
  if (fs::exists(summary_path)) {
    try {
      summary = json::parse_file(summary_path);
    } catch (const std::exception&) {
      summary = json::Value();  // malformed: degrade to "not found"
    }
  }

  std::vector<JournalRecord> journal;
  const std::string journal_path =
      inputs.journal_path.empty() ? inputs.dir + "/journal.jsonl" : inputs.journal_path;
  if (fs::exists(journal_path)) {
    journal = DecisionJournal::load(journal_path);
    found.journal_records = journal.size();
  }

  const TraceMarkers markers = read_trace_markers(inputs.dir + "/trace.csv");
  found.trace_entries = markers.entries;

  const std::string failure_path = inputs.failure_trace_path.empty()
                                       ? inputs.dir + "/failures.json"
                                       : inputs.failure_trace_path;
  if (fs::exists(failure_path)) found.failure_events = count_failure_events(failure_path);

  // Shared time domain: cover every job and every sample.
  TimeScale scale;
  scale.x0 = kChartLeft;
  scale.x1 = kChartRight;
  double t1 = summary.is_object() ? summary.member_or("makespan_s", 0.0) : 0.0;
  for (const JobRow& job : jobs) {
    t1 = std::max({t1, job.submit, job.start, job.end});
  }
  if (!samples.empty()) t1 = std::max(t1, samples.back().time);
  scale.t1 = t1 > 0.0 ? t1 : 1.0;

  std::string html;
  html.reserve(1 << 16);
  html += "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  html += util::fmt("<title>elastisim run report — {}</title>\n", html_escape(inputs.dir));
  html += "<style>";
  html += kStyle;
  html += "</style>\n</head>\n<body>\n<h1>elastisim run report</h1>\n";
  html += summary_section(summary, inputs, found);
  html += gantt_section(jobs, scale, markers, !journal.empty());
  html += utilization_section(samples, scale);
  html += queue_section(samples, scale);
  html += journal_section(journal, jobs);
  html += "</body>\n</html>\n";

  found.html_bytes = html.size();
  if (result) *result = found;
  return html;
}

ReportResult write_run_report(const ReportInputs& inputs, const std::string& html_path) {
  ReportResult result;
  const std::string html = render_run_report(inputs, &result);
  const std::filesystem::path parent = std::filesystem::path(html_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(html_path, std::ios::binary);
  if (!out) throw std::runtime_error(util::fmt("cannot write {}", html_path));
  out << html;
  if (!out) throw std::runtime_error(util::fmt("write failed for {}", html_path));
  return result;
}

}  // namespace elastisim::stats
