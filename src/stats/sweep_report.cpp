#include "stats/sweep_report.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "stats/report_format.h"
#include "util/fmt.h"

namespace elastisim::stats {

namespace {

// --------------------------------------------------------------------------
// Formatting helpers
// --------------------------------------------------------------------------

using report_format::html_escape;
using report_format::num;
using report_format::xy;

/// "12.34 ± 1.20" seed-variance band cell.
std::string mean_band(const json::Value& dist, int precision = 2) {
  return num(dist.member_or("mean", 0.0), precision) + " ± " +
         num(dist.member_or("stddev", 0.0), precision);
}

const char* status_class(const std::string& status) {
  if (status == "ok") return "st-ok";
  if (status == "retried") return "st-retried";
  if (status == "timeout") return "st-timeout";
  if (status == "stalled") return "st-stalled";
  if (status == "crashed") return "st-crashed";
  return "st-skipped";
}

bool status_failed(const std::string& status) {
  return status != "ok" && status != "retried";
}

/// Basename without .json, the short label axes tables use.
std::string short_label(const std::string& path) {
  std::string name = std::filesystem::path(path).filename().string();
  if (name.size() > 5 && name.ends_with(".json")) name.resize(name.size() - 5);
  return name.empty() ? path : name;
}

// --------------------------------------------------------------------------
// sweep.json access
// --------------------------------------------------------------------------

std::vector<std::string> string_array(const json::Value& parent, const char* key) {
  std::vector<std::string> out;
  const json::Value* member = parent.find(key);
  if (member == nullptr || !member->is_array()) return out;
  for (const json::Value& entry : member->as_array()) {
    if (entry.is_string()) out.push_back(entry.as_string());
  }
  return out;
}

/// One heatmap row: the cells of a (platform, workload, scheduler) group in
/// seed order (grid order guarantees seeds are contiguous and innermost).
struct HeatRow {
  std::string platform;
  std::string workload;
  std::string scheduler;
  std::vector<const json::Value*> cells;  // parallel to the seeds axis
};

/// The aggregates group for (platform, workload, scheduler), or nullptr.
const json::Value* find_group(const json::Value& groups, const std::string& platform,
                              const std::string& workload, const std::string& scheduler) {
  if (!groups.is_array()) return nullptr;
  for (const json::Value& group : groups.as_array()) {
    // elsim-lint: allow(float-equality) -- std::string comparisons
    if (group.member_or("platform", "") == platform &&
        group.member_or("workload", "") == workload &&
        group.member_or("scheduler", "") == scheduler) {
      return &group;
    }
  }
  return nullptr;
}

// --------------------------------------------------------------------------
// Sections
// --------------------------------------------------------------------------

std::string summary_section(const json::Value& sweep) {
  const json::Value* totals = sweep.find("totals");
  std::string html = "<section id=\"summary\">\n<h2>Sweep summary</h2>\n";
  const bool partial = sweep.member_or("partial", false);
  const bool interrupted = sweep.member_or("interrupted", false);
  html += util::fmt("<p class=\"meta\">schema {} — {}{}</p>\n",
                    html_escape(sweep.member_or("schema", "?")),
                    partial ? "partial sweep (some cells failed or were skipped)"
                            : "complete sweep, every cell succeeded",
                    interrupted ? ", interrupted" : "");
  if (totals != nullptr && totals->is_object()) {
    html += "<table><tr><th>cells</th><th>succeeded</th><th>ok</th><th>retried</th>"
            "<th>timeout</th><th>stalled</th><th>crashed</th><th>skipped</th></tr>\n";
    html += "<tr>";
    for (const char* key :
         {"cells", "succeeded", "ok", "retried", "timeout", "stalled", "crashed",
          "skipped"}) {
      html += util::fmt("<td>{}</td>",
                        static_cast<long long>(totals->member_or(key, std::int64_t{0})));
    }
    html += "</tr></table>\n";
  }
  html += "</section>\n";
  return html;
}

std::string coverage_section(const json::Value& sweep) {
  const json::Value* grid = sweep.find("grid");
  std::string html = "<section id=\"coverage\">\n<h2>Grid coverage</h2>\n";
  if (grid == nullptr || !grid->is_object()) {
    html += "<p class=\"note\">sweep.json carries no grid description.</p>\n</section>\n";
    return html;
  }
  const auto axis_row = [&html](const char* name, const std::vector<std::string>& entries,
                                bool shorten) {
    html += util::fmt("<tr><th>{}</th><td>{}</td><td>", name, entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) html += ", ";
      html += html_escape(shorten ? short_label(entries[i]) : entries[i]);
    }
    html += "</td></tr>\n";
  };
  html += "<table><tr><th>axis</th><th>size</th><th>values</th></tr>\n";
  axis_row("platforms", string_array(*grid, "platforms"), true);
  axis_row("workloads", string_array(*grid, "workloads"), true);
  axis_row("schedulers", string_array(*grid, "schedulers"), false);
  std::vector<std::string> seeds;
  if (const json::Value* seed_array = grid->find("seeds"); seed_array != nullptr &&
                                                           seed_array->is_array()) {
    for (const json::Value& seed : seed_array->as_array()) {
      seeds.push_back(std::to_string(seed.as_int()));
    }
  }
  axis_row("seeds", seeds, false);
  html += "</table>\n";

  // Per-scheduler outcome accounting from the by_scheduler means table.
  if (const json::Value* by_scheduler = sweep.find("by_scheduler");
      by_scheduler != nullptr && by_scheduler->is_array() &&
      !by_scheduler->as_array().empty()) {
    html += "<table><tr><th>scheduler</th><th>cells</th><th>succeeded</th>"
            "<th>mean makespan</th><th>mean wait</th><th>slowdown</th>"
            "<th>utilization</th></tr>\n";
    for (const json::Value& row : by_scheduler->as_array()) {
      html += util::fmt(
          "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}s</td><td>{}s</td>"
          "<td>{}</td><td>{}%</td></tr>\n",
          html_escape(row.member_or("scheduler", "?")),
          static_cast<long long>(row.member_or("cells", std::int64_t{0})),
          static_cast<long long>(row.member_or("succeeded", std::int64_t{0})),
          num(row.member_or("mean_makespan_s", 0.0), 0),
          num(row.member_or("mean_wait_s", 0.0), 1),
          num(row.member_or("mean_bounded_slowdown", 0.0), 2),
          num(100.0 * row.member_or("avg_utilization", 0.0), 1));
    }
    html += "</table>\n";
  }
  html += "</section>\n";
  return html;
}

std::string status_section(const std::vector<HeatRow>& rows,
                           const std::vector<std::string>& seeds,
                           std::size_t failed_cells) {
  std::string html = "<section id=\"status\">\n<h2>Cells status heatmap</h2>\n";
  html += util::fmt(
      "<p class=\"meta\">one row per (platform, workload, scheduler), one column per "
      "seed; {} failed cell{} link{} to postmortems.</p>\n",
      failed_cells, failed_cells == 1 ? "" : "s", failed_cells == 1 ? "s" : "");
  html += "<p class=\"legend\"><span class=\"st-ok\"></span>ok"
          "<span class=\"st-retried\"></span>retried"
          "<span class=\"st-timeout\"></span>timeout"
          "<span class=\"st-stalled\"></span>stalled"
          "<span class=\"st-crashed\"></span>crashed"
          "<span class=\"st-skipped\"></span>skipped</p>\n";
  html += "<table class=\"heatmap\"><tr><th>platform</th><th>workload</th>"
          "<th>scheduler</th>";
  for (const std::string& seed : seeds) {
    html += util::fmt("<th>seed {}</th>", html_escape(seed));
  }
  html += "</tr>\n";
  for (const HeatRow& row : rows) {
    html += util::fmt("<tr><td>{}</td><td>{}</td><td>{}</td>",
                      html_escape(short_label(row.platform)),
                      html_escape(short_label(row.workload)),
                      html_escape(row.scheduler));
    for (const json::Value* cell : row.cells) {
      if (cell == nullptr) {
        html += "<td class=\"hm st-skipped\" title=\"cell missing from sweep.json\">"
                "?</td>";
        continue;
      }
      const std::string status = cell->member_or("status", "skipped");
      const long long index = cell->member_or("index", std::int64_t{0});
      const std::string postmortem = cell->member_or("postmortem", "");
      const std::string error = cell->member_or("error", "");
      std::string title = util::fmt("cell {}: {}", index, status);
      if (!error.empty()) title += " — " + error;
      std::string label = status.substr(0, 1);
      if (!postmortem.empty()) {
        // Relative link into the sweep directory the report sits in.
        label = util::fmt("<a href=\"{}\">{}</a>", html_escape(postmortem), label);
      }
      html += util::fmt("<td class=\"hm {}\" title=\"{}\">{}</td>",
                        status_class(status), html_escape(title), label);
    }
    html += "</tr>\n";
  }
  html += "</table>\n</section>\n";
  return html;
}

/// min—max whisker with a p50 tick, scaled to [lo, hi]; one per table row.
std::string whisker_svg(const json::Value& dist, double lo, double hi) {
  const double width = 150.0;
  const double height = 16.0;
  const double x0 = 4.0;
  const double x1 = width - 4.0;
  const double span = hi - lo;
  const auto x = [&](double v) {
    if (span <= 0.0) return (x0 + x1) / 2.0;
    return x0 + (x1 - x0) * std::clamp((v - lo) / span, 0.0, 1.0);
  };
  const double vmin = dist.member_or("min", 0.0);
  const double vmax = dist.member_or("max", 0.0);
  const double p50 = dist.member_or("p50", 0.0);
  const double mean = dist.member_or("mean", 0.0);
  std::string svg = util::fmt(
      "<svg class=\"whisker\" width=\"{}\" height=\"{}\" viewBox=\"0 0 {} {}\">",
      xy(width), xy(height), xy(width), xy(height));
  svg += util::fmt("<line x1=\"{}\" y1=\"8\" x2=\"{}\" y2=\"8\" class=\"wline\"/>",
                   xy(x(vmin)), xy(x(vmax)));
  svg += util::fmt("<line x1=\"{}\" y1=\"3\" x2=\"{}\" y2=\"13\" class=\"wline\"/>",
                   xy(x(vmin)), xy(x(vmin)));
  svg += util::fmt("<line x1=\"{}\" y1=\"3\" x2=\"{}\" y2=\"13\" class=\"wline\"/>",
                   xy(x(vmax)), xy(x(vmax)));
  svg += util::fmt("<line x1=\"{}\" y1=\"2\" x2=\"{}\" y2=\"14\" class=\"wp50\"/>",
                   xy(x(p50)), xy(x(p50)));
  svg += util::fmt("<circle cx=\"{}\" cy=\"8\" r=\"2.5\" class=\"wmean\"/>", xy(x(mean)));
  svg += "</svg>";
  return svg;
}

std::string compare_section(const json::Value& sweep, const std::vector<std::string>& platforms,
                            const std::vector<std::string>& workloads,
                            const std::vector<std::string>& schedulers) {
  const json::Value* aggregates = sweep.find("aggregates");
  const json::Value* groups =
      aggregates != nullptr ? aggregates->find("groups") : nullptr;
  std::string html = "<section id=\"compare\">\n<h2>Policy vs policy</h2>\n";
  if (groups == nullptr || !groups->is_array() || groups->as_array().empty()) {
    html += "<p class=\"note\">no aggregates in sweep.json — regenerate the sweep with "
            "a current build to populate this section.</p>\n</section>\n";
    return html;
  }
  html += "<p class=\"meta\">mean ± stddev across seeds per scheduler; whiskers span "
          "min–max with the median tick and the mean dot (bounded slowdown).</p>\n";
  for (const std::string& platform : platforms) {
    for (const std::string& workload : workloads) {
      // Shared whisker scale per table so the policies are comparable.
      double lo = 0.0;
      double hi = 0.0;
      bool any = false;
      for (const std::string& scheduler : schedulers) {
        const json::Value* group = find_group(*groups, platform, workload, scheduler);
        if (group == nullptr) continue;
        const json::Value* metrics = group->find("metrics");
        if (metrics == nullptr) continue;
        const json::Value* slowdown = metrics->find("mean_bounded_slowdown");
        if (slowdown == nullptr) continue;
        const double vmin = slowdown->member_or("min", 0.0);
        const double vmax = slowdown->member_or("max", 0.0);
        if (!any) {
          lo = vmin;
          hi = vmax;
          any = true;
        } else {
          lo = std::min(lo, vmin);
          hi = std::max(hi, vmax);
        }
      }
      if (!any) continue;
      html += util::fmt("<h3>{} × {}</h3>\n", html_escape(short_label(platform)),
                        html_escape(short_label(workload)));
      html += "<table><tr><th>scheduler</th><th>seeds</th><th>slowdown</th>"
              "<th>slowdown band</th><th>wait (s)</th><th>utilization (%)</th>"
              "<th>makespan (s)</th></tr>\n";
      for (const std::string& scheduler : schedulers) {
        const json::Value* group = find_group(*groups, platform, workload, scheduler);
        if (group == nullptr) continue;
        const json::Value* metrics = group->find("metrics");
        if (metrics == nullptr || !metrics->is_object()) continue;
        const json::Value* slowdown = metrics->find("mean_bounded_slowdown");
        const json::Value* wait = metrics->find("mean_wait_s");
        const json::Value* utilization = metrics->find("avg_utilization");
        const json::Value* makespan = metrics->find("makespan_s");
        json::Value empty;
        const auto or_empty = [&empty](const json::Value* v) -> const json::Value& {
          // elsim-lint: allow(float-equality) -- pointer null check
          return v != nullptr ? *v : empty;
        };
        std::string util_band =
            num(100.0 * or_empty(utilization).member_or("mean", 0.0), 1) + " ± " +
            num(100.0 * or_empty(utilization).member_or("stddev", 0.0), 1);
        html += util::fmt(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>"
            "<td>{}</td><td>{}</td></tr>\n",
            html_escape(scheduler),
            static_cast<long long>(group->member_or("succeeded", std::int64_t{0})),
            mean_band(or_empty(slowdown)), whisker_svg(or_empty(slowdown), lo, hi),
            mean_band(or_empty(wait), 1), util_band, mean_band(or_empty(makespan), 0));
      }
      html += "</table>\n";
    }
  }
  html += "</section>\n";
  return html;
}

std::string slowdown_section(const json::Value& sweep,
                             const std::vector<std::string>& platforms,
                             const std::vector<std::string>& workloads,
                             const std::vector<std::string>& schedulers) {
  const json::Value* aggregates = sweep.find("aggregates");
  const json::Value* groups =
      aggregates != nullptr ? aggregates->find("groups") : nullptr;
  std::string html = "<section id=\"slowdown\">\n<h2>Slowdown distributions</h2>\n";
  if (groups == nullptr || !groups->is_array() || groups->as_array().empty()) {
    html += "<p class=\"note\">no aggregates available.</p>\n</section>\n";
    return html;
  }
  html += "<p class=\"meta\">per-policy bounded-slowdown strips: light band min–max, "
          "dark band p50–p95, tick at p99. Per-job quantiles when cell outputs were "
          "aggregated, per-seed cell means otherwise.</p>\n";
  for (const std::string& platform : platforms) {
    for (const std::string& workload : workloads) {
      // Pick each scheduler's distribution (per-job when available) and a
      // shared scale for the pair's strips.
      struct Strip {
        std::string scheduler;
        const json::Value* dist;
        bool per_job;
      };
      std::vector<Strip> strips;
      double lo = 1.0;
      double hi = 1.0;
      for (const std::string& scheduler : schedulers) {
        const json::Value* group = find_group(*groups, platform, workload, scheduler);
        if (group == nullptr) continue;
        const json::Value* dist = nullptr;
        bool per_job = false;
        if (const json::Value* jobs = group->find("jobs")) {
          dist = jobs->find("bounded_slowdown");
          per_job = dist != nullptr;
        }
        if (dist == nullptr) {
          if (const json::Value* metrics = group->find("metrics")) {
            dist = metrics->find("mean_bounded_slowdown");
          }
        }
        if (dist == nullptr || dist->member_or("count", std::int64_t{0}) <= 0) continue;
        lo = std::min(lo, dist->member_or("min", 1.0));
        hi = std::max(hi, dist->member_or("max", 1.0));
        strips.push_back({scheduler, dist, per_job});
      }
      if (strips.empty()) continue;
      html += util::fmt("<h3>{} × {}</h3>\n", html_escape(short_label(platform)),
                        html_escape(short_label(workload)));
      const double width = 760.0;
      const double row_height = 26.0;
      const double label_width = 170.0;
      const double x0 = label_width;
      const double x1 = width - 10.0;
      const double span = hi - lo;
      const auto x = [&](double v) {
        if (span <= 0.0) return (x0 + x1) / 2.0;
        return x0 + (x1 - x0) * std::clamp((v - lo) / span, 0.0, 1.0);
      };
      const double height = row_height * static_cast<double>(strips.size()) + 22.0;
      html += util::fmt(
          "<svg width=\"{}\" height=\"{}\" viewBox=\"0 0 {} {}\" role=\"img\">\n",
          xy(width), xy(height), xy(width), xy(height));
      for (std::size_t i = 0; i < strips.size(); ++i) {
        const Strip& strip = strips[i];
        const double y = row_height * static_cast<double>(i) + 6.0;
        const double vmin = strip.dist->member_or("min", 0.0);
        const double vmax = strip.dist->member_or("max", 0.0);
        const double p50 = strip.dist->member_or("p50", 0.0);
        const double p95 = strip.dist->member_or("p95", 0.0);
        const double p99 = strip.dist->member_or("p99", 0.0);
        html += util::fmt("<text x=\"{}\" y=\"{}\" class=\"rowlabel\">{}{}</text>\n",
                          xy(label_width - 8.0), xy(y + 11.0), html_escape(strip.scheduler),
                          strip.per_job ? "" : " (seeds)");
        html += util::fmt(
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"12\" class=\"striplight\"/>\n",
            xy(x(vmin)), xy(y), xy(std::max(1.0, x(vmax) - x(vmin))));
        html += util::fmt(
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"12\" class=\"stripdark\">"
            "<title>p50 {} · p95 {} · p99 {}</title></rect>\n",
            xy(x(p50)), xy(y), xy(std::max(1.0, x(p95) - x(p50))), num(p50), num(p95),
            num(p99));
        html += util::fmt(
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"stripp99\"/>\n",
            xy(x(p99)), xy(y - 2.0), xy(x(p99)), xy(y + 14.0));
      }
      const double axis_y = row_height * static_cast<double>(strips.size()) + 8.0;
      html += util::fmt("<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>\n",
                        xy(x0), xy(axis_y), xy(x1), xy(axis_y));
      html += util::fmt("<text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>\n", xy(x0),
                        xy(axis_y + 12.0), num(lo));
      html += util::fmt("<text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>\n", xy(x1),
                        xy(axis_y + 12.0), num(hi));
      html += "</svg>\n";
    }
  }
  html += "</section>\n";
  return html;
}

const char* kStyle = R"css(
  body { font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
         color: #1f2733; margin: 2rem auto; max-width: 1180px; padding: 0 1rem; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
  h3 { font-size: 0.95rem; margin-top: 1.2rem; }
  code, pre { font: 12px/1.45 ui-monospace, "SF Mono", Menlo, Consolas, monospace; }
  table { border-collapse: collapse; margin: 0.5rem 0; }
  th, td { text-align: left; padding: 2px 12px 2px 0; border-bottom: 1px solid #e3e7ee; }
  th { font-weight: 600; color: #53627a; }
  .meta, .note { color: #53627a; } .note { font-style: italic; }
  .legend span { display: inline-block; width: 12px; height: 12px; margin: 0 4px -1px 10px;
                 border-radius: 2px; }
  table.heatmap td.hm { text-align: center; min-width: 26px; padding: 2px 6px;
                        border: 1px solid #fff; border-radius: 3px;
                        font-size: 11px; color: #1f2733; }
  .st-ok { background: #a6d9a0; } .st-retried { background: #cfe8b8; }
  .st-timeout { background: #f1ce63; } .st-stalled { background: #f2a35c; }
  .st-crashed { background: #eb9193; } .st-skipped { background: #d6d3d0; }
  td.hm a { color: #1f2733; font-weight: 600; }
  svg { background: #fbfcfe; border: 1px solid #e3e7ee; border-radius: 4px; }
  svg.whisker { background: none; border: none; vertical-align: middle; }
  svg text { font: 10px system-ui, sans-serif; fill: #53627a; }
  svg .rowlabel { text-anchor: end; font-size: 10px; }
  svg .tick { text-anchor: middle; }
  svg .axis { stroke: #9aa5b5; stroke-width: 1; }
  .wline { stroke: #53627a; stroke-width: 1; }
  .wp50 { stroke: #b3252c; stroke-width: 1.5; }
  .wmean { fill: #2563b0; }
  .striplight { fill: #c4d7ef; } .stripdark { fill: #4e79a7; }
  .stripp99 { stroke: #b3252c; stroke-width: 1.5; }
)css";

}  // namespace

std::string render_sweep_report(const json::Value& sweep, SweepReportResult* result) {
  if (!sweep.is_object()) {
    throw std::runtime_error("sweep.json is not a JSON object");
  }
  const std::string schema = sweep.member_or("schema", "");
  if (schema != "elastisim-sweep-v2") {
    throw std::runtime_error(
        util::fmt("unexpected schema \"{}\" (want elastisim-sweep-v2 — regenerate the "
                  "sweep with a current build)",
                  schema));
  }
  const json::Value* cells = sweep.find("cells");
  if (cells == nullptr || !cells->is_array()) {
    throw std::runtime_error("sweep.json has no cells array");
  }
  const json::Value* grid = sweep.find("grid");
  if (grid == nullptr || !grid->is_object()) {
    throw std::runtime_error("sweep.json has no grid object");
  }

  const std::vector<std::string> platforms = string_array(*grid, "platforms");
  const std::vector<std::string> workloads = string_array(*grid, "workloads");
  const std::vector<std::string> schedulers = string_array(*grid, "schedulers");
  std::vector<std::string> seeds;
  if (const json::Value* seed_array = grid->find("seeds"); seed_array != nullptr &&
                                                           seed_array->is_array()) {
    for (const json::Value& seed : seed_array->as_array()) {
      seeds.push_back(std::to_string(seed.as_int()));
    }
  }
  if (seeds.empty()) seeds.push_back("1");

  // Heatmap rows in grid order; seeds are the innermost axis, so the cells
  // array chunks cleanly into rows of seeds.size() entries.
  std::vector<HeatRow> rows;
  std::size_t failed_cells = 0;
  const json::Array& cell_array = cells->as_array();
  for (std::size_t i = 0; i < cell_array.size(); ++i) {
    const json::Value& cell = cell_array[i];
    if (status_failed(cell.member_or("status", "skipped"))) ++failed_cells;
    const std::size_t column = i % seeds.size();
    if (column == 0) {
      HeatRow row;
      row.platform = cell.member_or("platform", "");
      row.workload = cell.member_or("workload", "");
      row.scheduler = cell.member_or("scheduler", "");
      row.cells.assign(seeds.size(), nullptr);
      rows.push_back(std::move(row));
    }
    rows.back().cells[column] = &cell;
  }

  SweepReportResult found;
  found.cells = cell_array.size();
  found.failed_cells = failed_cells;
  if (const json::Value* aggregates = sweep.find("aggregates")) {
    if (const json::Value* groups = aggregates->find("groups");
        groups != nullptr && groups->is_array()) {
      found.groups = groups->as_array().size();
    }
  }

  std::string html;
  html.reserve(1 << 16);
  html += "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  html += "<title>elastisim sweep report</title>\n";
  html += "<style>";
  html += kStyle;
  html += "</style>\n</head>\n<body>\n<h1>elastisim sweep report</h1>\n";
  html += summary_section(sweep);
  html += coverage_section(sweep);
  html += status_section(rows, seeds, failed_cells);
  html += compare_section(sweep, platforms, workloads, schedulers);
  html += slowdown_section(sweep, platforms, workloads, schedulers);
  html += "</body>\n</html>\n";

  found.html_bytes = html.size();
  if (result != nullptr) *result = found;
  return html;
}

SweepReportResult write_sweep_report(const std::string& sweep_dir,
                                     const std::string& html_path) {
  const std::string sweep_json = sweep_dir + "/sweep.json";
  json::Value sweep;
  try {
    sweep = json::parse_file(sweep_json);
  } catch (const std::exception& error) {
    throw std::runtime_error(util::fmt("cannot load {}: {}", sweep_json, error.what()));
  }
  SweepReportResult result;
  const std::string html = render_sweep_report(sweep, &result);
  const std::filesystem::path parent = std::filesystem::path(html_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(html_path, std::ios::binary);
  if (!out) throw std::runtime_error(util::fmt("cannot write {}", html_path));
  out << html;
  if (!out) throw std::runtime_error(util::fmt("write failed for {}", html_path));
  return result;
}

}  // namespace elastisim::stats
