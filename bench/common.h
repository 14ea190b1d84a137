// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary accepts:  --scale smoke|default|full
//   smoke   — seconds; sanity check that the harness runs (CI)
//   default — minutes for the whole suite; reproduces every figure's *shape*
//   full    — paper-scale grids where feasible (hours for some figures)
//
// Output: a human-readable markdown table followed by machine-readable CSV
// lines prefixed with "csv,". The trajectory suites (bench_*_suite) also
// accept --json PATH and merge their metrics into that flat JSON object
// through report().
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace ibbe::bench {

enum class Scale { smoke, standard, full };

/// The value of `--scale`; standard when the flag is absent. An unknown or
/// missing value prints the accepted ones and exits 2 rather than fall back
/// to the minutes-long default scale.
inline Scale parse_scale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--scale") continue;
    const std::string_view v = i + 1 < argc ? argv[i + 1] : "";
    if (v == "smoke") return Scale::smoke;
    if (v == "default") return Scale::standard;
    if (v == "full") return Scale::full;
    std::fprintf(stderr,
                 "%s: --scale needs one of: smoke, default, full (got '%.*s')\n",
                 argv[0], static_cast<int>(v.size()), v.data());
    std::exit(2);
  }
  return Scale::standard;
}

inline const char* scale_name(Scale s) {
  switch (s) {
    case Scale::smoke: return "smoke";
    case Scale::full: return "full";
    default: return "default";
  }
}

/// Accumulates rows and prints them as a markdown table + CSV block.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::printf("\n## %s\n\n", title_.c_str());
    auto print_row = [](const std::vector<std::string>& cells) {
      std::printf("|");
      for (const auto& c : cells) std::printf(" %s |", c.c_str());
      std::printf("\n");
    };
    print_row(columns_);
    std::printf("|");
    for (std::size_t i = 0; i < columns_.size(); ++i) std::printf("---|");
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
    std::printf("\n");
    for (const auto& r : rows_) {
      std::printf("csv");
      for (const auto& c : r) std::printf(",%s", c.c_str());
      std::printf("\n");
    }
  }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_seconds(double s) {
  char buf[64];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", s * 1e3);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof buf, "%.2f s", s);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f min", s / 60.0);
  }
  return buf;
}

inline std::string fmt_bytes(std::size_t b) {
  char buf[64];
  if (b < 1024) {
    std::snprintf(buf, sizeof buf, "%zu B", b);
  } else if (b < 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f MiB",
                  static_cast<double>(b) / (1024.0 * 1024.0));
  }
  return buf;
}

inline std::string fmt_double(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
};

/// Prints `metrics` as a `metric | value` table titled `title`. If the
/// command line carries `--json PATH`, also merges them into the flat JSON
/// object of numbers at PATH: keys already there (another suite's) are kept,
/// same-named keys are overwritten, a missing file is created. Suites pointed
/// at one file thereby build up one snapshot. Returns false, after saying
/// why, if PATH holds something else or cannot be written.
inline bool report(int argc, char** argv, const std::string& title,
                   const std::vector<Metric>& metrics) {
  Table table(title, {"metric", "value"});
  for (const auto& m : metrics) table.row({m.name, fmt_double(m.value, 2)});
  table.print();

  const char* path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) path = argv[i + 1];
  }
  if (path == nullptr) return true;

  std::vector<Metric> merged;
  if (std::ifstream in(path); in) {
    const std::string text((std::istreambuf_iterator<char>(in)), {});
    for (std::size_t pos = text.find('"'); pos != std::string::npos;
         pos = text.find('"', pos)) {
      const std::size_t end = text.find('"', pos + 1);
      const std::size_t colon = text.find(':', end);
      char* stop = nullptr;
      const double v = colon == std::string::npos
                           ? 0
                           : std::strtod(text.c_str() + colon + 1, &stop);
      if (stop == nullptr || stop == text.c_str() + colon + 1) {
        std::fprintf(stderr, "%s is not a flat JSON object of numbers\n", path);
        return false;
      }
      merged.push_back({text.substr(pos + 1, end - pos - 1), v});
      pos = static_cast<std::size_t>(stop - text.c_str());
    }
  }
  for (const auto& m : metrics) {
    auto it = std::find_if(merged.begin(), merged.end(),
                           [&](const Metric& e) { return e.name == m.name; });
    if (it == merged.end()) {
      merged.push_back(m);
    } else {
      it->value = m.value;
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < merged.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.2f%s\n", merged[i].name.c_str(),
                 merged[i].value, i + 1 < merged.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  const bool ok = std::fclose(f) == 0;
  std::printf("wrote %s\n", path);
  return ok;
}

}  // namespace ibbe::bench
