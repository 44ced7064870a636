// Small fixed-width table printer shared by the benchmark binaries: every
// bench regenerates its experiment's table (the experiment is described at
// the top of each bench_*.cpp) before running the google-benchmark
// microbenchmarks.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

namespace hades::bench {

class table {
 public:
  explicit table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print(const std::string& title) const {
    std::printf("\n== %s ==\n", title.c_str());
    std::vector<std::size_t> w(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < w.size(); ++c)
        if (r[c].size() > w[c]) w[c] = r[c].size();
    auto line = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < headers_.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(w[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      std::printf("\n");
    };
    line(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c)
      rule += std::string(w[c], '-') + "  ";
    std::printf("%s\n", rule.c_str());
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int digits = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}
inline std::string pct(double v) { return fmt(100.0 * v, 1) + "%"; }

}  // namespace hades::bench
