// Shared by the throughput benches (bench_core_throughput,
// bench_cluster_consolidation): the wall-clock timer and the ordered JSON
// document their BENCH_*.json files are written from.
//
// Json: keys print in insertion order, each number with the printf
// precision its schema fixes (docs/BENCHMARKS.md), every string escaped,
// and a `null` where a measurement never ran. Gates read numbers back by
// path at full double precision: a gate sees the value, not its rounding.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pas::bench {

/// Wall-clock seconds `sim.run_until(horizon)` takes.
template <class Sim, class Time>
double run_timed(Sim& sim, Time horizon) {
  const auto start = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

class Json {
 public:
  /// An object printed on one line: `{"a": 1, "b": 2}`.
  [[nodiscard]] static Json one_line() {
    Json j;
    j.one_line_ = true;
    return j;
  }

  /// `v` printed with `%.{precision}f`.
  Json& num(std::string key, double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return scalar(std::move(key), buf, v);
  }
  template <std::integral T>
  Json& integer(std::string key, T v) {
    return scalar(std::move(key), std::to_string(v), static_cast<double>(v));
  }
  Json& str(std::string key, std::string_view v) {
    return scalar(std::move(key), quoted(v), std::nullopt);
  }
  /// Tri-state identity verdict: a comparison that never ran is null,
  /// never a vacuous true.
  Json& verdict(std::string key, std::optional<bool> v) {
    return scalar(std::move(key), v ? (*v ? "true" : "false") : "null", std::nullopt);
  }
  Json& null(std::string key) { return scalar(std::move(key), "null", std::nullopt); }
  Json& obj(std::string key, Json child) {
    child.key_ = std::move(key);
    fields_.push_back(std::move(child));
    return *this;
  }
  /// Appends `other`'s fields to this object, in order.
  Json& merge(Json other) {
    for (Json& f : other.fields_) fields_.push_back(std::move(f));
    return *this;
  }

  /// The number at a '.'-separated path ("scale.sim_per_wall"); nullopt
  /// when the path is absent or holds no number.
  [[nodiscard]] std::optional<double> number(std::string_view path) const {
    const Json* node = this;
    while (node) {
      const auto dot = path.find('.');
      const std::string_view head = path.substr(0, dot);
      const Json* next = nullptr;
      for (const Json& f : node->fields_)
        if (f.key_ == head) next = &f;
      if (dot == std::string_view::npos) return next ? next->value_ : std::nullopt;
      node = next;
      path.remove_prefix(dot + 1);
    }
    return std::nullopt;
  }

  /// Writes the document to `path` and says so on stdout; on failure
  /// prints `<program>: cannot write <path>` to stderr and returns false.
  [[nodiscard]] bool write(const std::string& path, const char* program) const {
    std::ofstream out{path};
    out << dump() << '\n';
    out.close();
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", program, path.c_str());
      return false;
    }
    std::printf("  written to %s\n", path.c_str());
    return true;
  }

  /// The fields as `  key: value` lines, for stdout.
  [[nodiscard]] std::string lines() const {
    std::string out;
    for (const Json& f : fields_)
      out.append("  ").append(f.key_).append(": ").append(f.dump(1)).append("\n");
    return out;
  }

  /// The object as JSON text, one field per line, indented two spaces per
  /// level below `depth`.
  [[nodiscard]] std::string dump(int depth = 0) const {
    if (scalar_) return text_;
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += one_line_ ? ", " : ",";
      if (!one_line_) out.append("\n").append(2 * static_cast<std::size_t>(depth + 1), ' ');
      out.append(quoted(fields_[i].key_)).append(": ").append(fields_[i].dump(depth + 1));
    }
    if (!one_line_) out.append("\n").append(2 * static_cast<std::size_t>(depth), ' ');
    return out + "}";
  }

 private:
  Json& scalar(std::string key, std::string text, std::optional<double> value) {
    Json f;
    f.key_ = std::move(key);
    f.text_ = std::move(text);
    f.value_ = value;
    f.scalar_ = true;
    fields_.push_back(std::move(f));
    return *this;
  }

  // `s` as a JSON string literal: quotes, backslashes and control
  // characters escaped.
  static std::string quoted(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + '"';
  }

  std::string key_;
  std::string text_;              // a scalar's JSON literal
  std::optional<double> value_;   // a number's unrounded value, for gates
  std::vector<Json> fields_;      // an object's fields, in insertion order
  bool scalar_ = false;
  bool one_line_ = false;
};

}  // namespace pas::bench
