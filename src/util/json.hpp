// The one JSON module: a minimal reader for the scenario layer's
// committable artifacts (fault-plan repros, fuzz cases), the `escape` every
// JSON writer uses, and the flat document the benches write as
// BENCH_<name>.json. Header-only and dependency-free.
//
// The reader is deliberately small: objects, arrays, strings (with \" \\ \n
// escapes), 64-bit integers, doubles, booleans and null — exactly what
// "hades-plan v1" / "hades-fuzz-case v1" documents use. Integers are kept
// as int64 (dates and ppm rates must round-trip exactly; doubles only
// carry what a double carried on the way out). Throws
// hades::invariant_violation on malformed input with a byte offset.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hades::json {

struct value {
  enum class kind { null, boolean, integer, real, string, array, object };
  kind k = kind::null;
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<value> arr;
  std::vector<std::pair<std::string, value>> obj;

  [[nodiscard]] const value* find(std::string_view key) const {
    for (const auto& [name, v] : obj)
      if (name == key) return &v;
    return nullptr;
  }
  /// Member lookup that throws when absent — parse errors should name the
  /// missing field, not segfault three calls later.
  [[nodiscard]] const value& at(std::string_view key) const {
    const value* v = find(key);
    require(v != nullptr, "json: missing member \"" + std::string(key) + '"');
    return *v;
  }
  [[nodiscard]] std::int64_t as_int() const {
    require(k == kind::integer, "json: expected integer");
    return i;
  }
  [[nodiscard]] double as_double() const {
    if (k == kind::integer) return static_cast<double>(i);
    require(k == kind::real, "json: expected number");
    return d;
  }
  [[nodiscard]] const std::string& as_string() const {
    require(k == kind::string, "json: expected string");
    return s;
  }
  [[nodiscard]] bool as_bool() const {
    require(k == kind::boolean, "json: expected boolean");
    return b;
  }
};

class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  value parse() {
    value v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), err("trailing garbage"));
    return v;
  }

 private:
  [[nodiscard]] std::string err(const char* what) const {
    return std::string("json: ") + what + " at byte " + std::to_string(pos_);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    skip_ws();
    require(pos_ < text_.size(), err("unexpected end"));
    return text_[pos_];
  }
  void expect(char c) {
    require(peek() == c, err("unexpected character"));
    ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void literal(std::string_view word) {
    require(text_.substr(pos_, word.size()) == word, err("bad literal"));
    pos_ += word.size();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        require(pos_ < text_.size(), err("unterminated escape"));
        const char e = text_[pos_++];
        if (e == 'n')
          out += '\n';
        else if (e == '"' || e == '\\' || e == '/')
          out += e;
        else if (e == 't')
          out += '\t';
        else
          require(false, err("unsupported escape"));
      } else {
        out += c;
      }
    }
  }

  value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    const std::string tok(text_.substr(start, pos_ - start));
    require(!tok.empty() && tok != "-", err("bad number"));
    value v;
    if (tok.find_first_of(".eE") == std::string::npos) {
      v.k = value::kind::integer;
      try {
        v.i = std::stoll(tok);
      } catch (const std::exception&) {
        require(false, err("integer out of range"));
      }
    } else {
      v.k = value::kind::real;
      try {
        v.d = std::stod(tok);
      } catch (const std::exception&) {
        require(false, err("bad real"));
      }
    }
    return v;
  }

  value parse_value() {
    const char c = peek();
    value v;
    switch (c) {
      case '{': {
        ++pos_;
        v.k = value::kind::object;
        if (consume('}')) return v;
        do {
          std::string key = (skip_ws(), parse_string());
          expect(':');
          v.obj.emplace_back(std::move(key), parse_value());
        } while (consume(','));
        expect('}');
        return v;
      }
      case '[': {
        ++pos_;
        v.k = value::kind::array;
        if (consume(']')) return v;
        do {
          v.arr.push_back(parse_value());
        } while (consume(','));
        expect(']');
        return v;
      }
      case '"':
        v.k = value::kind::string;
        v.s = parse_string();
        return v;
      case 't':
        literal("true");
        v.k = value::kind::boolean;
        v.b = true;
        return v;
      case 'f':
        literal("false");
        v.k = value::kind::boolean;
        v.b = false;
        return v;
      case 'n':
        literal("null");
        v.k = value::kind::null;
        return v;
      default:
        return parse_number();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

inline value parse(std::string_view text) { return parser(text).parse(); }

inline std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// A flat JSON object written in insertion order: numbers and escaped
/// strings only, one key per line. The benches write their
/// machine-readable BENCH_<name>.json with it.
class doc {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    fields_.emplace_back(key, buf);
  }
  void num(const std::string& key, std::uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, '"' + escape(v) + '"');
  }

  /// Write the document to `path`. Returns false (and says so on stderr)
  /// when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
      std::fprintf(f, "{\n");
      for (std::size_t i = 0; i < fields_.size(); ++i)
        std::fprintf(f, "  \"%s\": %s%s\n", escape(fields_[i].first).c_str(),
                     fields_[i].second.c_str(),
                     i + 1 < fields_.size() ? "," : "");
      std::fprintf(f, "}\n");
      ok = std::fclose(f) == 0;
    }
    if (!ok) std::fprintf(stderr, "json: cannot write %s\n", path.c_str());
    return ok;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace hades::json
