// Minimal JSON emission shared by the diagd stats endpoint and perfbench.
//
// JsonObject renders one flat (or manually nested via raw()) object; values
// are the types the callers actually emit.  Doubles use a fixed precision so
// output stays diff-stable across runs, and strings pass through a minimal
// escaper (quotes, backslashes, control characters) so scheme names and
// error messages cannot break the framing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fastdiag::util {

/// Escapes @p value for use inside a JSON string literal.
inline std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class JsonObject {
 public:
  JsonObject& field(const std::string& key, const std::string& value) {
    return raw(key, "\"" + json_escape(value) + "\"");
  }
  JsonObject& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonObject& field(const std::string& key, double value,
                    int precision = 4) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
    return raw(key, buffer);
  }
  JsonObject& field(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& field(const std::string& key, int value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  /// Nested object / array: @p value is already-rendered JSON.
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",");
    body_ += "\"" + json_escape(key) + "\":" + value;
    return *this;
  }

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Renders a JSON array from already-rendered element strings.
inline std::string json_array(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    out += (i != 0 ? "," : "") + elements[i];
  }
  return out + "]";
}

}  // namespace fastdiag::util
