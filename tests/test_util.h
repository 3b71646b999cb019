#ifndef HCD_TESTS_TEST_UTIL_H_
#define HCD_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"

namespace hcd::testing {

/// Minimal strict JSON value + recursive-descent parser, enough to
/// round-trip the JSON the library emits (telemetry reports, Chrome traces,
/// metrics dumps) without an external dependency. Numbers are doubles;
/// objects preserve insertion order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member with this key, or null when absent (objects only).
  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace internal {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') return true;
      if (static_cast<unsigned char>(ch) < 0x20) return false;  // raw control
      if (ch != '\\') {
        *out += ch;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return false;
          }
          // The library only emits \u00xx (control characters); decode the
          // single-byte range and reject what we never produce.
          if (code > 0x7f) return false;
          *out += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char ch = text_[pos_];
    if (ch == 'n') {
      out->type = JsonValue::Type::kNull;
      return Literal("null");
    }
    if (ch == 't' || ch == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = ch == 't';
      return Literal(ch == 't' ? "true" : "false");
    }
    if (ch == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (ch == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue item;
        if (!ParseValue(&item)) return false;
        out->array.push_back(std::move(item));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (ch == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    // Number: delegate validation of the tail to strtod, but check the
    // leading character so "inf"/"nan" are rejected.
    if (ch != '-' && (ch < '0' || ch > '9')) return false;
    out->type = JsonValue::Type::kNumber;
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace internal

/// Parses `text` as one strict JSON document; false on any syntax error or
/// trailing content.
inline bool ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return internal::JsonParser(text).Parse(out);
}

/// A named generated graph for parameterized sweeps.
struct GraphCase {
  std::string name;
  Graph graph;
};

/// A diverse set of small-to-medium graphs exercising all structural
/// regimes: degenerate shapes, random (uniform + skewed), and planted
/// hierarchies with known HCDs.
inline std::vector<GraphCase> StandardGraphSuite() {
  std::vector<GraphCase> cases;
  cases.push_back({"empty", Graph()});
  {
    GraphBuilder b;
    cases.push_back({"isolated_only", std::move(b).Build(5)});
  }
  cases.push_back({"single_edge", PathGraph(2)});
  cases.push_back({"path16", PathGraph(16)});
  cases.push_back({"cycle9", CycleGraph(9)});
  cases.push_back({"star12", StarGraph(12)});
  cases.push_back({"k6", CompleteGraph(6)});
  cases.push_back({"paper_fig1", PaperFigure1Graph()});
  cases.push_back({"ring_of_cliques", RingOfCliques(5, 6)});
  cases.push_back({"gnm_sparse", ErdosRenyiGnm(300, 500, 1)});
  cases.push_back({"gnm_dense", ErdosRenyiGnm(120, 2500, 2)});
  cases.push_back({"gnp", ErdosRenyiGnp(90, 0.12, 3)});
  cases.push_back({"ba", BarabasiAlbert(400, 4, 4)});
  cases.push_back({"rmat", RMatGraph500(9, 3000, 5)});
  cases.push_back({"onion", PlantedHierarchy(OnionSpec(7, 10), 6)});
  cases.push_back(
      {"branching", PlantedHierarchy(BranchingSpec(2, 10, 2, 2, 6), 7)});
  cases.push_back({"forest2", PlantedForest({OnionSpec(4, 6), OnionSpec(6, 5)},
                                            8)});
  // Disconnected mixture with isolated vertices: K5 + path + 3 isolated.
  {
    GraphBuilder b;
    for (VertexId u = 0; u < 5; ++u) {
      for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
    }
    for (VertexId v = 5; v < 9; ++v) b.AddEdge(v, v + 1);
    cases.push_back({"mixture", std::move(b).Build(13)});
  }
  return cases;
}

/// Reference for the level argmax tables: the level-filtered scan the
/// server ran per query before them. Best score among nodes of level >= k,
/// the first node id winning ties; kInvalidNode when no node reaches k.
inline TreeNodeId ScanBestAtLeast(const FlatHcdIndex& flat,
                                  std::span<const double> scores, uint32_t k) {
  TreeNodeId best = kInvalidNode;
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    if (flat.Level(t) < k) continue;
    if (best == kInvalidNode || scores[t] > scores[best]) best = t;
  }
  return best;
}

/// Highest node level of `flat` (0 when it has no nodes).
inline uint32_t MaxLevel(const FlatHcdIndex& flat) {
  return flat.NumLevelGroups() == 0 ? 0 : flat.Level(flat.LevelGroup(0)[0]);
}

/// IEEE-754 bit pattern, for score comparisons that must be bit-exact.
inline uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Seeds for randomized property sweeps.
inline std::vector<uint64_t> SweepSeeds() { return {11, 22, 33, 44, 55}; }

}  // namespace hcd::testing

#endif  // HCD_TESTS_TEST_UTIL_H_
