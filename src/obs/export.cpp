#include "curb/obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

namespace curb::obs {

std::string json_double(double v) {
  char buf[64];
  // Integral values print as integers ("10", not "1e+01" — %.1g round-trips
  // it, so the shortest-precision scan below would pick the latter).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  return buf;
}

namespace {

void write_attrs(std::ostream& out, const Attrs& attrs) {
  out << "{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(attrs[i].first) << "\":\"" << json_escape(attrs[i].second)
        << "\"";
  }
  out << "}";
}

void write_labels(std::ostream& out, const Labels& labels) {
  out << "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << json_escape(labels[i].first) << "\":\"" << json_escape(labels[i].second)
        << "\"";
  }
  out << "}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_spans_jsonl(const Tracer& tracer, std::ostream& out) {
  for (const SpanRecord& s : tracer.spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << json_escape(s.name) << "\",\"track\":\"" << json_escape(s.track)
        << "\",\"start_us\":" << s.start.as_micros() << ",\"end_us\":" << s.end.as_micros()
        << ",\"open\":" << (s.open ? "true" : "false") << ",\"attrs\":";
    write_attrs(out, s.attrs);
    out << "}\n";
  }
}

namespace {

/// Minimal parser for the exact JSONL subset write_spans_jsonl emits.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_{line} {}

  SpanRecord parse() {
    SpanRecord record;
    expect('{');
    bool first = true;
    while (peek() != '}') {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "id") record.id = parse_uint();
      else if (key == "parent") record.parent = parse_uint();
      else if (key == "name") record.name = parse_string();
      else if (key == "track") record.track = parse_string();
      else if (key == "start_us") record.start = sim::SimTime::micros(parse_int());
      else if (key == "end_us") record.end = sim::SimTime::micros(parse_int());
      else if (key == "open") record.open = parse_bool();
      else if (key == "attrs") record.attrs = parse_attrs();
      else throw std::runtime_error{"parse_spans_jsonl: unknown key " + key};
    }
    expect('}');
    return record;
  }

 private:
  [[nodiscard]] char peek() const {
    if (pos_ >= s_.size()) throw std::runtime_error{"parse_spans_jsonl: truncated line"};
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error{"parse_spans_jsonl: malformed line"};
    ++pos_;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) throw std::runtime_error{"bad \\u escape"};
            try {
              c = static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
            } catch (const std::exception&) {
              throw std::runtime_error{"parse_spans_jsonl: bad \\u escape"};
            }
            pos_ += 4;
            break;
          }
          default: throw std::runtime_error{"parse_spans_jsonl: bad escape"};
        }
      }
      out += c;
    }
    ++pos_;  // closing quote
    return out;
  }
  std::int64_t parse_int() {
    std::size_t used = 0;
    std::int64_t v = 0;
    try {
      v = std::stoll(s_.substr(pos_), &used);
    } catch (const std::exception&) {
      throw std::runtime_error{"parse_spans_jsonl: bad number"};
    }
    pos_ += used;
    return v;
  }
  std::uint64_t parse_uint() { return static_cast<std::uint64_t>(parse_int()); }
  bool parse_bool() {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    throw std::runtime_error{"parse_spans_jsonl: bad bool"};
  }
  Attrs parse_attrs() {
    Attrs attrs;
    expect('{');
    bool first = true;
    while (peek() != '}') {
      if (!first) expect(',');
      first = false;
      std::string key = parse_string();
      expect(':');
      std::string value = parse_string();
      attrs.emplace_back(std::move(key), std::move(value));
    }
    expect('}');
    return attrs;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<SpanRecord> parse_spans_jsonl(std::istream& in) {
  std::vector<SpanRecord> spans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    spans.push_back(LineParser{line}.parse());
  }
  return spans;
}

void write_chrome_trace(const Tracer& tracer, const MetricsRegistry* registry,
                        std::ostream& out) {
  // tid per track, in first-use order; clamp open spans to the trace end.
  sim::SimTime last = sim::SimTime::zero();
  for (const SpanRecord& s : tracer.spans()) {
    last = std::max(last, std::max(s.start, s.end));
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto& tracks = tracer.tracks();
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"curb\"}}";
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    out << ",{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json_escape(tracks[t])
        << "\"}}";
  }
  first = false;
  std::map<std::string, std::size_t> tids;
  for (std::size_t t = 0; t < tracks.size(); ++t) tids.emplace(tracks[t], t);
  for (const SpanRecord& s : tracer.spans()) {
    const std::size_t tid = tids.at(s.track);
    const sim::SimTime end = s.open ? last : s.end;
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"name\":\""
        << json_escape(s.name) << "\",\"cat\":\"curb\",\"ts\":" << s.start.as_micros()
        << ",\"dur\":" << (end - s.start).as_micros() << ",\"args\":{\"span_id\":\""
        << s.id << "\"";
    if (s.open) out << ",\"open\":\"true\"";
    for (const auto& [k, v] : s.attrs) {
      out << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
    }
    out << "}}";
  }
  if (registry != nullptr) {
    // Counter/gauge series as "C" events at the trace-end timestamp: the
    // registry snapshots final values (not time series), so each renders as
    // a one-sample counter track next to the spans.
    for (const auto& [key, m] : registry->metrics()) {
      std::string value;
      switch (m.kind) {
        case MetricsRegistry::Kind::kCounter:
          value = std::to_string(m.counter->value());
          break;
        case MetricsRegistry::Kind::kGauge:
          value = json_double(m.gauge->value());
          break;
        case MetricsRegistry::Kind::kHistogram:
          continue;  // histograms already export via write_metrics_json
      }
      if (!first) out << ",";
      first = false;
      out << "{\"ph\":\"C\",\"pid\":0,\"name\":\"" << json_escape(key)
          << "\",\"ts\":" << last.as_micros() << ",\"args\":{\"value\":" << value
          << "}}";
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void write_metrics_json(const MetricsRegistry& registry, std::ostream& out) {
  out << "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, m] : registry.metrics()) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"series\":\"" << json_escape(key) << "\",\"name\":\""
        << json_escape(m.name) << "\",\"labels\":";
    write_labels(out, m.labels);
    switch (m.kind) {
      case MetricsRegistry::Kind::kCounter:
        out << ",\"kind\":\"counter\",\"value\":" << m.counter->value();
        break;
      case MetricsRegistry::Kind::kGauge:
        out << ",\"kind\":\"gauge\",\"value\":" << json_double(m.gauge->value());
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        out << ",\"kind\":\"histogram\",\"count\":" << h.count()
            << ",\"sum\":" << json_double(h.sum()) << ",\"min\":" << json_double(h.min())
            << ",\"max\":" << json_double(h.max())
            << ",\"mean\":" << json_double(h.mean())
            << ",\"p50\":" << json_double(h.percentile(50))
            << ",\"p90\":" << json_double(h.percentile(90))
            << ",\"p99\":" << json_double(h.percentile(99)) << ",\"buckets\":[";
        bool first_bucket = true;
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          if (h.count_at(i) == 0) continue;
          if (!first_bucket) out << ",";
          first_bucket = false;
          out << "{\"le\":";
          if (i + 1 == h.bucket_count()) {
            out << "\"+inf\"";
          } else {
            out << json_double(h.upper_bound(i));
          }
          out << ",\"count\":" << h.count_at(i) << "}";
        }
        out << "]";
        break;
      }
    }
    out << "}";
  }
  out << "\n]}\n";
}

void write_metrics_csv(const MetricsRegistry& registry, std::ostream& out) {
  out << "series,kind,count,sum,min,max,mean,p50,p90,p99,value\n";
  for (const auto& [key, m] : registry.metrics()) {
    // RFC 4180: quotes inside a quoted field are doubled (label values carry
    // literal quotes, e.g. net.delay_us{category="AGREE"}).
    out << '"';
    for (const char c : key) {
      if (c == '"') out << '"';
      out << c;
    }
    out << "\",";
    switch (m.kind) {
      case MetricsRegistry::Kind::kCounter:
        out << "counter,,,,,,,,," << m.counter->value() << "\n";
        break;
      case MetricsRegistry::Kind::kGauge:
        out << "gauge,,,,,,,,," << json_double(m.gauge->value()) << "\n";
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const Histogram& h = *m.histogram;
        out << "histogram," << h.count() << "," << json_double(h.sum()) << ","
            << json_double(h.min()) << "," << json_double(h.max()) << ","
            << json_double(h.mean()) << "," << json_double(h.percentile(50)) << ","
            << json_double(h.percentile(90)) << "," << json_double(h.percentile(99))
            << ",\n";
        break;
      }
    }
  }
}

}  // namespace curb::obs
