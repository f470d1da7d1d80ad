#include "curb/obs/export.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

#include "curb/prof/json.hpp"

namespace curb::obs {

using prof::json_double;
using prof::json_escape;

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

SpanRecord span_from_json(const prof::JsonValue& json) {
  SpanRecord record;
  for (const auto& [key, value] : json.as_object("span")) {
    if (key == "id") record.id = value.as_uint(key);
    else if (key == "parent") record.parent = value.as_uint(key);
    else if (key == "name") record.name = value.as_string(key);
    else if (key == "track") record.track = value.as_string(key);
    else if (key == "start_us") record.start = sim::SimTime::micros(value.as_int(key));
    else if (key == "end_us") record.end = sim::SimTime::micros(value.as_int(key));
    else if (key == "open") record.open = value.as_bool(key);
    else if (key == "attrs") {
      for (const auto& [name, attr] : value.as_object(key)) {
        record.attrs.emplace_back(name, attr.as_string(name));
      }
    } else throw std::runtime_error{"parse_spans_jsonl: unknown key " + key};
  }
  return record;
}

}  // namespace

std::vector<SpanRecord> parse_spans_jsonl(std::istream& in) {
  std::vector<SpanRecord> spans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    spans.push_back(span_from_json(prof::parse_json(line)));
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
