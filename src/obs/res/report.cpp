#include "curb/obs/res/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "curb/prof/bench_diff.hpp"  // JsonValue / parse_json

namespace curb::obs::res {

namespace {

void write_counters(const TagCounters& c, std::ostream& out) {
  out << "{\"allocs\":" << c.allocs << ",\"frees\":" << c.frees
      << ",\"alloc_bytes\":" << c.alloc_bytes
      << ",\"freed_bytes\":" << c.freed_bytes << ",\"live_bytes\":" << c.live_bytes
      << ",\"peak_live_bytes\":" << c.peak_live_bytes << "}";
}

std::uint64_t read_u64(const prof::JsonValue& object, const char* key) {
  const prof::JsonValue* member = object.find(key);
  if (member == nullptr || member->type != prof::JsonValue::Type::kNumber) {
    throw std::runtime_error{std::string{"mem profile: missing counter \""} + key +
                             "\""};
  }
  return static_cast<std::uint64_t>(member->number);
}

TagCounters read_counters(const prof::JsonValue& object) {
  TagCounters c;
  c.allocs = read_u64(object, "allocs");
  c.frees = read_u64(object, "frees");
  c.alloc_bytes = read_u64(object, "alloc_bytes");
  c.freed_bytes = read_u64(object, "freed_bytes");
  c.live_bytes = read_u64(object, "live_bytes");
  c.peak_live_bytes = read_u64(object, "peak_live_bytes");
  return c;
}

bool all_zero(const TagCounters& c) {
  return c.allocs == 0 && c.frees == 0 && c.alloc_bytes == 0 && c.freed_bytes == 0 &&
         c.live_bytes == 0 && c.peak_live_bytes == 0;
}

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

void write_mem_profile_json(const MemSnapshot& snap, std::ostream& out) {
  out << "{\n  \"total\": ";
  write_counters(snap.total, out);
  out << ",\n  \"header_bytes\": " << snap.header_bytes << ",\n  \"tags\": [";
  bool first = true;
  for (std::size_t i = 0; i < kTagCount; ++i) {
    if (all_zero(snap.tags[i])) continue;
    out << (first ? "" : ",") << "\n    {\"tag\": \""
        << prof::to_string(static_cast<prof::ComponentTag>(i)) << "\", \"counters\": ";
    write_counters(snap.tags[i], out);
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
}

MemSnapshot parse_mem_profile_json(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const prof::JsonValue root = prof::parse_json(buffer.str());
  if (root.type != prof::JsonValue::Type::kObject) {
    throw std::runtime_error{"mem profile: expected a top-level object"};
  }
  MemSnapshot snap;
  const prof::JsonValue* total = root.find("total");
  if (total == nullptr) throw std::runtime_error{"mem profile: missing \"total\""};
  snap.total = read_counters(*total);
  if (const prof::JsonValue* header = root.find("header_bytes");
      header != nullptr && header->type == prof::JsonValue::Type::kNumber) {
    snap.header_bytes = static_cast<std::uint64_t>(header->number);
  }
  const prof::JsonValue* tags = root.find("tags");
  if (tags == nullptr || tags->type != prof::JsonValue::Type::kArray) {
    throw std::runtime_error{"mem profile: missing \"tags\" array"};
  }
  for (const prof::JsonValue& element : tags->array) {
    const prof::JsonValue* name = element.find("tag");
    const prof::JsonValue* counters = element.find("counters");
    if (name == nullptr || name->type != prof::JsonValue::Type::kString ||
        counters == nullptr) {
      throw std::runtime_error{"mem profile: malformed tag entry"};
    }
    bool known = false;
    for (std::size_t i = 0; i < kTagCount; ++i) {
      if (name->str == prof::to_string(static_cast<prof::ComponentTag>(i))) {
        snap.tags[i] = read_counters(*counters);
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::runtime_error{"mem profile: unknown tag \"" + name->str + "\""};
    }
  }
  return snap;
}

void write_mem_report(const MemSnapshot& snap, std::ostream& out) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "memory profile: %.2f MiB allocated in %llu allocations, peak live "
                "%.2f MiB\n",
                mib(snap.total.alloc_bytes),
                static_cast<unsigned long long>(snap.total.allocs),
                mib(snap.total.peak_live_bytes));
  out << buf;
  if (snap.total.alloc_bytes == 0) {
    out << "(empty profile — run with CURB_MEM_ACCOUNT=1)\n";
    return;
  }
  std::snprintf(buf, sizeof buf,
                "attribution coverage: %.2f%% of allocated bytes tagged, header "
                "overhead %.2f MiB\n\n",
                100.0 * static_cast<double>(snap.tagged_alloc_bytes()) /
                    static_cast<double>(snap.total.alloc_bytes),
                mib(snap.header_bytes));
  out << buf;

  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < kTagCount; ++i) {
    if (!all_zero(snap.tags[i])) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return snap.tags[a].alloc_bytes > snap.tags[b].alloc_bytes;
  });

  out << "tag            alloc MiB      allocs   live MiB   peak MiB   share\n";
  for (const std::size_t i : order) {
    const TagCounters& c = snap.tags[i];
    std::snprintf(buf, sizeof buf, "%-12s %11.2f %11llu %10.2f %10.2f %6.2f%%\n",
                  prof::to_string(static_cast<prof::ComponentTag>(i)),
                  mib(c.alloc_bytes), static_cast<unsigned long long>(c.allocs),
                  mib(c.live_bytes), mib(c.peak_live_bytes),
                  100.0 * static_cast<double>(c.alloc_bytes) /
                      static_cast<double>(snap.total.alloc_bytes));
    out << buf;
  }
}

void write_mem_collapsed(const prof::Profiler& profiler,
                         const std::vector<FrameAlloc>& frames, std::ostream& out) {
  const auto& nodes = profiler.nodes();
  const std::size_t count = std::min(frames.size(), nodes.size());
  for (std::size_t i = 1; i < count; ++i) {
    if (frames[i].bytes == 0) continue;
    // Rebuild the root-to-frame path; labels reuse the collapsed-stack
    // sanitization rules (';'/whitespace -> '_') of the time exporter.
    std::vector<std::uint32_t> path;
    for (std::uint32_t n = static_cast<std::uint32_t>(i); n != 0; n = nodes[n].parent) {
      path.push_back(n);
    }
    for (std::size_t p = path.size(); p-- > 0;) {
      std::string frame = nodes[path[p]].label;
      if (frame.empty()) frame = "(anonymous)";
      for (char& c : frame) {
        if (c == ';' || c == ' ' || c == '\t' || c == '\n') c = '_';
      }
      out << frame << (p == 0 ? "" : ";");
    }
    out << " " << frames[i].bytes << "\n";
  }
}

std::size_t MemDiffResult::regressions() const {
  return static_cast<std::size_t>(
      std::count_if(deltas.begin(), deltas.end(),
                    [](const MemDelta& d) { return d.regressed; }));
}

MemDiffResult mem_diff(const MemSnapshot& base, const MemSnapshot& candidate,
                       const MemDiffOptions& options) {
  MemDiffResult result;
  const auto compare = [&](const std::string& name, std::uint64_t b,
                           std::uint64_t c) {
    ++result.metrics_compared;
    const double delta = static_cast<double>(c) - static_cast<double>(b);
    if (std::abs(delta) <= options.floor) return;
    const double denom = b != 0 ? static_cast<double>(b) : 1.0;
    const double delta_pct = 100.0 * delta / denom;
    if (std::abs(delta_pct) <= options.threshold_pct) return;
    MemDelta d;
    d.metric = name;
    d.base = b;
    d.candidate = c;
    d.delta_pct = delta_pct;
    d.regressed = delta > 0 && !options.warn_only;
    result.deltas.push_back(std::move(d));
  };
  const auto compare_tag = [&](const std::string& name, const TagCounters& b,
                               const TagCounters& c) {
    compare(name + ".alloc_bytes", b.alloc_bytes, c.alloc_bytes);
    compare(name + ".allocs", b.allocs, c.allocs);
    compare(name + ".peak_live_bytes", b.peak_live_bytes, c.peak_live_bytes);
  };
  compare_tag("total", base.total, candidate.total);
  for (std::size_t i = 0; i < kTagCount; ++i) {
    compare_tag(prof::to_string(static_cast<prof::ComponentTag>(i)), base.tags[i],
                candidate.tags[i]);
  }
  return result;
}

void write_mem_diff_text(const MemDiffResult& diff, std::ostream& out) {
  out << "mem-diff: " << diff.metrics_compared << " metrics compared\n";
  char buf[96];
  for (const MemDelta& d : diff.deltas) {
    std::snprintf(buf, sizeof buf, "%+.1f%% (%llu -> %llu)", d.delta_pct,
                  static_cast<unsigned long long>(d.base),
                  static_cast<unsigned long long>(d.candidate));
    out << "  " << (d.regressed ? "REGRESSED" : d.delta_pct > 0 ? "warn" : "improved")
        << "  " << d.metric << "  " << buf << "\n";
  }
  out << "regressions: " << diff.regressions() << "\n";
}

}  // namespace curb::obs::res
