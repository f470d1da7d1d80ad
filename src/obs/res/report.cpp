#include "curb/obs/res/report.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "curb/prof/json.hpp"

namespace curb::obs::res {

namespace {

void write_counters(const TagCounters& c, std::ostream& out) {
  out << "{\"allocs\":" << c.allocs << ",\"frees\":" << c.frees
      << ",\"alloc_bytes\":" << c.alloc_bytes
      << ",\"freed_bytes\":" << c.freed_bytes << ",\"live_bytes\":" << c.live_bytes
      << ",\"peak_live_bytes\":" << c.peak_live_bytes << "}";
}

TagCounters read_counters(const prof::JsonValue& object) {
  const auto u64 = [&object](const char* key) { return object.at(key).as_uint(key); };
  TagCounters c;
  c.allocs = u64("allocs");
  c.frees = u64("frees");
  c.alloc_bytes = u64("alloc_bytes");
  c.freed_bytes = u64("freed_bytes");
  c.live_bytes = u64("live_bytes");
  c.peak_live_bytes = u64("peak_live_bytes");
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
  MemSnapshot snap;
  snap.total = read_counters(root.at("total"));
  if (const prof::JsonValue* header = root.find("header_bytes"); header != nullptr) {
    snap.header_bytes = header->as_uint("header_bytes");
  }
  for (const prof::JsonValue& element : root.at("tags").as_array("tags")) {
    const std::string& name = element.at("tag").as_string("tag");
    bool known = false;
    for (std::size_t i = 0; i < kTagCount; ++i) {
      if (name == prof::to_string(static_cast<prof::ComponentTag>(i))) {
        snap.tags[i] = read_counters(element.at("counters"));
        known = true;
        break;
      }
    }
    if (!known) throw std::runtime_error{"mem profile: unknown tag \"" + name + "\""};
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

prof::BenchEntry bench_entry(const MemSnapshot& snap) {
  prof::BenchEntry entry;
  entry.bench = "mem";
  const auto add = [&entry](const std::string& name, const TagCounters& c) {
    entry.values[name + ".alloc_bytes"] = static_cast<double>(c.alloc_bytes);
    entry.values[name + ".allocs"] = static_cast<double>(c.allocs);
    entry.values[name + ".peak_live_bytes"] = static_cast<double>(c.peak_live_bytes);
  };
  add("total", snap.total);
  for (std::size_t i = 0; i < kTagCount; ++i) {
    add(prof::to_string(static_cast<prof::ComponentTag>(i)), snap.tags[i]);
  }
  return entry;
}

}  // namespace curb::obs::res
