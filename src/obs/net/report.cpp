#include "curb/obs/net/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "curb/obs/export.hpp"

namespace curb::obs::net {

namespace {

double link_util(const LinkEntry& link, const LinkReportOptions& options) {
  if (options.elapsed_s <= 0.0 || options.bandwidth_bps <= 0.0) return 0.0;
  return static_cast<double>(link.bytes) * 8.0 / options.bandwidth_bps /
         options.elapsed_s;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

void write_link_matrix_json(const LinkStats& stats, const NodeNameFn& name,
                            const LinkReportOptions& options, std::ostream& out) {
  out << "{\"total\":{\"msgs\":" << stats.total_msgs()
      << ",\"bytes\":" << stats.total_bytes() << ",\"dups\":" << stats.total_dups()
      << ",\"drops\":" << stats.total_drops()
      << ",\"links\":" << stats.links().size()
      << ",\"bandwidth_bps\":" << json_double(options.bandwidth_bps)
      << ",\"elapsed_s\":" << json_double(options.elapsed_s) << "}";
  out << ",\"categories\":{";
  bool first = true;
  for (const auto& [category, totals] : stats.categories()) {
    out << (first ? "" : ",") << "\"" << json_escape(category)
        << "\":{\"msgs\":" << totals.msgs << ",\"bytes\":" << totals.bytes
        << ",\"dups\":" << totals.dups << "}";
    first = false;
  }
  out << "},\"links\":[";
  first = true;
  for (const auto& [key, link] : stats.links()) {
    out << (first ? "" : ",") << "{\"src\":" << key.src << ",\"src_name\":\""
        << json_escape(name(key.src)) << "\",\"dst\":" << key.dst
        << ",\"dst_name\":\"" << json_escape(name(key.dst))
        << "\",\"msgs\":" << link.msgs << ",\"bytes\":" << link.bytes
        << ",\"dups\":" << link.dups << ",\"drops\":" << link.drops
        << ",\"util\":" << json_double(link_util(link, options))
        << ",\"by_category\":{";
    bool first_cat = true;
    for (const auto& [category, count] : link.by_category) {
      out << (first_cat ? "" : ",") << "\"" << json_escape(category)
          << "\":" << count;
      first_cat = false;
    }
    out << "}}";
    first = false;
  }
  out << "]}\n";
}

void write_link_matrix_csv(const LinkStats& stats, const NodeNameFn& name,
                           const LinkReportOptions& options, std::ostream& out) {
  out << "src,src_name,dst,dst_name,msgs,bytes,dups,drops,util\n";
  for (const auto& [key, link] : stats.links()) {
    out << key.src << "," << name(key.src) << "," << key.dst << ","
        << name(key.dst) << "," << link.msgs << "," << link.bytes << ","
        << link.dups << "," << link.drops << ","
        << fmt(link_util(link, options)) << "\n";
  }
}

void write_link_dot(const LinkStats& stats, const NodeNameFn& name,
                    const LinkReportOptions& options, std::ostream& out) {
  std::uint64_t max_bytes = 0;
  for (const auto& [key, link] : stats.links()) {
    max_bytes = std::max(max_bytes, link.bytes);
  }
  out << "digraph curb_links {\n"
      << "  // per-link control-plane load; edge heat = bytes / hottest link\n"
      << "  graph [overlap=false, splines=true];\n"
      << "  node [shape=ellipse, fontsize=10];\n";
  for (const auto& [key, link] : stats.links()) {
    const double heat =
        max_bytes == 0 ? 0.0
                       : static_cast<double>(link.bytes) /
                             static_cast<double>(max_bytes);
    char attrs[160];
    // HSV red ramp: saturation tracks heat so cool links render near-gray.
    std::snprintf(attrs, sizeof attrs,
                  "penwidth=%.2f, color=\"0.000 %.3f 0.800\"",
                  0.5 + 4.0 * heat, heat);
    out << "  \"" << name(key.src) << "\" -> \"" << name(key.dst) << "\" [label=\""
        << link.msgs << " msg / " << link.bytes << " B";
    if (options.elapsed_s > 0.0) out << " / " << fmt(link_util(link, options)) << " util";
    out << "\", " << attrs << "];\n";
  }
  out << "}\n";
}

void write_complexity_text(const std::vector<RoundComplexity>& rounds,
                           std::ostream& out) {
  out << "Theorem 1 message-complexity audit (" << rounds.size() << " round(s))\n";
  if (rounds.empty()) {
    out << "  no round_complexity instants in this trace — run with\n"
           "  observability on (curb-sim --trace-jsonl, or CURB_TRACE_JSONL\n"
           "  for the benches)\n";
    return;
  }
  char row[256];
  std::snprintf(row, sizeof row,
                "  %-6s%-8s%-10s%-5s%-5s%-5s%-5s%-5s%-5s%-10s%-10s%-8s%s\n",
                "round", "kind", "engine", "R", "B", "c", "g", "k", "N",
                "measured", "bound", "ratio", "status");
  out << row;
  std::uint64_t measured_sum = 0;
  std::uint64_t bound_sum = 0;
  std::uint64_t request_sum = 0;
  std::size_t violations = 0;
  struct Phase {
    const char* name;
    std::uint64_t PhasePrediction::* field;
  };
  static constexpr Phase kPhases[] = {
      {"PKT-IN", &PhasePrediction::pkt_in},
      {"intra-pbft", &PhasePrediction::intra_pbft},
      {"AGREE", &PhasePrediction::agree},
      {"final-pbft", &PhasePrediction::final_pbft},
      {"FINAL-AGREE", &PhasePrediction::final_agree},
      {"REPLY", &PhasePrediction::reply},
  };
  for (const RoundComplexity& rc : rounds) {
    const char* status = !rc.bounded ? "-" : rc.exceeds ? "EXCEEDS" : "ok";
    std::snprintf(
        row, sizeof row,
        "  %-6llu%-8s%-10s%-5llu%-5llu%-5llu%-5llu%-5llu%-5llu%-10llu%-10llu%-8s%s\n",
        static_cast<unsigned long long>(rc.round), rc.kind.c_str(),
        rc.params.engine.c_str(),
        static_cast<unsigned long long>(rc.params.requests),
        static_cast<unsigned long long>(rc.params.blocks),
        static_cast<unsigned long long>(rc.params.c),
        static_cast<unsigned long long>(rc.params.group_bound()),
        static_cast<unsigned long long>(rc.params.k),
        static_cast<unsigned long long>(rc.params.n),
        static_cast<unsigned long long>(rc.control_total),
        static_cast<unsigned long long>(rc.bound.total), fmt(rc.ratio()).c_str(),
        status);
    out << row;
    if (rc.dup_wire > 0) {
      out << "         ^ includes " << rc.dup_wire
          << " fault-injected duplicate wire deliveries\n";
    }
    if (rc.exceeds) {
      for (const Phase& phase : kPhases) {
        const std::uint64_t got = rc.phase_measured.*phase.field;
        const std::uint64_t cap = rc.bound.*phase.field;
        if (got > cap) {
          out << "         ^ " << phase.name << " " << got << " > " << cap
              << " phase bound\n";
        }
      }
    }
    if (!rc.bounded) continue;
    measured_sum += rc.control_total;
    bound_sum += rc.bound.total;
    request_sum += rc.params.requests;
    if (rc.exceeds) ++violations;
  }
  if (request_sum > 0) {
    out << "\n  pkt_in rounds: " << fmt(static_cast<double>(measured_sum) /
                                        static_cast<double>(request_sum))
        << " control msgs/request measured vs "
        << fmt(static_cast<double>(bound_sum) / static_cast<double>(request_sum))
        << " analytic bound (theorem 1 kc²+c²+2cN = "
        << theorem1_messages(rounds.front().params.c, rounds.front().params.k,
                             rounds.front().params.n)
        << " per round)\n";
  }
  if (violations > 0) {
    out << "  " << violations
        << " round(s) EXCEED the analytic bound — duplicate or stacked "
           "protocol traffic\n";
  } else {
    out << "  every bounded round satisfies the analytic bound\n";
  }
}

void write_complexity_json(const std::vector<RoundComplexity>& rounds,
                           std::ostream& out) {
  out << "{\"rounds\":[";
  bool first = true;
  std::uint64_t measured_sum = 0;
  std::uint64_t bound_sum = 0;
  std::uint64_t request_sum = 0;
  std::size_t violations = 0;
  for (const RoundComplexity& rc : rounds) {
    out << (first ? "" : ",") << "{\"round\":" << rc.round << ",\"kind\":\""
        << json_escape(rc.kind) << "\",\"engine\":\""
        << json_escape(rc.params.engine) << "\",\"requests\":" << rc.params.requests
        << ",\"blocks\":" << rc.params.blocks << ",\"c\":" << rc.params.c
        << ",\"gmax\":" << rc.params.group_bound() << ",\"k\":" << rc.params.k
        << ",\"n\":" << rc.params.n << ",\"measured\":{";
    bool first_cat = true;
    for (const auto& [category, count] : rc.measured) {
      out << (first_cat ? "" : ",") << "\"" << json_escape(category)
          << "\":" << count;
      first_cat = false;
    }
    const auto phases = [&out](const PhasePrediction& p) {
      out << "{\"pkt_in\":" << p.pkt_in << ",\"intra_pbft\":" << p.intra_pbft
          << ",\"agree\":" << p.agree << ",\"final_pbft\":" << p.final_pbft
          << ",\"final_agree\":" << p.final_agree << ",\"reply\":" << p.reply
          << ",\"total\":" << p.total << "}";
    };
    out << "},\"measured_total\":" << rc.measured_total
        << ",\"control_total\":" << rc.control_total
        << ",\"dup_wire\":" << rc.dup_wire << ",\"phases\":";
    phases(rc.phase_measured);
    out << ",\"bound\":";
    phases(rc.bound);
    out << ",\"ratio\":" << json_double(rc.ratio())
        << ",\"bounded\":" << (rc.bounded ? "true" : "false")
        << ",\"exceeds\":" << (rc.exceeds ? "true" : "false") << "}";
    first = false;
    if (!rc.bounded) continue;
    measured_sum += rc.control_total;
    bound_sum += rc.bound.total;
    request_sum += rc.params.requests;
    if (rc.exceeds) ++violations;
  }
  out << "],\"summary\":{\"bounded_rounds\":";
  std::size_t bounded = 0;
  for (const RoundComplexity& rc : rounds) bounded += rc.bounded ? 1 : 0;
  out << bounded << ",\"violations\":" << violations << ",\"measured_total\":"
      << measured_sum << ",\"bound_total\":" << bound_sum;
  if (request_sum > 0) {
    out << ",\"measured_per_request\":"
        << json_double(static_cast<double>(measured_sum) /
                       static_cast<double>(request_sum))
        << ",\"bound_per_request\":"
        << json_double(static_cast<double>(bound_sum) /
                       static_cast<double>(request_sum));
  }
  out << "}}\n";
}

void write_ledger_jsonl(const MsgLedger& ledger, std::ostream& out) {
  for (const auto& [key, entry] : ledger.entries()) {
    out << "{\"category\":\"" << json_escape(key.first) << "\",\"key\":\""
        << json_escape(key.second) << "\",\"msgs\":" << entry.msgs
        << ",\"bytes\":" << entry.bytes << "}\n";
  }
}

std::vector<LedgerRow> parse_ledger_jsonl(std::istream& in) {
  // Narrow parser for the fixed field layout write_ledger_jsonl emits; the
  // string fields (bus categories, digest hex, switch:request pairs) never
  // contain characters json_escape would rewrite.
  std::vector<LedgerRow> rows;
  std::string line;
  const auto string_field = [](const std::string& text, const char* field,
                               std::string& out_value) {
    const std::string tag = std::string{"\""} + field + "\":\"";
    const std::size_t at = text.find(tag);
    if (at == std::string::npos) return false;
    const std::size_t start = at + tag.size();
    const std::size_t end = text.find('"', start);
    if (end == std::string::npos) return false;
    out_value = text.substr(start, end - start);
    return true;
  };
  const auto u64_field = [](const std::string& text, const char* field,
                            std::uint64_t& out_value) {
    const std::string tag = std::string{"\""} + field + "\":";
    const std::size_t at = text.find(tag);
    if (at == std::string::npos) return false;
    out_value = std::strtoull(text.c_str() + at + tag.size(), nullptr, 10);
    return true;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    LedgerRow row;
    if (string_field(line, "category", row.category) &&
        string_field(line, "key", row.key) && u64_field(line, "msgs", row.msgs) &&
        u64_field(line, "bytes", row.bytes)) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace curb::obs::net
