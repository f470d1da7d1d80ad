#include "curb/obs/slo.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <ostream>

#include "curb/prof/json.hpp"

namespace curb::obs {

using prof::json_double;
using prof::json_escape;

const char* to_string(SloAgg agg) {
  switch (agg) {
    case SloAgg::kP50: return "p50";
    case SloAgg::kP90: return "p90";
    case SloAgg::kP99: return "p99";
    case SloAgg::kMean: return "mean";
    case SloAgg::kMax: return "max";
    case SloAgg::kRate: return "rate";
    case SloAgg::kCount: return "count";
    case SloAgg::kSum: return "sum";
    case SloAgg::kGauge: return "gauge";
  }
  return "?";
}

const char* to_string(SloOp op) {
  switch (op) {
    case SloOp::kLt: return "<";
    case SloOp::kLe: return "<=";
    case SloOp::kGt: return ">";
    case SloOp::kGe: return ">=";
    case SloOp::kEq: return "==";
    case SloOp::kNe: return "!=";
  }
  return "?";
}

std::string SloRule::text() const {
  std::string out = to_string(agg);
  out += "(" + series + ") ";
  out += to_string(op);
  out += " " + json_double(limit);
  if (over != 1) out += " over " + std::to_string(over);
  return out;
}

namespace {

/// Hand-rolled scanner: the grammar is small and the error messages should
/// name the rule text, which generic tokenizers make awkward.
class RuleScanner {
 public:
  explicit RuleScanner(const std::string& text) : s_{text} {}

  SloRule parse() {
    SloRule rule;
    rule.agg = parse_agg();
    expect('(');
    rule.series = parse_series();
    expect(')');
    rule.op = parse_op();
    rule.limit = parse_limit();
    skip_ws();
    if (match_word("over")) {
      const double n = parse_number();
      if (n < 1.0 || n != std::floor(n)) fail("'over' wants a positive window count");
      rule.over = static_cast<std::size_t>(n);
    }
    skip_ws();
    if (pos_ != s_.size()) fail("trailing junk");
    return rule;
  }

 private:
  SloAgg parse_agg() {
    skip_ws();
    static constexpr std::pair<const char*, SloAgg> kAggs[] = {
        {"p50", SloAgg::kP50},   {"p90", SloAgg::kP90},   {"p99", SloAgg::kP99},
        {"mean", SloAgg::kMean}, {"max", SloAgg::kMax},   {"rate", SloAgg::kRate},
        {"count", SloAgg::kCount}, {"sum", SloAgg::kSum}, {"gauge", SloAgg::kGauge},
    };
    for (const auto& [word, agg] : kAggs) {
      if (match_word(word)) return agg;
    }
    fail("expected aggregation (p50|p90|p99|mean|max|rate|count|sum|gauge)");
  }

  /// Everything up to the matching ')' — series keys embed label quotes but
  /// never parentheses.
  std::string parse_series() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ')') ++pos_;
    if (pos_ == s_.size()) fail("unterminated series (missing ')')");
    std::string series = s_.substr(start, pos_ - start);
    if (series.empty()) fail("empty series");
    return series;
  }

  SloOp parse_op() {
    skip_ws();
    if (match_word("<=")) return SloOp::kLe;
    if (match_word(">=")) return SloOp::kGe;
    if (match_word("==")) return SloOp::kEq;
    if (match_word("!=")) return SloOp::kNe;
    if (match_word("<")) return SloOp::kLt;
    if (match_word(">")) return SloOp::kGt;
    fail("expected comparison (< <= > >= == !=)");
  }

  double parse_limit() {
    double v = parse_number();
    // Optional time unit, normalized to the registry's microseconds.
    if (match_word("us")) {
      // already us
    } else if (match_word("ms")) {
      v *= 1e3;
    } else if (match_word("s")) {
      v *= 1e6;
    }
    return v;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    try {
      return std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  bool match_word(const char* word) {
    skip_ws();
    const std::size_t len = std::string_view{word}.size();
    if (s_.compare(pos_, len, word) != 0) return false;
    // Alphabetic words must not run into the next identifier character
    // ("summary" is not "sum"; "usec" is not "us").
    if (std::isalpha(static_cast<unsigned char>(word[0])) && pos_ + len < s_.size() &&
        (std::isalnum(static_cast<unsigned char>(s_[pos_ + len])) ||
         s_[pos_ + len] == '_')) {
      return false;
    }
    pos_ += len;
    return true;
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string{"expected '"} + c + "'");
    }
    ++pos_;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  [[noreturn]] void fail(const std::string& why) {
    throw SloError{"bad SLO rule '" + s_ + "': " + why};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

SloRule SloRule::parse(const std::string& text) { return RuleScanner{text}.parse(); }

SloRuleSet SloRuleSet::parse(const std::string& text) {
  SloRuleSet set;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    const std::string piece = text.substr(start, end - start);
    if (piece.find_first_not_of(" \t\n") != std::string::npos) {
      set.rules.push_back(SloRule::parse(piece));
    }
    start = end + 1;
  }
  return set;
}

std::optional<double> evaluate_rule(const SloRule& rule,
                                    const std::deque<TsWindow>& windows) {
  const std::size_t n = std::min(rule.over, windows.size());
  if (n == 0) return std::nullopt;

  bool any = false;
  double acc = 0.0;       // sums and maxima
  double mean_sum = 0.0;  // kMean numerator
  double mean_count = 0.0;
  std::optional<double> latest_gauge;

  for (std::size_t i = windows.size() - n; i < windows.size(); ++i) {
    const TsValue* v = windows[i].find(rule.series);
    if (v == nullptr) continue;
    switch (rule.agg) {
      case SloAgg::kRate:
        acc += v->value;
        any = true;
        break;
      case SloAgg::kCount:
        acc += v->kind == TsValue::Kind::kHist ? static_cast<double>(v->count)
                                               : v->value;
        any = true;
        break;
      case SloAgg::kSum:
        acc += v->kind == TsValue::Kind::kHist ? v->sum : v->value;
        any = true;
        break;
      case SloAgg::kMean:
        if (v->kind == TsValue::Kind::kHist) {
          mean_sum += v->sum;
          mean_count += static_cast<double>(v->count);
        } else {
          mean_sum += v->value;
          mean_count += 1.0;
        }
        any = true;
        break;
      case SloAgg::kP50:
      case SloAgg::kP90:
      case SloAgg::kP99: {
        const double p = rule.agg == SloAgg::kP50   ? v->p50
                         : rule.agg == SloAgg::kP90 ? v->p90
                                                    : v->p99;
        const double sample = v->kind == TsValue::Kind::kHist ? p : v->value;
        acc = any ? std::max(acc, sample) : sample;
        any = true;
        break;
      }
      case SloAgg::kMax: {
        const double sample = v->kind == TsValue::Kind::kHist ? v->p99 : v->value;
        acc = any ? std::max(acc, sample) : sample;
        any = true;
        break;
      }
      case SloAgg::kGauge:
        latest_gauge = v->value;
        any = true;
        break;
    }
  }
  if (!any) {
    // rate/count/sum assert totals: a series that never moved totals zero,
    // so absence still evaluates (required for `rate(x) == 0` watchdogs).
    if (rule.agg == SloAgg::kRate || rule.agg == SloAgg::kCount ||
        rule.agg == SloAgg::kSum) {
      return 0.0;
    }
    return std::nullopt;
  }
  switch (rule.agg) {
    case SloAgg::kMean: return mean_count > 0.0 ? mean_sum / mean_count : 0.0;
    case SloAgg::kGauge: return latest_gauge;
    default: return acc;
  }
}

bool slo_compare(SloOp op, double observed, double limit) {
  switch (op) {
    case SloOp::kLt: return observed < limit;
    case SloOp::kLe: return observed <= limit;
    case SloOp::kGt: return observed > limit;
    case SloOp::kGe: return observed >= limit;
    case SloOp::kEq: return observed == limit;
    case SloOp::kNe: return observed != limit;
  }
  return true;
}

void SloEngine::on_window(Observatory* obs, const std::deque<TsWindow>& windows) {
  if (windows.empty()) return;
  const TsWindow& newest = windows.back();
  for (std::size_t r = 0; r < rules_.rules.size(); ++r) {
    const SloRule& rule = rules_.rules[r];
    const std::optional<double> observed = evaluate_rule(rule, windows);
    if (!observed || slo_compare(rule.op, *observed, rule.limit)) continue;
    breaches_.push_back({newest.index, newest.end, r, *observed, rule.limit});
    if (obs != nullptr) {
      obs->metrics.counter("slo.breaches", {{"rule", rule.text()}}).inc();
      obs->tracer.instant("slo.breach", "slo",
                          {{"rule", rule.text()},
                           {"observed", json_double(*observed)},
                           {"window", std::to_string(newest.index)}});
    }
  }
}

void SloEngine::write_report_json(std::ostream& out) const {
  out << "{\"rules\":[";
  for (std::size_t r = 0; r < rules_.rules.size(); ++r) {
    std::size_t count = 0;
    double worst = 0.0;
    bool worst_set = false;
    for (const SloBreach& b : breaches_) {
      if (b.rule != r) continue;
      ++count;
      // "Worst" = farthest from the limit in the violating direction.
      if (!worst_set || std::abs(b.observed - b.limit) > std::abs(worst - b.limit)) {
        worst = b.observed;
        worst_set = true;
      }
    }
    if (r > 0) out << ",";
    out << "{\"rule\":\"" << json_escape(rules_.rules[r].text())
        << "\",\"breaches\":" << count;
    if (worst_set) out << ",\"worst\":" << json_double(worst);
    out << "}";
  }
  out << "],\"total_breaches\":" << breaches_.size() << ",\"breaches\":[";
  for (std::size_t i = 0; i < breaches_.size(); ++i) {
    const SloBreach& b = breaches_[i];
    if (i > 0) out << ",";
    out << "{\"window\":" << b.window << ",\"at_us\":" << b.at.as_micros()
        << ",\"rule\":\"" << json_escape(rules_.rules[b.rule].text())
        << "\",\"observed\":" << json_double(b.observed)
        << ",\"limit\":" << json_double(b.limit) << "}";
  }
  out << "]}\n";
}

void SloEngine::write_report_text(std::ostream& out) const {
  for (const SloBreach& b : breaches_) {
    out << "window " << b.window << " @" << b.at.as_millis_f() << "ms: "
        << rules_.rules[b.rule].text() << " violated (observed "
        << json_double(b.observed) << ")\n";
  }
}

}  // namespace curb::obs
