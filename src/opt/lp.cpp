#include "curb/opt/lp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "curb/prof/profiler.hpp"

namespace curb::opt {

int LpProblem::add_variable(double cost, double lower, double upper) {
  if (lower > upper) throw std::invalid_argument{"LpProblem: lower > upper"};
  cost_.push_back(cost);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return static_cast<int>(cost_.size()) - 1;
}

void LpProblem::add_constraint(std::vector<std::pair<int, double>> terms, Sense sense,
                               double rhs) {
  for (const auto& [var, coeff] : terms) {
    (void)coeff;
    if (var < 0 || static_cast<std::size_t>(var) >= cost_.size()) {
      throw std::out_of_range{"LpProblem: constraint references unknown variable"};
    }
  }
  rows_.push_back(Row{std::move(terms), sense, rhs});
}

void LpProblem::set_bounds(int j, double lower, double upper) {
  if (lower > upper) throw std::invalid_argument{"LpProblem: lower > upper"};
  lower_[static_cast<std::size_t>(j)] = lower;
  upper_[static_cast<std::size_t>(j)] = upper;
}

namespace {

constexpr double kEps = 1e-7;
constexpr double kPivotEps = 1e-9;

/// Two-phase primal simplex over a dense tableau with bounded variables.
/// Nonbasic variables rest at one of their bounds; the ratio test considers
/// basic variables hitting either bound plus the entering variable flipping
/// to its opposite bound. Basic values and reduced costs are maintained
/// incrementally so an iteration costs one tableau pivot, and the pivot
/// touches only the pivot row's nonzero columns: a zero there leaves every
/// other row's entry unchanged, so skipping it changes no value (at most the
/// sign of a zero, which nothing reads) and the pivot sequence is the same
/// as a full sweep's.
class Simplex {
 public:
  Simplex(const LpProblem& p, std::size_t max_iterations)
      : problem_{p}, max_iterations_{max_iterations} {}

  LpSolution solve() {
    build();
    // Phase 1: minimize the sum of artificials.
    reset_costs(phase1_cost_);
    if (!iterate()) return finish(LpStatus::kIterationLimit);
    if (phase_objective() > kEps) return finish(LpStatus::kInfeasible);
    pin_artificials();
    // Phase 2: minimize the real objective.
    reset_costs(phase2_cost_);
    if (!iterate()) return finish(LpStatus::kIterationLimit);
    if (unbounded_) return finish(LpStatus::kUnbounded);
    return finish(LpStatus::kOptimal);
  }

 private:
  enum class Status : std::uint8_t { kBasic, kAtLower, kAtUpper };

  void build() {
    const std::size_t n = problem_.num_variables();
    const std::size_t m = problem_.num_constraints();
    num_structural_ = n;
    num_rows_ = m;

    // Column layout: [structural | slack(one per row) | artificial(one per row)].
    num_cols_ = n + 2 * m;
    lower_.assign(num_cols_, 0.0);
    upper_.assign(num_cols_, LpProblem::kInf);
    for (std::size_t j = 0; j < n; ++j) {
      lower_[j] = problem_.lower(static_cast<int>(j));
      upper_[j] = problem_.upper(static_cast<int>(j));
    }

    tableau_.assign(m, std::vector<double>(num_cols_, 0.0));
    for (std::size_t k = 0; k < m; ++k) {
      const auto& row = problem_.row(k);
      for (const auto& [var, coeff] : row.terms) {
        tableau_[k][static_cast<std::size_t>(var)] += coeff;
      }
      const std::size_t slack = n + k;
      switch (row.sense) {
        case LpProblem::Sense::kLe:
          tableau_[k][slack] = 1.0;
          break;
        case LpProblem::Sense::kGe:
          tableau_[k][slack] = -1.0;
          break;
        case LpProblem::Sense::kEq:
          lower_[slack] = 0.0;
          upper_[slack] = 0.0;  // pinned slack: row stays an equality
          tableau_[k][slack] = 1.0;
          break;
      }
    }

    // Initial nonbasic statuses: structural/slack at their finite bound.
    status_.assign(num_cols_, Status::kAtLower);
    for (std::size_t j = 0; j < n + m; ++j) {
      if (lower_[j] == -LpProblem::kInf && upper_[j] != LpProblem::kInf) {
        status_[j] = Status::kAtUpper;
      }
    }

    // Artificials complete an IDENTITY basis with nonnegative values. When a
    // row's residual is negative the whole row is negated (preserving the
    // equality) so the artificial coefficient can stay +1 — otherwise the
    // initial tableau would not equal B^-1 A and every subsequent reduced
    // cost would be wrong.
    basis_.assign(m, 0);
    xb_.assign(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      double activity = 0.0;
      for (std::size_t j = 0; j < n + m; ++j) {
        const double bv = bound_value(j);
        if (bv != 0.0) activity += tableau_[k][j] * bv;
      }
      double residual = problem_.row(k).rhs - activity;
      if (residual < 0) {
        for (std::size_t j = 0; j < n + m; ++j) tableau_[k][j] = -tableau_[k][j];
        residual = -residual;
      }
      const std::size_t art = n + m + k;
      tableau_[k][art] = 1.0;
      basis_[k] = art;
      status_[art] = Status::kBasic;
      xb_[k] = residual;
    }

    phase1_cost_.assign(num_cols_, 0.0);
    for (std::size_t k = 0; k < m; ++k) phase1_cost_[n + m + k] = 1.0;
    phase2_cost_.assign(num_cols_, 0.0);
    for (std::size_t j = 0; j < n; ++j) phase2_cost_[j] = problem_.cost(static_cast<int>(j));
    collect_movable();
  }

  /// Columns the entering scan may pick: those not pinned to one value
  /// (equality slacks, fixed variables, and artificials after phase 1).
  void collect_movable() {
    movable_.clear();
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (lower_[j] != upper_[j]) movable_.push_back(j);
    }
  }

  [[nodiscard]] double bound_value(std::size_t j) const {
    if (status_[j] == Status::kAtUpper) return upper_[j];
    const double l = lower_[j];
    return l == -LpProblem::kInf ? 0.0 : l;
  }

  /// Recompute the maintained reduced-cost row for a new phase cost vector.
  void reset_costs(const std::vector<double>& cost) {
    cost_ = &cost;
    costed_.clear();
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (cost[j] != 0.0) costed_.push_back(j);
    }
    z_.assign(num_cols_, 0.0);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (status_[j] == Status::kBasic) continue;
      double z = cost[j];
      for (std::size_t k = 0; k < num_rows_; ++k) {
        const double c = cost[basis_[k]];
        if (c != 0.0) z -= c * tableau_[k][j];
      }
      z_[j] = z;
    }
  }

  /// Sums the costed columns only, in index order: zero-cost ones would add
  /// exact zeros.
  [[nodiscard]] double phase_objective() const {
    double obj = 0.0;
    for (const std::size_t j : costed_) {
      if (status_[j] != Status::kBasic) obj += (*cost_)[j] * bound_value(j);
    }
    for (std::size_t k = 0; k < num_rows_; ++k) obj += (*cost_)[basis_[k]] * xb_[k];
    return obj;
  }

  /// After phase 1 every artificial sits at zero (phase-1 optimum); pin all
  /// of them to [0, 0] so phase 2 can never re-inflate one to absorb an
  /// infeasibility. Basic artificials stay basic at value zero.
  void pin_artificials() {
    const std::size_t art0 = num_structural_ + num_rows_;
    for (std::size_t j = art0; j < num_cols_; ++j) {
      lower_[j] = 0.0;
      upper_[j] = 0.0;
      if (status_[j] != Status::kBasic) status_[j] = Status::kAtLower;
    }
    collect_movable();
  }

  /// Run simplex iterations against the current cost. False on iteration limit.
  bool iterate() {
    std::size_t since_improvement = 0;
    double last_obj = phase_objective();
    const std::size_t bland_after = 4 * (num_rows_ + num_cols_);
    unbounded_ = false;

    while (iterations_ < max_iterations_) {
      const bool bland = since_improvement > bland_after;
      const int entering = choose_entering(bland);
      if (entering < 0) return true;  // optimal for this phase
      ++iterations_;

      if (!pivot_or_flip(static_cast<std::size_t>(entering))) {
        unbounded_ = true;
        return true;
      }
      const double obj = phase_objective();
      if (obj < last_obj - kEps) {
        last_obj = obj;
        since_improvement = 0;
      } else {
        ++since_improvement;
      }
    }
    return false;
  }

  [[nodiscard]] int choose_entering(bool bland) const {
    int best = -1;
    double best_score = -kEps;
    for (const std::size_t j : movable_) {  // ascending: ties go to the lowest index
      if (status_[j] == Status::kBasic) continue;
      const double z = z_[j];
      double score = 0.0;
      if (status_[j] == Status::kAtLower && z < -kEps) score = z;
      else if (status_[j] == Status::kAtUpper && z > kEps) score = -z;
      else continue;
      if (bland) return static_cast<int>(j);  // first eligible index
      if (score < best_score) {
        best_score = score;
        best = static_cast<int>(j);
      }
    }
    return best;
  }

  /// Ratio test + pivot (or bound flip). Returns false when unbounded.
  bool pivot_or_flip(std::size_t entering) {
    const double sigma = status_[entering] == Status::kAtLower ? 1.0 : -1.0;

    double best_t = LpProblem::kInf;
    int leave_row = -1;
    bool leave_to_upper = false;

    // Bound flip of the entering variable itself.
    if (upper_[entering] != LpProblem::kInf && lower_[entering] != -LpProblem::kInf) {
      best_t = upper_[entering] - lower_[entering];
    }

    for (std::size_t k = 0; k < num_rows_; ++k) {
      const double a = tableau_[k][entering] * sigma;
      if (std::abs(a) <= kPivotEps) continue;
      const std::size_t bv = basis_[k];
      const double xk = xb_[k];
      double t;
      bool to_upper;
      if (a > 0) {
        // Basic value decreases toward its lower bound.
        if (lower_[bv] == -LpProblem::kInf) continue;
        t = (xk - lower_[bv]) / a;
        to_upper = false;
      } else {
        // Basic value increases toward its upper bound.
        if (upper_[bv] == LpProblem::kInf) continue;
        t = (xk - upper_[bv]) / a;  // a < 0 so t >= 0
        to_upper = true;
      }
      if (t < -kEps) t = 0.0;  // degenerate: clamp
      if (t < best_t - kPivotEps ||
          (leave_row >= 0 && t < best_t + kPivotEps &&
           bv < basis_[static_cast<std::size_t>(leave_row)])) {
        best_t = t;
        leave_row = static_cast<int>(k);
        leave_to_upper = to_upper;
      }
    }

    if (best_t == LpProblem::kInf) return false;  // unbounded direction

    if (leave_row < 0) {
      // Pure bound flip: entering moves to its opposite bound; basic values
      // shift by the full bound range along the entering column.
      const double t = best_t;
      for (std::size_t k = 0; k < num_rows_; ++k) {
        xb_[k] -= tableau_[k][entering] * sigma * t;
      }
      status_[entering] =
          status_[entering] == Status::kAtLower ? Status::kAtUpper : Status::kAtLower;
      return true;
    }

    // Pivot: entering becomes basic in leave_row; leaving var goes to a bound.
    const auto r = static_cast<std::size_t>(leave_row);
    const std::size_t leaving = basis_[r];
    const double t = best_t;

    // Update basic values along the direction first.
    for (std::size_t k = 0; k < num_rows_; ++k) {
      xb_[k] -= tableau_[k][entering] * sigma * t;
    }
    const double entering_value = bound_value(entering) + sigma * t;

    const double inv_pivot = 1.0 / tableau_[r][entering];
    auto& prow = tableau_[r];
    pivot_cols_.clear();
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (prow[j] == 0.0) continue;
      prow[j] *= inv_pivot;
      pivot_cols_.push_back(j);
    }
    for (std::size_t k = 0; k < num_rows_; ++k) {
      if (k == r) continue;
      const double factor = tableau_[k][entering];
      if (std::abs(factor) <= kPivotEps) continue;
      auto& krow = tableau_[k];
      for (const std::size_t j : pivot_cols_) krow[j] -= factor * prow[j];
    }
    // Maintain reduced costs. The generic update also produces the leaving
    // column's new reduced cost (-z_e / pivot), since its pre-pivot tableau
    // column was the unit vector for row r.
    const double z_e = z_[entering];
    if (z_e != 0.0) {
      for (const std::size_t j : pivot_cols_) z_[j] -= z_e * prow[j];
    }
    z_[entering] = 0.0;

    basis_[r] = entering;
    status_[entering] = Status::kBasic;
    status_[leaving] = leave_to_upper ? Status::kAtUpper : Status::kAtLower;
    xb_[r] = entering_value;
    return true;
  }

  LpSolution finish(LpStatus status) {
    LpSolution sol;
    sol.status = status;
    sol.iterations = iterations_;
    if (status != LpStatus::kOptimal) return sol;
    sol.values.assign(num_structural_, 0.0);
    for (std::size_t j = 0; j < num_structural_; ++j) {
      if (status_[j] != Status::kBasic) sol.values[j] = bound_value(j);
    }
    for (std::size_t k = 0; k < num_rows_; ++k) {
      if (basis_[k] < num_structural_) sol.values[basis_[k]] = xb_[k];
    }
    sol.objective = 0.0;
    for (std::size_t j = 0; j < num_structural_; ++j) {
      sol.objective += problem_.cost(static_cast<int>(j)) * sol.values[j];
    }
    return sol;
  }

  const LpProblem& problem_;
  std::size_t max_iterations_;
  std::size_t num_structural_ = 0;
  std::size_t num_rows_ = 0;
  std::size_t num_cols_ = 0;
  std::vector<std::vector<double>> tableau_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Status> status_;
  std::vector<std::size_t> basis_;
  std::vector<double> xb_;  // current values of basic variables, by row
  std::vector<double> z_;   // maintained reduced costs (valid for nonbasic)
  const std::vector<double>* cost_ = nullptr;
  std::vector<std::size_t> costed_;      // columns with nonzero current cost
  std::vector<std::size_t> movable_;     // columns not pinned to one value
  std::vector<std::size_t> pivot_cols_;  // nonzero columns of the pivot row
  std::vector<double> phase1_cost_;
  std::vector<double> phase2_cost_;
  std::size_t iterations_ = 0;
  bool unbounded_ = false;
};

}  // namespace

LpSolution solve_lp(const LpProblem& problem, std::size_t max_iterations) {
  const prof::Scope scope{"solver.lp"};
  return Simplex{problem, max_iterations}.solve();
}

}  // namespace curb::opt
