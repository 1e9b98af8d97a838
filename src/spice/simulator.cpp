#include "spice/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/budget.hpp"
#include "util/diag.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"

namespace olp::spice {

SimStats& SimStats::global() {
  static SimStats stats;
  return stats;
}

const std::vector<double>& TranResult::trace(NodeId node) const {
  OLP_CHECK(probed(), "trace() needs a probed transient result");
  const auto it = std::find(probes.begin(), probes.end(), node);
  OLP_CHECK(it != probes.end(), "node " + std::to_string(node) +
                                    " is not among the result's probes");
  return traces[static_cast<std::size_t>(it - probes.begin())];
}

namespace {

using Entries4 = std::array<std::pair<int, int>, 4>;
using Entries6 = std::array<std::pair<int, int>, 6>;

/// (row, col) of a conductance between nodes a and b: (a,a), (b,b), (a,b),
/// (b,a), with ground as -1.
Entries4 conductance_entries(NodeId a, NodeId b) {
  return {{{a - 1, a - 1}, {b - 1, b - 1}, {a - 1, b - 1}, {b - 1, a - 1}}};
}

Entries4 vccs_entries(const Vccs& g) {
  return {{{g.p - 1, g.cp - 1},
           {g.p - 1, g.cn - 1},
           {g.n - 1, g.cp - 1},
           {g.n - 1, g.cn - 1}}};
}

/// A voltage source's branch coupling (p,br), (n,br), (br,p), (br,n).
Entries4 branch_entries(NodeId p, NodeId n, int br) {
  return {{{p - 1, br}, {n - 1, br}, {br, p - 1}, {br, n - 1}}};
}

Entries6 vcvs_entries(const Vcvs& e, int br) {
  return {{{e.p - 1, br},
           {e.n - 1, br},
           {br, e.p - 1},
           {br, e.n - 1},
           {br, e.cp - 1},
           {br, e.cn - 1}}};
}

Entries6 mos_entries(const Mosfet& m) {
  const int d = m.d - 1, g = m.g - 1, s = m.s - 1;
  return {{{d, g}, {d, d}, {d, s}, {s, g}, {s, d}, {s, s}}};
}

template <typename T>
void add(std::vector<T>& v, int slot, T x) {
  if (slot >= 0) v[static_cast<std::size_t>(slot)] += x;
}

template <typename T>
void sub(std::vector<T>& v, int slot, T x) {
  if (slot >= 0) v[static_cast<std::size_t>(slot)] -= x;
}

void add_rhs(std::vector<double>& b, int row, double v) {
  if (row >= 0) b[static_cast<std::size_t>(row)] += v;
}

/// Adds one analysis' factorization counts to the registry.
template <typename T>
void report_counts(const linalg::SparseLu<T>& lu) {
  const auto& c = lu.counts();
  obs::counter_add("sim.lu.factor", c.factor);
  obs::counter_add("sim.lu.replay", c.replay);
  obs::counter_add("sim.lu.repivot", c.repivot);
  obs::counter_add("sim.lu.rejoin", c.rejoin);
}

}  // namespace

/// One analysis' real MNA state: the base prefix (linear devices and source
/// matrix entries, stamped once), the capacitor companions of the current
/// transient step, the slot values and right-hand side of the current Newton
/// iteration, the factorization with its recorded pivots, and the solution
/// buffer.
struct Simulator::Workspace {
  explicit Workspace(const Simulator& sim)
      : base(static_cast<std::size_t>(sim.pattern_.nnz()), 0.0),
        b(static_cast<std::size_t>(sim.n_unknowns()), 0.0),
        lu(sim.pattern_) {
    sim.stamp_base(base);
    a = base;
  }

  std::vector<double> base;
  /// Per capacitor: companion conductance and the current it injects into
  /// terminal a.
  std::vector<double> cap_geq;
  std::vector<double> cap_ieq;
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> x;
  linalg::SparseLu<double> lu;
};

Simulator::Simulator(const Circuit& circuit, DiagnosticsSink* diagnostics,
                     Budget* budget)
    : circuit_(circuit), diag_(diagnostics), budget_(budget) {
  caps_ = gather_caps();

  // The circuit does not change structurally between analyses, so the MNA
  // pattern is fixed: every stamp any analysis makes, plus the node
  // diagonals that gmin stamps.
  const Circuit& ckt = circuit_;
  const int nn = ckt.node_count() - 1;
  const int nvs = static_cast<int>(ckt.vsources().size());
  std::vector<std::pair<int, int>> stamps;
  auto append = [&stamps](const auto& list) {
    stamps.insert(stamps.end(), list.begin(), list.end());
  };
  res_at_ = stamps.size();
  for (const Resistor& r : ckt.resistors()) {
    append(conductance_entries(r.a, r.b));
  }
  vccs_at_ = stamps.size();
  for (const Vccs& g : ckt.vccs()) append(vccs_entries(g));
  vcvs_at_ = stamps.size();
  for (std::size_t k = 0; k < ckt.vcvs().size(); ++k) {
    append(vcvs_entries(ckt.vcvs()[k], nn + nvs + static_cast<int>(k)));
  }
  vsrc_at_ = stamps.size();
  for (std::size_t k = 0; k < ckt.vsources().size(); ++k) {
    const VSource& v = ckt.vsources()[k];
    append(branch_entries(v.p, v.n, nn + static_cast<int>(k)));
  }
  mos_at_ = stamps.size();
  for (const Mosfet& m : ckt.mosfets()) {
    for (NodeId t : {m.d, m.g, m.s, m.b}) {
      OLP_CHECK(t >= 0 && t < ckt.node_count(),
                "mosfet " + m.name + " has a terminal on no node");
    }
    append(mos_entries(m));
  }
  cap_at_ = stamps.size();
  for (const LinearCap& c : caps_) append(conductance_entries(c.a, c.b));
  diag_at_ = stamps.size();
  for (int k = 0; k < nn; ++k) stamps.emplace_back(k, k);

  std::vector<std::pair<int, int>> entries;
  entries.reserve(stamps.size());
  for (const auto& [r, c] : stamps) {
    if (r >= 0 && c >= 0) entries.emplace_back(r, c);
  }
  pattern_ = linalg::SparsePattern(n_unknowns(), std::move(entries));
  slots_.reserve(stamps.size());
  for (const auto& [r, c] : stamps) slots_.push_back(pattern_.slot(r, c));
}

double Simulator::voltage(const std::vector<double>& x, NodeId node) const {
  if (node == kGround) return 0.0;
  OLP_CHECK(node > 0 && node < circuit_.node_count(), "node out of range");
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(node - 1)];
}

double Simulator::vsource_current(const std::vector<double>& x,
                                  const std::string& name) const {
  const int idx = circuit_.vsource_branch_index(circuit_.find_vsource(name));
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(idx)];
}

std::complex<double> Simulator::ac_voltage(
    const std::vector<std::complex<double>>& x, NodeId node) const {
  if (node == kGround) return {0.0, 0.0};
  OLP_CHECK(node > 0 && node < circuit_.node_count(), "node out of range");
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(node - 1)];
}

std::complex<double> Simulator::ac_vsource_current(
    const std::vector<std::complex<double>>& x, const std::string& name) const {
  const int idx = circuit_.vsource_branch_index(circuit_.find_vsource(name));
  OLP_CHECK(static_cast<int>(x.size()) == circuit_.unknown_count(),
            "solution vector size mismatch (non-converged sweep point?)");
  return x[static_cast<std::size_t>(idx)];
}

std::vector<Simulator::LinearCap> Simulator::gather_caps() const {
  std::vector<LinearCap> caps;
  for (const Capacitor& c : circuit_.capacitors()) {
    caps.push_back(LinearCap{c.a, c.b, c.c, c.ic, c.use_ic});
  }
  for (const Mosfet& m : circuit_.mosfets()) {
    const MosModel& model = circuit_.model(m.model);
    const double cgg = model.cox * m.w * m.l;
    const double cov = model.cov * m.w;
    // Saturation-flavored Meyer partition with constant (linear) caps: the
    // flow only needs capacitances that scale correctly with geometry and
    // diffusion sharing, not bias-dependent charge conservation.
    const double cgs = (2.0 / 3.0) * cgg + cov;
    const double cgd = cov;
    const double cdb = model.cj * m.ad + model.cjsw * m.pd;
    const double csb = model.cj * m.as + model.cjsw * m.ps;
    if (cgs > 0) caps.push_back(LinearCap{m.g, m.s, cgs, 0.0, false});
    if (cgd > 0) caps.push_back(LinearCap{m.g, m.d, cgd, 0.0, false});
    if (cdb > 0) caps.push_back(LinearCap{m.d, m.b, cdb, 0.0, false});
    if (csb > 0) caps.push_back(LinearCap{m.s, m.b, csb, 0.0, false});
  }
  return caps;
}

void Simulator::stamp_base(std::vector<double>& a) const {
  for (std::size_t k = 0; k < circuit_.resistors().size(); ++k) {
    const double g = 1.0 / circuit_.resistors()[k].r;
    const int* s = slots(res_at_, 4, k);
    add(a, s[0], g);
    add(a, s[1], g);
    sub(a, s[2], g);
    sub(a, s[3], g);
  }
  for (std::size_t k = 0; k < circuit_.vccs().size(); ++k) {
    const Vccs& g = circuit_.vccs()[k];
    const int* s = slots(vccs_at_, 4, k);
    // Current gm * v(cp,cn) flows p -> n through the source.
    add(a, s[0], g.gm);
    add(a, s[1], -g.gm);
    add(a, s[2], -g.gm);
    add(a, s[3], g.gm);
  }
  for (std::size_t k = 0; k < circuit_.vcvs().size(); ++k) {
    const Vcvs& e = circuit_.vcvs()[k];
    const int* s = slots(vcvs_at_, 6, k);
    // Branch current unknown flows p -> n.
    add(a, s[0], 1.0);
    add(a, s[1], -1.0);
    // Branch equation: v(p) - v(n) - gain * (v(cp) - v(cn)) = 0.
    add(a, s[2], 1.0);
    add(a, s[3], -1.0);
    add(a, s[4], -e.gain);
    add(a, s[5], e.gain);
  }
  for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
    const int* s = slots(vsrc_at_, 4, k);
    add(a, s[0], 1.0);
    add(a, s[1], -1.0);
    add(a, s[2], 1.0);
    add(a, s[3], -1.0);
  }
}

void Simulator::stamp_source_rhs(std::vector<double>& b, double t,
                                 double scale) const {
  const int nn = circuit_.node_count() - 1;
  for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
    const VSource& v = circuit_.vsources()[k];
    add_rhs(b, nn + static_cast<int>(k), scale * v.wave.value(t));
  }
  for (const ISource& i : circuit_.isources()) {
    const double val = scale * i.wave.value(t);
    // Positive current flows p -> n through the source: out of p, into n.
    add_rhs(b, i.p - 1, -val);
    add_rhs(b, i.n - 1, val);
  }
}

MosOperatingPoint Simulator::eval_mosfet(const Mosfet& m,
                                         const std::vector<double>& x) const {
  const MosModel& model = circuit_.model(m.model);
  // Node ids were checked at construction and `x` by the caller.
  auto v = [&x](NodeId n) {
    return n == kGround ? 0.0 : x[static_cast<std::size_t>(n - 1)];
  };
  const double vgs = v(m.g) - v(m.s);
  const double vds = v(m.d) - v(m.s);
  const double sigma = model.type == MosType::kNmos ? 1.0 : -1.0;
  const MosEval e = mos_eval(model, sigma * vgs, sigma * vds, m.w, m.l,
                             m.delta_vth, m.mobility_mult);
  MosOperatingPoint op;
  // Under the sign mapping the small-signal conductances are unchanged while
  // the physical current into the drain picks up the sign.
  op.id = sigma * e.id;
  op.gm = e.gm;
  op.gds = e.gds;
  op.vgs = vgs;
  op.vds = vds;
  return op;
}

void Simulator::stamp_mosfets(std::vector<double>& a, std::vector<double>& b,
                              const std::vector<double>& x) const {
  for (std::size_t k = 0; k < circuit_.mosfets().size(); ++k) {
    const Mosfet& m = circuit_.mosfets()[k];
    const MosOperatingPoint op = eval_mosfet(m, x);
    const int* s = slots(mos_at_, 6, k);
    // Linearized drain current into the drain node:
    //   Id(v) = Id0 + gm (vgs - vgs0) + gds (vds - vds0)
    add(a, s[0], op.gm);
    add(a, s[1], op.gds);
    add(a, s[2], -(op.gm + op.gds));
    add(a, s[3], -op.gm);
    add(a, s[4], -op.gds);
    add(a, s[5], op.gm + op.gds);
    const double ieq = op.id - op.gm * op.vgs - op.gds * op.vds;
    add_rhs(b, m.d - 1, -ieq);
    add_rhs(b, m.s - 1, ieq);
  }
}

void Simulator::cap_companions(Workspace& ws,
                               const std::vector<double>& x_prev,
                               const std::vector<double>& icap, double h,
                               bool trapezoidal) const {
  ws.cap_geq.resize(caps_.size());
  ws.cap_ieq.resize(caps_.size());
  for (std::size_t k = 0; k < caps_.size(); ++k) {
    const LinearCap& c = caps_[k];
    if (c.c <= 0) continue;
    const double va = c.a > 0 ? x_prev[static_cast<std::size_t>(c.a - 1)] : 0.0;
    const double vb = c.b > 0 ? x_prev[static_cast<std::size_t>(c.b - 1)] : 0.0;
    const double v_prev = va - vb;
    if (trapezoidal) {
      ws.cap_geq[k] = 2.0 * c.c / h;
      ws.cap_ieq[k] = ws.cap_geq[k] * v_prev + icap[k];
    } else {
      ws.cap_geq[k] = c.c / h;
      ws.cap_ieq[k] = ws.cap_geq[k] * v_prev;
    }
  }
}

void Simulator::stamp_caps(Workspace& ws) const {
  for (std::size_t k = 0; k < caps_.size(); ++k) {
    const LinearCap& c = caps_[k];
    if (c.c <= 0) continue;
    const double geq = ws.cap_geq[k];
    const double ieq_into_a = ws.cap_ieq[k];
    const int* s = slots(cap_at_, 4, k);
    add(ws.a, s[0], geq);
    add(ws.a, s[1], geq);
    sub(ws.a, s[2], geq);
    sub(ws.a, s[3], geq);
    add_rhs(ws.b, c.a - 1, ieq_into_a);
    add_rhs(ws.b, c.b - 1, -ieq_into_a);
  }
}

void Simulator::stamp_gmin(std::vector<double>& a, double g) const {
  const int nn = circuit_.node_count() - 1;
  for (int k = 0; k < nn; ++k) {
    add(a, slots_[diag_at_ + static_cast<std::size_t>(k)], g);
  }
}

void Simulator::assemble_dc(Workspace& ws, const std::vector<double>& x,
                            double gmin, double source_scale) const {
  std::copy(ws.base.begin(), ws.base.end(), ws.a.begin());
  std::fill(ws.b.begin(), ws.b.end(), 0.0);
  stamp_source_rhs(ws.b, 0.0, source_scale);
  stamp_mosfets(ws.a, ws.b, x);
  stamp_gmin(ws.a, gmin);
}

void Simulator::assemble_tran(Workspace& ws, const std::vector<double>& x,
                              double t) const {
  std::copy(ws.base.begin(), ws.base.end(), ws.a.begin());
  std::fill(ws.b.begin(), ws.b.end(), 0.0);
  stamp_source_rhs(ws.b, t, 1.0);
  stamp_mosfets(ws.a, ws.b, x);
  stamp_caps(ws);
  stamp_gmin(ws.a, 1e-12);
}

MnaSystem Simulator::dc_system(const std::vector<double>& x,
                               double gmin) const {
  OLP_CHECK(static_cast<int>(x.size()) == n_unknowns(), "bad iterate size");
  Workspace ws(*this);
  assemble_dc(ws, x, gmin, 1.0);
  return MnaSystem{std::move(ws.a), std::move(ws.b)};
}

MnaSystem Simulator::tran_system(const std::vector<double>& x_prev,
                                 const std::vector<double>& x, double t,
                                 double h) const {
  OLP_CHECK(static_cast<int>(x_prev.size()) == n_unknowns() &&
                static_cast<int>(x.size()) == n_unknowns(),
            "bad state size");
  Workspace ws(*this);
  const std::vector<double> icap(caps_.size(), 0.0);
  cap_companions(ws, x_prev, icap, h, false);
  assemble_tran(ws, x, t);
  return MnaSystem{std::move(ws.a), std::move(ws.b)};
}

OpResult Simulator::newton_dc(Workspace& ws, const OpOptions& options,
                              double gmin, double source_scale,
                              const std::vector<double>& guess) const {
  const int n = n_unknowns();
  const int nn = circuit_.node_count() - 1;
  std::vector<double> x = guess;
  if (x.empty()) x.assign(static_cast<std::size_t>(n), 0.0);
  OLP_CHECK(static_cast<int>(x.size()) == n, "bad initial guess size");

  OpResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Budget-bounded Newton: unwind with the current (non-converged) state.
    if (budget_ != nullptr && budget_->check()) break;
    assemble_dc(ws, x, gmin + options.gmin_floor, source_scale);
    if (!ws.lu.factor(ws.a)) {
      result.converged = false;
      result.iterations = iter + 1;
      result.x = std::move(x);
      return result;
    }
    ws.lu.solve(ws.b, ws.x);

    // Damped update on node voltages; branch currents move freely.
    bool within_tol = true;
    for (int k = 0; k < n; ++k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      double delta = ws.x[ks] - x[ks];
      if (k < nn) {
        delta = std::clamp(delta, -options.damping, options.damping);
        if (std::fabs(delta) >
            options.vtol_abs + options.vtol_rel * std::fabs(x[ks])) {
          within_tol = false;
        }
      }
      x[ks] += delta;
    }
    if (within_tol && iter > 0) {
      result.converged = true;
      result.iterations = iter + 1;
      result.x = std::move(x);
      return result;
    }
  }
  result.converged = false;
  result.iterations = options.max_iterations;
  result.x = std::move(x);
  return result;
}

OpResult Simulator::op(const OpOptions& options) const {
  Workspace ws(*this);
  OpResult result = op_with(ws, options);
  report_counts(ws.lu);
  return result;
}

OpResult Simulator::op_with(Workspace& ws, const OpOptions& options) const {
  obs::Span span("sim.op");
  obs::counter_add("sim.op");
  SimStats::global().op_count++;
  OpResult result = op_impl(ws, options);
  obs::record("sim.op.newton_iterations", result.iterations);
  if (!result.converged) obs::counter_add("sim.op.nonconverged");
  return result;
}

OpResult Simulator::op_impl(Workspace& ws, const OpOptions& options) const {
  if (FaultInjector::global().should_fail(FaultSite::kOpNonConvergence)) {
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "chaos",
                    fault_site_name(FaultSite::kOpNonConvergence),
                    "injected operating-point non-convergence");
    }
    OpResult injected;
    injected.converged = false;
    injected.x.assign(static_cast<std::size_t>(n_unknowns()), 0.0);
    return injected;
  }

  // Stage 1: plain Newton from the provided guess.
  OpResult r = newton_dc(ws, options, 0.0, 1.0, options.initial_guess);
  if (r.converged) return r;
  // Budget exhausted: skip the continuation ladder, return what we have.
  if (budget_ != nullptr && budget_->check()) return r;

  // Stage 2: gmin stepping — solve with a large conductance to ground, then
  // relax it while warm-starting each solve from the previous one.
  std::vector<double> warm = options.initial_guess;
  bool chain_ok = true;
  for (double gmin = 1e-3; gmin >= 1e-12; gmin *= 1e-2) {
    OpResult stage = newton_dc(ws, options, gmin, 1.0, warm);
    if (!stage.converged) {
      chain_ok = false;
      break;
    }
    warm = stage.x;
  }
  if (chain_ok) {
    OpResult final_stage = newton_dc(ws, options, 0.0, 1.0, warm);
    if (final_stage.converged) return final_stage;
    r = final_stage;
  }
  if (budget_ != nullptr && budget_->check()) return r;

  // Stage 3: source stepping — ramp all independent sources from zero.
  warm.assign(static_cast<std::size_t>(n_unknowns()), 0.0);
  for (double scale = 0.1; scale <= 1.0 + 1e-12; scale += 0.1) {
    OpResult stage = newton_dc(ws, options, 1e-9, scale, warm);
    if (!stage.converged) {
      OLP_WARN << "source stepping failed at scale " << scale;
      return stage;
    }
    warm = stage.x;
  }
  OpResult final_stage = newton_dc(ws, options, 0.0, 1.0, warm);
  return final_stage;
}

std::vector<std::vector<double>> Simulator::dc_sweep(
    const std::string& vsource, const std::vector<double>& values,
    const OpOptions& options) const {
  const int vs_index = circuit_.find_vsource(vsource);
  // The sweep mutates the source value; restore it afterwards so the
  // circuit's owner sees no change.
  VSource& src = const_cast<Circuit&>(circuit_)
                     .vsources()[static_cast<std::size_t>(vs_index)];
  const Waveform saved = src.wave;

  // Source values enter only the right-hand side, so one workspace (and its
  // recorded pivots) serves every point.
  Workspace ws(*this);
  std::vector<std::vector<double>> solutions;
  solutions.reserve(values.size());
  OpOptions opts = options;
  for (double v : values) {
    // Budget-bounded sweep: remaining points degrade to "non-converged"
    // (empty) so the result keeps its one-entry-per-value contract.
    if (budget_ != nullptr && budget_->check()) {
      solutions.emplace_back();
      continue;
    }
    src.wave = Waveform::dc(v);
    const OpResult op = op_with(ws, opts);
    if (op.converged) {
      solutions.push_back(op.x);
      opts.initial_guess = op.x;  // continuation
    } else {
      solutions.emplace_back();
      opts.initial_guess.clear();
    }
  }
  src.wave = saved;
  report_counts(ws.lu);
  return solutions;
}

std::vector<MosOperatingPoint> Simulator::mos_operating_points(
    const std::vector<double>& x) const {
  OLP_CHECK(static_cast<int>(x.size()) == n_unknowns(),
            "solution vector size mismatch (non-converged sweep point?)");
  std::vector<MosOperatingPoint> ops;
  ops.reserve(circuit_.mosfets().size());
  for (const Mosfet& m : circuit_.mosfets()) {
    ops.push_back(eval_mosfet(m, x));
  }
  return ops;
}

AcResult Simulator::ac(const std::vector<double>& op_x,
                       const AcOptions& options) const {
  obs::Span span("sim.ac");
  obs::counter_add("sim.ac");
  obs::record("sim.ac.frequencies",
              static_cast<double>(options.frequencies.size()));
  SimStats::global().ac_count++;
  const int n = n_unknowns();
  const int nn = circuit_.node_count() - 1;
  OLP_CHECK(static_cast<int>(op_x.size()) == n, "ac needs an OP solution");

  using C = std::complex<double>;
  auto addc_g = [](std::vector<C>& v, const int* s, C g) {
    add(v, s[0], g);
    add(v, s[1], g);
    add(v, s[2], -g);
    add(v, s[3], -g);
  };

  // Small-signal MOS parameters are bias-only; compute them once.
  const std::vector<MosOperatingPoint> mos_ops = mos_operating_points(op_x);

  AcResult result;
  result.frequencies = options.frequencies;
  result.solutions.reserve(options.frequencies.size());

  std::vector<C> a(static_cast<std::size_t>(pattern_.nnz()));
  std::vector<C> b(static_cast<std::size_t>(n));
  linalg::SparseLu<C> lu(pattern_);
  for (double freq : options.frequencies) {
    OLP_CHECK(freq > 0.0, "AC frequency must be positive");
    const double omega = 2.0 * M_PI * freq;
    std::fill(a.begin(), a.end(), C{});
    std::fill(b.begin(), b.end(), C{});

    for (std::size_t k = 0; k < circuit_.resistors().size(); ++k) {
      addc_g(a, slots(res_at_, 4, k),
             C{1.0 / circuit_.resistors()[k].r, 0.0});
    }
    for (std::size_t k = 0; k < caps_.size(); ++k) {
      addc_g(a, slots(cap_at_, 4, k), C{0.0, omega * caps_[k].c});
    }
    for (std::size_t k = 0; k < circuit_.vccs().size(); ++k) {
      const Vccs& g = circuit_.vccs()[k];
      const int* s = slots(vccs_at_, 4, k);
      add(a, s[0], C{g.gm, 0});
      add(a, s[1], C{-g.gm, 0});
      add(a, s[2], C{-g.gm, 0});
      add(a, s[3], C{g.gm, 0});
    }
    for (std::size_t k = 0; k < circuit_.mosfets().size(); ++k) {
      const MosOperatingPoint& op = mos_ops[k];
      const int* s = slots(mos_at_, 6, k);
      add(a, s[0], C{op.gm, 0});
      add(a, s[1], C{op.gds, 0});
      add(a, s[2], C{-(op.gm + op.gds), 0});
      add(a, s[3], C{-op.gm, 0});
      add(a, s[4], C{-op.gds, 0});
      add(a, s[5], C{op.gm + op.gds, 0});
    }
    for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
      const VSource& v = circuit_.vsources()[k];
      const int* s = slots(vsrc_at_, 4, k);
      add(a, s[0], C{1, 0});
      add(a, s[1], C{-1, 0});
      add(a, s[2], C{1, 0});
      add(a, s[3], C{-1, 0});
      if (v.ac_mag != 0.0) {
        b[static_cast<std::size_t>(nn) + k] = std::polar(v.ac_mag, v.ac_phase);
      }
    }
    for (const ISource& i : circuit_.isources()) {
      if (i.ac_mag == 0.0) continue;
      const C val = std::polar(i.ac_mag, i.ac_phase);
      if (i.p > 0) b[static_cast<std::size_t>(i.p - 1)] -= val;
      if (i.n > 0) b[static_cast<std::size_t>(i.n - 1)] += val;
    }
    for (std::size_t k = 0; k < circuit_.vcvs().size(); ++k) {
      const Vcvs& e = circuit_.vcvs()[k];
      const int* s = slots(vcvs_at_, 6, k);
      add(a, s[0], C{1, 0});
      add(a, s[1], C{-1, 0});
      add(a, s[2], C{1, 0});
      add(a, s[3], C{-1, 0});
      add(a, s[4], C{-e.gain, 0});
      add(a, s[5], C{e.gain, 0});
    }
    // Tiny conductance to ground keeps isolated internal nodes solvable.
    for (int k = 0; k < nn; ++k) {
      add(a, slots_[diag_at_ + static_cast<std::size_t>(k)], C{1e-12, 0});
    }

    std::vector<C> x;
    if (lu.factor(a)) {
      lu.solve(b, x);
    } else {
      // Recoverable: report and emit a zero solution at this frequency so
      // callers see a degraded (not aborted) sweep.
      OLP_WARN << "AC system singular at f=" << freq;
      if (diag_) {
        diag_->report(DiagSeverity::kError, "simulator", "ac",
                      "AC system singular at f=" + std::to_string(freq) +
                          "; emitting zero solution");
      }
      x.assign(static_cast<std::size_t>(n), C{});
    }
    result.solutions.push_back(std::move(x));
  }
  report_counts(lu);
  return result;
}

TranResult Simulator::tran(const TranOptions& options) const {
  obs::Span span("sim.tran");
  obs::counter_add("sim.tran");
  // One workspace for the t=0 operating point and every attempt: they all
  // stamp the same pattern, so the recorded pivots carry over.
  Workspace ws(*this);
  TranResult r = tran_attempt(ws, options);

  // Retry ladder: backward Euler (maximum damping) with a halved timestep on
  // each attempt. Engages only when an attempt reports ok=false, so flows
  // whose transients converge first try are unaffected.
  TranOptions retry = options;
  for (int attempt = 1; attempt <= options.max_retries && !r.ok &&
                        !(budget_ != nullptr && budget_->check());
       ++attempt) {
    retry.backward_euler = true;
    retry.dt *= 0.5;
    obs::counter_add("sim.tran.retries");
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "simulator", "tran",
                    "transient attempt " + std::to_string(attempt) +
                        " failed; retrying with backward Euler, dt=" +
                        std::to_string(retry.dt));
    }
    r = tran_attempt(ws, retry);
  }
  if (!r.ok) {
    obs::counter_add("sim.tran.failed");
    if (diag_) {
      diag_->report(DiagSeverity::kError, "simulator", "tran",
                    "transient failed after " +
                        std::to_string(options.max_retries) + " retries");
    }
  }
  report_counts(ws.lu);
  return r;
}

TranResult Simulator::tran_attempt(Workspace& ws,
                                   const TranOptions& options) const {
  obs::counter_add("sim.tran.attempts");
  SimStats::global().tran_count++;
  OLP_CHECK(options.dt > 0 && options.tstop > options.dt &&
                options.record_stride > 0,
            "transient needs dt > 0, tstop > dt and record_stride > 0");
  for (const NodeId node : options.probes) {
    OLP_CHECK(node > 0 && node < circuit_.node_count(),
              "transient probes must be non-ground nodes of the circuit");
  }
  const int n = n_unknowns();
  const int nn = circuit_.node_count() - 1;

  TranResult result;
  result.probes = options.probes;
  result.traces.resize(options.probes.size());
  // Appends the sample at time t: the full vector, or the probed voltages.
  auto record = [&](double t, const std::vector<double>& x) {
    result.times.push_back(t);
    if (!result.probed()) {
      result.samples.push_back(x);
      return;
    }
    for (std::size_t j = 0; j < result.probes.size(); ++j) {
      result.traces[j].push_back(
          x[static_cast<std::size_t>(result.probes[j] - 1)]);
    }
  };

  if (FaultInjector::global().should_fail(FaultSite::kTranNonConvergence)) {
    if (diag_) {
      diag_->report(DiagSeverity::kWarning, "chaos",
                    fault_site_name(FaultSite::kTranNonConvergence),
                    "injected transient non-convergence");
    }
    record(0.0, std::vector<double>(static_cast<std::size_t>(n), 0.0));
    return result;
  }

  // Initial state.
  std::vector<double> x;
  if (options.start_from_op) {
    OpResult op0 = op_with(ws, OpOptions{});
    if (!op0.converged) {
      OLP_WARN << "transient: t=0 operating point failed to converge";
    }
    x = std::move(op0.x);
  } else {
    x.assign(static_cast<std::size_t>(n), 0.0);
  }
  // Node initial conditions override the OP (ring-symmetry kick).
  for (const auto& [node, value] : circuit_.initial_conditions()) {
    x[static_cast<std::size_t>(node - 1)] = value;
  }
  for (const LinearCap& c : caps_) {
    if (!c.use_ic) continue;
    // Force v(a) - v(b) = ic by shifting node a when possible.
    if (c.a > 0) {
      const double vb = c.b > 0 ? x[static_cast<std::size_t>(c.b - 1)] : 0.0;
      x[static_cast<std::size_t>(c.a - 1)] = vb + c.ic;
    }
  }

  record(0.0, x);

  // Per-capacitor branch current state (for trapezoidal integration).
  std::vector<double> icap(caps_.size(), 0.0);
  auto cap_voltage = [&](const LinearCap& c, const std::vector<double>& v) {
    const double va = c.a > 0 ? v[static_cast<std::size_t>(c.a - 1)] : 0.0;
    const double vb = c.b > 0 ? v[static_cast<std::size_t>(c.b - 1)] : 0.0;
    return va - vb;
  };

  const double h = options.dt;
  const long steps = static_cast<long>(std::ceil(options.tstop / h));

  // One Newton solve of the companion system at time `t_at` with step
  // `h_at`, integrating from `x_prev` (+ cap currents icap for trapezoidal).
  auto newton_solve = [&](double t_at, double h_at, bool trapezoidal,
                          const std::vector<double>& x_prev,
                          std::vector<double>& x_out) -> bool {
    x_out = x_prev;  // warm start
    cap_companions(ws, x_prev, icap, h_at, trapezoidal);
    for (int iter = 0; iter < options.max_newton; ++iter) {
      assemble_tran(ws, x_out, t_at);
      if (!ws.lu.factor(ws.a)) return false;
      ws.lu.solve(ws.b, ws.x);

      bool within_tol = true;
      for (int k = 0; k < n; ++k) {
        const std::size_t ks = static_cast<std::size_t>(k);
        double delta = ws.x[ks] - x_out[ks];
        if (k < nn) {
          delta = std::clamp(delta, -0.5, 0.5);
          if (std::fabs(delta) > 1e-7 + 1e-5 * std::fabs(x_out[ks])) {
            within_tol = false;
          }
        }
        x_out[ks] += delta;
      }
      if (within_tol && iter > 0) return true;
    }
    return false;
  };

  auto update_icap = [&](bool trapezoidal, double h_at,
                         const std::vector<double>& x_prev,
                         const std::vector<double>& x_next) {
    for (std::size_t k = 0; k < caps_.size(); ++k) {
      const LinearCap& c = caps_[k];
      if (c.c <= 0) continue;
      const double dv = cap_voltage(c, x_next) - cap_voltage(c, x_prev);
      if (trapezoidal) {
        icap[k] = 2.0 * c.c / h_at * dv - icap[k];
      } else {
        icap[k] = c.c / h_at * dv;
      }
    }
  };

  // Every exit reports the steps taken once, not once per step.
  auto finish = [&](bool ok, long taken) {
    obs::counter_add("sim.tran.steps", taken);
    result.ok = ok;
    return std::move(result);
  };

  long recorded = 0;
  std::vector<double> x_new;
  for (long step = 1; step <= steps; ++step) {
    // Budget-bounded timestepping: a truncated transient is reported as
    // ok=false so callers degrade instead of trusting partial waveforms.
    if (budget_ != nullptr && budget_->check()) return finish(false, step - 1);
    const double t = static_cast<double>(step) * h;
    // First step uses backward Euler (no valid cap-current history yet).
    const bool trapezoidal = !options.backward_euler && step > 1;

    if (newton_solve(t, h, trapezoidal, x, x_new)) {
      update_icap(trapezoidal, h, x, x_new);
    } else if (newton_solve(t, h, false, x, x_new)) {
      // Trapezoidal ringing: fall back to (damped) backward Euler.
      update_icap(false, h, x, x_new);
    } else {
      // Stiff corner: subdivide the step with backward Euler.
      constexpr int kSubsteps = 4;
      const double hs = h / kSubsteps;
      std::vector<double> x_sub = x;
      bool ok = true;
      for (int j = 1; j <= kSubsteps; ++j) {
        const double tj = t - h + j * hs;
        std::vector<double> x_tmp;
        if (!newton_solve(tj, hs, false, x_sub, x_tmp)) {
          ok = false;
          break;
        }
        update_icap(false, hs, x_sub, x_tmp);
        x_sub = std::move(x_tmp);
      }
      if (!ok) {
        OLP_WARN << "transient Newton failed at t=" << t;
        if (diag_) {
          diag_->report(DiagSeverity::kWarning, "simulator", "tran",
                        "transient Newton failed at t=" + std::to_string(t));
        }
        return finish(false, step - 1);
      }
      x_new = std::move(x_sub);
    }

    x.swap(x_new);
    ++recorded;
    if (recorded % options.record_stride == 0 || step == steps) {
      record(t, x);
      if (options.stop && options.stop(result)) {
        obs::counter_add("sim.tran.stopped");
        return finish(true, step);
      }
    }
  }
  return finish(true, steps);
}

}  // namespace olp::spice
