#pragma once
// Modified-nodal-analysis simulator: DC operating point (Newton with gmin and
// source stepping), DC sweeps, small-signal AC, and transient analysis with
// trapezoidal/backward-Euler integration.
//
// Unknown ordering: node voltages for nodes 1..N-1 first, then one branch
// current per independent voltage source, then one per VCVS.
//
// The MNA matrix has one sparsity pattern per topology, built at
// construction together with the slot of every device stamp in it. Each
// analysis owns a workspace (slot values, right-hand side, sparse LU and
// its recorded pivots) that its Newton iterations and time steps reuse.

#include <atomic>
#include <complex>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "linalg/sparse_lu.hpp"
#include "spice/circuit.hpp"

namespace olp {
class Budget;
class DiagnosticsSink;
}

namespace olp::spice {

/// Options for the DC operating-point solve.
struct OpOptions {
  int max_iterations = 200;
  double vtol_abs = 1e-9;   ///< absolute voltage convergence tolerance [V]
  double vtol_rel = 1e-6;   ///< relative voltage convergence tolerance
  double damping = 0.3;     ///< max node-voltage update per Newton step [V]
  double gmin_floor = 1e-12;  ///< permanent node-to-ground conductance [S]
  /// Warm-start solution (full unknown vector); empty = start from zero.
  std::vector<double> initial_guess;
};

/// Result of a DC operating point.
struct OpResult {
  bool converged = false;
  int iterations = 0;
  /// Full unknown vector (node voltages then branch currents).
  std::vector<double> x;
};

/// One MOSFET's small-signal state at the operating point.
struct MosOperatingPoint {
  double id = 0.0;   ///< physical drain current into the drain terminal [A]
  double gm = 0.0;
  double gds = 0.0;
  double vgs = 0.0;  ///< actual node-voltage difference vg - vs [V]
  double vds = 0.0;
};

struct AcOptions {
  std::vector<double> frequencies;  ///< analysis frequencies [Hz]
};

struct AcResult {
  std::vector<double> frequencies;
  /// solutions[k] is the full complex unknown vector at frequencies[k].
  std::vector<std::vector<std::complex<double>>> solutions;
};

struct TranResult;

/// A transient's stop condition (TranOptions::stop).
using TranStop = std::function<bool(const TranResult& so_far)>;

struct TranOptions {
  double tstop = 1e-9;    ///< simulation end time [s]
  double dt = 1e-12;      ///< fixed timestep [s]
  int record_stride = 1;  ///< keep every k-th sample (k > 0)
  /// When true, the initial state is the DC operating point at t = 0 with any
  /// node initial conditions overriding the OP values (this is how the VCO
  /// testbench breaks ring symmetry).
  bool start_from_op = true;
  int max_newton = 80;
  /// Use backward Euler throughout instead of trapezoidal (more damping).
  bool backward_euler = false;
  /// On ok=false, retry this many times with backward Euler and halved dt
  /// before giving up (0 disables the ladder).
  int max_retries = 2;
  /// Stop condition, checked after each recorded sample with the samples
  /// recorded so far; returning true ends the attempt there with ok = true.
  /// Empty (the default) runs to `tstop`. Every retry attempt restarts from
  /// t = 0 and calls it again, so it must be a pure function of the samples.
  /// A run that would have failed only after its stop fires no longer
  /// triggers the retry ladder: its result is the stopped prefix.
  TranStop stop;
  /// Nodes to record. Empty (the default) records the full unknown vector
  /// at every sample; otherwise the result holds only these nodes'
  /// voltages, in this order (TranResult::probes and traces), which is all
  /// a caller that reads a few waveforms needs.
  std::vector<NodeId> probes;
};

struct TranResult {
  bool ok = false;
  std::vector<double> times;
  /// samples[k] is the full unknown vector at times[k]. Empty when the
  /// result is probed.
  std::vector<std::vector<double>> samples;
  /// The nodes a probed result holds (TranOptions::probes); empty when it
  /// holds full samples instead.
  std::vector<NodeId> probes;
  /// traces[j][k] is the voltage of probes[j] at times[k].
  std::vector<std::vector<double>> traces;

  bool probed() const { return !probes.empty(); }
  /// The recorded voltage of `node` at every sample of a probed result.
  /// Throws InvalidArgumentError when the result is not probed or does not
  /// hold `node`.
  const std::vector<double>& trace(NodeId node) const;
};

/// One real MNA system as the analyses stamp it: the value of every slot of
/// Simulator::pattern(), and the right-hand side.
struct MnaSystem {
  std::vector<double> values;
  std::vector<double> rhs;
};

/// Process-wide analysis counters; the flow reports these in Table V / VIII.
/// Atomic so concurrent TaskPool evaluations merge instead of racing.
struct SimStats {
  std::atomic<long> op_count{0};
  std::atomic<long> ac_count{0};
  std::atomic<long> tran_count{0};
  long total() const { return op_count + ac_count + tran_count; }
  void reset() {
    op_count = 0;
    ac_count = 0;
    tran_count = 0;
  }
  static SimStats& global();
};

/// The analysis engine. Holds a reference to the circuit; the circuit must
/// outlive the simulator and not change structurally between analyses
/// (changing device *values* and re-running is allowed and cheap).
class Simulator {
 public:
  /// `diagnostics` (optional, may be null) receives structured records for
  /// recoverable failures and engaged fallbacks; the sink must outlive the
  /// simulator. `budget` (optional, may be null) bounds the Newton/timestep
  /// loops: when it reports exhaustion the analysis returns its current
  /// (non-converged) state instead of iterating further.
  explicit Simulator(const Circuit& circuit,
                     DiagnosticsSink* diagnostics = nullptr,
                     Budget* budget = nullptr);

  /// DC operating point with robust continuation (plain Newton, then gmin
  /// stepping, then source stepping).
  OpResult op(const OpOptions& options = {}) const;

  /// DC sweep of one voltage source: repeated operating points with
  /// continuation (each point warm-starts from the previous solution).
  /// Returns one solution vector per value; non-converged points are empty.
  std::vector<std::vector<double>> dc_sweep(
      const std::string& vsource, const std::vector<double>& values,
      const OpOptions& options = {}) const;

  /// Node voltage / branch current accessors for a solution vector.
  double voltage(const std::vector<double>& x, NodeId node) const;
  double vsource_current(const std::vector<double>& x,
                         const std::string& name) const;
  std::complex<double> ac_voltage(
      const std::vector<std::complex<double>>& x, NodeId node) const;
  std::complex<double> ac_vsource_current(
      const std::vector<std::complex<double>>& x,
      const std::string& name) const;

  /// Small-signal state of every MOSFET at the given operating point.
  std::vector<MosOperatingPoint> mos_operating_points(
      const std::vector<double>& x) const;

  /// Small-signal AC sweep around the operating point `op_x` (run op() first).
  AcResult ac(const std::vector<double>& op_x, const AcOptions& options) const;

  /// Transient analysis. On non-convergence, retries up to
  /// `options.max_retries` times with backward Euler and a halved timestep
  /// (each retry is reported to the diagnostics sink) before returning
  /// ok=false.
  TranResult tran(const TranOptions& options) const;

  const Circuit& circuit() const { return circuit_; }

  /// The sparsity pattern of this topology's MNA matrix (DC, AC and
  /// transient systems all stamp into it).
  const linalg::SparsePattern& pattern() const { return pattern_; }

  /// The system one op() Newton iteration at iterate `x` solves, with
  /// sources at their DC values and `gmin` added to every node's diagonal
  /// (op() passes its stage's gmin plus OpOptions::gmin_floor).
  MnaSystem dc_system(const std::vector<double>& x, double gmin) const;

  /// The system a backward-Euler transient Newton iteration at iterate `x`
  /// solves, for the step of length `h` to time `t` from the state `x_prev`.
  MnaSystem tran_system(const std::vector<double>& x_prev,
                        const std::vector<double>& x, double t,
                        double h) const;

 private:
  struct LinearCap {
    NodeId a = 0, b = 0;
    double c = 0.0;
    double ic = 0.0;
    bool use_ic = false;
  };
  /// One analysis' real MNA workspace (defined in simulator.cpp).
  struct Workspace;

  int n_unknowns() const { return circuit_.unknown_count(); }

  /// One transient attempt with the given options (no retry ladder).
  TranResult tran_attempt(Workspace& ws, const TranOptions& options) const;

  /// op() on a caller's workspace, with op()'s instrumentation.
  OpResult op_with(Workspace& ws, const OpOptions& options) const;
  /// op() continuation ladder without the instrumentation wrapper.
  OpResult op_impl(Workspace& ws, const OpOptions& options) const;

  /// One Newton solve of the DC system with sources scaled by `source_scale`
  /// and `gmin` to ground on every node. Returns convergence and iterations.
  OpResult newton_dc(Workspace& ws, const OpOptions& options, double gmin,
                     double source_scale,
                     const std::vector<double>& guess) const;

  /// Stamps the static linear devices (R, VCCS, VCVS), then the voltage
  /// sources' matrix entries: the prefix every real system starts from.
  void stamp_base(std::vector<double>& a) const;
  /// Stamps independent source values at time t (or DC) scaled by `scale`.
  void stamp_source_rhs(std::vector<double>& b, double t, double scale) const;
  /// Stamps linearized MOSFETs around the solution `x`.
  void stamp_mosfets(std::vector<double>& a, std::vector<double>& b,
                     const std::vector<double>& x) const;
  /// Computes the capacitors' companion models into `ws` for a step of
  /// length `h` from `x_prev` (trapezoidal with branch currents `icap`, else
  /// backward Euler). They do not depend on the Newton iterate, so every
  /// iteration of one step's solve stamps the same companions.
  void cap_companions(Workspace& ws, const std::vector<double>& x_prev,
                      const std::vector<double>& icap, double h,
                      bool trapezoidal) const;
  /// Stamps the companion models that cap_companions() left in `ws`.
  void stamp_caps(Workspace& ws) const;
  /// Adds `g` to every node's diagonal.
  void stamp_gmin(std::vector<double>& a, double g) const;
  /// The DC Newton system at `x`: base, source values, MOSFETs, gmin.
  void assemble_dc(Workspace& ws, const std::vector<double>& x, double gmin,
                   double source_scale) const;
  /// A transient Newton system at iterate `x` and time `t`, with the
  /// step's companions from cap_companions().
  void assemble_tran(Workspace& ws, const std::vector<double>& x,
                     double t) const;

  /// Effective MOS terminal small-signal quantities (shared by OP/AC paths).
  MosOperatingPoint eval_mosfet(const Mosfet& m,
                                const std::vector<double>& x) const;

  /// All linear capacitances: explicit capacitors plus MOS parasitic caps.
  std::vector<LinearCap> gather_caps() const;

  const Circuit& circuit_;
  std::vector<LinearCap> caps_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;

  /// The slots of device k of the kind whose stamps start at `at` in
  /// slots_, `per` stamps per device.
  const int* slots(std::size_t at, std::size_t per, std::size_t k) const {
    return slots_.data() + at + per * k;
  }

  // The MNA pattern and the slot of every stamp, device by device in stamp
  // order (-1 where a terminal is ground). Resistors and caps stamp (a,a),
  // (b,b), (a,b), (b,a); VCCS (p,cp), (p,cn), (n,cp), (n,cn); V sources
  // (p,br), (n,br), (br,p), (br,n), and VCVS also (br,cp), (br,cn);
  // MOSFETs (d,g), (d,d), (d,s), (s,g), (s,d), (s,s); then (k,k) for
  // every non-ground node.
  linalg::SparsePattern pattern_;
  std::vector<int> slots_;
  std::size_t res_at_ = 0, vccs_at_ = 0, vcvs_at_ = 0, vsrc_at_ = 0,
              mos_at_ = 0, cap_at_ = 0, diag_at_ = 0;
};

}  // namespace olp::spice
