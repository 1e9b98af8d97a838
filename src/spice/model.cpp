#include "spice/model.hpp"

#include "util/error.hpp"

namespace olp::spice {

namespace {
// Smooth |x| used for channel-length modulation so the model stays C^1 at
// vds = 0 (important for Newton convergence on pass devices that cross zero):
// |x| ~ sqrt(x^2 + eps^2) - eps, with derivative x / sqrt(x^2 + eps^2).
constexpr double kAbsEps = 1e-3;
}  // namespace

MosEval mos_eval(const MosModel& model, double vgs, double vds, double w,
                 double l, double delta_vth, double mobility_mult) {
  OLP_CHECK(w > 0 && l > 0, "MOS device needs positive W and L");

  const double vt = model.vt_thermal;
  const double n = model.nslope;
  const double vth = model.vth0 + delta_vth;
  const double ispec = 2.0 * n * model.kp * mobility_mult * vt * vt * (w / l);

  // The EKV forward/reverse decomposition is inherently drain/source
  // symmetric: for vds < 0 the reverse term dominates and Id flips sign with
  // no special-casing. Only channel-length modulation needs |vds|, smoothed
  // so the characteristic stays differentiable at vds = 0.
  const double uf = (vgs - vth) / (n * vt);
  const double ur = (vgs - vth - n * vds) / (n * vt);

  const Ekv fwd = ekv(uf);
  const Ekv rev = ekv(ur);

  const double lam = model.lambda * (model.lref / l);
  const double root = std::sqrt(vds * vds + kAbsEps * kAbsEps);
  const double clm = 1.0 + lam * (root - kAbsEps);
  const double dclm = lam * (vds / root);

  MosEval e;
  e.id = ispec * (fwd.f - rev.f) * clm;
  e.gm = ispec * (fwd.df - rev.df) / (n * vt) * clm;
  e.gds = ispec * (rev.df / vt * clm + (fwd.f - rev.f) * dclm);
  return e;
}

}  // namespace olp::spice
