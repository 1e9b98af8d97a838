#pragma once
// Global routing over a g-cell grid.
//
// The router works on a 3D grid (x, y, metal layer) with per-layer preferred
// directions, via costs, and soft congestion penalties. Multi-pin nets are
// routed incrementally: each additional pin is connected to the partial tree
// by a search whose target is the entire tree (so Steiner points emerge
// naturally — paper Sec. III-B1 requires Steiner-aware routes).
//
// Output per net: the wire segments (layer + endpoints), total length per
// layer and via count — exactly the information primitive port optimization
// consumes ("distance, layer and via information provided by the global
// router").
//
// Entry point: ONE call, route(net, pins, RouteRequest). The search always
// spans the full grid; the request only chooses whether a failed attempt is
// retried on a fallback grid widened to every routing layer.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geom/geometry.hpp"
#include "tech/technology.hpp"

namespace olp {
class Budget;
class DiagnosticsSink;
}

namespace olp::route {

/// One straight routed segment on a metal layer (endpoints in nm).
struct RouteSegment {
  tech::Layer layer = tech::Layer::kM1;
  geom::Point a;
  geom::Point b;
  /// Segment length [m].
  double length() const { return geom::to_meters(geom::manhattan(a, b)); }
};

/// The routed tree of one net.
struct NetRoute {
  std::string net;
  std::vector<RouteSegment> segments;
  int vias = 0;
  bool routed = false;

  /// Total wire length on one layer [m].
  double length_on(tech::Layer layer) const;
  /// Total wire length across layers [m].
  double total_length() const;
  /// Layer carrying the most wirelength (the paper quotes routes as
  /// "on metal 3, 2 um long"); defaults to M3 for empty routes.
  tech::Layer dominant_layer() const;
};

struct RouterOptions {
  double gcell_size = 200e-9;  ///< grid pitch [m]
  int min_layer = 2;           ///< lowest routing metal index (0 = M1); the
                               ///< paper's global routes run on M3 and up
  int max_layer = 4;           ///< highest routing metal index
  double via_cost = 2.0;       ///< in units of gcell steps
  double congestion_cost = 4.0;///< extra cost per unit overflow
  int edge_capacity = 8;       ///< tracks per gcell edge per layer
};

/// Everything one route(...) call needs beyond the net and its pins. The
/// defaults reproduce the bare route(): no retry, no instrumentation
/// envelope.
struct RouteRequest {
  /// Full-service per-net entry: wraps the attempt in the "router.net" span
  /// + router.* counters and, when the primary attempt fails and the layer
  /// window is not already maximal, retries once on a fallback grid widened
  /// to every routing layer. A net that still fails carries an error
  /// diagnostic. Budget exhaustion skips the retry.
  bool with_fallback = false;
};

/// Grid-based global router for a fixed region.
class GlobalRouter {
 public:
  /// `region` is the placement bounding box in nm (expanded internally by
  /// one gcell of halo).
  GlobalRouter(const tech::Technology& technology, geom::Rect region,
               RouterOptions options = {});

  /// THE routing entry point. Routes a net over the given pin locations
  /// (nm) as described by `request`; updates congestion so later nets avoid
  /// used edges. Pins are snapped to the nearest gcell.
  NetRoute route(const std::string& net_name,
                 const std::vector<geom::Point>& pins,
                 const RouteRequest& request);

  /// Attaches a diagnostics sink (may be null to detach); the sink must
  /// outlive the router.
  void set_diagnostics(DiagnosticsSink* sink);

  /// Attaches an execution budget (may be null to detach). Exhaustion stops
  /// per-pin tree growth (the net is reported routed=false) and skips the
  /// widened-layer fallback retry.
  void set_budget(Budget* budget);

  /// Sum over all edges of max(0, usage - capacity). Zero means every edge
  /// fits its tracks.
  long total_overflow() const;

  /// Fraction of edges at or above capacity.
  double congestion_ratio() const;

  int width() const { return nx_; }
  int height() const { return ny_; }
  int layers() const { return nl_; }
  const RouterOptions& options() const { return opt_; }

 private:
  int index(int x, int y, int l) const { return (l * ny_ + y) * nx_ + x; }
  bool layer_horizontal(int l) const;
  std::pair<int, int> snap(geom::Point p) const;

  /// One routing attempt on this grid: the chaos draw, then the per-net
  /// heap Dijkstra that grows the tree pin by pin.
  NetRoute route_classic(const std::string& net_name,
                         const std::vector<geom::Point>& pins);

  const tech::Technology& tech_;
  RouterOptions opt_;
  geom::Rect region_;
  /// The caller's region before halo expansion (seed for the fallback grid,
  /// which must not apply the halo twice).
  geom::Rect input_region_;
  int nx_ = 0, ny_ = 0, nl_ = 0;
  /// Usage per directed grid edge, stored per node per direction
  /// (0:+x, 1:+y); via usage is not capacity-limited.
  std::vector<int> usage_x_;
  std::vector<int> usage_y_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;
  /// Lazily created widened-layer-window router for the fallback retry.
  std::unique_ptr<GlobalRouter> fallback_;
};

}  // namespace olp::route
