#include "kvstore/fold.hpp"

#include <cmath>

#include "common/error.hpp"

namespace perfq::kv {

void FoldKernel::update(StateVector& state, const WireRecordView& rec) const {
  const PacketRecord eager = materialized(rec);
  update(state, eager);
}

AffineTransform FoldKernel::transform(std::span<const PacketRecord> /*window*/) const {
  throw InternalError{"FoldKernel::transform called on a non-linear kernel: " +
                      name()};
}

SmallMatrix FoldKernel::constant_a() const {
  throw InternalError{"FoldKernel::constant_a called on kernel without fixed A: " +
                      name()};
}

bool transform_matches_update(const FoldKernel& kernel, const StateVector& state,
                              std::span<const PacketRecord> window,
                              double tolerance) {
  check(window.size() == kernel.history_window() + 1,
        "transform_matches_update: wrong window size");

  StateVector via_update = state;
  kernel.update(via_update, window.back());

  const AffineTransform t = kernel.transform(window);
  StateVector via_affine = t.a.apply(state);
  via_affine += t.b;

  if (via_update.dims() != via_affine.dims()) return false;
  for (std::size_t i = 0; i < via_update.dims(); ++i) {
    if (std::isinf(via_update[i]) && std::isinf(via_affine[i]) &&
        std::signbit(via_update[i]) == std::signbit(via_affine[i])) {
      continue;
    }
    const double diff = std::abs(via_update[i] - via_affine[i]);
    const double scale = std::max(1.0, std::abs(via_update[i]));
    if (!(diff <= tolerance * scale)) return false;
  }
  return true;
}

}  // namespace perfq::kv
