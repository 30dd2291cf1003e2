#include "circuits.h"

#include <array>

namespace perfbench {

using namespace bgls;

namespace {

/// Random CX/CZ on each pair of a fresh random perfect matching.
void entangle(Circuit& c, std::vector<Qubit>& order, Rng& rng) {
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_int(i + 1)]);
  }
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    c.append(Operation(rng.uniform() < 0.5 ? Gate::CX() : Gate::CZ(),
                       {order[i], order[i + 1]}));
  }
}

/// Brickwork skeleton; `t_gates` adds the T of each round.
Circuit layered(int n, int rounds, bool t_gates, Rng& rng) {
  const std::array<Gate, 4> phase = {Gate::X(), Gate::Y(), Gate::Z(),
                                     Gate::S()};
  std::vector<Qubit> order(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) order[static_cast<std::size_t>(q)] = q;
  Circuit c;
  for (int q = 0; q < n; ++q) c.append(h(q));
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < n; ++q) {
      c.append(Operation(phase[rng.uniform_int(phase.size())], {q}));
      if (t_gates) c.append(t(q));
      c.append(h(q));
    }
    entangle(c, order, rng);
  }
  return c;
}

}  // namespace

Circuit brickwork(int n, int rounds, Rng& rng) {
  return layered(n, rounds, true, rng);
}

Circuit clifford_brickwork(int n, int rounds, Rng& rng) {
  return layered(n, rounds, false, rng);
}

Circuit chain(int n, Rng& rng) {
  Circuit c;
  for (int q = 0; q < n; ++q) c.append(h(q));
  for (int q = 0; q + 1 < n; q += 2) c.append(cz(q, q + 1));
  for (int q = 0; q < n; ++q) {
    c.append(q == 0 || rng.uniform() < 0.5 ? t(q) : s(q));
  }
  return c;
}

Circuit measured(Circuit circuit, int n) {
  std::vector<Qubit> all;
  for (int q = 0; q < n; ++q) all.push_back(q);
  circuit.append(measure(all, "m"));
  return circuit;
}

}  // namespace perfbench
