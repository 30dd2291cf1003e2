/// \file test_helpers.h
/// Brute-force reference implementations used by the cross-representation
/// property tests: full-unitary circuit evolution through explicit
/// matrix embeddings, independent of every simulator backend.

#pragma once

#include <vector>

#include "circuit/circuit.h"
#include "linalg/matrix.h"
#include "util/bits.h"
#include "util/stats.h"

namespace bgls::testing {

/// Gate-local index of a full basis index (qubits[0] = most significant
/// gate bit, matching gate.h's convention).
inline std::size_t local_index(std::size_t basis,
                               std::span<const Qubit> qubits) {
  std::size_t local = 0;
  for (std::size_t j = 0; j < qubits.size(); ++j) {
    local = (local << 1) |
            ((basis >> static_cast<std::size_t>(qubits[j])) & 1u);
  }
  return local;
}

/// Embeds a gate-local matrix acting on `qubits` into the full 2^n space.
inline Matrix embed_matrix(const Matrix& m, std::span<const Qubit> qubits,
                           int num_qubits) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  std::size_t support_mask = 0;
  for (const Qubit q : qubits) {
    support_mask |= std::size_t{1} << static_cast<std::size_t>(q);
  }
  Matrix full(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if ((r & ~support_mask) != (c & ~support_mask)) continue;
      full(r, c) = m(local_index(r, qubits), local_index(c, qubits));
    }
  }
  return full;
}

/// Embeds an operation's unitary into the full 2^n space.
inline Matrix embed_operation(const Operation& op, int num_qubits) {
  return embed_matrix(op.gate().unitary(), op.qubits(), num_qubits);
}

/// Full-circuit unitary (skips measurements; throws on channels).
inline Matrix circuit_unitary(const Circuit& circuit, int num_qubits) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  Matrix u = Matrix::identity(dim);
  for (const auto& op : circuit.all_operations()) {
    if (op.gate().is_measurement()) continue;
    u = embed_operation(op, num_qubits) * u;
  }
  return u;
}

/// Final statevector from |initial⟩ by brute-force matrix application.
inline std::vector<Complex> ideal_statevector(const Circuit& circuit,
                                              int num_qubits,
                                              Bitstring initial = 0) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  std::vector<Complex> psi(dim, Complex{0.0, 0.0});
  psi[initial] = Complex{1.0, 0.0};
  for (const auto& op : circuit.all_operations()) {
    if (op.gate().is_measurement()) continue;
    psi = embed_operation(op, num_qubits).apply(psi);
  }
  return psi;
}

/// Exact output distribution over all 2^n bitstrings.
inline Distribution ideal_distribution(const Circuit& circuit,
                                       int num_qubits) {
  const auto psi = ideal_statevector(circuit, num_qubits);
  Distribution dist;
  for (std::size_t b = 0; b < psi.size(); ++b) {
    const double p = std::norm(psi[b]);
    if (p > 1e-15) dist[b] = p;
  }
  return dist;
}

/// Exact distribution restricted to a measured-qubit subset, packed in
/// key order (bit j of the packed outcome = qubits[j]).
inline Distribution ideal_marginal_distribution(const Circuit& circuit,
                                                int num_qubits,
                                                std::span<const Qubit> qubits) {
  const auto full = ideal_distribution(circuit, num_qubits);
  Distribution marginal;
  for (const auto& [bits, p] : full) {
    Bitstring packed = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      packed = with_bit(packed, static_cast<int>(j), get_bit(bits, qubits[j]));
    }
    marginal[packed] += p;
  }
  return marginal;
}

}  // namespace bgls::testing
