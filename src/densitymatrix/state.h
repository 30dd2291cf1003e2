/// \file state.h
/// Density-matrix simulation state — the counterpart of
/// cirq.DensityMatrixSimulationState, listed in the paper's conclusion as
/// one of the representations bgls ships probability functions for.
///
/// ρ is stored dense (2^n x 2^n, row-major, the statevector's bit
/// convention) and read as the 2n-qubit vector vec(ρ), so M ρ M† is two
/// statevector-kernel passes: M on the row bits, conj(M) on the column
/// bits. Channels can be applied exactly (Kraus sum), which makes this
/// backend the ground truth that the trajectory tests compare against;
/// in sampler use, channels branch per-Kraus exactly like the pure-state
/// backends so the hidden-variable coupling stays valid.

#pragma once

#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "util/bits.h"
#include "util/rng.h"

namespace bgls {

/// Dense density matrix on n qubits.
class DensityMatrixState {
 public:
  /// Initializes |initial⟩⟨initial|.
  explicit DensityMatrixState(int num_qubits, Bitstring initial = 0);

  [[nodiscard]] int num_qubits() const { return num_qubits_; }
  [[nodiscard]] std::size_t dimension() const { return dim_; }

  /// Entry ρ(r, c).
  [[nodiscard]] Complex entry(Bitstring r, Bitstring c) const {
    return rho_[r * dim_ + c];
  }

  /// P(b) = ρ_bb — the compute_probability ingredient.
  [[nodiscard]] double probability(Bitstring b) const;

  /// Applies a unitary operation: ρ → U ρ U†.
  void apply(const Operation& op);

  /// Applies a raw matrix (not necessarily unitary): ρ → M ρ M†, without
  /// renormalizing. Used for Kraus branches.
  void apply_matrix(const Matrix& m, std::span<const Qubit> qubits);

  /// Applies a channel exactly: ρ → Σ_i K_i ρ K_i†.
  void apply_channel_sum(const KrausChannel& channel,
                         std::span<const Qubit> qubits);

  /// Projects the listed qubits onto the bits of `bits`, renormalizing.
  void project(std::span<const Qubit> qubits, Bitstring bits);

  /// tr(ρ).
  [[nodiscard]] double trace() const;

  /// Scales so tr(ρ) = 1.
  void renormalize();

  /// tr(ρ²) — 1 for pure states.
  [[nodiscard]] double purity() const;

  /// Full diagonal as a probability vector.
  [[nodiscard]] std::vector<double> probabilities() const;

  /// Samples a bitstring from the diagonal.
  [[nodiscard]] Bitstring sample(Rng& rng) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::vector<Complex> rho_;
};

/// BGLS `apply_op` for density matrices: unitaries exactly; channels as
/// per-Kraus trajectories (the exact Kraus sum is available separately
/// through apply_channel_sum for reference simulations).
void apply_op(const Operation& op, DensityMatrixState& state, Rng& rng);

/// BGLS `compute_probability` for density matrices.
[[nodiscard]] double compute_probability(const DensityMatrixState& state,
                                         Bitstring b);

/// Evolves through all non-measurement operations; channels applied
/// exactly (deterministic reference evolution).
void evolve_exact(const Circuit& circuit, DensityMatrixState& state);

}  // namespace bgls
