/// \file state.h
/// Dense statevector simulation state — the C++ counterpart of
/// cirq.StateVectorSimulationState used in the paper's quickstart.
///
/// Stores all 2^n amplitudes with the library's bit convention (qubit q
/// at bit q of the index, so Bitstring b indexes amplitude b directly,
/// which makes compute_probability an O(1) lookup — the f(n, d) cost for
/// this backend is dominated by gate application).
///
/// The state exposes the full sampler-state interface: unitary gate
/// application, unnormalized Kraus application (quantum trajectories),
/// computational-basis projection (mid-circuit measurement collapse), and
/// bitstring probabilities. Gate application dispatches through the
/// gate-class-specialized kernels in kernels.h; large passes parallelize
/// over amplitude blocks with OpenMP when compiled with
/// BGLS_HAVE_OPENMP (the BGLS_ENABLE_OPENMP build flag).
///
/// All const accessors (amplitude, probability, amplitudes, ...) are
/// pure reads and safe to call concurrently from many threads while no
/// mutator runs.

#pragma once

#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "util/bits.h"
#include "util/rng.h"

namespace bgls {

/// Dense 2^n-amplitude pure state.
class StateVectorState {
 public:
  /// Initializes |initial⟩ on num_qubits qubits (default |0...0⟩).
  explicit StateVectorState(int num_qubits, Bitstring initial = 0);

  [[nodiscard]] int num_qubits() const { return num_qubits_; }

  /// Dimension 2^n.
  [[nodiscard]] std::size_t dimension() const { return amplitudes_.size(); }

  /// Read-only amplitude view (index = packed Bitstring).
  [[nodiscard]] std::span<const Complex> amplitudes() const {
    return amplitudes_;
  }

  /// ⟨b|ψ⟩.
  [[nodiscard]] Complex amplitude(Bitstring b) const {
    return amplitudes_[b];
  }

  /// |⟨b|ψ⟩|² — the compute_probability ingredient of the BGLS triple.
  [[nodiscard]] double probability(Bitstring b) const;

  /// Applies a unitary operation (resolves nothing: parameters must be
  /// concrete). Throws for measurements and channels — the sampler and
  /// trajectory machinery own those.
  void apply(const Operation& op);

  /// Applies an arbitrary (2^k x 2^k) matrix to the listed qubits without
  /// renormalizing — used for Kraus branches. The gate-local index uses
  /// qubits[0] as the most significant bit (gate.h convention).
  void apply_matrix(const Matrix& m, std::span<const Qubit> qubits);

  /// Projects the listed qubits onto the corresponding bits of `bits`
  /// and renormalizes. Throws when the outcome has zero probability.
  void project(std::span<const Qubit> qubits, Bitstring bits);

  /// Current squared norm (1 for normalized states).
  [[nodiscard]] double norm_squared() const;

  /// Rescales to unit norm; throws on the zero vector.
  void renormalize();

  /// Full probability vector |ψ_b|² (2^n entries).
  [[nodiscard]] std::vector<double> probabilities() const;

  /// Marginal probability that qubit q reads 1.
  [[nodiscard]] double marginal_one(Qubit q) const;

  /// Samples a full bitstring from |ψ|². Equivalent to sample_n(1,
  /// rng)[0]; prefer sample_n when drawing many samples from one state.
  [[nodiscard]] Bitstring sample(Rng& rng) const;

  /// Draws `count` bitstrings from |ψ|² with one O(2^n) probabilities
  /// pass and O(n) inverse-CDF binary searches per draw — the batched
  /// form the conventional direct-sampling baseline uses (the per-draw
  /// linear scan it replaces made the baseline benches scan-bound).
  [[nodiscard]] std::vector<Bitstring> sample_n(std::uint64_t count,
                                                Rng& rng) const;

  /// Max |amplitude difference| against another state.
  [[nodiscard]] double max_abs_diff(const StateVectorState& other) const;

 private:
  /// Shared precondition checks of apply()/apply_matrix().
  void check_targets(const Matrix& m, std::span<const Qubit> qubits) const;

  int num_qubits_ = 0;
  std::vector<Complex> amplitudes_;
};

/// The BGLS `apply_op` customization point for statevectors: applies
/// unitaries; throws on measurements/channels (handled by the sampler).
void apply_op(const Operation& op, StateVectorState& state, Rng& rng);

/// The BGLS `compute_probability` customization point for statevectors.
[[nodiscard]] double compute_probability(const StateVectorState& state,
                                         Bitstring b);

/// Evolves the state through every non-measurement operation of the
/// circuit; channels are sampled as quantum trajectories with `rng`.
void evolve(const Circuit& circuit, StateVectorState& state, Rng& rng);

}  // namespace bgls
