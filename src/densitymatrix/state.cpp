#include "densitymatrix/state.h"

#include <cmath>

#include "statevector/kernels.h"
#include "util/error.h"

namespace bgls {
namespace {

/// ρ is row-major, so as the 2n-qubit vector vec(ρ) its row qubit q is
/// bit q + n and its column qubit q is bit q. Returns the row bits of
/// `qubits`, rejecting qubits outside the register.
std::vector<Qubit> row_bits(std::span<const Qubit> qubits, int num_qubits) {
  std::vector<Qubit> bits;
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < num_qubits, "qubit ", q, " out of range");
    bits.push_back(q + num_qubits);
  }
  return bits;
}

}  // namespace

DensityMatrixState::DensityMatrixState(int num_qubits, Bitstring initial)
    : num_qubits_(num_qubits) {
  BGLS_REQUIRE(num_qubits >= 1 && num_qubits < 13,
               "density matrix supports 1..12 qubits, got ", num_qubits);
  dim_ = std::size_t{1} << num_qubits;
  rho_.assign(dim_ * dim_, Complex{0.0, 0.0});
  BGLS_REQUIRE(initial < dim_, "initial bitstring out of range");
  rho_[initial * dim_ + initial] = Complex{1.0, 0.0};
}

double DensityMatrixState::probability(Bitstring b) const {
  BGLS_REQUIRE(b < dim_, "bitstring out of range");
  return rho_[b * dim_ + b].real();
}

void DensityMatrixState::apply(const Operation& op) {
  const Gate& gate = op.gate();
  BGLS_REQUIRE(gate.is_unitary(), "cannot apply non-unitary '", gate.name(),
               "' directly");
  // The row pass reuses the gate's memoized classification.
  const std::shared_ptr<const kernels::CompiledMatrix> compiled =
      gate.compiled_unitary();
  kernels::apply_matrix(rho_, 2 * num_qubits_, *compiled,
                        row_bits(op.qubits(), num_qubits_));
  kernels::apply_matrix(rho_, 2 * num_qubits_,
                        compiled->matrix.adjoint().transpose(), op.qubits());
}

void DensityMatrixState::apply_matrix(const Matrix& m,
                                      std::span<const Qubit> qubits) {
  const std::size_t block = std::size_t{1} << qubits.size();
  BGLS_REQUIRE(m.rows() == block && m.cols() == block,
               "matrix dimension does not match qubit count");
  // ρ → M ρ mixes row bits; ρ → ρ M† applies conj(M) to column bits.
  kernels::apply_matrix(rho_, 2 * num_qubits_, m,
                        row_bits(qubits, num_qubits_));
  kernels::apply_matrix(rho_, 2 * num_qubits_, m.adjoint().transpose(),
                        qubits);
}

void DensityMatrixState::apply_channel_sum(const KrausChannel& channel,
                                           std::span<const Qubit> qubits) {
  BGLS_REQUIRE(static_cast<std::size_t>(channel.arity()) == qubits.size(),
               "channel arity mismatch");
  std::vector<Complex> accumulated(dim_ * dim_, Complex{0.0, 0.0});
  const std::vector<Complex> original = rho_;
  for (const auto& k : channel.operators()) {
    rho_ = original;
    apply_matrix(k, qubits);
    for (std::size_t i = 0; i < rho_.size(); ++i) accumulated[i] += rho_[i];
  }
  rho_ = std::move(accumulated);
}

void DensityMatrixState::project(std::span<const Qubit> qubits,
                                 Bitstring bits) {
  std::size_t mask = 0;
  std::size_t want = 0;
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < num_qubits_, "qubit ", q, " out of range");
    mask |= std::size_t{1} << q;
    if (get_bit(bits, q)) want |= std::size_t{1} << q;
  }
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((r & mask) != want || (c & mask) != want) {
        rho_[r * dim_ + c] = Complex{0.0, 0.0};
      }
    }
  }
  renormalize();
}

double DensityMatrixState::trace() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) acc += rho_[i * dim_ + i].real();
  return acc;
}

void DensityMatrixState::renormalize() {
  const double tr = trace();
  BGLS_REQUIRE(tr > 0.0, "cannot renormalize zero-trace density matrix");
  const double inv = 1.0 / tr;
  for (auto& v : rho_) v *= inv;
}

double DensityMatrixState::purity() const {
  // tr(ρ²) = Σ_rc ρ_rc ρ_cr = Σ_rc |ρ_rc|² for Hermitian ρ.
  double acc = 0.0;
  for (const auto& v : rho_) acc += std::norm(v);
  return acc;
}

std::vector<double> DensityMatrixState::probabilities() const {
  std::vector<double> probs(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    probs[i] = std::max(0.0, rho_[i * dim_ + i].real());
  }
  return probs;
}

Bitstring DensityMatrixState::sample(Rng& rng) const {
  const auto probs = probabilities();
  return rng.categorical(probs);
}

void apply_op(const Operation& op, DensityMatrixState& state, Rng& rng) {
  const Gate& gate = op.gate();
  if (gate.is_channel()) {
    const auto& ops = gate.channel().operators();
    std::vector<double> weights;
    weights.reserve(ops.size());
    for (const auto& k : ops) {
      DensityMatrixState branch = state;
      branch.apply_matrix(k, op.qubits());
      weights.push_back(branch.trace());
    }
    const std::size_t chosen = rng.categorical(weights);
    state.apply_matrix(ops[chosen], op.qubits());
    state.renormalize();
    return;
  }
  state.apply(op);
}

double compute_probability(const DensityMatrixState& state, Bitstring b) {
  return state.probability(b);
}

void evolve_exact(const Circuit& circuit, DensityMatrixState& state) {
  for (const auto& moment : circuit.moments()) {
    for (const auto& op : moment.operations()) {
      if (op.gate().is_measurement()) continue;
      if (op.gate().is_channel()) {
        state.apply_channel_sum(op.gate().channel(), op.qubits());
      } else {
        state.apply(op);
      }
    }
  }
}

}  // namespace bgls
