// Density-matrix backend tests: agreement with the statevector on pure
// evolution, exact channel application, purity bookkeeping.

#include "densitymatrix/state.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#ifdef BGLS_HAVE_OPENMP
#include <omp.h>
#endif

#include "circuit/random.h"
#include "statevector/kernels.h"
#include "statevector/state.h"
#include "test_helpers.h"
#include "util/error.h"

namespace bgls {
namespace {

TEST(DensityMatrix, InitialStateIsPureProjector) {
  DensityMatrixState rho(2, from_string("10"));
  EXPECT_DOUBLE_EQ(rho.probability(from_string("10")), 1.0);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

/// One oracle comparison: a random circuit on `num_qubits` qubits,
/// drawn either from generate_random_circuit's default gate set or from
/// a domain that reaches every kernel class.
struct OracleCase {
  int num_qubits;
  std::uint64_t seed;
  bool all_kernel_classes;
};

// Names the parameter in test listings by its seed; the instantiation
// prefix names the domain.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.seed; }

/// Diagonal (T, Rz, CZ), permutation (X, CX, CSWAP, CCX), controlled
/// (controlled-Ry) and dense (H, Ry) gates.
std::vector<Gate> all_kernel_classes_domain() {
  Matrix controlled_ry = Matrix::identity(4);
  const Matrix ry_block = Gate::Ry(0.4).unitary();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      controlled_ry(2 + r, 2 + c) = ry_block(r, c);
    }
  }
  return {Gate::T(),
          Gate::Rz(0.3),
          Gate::CZ(),
          Gate::X(),
          Gate::CX(),
          Gate::CSwap(),
          Gate::CCX(),
          Gate::TwoQubitMatrix(controlled_ry, "CRy"),
          Gate::H(),
          Gate::Ry(0.7)};
}

Circuit oracle_circuit(const OracleCase& c) {
  Rng rng(c.seed);
  RandomCircuitOptions options;
  options.num_moments = 10;
  options.op_density = 0.8;
  if (c.all_kernel_classes) options.gate_domain = all_kernel_classes_domain();
  Circuit circuit = generate_random_circuit(c.num_qubits, options, rng);
  if (c.all_kernel_classes) {
    // Unsorted qubit lists, whatever the generator drew.
    circuit.append(cnot(3, 0));
    circuit.append(ccx(4, 1, 2));
    circuit.append(Operation(Gate::CSwap(), {6, 0, 5}));
  }
  return circuit;
}

DensityMatrixState evolved(const Circuit& circuit, int num_qubits) {
  DensityMatrixState rho(num_qubits);
  evolve_exact(circuit, rho);
  return rho;
}

class DensityMatrixVsStateVector
    : public ::testing::TestWithParam<OracleCase> {};

TEST_P(DensityMatrixVsStateVector, PureEvolutionMatches) {
  const int n = GetParam().num_qubits;
  const Circuit circuit = oracle_circuit(GetParam());
  const DensityMatrixState rho = evolved(circuit, n);

  const auto psi = testing::ideal_statevector(circuit, n);
  for (std::size_t r = 0; r < psi.size(); ++r) {
    for (std::size_t c = 0; c < psi.size(); ++c) {
      EXPECT_NEAR(std::abs(rho.entry(r, c) - psi[r] * std::conj(psi[c])), 0.0,
                  1e-9);
    }
  }
  EXPECT_NEAR(rho.purity(), 1.0, 1e-9);

  // The generic dense kernels agree to rounding.
  const DensityMatrixState generic = [&] {
    const kernels::ForceGenericScope scope(true);
    return evolved(circuit, n);
  }();
  for (std::size_t r = 0; r < psi.size(); ++r) {
    for (std::size_t c = 0; c < psi.size(); ++c) {
      EXPECT_NEAR(std::abs(rho.entry(r, c) - generic.entry(r, c)), 0.0, 1e-12);
    }
  }

#ifdef BGLS_HAVE_OPENMP
  // From n = 7 on, vec(ρ) is large enough for the kernels' OpenMP
  // passes; the thread count must not change a single bit.
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const DensityMatrixState serial = evolved(circuit, n);
  omp_set_num_threads(4);
  const DensityMatrixState parallel = evolved(circuit, n);
  omp_set_num_threads(saved);
  for (std::size_t r = 0; r < psi.size(); ++r) {
    for (std::size_t c = 0; c < psi.size(); ++c) {
      EXPECT_EQ(serial.entry(r, c), parallel.entry(r, c));
    }
  }
#endif
}

std::vector<OracleCase> oracle_cases(int num_qubits, int seeds,
                                     bool all_kernel_classes) {
  std::vector<OracleCase> cases;
  for (int seed = 0; seed < seeds; ++seed) {
    cases.push_back({num_qubits, static_cast<std::uint64_t>(seed),
                     all_kernel_classes});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityMatrixVsStateVector,
                         ::testing::ValuesIn(oracle_cases(4, 8, false)));
INSTANTIATE_TEST_SUITE_P(KernelClasses, DensityMatrixVsStateVector,
                         ::testing::ValuesIn(oracle_cases(7, 4, true)));

TEST(DensityMatrix, KernelClassesDomainCoversEveryClass) {
  std::set<kernels::GateClass> classes;
  for (const Gate& gate : all_kernel_classes_domain()) {
    classes.insert(kernels::classify(gate.unitary()).cls);
  }
  EXPECT_EQ(classes.size(), 4u);
}

TEST(DensityMatrix, ApplyMatrixNonUnitaryMatchesEmbeddedProduct) {
  const int n = 7;
  const Circuit circuit = oracle_circuit({n, 11, true});
  DensityMatrixState rho = evolved(circuit, n);
  const std::size_t dim = rho.dimension();
  Matrix before(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) before(r, c) = rho.entry(r, c);
  }

  // A Kraus-like, non-unitary, unstructured matrix on unsorted qubits.
  Matrix k(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      k(r, c) = Complex{0.1 * static_cast<double>(r + 1),
                        -0.05 * static_cast<double>(3 * c + r)};
    }
  }
  const std::vector<Qubit> qubits{5, 2};
  rho.apply_matrix(k, qubits);

  const Matrix embedded = testing::embed_matrix(k, qubits, n);
  const Matrix expected = embedded * before * embedded.adjoint();
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      EXPECT_NEAR(std::abs(rho.entry(r, c) - expected(r, c)), 0.0, 1e-12);
    }
  }
}

TEST(DensityMatrix, DepolarizeDiagonalKnownValues) {
  DensityMatrixState rho(1);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(depolarize(0.3), q0);
  // |0⟩⟨0| under depolarize(p): stays |0⟩⟨0| w.p. 1-p + p/3 (Z), flips
  // with 2p/3 (X and Y each p/3).
  EXPECT_NEAR(rho.probability(0), 1.0 - 0.2, 1e-12);
  EXPECT_NEAR(rho.probability(1), 0.2, 1e-12);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_LT(rho.purity(), 1.0);
}

TEST(DensityMatrix, BitFlipMixesState) {
  DensityMatrixState rho(1);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(bit_flip(0.25), q0);
  EXPECT_NEAR(rho.probability(0), 0.75, 1e-12);
  EXPECT_NEAR(rho.probability(1), 0.25, 1e-12);
}

TEST(DensityMatrix, PhaseDampKillsCoherence) {
  DensityMatrixState rho(1);
  rho.apply(h(0));
  EXPECT_NEAR(std::abs(rho.entry(0, 1)), 0.5, 1e-12);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(phase_damp(1.0), q0);
  EXPECT_NEAR(std::abs(rho.entry(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(rho.probability(0), 0.5, 1e-12);
}

TEST(DensityMatrix, AmplitudeDampPumpsToGround) {
  DensityMatrixState rho(1);
  rho.apply(x(0));
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(amplitude_damp(0.4), q0);
  EXPECT_NEAR(rho.probability(1), 0.6, 1e-12);
  EXPECT_NEAR(rho.probability(0), 0.4, 1e-12);
}

TEST(DensityMatrix, ChannelOnEntangledPairActsLocally) {
  DensityMatrixState rho(2);
  rho.apply(h(0));
  rho.apply(cnot(0, 1));
  const std::vector<Qubit> q0{0};
  // p = 3/4 is the replace-with-maximally-mixed point of the
  // (1-p)ρ + (p/3)(XρX + YρY + ZρZ) parameterization.
  rho.apply_channel_sum(depolarize(0.75), q0);
  for (Bitstring b = 0; b < 4; ++b) {
    EXPECT_NEAR(rho.probability(b), 0.25, 1e-12);
  }
}

TEST(DensityMatrix, TrajectoryAverageMatchesChannelSum) {
  // Average many statevector trajectories of a non-unital channel and
  // compare with the exact Kraus-sum evolution.
  const double gamma = 0.35;
  Circuit circuit{h(0), cnot(0, 1)};
  circuit.append(Operation(Gate::Channel(amplitude_damp(gamma)), {0}));

  DensityMatrixState rho(2);
  evolve_exact(circuit, rho);

  Rng rng(42);
  std::vector<double> averaged(4, 0.0);
  const int trajectories = 60000;
  for (int i = 0; i < trajectories; ++i) {
    StateVectorState psi(2);
    evolve(circuit, psi, rng);
    for (std::size_t b = 0; b < 4; ++b) averaged[b] += psi.probability(b);
  }
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(averaged[b] / trajectories, rho.probability(b), 0.01);
  }
}

TEST(DensityMatrix, ProjectCollapses) {
  DensityMatrixState rho(2);
  rho.apply(h(0));
  rho.apply(cnot(0, 1));
  const std::vector<Qubit> q0{0};
  rho.project(q0, from_string("10"));
  EXPECT_NEAR(rho.probability(from_string("11")), 1.0, 1e-12);
}

TEST(DensityMatrix, SampleFollowsDiagonal) {
  DensityMatrixState rho(1);
  const std::vector<Qubit> q0{0};
  rho.apply_channel_sum(bit_flip(0.3), q0);
  Rng rng(9);
  int ones = 0;
  const int reps = 50000;
  for (int i = 0; i < reps; ++i) ones += static_cast<int>(rho.sample(rng));
  EXPECT_NEAR(ones / static_cast<double>(reps), 0.3, 0.01);
}

TEST(DensityMatrix, RejectsOversizedRegister) {
  EXPECT_THROW(DensityMatrixState(13), ValueError);
}

TEST(DensityMatrix, ComputeProbabilityFreeFunction) {
  DensityMatrixState rho(1);
  rho.apply(h(0));
  EXPECT_NEAR(compute_probability(rho, 0), 0.5, 1e-12);
}

}  // namespace
}  // namespace bgls
