/// \file kernels.h
/// Gate-class-specialized statevector apply kernels.
///
/// The paper's cost model (Secs. 2, 4.1.2) makes statevector BGLS
/// runtime proportional to f(n, d) — the cost of applying d gates to a
/// 2^n amplitude vector. Funneling every gate through a dense complex
/// matmul wastes most of that budget: X, Z, S, T, CZ, CNOT and friends
/// have far more structure than an arbitrary unitary. Following qsim
/// (Isakov et al. 2021), this module classifies a gate matrix by
/// *structure* and dispatches to a kernel shaped for that class:
///
///  - diagonal       → a phase-multiply pass, no gather (Z, S, T, Rz,
///                      CZ, CPhase, ZZ, CCZ); phases equal to 1 are
///                      skipped entirely, so CZ touches only 2^n / 4
///                      amplitudes;
///  - permutation    → an index-swap pass along the permutation's
///                      cycles (X, Y, CX, SWAP, ISWAP, CCX, CSWAP);
///                      fixed points cost nothing, so CX touches only
///                      half the index space;
///  - controlled     → identity blocks are skipped and the dense inner
///                      block runs on the controlled half/quarter of
///                      the index space (controlled-U gates, e.g. from
///                      QASM imports or Kraus dilations);
///  - dense          → restructured 1q/2q loops: matrix entries hoisted
///                      into registers, cache-blocked iteration over
///                      contiguous low-stride runs so the compiler can
///                      vectorize, with an all-real fast path (H, Ry,
///                      real fused products) and an optional AVX2+FMA
///                      path (BGLS_ENABLE_AVX2).
///
/// Classification is structural, not name-based: it works equally for
/// named gates, fused matrix gates, and (non-unitary) Kraus operators,
/// and costs O(4^k) on a 2^k x 2^k matrix — noise next to the 2^n
/// amplitude pass it saves.
///
/// Large passes parallelize over disjoint amplitude blocks with OpenMP
/// (BGLS_HAVE_OPENMP, enabled by the BGLS_ENABLE_OPENMP build flag).
/// Every kernel performs the same floating-point operations per
/// amplitude in every configuration, so results are bit-identical
/// across kernels on/off (for exact-zero-structured matrices), thread
/// counts, and loop shapes — the determinism the engine's tests pin.
///
/// The `force_generic` escape hatch (env BGLS_FORCE_GENERIC_KERNELS or
/// `kernels::set_force_generic`) routes everything through the
/// pre-specialization dense paths; tests and benches use it as the
/// reference implementation.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace bgls::kernels {

/// Passes over at least this many amplitudes use OpenMP; below it the
/// fork/join overhead dominates.
inline constexpr std::size_t kParallelThreshold = std::size_t{1} << 14;

/// Structural classes, cheapest dispatch first. (`int` qubit ids match
/// the circuit layer's Qubit alias; this module only depends on linalg.)
enum class GateClass {
  kDiagonal,     ///< nonzeros only on the diagonal
  kPermutation,  ///< exactly one nonzero per row and per column
  kControlled,   ///< identity unless all control bits read 1; dense inner
  kDense,        ///< no exploitable structure
};

/// Result of structurally classifying a 2^k x 2^k matrix.
struct Classification {
  GateClass cls = GateClass::kDense;
  /// kDiagonal: the 2^k diagonal entries (gate-local order).
  std::vector<Complex> phases;
  /// kPermutation: new_amp[r] = factors[r] * old_amp[perm[r]].
  std::vector<std::uint8_t> perm;
  std::vector<Complex> factors;
  /// kControlled: bit j set ⇔ gate-list position j (qubits[j]) is a
  /// control, plus the dense block applied when all controls read 1.
  std::uint32_t control_positions = 0;
  Matrix inner;
};

/// Classifies a gate matrix by structure. Zero/identity checks are
/// exact (no tolerance): gate constructors produce exact zeros, and
/// exactness keeps the specialized kernels bit-compatible with the
/// dense reference on the library's named gates.
[[nodiscard]] Classification classify(const Matrix& m);

/// A gate matrix bundled with its precomputed classification — the
/// memoizable unit. Gate caches one per gate (Gate::compiled_unitary),
/// so classification runs once per distinct gate instead of once per
/// apply_matrix call.
struct CompiledMatrix {
  Matrix matrix;
  Classification classification;
};

/// Classifies `m` and bundles it. Pure; the apply_matrix overload below
/// consumes the result without re-classifying.
[[nodiscard]] CompiledMatrix compile(Matrix m);

/// Applies the 2^k x 2^k matrix `m` to the listed qubits of a 2^n
/// amplitude vector, dispatching through classify(). The gate-local
/// index uses qubits[0] as the most significant bit (gate.h
/// convention). Matrices need not be unitary (Kraus branches).
void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const Matrix& m, std::span<const int> qubits);

/// Same, but reuses the precomputed classification (identical dispatch
/// and arithmetic, so results are bit-identical to the classifying
/// overload; force_generic() is still honored).
void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const CompiledMatrix& compiled,
                  std::span<const int> qubits);

/// True when specialized kernels are disabled and every apply takes the
/// generic dense path. Initialized from the BGLS_FORCE_GENERIC_KERNELS
/// environment variable ("", "0" = off); settable at runtime.
[[nodiscard]] bool force_generic();
void set_force_generic(bool force);

/// RAII toggle for tests/benches comparing the two paths.
class ForceGenericScope {
 public:
  explicit ForceGenericScope(bool force);
  ~ForceGenericScope();
  ForceGenericScope(const ForceGenericScope&) = delete;
  ForceGenericScope& operator=(const ForceGenericScope&) = delete;

 private:
  bool previous_;
};

}  // namespace bgls::kernels
