#include "statevector/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

#ifdef BGLS_HAVE_OPENMP
#include <omp.h>
#endif
#if defined(BGLS_HAVE_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace bgls::kernels {
namespace {

/// Specialized kernels cover gates up to this arity (the library's
/// kMaxGateArity); wider matrices take the generic gather path.
constexpr std::size_t kMaxKernelArity = 3;

bool env_force_generic() {
  const char* value = std::getenv("BGLS_FORCE_GENERIC_KERNELS");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

std::atomic<bool> g_force_generic{env_force_generic()};

/// True when a pass over `dim` amplitudes should use an OpenMP team:
/// large enough to amortize fork/join, and more than one thread
/// available (on a one-thread budget the plain nests are faster —
/// outlined OpenMP regions inhibit some vectorization).
bool use_openmp(std::size_t dim) {
#ifdef BGLS_HAVE_OPENMP
  return dim >= kParallelThreshold && omp_get_max_threads() > 1;
#else
  (void)dim;
  return false;
#endif
}

/// Inserts a zero bit at each of the (ascending) strides, spreading the
/// compact group index `g` into an amplitude base index.
inline std::size_t expand_index(std::size_t g,
                                std::span<const std::size_t> strides) {
  for (const std::size_t s : strides) {
    g = ((g & ~(s - 1)) << 1) | (g & (s - 1));
  }
  return g;
}

/// Ascending strides of the gate's qubits plus any control bits, used
/// to enumerate group base indices.
struct Strides {
  std::array<std::size_t, kMaxKernelArity> values{};
  std::size_t count = 0;

  [[nodiscard]] std::span<const std::size_t> span() const {
    return {values.data(), count};
  }

  void add(std::size_t stride) { values[count++] = stride; }
  void add_mask_bits(std::size_t mask) {
    while (mask != 0) {
      add(mask & (0 - mask));
      mask &= mask - 1;
    }
  }
  // Insertion sort instead of std::sort: the array never exceeds
  // kMaxKernelArity entries (insertion sort wins at that size), and the
  // inlined libstdc++ sort trips GCC 12's bogus -Warray-bounds under
  // the sanitizer build.
  void sort() {
    const std::size_t n = std::min(count, values.size());
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t key = values[i];
      std::size_t j = i;
      for (; j > 0 && values[j - 1] > key; --j) values[j] = values[j - 1];
      values[j] = key;
    }
  }
};

inline bool is_one(const Complex& z) { return z == Complex{1.0, 0.0}; }

// --- Generic dense reference paths (pre-specialization code) ------------

void apply_generic_1q(std::span<Complex> amps, int q, const Matrix& m) {
  const std::size_t stride = std::size_t{1} << q;
  const std::size_t dim = amps.size();
  const Complex m00 = m(0, 0), m01 = m(0, 1), m10 = m(1, 0), m11 = m(1, 1);
  const std::int64_t num_pairs = static_cast<std::int64_t>(dim >> 1);
#pragma omp parallel for if (dim >= kParallelThreshold) schedule(static)
  for (std::int64_t p = 0; p < num_pairs; ++p) {
    // Base index: insert a 0 at bit position q of the pair index.
    const std::size_t pp = static_cast<std::size_t>(p);
    const std::size_t i0 = ((pp & ~(stride - 1)) << 1) | (pp & (stride - 1));
    const std::size_t i1 = i0 | stride;
    const Complex a0 = amps[i0];
    const Complex a1 = amps[i1];
    amps[i0] = m00 * a0 + m01 * a1;
    amps[i1] = m10 * a0 + m11 * a1;
  }
}

void apply_generic_2q(std::span<Complex> amps, int q0, int q1,
                      const Matrix& m) {
  // Gate-local index: q0 is the most significant bit.
  const std::size_t s0 = std::size_t{1} << q0;
  const std::size_t s1 = std::size_t{1} << q1;
  const std::size_t dim = amps.size();
  const std::size_t lo = std::min(s0, s1);
  const std::size_t hi = std::max(s0, s1);
  const std::int64_t num_groups = static_cast<std::int64_t>(dim >> 2);
#pragma omp parallel for if (dim >= kParallelThreshold) schedule(static)
  for (std::int64_t g = 0; g < num_groups; ++g) {
    // Spread the group index around the two target bit positions.
    std::size_t base = static_cast<std::size_t>(g);
    base = ((base & ~(lo - 1)) << 1) | (base & (lo - 1));
    base = ((base & ~(hi - 1)) << 1) | (base & (hi - 1));
    const std::size_t i00 = base;
    const std::size_t i01 = base | s1;
    const std::size_t i10 = base | s0;
    const std::size_t i11 = base | s0 | s1;
    const Complex a00 = amps[i00];
    const Complex a01 = amps[i01];
    const Complex a10 = amps[i10];
    const Complex a11 = amps[i11];
    amps[i00] = m(0, 0) * a00 + m(0, 1) * a01 + m(0, 2) * a10 + m(0, 3) * a11;
    amps[i01] = m(1, 0) * a00 + m(1, 1) * a01 + m(1, 2) * a10 + m(1, 3) * a11;
    amps[i10] = m(2, 0) * a00 + m(2, 1) * a01 + m(2, 2) * a10 + m(2, 3) * a11;
    amps[i11] = m(3, 0) * a00 + m(3, 1) * a01 + m(3, 2) * a10 + m(3, 3) * a11;
  }
}

void apply_generic_k(std::span<Complex> amps, std::span<const int> qubits,
                     const Matrix& m) {
  const std::size_t k = qubits.size();
  const std::size_t block = std::size_t{1} << k;
  std::size_t support_mask = 0;
  for (const int q : qubits) support_mask |= std::size_t{1} << q;

  std::vector<Complex> scratch(block);
  for (std::size_t base = 0; base < amps.size(); ++base) {
    if ((base & support_mask) != 0) continue;  // visit each group once
    // Gather group amplitudes; gate-local index has qubits[0] as MSB.
    for (std::size_t local = 0; local < block; ++local) {
      std::size_t idx = base;
      for (std::size_t j = 0; j < k; ++j) {
        if ((local >> (k - 1 - j)) & 1u) idx |= std::size_t{1} << qubits[j];
      }
      scratch[local] = amps[idx];
    }
    for (std::size_t row = 0; row < block; ++row) {
      Complex acc{0.0, 0.0};
      for (std::size_t col = 0; col < block; ++col) {
        acc += m(row, col) * scratch[col];
      }
      std::size_t idx = base;
      for (std::size_t j = 0; j < k; ++j) {
        if ((row >> (k - 1 - j)) & 1u) idx |= std::size_t{1} << qubits[j];
      }
      amps[idx] = acc;
    }
  }
}

void apply_generic(std::span<Complex> amps, const Matrix& m,
                   std::span<const int> qubits) {
  switch (qubits.size()) {
    case 1:
      apply_generic_1q(amps, qubits[0], m);
      break;
    case 2:
      apply_generic_2q(amps, qubits[0], qubits[1], m);
      break;
    default:
      apply_generic_k(amps, qubits, m);
  }
}

// --- Gate-local offset table --------------------------------------------

/// offsets[local] = OR of the strides of the qubits set in the
/// gate-local index `local` (qubits[0] = MSB convention).
std::array<std::size_t, 8> local_offsets(std::span<const int> qubits) {
  const std::size_t k = qubits.size();
  std::array<std::size_t, 8> offsets{};
  for (std::size_t local = 0; local < (std::size_t{1} << k); ++local) {
    std::size_t offset = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if ((local >> (k - 1 - j)) & 1u) offset |= std::size_t{1} << qubits[j];
    }
    offsets[local] = offset;
  }
  return offsets;
}

// --- Diagonal kernel ----------------------------------------------------

void apply_diagonal(std::span<Complex> amps, std::span<const int> qubits,
                    std::span<const Complex> phases) {
  const std::size_t dim = amps.size();
  const std::size_t k = qubits.size();

  if (k == 1) {
    const Complex d0 = phases[0], d1 = phases[1];
    const bool skip0 = is_one(d0), skip1 = is_one(d1);
    if (skip0 && skip1) return;  // identity
    const std::size_t s = std::size_t{1} << qubits[0];
#ifdef BGLS_HAVE_OPENMP
    if (use_openmp(dim)) {
      const std::int64_t idim = static_cast<std::int64_t>(dim);
#pragma omp parallel for schedule(static)
      for (std::int64_t i = 0; i < idim; ++i) {
        const std::size_t ii = static_cast<std::size_t>(i);
        if (ii & s) {
          if (!skip1) amps[ii] *= d1;
        } else {
          if (!skip0) amps[ii] *= d0;
        }
      }
      return;
    }
#endif
    // Phase-multiply over contiguous runs; halves with phase 1 are
    // skipped outright (T, S, Rz with one trivial phase, ...).
    for (std::size_t base = 0; base < dim; base += 2 * s) {
      if (!skip0) {
        for (std::size_t i = base; i < base + s; ++i) amps[i] *= d0;
      }
      if (!skip1) {
        for (std::size_t i = base + s; i < base + 2 * s; ++i) amps[i] *= d1;
      }
    }
    return;
  }

  const std::array<std::size_t, 8> offsets = local_offsets(qubits);
  const std::size_t block = std::size_t{1} << k;
  std::array<std::uint8_t, 8> worklist{};
  std::size_t work_count = 0;
  for (std::size_t local = 0; local < block; ++local) {
    if (!is_one(phases[local])) {
      worklist[work_count++] = static_cast<std::uint8_t>(local);
    }
  }
  if (work_count == 0) return;  // identity

  Strides strides;
  for (const int q : qubits) strides.add(std::size_t{1} << q);
  strides.sort();
  const std::int64_t num_groups = static_cast<std::int64_t>(dim >> k);

  if (work_count == 1) {
    // Single non-trivial phase (CZ, CPhase, CCZ): touch only the
    // indices whose support bits match that one local pattern —
    // 2^n / 2^k amplitudes instead of 2^n.
    const std::size_t offset = offsets[worklist[0]];
    const Complex phase = phases[worklist[0]];
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for if (use_openmp(dim)) schedule(static)
#endif
    for (std::int64_t g = 0; g < num_groups; ++g) {
      amps[expand_index(static_cast<std::size_t>(g), strides.span()) |
           offset] *= phase;
    }
    return;
  }

#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for if (use_openmp(dim)) schedule(static)
#endif
  for (std::int64_t g = 0; g < num_groups; ++g) {
    const std::size_t base =
        expand_index(static_cast<std::size_t>(g), strides.span());
    for (std::size_t w = 0; w < work_count; ++w) {
      const std::size_t local = worklist[w];
      amps[base | offsets[local]] *= phases[local];
    }
  }
}

// --- Permutation kernel -------------------------------------------------

void apply_permutation(std::span<Complex> amps, std::span<const int> qubits,
                       std::span<const std::uint8_t> perm,
                       std::span<const Complex> factors) {
  const std::size_t dim = amps.size();
  const std::size_t k = qubits.size();
  const std::size_t block = std::size_t{1} << k;

  if (k == 1) {
    // perm is either identity (then it was classified diagonal) or the
    // swap: new[i0] = f0 * old[i1], new[i1] = f1 * old[i0].
    const Complex f0 = factors[0], f1 = factors[1];
    const bool pure_swap = is_one(f0) && is_one(f1);
    const std::size_t s = std::size_t{1} << qubits[0];
#ifdef BGLS_HAVE_OPENMP
    if (use_openmp(dim)) {
      const std::int64_t num_pairs = static_cast<std::int64_t>(dim >> 1);
#pragma omp parallel for schedule(static)
      for (std::int64_t p = 0; p < num_pairs; ++p) {
        const std::size_t pp = static_cast<std::size_t>(p);
        const std::size_t i0 =
            ((pp & ~(s - 1)) << 1) | (pp & (s - 1));
        const std::size_t i1 = i0 | s;
        const Complex a0 = amps[i0];
        if (pure_swap) {
          amps[i0] = amps[i1];
          amps[i1] = a0;
        } else {
          amps[i0] = f0 * amps[i1];
          amps[i1] = f1 * a0;
        }
      }
      return;
    }
#endif
    for (std::size_t base = 0; base < dim; base += 2 * s) {
      if (pure_swap) {
        // X / CX-target-style runs reduce to a block swap.
        std::swap_ranges(amps.begin() + static_cast<std::ptrdiff_t>(base),
                         amps.begin() + static_cast<std::ptrdiff_t>(base + s),
                         amps.begin() + static_cast<std::ptrdiff_t>(base + s));
      } else {
        for (std::size_t i = base; i < base + s; ++i) {
          const Complex a0 = amps[i];
          amps[i] = f0 * amps[i + s];
          amps[i + s] = f1 * a0;
        }
      }
    }
    return;
  }

  const std::array<std::size_t, 8> offsets = local_offsets(qubits);

  // Decompose into cycles once; fixed points with factor 1 cost nothing
  // (CX touches only the c=1 half, CCX only the c0=c1=1 quarter).
  std::array<std::uint8_t, 8> scaled_fixed{};
  std::size_t num_scaled_fixed = 0;
  std::array<std::array<std::uint8_t, 8>, 4> cycles{};
  std::array<std::size_t, 4> cycle_len{};
  std::size_t num_cycles = 0;
  std::array<bool, 8> visited{};
  for (std::size_t start = 0; start < block; ++start) {
    if (visited[start]) continue;
    visited[start] = true;
    if (perm[start] == start) {
      if (!is_one(factors[start])) {
        scaled_fixed[num_scaled_fixed++] = static_cast<std::uint8_t>(start);
      }
      continue;
    }
    auto& cycle = cycles[num_cycles];
    std::size_t len = 0;
    std::size_t current = start;
    do {
      cycle[len++] = static_cast<std::uint8_t>(current);
      visited[current] = true;
      current = perm[current];
    } while (current != start);
    cycle_len[num_cycles++] = len;
  }

  Strides strides;
  for (const int q : qubits) strides.add(std::size_t{1} << q);
  strides.sort();
  const std::int64_t num_groups = static_cast<std::int64_t>(dim >> k);
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for if (use_openmp(dim)) schedule(static)
#endif
  for (std::int64_t g = 0; g < num_groups; ++g) {
    const std::size_t base =
        expand_index(static_cast<std::size_t>(g), strides.span());
    for (std::size_t f = 0; f < num_scaled_fixed; ++f) {
      const std::size_t local = scaled_fixed[f];
      amps[base | offsets[local]] *= factors[local];
    }
    for (std::size_t c = 0; c < num_cycles; ++c) {
      const auto& cycle = cycles[c];
      const std::size_t len = cycle_len[c];
      // new[r] = factors[r] * old[perm[r]] along the cycle.
      const Complex head = amps[base | offsets[cycle[0]]];
      for (std::size_t t = 0; t + 1 < len; ++t) {
        const Complex value = amps[base | offsets[cycle[t + 1]]];
        amps[base | offsets[cycle[t]]] =
            is_one(factors[cycle[t]]) ? value : factors[cycle[t]] * value;
      }
      const std::size_t tail = cycle[len - 1];
      amps[base | offsets[tail]] =
          is_one(factors[tail]) ? head : factors[tail] * head;
    }
  }
}

// --- Dense kernels ------------------------------------------------------

bool matrix_is_real(const Matrix& m) {
  for (const Complex& entry : m.data()) {
    if (entry.imag() != 0.0) return false;
  }
  return true;
}

/// Runs body(base, j) over the blocked 2-level iteration space, through
/// an OpenMP collapse(2) region when `parallel` and a plain nest
/// otherwise. Both nests execute identical per-(base, j) arithmetic —
/// only the outlining differs — so results are bit-identical between
/// them (and across thread counts), while the serial nest keeps the
/// compiler's full vectorization of the hot inner loop.
template <typename Body>
inline void blocked_loop(std::size_t outer_end, std::size_t outer_step,
                         std::size_t inner_count, std::size_t inner_step,
                         bool parallel, Body&& body) {
#ifdef BGLS_HAVE_OPENMP
  if (parallel) {
#pragma omp parallel for collapse(2) schedule(static)
    for (std::size_t base = 0; base < outer_end; base += outer_step) {
      for (std::size_t j = 0; j < inner_count; j += inner_step) {
        body(base, j);
      }
    }
    return;
  }
#else
  (void)parallel;
#endif
  for (std::size_t base = 0; base < outer_end; base += outer_step) {
    for (std::size_t j = 0; j < inner_count; j += inner_step) {
      body(base, j);
    }
  }
}

#if defined(BGLS_HAVE_AVX2) && defined(__AVX2__)
/// Complex multiply of two packed complex<double> by the broadcast
/// scalar (mr, mi): re' = re*mr - im*mi, im' = re*mi + im*mr.
inline __m256d cmul(__m256d a, __m256d mr, __m256d mi) {
  const __m256d swapped = _mm256_permute_pd(a, 0x5);
  return _mm256_fmaddsub_pd(a, mr, _mm256_mul_pd(swapped, mi));
}
#endif

/// Dense 1q butterfly over [base, base + s) × [base + s, base + 2s)
/// runs; `fixed_mask` (control bits forced to 1) restricts the space.
void apply_dense_1q(std::span<Complex> amps, int q, const Matrix& m,
                    std::size_t fixed_mask) {
  const std::size_t dim = amps.size();
  const std::size_t s = std::size_t{1} << q;
  const Complex m00 = m(0, 0), m01 = m(0, 1), m10 = m(1, 0), m11 = m(1, 1);

  if (fixed_mask != 0) {
    // Controlled dense: enumerate only the bases with every control 1.
    Strides strides;
    strides.add(s);
    strides.add_mask_bits(fixed_mask);
    strides.sort();
    const std::int64_t num_groups =
        static_cast<std::int64_t>(dim >> strides.count);
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for if (use_openmp(dim)) schedule(static)
#endif
    for (std::int64_t g = 0; g < num_groups; ++g) {
      const std::size_t i0 =
          expand_index(static_cast<std::size_t>(g), strides.span()) |
          fixed_mask;
      const std::size_t i1 = i0 | s;
      const Complex a0 = amps[i0];
      const Complex a1 = amps[i1];
      amps[i0] = m00 * a0 + m01 * a1;
      amps[i1] = m10 * a0 + m11 * a1;
    }
    return;
  }

  // One loop shape per arithmetic form below, distributed by
  // blocked_loop: every (run, offset) iteration performs identical
  // arithmetic whatever the thread count, so OpenMP never changes a
  // bit. (With AVX2 the FMA rounding differs from the generic path —
  // an explicit opt-in — but stays thread-count-invariant too.)
  const bool parallel = use_openmp(dim);

  if (matrix_is_real(m)) {
    // Real coefficients act identically on the interleaved re/im
    // doubles: half the flops of the complex butterfly, and a
    // unit-stride loop the compiler vectorizes.
    auto* d = reinterpret_cast<double*>(amps.data());
    const double r00 = m00.real(), r01 = m01.real();
    const double r10 = m10.real(), r11 = m11.real();
    const std::size_t run = 2 * s;  // doubles per amplitude run
    blocked_loop(2 * dim, 2 * run, run, 1, parallel,
                 [=](std::size_t base, std::size_t j) {
                   double* lo = d + base;
                   double* hi = lo + run;
                   const double a0 = lo[j];
                   const double a1 = hi[j];
                   lo[j] = r00 * a0 + r01 * a1;
                   hi[j] = r10 * a0 + r11 * a1;
                 });
    return;
  }

#if defined(BGLS_HAVE_AVX2) && defined(__AVX2__)
  if (s >= 2) {
    const __m256d m00r = _mm256_set1_pd(m00.real());
    const __m256d m00i = _mm256_set1_pd(m00.imag());
    const __m256d m01r = _mm256_set1_pd(m01.real());
    const __m256d m01i = _mm256_set1_pd(m01.imag());
    const __m256d m10r = _mm256_set1_pd(m10.real());
    const __m256d m10i = _mm256_set1_pd(m10.imag());
    const __m256d m11r = _mm256_set1_pd(m11.real());
    const __m256d m11i = _mm256_set1_pd(m11.imag());
    auto* d = reinterpret_cast<double*>(amps.data());
    const std::size_t run = 2 * s;
    // Two complex per vector (j steps by 4 doubles).
    blocked_loop(
        2 * dim, 2 * run, run, 4, parallel,
        [=](std::size_t base, std::size_t j) {
          double* lo = d + base;
          double* hi = lo + run;
          const __m256d a0 = _mm256_loadu_pd(lo + j);
          const __m256d a1 = _mm256_loadu_pd(hi + j);
          _mm256_storeu_pd(lo + j, _mm256_add_pd(cmul(a0, m00r, m00i),
                                                 cmul(a1, m01r, m01i)));
          _mm256_storeu_pd(hi + j, _mm256_add_pd(cmul(a0, m10r, m10i),
                                                 cmul(a1, m11r, m11i)));
        });
    return;
  }
#endif

  // Complex butterfly over contiguous runs: the inner loop is
  // unit-stride, so loads/stores stream and the entries stay hoisted.
  Complex* a = amps.data();
  blocked_loop(dim, 2 * s, s, 1, parallel,
               [=](std::size_t base, std::size_t j) {
                 const std::size_t i = base + j;
                 const Complex a0 = a[i];
                 const Complex a1 = a[i + s];
                 a[i] = m00 * a0 + m01 * a1;
                 a[i + s] = m10 * a0 + m11 * a1;
               });
}

/// Dense 2q update with hoisted entries and cache-blocked low/high
/// stride iteration; `fixed_mask` restricts to the controlled subspace.
void apply_dense_2q(std::span<Complex> amps, int q0, int q1, const Matrix& m,
                    std::size_t fixed_mask) {
  const std::size_t dim = amps.size();
  const std::size_t s0 = std::size_t{1} << q0;
  const std::size_t s1 = std::size_t{1} << q1;
  std::array<Complex, 16> e;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) e[4 * r + c] = m(r, c);
  }

  const auto update4 = [&](std::size_t base) {
    const std::size_t i00 = base;
    const std::size_t i01 = base | s1;
    const std::size_t i10 = base | s0;
    const std::size_t i11 = base | s0 | s1;
    const Complex a00 = amps[i00];
    const Complex a01 = amps[i01];
    const Complex a10 = amps[i10];
    const Complex a11 = amps[i11];
    amps[i00] = e[0] * a00 + e[1] * a01 + e[2] * a10 + e[3] * a11;
    amps[i01] = e[4] * a00 + e[5] * a01 + e[6] * a10 + e[7] * a11;
    amps[i10] = e[8] * a00 + e[9] * a01 + e[10] * a10 + e[11] * a11;
    amps[i11] = e[12] * a00 + e[13] * a01 + e[14] * a10 + e[15] * a11;
  };

  if (fixed_mask != 0) {
    Strides strides;
    strides.add(s0);
    strides.add(s1);
    strides.add_mask_bits(fixed_mask);
    strides.sort();
    const std::int64_t num_groups =
        static_cast<std::int64_t>(dim >> strides.count);
#ifdef BGLS_HAVE_OPENMP
#pragma omp parallel for if (use_openmp(dim)) schedule(static)
#endif
    for (std::int64_t g = 0; g < num_groups; ++g) {
      update4(expand_index(static_cast<std::size_t>(g), strides.span()) |
              fixed_mask);
    }
    return;
  }

  // As in apply_dense_1q: one loop shape per arithmetic form, with the
  // cache blocks themselves distributed by blocked_loop so thread count
  // never changes a bit.
  const std::size_t lo = std::min(s0, s1);
  const std::size_t hi = std::max(s0, s1);
  const std::size_t blocks_per_row = hi / (2 * lo);  // inner b-blocks
  const bool parallel = use_openmp(dim);

  if (matrix_is_real(m)) {
    std::array<double, 16> r;
    for (std::size_t j = 0; j < 16; ++j) r[j] = e[j].real();
    auto* d = reinterpret_cast<double*>(amps.data());
    const std::size_t dlo = 2 * lo, ds0 = 2 * s0, ds1 = 2 * s1;
    blocked_loop(
        2 * dim, 4 * hi, blocks_per_row, 1, parallel,
        [&](std::size_t a, std::size_t block) {
          double* p00 = d + a + block * 2 * dlo;
          double* p01 = p00 + ds1;
          double* p10 = p00 + ds0;
          double* p11 = p00 + ds0 + ds1;
          for (std::size_t j = 0; j < dlo; ++j) {
            const double a00 = p00[j], a01 = p01[j];
            const double a10 = p10[j], a11 = p11[j];
            p00[j] = r[0] * a00 + r[1] * a01 + r[2] * a10 + r[3] * a11;
            p01[j] = r[4] * a00 + r[5] * a01 + r[6] * a10 + r[7] * a11;
            p10[j] = r[8] * a00 + r[9] * a01 + r[10] * a10 + r[11] * a11;
            p11[j] = r[12] * a00 + r[13] * a01 + r[14] * a10 + r[15] * a11;
          }
        });
    return;
  }

  blocked_loop(dim, 2 * hi, blocks_per_row, 1, parallel,
               [&](std::size_t a, std::size_t block) {
                 const std::size_t b = a + block * 2 * lo;
                 for (std::size_t i = b; i < b + lo; ++i) update4(i);
               });
}

}  // namespace

// --- Classification -----------------------------------------------------

namespace {

bool classify_diagonal(const Matrix& m, Classification& out) {
  const std::size_t dim = m.rows();
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (r != c && m(r, c) != Complex{0.0, 0.0}) return false;
    }
  }
  out.cls = GateClass::kDiagonal;
  out.phases.resize(dim);
  for (std::size_t r = 0; r < dim; ++r) out.phases[r] = m(r, r);
  return true;
}

bool classify_permutation(const Matrix& m, Classification& out) {
  // Validate on the stack first (dim <= 8 on the kernel path) so the
  // common dense-gate rejection allocates nothing.
  const std::size_t dim = m.rows();
  if (dim > 8) return false;  // beyond kernel arity; dense path handles it
  std::array<std::uint8_t, 8> perm{};
  std::size_t columns_seen = 0;
  for (std::size_t r = 0; r < dim; ++r) {
    std::size_t nonzero_col = dim;
    for (std::size_t c = 0; c < dim; ++c) {
      if (m(r, c) != Complex{0.0, 0.0}) {
        if (nonzero_col != dim) return false;  // two nonzeros in a row
        nonzero_col = c;
      }
    }
    if (nonzero_col == dim) return false;  // zero row
    if (columns_seen & (std::size_t{1} << nonzero_col)) return false;
    columns_seen |= std::size_t{1} << nonzero_col;
    perm[r] = static_cast<std::uint8_t>(nonzero_col);
  }
  out.cls = GateClass::kPermutation;
  out.perm.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(dim));
  out.factors.resize(dim);
  for (std::size_t r = 0; r < dim; ++r) out.factors[r] = m(r, perm[r]);
  return true;
}

/// True when gate-local bit `b` acts as a control of `m`: every entry
/// in a row or column with bit b clear matches the identity.
bool is_control_bit(const Matrix& m, std::size_t b) {
  const std::size_t dim = m.rows();
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (((r >> b) & 1u) && ((c >> b) & 1u)) continue;
      const Complex expected = r == c ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
      if (m(r, c) != expected) return false;
    }
  }
  return true;
}

/// The sub-block of `m` on the subspace where bit `b` reads 1.
Matrix strip_control_bit(const Matrix& m, std::size_t b) {
  const std::size_t half = m.rows() >> 1;
  const std::size_t low = (std::size_t{1} << b) - 1;
  Matrix inner(half, half);
  for (std::size_t r = 0; r < half; ++r) {
    const std::size_t rf = ((r & ~low) << 1) | (std::size_t{1} << b) |
                           (r & low);
    for (std::size_t c = 0; c < half; ++c) {
      const std::size_t cf = ((c & ~low) << 1) | (std::size_t{1} << b) |
                             (c & low);
      inner(r, c) = m(rf, cf);
    }
  }
  return inner;
}

}  // namespace

Classification classify(const Matrix& m) {
  Classification out;
  if (classify_diagonal(m, out)) return out;
  if (classify_permutation(m, out)) return out;
  if (m.rows() > (std::size_t{1} << kMaxKernelArity)) return out;  // dense

  // Greedily strip control qubits. A matrix that is neither diagonal
  // nor a permutation but has control structure always ends in a dense
  // inner block (identity blocks + diagonal/permutation inner would
  // have made the whole matrix diagonal/permutation). `m` is only
  // copied once a control is actually found, so the common dense case
  // (H, rotations, fused products) classifies allocation-free.
  std::size_t k = 0;
  while ((std::size_t{1} << k) < m.rows()) ++k;
  Matrix stripped_block;
  const Matrix* current = &m;
  std::array<std::size_t, 8> positions{};  // current bit -> original list pos
  for (std::size_t j = 0; j < k; ++j) positions[j] = j;
  std::uint32_t control_positions = 0;
  std::size_t kk = k;
  while (kk >= 2) {
    bool stripped = false;
    for (std::size_t j = 0; j < kk; ++j) {
      const std::size_t b = kk - 1 - j;  // list position j = bit kk-1-j
      if (is_control_bit(*current, b)) {
        control_positions |= std::uint32_t{1} << positions[j];
        stripped_block = strip_control_bit(*current, b);
        current = &stripped_block;
        for (std::size_t t = j; t + 1 < kk; ++t) positions[t] = positions[t + 1];
        --kk;
        stripped = true;
        break;
      }
    }
    if (!stripped) break;
  }
  if (control_positions != 0) {
    out.cls = GateClass::kControlled;
    out.control_positions = control_positions;
    out.inner = std::move(stripped_block);
    return out;
  }
  out.cls = GateClass::kDense;
  return out;
}

// --- Dispatch -----------------------------------------------------------

namespace {

/// Routes an already classified matrix to its shaped kernel (shared by
/// both public apply_matrix overloads).
void dispatch_classified(std::span<Complex> amplitudes, const Matrix& m,
                         const Classification& c,
                         std::span<const int> qubits) {
  const std::size_t k = qubits.size();
  switch (c.cls) {
    case GateClass::kDiagonal:
      apply_diagonal(amplitudes, qubits, c.phases);
      return;
    case GateClass::kPermutation:
      apply_permutation(amplitudes, qubits, c.perm, c.factors);
      return;
    case GateClass::kControlled: {
      std::size_t fixed_mask = 0;
      std::array<int, kMaxKernelArity> inner_qubits{};
      std::size_t inner_count = 0;
      for (std::size_t j = 0; j < k; ++j) {
        if (c.control_positions & (std::uint32_t{1} << j)) {
          fixed_mask |= std::size_t{1} << qubits[j];
        } else {
          inner_qubits[inner_count++] = qubits[j];
        }
      }
      if (inner_count == 1) {
        apply_dense_1q(amplitudes, inner_qubits[0], c.inner, fixed_mask);
      } else {
        apply_dense_2q(amplitudes, inner_qubits[0], inner_qubits[1], c.inner,
                       fixed_mask);
      }
      return;
    }
    case GateClass::kDense:
      break;
  }
  switch (k) {
    case 1:
      apply_dense_1q(amplitudes, qubits[0], m, 0);
      return;
    case 2:
      apply_dense_2q(amplitudes, qubits[0], qubits[1], m, 0);
      return;
    default:
      apply_generic_k(amplitudes, qubits, m);
  }
}

// --- Telemetry ----------------------------------------------------------

/// Every apply is counted per dispatch class; applies are *timed* only
/// from this amplitude dimension up (n >= 12 qubits), where a clock
/// read pair is far below the kernel's own cost. The timing series
/// still registers either way, so scrapes see it (at zero) for small
/// circuits too.
constexpr std::size_t kTimedApplyDim = std::size_t{1} << 12;

/// One counter + latency histogram per dispatch class, registered once.
/// Index order matches GateClass; slot 4 is the generic fallback path
/// (forced or arity > kMaxKernelArity).
struct KernelMetrics {
  static constexpr int kGeneric = 4;
  obs::Counter applies[5];
  obs::Histogram seconds[5];

  KernelMetrics() {
    static constexpr const char* kClassNames[5] = {
        "diagonal", "permutation", "controlled", "dense", "generic"};
    auto& registry = obs::MetricsRegistry::global();
    for (int i = 0; i < 5; ++i) {
      const std::string label =
          std::string("{class=\"") + kClassNames[i] + "\"}";
      applies[i] = registry.counter(
          "bgls_kernel_apply_total" + label,
          "Statevector matrix applies by kernel dispatch class");
      seconds[i] = registry.histogram(
          "bgls_kernel_apply_seconds" + label,
          "Apply wall time by kernel dispatch class (dim >= 4096 only)");
    }
  }

  static KernelMetrics& instance() {
    static KernelMetrics metrics;
    return metrics;
  }
};

/// Counts (always) and times (large states only) one apply.
class [[maybe_unused]] TimedApply {
 public:
  TimedApply(int cls, std::size_t dim) noexcept {
#if BGLS_TELEMETRY
    cls_ = cls;
    KernelMetrics::instance().applies[cls_].add();
    if (dim >= kTimedApplyDim && obs::enabled()) {
      timed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
#else
    (void)cls;
    (void)dim;
#endif
  }

  ~TimedApply() {
#if BGLS_TELEMETRY
    if (timed_) {
      KernelMetrics::instance().seconds[cls_].observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count());
    }
#endif
  }

 private:
#if BGLS_TELEMETRY
  int cls_ = 0;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;
#endif
};

int class_index(GateClass cls) {
  switch (cls) {
    case GateClass::kDiagonal:
      return 0;
    case GateClass::kPermutation:
      return 1;
    case GateClass::kControlled:
      return 2;
    case GateClass::kDense:
      return 3;
  }
  return 3;
}

}  // namespace

CompiledMatrix compile(Matrix m) {
  CompiledMatrix out;
  out.matrix = std::move(m);
  out.classification = classify(out.matrix);
  return out;
}

void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const Matrix& m, std::span<const int> qubits) {
  (void)num_qubits;
  if (force_generic() || qubits.size() > kMaxKernelArity) {
    const TimedApply timer(KernelMetrics::kGeneric, amplitudes.size());
    apply_generic(amplitudes, m, qubits);
    return;
  }
  const Classification c = classify(m);
  const TimedApply timer(class_index(c.cls), amplitudes.size());
  dispatch_classified(amplitudes, m, c, qubits);
}

void apply_matrix(std::span<Complex> amplitudes, int num_qubits,
                  const CompiledMatrix& compiled,
                  std::span<const int> qubits) {
  (void)num_qubits;
  if (force_generic() || qubits.size() > kMaxKernelArity) {
    const TimedApply timer(KernelMetrics::kGeneric, amplitudes.size());
    apply_generic(amplitudes, compiled.matrix, qubits);
    return;
  }
  const TimedApply timer(class_index(compiled.classification.cls),
                         amplitudes.size());
  dispatch_classified(amplitudes, compiled.matrix, compiled.classification,
                      qubits);
}

bool force_generic() {
  return g_force_generic.load(std::memory_order_relaxed);
}

void set_force_generic(bool force) {
  g_force_generic.store(force, std::memory_order_relaxed);
}

ForceGenericScope::ForceGenericScope(bool force) : previous_(force_generic()) {
  set_force_generic(force);
}

ForceGenericScope::~ForceGenericScope() { set_force_generic(previous_); }

}  // namespace bgls::kernels
