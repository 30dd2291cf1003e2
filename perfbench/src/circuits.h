/// \file circuits.h
/// The workloads' seeded circuit families.

#pragma once

#include "circuit/circuit.h"
#include "util/rng.h"

namespace perfbench {

/// A seeded random circuit over {X, Y, Z, H, S, T, CX, CZ} on a fixed
/// layout: H on every qubit, then rounds of (a random gate from
/// {X, Y, Z, S}, T, H) on every qubit followed by a random CX or CZ on
/// each pair of a random perfect matching. The layout keeps the cost
/// from swinging with the seed: with freely drawn single-qubit gates
/// the mostly-Clifford circuits left the dictionary's support at
/// seed-dependent powers of two, and dict_heavy's probability
/// evaluations spread 38% (IQR over median, 12 seeds) against 2% here.
/// The random matching keeps the circuit off kAuto's 1-D
/// nearest-neighbour mps route.
bgls::Circuit brickwork(int n, int rounds, bgls::Rng& rng);

/// A random Clifford circuit on the same layout: H on every qubit, then
/// rounds of (a random gate from {X, Y, Z, S}, H) on every qubit and a
/// random CX or CZ on each pair of a random perfect matching.
bgls::Circuit clifford_brickwork(int n, int rounds, bgls::Rng& rng);

/// A 1-D chain: H on every qubit, CZ on each nearest-neighbour pair
/// (0,1), (2,3), ..., then a random T or S on every qubit with at least
/// one T. Low-entangling (every pair ends equally entangled, so the
/// cost does not depend on the seed) and not Clifford, so kAuto's cost
/// model routes it to mps.
bgls::Circuit chain(int n, bgls::Rng& rng);

/// `circuit` plus a terminal measurement of qubits 0..n-1 under key "m".
bgls::Circuit measured(bgls::Circuit circuit, int n);

}  // namespace perfbench
