// Package reduction implements the NP-completeness gadgets of the
// paper's hardness proofs as executable constructions:
//
//   - FromTwoPartition builds the §5.3 (Theorem 3) instance showing that
//     (reliability | latency) optimization on homogeneous platforms
//     encodes 2-PARTITION;
//   - FromThreePartition builds the §6 (Theorem 5) instance showing that
//     mono-criterion reliability optimization on heterogeneous platforms
//     encodes 3-PARTITION.
//
// The package is test-only: no shipped package imports it (CI checks).
// The gadgets are verified end to end in its tests: on small inputs,
// the exact solvers find a mapping meeting the gadget's reliability
// threshold exactly when the source partition problem is solvable. This
// exercises the solvers in the adversarial corner of the instance space
// (astronomically small failure rates, reliability gaps of order λ², λ³)
// where the failure-space arithmetic of internal/failure is
// indispensable.
package reduction
