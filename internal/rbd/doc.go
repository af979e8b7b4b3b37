// Package rbd is a test-only oracle: it implements Reliability Block
// Diagrams (§4) to cross-check the evaluators of internal/mapping, and
// no shipped package imports it (CI checks). A RBD is operational iff
// some source→destination path has every block operational; blocks fail
// independently.
//
// Two representations are provided, mirroring the paper's discussion:
//
//   - SP trees (series-parallel diagrams), whose reliability is computed
//     in linear time. The mapping-with-routing-operations of Fig. 5
//     always yields an SP tree (Routed), which is exactly Eq. (9): its
//     failure probability equals mapping.Evaluate's bit for bit.
//   - System, a generic coherent system over independent blocks with
//     exhaustive 2^B evaluation, minimal-cut and minimal-path
//     enumeration, and the Esary–Proschan bounds the paper cites [24].
//     SPSystem flattens an SP tree into one, and StageSystem flattens
//     the unrouted Fig. 4 diagram of mapping.StageSystem, so both the
//     closed form and the subset DP are checked against exhaustive
//     evaluation on small instances.
package rbd
