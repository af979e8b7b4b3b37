// Package adapt is the online-adaptation engine: a discrete-event
// *lifetime* simulation of a mapped pipeline over a whole mission, in
// which processors suffer permanent (crash) failures at exponentially
// distributed times and a pluggable repair policy decides how the
// mapping evolves. It answers the question the static solvers cannot:
// how reliable is a deployment over a mission during which the platform
// itself degrades, and how much does online re-optimization buy?
//
// The model separates the paper's two failure granularities:
//
//   - Transient failures (§2.4) hit individual data sets; they are what
//     Eq. (9) evaluates and what the per-data-set failure probability of
//     the current mapping captures at every instant.
//   - Permanent failures (crashes) remove a processor for the rest of
//     the mission. Crash arrival times are drawn once per processor from
//     an exponential law with rate λ_u·LifeScale (LifeScale decouples
//     the mission clock from the per-data-set rates, which are far too
//     small to observe within one mission).
//
// Between crashes the system is in a *segment* with a fixed mapping;
// the per-data-set failure probability of that mapping, integrated over
// the segment at the injection period, yields the mission reliability
// exactly (no Monte-Carlo sampling of individual data sets is needed).
// A crash closes the segment, the repair policy patches or rebuilds the
// mapping, and the next segment opens. The event loop pops pending
// crashes from a typed heap ordered by (time, scheduling order), the
// same stable tie-break as the data-set simulator's event queue.
//
// Determinism contract: a run is a pure function of (chain, platform,
// initial mapping, Options). Crash times are drawn from the replication
// seed in processor order before the event loop starts; the repair
// policies draw from a Split stream so policy randomness never perturbs
// the crash schedule; remap re-optimizations run search.Repair
// sequentially with seeds derived from that stream. RunBatch shards
// replications over internal/par with seeds drawn up front, so a batch
// is bit-identical at every parallelism degree (mirroring sim.RunBatch).
package adapt
