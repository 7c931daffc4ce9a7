// Package cluster is the fault-tolerant front door over a fleet of
// resembled backends: one coordinator process that makes N instances
// look like a single, more reliable one.
//
// The layers (see DESIGN.md §12):
//
//   - routing: a consistent-hash ring (Ring) keys every /v1/run
//     request by its workload/trace identity, so identical traces land
//     on the same backend and its trace cache generates each trace
//     exactly once fleet-wide; membership changes remap only the keys
//     the changed backend owned;
//   - health: an active prober (Health) scrapes each backend's
//     /readyz and feeds a per-backend resilience.Breaker — consecutive
//     probe failures eject the backend from routing, and the breaker's
//     half-open window readmits it through live probes;
//   - failover: a request whose backend fails (connect error, 5xx,
//     timeout) retries on the ring's next healthy node, budgeted by a
//     shared resilience.Budget so a fleet-wide outage cannot amplify
//     load; hedging launches a second copy of a slow request on the
//     next node and takes the first answer — both are safe because the
//     deterministic run contract makes every execution of a request
//     byte-equivalent;
//   - admission: a bounded in-flight gate sheds excess load with
//     503 + Retry-After before it reaches any backend;
//   - determinism: backends ship each run's telemetry windows back in
//     the response, and a reorder buffer (committer) merges them into
//     the front door's collector in admission-seq order — a sharded
//     run's windows.jsonl byte-matches the single-instance run;
//   - drain: the front door quiesces in order — admission closes,
//     in-flight requests finish, then each backend is drained in turn;
//   - operations: the nine operator routes (/healthz, /readyz,
//     /metrics, /stats, incidents, drain, ...) come from
//     telemetry.Surface, the same surface each backend serves.
//
// Everything is stdlib-only, like the rest of the repo.
package cluster
